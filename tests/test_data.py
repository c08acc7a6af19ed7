"""Synthetic generator, binary dataset format, and split planning."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnt.data import (
    BadMagicError,
    BadVersionError,
    ConnectivityGraph,
    DatasetFormatError,
    GeneratorSpec,
    SplitError,
    SplitPlan,
    TruncationError,
    VMismatchError,
    generate_dataset,
    key_values,
    module_of_node,
    random_split,
    read_dataset,
    stratified_split,
    write_dataset,
)
from bnt.rng import Rng

SMALL = GeneratorSpec(
    nodes=16, modules=4, subjects_per_class=6, sites=2, series_length=64, seed=3
)


@pytest.fixture(scope="module")
def small_graphs():
    return generate_dataset(SMALL)


# ---------------------------------------------------------------------------
# generator


def test_module_assignment_even_and_contiguous():
    assert module_of_node(8, 4).tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
    for v, m in ((10, 3), (7, 7), (5, 1), (32, 4)):
        member = module_of_node(v, m)
        sizes = np.bincount(member, minlength=m)
        assert sizes.sum() == v
        assert sizes.max() - sizes.min() <= 1
        assert (np.diff(member) >= 0).all()  # contiguous blocks


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(nodes=0),
        dict(modules=0),
        dict(modules=33),  # exceeds default nodes=32
        dict(subjects_per_class=0),
        dict(sites=0),
        dict(within_strength=0.0),
        dict(within_strength=1.0),
        dict(between_strength_class0=-0.1),
        dict(between_strength_class1=1.5),
        dict(site_noise=-1.0),
        dict(series_length=3),
    ],
)
def test_generator_spec_rejects(kwargs):
    with pytest.raises(ValueError):
        GeneratorSpec(**kwargs).validate()


def test_generate_count_labels_sites(small_graphs):
    assert len(small_graphs) == 2 * SMALL.subjects_per_class
    for g in small_graphs:
        assert g.subject_id // SMALL.subjects_per_class == g.label
        assert g.site == (g.subject_id % SMALL.subjects_per_class) % SMALL.sites
    labels = [g.label for g in small_graphs]
    assert labels.count(0) == labels.count(1) == SMALL.subjects_per_class


def test_generate_matrix_properties(small_graphs):
    for g in small_graphs:
        m = g.matrix
        assert m.shape == (SMALL.nodes, SMALL.nodes)
        assert np.array_equal(m, m.T)
        assert (np.diagonal(m) == 1.0).all()
        assert m.min() >= -1.0 and m.max() <= 1.0
        # correlation matrices are positive semidefinite
        assert np.linalg.eigvalsh(m).min() > -1e-8


def test_generate_deterministic(small_graphs):
    again = generate_dataset(SMALL)
    for a, b in zip(small_graphs, again):
        assert (a.subject_id, a.label, a.site) == (b.subject_id, b.label, b.site)
        assert np.array_equal(a.matrix, b.matrix)


def test_within_module_correlation_dominates(small_graphs):
    member = module_of_node(SMALL.nodes, SMALL.modules)
    same = member[:, None] == member[None, :]
    off_diag = ~np.eye(SMALL.nodes, dtype=bool)
    for g in small_graphs:
        within = g.matrix[same & off_diag].mean()
        between = g.matrix[~same].mean()
        assert within > between


def test_class_contrast_in_between_module_correlation(small_graphs):
    member = module_of_node(SMALL.nodes, SMALL.modules)
    cross = member[:, None] != member[None, :]
    means = {0: [], 1: []}
    for g in small_graphs:
        means[g.label].append(g.matrix[cross].mean())
    # class 1 mixes modules more strongly than class 0 by construction
    assert np.mean(means[1]) > np.mean(means[0])


def test_graph_validate_rejects_bad_matrices():
    good = np.eye(3)
    cases = [
        np.ones((2, 3)),  # not square
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # out of range
        np.array([[1.0, 0.5], [0.4, 1.0]]),  # asymmetric
        np.array([[0.9, 0.0], [0.0, 1.0]]),  # diagonal not 1
        np.array([[1.0, np.nan], [np.nan, 1.0]]),  # non-finite
    ]
    for matrix in cases:
        with pytest.raises(ValueError):
            ConnectivityGraph(subject_id=0, label=0, site=0, matrix=matrix).validate()
    ConnectivityGraph(subject_id=0, label=0, site=0, matrix=good).validate()
    with pytest.raises(ValueError):
        ConnectivityGraph(subject_id=0, label=3, site=0, matrix=good).validate()


# ---------------------------------------------------------------------------
# binary format


def test_roundtrip_preserves_records(tmp_path, small_graphs):
    path = tmp_path / "set.bntd"
    write_dataset(path, small_graphs)
    back = read_dataset(path)
    assert len(back) == len(small_graphs)
    for a, b in zip(small_graphs, back):
        assert (a.subject_id, a.label, a.site) == (b.subject_id, b.label, b.site)
        # storage is float32; the roundtrip must be exactly the f32 cast
        assert np.array_equal(b.matrix, a.matrix.astype(np.float32).astype(np.float64))


def test_rewrite_is_byte_identical(tmp_path, small_graphs):
    first = tmp_path / "a.bntd"
    second = tmp_path / "b.bntd"
    write_dataset(first, small_graphs)
    write_dataset(second, read_dataset(first))
    assert first.read_bytes() == second.read_bytes()


def test_a_write_failing_midway_leaves_the_old_file_and_no_temp(tmp_path, small_graphs):
    path = tmp_path / "set.bntd"
    write_dataset(path, small_graphs)
    before = path.read_bytes()
    # the third record's matrix passes the shape check but cannot become float32
    bad = replace(small_graphs[2], matrix=np.full((16, 16), "x", dtype=object))
    with pytest.raises(ValueError):
        write_dataset(path, [*small_graphs[:2], bad])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["set.bntd"]


def test_write_rejects_empty_and_mixed_sizes(tmp_path):
    with pytest.raises(ValueError):
        write_dataset(tmp_path / "x.bntd", [])
    graphs = [
        ConnectivityGraph(0, 0, 0, np.eye(3)),
        ConnectivityGraph(1, 0, 0, np.eye(4)),
    ]
    with pytest.raises(VMismatchError):
        write_dataset(tmp_path / "x.bntd", graphs)


def test_read_error_kinds(tmp_path, small_graphs):
    path = tmp_path / "set.bntd"
    write_dataset(path, small_graphs)
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.bntd"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(BadMagicError):
        read_dataset(bad_magic)

    bad_version = tmp_path / "version.bntd"
    bad_version.write_bytes(raw[:4] + (99).to_bytes(4, "little") + raw[8:])
    with pytest.raises(BadVersionError):
        read_dataset(bad_version)

    truncated = tmp_path / "short.bntd"
    truncated.write_bytes(raw[:-7])
    with pytest.raises(TruncationError):
        read_dataset(truncated)

    padded = tmp_path / "long.bntd"
    padded.write_bytes(raw + b"\x00")
    with pytest.raises(TruncationError):
        read_dataset(padded)

    with pytest.raises(VMismatchError):
        read_dataset(path, expect_nodes=SMALL.nodes + 1)
    assert len(read_dataset(path, expect_nodes=SMALL.nodes)) == len(small_graphs)

    # 16-byte file header, 8-byte record head, then entry (0, 0) and (0, 1)
    nan = tmp_path / "nan.bntd"
    nan.write_bytes(raw[:28] + np.float32(np.nan).tobytes() + raw[32:])
    with pytest.raises(DatasetFormatError, match=f"subject {small_graphs[0].subject_id}: .*non-finite"):
        read_dataset(nan)

    # write_dataset refuses a repeated id, so copy record 0's id into record 1
    sid = small_graphs[0].subject_id
    second = 16 + 8 + 4 * SMALL.nodes**2
    twice = tmp_path / "twice.bntd"
    twice.write_bytes(raw[:second] + raw[16:20] + raw[second + 4 :])
    with pytest.raises(DatasetFormatError, match=f"subject {sid} appears twice"):
        read_dataset(twice)


@pytest.mark.parametrize(
    "index, change, match",
    [
        (1, dict(subject_id=0), "subject 0 appears twice"),  # record 0 has id 0
        (2, dict(label=2), "label must be 0 or 1"),
        (3, dict(site=2**16), "site out of range"),
        (4, dict(subject_id=-1), "subject_id out of range"),
    ],
)
def test_write_checks_every_record_before_opening(tmp_path, small_graphs, index, change, match):
    graphs = list(small_graphs)
    graphs[index] = replace(graphs[index], **change)
    path = tmp_path / "bad.bntd"
    with pytest.raises(ValueError, match=match):
        write_dataset(path, graphs)
    assert not path.exists()


# ---------------------------------------------------------------------------
# splits


def _cell_counts(graphs, ids):
    counts = {}
    by_id = {g.subject_id: g for g in graphs}
    for i in ids:
        g = by_id[i]
        counts[(g.site, g.label)] = counts.get((g.site, g.label), 0) + 1
    return counts


def test_stratified_split_partitions_everything(small_graphs):
    plan = stratified_split(small_graphs, (0.5, 0.25, 0.25), Rng(0))
    all_ids = sorted(plan.train + plan.val + plan.test)
    assert all_ids == sorted(g.subject_id for g in small_graphs)
    assert set(plan.train).isdisjoint(plan.val)
    assert set(plan.train).isdisjoint(plan.test)
    assert set(plan.val).isdisjoint(plan.test)
    assert plan.train == sorted(plan.train)


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=10_000),
)
@settings(deadline=None, max_examples=40)
def test_stratified_cells_deviate_at_most_one(per_class, sites, seed):
    # duck-typed records: the splitter only needs subject_id, label, site
    rng = Rng(seed)
    graphs = [
        ConnectivityGraph(subject_id=i, label=i % 2, site=int(rng.uniform(1)[0] * sites), matrix=np.eye(1))
        for i in range(2 * per_class)
    ]
    fractions = (0.7, 0.1, 0.2)
    plan = stratified_split(graphs, fractions, Rng(seed + 1))
    for part_index, ids in enumerate((plan.train, plan.val, plan.test)):
        counts = _cell_counts(graphs, ids)
        totals = _cell_counts(graphs, [g.subject_id for g in graphs])
        for cell, total in totals.items():
            target = fractions[part_index] * total
            assert abs(counts.get(cell, 0) - target) <= 1.0


def test_split_deterministic(small_graphs):
    a = stratified_split(small_graphs, (0.7, 0.1, 0.2), Rng(4))
    b = stratified_split(small_graphs, (0.7, 0.1, 0.2), Rng(4))
    assert (a.train, a.val, a.test) == (b.train, b.val, b.test)
    c = stratified_split(small_graphs, (0.7, 0.1, 0.2), Rng(5))
    assert (a.train, a.val, a.test) != (c.train, c.val, c.test)


def test_split_rejects_bad_fractions(small_graphs):
    nan = float("nan")  # passes the sum check: abs(nan - 1) > 1e-9 is False
    for fractions in ((0.5, 0.5), (0.5, 0.3, 0.3), (-0.1, 0.6, 0.5), (nan, 0.5, 0.5), (0.7, nan, 0.3)):
        for splitter in (stratified_split, random_split):
            with pytest.raises(ValueError):
                splitter(small_graphs, fractions, Rng(0))


def test_small_cells_warn():
    # one subject per (site, label) cell cannot cover three non-empty splits
    graphs = [
        ConnectivityGraph(subject_id=i, label=i % 2, site=0, matrix=np.eye(1))
        for i in range(2)
    ]
    plan = stratified_split(graphs, (0.7, 0.1, 0.2), Rng(0))
    assert len(plan.warnings) == 2


def test_random_split_partitions(small_graphs):
    plan = random_split(small_graphs, (0.5, 0.25, 0.25), Rng(1))
    assert not plan.stratified
    all_ids = sorted(plan.train + plan.val + plan.test)
    assert all_ids == sorted(g.subject_id for g in small_graphs)


# Duck-typed records over 3 sites with uneven cells, some too small for
# three non-empty splits (so stratified plans carry warnings).
_UNEVEN = [
    ConnectivityGraph(subject_id=3 * i + 1, label=(i * i) % 2, site=i % 5 % 3, matrix=np.eye(1))
    for i in range(23)
]


# Digests of each splitter's plan texts at seeds 0, 5, 17 and three fraction
# triples: a split file must not change when the splitters' code does.
@pytest.mark.parametrize(
    "dataset, splitter, digest",
    [
        ("small", stratified_split, "bda0c64b7e9b84b3"),
        ("small", random_split, "f5f41eb6ddefe776"),
        ("uneven", stratified_split, "1580875d2daaac24"),
        ("uneven", random_split, "c60773b58549923b"),
        ("tiny", stratified_split, "0bf22e99b9315866"),
        ("tiny", random_split, "d06995d2b587c0f6"),
    ],
)
def test_split_plan_texts_are_pinned(small_graphs, dataset, splitter, digest):
    graphs = {"small": small_graphs, "uneven": _UNEVEN, "tiny": _UNEVEN[:2]}[dataset]
    texts = "".join(
        splitter(graphs, fractions, Rng(seed)).to_text()
        for seed in (0, 5, 17)
        for fractions in ((0.7, 0.1, 0.2), (0.5, 0.25, 0.25), (0.6, 0.0, 0.4))
    )
    assert hashlib.sha256(texts.encode()).hexdigest()[:16] == digest


def _alternating(n):
    """Records with ids 10, 11, ... labelled 0, 1, 0, 1, ..."""
    return [ConnectivityGraph(subject_id=10 + i, label=i % 2, site=0, matrix=np.eye(1)) for i in range(n)]


def test_select_returns_each_named_list_in_list_order():
    graphs = _alternating(6)
    plan = SplitPlan([13, 10], [12, 11], [15, 14], (0.4, 0.3, 0.3))
    assert [[g.subject_id for g in part] for part in plan.select(graphs)] == [[13, 10], [12, 11], [15, 14]]
    # naming only the test list leaves train and val unchecked
    plan = SplitPlan([99], [], [15, 14], (0.4, 0.3, 0.3))
    assert [[g.subject_id for g in part] for part in plan.select(graphs, ("test",))] == [[15, 14]]


def test_key_values_reads_the_lines_of_one_kind():
    text = "kind = split_plan\nwarning = b\n x = 1 \nno equals sign\nwarning = a\nx = 2 = 3\n"
    kv = key_values(text, "split_plan", repeated="warning")
    assert kv["warning"] == ["b", "a"]  # in document order
    assert kv["x"] == "2 = 3"  # the last line wins; a value may hold '='
    with pytest.raises(ValueError, match="^split plan has no fractions line$"):
        kv["fractions"]
    with pytest.raises(ValueError, match="^not a train report document$"):
        key_values(text, "train_report")


@pytest.mark.parametrize(
    "train, val, test, message",
    [
        ([10, 99], [12, 13], [14], "train list references subject id 99 absent from the dataset"),
        ([10, 11], [12, 13], [14, 99], "test list references subject id 99 absent from the dataset"),
        ([], [12, 13], [14], "the train list is empty; train and val need both classes"),
        ([11, 13], [12, 15], [14], "the train list holds only class 1; train and val need both classes"),
        ([10, 11], [], [14], "the val list is empty; train and val need both classes"),
        ([10, 11], [12, 14], [13], "the val list holds only class 0; train and val need both classes"),
        ([10, 11], [12, 13], [13], "subject id 13 appears in both val and test"),
    ],
)
def test_select_refuses_a_plan_that_does_not_fit(train, val, test, message):
    plan = SplitPlan(train, val, test, (0.4, 0.3, 0.3))
    with pytest.raises(SplitError, match=f"^{message}$") as caught:
        plan.select(_alternating(6))
    # a data error to the CLI (exit 2), a ValueError to library callers
    assert isinstance(caught.value, DatasetFormatError) and isinstance(caught.value, ValueError)


def test_split_plan_text_roundtrip(small_graphs):
    plan = stratified_split(small_graphs, (0.7, 0.1, 0.2), Rng(7))
    assert SplitPlan.from_text(plan.to_text()) == plan
    # warnings must survive the trip too
    tiny = [
        ConnectivityGraph(subject_id=i, label=i % 2, site=0, matrix=np.eye(1))
        for i in range(2)
    ]
    warned = stratified_split(tiny, (0.7, 0.1, 0.2), Rng(7))
    assert warned.warnings
    assert SplitPlan.from_text(warned.to_text()) == warned


def test_split_plan_rejects_garbage():
    with pytest.raises(ValueError):
        SplitPlan.from_text("kind = something_else\n")
    with pytest.raises(ValueError, match="no fractions line"):
        SplitPlan.from_text("kind = split_plan\ntrain = 0 1\nval = 2\ntest = 3\n")


@pytest.mark.parametrize(
    "train, val, test, message",
    [
        ([0, 1, 2], [3], [4, 1], "subject id 1 appears in both train and test"),
        ([0, 1], [2, 3, 2], [4], "subject id 2 appears twice in val"),
    ],
)
def test_split_plan_rejects_overlaps_and_repeats(train, val, test, message):
    plan = SplitPlan(train, val, test, (0.6, 0.2, 0.2))
    with pytest.raises(ValueError, match=message):
        plan.validate()
    with pytest.raises(ValueError, match=message):
        SplitPlan.from_text(plan.to_text())
