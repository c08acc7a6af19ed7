"""Synthetic generator, binary dataset format, and split planning."""

import dataclasses
import hashlib
import os
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnt.data
from bnt.data import (
    BadMagicError,
    BadVersionError,
    Dataset,
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
from bnt.cli import main as cli_main
from bnt.model import ModelConfig, init_params
from bnt.rng import Rng
from bnt.training import evaluate
from bnt.workers import ordered_map

from _oracles import held

SMALL = GeneratorSpec(
    nodes=16, modules=4, subjects_per_class=6, sites=2, series_length=64, seed=3
)


@pytest.fixture(scope="module")
def small_graphs():
    return held(generate_dataset(SMALL))


def _records(ids, labels, sites):
    """A dataset of 1 x 1 unit matrices; the splitters read only ids, labels and sites."""
    return Dataset(np.array(ids), np.array(labels), np.array(sites), np.ones((len(ids), 1, 1)))


def _with_row(dataset, index, **change):
    """A copy of ``dataset`` whose row ``index`` takes the given field values."""
    copy = Dataset(*(getattr(dataset, f.name).copy() for f in fields(Dataset)))
    for name, value in change.items():
        getattr(copy, name)[index] = value
    return copy


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
    for subject_id, label, site in zip(small_graphs.subject_ids, small_graphs.labels, small_graphs.sites):
        assert subject_id // SMALL.subjects_per_class == label
        assert site == (subject_id % SMALL.subjects_per_class) % SMALL.sites
    labels = small_graphs.labels.tolist()
    assert labels.count(0) == labels.count(1) == SMALL.subjects_per_class


def test_generate_matrix_properties(small_graphs):
    assert small_graphs.matrices.dtype == np.float64
    for m in small_graphs.matrices:
        assert m.shape == (SMALL.nodes, SMALL.nodes)
        assert np.array_equal(m, m.T)
        assert (np.diagonal(m) == 1.0).all()
        assert m.min() >= -1.0 and m.max() <= 1.0
        # correlation matrices are positive semidefinite
        assert np.linalg.eigvalsh(m).min() > -1e-8


def test_generate_deterministic(small_graphs):
    again = held(generate_dataset(SMALL))
    for f in fields(Dataset):
        assert np.array_equal(getattr(small_graphs, f.name), getattr(again, f.name))


def test_within_module_correlation_dominates(small_graphs):
    member = module_of_node(SMALL.nodes, SMALL.modules)
    same = member[:, None] == member[None, :]
    off_diag = ~np.eye(SMALL.nodes, dtype=bool)
    for m in small_graphs.matrices:
        within = m[same & off_diag].mean()
        between = m[~same].mean()
        assert within > between


def test_class_contrast_in_between_module_correlation(small_graphs):
    member = module_of_node(SMALL.nodes, SMALL.modules)
    cross = member[:, None] != member[None, :]
    means = {0: [], 1: []}
    for label, m in zip(small_graphs.labels, small_graphs.matrices):
        means[label].append(m[cross].mean())
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
            Dataset(np.array([0]), np.array([0]), np.array([0]), matrix[None]).validate()
    Dataset(np.array([0]), np.array([0]), np.array([0]), good[None]).validate()
    with pytest.raises(ValueError):
        Dataset(np.array([0]), np.array([3]), np.array([0]), good[None]).validate()
    with pytest.raises(ValueError, match="expected 2 labels, 2 sites and 2 square matrices"):
        Dataset(np.array([0, 1]), np.array([0]), np.array([0, 0]), np.stack([good, good])).validate()


@pytest.mark.parametrize("gap, symmetric", [(0.5e-6, True), (2e-6, False)])
def test_validate_allows_asymmetry_up_to_1e_6(gap, symmetric):
    matrix = np.array([[1.0, 0.25 + gap], [0.25, 1.0]])
    dataset = Dataset(np.array([0]), np.array([0]), np.array([0]), matrix[None])
    if symmetric:
        dataset.validate()
    else:
        with pytest.raises(DatasetFormatError, match="not symmetric within 1e-6"):
            dataset.validate()


# ---------------------------------------------------------------------------
# binary format


def test_roundtrip_preserves_records(tmp_path, small_graphs):
    path = tmp_path / "set.bntd"
    write_dataset(path, small_graphs)
    back = read_dataset(path)
    assert len(back) == len(small_graphs)
    for name in ("subject_ids", "labels", "sites"):
        assert getattr(back, name).tolist() == getattr(small_graphs, name).tolist()
    # storage is float32 and the reader keeps it; widened, the roundtrip must
    # be exactly the f32 cast
    assert back.matrices.dtype == np.float32
    assert np.array_equal(back.matrices, small_graphs.matrices.astype(np.float32).astype(np.float64))


def test_rewrite_is_byte_identical(tmp_path, small_graphs):
    first = tmp_path / "a.bntd"
    second = tmp_path / "b.bntd"
    write_dataset(first, small_graphs)
    write_dataset(second, read_dataset(first))
    assert first.read_bytes() == second.read_bytes()


class _FailingRecords:
    """A binary file whose second write, the records after the header, fails."""

    def __init__(self, path, mode):
        self.file, self.writes = open(path, mode), 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise ValueError("write failed")
        return self.file.write(data)


def test_a_write_failing_midway_leaves_the_old_file_and_no_temp(tmp_path, small_graphs, monkeypatch):
    path = tmp_path / "set.bntd"
    write_dataset(path, small_graphs)
    before = path.read_bytes()
    # the header is written, then writing the records fails
    monkeypatch.setattr(bnt.data, "open", _FailingRecords, raising=False)
    with pytest.raises(ValueError):
        write_dataset(path, small_graphs)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["set.bntd"]


def test_write_rejects_empty_and_mixed_sizes(tmp_path):
    with pytest.raises(ValueError):
        write_dataset(tmp_path / "x.bntd", _records([], [], []))


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

    # a node count whose record no NumPy dtype can hold, with and without records
    for n in (0, 1):
        huge = tmp_path / f"huge{n}.bntd"
        huge.write_bytes(raw[:8] + (2**16).to_bytes(4, "little") + n.to_bytes(4, "little") + raw[16:16 + 8 * n])
        with pytest.raises(DatasetFormatError, match="exceeds the largest NumPy dtype"):
            read_dataset(huge)

    with pytest.raises(VMismatchError):
        read_dataset(path, expect_nodes=SMALL.nodes + 1)
    assert len(read_dataset(path, expect_nodes=SMALL.nodes)) == len(small_graphs)

    # 16-byte file header, 8-byte record head, then entry (0, 0) and (0, 1)
    nan = tmp_path / "nan.bntd"
    nan.write_bytes(raw[:28] + np.float32(np.nan).tobytes() + raw[32:])
    with pytest.raises(DatasetFormatError, match=f"subject {small_graphs.subject_ids[0]}: .*non-finite"):
        read_dataset(nan)

    # write_dataset refuses a repeated id, so copy record 0's id into record 1
    sid = small_graphs.subject_ids[0]
    second = 16 + 8 + 4 * SMALL.nodes**2
    twice = tmp_path / "twice.bntd"
    twice.write_bytes(raw[:second] + raw[16:20] + raw[second + 4 :])
    with pytest.raises(DatasetFormatError, match=f"subject {sid} appears twice"):
        read_dataset(twice)


class _ShrunkFile:
    """A binary file whose record read stops 7 bytes short, as if the file
    shrank after its size was checked."""

    def __init__(self, path, mode):
        self.file = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def __getattr__(self, name):
        return getattr(self.file, name)

    def readinto(self, buffer):
        return self.file.readinto(memoryview(buffer)[:-7])


def test_a_file_that_shrinks_after_its_size_check_is_truncated(tmp_path, small_graphs, monkeypatch):
    path = tmp_path / "set.bntd"
    write_dataset(path, small_graphs)
    size = path.stat().st_size
    monkeypatch.setattr(bnt.data, "open", _ShrunkFile, raising=False)
    with pytest.raises(TruncationError, match=f"^file is {size - 7} bytes, expected {size} for "):
        read_dataset(path)


def test_reading_holds_the_file_once(tmp_path):
    # 64 V=64 records: 1.00 MiB of file, of which a read holds one 16-record chunk at a time
    path = tmp_path / "set.bntd"
    write_dataset(path, generate_dataset(GeneratorSpec(nodes=64, subjects_per_class=32, series_length=64)))
    chunk = 16 * (8 + 4 * 64 * 64)
    tracemalloc.start()
    try:
        dataset = read_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= chunk + 2**18, (peak, chunk)
    assert dataset.matrices.dtype == np.float32


def _eye_with(entries):
    """The SMALL-sized identity with the given {(row, column): value} entries."""
    m = np.eye(SMALL.nodes)
    for at, value in entries.items():
        m[at] = value
    return m


@pytest.mark.parametrize(
    "index, change, match",
    [
        (1, dict(subject_ids=0), "subject 0 appears twice"),  # record 0 has id 0
        (2, dict(labels=2), "label must be 0 or 1"),
        (3, dict(sites=2**16), "site out of range"),
        (4, dict(subject_ids=-1), "subject_id out of range"),
        # matrices read_dataset refuses are refused before a file is opened too
        (5, dict(matrices=_eye_with({(0, 1): 0.5})), "subject 5: matrix is not symmetric within 1e-6"),
        (6, dict(matrices=_eye_with({(2, 2): 0.9})), "subject 6: diagonal must be exactly 1"),
        (7, dict(matrices=_eye_with({(0, 1): 1.5, (1, 0): 1.5})), r"subject 7: entries must lie in \[-1, 1\]"),
    ],
)
def test_write_checks_every_record_before_opening(tmp_path, small_graphs, index, change, match):
    path = tmp_path / "bad.bntd"
    with pytest.raises(ValueError, match=match):
        write_dataset(path, _with_row(small_graphs, index, **change))
    assert not path.exists()


# Digests of write_dataset(generate_dataset(spec)) taken before the writer
# became one record dtype: a .bntd file must not change when its code does.
@pytest.mark.parametrize(
    "spec, digest",
    [
        (GeneratorSpec(nodes=1, modules=1, subjects_per_class=6, sites=2, seed=0), "100d6e3f7eab420a"),
        (GeneratorSpec(nodes=7, modules=3, subjects_per_class=9, sites=3, seed=1), "eb0e58f449c4a77f"),
        (GeneratorSpec(nodes=32, subjects_per_class=10, seed=2), "02db1bb2c38eafe4"),
    ],
)
def test_dataset_bytes_are_pinned(tmp_path, spec, digest):
    path = tmp_path / "set.bntd"
    write_dataset(path, generate_dataset(spec))
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("nan_record, repeat_record", [(2, 4), (4, 2)])
def test_read_names_the_first_bad_record(tmp_path, small_graphs, nan_record, repeat_record):
    path = tmp_path / "set.bntd"
    write_dataset(path, small_graphs)
    raw = bytearray(path.read_bytes())
    record = 8 + 4 * SMALL.nodes**2
    start = 16 + nan_record * record + 8 + 4  # the matrix entry (0, 1)
    raw[start : start + 4] = np.float32(np.nan).tobytes()
    start = 16 + repeat_record * record
    raw[start : start + 4] = raw[16:20]  # record 0's id
    path.write_bytes(bytes(raw))
    ids = small_graphs.subject_ids
    first = (f"subject {ids[nan_record]}: matrix has non-finite entries" if nan_record < repeat_record
             else f"subject {ids[0]} appears twice in the dataset")
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(first)}$"):
        read_dataset(path)


# 40 records: chunks of rows 0-15, 16-31 and 32-39; subject i has id i
CHUNKED = GeneratorSpec(nodes=8, modules=2, subjects_per_class=20, sites=3, series_length=32, seed=4)
_RECORD = 8 + 4 * CHUNKED.nodes**2


@pytest.fixture(scope="module")
def chunked_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("chunked") / "set.bntd"
    write_dataset(path, generate_dataset(CHUNKED))
    return path.read_bytes()


def _nan_at(raw, row):
    start = 16 + row * _RECORD + 8 + 4  # the matrix entry (0, 1)
    raw[start : start + 4] = np.float32(np.nan).tobytes()


def _label_at(raw, row):
    raw[16 + row * _RECORD + 4] = 2


def _id_of_row_3_at(raw, row):
    raw[16 + row * _RECORD : 16 + row * _RECORD + 4] = (3).to_bytes(4, "little")


@pytest.mark.parametrize(
    "corrupt, row, message",
    [
        (_nan_at, 5, "subject 5: matrix has non-finite entries"),
        (_label_at, 9, "subject 9: label must be 0 or 1, got 2"),
        (_nan_at, 17, "subject 17: matrix has non-finite entries"),
        (_label_at, 38, "subject 38: label must be 0 or 1, got 2"),
        (_id_of_row_3_at, 20, "subject 3 appears twice in the dataset"),
    ],
    ids=["matrix-first-chunk", "label-first-chunk", "matrix-later-chunk", "label-last-chunk", "id-across-chunks"],
)
def test_a_read_checked_in_chunks_names_the_first_bad_record(tmp_path, chunked_file, corrupt, row, message):
    # the text read_dataset gave when it checked the whole file at once; a
    # site read from a file always fits its two bytes (the writer checks it)
    raw = bytearray(chunked_file)
    corrupt(raw, row)
    _nan_at(raw, 39)  # a later bad record must not be the one named
    path = tmp_path / "bad.bntd"
    path.write_bytes(bytes(raw))
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
        read_dataset(path)


@pytest.mark.parametrize(
    "row, change, message",
    [
        (2, dict(sites=2**16), "subject 2: site out of range: 65536"),
        (21, dict(sites=2**16), "subject 21: site out of range: 65536"),
        (22, dict(labels=3), "subject 22: label must be 0 or 1, got 3"),
        (35, dict(subject_ids=4), "subject 4 appears twice in the dataset"),
    ],
)
def test_a_write_checked_in_chunks_names_the_first_bad_record(tmp_path, row, change, message):
    dataset = _with_row(_with_row(held(generate_dataset(CHUNKED)), row, **change), 39, labels=5)
    path = tmp_path / "bad.bntd"
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
        write_dataset(path, dataset)
    assert list(tmp_path.iterdir()) == []


def test_a_generated_dataset_writes_the_bytes_of_its_held_copy(tmp_path):
    computed, whole = tmp_path / "computed.bntd", tmp_path / "whole.bntd"
    write_dataset(computed, generate_dataset(CHUNKED))
    write_dataset(whole, held(generate_dataset(CHUNKED)))
    assert computed.read_bytes() == whole.read_bytes()


def _float32_rows(spec):
    return held(generate_dataset(spec)).matrices.astype(np.float32)


def test_a_file_cut_after_it_is_read_fails_the_next_gather(tmp_path, chunked_file):
    # a record the cut left whole fails too: the file is no longer the one checked
    path = tmp_path / "set.bntd"
    path.write_bytes(chunked_file)
    dataset = read_dataset(path)
    size = len(chunked_file)
    os.truncate(path, size - 7)
    for row in (38, 39):
        with pytest.raises(TruncationError, match=f"^file is {size - 7} bytes, expected {size} for 40 records$"):
            dataset.matrices[row]
    os.truncate(path, 16)
    with pytest.raises(TruncationError, match="^file is 16 bytes, "):
        dataset.matrices[0]


def test_a_file_rewritten_in_place_after_it_is_read_fails_the_next_gather(tmp_path, chunked_file):
    # the same file at the same size, so only its modification time tells
    path = tmp_path / "set.bntd"
    path.write_bytes(chunked_file)
    dataset = read_dataset(path)
    raw = bytearray(chunked_file)
    raw[16 + 8 + 4 : 16 + 8 + 8] = np.float32(5.0).tobytes()  # record 0's entry (0, 1), out of range
    time.sleep(0.02)  # a later tick of the file system's clock than the checked write
    with open(path, "r+b") as f:
        f.write(raw)
    assert path.stat().st_size == len(chunked_file)
    for row in (0, 39):
        with pytest.raises(DatasetFormatError, match="^dataset file changed after it was checked$"):
            dataset.matrices[row]


def test_a_file_of_no_records_reads_as_an_empty_dataset(tmp_path):
    path = tmp_path / "empty.bntd"
    path.write_bytes(bnt.data._HEADER.pack(bnt.data.MAGIC, bnt.data.FORMAT_VERSION, 16, 0))
    dataset = read_dataset(path)
    assert len(dataset) == 0 and dataset.matrices.shape == (0, 16, 16)
    assert dataset.labels.tolist() == dataset.sites.tolist() == []


def test_a_file_replaced_after_it_is_read_still_gives_the_checked_rows(tmp_path, chunked_file):
    path = tmp_path / "set.bntd"
    path.write_bytes(chunked_file)
    dataset = read_dataset(path)
    write_dataset(path, generate_dataset(dataclasses.replace(CHUNKED, seed=5)))  # replaces the path
    assert path.read_bytes() != chunked_file
    expected = _float32_rows(CHUNKED)
    assert all(np.array_equal(dataset.matrices[i], expected[i]) for i in range(len(dataset)))
    dataset.matrices.close()
    with pytest.raises(ValueError, match="closed dataset file"):
        dataset.matrices[0]


def test_lanes_and_forked_workers_read_rows_through_one_descriptor(tmp_path, chunked_file):
    # positional reads share no file offset: threads switching every
    # microsecond, and forked workers, each read every row in its own order
    path = tmp_path / "set.bntd"
    path.write_bytes(chunked_file)
    rows = read_dataset(path).matrices
    expected = [m.tobytes() for m in _float32_rows(CHUNKED)]
    orders = [np.roll(np.arange(len(rows))[:: 1 - 2 * (k % 2)], 7 * k) for k in range(6)]
    got = [None] * len(orders)

    def read(k):
        got[k] = [rows[i].tobytes() for i in orders[k] for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for order, seen in zip(orders, got):
        assert seen == [expected[i] for i in order for _ in range(3)]
    forked = list(ordered_map(lambda order: [rows[i].tobytes() for i in order], orders, 2))
    assert forked == [[expected[i] for i in order] for order in orders]


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_subject_count(tmp_path):
    # V=48: one chunk, 16 generated float64 matrices, is 288 KiB, and the 64
    # subjects added by doubling take 576 KiB as float32, so a command that
    # held the dataset would break the bound
    v = 48
    bound = 16 * 8 * v * v + 64 * 512  # one chunk, plus 512 bytes per added subject's id, label and site
    config = ModelConfig(nodes=v, layers=1, heads=2, mlp_hidden=(8,))
    params = init_params(config, Rng(1))
    peaks = []
    for per_class in (32, 64):
        d = tmp_path / str(per_class)
        d.mkdir()
        data, split = str(d / "set.bntd"), str(d / "split.txt")
        generate = ["generate", "--nodes", str(v), "--subjects-per-class", str(per_class), "--series-length", "32",
                    "--out", data]
        runs = {
            "generate": _peak(cli_main, generate),
            "read": _peak(read_dataset, data),
            "split": _peak(cli_main, ["split", "--dataset", data, "--out", split]),
        }

        def read_and_evaluate():
            dataset = read_dataset(data)
            with open(split, encoding="utf-8") as f:
                (test,) = SplitPlan.from_text(f.read()).select(dataset, ("test",))
            evaluate(params, config, dataset.matrices, dataset.labels, 1, test)

        runs["read+evaluate"] = _peak(read_and_evaluate)
        peaks.append(runs)
    for name in peaks[0]:
        assert peaks[1][name] - peaks[0][name] <= bound, (name, peaks, bound)


# ---------------------------------------------------------------------------
# splits


def _cell_counts(graphs, ids):
    counts = {}
    row_of = {sid: row for row, sid in enumerate(graphs.subject_ids.tolist())}
    for i in ids:
        cell = (graphs.sites[row_of[i]], graphs.labels[row_of[i]])
        counts[cell] = counts.get(cell, 0) + 1
    return counts


def test_stratified_split_partitions_everything(small_graphs):
    plan = stratified_split(small_graphs, (0.5, 0.25, 0.25), Rng(0))
    all_ids = sorted(plan.train + plan.val + plan.test)
    assert all_ids == sorted(small_graphs.subject_ids.tolist())
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
    # 1 x 1 records: the splitter reads only ids, labels and sites
    rng = Rng(seed)
    n = 2 * per_class
    graphs = _records(range(n), [i % 2 for i in range(n)], [int(rng.uniform(1)[0] * sites) for _ in range(n)])
    fractions = (0.7, 0.1, 0.2)
    plan = stratified_split(graphs, fractions, Rng(seed + 1))
    for part_index, ids in enumerate((plan.train, plan.val, plan.test)):
        counts = _cell_counts(graphs, ids)
        totals = _cell_counts(graphs, graphs.subject_ids.tolist())
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


@pytest.mark.parametrize("excess, ok", [(5e-10, True), (2e-9, False)])
def test_fractions_may_miss_a_sum_of_1_by_1e_9(excess, ok):
    fractions = (0.5, 0.25, 0.25 + excess)
    if ok:
        assert bnt.data._check_fractions(fractions) == fractions
    else:
        with pytest.raises(ValueError, match="fractions must sum to 1"):
            bnt.data._check_fractions(fractions)


def test_small_cells_warn():
    # one subject per (site, label) cell cannot cover three non-empty splits
    graphs = _records([0, 1], [0, 1], [0, 0])
    plan = stratified_split(graphs, (0.7, 0.1, 0.2), Rng(0))
    assert len(plan.warnings) == 2


def test_random_split_partitions(small_graphs):
    plan = random_split(small_graphs, (0.5, 0.25, 0.25), Rng(1))
    assert not plan.stratified
    all_ids = sorted(plan.train + plan.val + plan.test)
    assert all_ids == sorted(small_graphs.subject_ids.tolist())


# Records over 3 sites with uneven cells, some too small for
# three non-empty splits (so stratified plans carry warnings).
_UNEVEN = _records([3 * i + 1 for i in range(23)], [(i * i) % 2 for i in range(23)], [i % 5 % 3 for i in range(23)])


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
    tiny = Dataset(*(getattr(_UNEVEN, f.name)[:2] for f in fields(Dataset)))
    graphs = {"small": small_graphs, "uneven": _UNEVEN, "tiny": tiny}[dataset]
    texts = "".join(
        splitter(graphs, fractions, Rng(seed)).to_text()
        for seed in (0, 5, 17)
        for fractions in ((0.7, 0.1, 0.2), (0.5, 0.25, 0.25), (0.6, 0.0, 0.4))
    )
    assert hashlib.sha256(texts.encode()).hexdigest()[:16] == digest


def _alternating(n):
    """Records with ids 10, 11, ... labelled 0, 1, 0, 1, ..."""
    return _records([10 + i for i in range(n)], [i % 2 for i in range(n)], [0] * n)


def test_select_returns_each_named_list_in_list_order():
    graphs = _alternating(6)
    plan = SplitPlan([13, 10], [12, 11], [15, 14], (0.4, 0.3, 0.3))
    parts = plan.select(graphs)
    assert [rows.tolist() for rows in parts] == [[3, 0], [2, 1], [5, 4]]  # dataset rows
    assert [graphs.subject_ids[rows].tolist() for rows in parts] == [[13, 10], [12, 11], [15, 14]]
    # naming only the test list leaves train and val unchecked
    plan = SplitPlan([99], [], [15, 14], (0.4, 0.3, 0.3))
    assert [graphs.subject_ids[rows].tolist() for rows in plan.select(graphs, ("test",))] == [[15, 14]]


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
        ([10, 11], [12, 13], [], "the test list is empty"),
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
    tiny = _records([0, 1], [0, 1], [0, 0])
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
