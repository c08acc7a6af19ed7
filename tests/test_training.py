"""Adam updates, the training loop, checkpoints, and report files."""

import dataclasses
import glob
import math
import multiprocessing
import tracemalloc
import warnings

import numpy as np
import pytest

import bnt.model
import bnt.training
import bnt.workers

from bnt.data import GeneratorSpec, generate_dataset, read_dataset, stratified_split, write_dataset
from bnt.metrics import EvalResult
from bnt.model import (
    CentersMode,
    FeatureMode,
    ModelConfig,
    Readout,
    init_params,
    param_count,
    predict_proba,
)
from bnt.rng import Rng
from bnt.training import (
    AdamState,
    CheckpointFormatError,
    TrainConfig,
    TrainReport,
    WEIGHT_DECAY_MODE,
    adam_step,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)

from _oracles import held


def _workbench(subjects_per_class=8):
    spec = GeneratorSpec(
        nodes=12, modules=3, subjects_per_class=subjects_per_class, sites=2, series_length=48, seed=21
    )
    graphs = held(generate_dataset(spec))
    plan = stratified_split(graphs, (0.5, 0.25, 0.25), Rng(9))
    config = ModelConfig(nodes=12, layers=1, heads=2, clusters=2, mlp_hidden=(6,))
    return graphs, plan, config


# ---------------------------------------------------------------------------
# optimizer


def test_adam_first_step_matches_formula():
    config = TrainConfig(lr=0.01, weight_decay=0.0)
    p = np.array([1.0, -2.0, 3.0])
    g = np.array([0.5, -0.25, 0.0])
    expected = p - config.lr * g / (np.abs(g) + 1e-8)
    adam_step(p, g, AdamState(np.zeros(3), np.zeros(3)), config, [slice(0, 3)])
    # bias correction makes m_hat = g and v_hat = g*g on step one
    assert np.allclose(p, expected, rtol=0, atol=1e-12)


def test_adam_weight_decay_contributes_gradient():
    config = TrainConfig(lr=0.1, weight_decay=0.5)
    p = np.array([2.0])
    adam_step(p, np.zeros(1), AdamState(np.zeros(1), np.zeros(1)), config, [slice(0, 1)])
    # decay term 0.5*2 = 1 acts as the whole gradient: p - lr*sign(g)
    assert p[0] == pytest.approx(2.0 - 0.1, abs=1e-8)


def test_adam_skips_frozen_tensors():
    config = TrainConfig(lr=0.1, weight_decay=0.0)
    vector = np.array([1.0, 5.0, 6.0, 2.0])  # a frozen tensor between two live entries
    before = vector[1:3].copy()
    state = AdamState(np.zeros(4), np.zeros(4))
    adam_step(vector, np.ones(4), state, config, [slice(0, 1), slice(3, 4)])
    assert np.array_equal(vector[1:3], before)
    assert not state.m[1:3].any() and not state.v[1:3].any()


def test_adam_moment_accumulation_two_steps():
    config = TrainConfig(lr=1.0, weight_decay=0.0)
    p = np.array([0.0])
    state = AdamState(np.zeros(1), np.zeros(1))
    g1, g2 = np.array([1.0]), np.array([3.0])
    adam_step(p, g1, state, config, [slice(0, 1)])
    after_first = p.copy()
    adam_step(p, g2, state, config, [slice(0, 1)])
    b1, b2 = 0.9, 0.999  # Kingma and Ba's defaults, as is eps = 1e-8
    m_hat = (b1 * (1 - b1) * 1.0 + (1 - b1) * 3.0) / (1 - b1**2)
    v_hat = (b2 * (1 - b2) * 1.0 + (1 - b2) * 9.0) / (1 - b2**2)
    expected = after_first[0] - config.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert p[0] == pytest.approx(expected, rel=1e-12)


def test_train_config_validation():
    for kwargs in (
        dict(lr=0.0),
        dict(weight_decay=-1e-3),
        dict(batch_size=0),
        dict(epochs=0),
    ):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs).validate()


# ---------------------------------------------------------------------------
# training loop


def test_train_selects_best_val_epoch():
    graphs, plan, config = _workbench()
    tc = TrainConfig(lr=3e-3, weight_decay=1e-4, batch_size=4, epochs=4, seed=0)
    params, report = train(graphs, plan, config, tc)
    assert len(report.train_loss) == 4
    assert len(report.val_auroc) == 4
    best = max(report.val_auroc)
    assert report.val_auroc[report.selected_epoch - 1] == best
    # first epoch on ties
    assert report.selected_epoch == report.val_auroc.index(best) + 1
    assert report.weight_decay_mode == WEIGHT_DECAY_MODE


def test_train_deterministic():
    graphs, plan, config = _workbench()
    tc = TrainConfig(lr=3e-3, weight_decay=0.0, batch_size=4, epochs=2, seed=3)
    params_a, report_a = train(graphs, plan, config, tc)
    params_b, report_b = train(graphs, plan, config, tc)
    assert report_a.train_loss == report_b.train_loss
    assert report_a.val_auroc == report_b.val_auroc
    for (name_a, ta), (_, tb) in zip(params_a.named_tensors(), params_b.named_tensors()):
        assert np.array_equal(ta, tb), name_a


def _trained_bytes(jobs, subjects_per_class=8):
    graphs, plan, config = _workbench(subjects_per_class)
    tc = TrainConfig(lr=3e-3, weight_decay=1e-4, batch_size=5, epochs=3, seed=4)  # 8 graphs: 5 + 3
    params, report = train(graphs, plan, config, tc, jobs=jobs)
    return params.vector.tobytes(), report.to_text()


def test_train_bytes_do_not_depend_on_jobs(lanes_used):
    one = _trained_bytes(1)
    assert lanes_used == {1}
    lanes_used.clear()
    assert _trained_bytes(2) == one
    assert max(lanes_used) == min(2, bnt.workers.usable_cpus())
    assert multiprocessing.active_children() == []


def test_train_runs_one_lane_inside_a_worker(lanes_used, monkeypatch):
    # 20-graph validation and test lists: 20 one-graph chunks per scoring pass
    monkeypatch.setattr(bnt.workers, "_job", (None, ()))
    _trained_bytes(2, subjects_per_class=40)
    assert lanes_used == {1}
    monkeypatch.setattr(bnt.workers, "_job", None)
    monkeypatch.setattr(bnt.model, "_LANES_MIN_FLOPS", float("inf"))  # so only the scoring passes lane
    _trained_bytes(2, subjects_per_class=40)
    assert max(lanes_used) == min(2, bnt.workers.usable_cpus())


def test_train_without_the_blas_setter_gives_the_same_bytes(lanes_used, monkeypatch):
    expected = _trained_bytes(2)
    bnt.workers._openblas.cache_clear()
    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    try:
        assert bnt.workers._openblas()[0]() is None
        assert _trained_bytes(2) == expected
    finally:
        bnt.workers._openblas.cache_clear()


def _read_back(tmp_path, spec):
    """``spec``'s dataset as read from its file (float32 matrices), and the
    same dataset held in memory, cast to float32 and widened to float64 up
    front."""
    path = tmp_path / "set.bntd"
    generated = held(generate_dataset(spec))
    write_dataset(path, generated)
    read = read_dataset(path)
    return read, dataclasses.replace(read, matrices=generated.matrices.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("v", [12, 200])
@pytest.mark.parametrize("features", list(FeatureMode))
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_float32_dataset_gives_the_bytes_of_its_widened_copy(tmp_path, monkeypatch, jobs, features, v):
    if jobs == 2:
        monkeypatch.setattr(bnt.model, "_LANES_MIN_FLOPS", 0)  # steps in lanes at every size
    spec = GeneratorSpec(nodes=v, modules=3, subjects_per_class=6, sites=2, series_length=48, seed=21)
    read, widened = _read_back(tmp_path, spec)
    assert read.matrices.dtype == np.float32
    plan = stratified_split(read, (0.5, 0.25, 0.25), Rng(9))
    (test_rows,) = plan.select(read, ("test",))
    config = ModelConfig(nodes=v, layers=1, heads=2, clusters=2, mlp_hidden=(6,), feature_mode=features, k_eigen=3)
    tc = TrainConfig(lr=3e-3, batch_size=4, epochs=2, seed=4)  # 6 graphs: 4 + 2
    batches, step = [], bnt.training.loss_and_grad

    def recorded_step(x, *args, **kwargs):
        batches.append(x.dtype)
        return step(x, *args, **kwargs)

    monkeypatch.setattr(bnt.training, "loss_and_grad", recorded_step)
    runs = []
    for dataset in (read, widened):
        params, report = train(dataset, plan, config, tc, jobs=jobs)
        first = np.stack([dataset.matrices[i] for i in range(5)])  # float32 rows of the read dataset
        loss, grads = step(first, params, config, dataset.labels[:5])
        run = [params.vector.tobytes(), report.to_text(), loss, grads.vector.tobytes()]
        for take in (None, test_rows):
            for rows, logits, assignment in bnt.model.score_chunks(dataset.matrices, params, config, jobs, take):
                run += [rows, logits.tobytes(), assignment.tobytes()]
        runs.append(run)
    assert runs[0] == runs[1]
    assert set(batches) == {np.dtype(np.float64)}  # each batch widened at its gather


def test_scoring_taken_rows_of_a_float32_dataset_never_widens_it_whole(tmp_path):
    read, _ = _read_back(tmp_path, GeneratorSpec(nodes=64, subjects_per_class=64, series_length=64))
    plan = stratified_split(read, (0.6, 0.2, 0.2), Rng(3))
    (test_rows,) = plan.select(read, ("test",))
    config = ModelConfig(nodes=64)
    params = init_params(config, Rng(5))
    assert read.matrices.dtype == np.float32
    tracemalloc.start()
    try:
        evaluate(params, config, read.matrices, read.labels, take=test_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    whole = 8 * math.prod(read.matrices.shape)  # the dataset widened to float64
    assert peak < whole, (peak, whole)


def test_train_rejects_bad_splits():
    graphs, plan, config = _workbench()
    tc = TrainConfig(epochs=1)
    broken = type(plan)(
        train=plan.train + [999], val=plan.val, test=plan.test, fractions=plan.fractions
    )
    with pytest.raises(ValueError, match="999"):
        train(graphs, broken, config, tc)
    empty_train = type(plan)(train=[], val=plan.val, test=plan.test, fractions=plan.fractions)
    with pytest.raises(ValueError, match="empty"):
        train(graphs, empty_train, config, tc)
    ones = set(graphs.subject_ids[graphs.labels == 1].tolist())
    one_class_val = type(plan)(
        train=plan.train, val=[i for i in plan.val if i in ones], test=plan.test,
        fractions=plan.fractions,
    )
    with pytest.raises(ValueError, match="both classes"):
        train(graphs, one_class_val, config, tc)
    leaky = type(plan)(
        train=plan.train + plan.test, val=plan.val, test=plan.test, fractions=plan.fractions
    )
    with pytest.raises(ValueError, match="in both train and test"):
        train(graphs, leaky, config, tc)


def test_train_refuses_a_one_class_train_list():
    graphs, plan, config = _workbench()
    ones = set(graphs.subject_ids[graphs.labels == 1].tolist())
    one_class_train = type(plan)(
        train=[i for i in plan.train if i in ones], val=plan.val, test=plan.test,
        fractions=plan.fractions,
    )
    with pytest.raises(ValueError, match="^the train list holds only class 1; train and val need both classes$"):
        train(graphs, one_class_train, config, TrainConfig(epochs=1))


@pytest.mark.parametrize("batch_size,what", [(4, "loss"), (64, "validation scores")])
def test_train_divergence_names_the_epoch_without_warnings(batch_size, what):
    # lr 1e300: the first step's weights overflow the next forward, which is
    # the second step of epoch 1 with batches of 4 and its validation with 64
    graphs, plan, config = _workbench()
    tc = TrainConfig(lr=1e300, batch_size=batch_size, epochs=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=f"^training diverged in epoch 1: non-finite {what}$"):
            train(graphs, plan, config, tc)


def test_a_step_in_lanes_diverges_without_warnings(lanes_used):
    # the lanes run under the caller's NumPy error state, so their overflows
    # warn no more than the caller's do
    graphs, plan, config = _workbench()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="^training diverged in epoch 1: non-finite loss$"):
            train(graphs, plan, config, TrainConfig(lr=1e300, batch_size=4, epochs=3), jobs=2)
    assert max(lanes_used) == min(2, bnt.workers.usable_cpus())


def test_train_divergence_names_the_first_non_finite_gradient(monkeypatch):
    real = bnt.training.loss_and_grad

    def poisoned(x, params, config, labels, ws=None):
        loss, grads = real(x, params, config, labels, ws=ws)
        grads.layers[0].w_key[0, 0, 0] = np.inf
        grads.mlp_biases[0][0] = np.nan
        return loss, grads

    monkeypatch.setattr(bnt.training, "loss_and_grad", poisoned)
    graphs, plan, config = _workbench()
    with pytest.raises(FloatingPointError, match="epoch 1: non-finite gradient of layers.0.w_key$"):
        train(graphs, plan, config, TrainConfig(epochs=2))


def test_evaluate_single_class_has_no_auroc():
    _, _, config = _workbench()
    spec = GeneratorSpec(
        nodes=12, modules=3, subjects_per_class=3, sites=1, series_length=48, seed=2
    )
    dataset = held(generate_dataset(spec))
    zeros = dataset.labels == 0
    params = init_params(config, Rng(0))
    result = evaluate(params, config, dataset.matrices[zeros], dataset.labels[zeros])
    assert result.auroc is None
    assert result.sensitivity is None
    assert result.n_pos == 0 and result.n_neg == 3
    assert predict_proba(dataset.matrices[zeros], params, config).shape == (3,)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bitwise(tmp_path):
    config = ModelConfig(
        nodes=10,
        layers=2,
        heads=3,
        clusters=4,
        mlp_hidden=(7, 5),
        readout=Readout.OCREAD,
        centers_mode=CentersMode.LEARNABLE,
    )
    params = init_params(config, Rng(11))
    path = tmp_path / "model.bnt"
    save_checkpoint(path, params, config)
    loaded, loaded_config = load_checkpoint(path)
    assert loaded_config == config
    for (name, a), (_, b) in zip(params.named_tensors(), loaded.named_tensors()):
        assert np.array_equal(a, b), name
    # the body, after magic, version, five sizes, the hidden count and widths,
    # three mode bytes and k_eigen, is the parameter vector; the loaded one is
    # a private copy
    head = 4 + 4 * 6 + 4 * (1 + len(config.mlp_hidden)) + 3 + 4
    assert path.read_bytes()[head:] == params.vector.tobytes()
    assert loaded.vector.flags.writeable and loaded.vector.flags.owndata
    # a second save of the loaded state is byte-identical
    again = tmp_path / "again.bnt"
    save_checkpoint(again, loaded, loaded_config)
    assert path.read_bytes() == again.read_bytes()


def test_checkpoint_format_errors(tmp_path):
    config = ModelConfig(nodes=6, layers=1, heads=2, clusters=2, mlp_hidden=(4,))
    params = init_params(config, Rng(0))
    path = tmp_path / "model.bnt"
    save_checkpoint(path, params, config)
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.bnt"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(bad_magic)

    bad_version = tmp_path / "version.bnt"
    bad_version.write_bytes(raw[:4] + (9).to_bytes(4, "little") + raw[8:])
    with pytest.raises(CheckpointFormatError, match="version"):
        load_checkpoint(bad_version)

    short = tmp_path / "short.bnt"
    short.write_bytes(raw[:-16])
    with pytest.raises(CheckpointFormatError, match="bytes"):
        load_checkpoint(short)

    long = tmp_path / "long.bnt"
    long.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(CheckpointFormatError, match="bytes"):
        load_checkpoint(long)

    # header fields after magic and version: nodes at byte 8, layers at 12
    huge = tmp_path / "huge.bnt"
    huge.write_bytes(raw[:8] + (2**31).to_bytes(4, "little") + raw[12:])
    with pytest.raises(CheckpointFormatError, match="bytes"):
        load_checkpoint(huge)

    many_layers = tmp_path / "many_layers.bnt"
    many_layers.write_bytes(raw[:12] + (2**31).to_bytes(4, "little") + raw[16:])
    with pytest.raises(CheckpointFormatError, match="bytes"):
        load_checkpoint(many_layers)

    no_layers = tmp_path / "no_layers.bnt"
    no_layers.write_bytes(raw[:12] + (0).to_bytes(4, "little") + raw[16:])
    with pytest.raises(CheckpointFormatError, match="layers must be >= 1"):
        load_checkpoint(no_layers)

    # a header cut short, or a readout code past the last member (its byte
    # follows magic, version, five sizes, the hidden count and one width)
    for name, data in [("cut", raw[:20]), ("readout_code", raw[:36] + b"\x05" + raw[37:])]:
        bad = tmp_path / f"{name}.bnt"
        bad.write_bytes(data)
        with pytest.raises(CheckpointFormatError, match="^corrupt checkpoint header: "):
            load_checkpoint(bad)


# every ModelConfig and TrainConfig field off its default (nodes has none)
_OFF_DEFAULT_MODEL = ModelConfig(nodes=9, layers=3, heads=2, clusters=5, head_dim=6, mlp_hidden=(7, 3),
                                 readout=Readout.CONCAT, centers_mode=CentersMode.LEARNABLE,
                                 feature_mode=FeatureMode.PROFILE_EIGEN, k_eigen=2)
_OFF_DEFAULT_TRAIN = TrainConfig(lr=0.003, weight_decay=2.5e-05, batch_size=16, epochs=7, seed=12)


def test_checkpoint_header_bytes(tmp_path):
    path = tmp_path / "model.bnt"
    params = init_params(_OFF_DEFAULT_MODEL, Rng(0))
    save_checkpoint(path, params, _OFF_DEFAULT_MODEL)
    head = bytes.fromhex(
        "424e544d 01000000"  # magic, version
        " 09000000 03000000 02000000 05000000 06000000"  # nodes, layers, heads, clusters, head_dim
        " 02000000 07000000 03000000"  # mlp_hidden: count, widths
        " 04 02 02"  # readout concat, centers learnable, features profile_eigen
        " 02000000"  # k_eigen
    )
    raw = path.read_bytes()
    assert raw[: len(head)] == head
    assert raw[len(head):] == params.vector.tobytes()
    assert load_checkpoint(path)[1] == _OFF_DEFAULT_MODEL


_ENUM_CODES = [
    ("readout", Readout.OCREAD, 0),
    ("readout", Readout.MEAN, 1),
    ("readout", Readout.MAX, 2),
    ("readout", Readout.SUM, 3),
    ("readout", Readout.CONCAT, 4),
    ("centers_mode", CentersMode.ORTHONORMAL, 0),
    ("centers_mode", CentersMode.RANDOM_UNIT, 1),
    ("centers_mode", CentersMode.LEARNABLE, 2),
    ("feature_mode", FeatureMode.PROFILE, 0),
    ("feature_mode", FeatureMode.PROFILE_IDENTITY, 1),
    ("feature_mode", FeatureMode.PROFILE_EIGEN, 2),
]


def test_enum_code_table_covers_every_member():
    assert {member for _, member, _ in _ENUM_CODES} == {*Readout, *CentersMode, *FeatureMode}


@pytest.mark.parametrize("field, member, code", _ENUM_CODES)
def test_checkpoint_enum_codes(tmp_path, field, member, code):
    config = ModelConfig(nodes=6, layers=1, heads=2, clusters=2, mlp_hidden=(3,), k_eigen=2, **{field: member})
    path = tmp_path / "model.bnt"
    save_checkpoint(path, init_params(config, Rng(0)), config)
    # the three mode bytes follow magic, version, five sizes, the hidden count and one width
    offset = 36 + ["readout", "centers_mode", "feature_mode"].index(field)
    assert path.read_bytes()[offset] == code
    assert getattr(load_checkpoint(path)[1], field) is member


@pytest.mark.parametrize("readout", list(Readout))
@pytest.mark.parametrize("features", list(FeatureMode))
def test_param_count_matches_the_tensors(readout, features):
    config = ModelConfig(nodes=6, layers=3, heads=2, clusters=2, mlp_hidden=(5, 3),
                         readout=readout, feature_mode=features, k_eigen=2)
    v, mh = config.nodes, config.heads * config.head_dim
    attention = mh * (3 * config.input_width + v) + (config.layers - 1) * mh * 4 * v
    widths = [config.flat_dim, *config.mlp_hidden, 2]
    closed_form = attention + config.clusters * v + sum(a * b + b for a, b in zip(widths, widths[1:]))
    tensors = init_params(config, Rng(0)).named_tensors()
    assert param_count(config) == closed_form == sum(t.size for _, t in tensors)


# ---------------------------------------------------------------------------
# report files


def test_report_text_roundtrip():
    config = ModelConfig(nodes=8, layers=1, heads=2, clusters=3, mlp_hidden=(5, 4))
    tc = TrainConfig(lr=2e-4, weight_decay=1e-5, batch_size=8, epochs=3, seed=6)
    report = TrainReport(
        selected_epoch=2,
        train_loss=[0.7012345678901234, 0.65, 0.61],
        val_auroc=[0.5, 0.75, 0.75],
        test=EvalResult(
            auroc=0.8125, accuracy=0.75, sensitivity=1.0, specificity=0.5, n_pos=2, n_neg=2
        ),
        model_config=config,
        train_config=tc,
    )
    back = TrainReport.from_text(report.to_text())
    assert back.train_config == report.train_config
    assert back.selected_epoch == report.selected_epoch
    assert back.train_loss == report.train_loss
    assert back.val_auroc == report.val_auroc
    assert back.test == report.test
    assert back.model_config == report.model_config
    assert back.to_text() == report.to_text()


def test_report_config_lines():
    for config in (_OFF_DEFAULT_MODEL, _OFF_DEFAULT_TRAIN):
        assert all(getattr(config, f.name) != f.default for f in dataclasses.fields(config))
    report = TrainReport(
        selected_epoch=1,
        train_loss=[0.5],
        val_auroc=[0.5],
        test=EvalResult(auroc=0.5, accuracy=0.5, sensitivity=0.5, specificity=0.5, n_pos=1, n_neg=1),
        model_config=_OFF_DEFAULT_MODEL,
        train_config=_OFF_DEFAULT_TRAIN,
    )
    text = report.to_text()
    lines = [l for l in text.splitlines() if l.startswith(("seed ", "config.", "train."))]
    assert lines == [
        "seed = 12",
        "config.nodes = 9",
        "config.layers = 3",
        "config.heads = 2",
        "config.clusters = 5",
        "config.head_dim = 6",
        "config.mlp_hidden = 7 3",
        "config.readout = concat",
        "config.centers_mode = learnable",
        "config.feature_mode = profile_eigen",
        "config.k_eigen = 2",
        "train.lr = 0.003",
        "train.weight_decay = 2.5e-05",
        "train.batch_size = 16",
        "train.epochs = 7",
    ]
    back = TrainReport.from_text(text)
    assert (back.model_config, back.train_config) == (_OFF_DEFAULT_MODEL, _OFF_DEFAULT_TRAIN)


def test_report_undefined_metrics_roundtrip():
    config = ModelConfig(nodes=8, layers=1, heads=2, clusters=3, mlp_hidden=(5,))
    report = TrainReport(
        selected_epoch=1,
        train_loss=[0.7],
        val_auroc=[0.5],
        test=EvalResult(
            auroc=None, accuracy=1.0, sensitivity=1.0, specificity=None, n_pos=1, n_neg=0
        ),
        model_config=config,
        train_config=TrainConfig(epochs=1),
    )
    text = report.to_text()
    assert "test.auroc = undefined" in text
    assert "test.specificity = undefined" in text
    back = TrainReport.from_text(text)
    assert back.test.auroc is None and back.test.specificity is None


def test_report_rejects_other_documents():
    with pytest.raises(ValueError):
        TrainReport.from_text("kind = split_plan\n")


def test_report_missing_key_names_it():
    config = ModelConfig(nodes=8, layers=1, heads=2, clusters=3, mlp_hidden=(5,))
    report = TrainReport(
        selected_epoch=1,
        train_loss=[0.7],
        val_auroc=[0.5],
        test=EvalResult(auroc=0.5, accuracy=0.5, sensitivity=0.5, specificity=0.5, n_pos=2, n_neg=2),
        model_config=config,
        train_config=TrainConfig(epochs=1),
    )
    lines = [l for l in report.to_text().splitlines() if not l.startswith("test.auroc")]
    with pytest.raises(ValueError, match="train report has no test.auroc line"):
        TrainReport.from_text("\n".join(lines))
