"""Tests of the benchmark itself: span arithmetic, the reference model, and
that every output check rejects a deliberately corrupted output.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

import csv
import os
import shutil
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np
import pytest

import checks
import reference
from tracer import Tracer, self_times


def test_self_times_of_nested_spans():
    spans = [
        (0, 100, -1),  # root
        (10, 40, 0),  # child
        (20, 30, 1),  # grandchild
        (50, 60, 0),  # second child
        (90, 120, 0),  # child running past its parent: only 90..100 counts
    ]
    assert self_times(spans) == [100 - 30 - 10 - 10, 20, 10, 10, 30]


def test_self_times_count_overlapping_children_once():
    spans = [(0, 100, -1), (10, 50, 0), (30, 70, 0)]
    assert self_times(spans)[0] == 100 - 60


def test_pair_auroc_counts_ties_half():
    auc, near = reference.pair_auroc([0.1, 0.4, 0.4, 0.8], [0, 0, 1, 1], tie_tol=0.0)
    assert auc == 3.5 / 4 and near == 1


def _cli(*argv):
    from bnt.cli import main

    assert main([*map(str, argv), "--force"]) == 0, argv


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A tiny sweep, eval, export and theory run through the CLI."""
    d = tmp_path_factory.mktemp("bench")
    p = {name: str(d / name) for name in ("data", "split", "ablate.csv", "models", "eval.csv",
                                           "assign.csv", "theory", "eigen")}
    _cli("generate", "--nodes", 8, "--modules", 2, "--subjects-per-class", 20, "--sites", 2, "--seed", 3, "--out", p["data"])
    _cli("split", "--dataset", p["data"], "--seed", 4, "--out", p["split"])
    _cli("ablate", "--dataset", p["data"], "--split", p["split"], "--centers", "orthonormal",
         "--seeds", "0,1", "--epochs", 2, "--mlp-hidden", 8, "--save-models", p["models"], "--out", p["ablate.csv"])
    p["model"] = os.path.join(p["models"], "ocread_orthonormal_k4_seed0.bnt")
    common = ["--checkpoint", p["model"], "--dataset", p["data"], "--split", p["split"]]
    _cli("eval", *common, "--out", p["eval.csv"])
    _cli("export-assignments", *common, "--out", p["assign.csv"])
    _cli("verify-theory", "--samples", 20000, "--out", p["theory"])
    _cli("train", "--dataset", p["data"], "--split", p["split"], "--features", "profile_eigen", "--k-eigen", 2,
         "--epochs", 1, "--mlp-hidden", 8, "--out", p["eigen"])
    return p


def _edit_csv(src, dst, row_index, column, value):
    with open(src, newline="") as f:
        rows = list(csv.reader(f))
    rows[row_index + 1][column] = value
    with open(dst, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    return dst


def test_reference_forward_matches_the_program(outputs):
    from bnt.model import predict_proba
    from bnt.training import load_checkpoint

    params, config = load_checkpoint(outputs["model"])
    data = reference.read_bntd(outputs["data"])
    ckpt = reference.read_bnt(outputs["model"])
    ours = [reference.proba(reference.reference_forward(ckpt, x)[0]) for x in data.matrices]
    theirs = predict_proba(list(data.matrices), params, config)
    np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12)


def test_checks_pass_on_real_outputs(outputs):
    p = outputs
    ref = checks.Expected()
    checks.check_checkpoint_auroc(ref, p["ablate.csv"], ("ocread", "orthonormal", 4, 0), p["model"], p["data"], p["split"])
    checks.check_ablate_summary(p["ablate.csv"])
    checks.check_eval_against_reference(ref, p["eval.csv"], p["model"], p["data"], p["split"])
    checks.check_eval_equals(p["eval.csv"], float(reference.read_csv_rows(p["ablate.csv"])[1][0][5]))
    checks.check_assignments(ref, p["assign.csv"], p["model"], p["data"], p["split"])
    checks.check_theory_ladder(p["theory"] + ".csv")
    checks.check_theory_separation(p["theory"] + ".csv")
    checks.check_theory_vif(p["theory"] + ".csv")
    eigen = os.path.join(p["eigen"], "checkpoint.bnt"), os.path.join(p["eigen"], "report.txt")
    checks.check_eigen_run(*eigen, k_eigen=2, epochs=1)


def test_checkpoint_check_rejects_a_changed_auroc(outputs, tmp_path):
    bad = _edit_csv(outputs["ablate.csv"], tmp_path / "a.csv", 0, 5, "0.123")
    with pytest.raises(checks.CheckFailed):
        checks.check_checkpoint_auroc(checks.Expected(), bad, ("ocread", "orthonormal", 4, 0), outputs["model"],
                                      outputs["data"], outputs["split"])


def test_summary_check_rejects_a_changed_mean(outputs, tmp_path):
    bad = _edit_csv(outputs["ablate.csv"], tmp_path / "a.csv", 2, 6, "0.123456")  # mean row accuracy
    with pytest.raises(checks.CheckFailed):
        checks.check_ablate_summary(bad)


def test_quality_check_rejects_a_weak_run(outputs, tmp_path):
    bad = _edit_csv(outputs["ablate.csv"], tmp_path / "a.csv", 1, 5, "0.85")
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep_quality(bad)


def test_eval_check_rejects_changed_metrics(outputs, tmp_path):
    for column, value in ((2, "0.01"), (3, "0.01")):  # auroc, accuracy
        bad = _edit_csv(outputs["eval.csv"], tmp_path / "e.csv", 0, column, value)
        with pytest.raises(checks.CheckFailed):
            checks.check_eval_against_reference(checks.Expected(), bad, outputs["model"], outputs["data"], outputs["split"])
    with pytest.raises(checks.CheckFailed):
        checks.check_eval_equals(outputs["eval.csv"], 0.01)


def test_assignment_check_rejects_bad_rows(outputs, tmp_path):
    args = (outputs["model"], outputs["data"], outputs["split"])
    with open(outputs["assign.csv"]) as f:
        n_rows = sum(1 for _ in f) - 1
    for row, value in ((0, "0.9"), (n_rows - 1, "0.5")):  # a row off 1, the difference score
        bad = _edit_csv(outputs["assign.csv"], tmp_path / "s.csv", row, 4, value)
        with pytest.raises(checks.CheckFailed):
            checks.check_assignments(None, bad, *args)
    # Moving mass between two clusters keeps the sum but not the reference.
    with open(outputs["assign.csv"], newline="") as f:
        rows = list(csv.reader(f))
    node0 = [r for r in rows[1:] if r[0] == "assignment" and r[1] == "0" and r[3] == "0"]
    a, b = float(node0[0][4]), float(node0[1][4])
    node0[0][4], node0[1][4] = repr(b), repr(a)
    with open(tmp_path / "m.csv", "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    with pytest.raises(checks.CheckFailed):
        checks.check_assignments(checks.Expected(), tmp_path / "m.csv", *args)


@pytest.mark.parametrize("row, value, check", [
    (0, "1e-3", checks.check_theory_ladder),  # F(0) != 0
    (2, "0.01", checks.check_theory_ladder),  # phi=pi/4 below phi=pi/8
    (6, "0.2", checks.check_theory_separation),  # cosine_0.5 above orthonormal
    (8, "1.001", checks.check_theory_vif),  # an orthogonal VIF off 1
    (13, "5.0", checks.check_theory_vif),  # the two rho=0.9 columns disagree
    (15, "4.0", checks.check_theory_vif),  # rho=0.9 mean VIF off target
])
def test_theory_checks_reject_changed_rows(outputs, tmp_path, row, value, check):
    bad = _edit_csv(outputs["theory"] + ".csv", tmp_path / "t.csv", row, 2, value)
    with pytest.raises(checks.CheckFailed):
        check(bad)


def test_eigen_checks_reject_wrong_width_and_values(outputs, tmp_path):
    eigen = os.path.join(outputs["eigen"], "checkpoint.bnt"), os.path.join(outputs["eigen"], "report.txt")
    with pytest.raises(checks.CheckFailed):
        checks.check_eigen_run(*eigen, k_eigen=3, epochs=1)
    report = shutil.copy(eigen[1], tmp_path / "report.txt")
    with open(report, "a") as f:
        f.write("train_loss = nan\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_eigen_run(eigen[0], report, k_eigen=2, epochs=1)

    m = reference.read_bntd(outputs["data"]).matrices[0]
    vals, vecs = np.linalg.eigh(m)
    vals, vecs = vals[::-1].copy(), vecs[:, ::-1].copy()
    vecs[:, 1] *= -1.0  # a sign flip is allowed
    checks.check_eigendecompositions([(m, vals, vecs)])
    swapped = vecs[:, [1, 0, *range(2, len(vals))]]
    with pytest.raises(checks.CheckFailed):
        checks.check_eigendecompositions([(m, vals, swapped)])
    with pytest.raises(checks.CheckFailed):
        checks.check_eigendecompositions([(m, vals + 1e-6, vecs)])


def test_tracer_wraps_every_binding_and_accounts_for_the_wall(outputs, tmp_path):
    import bnt.cli
    import bnt.data

    original = bnt.data.read_dataset
    tracer = Tracer("test")
    tracer.install()
    try:
        assert bnt.cli.read_dataset is bnt.data.read_dataset is not original
        rc = tracer.call_root(bnt.cli.main, ["split", "--dataset", outputs["data"], "--out", str(tmp_path / "s")])
    finally:
        tracer.restore()
    assert rc == 0 and bnt.cli.read_dataset is original is bnt.data.read_dataset
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and {"data.read_dataset", "data.stratified_split", "rng.Rng.shuffle"} <= set(names)
    assert all(s[3] >= 0 for s in tracer.spans[1:])
    summary = tracer.summary()
    total_self = sum(v for k, v in summary.items() if k.endswith(".self_ms"))
    assert total_self == pytest.approx(tracer.wall_ms(), rel=1e-9)
    assert summary["data.read_dataset.mib"] == pytest.approx(os.path.getsize(outputs["data"]) / 2**20)
