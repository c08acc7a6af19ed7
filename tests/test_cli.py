"""End-to-end command-line behavior: files, manifests, exit codes."""

import csv
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import bnt.cli
import bnt.model
import bnt.workers
from bnt.cli import ABLATE_HEADER, EVAL_HEADER, THEORY_HEADER
from bnt.data import SplitPlan, read_dataset
from bnt.metrics import difference_score
from bnt.model import forward
from bnt.training import TrainReport, load_checkpoint


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _read_manifest(path):
    kv = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
    return kv


# ---------------------------------------------------------------------------
# pipeline artifacts


def test_pipeline_writes_all_artifacts(tiny_workspace):
    import os

    for key in ("dataset", "split", "checkpoint", "report"):
        assert os.path.exists(tiny_workspace[key]), key
    assert os.path.exists(tiny_workspace["dataset"] + ".manifest")
    assert os.path.exists(tiny_workspace["split"] + ".manifest")
    assert os.path.exists(os.path.join(tiny_workspace["run_dir"], "manifest.txt"))


def test_generate_manifest_records_the_run(tiny_workspace):
    kv = _read_manifest(tiny_workspace["dataset"] + ".manifest")
    assert kv["kind"] == "run_manifest"
    assert kv["command"] == "generate"
    assert kv["option.seed"] == "5"
    assert kv["option.nodes"] == "16"
    assert kv["output.dataset"] == tiny_workspace["dataset"]
    assert float(kv["duration_seconds"]) >= 0.0
    assert "version" in kv
    assert kv["env.python"] == platform.python_version()
    assert kv["env.numpy"] == np.__version__
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        assert kv[f"env.{var}"] == os.environ.get(var, "unset")
    assert kv["env.cpus"] == str(len(os.sched_getaffinity(0)))


def test_train_manifest_records_resolved_values(tiny_workspace):
    import os

    kv = _read_manifest(os.path.join(tiny_workspace["run_dir"], "manifest.txt"))
    assert kv["command"] == "train"
    assert kv["option.nodes"] == "16"  # inferred from the dataset
    assert kv["option.head_dim"] == "4"  # ceil(16 / 4 heads)
    assert kv["input.dataset"] == tiny_workspace["dataset"]
    assert kv["output.checkpoint"] == tiny_workspace["checkpoint"]


def test_generate_is_reproducible(tiny_workspace, tmp_path, run_cli):
    out = str(tmp_path / "again.bntd")
    code, _, _ = run_cli(
        [
            "generate",
            "--nodes", "16",
            "--modules", "4",
            "--subjects-per-class", "12",
            "--sites", "2",
            "--series-length", "64",
            "--seed", "5",
            "--out", out,
        ]
    )
    assert code == 0
    with open(out, "rb") as f, open(tiny_workspace["dataset"], "rb") as g:
        assert f.read() == g.read()


def test_manifest_writes_unset_thread_variables(tmp_path, run_cli, monkeypatch):
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = str(tmp_path / "d.bntd")
    assert run_cli(["generate", "--nodes", "8", "--modules", "2", "--subjects-per-class", "2",
                    "--sites", "1", "--series-length", "16", "--out", out])[0] == 0
    assert _read_manifest(out + ".manifest")["env.MKL_NUM_THREADS"] == "unset"


@pytest.mark.parametrize("value,recorded", [(None, "1"), ("2", "2")])
def test_cli_pins_blas_threads_unless_set(tmp_path, value, recorded):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    out = str(tmp_path / "d.bntd")
    result = subprocess.run(
        [sys.executable, "-m", "bnt.cli", "generate", "--nodes", "8", "--modules", "2",
         "--subjects-per-class", "2", "--sites", "1", "--series-length", "16", "--out", out],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    manifest = _read_manifest(out + ".manifest")
    assert manifest["env.OPENBLAS_NUM_THREADS"] == recorded
    assert manifest["env.MKL_NUM_THREADS"] == manifest["env.OMP_NUM_THREADS"] == "1"


def test_env_seed_matches_flag(tmp_path, run_cli, monkeypatch):
    flags = ["generate", "--nodes", "12", "--modules", "3", "--subjects-per-class", "4",
             "--sites", "1", "--series-length", "32"]
    by_flag = str(tmp_path / "flag.bntd")
    run_cli(flags + ["--seed", "5", "--out", by_flag])

    by_env = str(tmp_path / "env.bntd")
    monkeypatch.setenv("BNT_SEED", "5")
    assert run_cli(flags + ["--out", by_env])[0] == 0
    with open(by_flag, "rb") as f, open(by_env, "rb") as g:
        assert f.read() == g.read()

    # an explicit flag still beats the environment
    winner = str(tmp_path / "winner.bntd")
    monkeypatch.setenv("BNT_SEED", "99")
    assert run_cli(flags + ["--seed", "5", "--out", winner])[0] == 0
    with open(by_flag, "rb") as f, open(winner, "rb") as g:
        assert f.read() == g.read()


def test_config_file_supplies_and_loses_to_flags(tmp_path, run_cli):
    config = tmp_path / "gen.cfg"
    config.write_text("# comment\nnodes = 12\nmodules = 3\nsubjects_per_class = 4\n"
                      "sites = 1\nseries_length = 32\nseed = 7\n")
    base = ["generate", "--config", str(config)]

    from_config = str(tmp_path / "config.bntd")
    assert run_cli(base + ["--out", from_config])[0] == 0
    from_flags = str(tmp_path / "flags.bntd")
    run_cli(
        ["generate", "--nodes", "12", "--modules", "3", "--subjects-per-class", "4",
         "--sites", "1", "--series-length", "32", "--seed", "7", "--out", from_flags]
    )
    with open(from_config, "rb") as f, open(from_flags, "rb") as g:
        assert f.read() == g.read()

    overridden = str(tmp_path / "override.bntd")
    assert run_cli(base + ["--seed", "8", "--out", overridden])[0] == 0
    with open(overridden, "rb") as f, open(from_config, "rb") as g:
        assert f.read() != g.read()


def test_unknown_config_key_is_a_usage_error(tmp_path, run_cli):
    config = tmp_path / "bad.cfg"
    config.write_text("bogus = 1\n")
    code, _, err = run_cli(["generate", "--config", str(config), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "bogus" in err and "nodes" in err  # names the valid keys


def test_overwrite_needs_force(tiny_workspace, run_cli):
    args = [
        "generate",
        "--nodes", "16", "--modules", "4", "--subjects-per-class", "12",
        "--sites", "2", "--series-length", "64", "--seed", "5",
        "--out", tiny_workspace["dataset"],
    ]
    code, _, err = run_cli(args)
    assert code == 1
    assert "--force" in err
    assert run_cli(args + ["--force"])[0] == 0


def test_generate_rejects_modules_over_nodes(tmp_path, run_cli):
    code, _, err = run_cli(
        ["generate", "--nodes", "4", "--modules", "8", "--out", str(tmp_path / "x.bntd")]
    )
    assert code == 1
    assert "--modules" in err and "--nodes" in err


def test_split_error_paths(tiny_workspace, tmp_path, run_cli):
    code, _, err = run_cli(
        ["split", "--dataset", str(tmp_path / "missing.bntd"), "--out", str(tmp_path / "s")]
    )
    assert code == 2

    garbage = tmp_path / "garbage.bntd"
    garbage.write_bytes(b"garbage here")
    code, _, err = run_cli(["split", "--dataset", str(garbage), "--out", str(tmp_path / "s")])
    assert code == 2
    assert "magic" in err

    code, _, err = run_cli(
        ["split", "--dataset", tiny_workspace["dataset"], "--fractions", "0.5,0.6,0.2",
         "--out", str(tmp_path / "s")]
    )
    assert code == 1  # fractions must sum to one


def test_split_no_stratify(tiny_workspace, tmp_path, run_cli):
    out = str(tmp_path / "plain.txt")
    code, _, _ = run_cli(
        ["split", "--dataset", tiny_workspace["dataset"], "--no-stratify",
         "--seed", "4", "--out", out]
    )
    assert code == 0
    with open(out, encoding="utf-8") as f:
        plan = SplitPlan.from_text(f.read())
    assert not plan.stratified
    kv = _read_manifest(out + ".manifest")
    assert kv["option.stratified"] == "false"


def test_train_rerun_is_byte_identical(tiny_workspace, tmp_path, run_cli):
    run_dir = str(tmp_path / "rerun")
    code, _, _ = run_cli(
        ["train", "--dataset", tiny_workspace["dataset"], "--split", tiny_workspace["split"],
         "--epochs", "3", "--seed", "0", "--out", run_dir]
    )
    assert code == 0
    import os

    for name, original in (("checkpoint.bnt", tiny_workspace["checkpoint"]),
                           ("report.txt", tiny_workspace["report"])):
        with open(os.path.join(run_dir, name), "rb") as f, open(original, "rb") as g:
            assert f.read() == g.read(), name


# ---------------------------------------------------------------------------
# eval


def test_eval_reproduces_the_report(tiny_workspace, tmp_path, run_cli):
    out = str(tmp_path / "metrics.csv")
    code, _, _ = run_cli(
        ["eval", "--checkpoint", tiny_workspace["checkpoint"],
         "--dataset", tiny_workspace["dataset"], "--split", tiny_workspace["split"],
         "--report", tiny_workspace["report"], "--out", out]
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header == EVAL_HEADER
    assert len(rows) == 1
    run_id, seed, auroc, accuracy, sensitivity, specificity = rows[0]
    assert run_id == "checkpoint"  # defaults to the checkpoint stem
    with open(tiny_workspace["report"], encoding="utf-8") as f:
        report = TrainReport.from_text(f.read())
    assert seed == str(report.seed)
    assert float(auroc) == report.test.auroc
    assert float(accuracy) == report.test.accuracy
    assert float(sensitivity) == report.test.sensitivity
    assert float(specificity) == report.test.specificity


def test_eval_honors_run_id(tiny_workspace, tmp_path, run_cli):
    out = str(tmp_path / "named.csv")
    code, _, _ = run_cli(
        ["eval", "--checkpoint", tiny_workspace["checkpoint"],
         "--dataset", tiny_workspace["dataset"], "--split", tiny_workspace["split"],
         "--run-id", "custom-name", "--out", out]
    )
    assert code == 0
    _, rows = _read_csv(out)
    assert rows[0][0] == "custom-name"
    assert rows[0][1] == ""  # no --report, no seed column


def test_eval_missing_checkpoint_is_a_data_error(tiny_workspace, tmp_path, run_cli):
    code, _, _ = run_cli(
        ["eval", "--checkpoint", str(tmp_path / "none.bnt"),
         "--dataset", tiny_workspace["dataset"], "--split", tiny_workspace["split"],
         "--out", str(tmp_path / "m.csv")]
    )
    assert code == 2


def test_eval_node_count_mismatch(tiny_workspace, tmp_path, run_cli):
    other = str(tmp_path / "eight.bntd")
    run_cli(["generate", "--nodes", "8", "--modules", "2", "--subjects-per-class", "2",
             "--sites", "1", "--series-length", "32", "--out", other])
    code, _, _ = run_cli(
        ["eval", "--checkpoint", tiny_workspace["checkpoint"], "--dataset", other,
         "--split", tiny_workspace["split"], "--out", str(tmp_path / "m.csv")]
    )
    assert code == 2  # 16-node checkpoint cannot score an 8-node dataset


def _metrics_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(EVAL_HEADER)
        writer.writerows(rows)


def test_eval_aggregate(tmp_path, run_cli):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _metrics_csv(a, [["r0", "0", "0.8", "0.75", "0.7", "0.8"]])
    _metrics_csv(
        b,
        [
            ["r1", "1", "0.6", "0.5", "0.6", "0.4"],
            ["mean", "", "0.9", "0.9", "0.9", "0.9"],  # must be skipped as input
        ],
    )
    out = str(tmp_path / "agg.csv")
    code, _, _ = run_cli(["eval", "--aggregate", str(a), str(b), "--out", out])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == EVAL_HEADER
    assert [row[0] for row in rows] == ["r0", "r1", "mean", "std"]
    assert float(rows[2][2]) == statistics.fmean([0.8, 0.6])
    assert float(rows[3][2]) == statistics.pstdev([0.8, 0.6])


def test_eval_aggregate_propagates_undefined(tmp_path, run_cli):
    a = tmp_path / "a.csv"
    _metrics_csv(a, [["r0", "", "0.8", "0.75", "undefined", "0.8"],
                     ["r1", "", "0.6", "0.5", "0.6", "0.4"]])
    out = str(tmp_path / "agg.csv")
    assert run_cli(["eval", "--aggregate", str(a), "--out", out])[0] == 0
    _, rows = _read_csv(out)
    mean_row = rows[-2]
    assert mean_row[4] == "undefined"  # sensitivity column
    assert mean_row[2] == repr(statistics.fmean([0.8, 0.6]))


def test_eval_aggregate_error_paths(tmp_path, run_cli, tiny_workspace):
    bad = tmp_path / "bad.csv"
    with open(bad, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerow(["wrong", "header"])
    code, _, err = run_cli(["eval", "--aggregate", str(bad), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "header" in err

    code, _, _ = run_cli(
        ["eval", "--aggregate", str(bad), "--checkpoint", tiny_workspace["checkpoint"],
         "--out", str(tmp_path / "o.csv")]
    )
    assert code == 1  # single-run flags conflict with --aggregate

    code, _, _ = run_cli(["eval", str(bad), "--out", str(tmp_path / "o.csv")])
    assert code == 1  # positional CSVs require --aggregate

    code, _, _ = run_cli(["eval", "--aggregate", "--out", str(tmp_path / "o.csv")])
    assert code == 1  # no inputs


# ---------------------------------------------------------------------------
# verify-theory


def test_verify_theory_2d(tmp_path, run_cli):
    prefix = str(tmp_path / "theory2d")
    code, _, _ = run_cli(["verify-theory", "--mode", "2d", "--out", prefix])
    assert code == 0
    header, rows = _read_csv(prefix + ".csv")
    assert header == THEORY_HEADER
    assert [row[1] for row in rows] == ["phi=0", "phi=pi/8", "phi=pi/4", "phi=3pi/8", "phi=pi/2"]
    values = [float(row[2]) for row in rows]
    assert values[0] == 0.0
    assert all(b > a for a, b in zip(values, values[1:]))
    # quadrature ladder converged far below the increments
    errors = [float(row[3]) for row in rows]
    assert max(errors) < 1e-8
    with open(prefix + ".txt", encoding="utf-8") as f:
        assert f.readline().strip() == "kind = theory_report"


def test_verify_theory_mc(tmp_path, run_cli):
    prefix = str(tmp_path / "theorymc")
    code, _, _ = run_cli(
        ["verify-theory", "--mode", "mc", "--samples", "20000", "--seed", "0", "--out", prefix]
    )
    assert code == 0
    _, rows = _read_csv(prefix + ".csv")
    by_name = {row[1]: row for row in rows}
    assert set(by_name) == {"orthonormal", "cosine_0.5", "separation_sigma"}
    assert float(by_name["orthonormal"][2]) > float(by_name["cosine_0.5"][2])
    assert float(by_name["separation_sigma"][2]) > 5.0


def test_verify_theory_vif(tmp_path, run_cli):
    prefix = str(tmp_path / "theoryvif")
    code, _, _ = run_cli(["verify-theory", "--mode", "vif", "--seed", "0", "--out", prefix])
    assert code == 0
    _, rows = _read_csv(prefix + ".csv")
    by_name = {row[1]: float(row[2]) for row in rows}
    for i in range(4):
        assert abs(by_name[f"orthogonal_col{i}"] - 1.0) < 1e-9
    assert abs(by_name["orthogonal_mean"] - 1.0) < 1e-9
    # rho = 0.9 corresponds to 1 / (1 - 0.81) = 5.263 in expectation
    assert by_name["rho09_mean"] == pytest.approx(5.263, rel=0.10)


def test_verify_theory_rejects_tiny_quadrature(tmp_path, run_cli):
    code, _, _ = run_cli(
        ["verify-theory", "--mode", "2d", "--quad-nodes", "4", "--out", str(tmp_path / "t")]
    )
    assert code == 1


@pytest.mark.parametrize(
    "args, message",
    [
        (["--mode", "mc", "--r", "inf"], "not a finite number"),
        (["--mode", "mc", "--r=-inf"], "not a finite number"),
        (["--mode", "mc", "--cosine", "Infinity"], "not a finite number"),
        (["--mode", "2d", "--quad-nodes", "1025"], "--quad-nodes must be in 8..1024"),
        (["--mode", "2d", "--quad-nodes", "100000000"], "--quad-nodes must be in 8..1024"),
        (["--mode", "mc", "--jobs", "0"], "--jobs must be in 1..64"),
        (["--mode", "mc", "--jobs", "-1"], "--jobs must be in 1..64"),
        (["--mode", "mc", "--jobs", "65"], "--jobs must be in 1..64"),
    ],
)
def test_verify_theory_refuses_unbounded_options(tmp_path, run_cli, args, message, monkeypatch):
    monkeypatch.setattr(bnt.workers, "_fork_pool", _no_pool)
    prefix = str(tmp_path / "t")
    code, _, err = run_cli(["verify-theory", "--samples", "1000", *args, "--out", prefix])
    assert code == 1, err
    assert len(err.splitlines()) == 1 and message in err, err
    for suffix in (".csv", ".txt", ".manifest"):
        assert not os.path.exists(prefix + suffix)


def test_verify_theory_jobs_change_no_byte(tmp_path, run_cli):
    outputs = []
    for jobs in ("1", "2"):
        prefix = str(tmp_path / f"jobs{jobs}")
        code, _, err = run_cli(["verify-theory", "--mode", "all", "--samples", "200000",
                                "--jobs", jobs, "--out", prefix])
        assert code == 0, err
        outputs.append((Path(prefix + ".csv").read_bytes(), Path(prefix + ".txt").read_bytes()))
    assert outputs[0] == outputs[1]
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# export-assignments


def test_export_assignments_roundtrip(tiny_workspace, tmp_path, run_cli):
    out = str(tmp_path / "assign.csv")
    code, _, _ = run_cli(
        ["export-assignments", "--checkpoint", tiny_workspace["checkpoint"],
         "--dataset", tiny_workspace["dataset"], "--split", tiny_workspace["split"],
         "--out", out]
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["kind", "class", "cluster", "node", "value"]
    _, config = load_checkpoint(tiny_workspace["checkpoint"])
    assignment_rows = [r for r in rows if r[0] == "assignment"]
    assert len(assignment_rows) == 2 * config.clusters * config.nodes
    assert rows[-1][0] == "difference_score"

    # rebuild the class averages and re-derive the score bit-for-bit
    matrices = {
        label: np.zeros((config.nodes, config.clusters)) for label in (0, 1)
    }
    for _, label, cluster, node, value in assignment_rows:
        matrices[int(label)][int(node), int(cluster)] = float(value)
    params, _ = load_checkpoint(tiny_workspace["checkpoint"])
    by_id = {g.subject_id: g for g in read_dataset(tiny_workspace["dataset"])}
    with open(tiny_workspace["split"], encoding="utf-8") as f:
        test_ids = SplitPlan.from_text(f.read()).test
    for label in (0, 1):
        # soft assignments: each node's distribution sums to one
        assert np.allclose(matrices[label].sum(axis=1), 1.0, atol=1e-12)
        # the class mean of the single-graph forward's assignments, summed in
        # test-split order: one-graph scoring chunks keep every bit of it
        per_graph = [forward(by_id[i].matrix, params, config)[1].assignment
                     for i in test_ids if by_id[i].label == label]
        assert np.array_equal(matrices[label], sum(per_graph) / len(per_graph))
    assert rows[-1][4] == repr(difference_score(matrices[0], matrices[1]))


def test_export_assignments_refuses_a_one_class_test_split_before_scoring(
    tiny_workspace, tmp_path, run_cli, monkeypatch
):
    by_id = {g.subject_id: g for g in read_dataset(tiny_workspace["dataset"])}
    with open(tiny_workspace["split"], encoding="utf-8") as f:
        plan = SplitPlan.from_text(f.read())
    plan.test = [i for i in plan.test if by_id[i].label == 0]
    split = tmp_path / "class0.txt"
    split.write_text(plan.to_text(), encoding="utf-8")

    def no_scoring(*args, **kwargs):
        raise AssertionError("scored a graph before checking the test classes")

    monkeypatch.setattr(bnt.model, "_forward_batch", no_scoring)
    out = str(tmp_path / "assign.csv")
    err = _assert_data_error(
        run_cli(["export-assignments", "--checkpoint", tiny_workspace["checkpoint"],
                 "--dataset", tiny_workspace["dataset"], "--split", str(split), "--out", out]),
        out, out + ".manifest",
    )
    assert "no class-1 graphs" in err


def test_export_assignments_requires_clustering_readout(tiny_workspace, tmp_path, run_cli):
    run_dir = str(tmp_path / "meanrun")
    code, _, _ = run_cli(
        ["train", "--dataset", tiny_workspace["dataset"], "--split", tiny_workspace["split"],
         "--readout", "mean", "--epochs", "1", "--seed", "0", "--out", run_dir]
    )
    assert code == 0
    import os

    code, _, err = run_cli(
        ["export-assignments", "--checkpoint", os.path.join(run_dir, "checkpoint.bnt"),
         "--dataset", tiny_workspace["dataset"], "--split", tiny_workspace["split"],
         "--out", str(tmp_path / "a.csv")]
    )
    assert code == 1
    assert "ocread" in err


# ---------------------------------------------------------------------------
# ablate


def test_ablate_sweep_structure(ablate_workspace):
    import os

    header, rows = _read_csv(ablate_workspace["csv"])
    assert header == ABLATE_HEADER
    # 2 combos x (5 seed rows + mean + std)
    assert len(rows) == 14
    for centers in ("orthonormal", "random_unit"):
        combo = [r for r in rows if r[1] == centers]
        assert [r[3] for r in combo] == ["0", "1", "2", "3", "4", "mean", "std"]
        assert all(r[0] == "ocread" and r[2] == "4" for r in combo)
        seed_rows = combo[:5]
        aurocs = [float(r[5]) for r in seed_rows]
        mean_row, std_row = combo[5], combo[6]
        assert mean_row[4] == "" and std_row[4] == ""  # no selected_epoch stats
        assert float(mean_row[5]) == statistics.fmean(aurocs)
        assert float(std_row[5]) == statistics.pstdev(aurocs)

    names = sorted(os.listdir(ablate_workspace["models"]))
    expected = sorted(
        f"ocread_{centers}_k4_seed{seed}.bnt"
        for centers in ("orthonormal", "random_unit")
        for seed in range(5)
    )
    assert names == expected


def test_assignment_contrast_favors_orthonormal_centers(ablate_workspace, tmp_path, run_cli):
    # class-averaged assignment matrices should differ more between
    # classes when the centers are orthonormal than when they are random
    import os

    def scores(centers):
        values = []
        for seed in range(5):
            checkpoint = os.path.join(
                ablate_workspace["models"], f"ocread_{centers}_k4_seed{seed}.bnt"
            )
            out = str(tmp_path / f"{centers}_{seed}.csv")
            code, _, _ = run_cli(
                ["export-assignments", "--checkpoint", checkpoint,
                 "--dataset", ablate_workspace["dataset"],
                 "--split", ablate_workspace["split"], "--out", out]
            )
            assert code == 0
            _, rows = _read_csv(out)
            assert rows[-1][0] == "difference_score"
            values.append(float(rows[-1][4]))
        return values

    orthonormal = scores("orthonormal")
    random_unit = scores("random_unit")
    assert statistics.median(orthonormal) >= statistics.median(random_unit)


def test_ablate_rejects_impossible_combo_upfront(tiny_workspace, tmp_path, run_cli):
    out = str(tmp_path / "bad.csv")
    code, _, err = run_cli(
        ["ablate", "--dataset", tiny_workspace["dataset"], "--split", tiny_workspace["split"],
         "--clusters", "4,64", "--seeds", "0", "--epochs", "1", "--out", out]
    )
    assert code == 1  # 64 clusters > 16 nodes, caught before any training
    import os

    assert not os.path.exists(out)


def test_ablate_jobs_change_no_byte(tiny_workspace, tmp_path, run_cli):
    outputs = []
    for jobs in ("1", "2"):
        models, out = tmp_path / f"models{jobs}", tmp_path / f"ablate{jobs}.csv"
        code, _, err = run_cli(["ablate", "--dataset", tiny_workspace["dataset"], "--split",
                                tiny_workspace["split"], "--seeds", "0,1", "--epochs", "2",
                                "--jobs", jobs, "--save-models", str(models), "--out", str(out)])
        assert code == 0, err
        saved = {p.name: p.read_bytes() for p in sorted(models.iterdir())}
        outputs.append((out.read_bytes(), saved, err))
    assert len(outputs[0][1]) == 4 and err.count("[ablate]") == 4
    assert outputs[0] == outputs[1]
    assert multiprocessing.active_children() == []


def _no_pool(*args):
    raise AssertionError("a worker pool was started")


@pytest.mark.parametrize("jobs", ["0", "-1", "65"])
def test_ablate_refuses_jobs_out_of_range_before_any_process(tiny_workspace, tmp_path, run_cli,
                                                             monkeypatch, jobs):
    monkeypatch.setattr(bnt.workers, "_fork_pool", _no_pool)
    models, out = tmp_path / "models", tmp_path / "ablate.csv"
    code, _, err = run_cli(["ablate", "--dataset", tiny_workspace["dataset"], "--split",
                            tiny_workspace["split"], "--seeds", "0,1", "--epochs", "1",
                            "--jobs", jobs, "--save-models", str(models), "--out", str(out)])
    assert code == 1 and err == "error: --jobs must be in 1..64\n", err
    assert not models.exists() and not out.exists()


def test_importing_the_cli_loads_no_process_machinery():
    code = ("import sys, bnt.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# malformed inputs: a data error (exit 2), one stderr line, no output


def _assert_data_error(result, *unwritten):
    code, _, err = result
    assert code == 2, err
    assert len(err.splitlines()) == 1, err
    for path in unwritten:
        assert not os.path.exists(path), path
    return err


def test_train_refuses_a_split_that_leaks_test_ids(tiny_workspace, tmp_path, run_cli):
    with open(tiny_workspace["split"], encoding="utf-8") as f:
        plan = SplitPlan.from_text(f.read())
    plan.train += plan.test
    leak = tmp_path / "leak.txt"
    leak.write_text(plan.to_text(), encoding="utf-8")
    run_dir = str(tmp_path / "run")
    err = _assert_data_error(
        run_cli(["train", "--dataset", tiny_workspace["dataset"], "--split", str(leak),
                 "--epochs", "1", "--out", run_dir]),
        run_dir,
    )
    assert "in both train and test" in err


def _split_with_unknown_test_id(tiny_workspace, tmp_path):
    with open(tiny_workspace["split"], encoding="utf-8") as f:
        plan = SplitPlan.from_text(f.read())
    plan.test[0] = 999
    split = tmp_path / "unknown.txt"
    split.write_text(plan.to_text(), encoding="utf-8")
    return str(split)


def test_train_refuses_an_unknown_test_id_before_creating_the_run(tiny_workspace, tmp_path, run_cli):
    run_dir = str(tmp_path / "run")
    err = _assert_data_error(
        run_cli(["train", "--dataset", tiny_workspace["dataset"], "--split",
                 _split_with_unknown_test_id(tiny_workspace, tmp_path), "--epochs", "1",
                 "--out", run_dir]),
        run_dir,
    )
    assert "test list references subject id 999" in err


def test_ablate_refuses_an_unknown_test_id_before_creating_outputs(tiny_workspace, tmp_path, run_cli):
    models, out = str(tmp_path / "models"), str(tmp_path / "ablate.csv")
    err = _assert_data_error(
        run_cli(["ablate", "--dataset", tiny_workspace["dataset"], "--split",
                 _split_with_unknown_test_id(tiny_workspace, tmp_path), "--seeds", "0",
                 "--epochs", "1", "--save-models", models, "--out", out]),
        models, out, out + ".manifest",
    )
    assert "test list references subject id 999" in err


def test_train_refuses_a_split_without_fractions(tiny_workspace, tmp_path, run_cli):
    with open(tiny_workspace["split"], encoding="utf-8") as f:
        text = "".join(l for l in f if not l.startswith("fractions"))
    split = tmp_path / "nofrac.txt"
    split.write_text(text, encoding="utf-8")
    run_dir = str(tmp_path / "run")
    err = _assert_data_error(
        run_cli(["train", "--dataset", tiny_workspace["dataset"], "--split", str(split),
                 "--epochs", "1", "--out", run_dir]),
        run_dir,
    )
    assert "no fractions line" in err


def test_split_refuses_duplicate_subject_ids(tiny_workspace, tmp_path, run_cli):
    graphs = read_dataset(tiny_workspace["dataset"])
    # write_dataset refuses a repeated id, so copy record 0's id into record 1
    with open(tiny_workspace["dataset"], "rb") as f:
        raw = f.read()
    second = 16 + 8 + 4 * graphs[0].matrix.shape[0] ** 2
    dataset = tmp_path / "twice.bntd"
    dataset.write_bytes(raw[:second] + raw[16:20] + raw[second + 4 :])
    out = str(tmp_path / "split.txt")
    err = _assert_data_error(
        run_cli(["split", "--dataset", str(dataset), "--out", out]),
        out, out + ".manifest",
    )
    assert f"subject {graphs[0].subject_id} appears twice" in err


def test_split_refuses_a_plan_without_both_classes_in_train_and_val(tmp_path, run_cli):
    dataset = str(tmp_path / "d.bntd")
    assert run_cli(["generate", "--nodes", "16", "--subjects-per-class", "20", "--seed", "1",
                    "--out", dataset])[0] == 0
    out = str(tmp_path / "split.txt")
    # 8 (site, label) cells of 5: each val quota of 0.5 ties train's and goes to train
    err = _assert_data_error(run_cli(["split", "--dataset", dataset, "--seed", "1", "--out", out]),
                             out, out + ".manifest")
    assert "the val list is empty" in err


def test_train_refuses_a_plan_with_a_one_class_val_list(tiny_workspace, tmp_path, run_cli):
    by_id = {g.subject_id: g for g in read_dataset(tiny_workspace["dataset"])}
    with open(tiny_workspace["split"], encoding="utf-8") as f:
        plan = SplitPlan.from_text(f.read())
    plan.test += [i for i in plan.val if by_id[i].label == 0]
    plan.val = [i for i in plan.val if by_id[i].label == 1]
    split = tmp_path / "val1.txt"
    split.write_text(plan.to_text(), encoding="utf-8")
    run_dir = str(tmp_path / "run")
    err = _assert_data_error(
        run_cli(["train", "--dataset", tiny_workspace["dataset"], "--split", str(split),
                 "--epochs", "1", "--out", run_dir]),
        run_dir,
    )
    assert "the val list holds only class 1" in err


def test_eval_report_without_auroc_is_a_data_error(tiny_workspace, tmp_path, run_cli):
    report = tmp_path / "report.txt"
    with open(tiny_workspace["report"], encoding="utf-8") as f:
        report.write_text("".join(l for l in f if not l.startswith("test.auroc")), encoding="utf-8")
    out = str(tmp_path / "m.csv")
    err = _assert_data_error(
        run_cli(["eval", "--checkpoint", tiny_workspace["checkpoint"],
                 "--dataset", tiny_workspace["dataset"], "--split", tiny_workspace["split"],
                 "--report", str(report), "--out", out]),
        out, out + ".manifest",
    )
    assert "test.auroc" in err


def test_train_refuses_a_dataset_with_nan(tiny_workspace, tmp_path, run_cli):
    raw = Path(tiny_workspace["dataset"]).read_bytes()
    # 16-byte file header, 8-byte record head, then entry (0, 0) and (0, 1)
    dataset = tmp_path / "nan.bntd"
    dataset.write_bytes(raw[:28] + np.float32(np.nan).tobytes() + raw[32:])
    run_dir = str(tmp_path / "run")
    err = _assert_data_error(
        run_cli(["train", "--dataset", str(dataset), "--split", tiny_workspace["split"],
                 "--epochs", "1", "--out", run_dir]),
        run_dir,
    )
    assert "subject 0" in err and "non-finite" in err


def test_eval_refuses_a_checkpoint_claiming_huge_tensors(tiny_workspace, tmp_path, run_cli):
    raw = Path(tiny_workspace["checkpoint"]).read_bytes()
    checkpoint = tmp_path / "huge.bnt"
    checkpoint.write_bytes(raw[:8] + (2**31).to_bytes(4, "little") + raw[12:])  # nodes
    out = str(tmp_path / "m.csv")
    err = _assert_data_error(
        run_cli(["eval", "--checkpoint", str(checkpoint), "--dataset", tiny_workspace["dataset"],
                 "--split", tiny_workspace["split"], "--out", out]),
        out, out + ".manifest",
    )
    assert "bytes" in err


def test_train_divergence_is_a_numerical_failure(tiny_workspace, tmp_path, run_cli):
    run_dir = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NumPy overflow warning would raise here
        code, _, err = run_cli(["train", "--dataset", tiny_workspace["dataset"], "--split",
                                tiny_workspace["split"], "--epochs", "5", "--lr", "1e300",
                                "--out", str(run_dir)])
    assert code == 3, err
    assert err.splitlines() == ["numerical failure: training diverged in epoch 1: non-finite validation scores"]
    assert not run_dir.exists()

    out, models = tmp_path / "ablate.csv", tmp_path / "models"
    code, _, err = run_cli(["ablate", "--dataset", tiny_workspace["dataset"], "--split",
                            tiny_workspace["split"], "--clusters", "2", "--seeds", "0", "--epochs", "1",
                            "--lr", "1e300", "--save-models", str(models), "--out", str(out)])
    assert code == 3 and len(err.splitlines()) == 1, err
    assert "seed=0: training diverged in epoch 1" in err and not out.exists() and not models.exists()


def test_out_of_memory_is_one_line_and_exit_3(tiny_workspace, tmp_path, run_cli, monkeypatch):
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(bnt.cli, "train", no_memory)
    run_dir = tmp_path / "run"
    code, _, err = run_cli(["train", "--dataset", tiny_workspace["dataset"], "--split",
                            tiny_workspace["split"], "--out", str(run_dir)])
    assert (code, err) == (3, "resource failure: out of memory\n")
    assert not run_dir.exists()


def test_a_dead_ablate_worker_is_one_line_and_exit_3(tiny_workspace, tmp_path, run_cli, monkeypatch):
    def killed(*args):
        os._exit(9)  # as the out-of-memory killer would end a worker

    monkeypatch.setattr(bnt.cli, "train", killed)
    out = tmp_path / "ablate.csv"
    code, _, err = run_cli(["ablate", "--dataset", tiny_workspace["dataset"], "--split",
                            tiny_workspace["split"], "--seeds", "0,1", "--epochs", "1", "--jobs", "2",
                            "--out", str(out)])
    assert code == 3 and len(err.splitlines()) == 1, err
    assert err.startswith("resource failure: readout=ocread centers=orthonormal clusters=4 seed=0: "
                          "a worker process died"), err
    assert not out.exists()
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# process-level entry


REPO_ROOT = Path(__file__).resolve().parent.parent


def test_console_entry_point(tmp_path):
    # Build the launcher pip would install for the `bnt` script that
    # pyproject.toml declares, so the checkout under test is what runs --
    # not whatever `bnt` (if any) an earlier install left on PATH.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    entry = EntryPoint(name="bnt", value=scripts["bnt"], group="console_scripts")
    launcher = tmp_path / "bnt"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.exit({entry.attr}())\n"
    )
    launcher.chmod(0o755)
    env = dict(
        os.environ,
        PATH=os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")]),
        PYTHONPATH=str(REPO_ROOT / "src"),
    )

    version = subprocess.run(["bnt", "--version"], capture_output=True, text=True, env=env)
    assert version.returncode == 0, version.stderr
    assert version.stdout.startswith("bnt ")
    bare = subprocess.run(["bnt"], capture_output=True, text=True, env=env)
    assert bare.returncode == 1, bare.stderr


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "bnt.cli", "--version"], capture_output=True, text=True
    )
    assert result.returncode == 0
