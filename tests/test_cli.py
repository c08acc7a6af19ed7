"""End-to-end command-line behavior: files, manifests, exit codes."""

import csv
import dataclasses
import multiprocessing
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import bnt.cli
import bnt.data
import bnt.model
import bnt.theory
import bnt.workers
from bnt.cli import ABLATE_HEADER, EVAL_HEADER, THEORY_HEADER
from bnt.data import GeneratorSpec, SplitPlan, generate_dataset, read_dataset, write_dataset
from bnt.metrics import difference_score
from bnt.model import ModelConfig, forward, init_params, score_chunks
from bnt.rng import Rng
from bnt.training import TrainConfig, TrainReport, load_checkpoint, save_checkpoint


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


class _Subject(NamedTuple):
    matrix: np.ndarray
    label: int


def _subjects(path):
    """{subject id: its matrix and label} of a dataset file."""
    d = read_dataset(path)
    rows = zip(d.subject_ids.tolist(), d.matrices, d.labels.tolist())
    return {sid: _Subject(m, label) for sid, m, label in rows}


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
    # the manifest holds the options; the report, the model config they resolve to
    assert "option.nodes" not in kv and "option.head_dim" not in kv
    report = _read_manifest(tiny_workspace["report"])
    assert report["config.nodes"] == "16"  # inferred from the dataset
    assert report["config.head_dim"] == "4"  # ceil(16 / 4 heads)
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


_GENERATE_ARGV = ["generate", "--nodes", "10", "--modules", "5", "--subjects-per-class", "3", "--sites", "3",
                  "--within", "0.7", "--between0", "0.2", "--between1", "0.3", "--site-noise", "0.25",
                  "--series-length", "20", "--seed", "9"]


def test_generate_fills_every_spec_field_from_its_flag(tmp_path, run_cli):
    spec = GeneratorSpec(nodes=10, modules=5, subjects_per_class=3, sites=3, within_strength=0.7,
                         between_strength_class0=0.2, between_strength_class1=0.3, site_noise=0.25,
                         series_length=20, seed=9)
    assert all(getattr(spec, f.name) != f.default for f in dataclasses.fields(spec))
    write_dataset(str(tmp_path / "library.bntd"), generate_dataset(spec))
    assert run_cli(_GENERATE_ARGV + ["--out", str(tmp_path / "cli.bntd")])[0] == 0
    assert (tmp_path / "cli.bntd").read_bytes() == (tmp_path / "library.bntd").read_bytes()


@pytest.mark.parametrize("field", sorted(bnt.cli._OPTION_OF))
def test_a_config_field_that_no_option_sets_raises(tiny_workspace, tmp_path, monkeypatch, field):
    # without its declaration the field would be looked up under its own
    # name, which no option has, instead of silently taking its default
    monkeypatch.delitem(bnt.cli._OPTION_OF, field)
    if field in {f.name for f in dataclasses.fields(GeneratorSpec)}:
        argv = _GENERATE_ARGV + ["--out", str(tmp_path / "d.bntd")]
    else:
        argv = ["train", "--dataset", tiny_workspace["dataset"], "--split", tiny_workspace["split"],
                "--epochs", "1", "--out", str(tmp_path / "run")]
    with pytest.raises(KeyError, match=field):
        bnt.cli.main(argv)
    assert _tree(tmp_path) == {}


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


def test_env_seed_sets_only_the_seed_options(monkeypatch):
    monkeypatch.setenv("BNT_SEED", "7")
    for name, command in bnt.cli._COMMANDS.items():
        required = [opt.name for opt in command.opts if opt.default is bnt.cli._REQUIRED]
        argv = [name] + [f"--{opt.replace('_', '-')}={opt}" for opt in required]
        resolved = bnt.cli._resolve(bnt.cli.build_parser().parse_args(argv), command.opts)
        for opt in command.opts:
            if opt.name in required:
                assert resolved[opt.name] == opt.name
            elif opt.name in ("seed", "seeds"):
                assert resolved[opt.name] == opt.parse("7"), (name, opt.name)
            else:
                assert resolved[opt.name] == opt.default, (name, opt.name)


@pytest.mark.parametrize("name", list(bnt.cli._COMMANDS))
def test_option_defaults_read_back_from_their_text(name):
    # the "(default: X)" of --help and a manifest's "option.KEY = X" line can
    # be passed back as a flag or config value and give the same option
    for opt in bnt.cli._COMMANDS[name].opts:
        if opt.default is not None and opt.default is not bnt.cli._REQUIRED:
            assert opt.parse(bnt.cli._format_value(opt.default)) == opt.default, opt.name


def _replayed_run(case, ws, tmp_path):
    """(argv but --out, positional arguments, the outputs as suffixes of --out) of a replay case."""
    plan = ["--dataset", ws["dataset"], "--split", ws["split"]]
    if case == "eval-aggregate":
        csvs = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
        _metrics_csv(csvs[0], [["r0", "0", "0.8", "0.75", "0.7", "0.8"]])
        _metrics_csv(csvs[1], [["r1", "1", "0.6", "0.5", "undefined", "0.4"]])
        return ["eval", "--aggregate"], csvs, [""]
    return {
        "generate": (_GENERATE_ARGV, [], [""]),
        "split": (["split", "--dataset", ws["dataset"], "--seed", "3"], [], [""]),
        "split-no-stratify": (["split", "--dataset", ws["dataset"], "--no-stratify", "--seed", "4"], [], [""]),
        "train": (["train", *plan, "--epochs", "2", "--heads", "3"], [], ["/checkpoint.bnt", "/report.txt"]),
        "eval": (["eval", "--checkpoint", ws["checkpoint"], *plan, "--report", ws["report"]], [], [""]),
        "verify-theory": (["verify-theory", "--samples", "20000"], [], [".csv", ".txt"]),
        "export-assignments": (["export-assignments", "--checkpoint", ws["checkpoint"], *plan], [], [""]),
        "ablate": (["ablate", *plan, "--seeds", "0", "--epochs", "1"], [], [""]),
    }[case]


@pytest.mark.parametrize("case", ["generate", "split", "split-no-stratify", "train", "eval", "eval-aggregate",
                                  "verify-theory", "export-assignments", "ablate"])
def test_every_manifest_replays_as_a_config_file(tiny_workspace, tmp_path, run_cli, case):
    # every option.* line of a manifest, none left out, fed back as a config
    # file (with a new --out and the same positional CSVs) reproduces the outputs
    argv, positionals, outputs = _replayed_run(case, tiny_workspace, tmp_path)
    first, again = str(tmp_path / "first"), str(tmp_path / "again")
    code, _, err = run_cli([*argv, *positionals, "--out", first])
    assert code == 0, err
    manifest = "/manifest.txt" if argv[0] == "train" else ".manifest"
    recorded = _read_manifest(first + manifest)
    config = tmp_path / "replay.cfg"
    config.write_text("".join(f"{key.removeprefix('option.')} = {value}\n" for key, value in recorded.items()
                              if key.startswith("option.")))
    code, _, err = run_cli([argv[0], *positionals, "--config", str(config), "--out", again])
    assert code == 0, err
    for suffix in outputs:
        assert Path(again + suffix).read_bytes() == Path(first + suffix).read_bytes(), suffix

    def passed_back(kv):
        return {k: v for k, v in kv.items() if k.startswith(("option.", "input.")) and k != "option.out"}

    assert passed_back(_read_manifest(again + manifest)) == passed_back(recorded)
    assert "none" not in recorded.values()  # an unset option has no line to pass back
    if case == "eval":
        assert recorded["input.report"] == tiny_workspace["report"]


@pytest.mark.parametrize("switch", ["no_stratify", "aggregate"])
def test_a_switch_set_in_a_config_file_acts_as_its_flag(tiny_workspace, tmp_path, run_cli, switch):
    if switch == "no_stratify":
        argv = ["split", "--dataset", tiny_workspace["dataset"], "--seed", "4"]
    else:
        _metrics_csv(tmp_path / "a.csv", [["r0", "0", "0.8", "0.75", "0.7", "0.8"]])
        argv = ["eval", str(tmp_path / "a.csv")]
    config = tmp_path / "switch.cfg"
    config.write_text(f"{switch} = true\n")
    flagged, configured = tmp_path / "flagged", tmp_path / "configured"
    assert run_cli([*argv, "--" + switch.replace("_", "-"), "--out", str(flagged)])[0] == 0
    assert run_cli([*argv, "--config", str(config), "--out", str(configured)])[0] == 0
    assert configured.read_bytes() == flagged.read_bytes()
    for out in (flagged, configured):
        assert _read_manifest(f"{out}.manifest")[f"option.{switch}"] == "true"


class _Stop(Exception):
    pass


@pytest.mark.parametrize("name, stopped", [("generate", "generate_dataset"), ("train", "train"),
                                           ("ablate", "train")])
def test_options_left_unset_build_the_library_default_configs(tiny_workspace, tmp_path, monkeypatch,
                                                              name, stopped):
    # every option _config reads for a field defaults to that field's default
    real, built = bnt.cli._config, []

    def config(cls, opt, **given):
        made = real(cls, opt, **given)
        assert made == cls(**given), cls.__name__
        built.append(cls)
        return made

    def stop(*args):
        raise _Stop

    monkeypatch.setattr(bnt.cli, "_config", config)
    monkeypatch.setattr(bnt.cli, stopped, stop)
    inputs = [] if name == "generate" else ["--dataset", tiny_workspace["dataset"], "--split",
                                            tiny_workspace["split"], "--jobs", "1"]
    with pytest.raises(_Stop):
        bnt.cli.main([name, *inputs, "--out", str(tmp_path / "out")])
    assert set(built) == ({GeneratorSpec} if name == "generate" else {ModelConfig, TrainConfig})
    assert _tree(tmp_path) == {}


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


def test_generate_one_node(tmp_path, run_cli):
    # the correlation matrix of one series is 1 x 1, not 0-d
    out = str(tmp_path / "one.bntd")
    code, _, err = run_cli(["generate", "--nodes", "1", "--modules", "1", "--subjects-per-class", "2",
                            "--out", out])
    assert code == 0, err
    graphs = read_dataset(out)
    assert len(graphs) == 4
    assert all(m.tolist() == [[1.0]] for m in graphs.matrices)


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

    for fractions in ("nan,0.5,0.5", "0.7,nan,0.3"):
        code, out, err = run_cli(["split", "--dataset", tiny_workspace["dataset"], "--fractions", fractions,
                                  "--out", str(tmp_path / "s")])
        assert (code, out) == (1, "")
        assert err == f"error: invalid value for --fractions: {fractions!r} (nan is not a finite number)\n"
    assert os.listdir(tmp_path) == ["garbage.bntd"]


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
    assert kv["option.no_stratify"] == "true"


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
    assert seed == str(report.train_config.seed)
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


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_eval_aggregate_refuses_a_non_finite_cell(tmp_path, run_cli, cell):
    a = tmp_path / "a.csv"
    _metrics_csv(a, [["r0", "", "0.8", "0.75", "0.7", "0.8"],
                     ["r1", "", "0.6", cell, "0.6", "0.4"]])
    out = tmp_path / "agg.csv"
    code, _, err = run_cli(["eval", "--aggregate", str(a), "--out", str(out)])
    assert code == 2
    assert err.count("\n") == 1 and "accuracy" in err
    assert sorted(os.listdir(tmp_path)) == ["a.csv"]


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
    for seed in (0, 13, 15):  # a design drawn at random missed 5.263 by over 2% at 13 and 15
        prefix = str(tmp_path / f"theoryvif{seed}")
        code, _, _ = run_cli(["verify-theory", "--mode", "vif", "--seed", str(seed), "--out", prefix])
        assert code == 0
        _, rows = _read_csv(prefix + ".csv")
        by_name = {row[1]: float(row[2]) for row in rows}
        for i in range(4):
            assert abs(by_name[f"orthogonal_col{i}"] - 1.0) < 1e-9
        assert abs(by_name["orthogonal_mean"] - 1.0) < 1e-9
        # the design's sample correlation is exactly 0.9, so the VIF is 1 / (1 - 0.81)
        assert abs(by_name["rho09_mean"] - 1.0 / (1.0 - 0.81)) < 1e-9


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
        (["--mode", "mc", "--clusters", "0"], "--clusters must be at least 1"),
        (["--mode", "mc", "--clusters", "-3"], "--clusters must be at least 1"),
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


def test_verify_theory_jobs_change_no_byte(tmp_path, run_cli, pool_sizes, monkeypatch):
    monkeypatch.setattr(bnt.theory, "usable_cpus", lambda: 2)  # pooled on one CPU too
    outputs = []
    for jobs in ("1", "2"):
        prefix = str(tmp_path / f"jobs{jobs}")
        code, _, err = run_cli(["verify-theory", "--mode", "all", "--samples", "200000",
                                "--jobs", jobs, "--out", prefix])
        assert code == 0, err
        outputs.append((Path(prefix + ".csv").read_bytes(), Path(prefix + ".txt").read_bytes()))
    assert outputs[0] == outputs[1]
    assert pool_sizes == [2]  # one pool scores both center sets
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# export-assignments


def _check_export(paths, tmp_path, run_cli):
    """Run export-assignments on ``paths`` and check its CSV against the
    scorer's assignments, summed per class in test-split order."""
    out = str(tmp_path / "assign.csv")
    code, _, _ = run_cli(
        ["export-assignments", "--checkpoint", paths["checkpoint"],
         "--dataset", paths["dataset"], "--split", paths["split"],
         "--out", out]
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["kind", "class", "cluster", "node", "value"]
    params, config = load_checkpoint(paths["checkpoint"])
    assignment_rows = [r for r in rows if r[0] == "assignment"]
    assert len(assignment_rows) == 2 * config.clusters * config.nodes
    assert rows[-1][0] == "difference_score"

    # rebuild the class averages and re-derive the score bit-for-bit
    matrices = {
        label: np.zeros((config.nodes, config.clusters)) for label in (0, 1)
    }
    for _, label, cluster, node, value in assignment_rows:
        matrices[int(label)][int(node), int(cluster)] = float(value)
    dataset = read_dataset(paths["dataset"])
    with open(paths["split"], encoding="utf-8") as f:
        (test,) = SplitPlan.from_text(f.read()).select(dataset, ("test",))
    chunks = score_chunks(dataset.matrices, params, config, take=test)
    scored = [a for _, _, assignment in chunks for a in assignment]
    labels = dataset.labels[test].tolist()
    for label in (0, 1):
        # soft assignments: each node's distribution sums to one
        assert np.allclose(matrices[label].sum(axis=1), 1.0, atol=1e-12)
        # the class mean of the scorer's assignments, summed in test-split order
        of_class = [a for a, y in zip(scored, labels) if y == label]
        assert np.array_equal(matrices[label], sum(of_class) / len(of_class))
        # and, but for the round-off of chunk-sized GEMMs, of the one-graph forward's
        per_graph = [forward(dataset.matrices[row], params, config)[1]
                     for row, y in zip(test, labels) if y == label]
        assert np.allclose(matrices[label], sum(per_graph) / len(per_graph), rtol=0, atol=1e-15)
    assert rows[-1][4] == repr(difference_score(matrices[0], matrices[1]))
    return [labels[rows] for rows, _, _ in chunks]


def test_export_assignments_roundtrip(tiny_workspace, tmp_path, run_cli):
    _check_export(tiny_workspace, tmp_path, run_cli)


@pytest.fixture(scope="module")
def v32_export(tmp_path_factory):
    """A V=32 dataset, an untrained clustering-readout checkpoint and a plan
    whose 16-graph test split alternates the classes."""
    root = tmp_path_factory.mktemp("v32")
    paths = {name: str(root / name) for name in ("v32.bntd", "split.txt", "checkpoint.bnt")}
    dataset = generate_dataset(GeneratorSpec(nodes=32, subjects_per_class=12, series_length=64, seed=6))
    write_dataset(paths["v32.bntd"], dataset)
    ids = {label: dataset.subject_ids[dataset.labels == label].tolist() for label in (0, 1)}
    test = [i for pair in zip(ids[0][4:], ids[1][4:]) for i in pair]
    plan = SplitPlan(ids[0][:2] + ids[1][:2], ids[0][2:4] + ids[1][2:4], test, (0.2, 0.1, 0.7))
    Path(paths["split.txt"]).write_text(plan.to_text(), encoding="utf-8")
    config = ModelConfig(nodes=32)
    save_checkpoint(paths["checkpoint.bnt"], init_params(config, Rng(0)), config)
    return {"dataset": paths["v32.bntd"], "split": paths["split.txt"], "checkpoint": paths["checkpoint.bnt"]}


def test_export_assignments_sums_every_graph_of_a_chunk_into_its_class(v32_export, tmp_path, run_cli):
    chunk_labels = _check_export(v32_export, tmp_path, run_cli)
    assert chunk_labels == [[0, 1] * 4] * 2  # two 8-graph chunks that each hold both classes


def test_export_assignments_refuses_a_one_class_test_split_before_scoring(
    tiny_workspace, tmp_path, run_cli, monkeypatch
):
    by_id = _subjects(tiny_workspace["dataset"])
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


@pytest.mark.parametrize("jobs", ["0", "-1", "65"])
@pytest.mark.parametrize("command", ["train", "eval", "export-assignments"])
def test_scoring_commands_refuse_jobs_out_of_range_before_any_input(tmp_path, run_cli, monkeypatch,
                                                                    command, jobs):
    monkeypatch.setattr(bnt.workers, "_fork_pool", _no_pool)
    missing, out = str(tmp_path / "missing"), tmp_path / "out"
    argv = [command, "--dataset", missing, "--split", missing, "--jobs", jobs, "--out", str(out)]
    if command != "train":
        argv += ["--checkpoint", missing]
    code, _, err = run_cli(argv)  # reading the missing inputs first would be a data error
    assert code == 1 and err == "error: --jobs must be in 1..64\n", err
    assert not out.exists()


@pytest.fixture(scope="module")
def wide_test_split(tiny_workspace, tmp_path_factory):
    """A plan over the tiny dataset with an 18-graph test split (18 chunks under ``lanes_used``)."""
    dataset = read_dataset(tiny_workspace["dataset"])
    ids = {label: dataset.subject_ids[dataset.labels == label].tolist() for label in (0, 1)}
    plan = SplitPlan(ids[0][:2] + ids[1][:2], ids[0][2:3] + ids[1][2:3], ids[0][3:] + ids[1][3:],
                     (0.2, 0.1, 0.7))
    path = tmp_path_factory.mktemp("wide") / "split.txt"
    path.write_text(plan.to_text())
    return str(path)


def _laned_outputs(lanes_used, pool_sizes, run_cli, argv, outputs):
    """The bytes of outputs after argv with --jobs 1 and 2, lanes at every
    step and scoring-chunk size, and the lane counts each run used."""
    runs = []
    for jobs in ("1", "2"):
        lanes_used.clear()
        code, _, err = run_cli([*argv, "--jobs", jobs, "--force"])
        assert code == 0, err
        runs.append(([Path(p).read_bytes() for p in outputs], max(lanes_used)))
        assert pool_sizes == [] and multiprocessing.active_children() == []  # nothing forked
    return runs


def test_train_jobs_change_no_byte(tiny_workspace, wide_test_split, tmp_path, run_cli, lanes_used,
                                   pool_sizes):
    run = tmp_path / "run"
    argv = ["train", "--dataset", tiny_workspace["dataset"], "--split", wide_test_split, "--epochs", "2",
            "--out", str(run)]
    (one, lanes_one), (two, lanes_two) = _laned_outputs(lanes_used, pool_sizes, run_cli, argv,
                                                        [run / "checkpoint.bnt", run / "report.txt"])
    assert one == two and lanes_one == 1 and lanes_two == min(2, bnt.workers.usable_cpus())


@pytest.mark.parametrize("command", ["eval", "export-assignments"])
def test_scoring_jobs_change_no_byte(tiny_workspace, wide_test_split, tmp_path, run_cli, lanes_used,
                                     pool_sizes, command):
    out = tmp_path / "out.csv"
    argv = [command, "--checkpoint", tiny_workspace["checkpoint"], "--dataset", tiny_workspace["dataset"],
            "--split", wide_test_split, "--out", str(out)]
    (one, lanes_one), (two, lanes_two) = _laned_outputs(lanes_used, pool_sizes, run_cli, argv, [out])
    assert one == two and lanes_one == 1 and lanes_two == min(2, bnt.workers.usable_cpus())


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


def _run_on_a_copy(tiny_workspace, tmp_path, run_cli, monkeypatch, command, after_read):
    """``command`` on a copy of the tiny dataset, with ``after_read(path)``
    called once the command has read (and checked) the copy; returns the
    CLI result and the command's main output paths."""
    data, out = tmp_path / "data.bntd", tmp_path / "out"
    data.write_bytes(Path(tiny_workspace["dataset"]).read_bytes())
    real = bnt.data.read_dataset

    def read(path, **kwargs):
        dataset = real(path, **kwargs)
        after_read(path)
        return dataset

    monkeypatch.setattr(bnt.cli, "read_dataset", read)
    argv = [command, "--dataset", str(data), "--split", tiny_workspace["split"], "--out", str(out)]
    if command in ("eval", "export-assignments"):
        argv += ["--checkpoint", tiny_workspace["checkpoint"]]
    else:
        argv += ["--epochs", "1"] + (["--seeds", "0,1", "--jobs", "2"] if command == "ablate" else [])
    outputs = [out / "checkpoint.bnt", out / "report.txt"] if command == "train" else [out]
    return run_cli(argv), outputs


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_dataset_replaced_after_it_is_read_gives_the_outputs_of_the_checked_file(tiny_workspace, tmp_path,
                                                                                  run_cli, monkeypatch, command):
    def regenerate(path):
        argv = ["generate", "--nodes", "16", "--subjects-per-class", "12", "--seed", "6", "--out", path, "--force"]
        assert bnt.cli.main(argv) == 0

    runs = []
    for name, after_read in (("kept", lambda path: None), ("replaced", regenerate)):
        (tmp_path / name).mkdir()
        (code, _, err), outputs = _run_on_a_copy(tiny_workspace, tmp_path / name, run_cli, monkeypatch, command,
                                                 after_read)
        assert code == 0, err
        runs.append([p.read_bytes() for p in outputs])
    assert (tmp_path / "replaced" / "data.bntd").read_bytes() != Path(tiny_workspace["dataset"]).read_bytes()
    assert runs[0] == runs[1]


def _break_in_place(path):
    """Rewrite ``path`` in place, at its size, with record 0's matrix entry
    (0, 1) out of range: a record the check of the file would refuse."""
    raw = bytearray(Path(path).read_bytes())
    raw[16 + 8 + 4 : 16 + 8 + 8] = np.float32(5.0).tobytes()
    time.sleep(0.02)  # a later tick of the file system's clock than the checked write
    with open(path, "r+b") as f:
        f.write(raw)


@pytest.mark.parametrize("change", ["cut", "rewritten in place"])
@pytest.mark.parametrize("command", ["train", "eval", "export-assignments", "ablate"])
def test_a_dataset_changed_after_it_is_read_is_a_data_error_at_its_next_gather(tiny_workspace, tmp_path, run_cli,
                                                                                 monkeypatch, command, change):
    # ablate's rows are gathered in its two forked workers
    size = os.path.getsize(tiny_workspace["dataset"])
    after_read, message = {
        "cut": (lambda path: os.truncate(path, 16), f"file is 16 bytes, expected {size} for 24 records"),
        "rewritten in place": (_break_in_place, "dataset file changed after it was checked"),
    }[change]
    result, _ = _run_on_a_copy(tiny_workspace, tmp_path, run_cli, monkeypatch, command, after_read)
    err = _assert_data_error(result)
    assert result[1] == "" and err == f"data error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["data.bntd"]
    assert multiprocessing.active_children() == []


def test_a_dataset_of_no_records_is_a_data_error(tmp_path, run_cli):
    empty, split = tmp_path / "empty.bntd", tmp_path / "split.txt"
    empty.write_bytes(bnt.data._HEADER.pack(bnt.data.MAGIC, bnt.data.FORMAT_VERSION, 16, 0))
    err = _assert_data_error(run_cli(["split", "--dataset", str(empty), "--out", str(split)]), split)
    assert err == f"data error: dataset {empty} contains no graphs\n"


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
    second = 16 + 8 + 4 * graphs.matrices.shape[1] ** 2
    dataset = tmp_path / "twice.bntd"
    dataset.write_bytes(raw[:second] + raw[16:20] + raw[second + 4 :])
    out = str(tmp_path / "split.txt")
    err = _assert_data_error(
        run_cli(["split", "--dataset", str(dataset), "--out", out]),
        out, out + ".manifest",
    )
    assert f"subject {graphs.subject_ids[0]} appears twice" in err


def test_split_refuses_a_plan_without_both_classes_in_train_and_val(tmp_path, run_cli):
    dataset = str(tmp_path / "d.bntd")
    assert run_cli(["generate", "--nodes", "16", "--subjects-per-class", "20", "--seed", "1",
                    "--out", dataset])[0] == 0
    out = str(tmp_path / "split.txt")
    # 8 (site, label) cells of 5: each val quota of 0.5 ties train's and goes to train
    err = _assert_data_error(run_cli(["split", "--dataset", dataset, "--seed", "1", "--out", out]),
                             out, out + ".manifest")
    assert "the val list is empty" in err


def test_split_refuses_a_plan_with_an_empty_test_list(tmp_path, run_cli):
    dataset = str(tmp_path / "d.bntd")
    assert run_cli(["generate", "--nodes", "12", "--modules", "3", "--subjects-per-class", "10", "--seed", "11",
                    "--out", dataset])[0] == 0
    out = str(tmp_path / "split.txt")
    err = _assert_data_error(
        run_cli(["split", "--dataset", dataset, "--fractions", "0.6,0.2,0.2", "--seed", "2", "--out", out]),
        out, out + ".manifest",
    )
    assert err == "data error: the test list is empty\n"


@pytest.mark.parametrize("name", ["train", "ablate", "eval", "export-assignments"])
def test_a_plan_with_an_empty_test_list_is_refused_before_any_work(tiny_workspace, tmp_path, run_cli,
                                                                   monkeypatch, name):
    with open(tiny_workspace["split"], encoding="utf-8") as f:
        text = f.read()
    split = tmp_path / "no_test.txt"
    split.write_text(re.sub(r"(?m)^test = .*$", "test =", text), encoding="utf-8")
    monkeypatch.setattr(bnt.cli, "train", lambda *args: pytest.fail("trained on a plan without a test list"))
    checkpoint = [] if name in ("train", "ablate") else ["--checkpoint", tiny_workspace["checkpoint"]]
    out = str(tmp_path / "out")
    err = _assert_data_error(run_cli([name, "--dataset", tiny_workspace["dataset"], "--split", str(split),
                                      *checkpoint, "--out", out]), out, out + ".manifest")
    assert err.endswith(": the test list is empty\n")
    assert os.listdir(tmp_path) == ["no_test.txt"]


def test_train_refuses_a_plan_with_a_one_class_val_list(tiny_workspace, tmp_path, run_cli):
    by_id = _subjects(tiny_workspace["dataset"])
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


@pytest.mark.parametrize("fractions", ["nan -5 inf", "0.5 0.5 0.5", "-0.2 0.6 0.6"])
def test_train_refuses_split_fractions_that_split_refuses(tiny_workspace, tmp_path, run_cli, fractions):
    with open(tiny_workspace["split"], encoding="utf-8") as f:
        text = "".join(f"fractions = {fractions}\n" if l.startswith("fractions") else l for l in f)
    split = tmp_path / "badfrac.txt"
    split.write_text(text, encoding="utf-8")
    run_dir = str(tmp_path / "run")
    err = _assert_data_error(
        run_cli(["train", "--dataset", tiny_workspace["dataset"], "--split", str(split),
                 "--epochs", "1", "--out", run_dir]),
        run_dir,
    )
    assert err.startswith(f"data error: {split}: fractions must "), err


@pytest.mark.parametrize("line", ["config.readout = mean", "config.clusters = 3", "config.head_dim = 5"])
def test_eval_refuses_a_report_of_another_model(tiny_workspace, tmp_path, run_cli, line):
    key = line.partition(" ")[0]
    report = tmp_path / "report.txt"
    with open(tiny_workspace["report"], encoding="utf-8") as f:
        report.write_text("".join(line + "\n" if l.startswith(key + " ") else l for l in f), encoding="utf-8")
    assert line in report.read_text(encoding="utf-8").splitlines()
    out = str(tmp_path / "m.csv")
    err = _assert_data_error(
        run_cli(["eval", "--checkpoint", tiny_workspace["checkpoint"],
                 "--dataset", tiny_workspace["dataset"], "--split", tiny_workspace["split"],
                 "--report", str(report), "--out", out]),
        out, out + ".manifest",
    )
    assert err == f"data error: train report {report} does not describe checkpoint {tiny_workspace['checkpoint']}\n"


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


@pytest.mark.parametrize(
    "what, argv",
    [
        ("split plan", lambda ws, bad, out: ["train", "--dataset", ws["dataset"], "--split", bad,
                                             "--epochs", "1", "--out", out]),
        ("train report", lambda ws, bad, out: ["eval", "--checkpoint", ws["checkpoint"], "--dataset",
                                               ws["dataset"], "--split", ws["split"], "--report", bad,
                                               "--out", out]),
        ("metrics CSV", lambda ws, bad, out: ["eval", "--aggregate", bad, "--out", out]),
    ],
)
def test_a_non_utf8_input_is_a_data_error_naming_the_file(tiny_workspace, tmp_path, run_cli, what, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("caf\xe9 = 1\n".encode("latin-1"))
    out = str(tmp_path / "out")
    err = _assert_data_error(run_cli(argv(tiny_workspace, str(bad), out)), out, out + ".manifest")
    assert err.startswith(f"data error: cannot read {what} {bad}: 'utf-8' codec can't decode byte 0xe9"), err


def test_a_non_utf8_config_file_is_a_usage_error_naming_the_file(tmp_path, run_cli):
    config = tmp_path / "latin1.cfg"
    config.write_bytes("nodes = 12  # caf\xe9\n".encode("latin-1"))
    out = tmp_path / "d.bntd"
    code, _, err = run_cli(["generate", "--config", str(config), "--out", str(out)])
    assert code == 1 and len(err.splitlines()) == 1, err
    assert err.startswith(f"error: cannot read config file {config}: 'utf-8' codec can't decode"), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "export-assignments"])
def test_scoring_commands_refuse_an_unknown_test_id(tiny_workspace, tmp_path, run_cli, command):
    split = _split_with_unknown_test_id(tiny_workspace, tmp_path)
    out = str(tmp_path / "out.csv")
    err = _assert_data_error(
        run_cli([command, "--checkpoint", tiny_workspace["checkpoint"], "--dataset", tiny_workspace["dataset"],
                 "--split", split, "--out", out]),
        out, out + ".manifest",
    )
    assert err == f"data error: {split}: test list references subject id 999 absent from the dataset\n"


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
# a command that fails writes nothing: no output, temp file or directory


@pytest.mark.parametrize("where, forged", [("--run-id", "x\nversion = 9.9"), ("--run-id", "x\u2028version = 9.9"),
                                           ("--out", "x\rversion = 9.9"), ("input", "x\nversion = 9.9")])
def test_a_line_break_in_a_value_is_refused_before_any_input(tiny_workspace, tmp_path, run_cli, where, forged):
    out = str(tmp_path / (forged if where == "--out" else "m.csv"))
    if where == "input":
        (tmp_path / forged).write_text(",".join(EVAL_HEADER) + "\nr0,0,0.5,0.5,0.5,0.5\n")
        argv = ["eval", "--aggregate", str(tmp_path / forged), "--out", out]
    else:
        argv = ["eval", "--checkpoint", tiny_workspace["checkpoint"], "--dataset", tiny_workspace["dataset"],
                "--split", tiny_workspace["split"], "--out", out]
        argv += ["--run-id", forged] if where == "--run-id" else []
    before = _tree(tmp_path)
    code, stdout, err = run_cli(argv)
    value = str(tmp_path / forged) if where != "--run-id" else forged
    assert (code, stdout, err) == (1, "", f"error: {where} value {value!r} contains a line break\n")
    assert _tree(tmp_path) == before


def _tree(root):
    """Every path under root, with the bytes of each file (None for a directory)."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(Path(root).rglob("*"))}


def test_a_sweep_failing_on_its_second_run_saves_no_model(tiny_workspace, tmp_path, run_cli, monkeypatch):
    real, calls = bnt.cli.train, []

    def diverges_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise FloatingPointError("training diverged in epoch 1: non-finite loss")
        return real(*args)

    monkeypatch.setattr(bnt.cli, "train", diverges_second)
    before = _tree(tmp_path)
    code, _, err = run_cli(["ablate", "--dataset", tiny_workspace["dataset"], "--split",
                            tiny_workspace["split"], "--clusters", "2", "--seeds", "0,1", "--epochs", "1",
                            "--jobs", "1", "--save-models", str(tmp_path / "models"),
                            "--out", str(tmp_path / "ablate.csv")])
    assert code == 3 and "seed=1: training diverged" in err, err
    assert _tree(tmp_path) == before


def _fail_writing_reports(monkeypatch):
    def no_space(self):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(TrainReport, "to_text", no_space)


def test_a_train_failing_to_write_its_report_leaves_no_run(tiny_workspace, tmp_path, run_cli, monkeypatch):
    _fail_writing_reports(monkeypatch)
    code, _, err = run_cli(["train", "--dataset", tiny_workspace["dataset"], "--split",
                            tiny_workspace["split"], "--epochs", "1", "--out", str(tmp_path / "run")])
    assert (code, err) == (2, "data error: [Errno 28] No space left on device\n")
    assert _tree(tmp_path) == {}


def test_a_failing_forced_rerun_leaves_the_old_outputs(tiny_workspace, tmp_path, run_cli, monkeypatch):
    argv = ["train", "--dataset", tiny_workspace["dataset"], "--split", tiny_workspace["split"],
            "--epochs", "1", "--out", str(tmp_path / "run")]
    assert run_cli(argv)[0] == 0
    before = _tree(tmp_path)
    _fail_writing_reports(monkeypatch)
    assert run_cli([*argv, "--force"])[0] == 2
    assert _tree(tmp_path) == before


class _FailsInTheTextReport:
    """A check cell the CSV writer prints but the text report cannot."""

    def __str__(self):
        return "1.0"

    def __format__(self, spec):
        raise FloatingPointError("non-finite vif")


def test_verify_theory_failing_after_its_csv_is_staged_writes_nothing(tmp_path, run_cli, monkeypatch):
    monkeypatch.setattr(bnt.cli, "_theory_rows_vif", lambda opt: [["vif", "x", _FailsInTheTextReport(), ""]])
    code, _, err = run_cli(["verify-theory", "--mode", "vif", "--out", str(tmp_path / "theory")])
    assert (code, err) == (3, "numerical failure: non-finite vif\n")
    assert _tree(tmp_path) == {}


def test_a_forced_run_onto_a_directory_moves_no_output(tmp_path, run_cli):
    argv = ["verify-theory", "--mode", "vif", "--out", str(tmp_path / "t")]
    assert run_cli(argv)[0] == 0
    (tmp_path / "t.txt").unlink()
    (tmp_path / "t.txt").mkdir()
    before = _tree(tmp_path)
    code, _, err = run_cli([*argv, "--seed", "3", "--force"])
    assert (code, err) == (2, f"data error: [Errno 21] Is a directory: '{tmp_path / 't.txt'}'\n")
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("aggregate", [False, True])
def test_eval_refuses_to_overwrite_before_reading_any_input(tmp_path, run_cli, monkeypatch, aggregate):
    monkeypatch.setattr(bnt.cli, "evaluate", _no_pool)
    out, missing = tmp_path / "m.csv", str(tmp_path / "missing")
    out.write_text("old")
    inputs = ["--aggregate", missing] if aggregate else ["--checkpoint", missing, "--dataset", missing,
                                                         "--split", missing]
    argv = ["eval", "--out", str(out), *inputs]
    code, _, err = run_cli(argv)  # reading the missing inputs first would be a data error
    assert (code, err) == (1, f"error: refusing to overwrite existing {out} (pass --force)\n")
    assert _tree(tmp_path) == {"m.csv": b"old"}


@pytest.mark.parametrize("force", [False, True])
def test_ablate_saving_models_under_a_file_is_refused_before_training(tiny_workspace, tmp_path, run_cli,
                                                                     monkeypatch, force):
    real, calls = bnt.cli.train, []
    monkeypatch.setattr(bnt.cli, "train", lambda *args: calls.append(args) or real(*args))
    (tmp_path / "models").write_text("not a directory")
    if force:
        (tmp_path / "ablate.csv").write_text("old csv")
        (tmp_path / "ablate.csv.manifest").write_text("old manifest")
    before = _tree(tmp_path)
    code, _, err = run_cli(["ablate", "--dataset", tiny_workspace["dataset"], "--split",
                            tiny_workspace["split"], "--clusters", "2", "--seeds", "0", "--epochs", "1",
                            "--jobs", "1", "--save-models", str(tmp_path / "models"),
                            "--out", str(tmp_path / "ablate.csv"), *(["--force"] if force else [])])
    model = tmp_path / "models" / "ocread_orthonormal_k2_seed0.bnt"
    assert (code, err) == (2, f"data error: [Errno 20] Not a directory: '{model}'\n")
    assert calls == [] and _tree(tmp_path) == before


@pytest.mark.parametrize("parent, error", [("nosuch", "[Errno 2] No such file or directory"),
                                           ("afile", "[Errno 20] Not a directory")])
def test_a_file_output_is_not_given_a_directory(tmp_path, run_cli, parent, error):
    # Only train's run directory and ablate's --save-models are made for the
    # command; a single-file output needs its directory to exist.
    (tmp_path / "afile").write_text("x")
    out = tmp_path / parent / "d.bntd"
    code, _, err = run_cli(["generate", "--nodes", "8", "--modules", "2", "--subjects-per-class", "4",
                            "--out", str(out)])
    assert (code, err) == (2, f"data error: {error}: '{out}'\n")
    assert _tree(tmp_path) == {"afile": b"x"}


def test_ctrl_c_while_outputs_move_waits_until_all_are_in_place(tmp_path, run_cli, monkeypatch):
    real, calls = os.replace, []

    def interrupted_second(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            signal.raise_signal(signal.SIGINT)
        real(src, dst)

    monkeypatch.setattr(os, "replace", interrupted_second)
    code, out, err = run_cli(["verify-theory", "--mode", "vif", "--out", str(tmp_path / "t")])
    assert (code, out, err) == (130, "", "interrupted\n")
    assert sorted(_tree(tmp_path)) == ["t.csv", "t.manifest", "t.txt"]


def test_a_forced_rerun_replaces_each_output_instead_of_writing_into_it(tmp_path, run_cli):
    argv = ["generate", "--nodes", "8", "--modules", "2", "--subjects-per-class", "4",
            "--out", str(tmp_path / "d.bntd")]
    assert run_cli(argv)[0] == 0
    old = (tmp_path / "d.bntd").read_bytes()
    os.link(tmp_path / "d.bntd", tmp_path / "kept.bntd")
    assert run_cli([*argv, "--seed", "9", "--force"])[0] == 0
    assert (tmp_path / "kept.bntd").read_bytes() == old != (tmp_path / "d.bntd").read_bytes()


# ---------------------------------------------------------------------------
# process-level entry


REPO_ROOT = Path(__file__).resolve().parent.parent


def test_ctrl_c_on_a_pooled_command_is_one_line_and_exit_130(tiny_workspace, tmp_path):
    children = Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children")
    if not children.exists():
        pytest.skip("needs /proc/PID/task/PID/children to see the workers start")
    argv = ["ablate", "--dataset", tiny_workspace["dataset"], "--split", tiny_workspace["split"],
            "--seeds", "0,1", "--epochs", "1000000", "--jobs", "2", "--save-models", str(tmp_path / "models"),
            "--out", str(tmp_path / "a.csv")]
    proc = subprocess.Popen([sys.executable, "-m", "bnt.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True,
                            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")))
    try:
        workers = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        started = time.monotonic()
        while len(workers.read_text().split()) < 2:  # both runs training in workers
            assert proc.poll() is None and time.monotonic() - started < 60, "no worker started"
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGINT)  # as Ctrl-C reaches a terminal's foreground group
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, err) == (130, "interrupted\n")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # no worker outlived the command
    assert list(tmp_path.iterdir()) == []  # no output, staged temp file or models directory


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
