"""Shared fixtures.

The expensive artifacts (full training sweeps) are session-scoped so the
CLI tests and the acceptance suite reuse the same runs instead of
retraining.  BLAS threading is pinned to one thread before numpy loads
anywhere, keeping every floating-point reduction order — and therefore
every byte of every output file — reproducible.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import statistics
import time

import pytest

import bnt.model
import bnt.workers
from bnt.cli import main as cli_main
from bnt.data import GeneratorSpec, generate_dataset, stratified_split
from bnt.model import CentersMode, ModelConfig, Readout
from bnt.rng import Rng
from bnt.training import TrainConfig, train
from bnt.workers import ordered_map, usable_cpus

from _oracles import held


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    # a BNT_SEED exported in the developer's shell must not leak into tests
    monkeypatch.delenv("BNT_SEED", raising=False)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker counts of the pools bnt.workers starts during the test."""
    started, real = [], bnt.workers._fork_pool

    def counted(workers, fn, items):
        started.append(workers)
        return real(workers, fn, items)

    monkeypatch.setattr(bnt.workers, "_fork_pool", counted)
    return started


@pytest.fixture
def lanes_used(monkeypatch):
    """Lanes at every step size, one graph per attention block and scoring
    chunk (so a step's lanes share the blocks and a pass's lanes the chunks),
    and the set of lane counts the steps and scoring passes ran with."""
    monkeypatch.setattr(bnt.model, "_LANES_MIN_FLOPS", 0)
    monkeypatch.setattr(bnt.model, "_ATTN_BLOCK_BYTES", 0)
    used = set()
    real = bnt.model.run_lanes

    def run(tasks, lanes):
        used.add(lanes)
        return real(tasks, lanes)

    monkeypatch.setattr(bnt.model, "run_lanes", run)
    return used


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def invoke(argv):
        code = cli_main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


# ---------------------------------------------------------------------------
# small shared CLI workspace: tiny dataset, split, and one short train run


@pytest.fixture(scope="session")
def tiny_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    paths = {
        "root": root,
        "dataset": str(root / "tiny.bntd"),
        "split": str(root / "split.txt"),
        "run_dir": str(root / "run0"),
    }
    assert (
        cli_main(
            [
                "generate",
                "--nodes", "16",
                "--modules", "4",
                "--subjects-per-class", "12",
                "--sites", "2",
                "--series-length", "64",
                "--seed", "5",
                "--out", paths["dataset"],
            ]
        )
        == 0
    )
    assert (
        cli_main(
            [
                "split",
                "--dataset", paths["dataset"],
                "--fractions", "0.6,0.2,0.2",
                "--seed", "1",
                "--out", paths["split"],
            ]
        )
        == 0
    )
    assert (
        cli_main(
            [
                "train",
                "--dataset", paths["dataset"],
                "--split", paths["split"],
                "--epochs", "3",
                "--seed", "0",
                "--out", paths["run_dir"],
            ]
        )
        == 0
    )
    paths["checkpoint"] = os.path.join(paths["run_dir"], "checkpoint.bnt")
    paths["report"] = os.path.join(paths["run_dir"], "report.txt")
    return paths


# ---------------------------------------------------------------------------
# full-scale training sweeps shared by the CLI and acceptance suites


# De-saturated planted dataset for the center-stability comparison: with
# the default class contrast both center modes hit AUROC ~ 1.0 and their
# seed-to-seed spread is just tie-breaking noise, so the classes are
# brought close enough (0.1 vs 0.18) that training actually varies.
ABLATE_DATASET_FLAGS = ["--between0", "0.1", "--between1", "0.18", "--seed", "500"]
ABLATE_SPLIT_SEED = "78"
ABLATE_SEEDS = "0,1,2,3,4"


@pytest.fixture(scope="session")
def ablate_workspace(tmp_path_factory):
    """Default ablate sweep (ocread x {orthonormal, random_unit} x K=4 x 5 seeds)."""
    root = tmp_path_factory.mktemp("ablate")
    paths = {
        "dataset": str(root / "planted.bntd"),
        "split": str(root / "split.txt"),
        "csv": str(root / "ablate.csv"),
        "models": str(root / "models"),
    }
    started = time.monotonic()
    assert cli_main(["generate", *ABLATE_DATASET_FLAGS, "--out", paths["dataset"]]) == 0
    assert (
        cli_main(
            [
                "split",
                "--dataset", paths["dataset"],
                "--seed", ABLATE_SPLIT_SEED,
                "--out", paths["split"],
            ]
        )
        == 0
    )
    assert (
        cli_main(
            [
                "ablate",
                "--dataset", paths["dataset"],
                "--split", paths["split"],
                "--seeds", ABLATE_SEEDS,
                "--save-models", paths["models"],
                "--out", paths["csv"],
            ]
        )
        == 0
    )
    paths["duration"] = time.monotonic() - started
    return paths


@pytest.fixture(scope="session")
def trend_runs():
    """Planted-vs-null training sweeps: 5 seeds x 3 arms at full scale."""
    started = time.monotonic()
    planted = held(generate_dataset(GeneratorSpec(seed=500)))
    planted_plan = stratified_split(planted, (0.7, 0.1, 0.2), Rng(77))
    null = held(generate_dataset(
        GeneratorSpec(
            between_strength_class0=0.25,
            between_strength_class1=0.25,
            site_noise=0.0,
            seed=900,
        )
    ))
    null_plan = stratified_split(null, (0.7, 0.1, 0.2), Rng(78))

    arms = {
        "planted_ocread": (planted, planted_plan, Readout.OCREAD),
        "planted_mean": (planted, planted_plan, Readout.MEAN),
        "null_ocread": (null, null_plan, Readout.OCREAD),
    }

    def held_out_auroc(run):
        arm, seed = run
        graphs, plan, readout = arms[arm]
        config = ModelConfig(nodes=32, readout=readout, centers_mode=CentersMode.ORTHONORMAL)
        return train(graphs, plan, config, TrainConfig(seed=seed))[1].test.auroc

    # the 15 independent trainings run on every usable core
    runs = [(arm, seed) for arm in arms for seed in range(5)]
    aurocs = list(ordered_map(held_out_auroc, runs, usable_cpus()))
    result = {arm: aurocs[5 * i : 5 * i + 5] for i, arm in enumerate(arms)}
    result["duration"] = time.monotonic() - started
    result["medians"] = {k: statistics.median(v) for k, v in result.items() if k != "duration"}
    return result
