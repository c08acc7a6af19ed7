"""Benchmark of the bnt CLI: one workload per run, closed loop.

    python3 benchmarks/run.py --workload sweep-v32 --seed 1 --seconds 50 --trace 0

Untraced (``--trace 0``): set-up (``generate`` + ``split``) runs three times
as child processes and its median wall is ``setup_s``; then whole rounds of
the workload's commands run one child at a time while another round still
fits in ``--seconds``, each round followed by checks of its outputs.  A rate
is the work of its commands over their wall time, summed over the run;
``peak_rss_mib`` is the largest peak RSS of any timed child.

Traced (``--trace 1``): the same set-up and round run in this process
through ``bnt.cli.main`` in pairs of passes, one untraced and one with
every listed module function wrapped in spans, and the per-layer metrics
come from the spans.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results, the environment
and the spans go to ``benchmarks/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS before NumPy loads here or in any child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("BNT_SEED", None)

import argparse
import contextlib
import json
import platform
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
from reference import read_key_values, read_split
from tracer import Tracer, gflop_per_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
LAUNCH = "import sys; from bnt.cli import main; sys.exit(main())"  # the console-script entry
SETUP_REPEATS = 3
RATES = ("train_graphs_per_s", "score_graphs_per_s", "mc_samples_per_s")
COMMAND_TIMEOUT_S = 150


@dataclass
class Command:
    argv: list[str]
    rate: str | None = None  # the one of RATES it counts in; None for set-up
    work: int = 0  # graphs trained, graphs scored or samples drawn


@dataclass
class Inputs:
    """A dataset file and its split plan."""

    data: str
    split: str

    def sizes(self) -> dict[str, int]:
        return {k: len(v) for k, v in read_split(self.split).items()}


class Work:
    """Paths and seed of one run of one workload."""

    def __init__(self, directory: str, seed: int):
        self.dir, self.seed = directory, seed
        self.main = Inputs(self.path("data.bntd"), self.path("split.txt"))
        self.eigen = Inputs(self.path("eigen.bntd"), self.path("eigen_split.txt"))
        self.ablate = self.path("ablate.csv")
        self.models = self.path("models")
        self.theory = self.path("theory")  # prefix of .csv/.txt/.manifest

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)


def generate(w: Work, inputs: Inputs, nodes, modules, per_class, fractions, sites=4) -> list[Command]:
    return [
        Command(["generate", "--nodes", str(nodes), "--modules", str(modules),
                 "--subjects-per-class", str(per_class), "--sites", str(sites),
                 "--seed", str(w.seed), "--out", inputs.data, "--force"]),
        Command(["split", "--dataset", inputs.data, "--fractions", fractions,
                 "--seed", str(w.seed + 1), "--out", inputs.split, "--force"]),
    ]


def theory(w: Work, samples: int) -> Command:
    return Command(["verify-theory", "--mode", "all", "--samples", str(samples),
                    "--seed", str(w.seed), "--out", w.theory, "--force"], "mc_samples_per_s", 2 * samples)


def train(w: Work, inputs: Inputs, run: str, epochs: int, *extra: str, rate="train_graphs_per_s") -> Command:
    return Command(["train", "--dataset", inputs.data, "--split", inputs.split, *extra,
                    "--epochs", str(epochs), "--seed", str(w.seed), "--out", w.path(run), "--force"],
                   rate, epochs * inputs.sizes()["train"])


def scoring(w: Work, inputs: Inputs, checkpoint, name, report=None, rate="score_graphs_per_s") -> list[Command]:
    """eval and export-assignments of one checkpoint on the test split,
    counted in rate (None: in no rate)."""
    n_test = inputs.sizes()["test"]
    common = ["--checkpoint", checkpoint, "--dataset", inputs.data, "--split", inputs.split, "--force"]
    extra = ["--report", report] if report else ["--run-id", name]
    return [Command(["eval", *common, *extra, "--out", w.path(f"eval_{name}.csv")], rate, n_test),
            Command(["export-assignments", *common, "--out", w.path(f"assign_{name}.csv")], rate, n_test)]


def scoring_run(w: Work, inputs: Inputs, run: str, rate="score_graphs_per_s") -> list[Command]:
    return scoring(w, inputs, w.path(f"{run}/checkpoint.bnt"), run, w.path(f"{run}/report.txt"), rate=rate)


def theory_checks(w: Work):
    return [(f"theory.{fn.__name__}", fn, (w.theory + ".csv",))
            for fn in (checks.check_theory_ladder, checks.check_theory_separation, checks.check_theory_vif)]


def trained_run_checks(w: Work, inputs: Inputs, run: str, ref):
    """Checks of a `train` run directory and its eval/export outputs; the
    reference comparisons need ref (profile features only)."""
    ckpt, report = w.path(f"{run}/checkpoint.bnt"), w.path(f"{run}/report.txt")
    eval_csv, assign_csv = w.path(f"eval_{run}.csv"), w.path(f"assign_{run}.csv")
    out = [(f"{run}.eval_equals_report", lambda: checks.check_eval_equals(
        eval_csv, float(read_key_values(report)["test.auroc"])), ())]
    if ref is not None:
        out.append((f"{run}.eval_reference", checks.check_eval_against_reference,
                    (ref, eval_csv, ckpt, inputs.data, inputs.split)))
    out.append((f"{run}.assignments", checks.check_assignments, (ref, assign_csv, ckpt, inputs.data, inputs.split)))
    return out


# --- sweep-v32: the paper's seeded sweep at V=32, plus the numeric kernels ----
# outside the attention stack (Monte Carlo theory check, Jacobi eigenvector
# features); no other workload runs the Jacobi solver.

SWEEP_EPOCHS = 5
SWEEP_CENTERS = ("orthonormal", "random_unit")
EIGEN_K = 4
EIGEN_EPOCHS = 1
SWEEP_MC_SAMPLES = 1_000_000  # per verify-theory estimate


def sweep_model(w: Work, centers, seed):
    return os.path.join(w.models, f"ocread_{centers}_k4_seed{seed}.bnt")


def sweep_setup(w: Work) -> list[Command]:
    return (generate(w, w.main, 32, 4, 200, "0.7,0.1,0.2")
            + generate(w, w.eigen, 32, 4, 8, "0.5,0.25,0.25", sites=2))


def sweep_round(w: Work) -> list[Command]:
    seeds = (w.seed, w.seed + 1)
    main = w.main
    cmds = [Command(["ablate", "--dataset", main.data, "--split", main.split, "--readouts", "ocread",
                     "--centers", ",".join(SWEEP_CENTERS), "--clusters", "4",
                     "--seeds", ",".join(map(str, seeds)), "--epochs", str(SWEEP_EPOCHS),
                     "--save-models", w.models, "--out", w.ablate, "--force"],
                    "train_graphs_per_s", len(SWEEP_CENTERS) * len(seeds) * SWEEP_EPOCHS * main.sizes()["train"])]
    for centers in SWEEP_CENTERS:
        for seed in seeds:
            cmds += scoring(w, main, sweep_model(w, centers, seed), f"{centers}_{seed}")
    cmds.append(theory(w, SWEEP_MC_SAMPLES))
    return cmds + eigen_commands(w)


def eigen_commands(w: Work) -> list[Command]:
    """train, eval and export of a profile_eigen model.  The pure-Python
    Jacobi solver takes most of their time, so they count in no rate, which
    would otherwise time the solver more than the sweep; the solver is
    measured per layer in traced runs."""
    return [train(w, w.eigen, "eigen", EIGEN_EPOCHS, "--features", "profile_eigen", "--k-eigen", str(EIGEN_K),
                  rate=None),
            *scoring_run(w, w.eigen, "eigen", rate=None)]


def sweep_checks(w: Work):
    ref, main = checks.Expected(), w.main
    out = []
    for centers in SWEEP_CENTERS:
        for seed in (w.seed, w.seed + 1):
            run, model = f"{centers}_{seed}", sweep_model(w, centers, seed)
            out += [(f"sweep.checkpoint_auroc.{run}", checks.check_checkpoint_auroc,
                     (ref, w.ablate, ("ocread", centers, 4, seed), model, main.data, main.split)),
                    (f"sweep.eval.{run}", checks.check_eval_against_reference,
                     (ref, w.path(f"eval_{run}.csv"), model, main.data, main.split)),
                    (f"sweep.assignments.{run}", checks.check_assignments,
                     (ref, w.path(f"assign_{run}.csv"), model, main.data, main.split))]
    out.append(("sweep.summary_rows", checks.check_ablate_summary, (w.ablate,)))
    out.append(("sweep.min_auroc", checks.check_sweep_quality, (w.ablate,)))
    out.append(("eigen.features", checks.check_eigen_run,
                (w.path("eigen/checkpoint.bnt"), w.path("eigen/report.txt"), EIGEN_K, EIGEN_EPOCHS)))
    return out + trained_run_checks(w, w.eigen, "eigen", None) + theory_checks(w)


# --- cohort-cc200: the CC200 atlas size, training then forward-only scoring ---

COHORT_EPOCHS = 3
COHORT_MC_SAMPLES = 2_000_000  # two rounds fit the run, so each draws more


def cohort_round(w: Work) -> list[Command]:
    return [train(w, w.main, "run", COHORT_EPOCHS), *scoring_run(w, w.main, "run"), theory(w, COHORT_MC_SAMPLES)]


def cohort_checks(w: Work):
    return trained_run_checks(w, w.main, "run", checks.Expected()) + theory_checks(w)


@dataclass
class Workload:
    setup: Callable[[Work], list[Command]]
    round: Callable[[Work], list[Command]]  # the timed commands of one round
    checks: Callable[[Work], list[tuple]]  # (name, function, args) checks of one round's outputs


WORKLOADS = {
    "sweep-v32": Workload(sweep_setup, sweep_round, sweep_checks),
    "cohort-cc200": Workload(lambda w: generate(w, w.main, 200, 8, 100, "0.3,0.1,0.6"), cohort_round, cohort_checks),
}


# --- running commands ----------------------------------------------------------


class SetupFailed(Exception):
    """A set-up command exited non-zero; the run measures nothing."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    log: list = field(default_factory=list)

    def record(self, kind: str, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += not ok
        self.log.append(dict(kind=kind, name=name, ok=ok, detail=detail))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: Command, env, log_path) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS MiB) of one bnt command."""
    with open(log_path, "ab") as log:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCH, *cmd.argv], stdout=log,
                                stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def _kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def run_inprocess(cmd: Command, log_path, tracer: Tracer | None = None) -> tuple[int, float]:
    import bnt.cli

    with open(log_path, "a", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        started = time.perf_counter()
        try:
            rc = tracer.call_root(bnt.cli.main, cmd.argv) if tracer else bnt.cli.main(cmd.argv)
        except Exception as exc:  # a traceback is a failed command, not a benchmark crash
            print(f"uncaught {type(exc).__name__}: {exc}", file=log)
            rc = -1
        return rc, time.perf_counter() - started


def run_checks(tally: Tally, check_list) -> None:
    for name, fn, args in check_list:
        try:
            fn(*args)
            tally.record("check", name, True)
        except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError, struct.error) as exc:
            tally.record("check", name, False, f"{type(exc).__name__}: {exc}")


def run_commands(tally, cmds, runner) -> list[dict]:
    """Run cmds in order; returns one record per command."""
    records = []
    for cmd in cmds:
        rc, wall, *rss = runner(cmd)
        rec = dict(argv=cmd.argv[0], rate=cmd.rate, work=cmd.work, wall_s=wall, rc=rc)
        if rss:
            rec["peak_rss_mib"] = rss[0]
        records.append(rec)
        tally.record("command", cmd.argv[0], rc == 0, "" if rc == 0 else f"exit {rc}")
    return records


def whole_rounds(seconds: float):
    """Yield once per round: at least once, then while one more round as
    long as the longest so far still ends within seconds."""
    started = time.perf_counter()
    longest = 0.0
    while True:
        round_started = time.perf_counter()
        yield
        now = time.perf_counter()
        longest = max(longest, now - round_started)
        if now - started + longest > seconds:
            return


def run_rates(records) -> dict[str, float]:
    """Each rate's work over the wall time of its commands, over the run."""
    rates = {}
    for name in RATES:
        mine = [r for r in records if r["rate"] == name and r["rc"] == 0]
        wall = sum(r["wall_s"] for r in mine)
        rates[name] = sum(r["work"] for r in mine) / wall if wall > 0 else 0.0
    return rates


def measure_untraced(workload: Workload, w: Work, seconds: float, tally: Tally, log_path):
    env = child_env()

    def runner(cmd):
        return run_child(cmd, env, log_path)

    setup_walls = []
    for _ in range(SETUP_REPEATS):
        records = run_commands(tally, workload.setup(w), runner)
        if any(r["rc"] != 0 for r in records):
            raise SetupFailed
        setup_walls.append(sum(r["wall_s"] for r in records))

    rounds = []
    for _ in whole_rounds(seconds):
        rounds.append(run_commands(tally, workload.round(w), runner))
        run_checks(tally, workload.checks(w))

    metrics = {
        "setup_s": statistics.median(setup_walls),
        **run_rates([r for records in rounds for r in records]),
        "peak_rss_mib": max(r.get("peak_rss_mib", 0.0) for records in rounds for r in records),
    }
    return metrics, {"setup_walls_s": setup_walls, "rounds": rounds}


def measure_traced(workload: Workload, w: Work, seconds: float, tally: Tally, log_path, spans_path):
    """A warm-up pass, then pairs of in-process passes (set-up plus one
    round), one untraced and one traced, their order alternating."""
    import bnt.cli  # noqa: F401  (every bnt module must be loaded before wrapping)

    def one_pass(tracer: Tracer | None = None) -> float:
        """Wall seconds of the set-up and one round, run in this process."""
        def runner(cmd):
            return run_inprocess(cmd, log_path, tracer)

        setup = run_commands(tally, workload.setup(w), runner)
        if any(r["rc"] != 0 for r in setup):
            raise SetupFailed
        return sum(r["wall_s"] for r in setup + run_commands(tally, workload.round(w), runner))

    def traced_pass(tracer: Tracer) -> None:
        tracer.install()
        try:
            one_pass(tracer)
        finally:
            tracer.restore()

    one_pass()
    summaries, pairs, tracers = [], [], []
    for i, _ in enumerate(whole_rounds(seconds)):
        tracer = Tracer(run_id=f"{os.path.basename(w.dir)}-pass{i}")
        if i % 2:
            traced_pass(tracer)
            untraced_s = one_pass()
        else:
            untraced_s = one_pass()
            traced_pass(tracer)
        run_checks(tally, workload.checks(w) + (
            [("trace.eigendecompositions", checks.check_eigendecompositions, (tracer.eigen_calls,))]
            if tracer.eigen_calls else []))
        traced_ms, untraced_ms = tracer.wall_ms(), untraced_s * 1e3
        summary = tracer.summary()
        summary["model.loss_and_grad.gflop_per_s"] = gflop_per_s(summary)
        summary["trace.wall_ms"] = traced_ms
        summary["trace.untraced_wall_ms"] = untraced_ms
        summary["trace.overhead_ms"] = traced_ms - untraced_ms
        summary["trace.overhead_pct"] = 100.0 * (traced_ms / untraced_ms - 1.0)
        summaries.append(summary)
        pairs.append((untraced_ms, traced_ms))
        tracers.append(tracer)
    with open(spans_path, "w", encoding="utf-8") as f:
        for tracer in tracers:
            f.writelines(tracer.span_lines())
    metrics = {n: statistics.median(s[n] for s in summaries) for n in summaries[0]}
    return metrics, {"pairs_ms": pairs}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy < 1.26 has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bnt", "cli.py")):
        print(f"error: no bnt sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    sys.path.insert(0, SRC)

    seed = args.seed % (1 << 31)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    os.makedirs(OUT, exist_ok=True)
    w = Work(os.path.join(OUT, f"work-{tag}"), seed)
    os.makedirs(w.dir)
    log_path = os.path.join(OUT, f"{tag}.log")
    tally = Tally()
    env = environment()
    workload = WORKLOADS[args.workload]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            values, detail = measure_traced(workload, w, args.seconds, tally, log_path,
                                            os.path.join(OUT, f"{tag}.spans.jsonl"))
        else:
            values, detail = measure_untraced(workload, w, args.seconds, tally, log_path)
    except SetupFailed:  # reported as a failed run: every metric 0, exit 1
        values, detail = {m["name"]: 0.0 for m in wanted}, {"setup_failed": log_path}
    finally:
        shutil.rmtree(w.dir, ignore_errors=True)

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "environment": env, "result": result, "operations": tally.log, **detail}, f, indent=1)
    print("environment " + json.dumps(env))
    for op in tally.log:
        if not op["ok"]:
            print(f"FAILED {op['kind']} {op['name']}: {op['detail']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 1 if "setup_failed" in detail else 0


if __name__ == "__main__":
    sys.exit(main())
