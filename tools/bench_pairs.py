"""Run the benchmark on REV and on the working tree in alternating pairs.

    python3 tools/bench_pairs.py REV PR [--pairs N]

Copies REV's tree (``git archive``, as ``tools/same_bytes.py`` does) and the
working tree's ``src``, ``benchmarks`` and ``BENCHMARK.json`` into two
temporary directories, so each side builds from its own sources and neither
writes into the repository.  For each workload of ``BENCHMARK.json`` it
runs N pairs of ``benchmarks/run.py --workload W --seed K --seconds S
--trace 0``, S being ``BENCHMARK.json``'s ``run_seconds`` (pair K gives
both sides seed K), REV first in even pairs and the working tree first in
odd ones, one run at a time.

It writes ``BENCH_<PR>.json`` at the repository root:

- ``environment``: the benchmark's own environment block (Python, NumPy,
  BLAS and its thread variables, CPUs), the two revisions, N and S;
- per workload and end-to-end metric of ``BENCHMARK.json``: each side's
  runs, median and quartiles, the change's wins out of N (ties count for
  neither side), and a verdict against the metric's bound;
- per workload: each side's operations attempted and failed.

A verdict is ``regressed`` when the change's median is worse than REV's by
more than the bound; else ``gain`` when the change wins at least nine pairs
in ten and the medians differ by more than REV's interquartile range; else
``unresolved`` when either side's interquartile range is wider than the
bound (relative to REV's median) and not every change run beats every REV
run; else ``within bound``.  Uses only the standard library and needs no
network.  Exits 1 if a run fails to print its result, or if a verdict is
``regressed``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def extract(rev: str, tree: str) -> None:
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src", "benchmarks", "BENCHMARK.json"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)


def copy_working_tree(tree: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "benchmarks"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(tree, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict | None]:
    """(the run's result object, its environment block) from the last and the
    ``environment`` lines of ``benchmarks/run.py``'s standard output."""
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment ")), None)
    try:
        return json.loads(lines[-1]), env
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{workload} seed {seed} in {tree} printed no result (exit {proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}") from None


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"runs": values, "median": q2, "q1": q1, "q3": q3}


def verdict(metric: dict, parent: list[float], change: list[float]) -> dict:
    higher = metric["better"] == "higher"
    p, c = spread(parent), spread(change)

    def better(a, b):
        return a > b if higher else a < b

    wins = sum(better(b, a) for a, b in zip(parent, change))
    base = abs(p["median"]) or 1.0
    worse_by = (p["median"] - c["median"] if higher else c["median"] - p["median"]) / base
    widest = max(p["q3"] - p["q1"], c["q3"] - c["q1"]) / base
    if worse_by > metric["bound"]:
        text = "regressed"
    elif wins >= 0.9 * len(parent) and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]:
        text = "gain"
    elif widest > metric["bound"] and not all(better(b, a) for a in parent for b in change):
        text = "unresolved"
    else:
        text = "within bound"
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": p, "change": c, "change_wins": wins, "pairs": len(parent),
            "change_vs_parent": c["median"] / p["median"] if p["median"] else None, "verdict": text}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="the parent revision, e.g. HEAD")
    parser.add_argument("pr", help="the name in BENCH_<PR>.json")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads, seconds = [w["name"] for w in spec["workloads"]], spec["run_seconds"]
    head = subprocess.run(["git", "-C", ROOT, "rev-parse", args.rev, "HEAD"], check=True,
                          capture_output=True, text=True).stdout.split()
    dirty = bool(subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--", "src", "benchmarks"],
                                check=True, capture_output=True, text=True).stdout.strip())

    scratch = tempfile.mkdtemp(prefix="bench_pairs_")
    trees = {side: os.path.join(scratch, side) for side in SIDES}
    try:
        for tree in trees.values():
            os.makedirs(tree)
        extract(args.rev, trees["parent"])
        copy_working_tree(trees["change"])
        runs = {w: {side: [] for side in SIDES} for w in workloads}
        env = None
        for w in workloads:
            for k in range(args.pairs):
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    result, env = run_once(trees[side], w, k, seconds)
                    runs[w][side].append(result)
                    print(f"{w} pair {k} {side}: " + ", ".join(
                        f"{name} {m['value']:.6g}" for name, m in result["metrics"].items()), file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report = {
        "environment": {**(env or {}), "parent": head[0], "change": head[1] + ("+working tree" if dirty else ""),
                        "pairs": args.pairs, "seconds": seconds},
        "workloads": {},
    }
    regressed = False
    for w in workloads:
        sides = runs[w]
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            metrics[name] = verdict(metric, *([r["metrics"][name]["value"] for r in sides[s]] for s in SIDES))
            regressed |= metrics[name]["verdict"] == "regressed"
        report["workloads"][w] = {
            "operations": {s: {"attempted": sum(r["attempted"] for r in sides[s]),
                               "failed": sum(r["failed"] for r in sides[s])} for s in SIDES},
            "metrics": metrics,
        }
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    for w, body in report["workloads"].items():
        for name, m in body["metrics"].items():
            print(f"{w} {name}: parent {m['parent']['median']:.6g} change {m['change']['median']:.6g} "
                  f"wins {m['change_wins']}/{m['pairs']} {m['verdict']}")
    print(f"wrote {path}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
