"""Check that the working tree's CLI outputs are byte-identical to REV's.

    python3 tools/same_bytes.py REV        # e.g. HEAD, HEAD~1, a commit id

Extracts REV's ``src`` into a temporary directory (``git archive``), runs
the same chain of ``bnt`` commands with each side's ``src`` (BLAS pinned to
one thread), saves each side's ``bnt COMMAND --help`` text of all seven
commands as ``help_COMMAND.txt`` (at 80 columns), and prints one line per
output file:

    SAME|DIFF <sha256 at REV> <sha256 here> <path> [max |a - b| for a CSV]

Manifests are compared too, with only their ``duration_seconds`` value
masked: the chain runs in its own directory with relative paths, so every
other line, key order included, must match.  The chain is the
criterion-10 chain (generate with every generator flag off its default,
split, 2-epoch train, eval), an eval of that run without ``--report`` and
``--run-id`` (the run id from the checkpoint stem, an empty seed column,
and a manifest without the options left unset), a ``split
--no-stratify``, ``--centers learnable``, ``--centers random
--weight-decay 0`` (random-unit centers, Adam without decay), ``--readout
mean``, ``--readout sum``, ``--readout concat`` (so every readout code of the
checkpoint header), ``--features profile_identity`` and
``--features profile_eigen`` trains with their evals, a ``train
--config`` run and its eval (a fixed ``train.cfg`` written into the chain
directory sets every ModelConfig and TrainConfig option but ``readout``
and ``k_eigen`` off its default, ``centers = random`` by its alias, so the
int, float, list and enum parsers also read config values), a ``--head-dim
4`` train and its eval (M·head_dim = 16 > V = 12, where every other run has
M·head_dim ≤ V: the backward writes each layer's gradients over its forward
buffers, which then hold max(V, M·head_dim) columns), an ``eval
--aggregate`` of two of those eval CSVs (its mean and std rows), a 3-layer
train and eval with batches of 24 over a 42-graph train split (so a middle layer and
a partial batch), a 3-readout x 2-center x 2-seed ``ablate
--save-models``, ``export-assignments`` of the clustering-readout runs,
``verify-theory --mode all --samples 200000`` (four Monte Carlo blocks,
pooled where more than one CPU is usable), two ``verify-theory --mode mc``
runs whose rows are all shorter than 8 (``--nodes 5 --clusters 3``) and all
longer (``--nodes 12 --clusters 9``), so both sides of the short-row fold
(``linalg.sum_lastaxis``), a V=7, 3-site
``generate`` and its ``split --no-stratify`` (an odd-V record layout), one
V=32 round (40 subjects per class, split, 2-epoch train, eval, export) and
one V=200 round (3-epoch train, eval, export) at the cohort-cc200 benchmark's
sizes.  A scoring chunk is one attention block: at V = 7, 12 and 200 a chunk
of several graphs gives the bits of one-graph chunks, so only the V=32 round,
whose 48-graph test split scores in 8-graph chunks, shows a change in the
rounding of chunk-sized GEMMs.
``train``, ``eval``, ``export-assignments``, ``ablate`` and ``verify-theory``
run with their default ``--jobs``, so where more than one CPU is usable the
V=200 train runs its steps in two lanes (threads) and every scoring pass of
more than one chunk scores in two lanes.  With fewer than two usable CPUs
neither happens, so SAME says nothing about them; a ``note:`` line says so.
Exits 1 on any DIFF or on a command that fails on either side, and removes
its temporary directory in any case.
"""

from __future__ import annotations

import csv
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAUNCH = "import sys; from bnt.cli import main; sys.exit(main())"
COMMANDS = ("generate", "split", "train", "eval", "verify-theory", "export-assignments", "ablate")


# train.cfg of the ``train --config`` run (see above)
CONFIG = ("layers = 1\nheads = 2\nhead_dim = 5\nmlp_hidden = 16,8\nclusters = 3\ncenters = random\n"
          "features = profile_identity\nlr = 0.002\nweight_decay = 0.0005\nbatch_size = 5\nepochs = 3\n"
          "seed = 7\n")


def chain() -> list[list[str]]:
    """The commands, run in order in one output directory."""
    def evaluate(run, data, split):
        return [["eval", "--checkpoint", f"{run}/checkpoint.bnt", "--dataset", data, "--split", split,
                 "--report", f"{run}/report.txt", "--out", f"eval_{run}.csv"]]

    def train(run, data, split, *extra):
        return [["train", "--dataset", data, "--split", split, "--seed", "0", "--out", run, *extra],
                *evaluate(run, data, split)]

    def export(run, data, split):
        return [["export-assignments", "--checkpoint", f"{run}/checkpoint.bnt", "--dataset", data,
                 "--split", split, "--out", f"assign_{run}.csv"]]

    small = ("data.bntd", "split.txt")
    mid = ("mid.bntd", "mid_split.txt")
    v32 = ("v32.bntd", "v32_split.txt")
    cc200 = ("cc200.bntd", "cc200_split.txt")
    return [
        ["generate", "--nodes", "12", "--modules", "3", "--subjects-per-class", "10", "--sites", "2",
         "--within", "0.8", "--between0", "0.15", "--between1", "0.35", "--site-noise", "0.2",
         "--series-length", "48", "--seed", "11", "--out", small[0]],
        ["split", "--dataset", small[0], "--fractions", "0.6,0.2,0.2", "--seed", "2", "--out", small[1]],
        ["split", "--dataset", small[0], "--no-stratify", "--fractions", "0.6,0.2,0.2", "--seed", "3",
         "--out", "random_split.txt"],
        *train("run", *small, "--epochs", "2"),
        ["eval", "--checkpoint", "run/checkpoint.bnt", "--dataset", small[0], "--split", small[1],
         "--out", "eval_bare.csv"],
        *train("learnable", *small, "--epochs", "2", "--centers", "learnable"),
        *train("random", *small, "--epochs", "2", "--centers", "random", "--weight-decay", "0"),
        *train("mean", *small, "--epochs", "2", "--readout", "mean"),
        *train("sum", *small, "--epochs", "2", "--readout", "sum"),
        *train("concat", *small, "--epochs", "2", "--readout", "concat"),
        *train("identity", *small, "--epochs", "2", "--features", "profile_identity"),
        *train("eigen", *small, "--epochs", "2", "--features", "profile_eigen", "--k-eigen", "4"),
        ["train", "--config", "train.cfg", "--dataset", small[0], "--split", small[1], "--out", "config"],
        *evaluate("config", *small),
        *train("wide", *small, "--epochs", "2", "--head-dim", "4"),
        ["eval", "--aggregate", "eval_run.csv", "eval_learnable.csv", "--out", "aggregate.csv"],
        ["generate", "--nodes", "12", "--modules", "3", "--subjects-per-class", "35", "--sites", "2",
         "--series-length", "48", "--seed", "12", "--out", mid[0]],
        ["split", "--dataset", mid[0], "--fractions", "0.6,0.2,0.2", "--seed", "2", "--out", mid[1]],
        *train("deep", *mid, "--epochs", "2", "--layers", "3", "--batch-size", "24"),
        ["ablate", "--dataset", small[0], "--split", small[1], "--readouts", "ocread,mean,max",
         "--centers", "orthonormal,learnable", "--clusters", "3", "--seeds", "0,1", "--epochs", "2",
         "--save-models", "models", "--out", "ablate.csv"],
        *export("run", *small),
        *export("learnable", *small),
        ["verify-theory", "--mode", "all", "--samples", "200000", "--out", "theory"],
        ["verify-theory", "--mode", "mc", "--samples", "200000", "--nodes", "5", "--clusters", "3",
         "--out", "theory_short"],
        ["verify-theory", "--mode", "mc", "--samples", "200000", "--nodes", "12", "--clusters", "9",
         "--out", "theory_long"],
        ["generate", "--nodes", "7", "--modules", "3", "--subjects-per-class", "10", "--sites", "3",
         "--series-length", "32", "--seed", "13", "--out", "odd.bntd"],
        ["split", "--dataset", "odd.bntd", "--no-stratify", "--fractions", "0.6,0.2,0.2", "--seed", "5",
         "--out", "odd_split.txt"],
        ["generate", "--nodes", "32", "--subjects-per-class", "40", "--seed", "14", "--out", v32[0]],
        ["split", "--dataset", v32[0], "--fractions", "0.3,0.1,0.6", "--seed", "6", "--out", v32[1]],
        *train("v32", *v32, "--epochs", "2"),
        *export("v32", *v32),
        ["generate", "--nodes", "200", "--modules", "8", "--subjects-per-class", "100", "--sites", "4",
         "--seed", "3", "--out", cc200[0]],
        ["split", "--dataset", cc200[0], "--fractions", "0.3,0.1,0.6", "--seed", "4", "--out", cc200[1]],
        *train("cc200", *cc200, "--epochs", "3"),
        *export("cc200", *cc200),
    ]


def run_chain(src: str, out: str) -> bool:
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               OMP_NUM_THREADS="1", COLUMNS="80")
    env.pop("BNT_SEED", None)
    os.makedirs(out)
    with open(os.path.join(out, "train.cfg"), "w", encoding="utf-8") as f:
        f.write(CONFIG)
    for argv in chain() + [[command, "--help"] for command in COMMANDS]:
        proc = subprocess.run([sys.executable, "-c", LAUNCH, *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"FAIL {src}: bnt {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
            return False
        if argv[-1] == "--help":
            with open(os.path.join(out, f"help_{argv[0]}.txt"), "w", encoding="utf-8") as f:
                f.write(proc.stdout)
    return True


def outputs(root: str) -> list[str]:
    found = []
    for directory, _, files in os.walk(root):
        for name in files:
            found.append(os.path.relpath(os.path.join(directory, name), root))
    return sorted(found)


def sha256(path: str) -> str:
    """The hash of a file's bytes; of a manifest's with its duration masked."""
    with open(path, "rb") as f:
        data = f.read()
    if path.endswith(".manifest") or os.path.basename(path) == "manifest.txt":
        data = re.sub(rb"(?m)^duration_seconds = .*$", b"duration_seconds = *", data)
    return hashlib.sha256(data).hexdigest()


def csv_max_diff(path_a: str, path_b: str) -> float:
    """Largest absolute difference between numeric cells at the same place;
    inf when the tables differ in shape or in a non-numeric cell."""
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return float("inf")
    worst = 0.0
    for cell_a, cell_b in zip(sum(rows_a, []), sum(rows_b, [])):
        try:
            worst = max(worst, abs(float(cell_a) - float(cell_b)))
        except ValueError:
            if cell_a != cell_b:
                return float("inf")
    return worst


def compare(dir_a: str, dir_b: str) -> bool:
    same = True
    for path in sorted(set(outputs(dir_a)) | set(outputs(dir_b))):
        a, b = os.path.join(dir_a, path), os.path.join(dir_b, path)
        sha_a = sha256(a)[:16] if os.path.exists(a) else "missing"
        sha_b = sha256(b)[:16] if os.path.exists(b) else "missing"
        line = f"{'SAME' if sha_a == sha_b else 'DIFF'} {sha_a} {sha_b} {path}"
        if sha_a != sha_b:
            same = False
            if path.endswith(".csv") and "missing" not in (sha_a, sha_b):
                line += f" max_abs_diff={csv_max_diff(a, b)!r}"
        print(line, flush=True)
    return same


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/same_bytes.py REV", file=sys.stderr)
        return 2
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if cpus < 2:
        print("note: fewer than 2 usable CPUs, so no V=200 train step or scoring pass runs in lanes;"
              " SAME does not cover them")
    scratch = tempfile.mkdtemp(prefix="same_bytes_")
    tree = os.path.join(scratch, "rev")
    try:
        os.makedirs(tree)
        archive = subprocess.run(["git", "-C", ROOT, "archive", argv[0], "src"], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        ok = (run_chain(os.path.join(tree, "src"), os.path.join(scratch, "a"))
              and run_chain(os.path.join(ROOT, "src"), os.path.join(scratch, "b")))
        return 0 if ok and compare(os.path.join(scratch, "a"), os.path.join(scratch, "b")) else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
