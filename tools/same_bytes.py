"""Check that the working tree's CLI outputs are byte-identical to REV's.

    python3 tools/same_bytes.py REV        # e.g. HEAD, HEAD~1, a commit id

Checks out REV in a temporary ``git worktree``, runs the same chain of
``bnt`` commands with each side's ``src`` (BLAS pinned to one thread), and
prints one line per output file:

    SAME|DIFF <sha256 at REV> <sha256 here> <path> [max |a - b| for a CSV]

Manifests are skipped: they hold durations and paths.  The chain is the
criterion-10 chain (generate, split, 2-epoch train, eval), ``--centers
learnable``, ``--centers random --weight-decay 0`` (random-unit centers,
Adam without decay), ``--readout mean``, ``--features profile_identity`` and
``--features profile_eigen`` trains with their evals, a 3-layer train and
eval with batches of 24 over a 42-graph train split (so a middle layer and
a partial batch), a 3-readout x 2-center x 2-seed ``ablate
--save-models``, ``export-assignments`` of the clustering-readout runs,
``verify-theory --mode all --samples 200000`` (four Monte Carlo blocks per
estimate, pooled where more than one CPU is usable), and one V=200 round
(3-epoch train, eval, export) at the cohort-cc200 benchmark's sizes.  The
``ablate`` and ``verify-theory`` steps run with their default ``--jobs``.
Exits 1 on any DIFF or on a command that fails on either side, and removes
the worktree in any case.
"""

from __future__ import annotations

import csv
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAUNCH = "import sys; from bnt.cli import main; sys.exit(main())"


def chain() -> list[list[str]]:
    """The commands, run in order in one output directory."""
    def train(run, data, split, *extra):
        return [["train", "--dataset", data, "--split", split, "--seed", "0", "--out", run, *extra],
                ["eval", "--checkpoint", f"{run}/checkpoint.bnt", "--dataset", data, "--split", split,
                 "--report", f"{run}/report.txt", "--out", f"eval_{run}.csv"]]

    def export(run, data, split):
        return [["export-assignments", "--checkpoint", f"{run}/checkpoint.bnt", "--dataset", data,
                 "--split", split, "--out", f"assign_{run}.csv"]]

    small = ("data.bntd", "split.txt")
    mid = ("mid.bntd", "mid_split.txt")
    cc200 = ("cc200.bntd", "cc200_split.txt")
    return [
        ["generate", "--nodes", "12", "--modules", "3", "--subjects-per-class", "10", "--sites", "2",
         "--series-length", "48", "--seed", "11", "--out", small[0]],
        ["split", "--dataset", small[0], "--fractions", "0.6,0.2,0.2", "--seed", "2", "--out", small[1]],
        *train("run", *small, "--epochs", "2"),
        *train("learnable", *small, "--epochs", "2", "--centers", "learnable"),
        *train("random", *small, "--epochs", "2", "--centers", "random", "--weight-decay", "0"),
        *train("mean", *small, "--epochs", "2", "--readout", "mean"),
        *train("identity", *small, "--epochs", "2", "--features", "profile_identity"),
        *train("eigen", *small, "--epochs", "2", "--features", "profile_eigen", "--k-eigen", "4"),
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
        ["generate", "--nodes", "200", "--modules", "8", "--subjects-per-class", "100", "--sites", "4",
         "--seed", "3", "--out", cc200[0]],
        ["split", "--dataset", cc200[0], "--fractions", "0.3,0.1,0.6", "--seed", "4", "--out", cc200[1]],
        *train("cc200", *cc200, "--epochs", "3"),
        *export("cc200", *cc200),
    ]


def run_chain(src: str, out: str) -> bool:
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    env.pop("BNT_SEED", None)
    os.makedirs(out)
    for argv in chain():
        proc = subprocess.run([sys.executable, "-c", LAUNCH, *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"FAIL {src}: bnt {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
            return False
    return True


def outputs(root: str) -> list[str]:
    found = []
    for directory, _, files in os.walk(root):
        for name in files:
            if not (name.endswith(".manifest") or name == "manifest.txt"):
                found.append(os.path.relpath(os.path.join(directory, name), root))
    return sorted(found)


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


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
    scratch = tempfile.mkdtemp(prefix="same_bytes_")
    tree = os.path.join(scratch, "rev")
    try:
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet", tree, argv[0]],
                       check=True)
        ok = (run_chain(os.path.join(tree, "src"), os.path.join(scratch, "a"))
              and run_chain(os.path.join(ROOT, "src"), os.path.join(scratch, "b")))
        return 0 if ok and compare(os.path.join(scratch, "a"), os.path.join(scratch, "b")) else 1
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", tree], capture_output=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"], capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
