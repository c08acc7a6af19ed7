"""Output checks for the benchmark's workloads.

Each check reads files the ``bnt`` CLI wrote and raises CheckFailed when
they are wrong.  Expected values come from :mod:`reference` (independent
readers, a per-head NumPy forward pass, pair-counting AUROC) or from
properties the outputs must have; no check compares against a stored copy
of earlier output.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from reference import (
    pair_auroc,
    read_bnt,
    read_bntd,
    read_csv_rows,
    read_key_values,
    read_split,
    reference_forward,
    proba,
)

# The program and the reference differ by rounding (about 1e-15); scores
# closer than this may order either way, so pairs and thresholds within it
# are allowed to disagree.
SCORE_TOL = 1e-9
ASSIGNMENT_TOL = 1e-9
MIN_SWEEP_AUROC = 0.9
# verify-theory's correlated design has RHO_SAMPLES rows.  The sample VIF
# 1/(1 - r^2) has relative standard error about 2*rho/sqrt(n) (1.8% here),
# so it is held to VIF_SIGMAS of those, not to a fixed 2%.
RHO, RHO_SAMPLES, VIF_SIGMAS = 0.9, 10_000, 5.0
PHI_LADDER = ("phi=0", "phi=pi/8", "phi=pi/4", "phi=3pi/8", "phi=pi/2")


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Expected:
    """Test sets and reference results, computed once and shared by the
    checks of one round."""

    def __init__(self):
        self._memo = {}

    def _get(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def test_set(self, dataset, split):
        """(matrices, labels) of the split's test ids."""
        return self._get(("test", dataset, split),
                         lambda: read_bntd(dataset).select(read_split(split)["test"]))

    def forward(self, checkpoint, dataset, split):
        """(P(class 1), assignments) of every test graph under the reference model."""
        def make():
            ckpt = read_bnt(checkpoint)
            outs = [reference_forward(ckpt, x) for x in self.test_set(dataset, split)[0]]
            return np.array([proba(logits) for logits, _ in outs]), [p for _, p in outs]
        return self._get(("forward", checkpoint, dataset, split), make)


def _compare_auroc(reported: float, scores, labels, what: str) -> None:
    ref, near_ties = pair_auroc(scores, labels, SCORE_TOL)
    slack = near_ties / ((labels == 1).sum() * (labels == 0).sum())
    _require(abs(reported - ref) <= slack + 1e-12,
             f"{what}: AUROC {reported!r}, pair counting on reference scores gives {ref!r}")


def check_eval_against_reference(ref: Expected, eval_csv, checkpoint, dataset, split) -> None:
    """The eval row's AUROC and accuracy equal those of the reference scores."""
    header, rows = read_csv_rows(eval_csv)
    _require(len(rows) == 1, f"{eval_csv}: expected one row, got {len(rows)}")
    row = dict(zip(header, rows[0]))
    _, labels = ref.test_set(dataset, split)
    scores, _ = ref.forward(checkpoint, dataset, split)
    _compare_auroc(float(row["auroc"]), scores, labels, str(eval_csv))
    correct = ((scores >= 0.5) == (labels == 1)).sum()
    near = (np.abs(scores - 0.5) <= SCORE_TOL).sum()
    accuracy = float(row["accuracy"])
    _require(abs(accuracy * len(labels) - correct) <= near + 1e-9,
             f"{eval_csv}: accuracy {accuracy!r}, reference gives {correct / len(labels)!r}")


def check_eval_equals(eval_csv, auroc: float) -> None:
    """The eval row's AUROC is exactly the one the training run reported."""
    header, rows = read_csv_rows(eval_csv)
    row = dict(zip(header, rows[0]))
    _require(float(row["auroc"]) == auroc, f"{eval_csv}: AUROC {row['auroc']}, expected {auroc!r}")


def _read_assignments(path, clusters: int, nodes: int):
    header, rows = read_csv_rows(path)
    _require(header == ["kind", "class", "cluster", "node", "value"], f"{path}: header {header}")
    avg = np.full((2, nodes, clusters), np.nan)
    scores = []
    for kind, label, cluster, node, value in rows:
        if kind == "assignment":
            avg[int(label), int(node), int(cluster)] = float(value)
        elif kind == "difference_score":
            scores.append(float(value))
    _require(not np.isnan(avg).any(), f"{path}: assignment rows missing")
    _require(len(rows) == 2 * clusters * nodes + 1 and len(scores) == 1,
             f"{path}: expected {2 * clusters * nodes} assignment rows and one difference_score")
    return avg, scores[0]


def check_assignments(ref: Expected | None, assign_csv, checkpoint, dataset, split) -> None:
    """Class-averaged assignments sum to 1 over clusters, match the reference
    (when given; it covers profile features only) and give the stated
    difference score."""
    ckpt = read_bnt(checkpoint)
    avg, score = _read_assignments(assign_csv, ckpt.clusters, ckpt.nodes)
    worst = np.abs(avg.sum(axis=2) - 1.0).max()
    _require(worst <= ASSIGNMENT_TOL, f"{assign_csv}: a node's assignments sum to 1 +- {worst:.3g}")
    if ref is not None:
        _, labels = ref.test_set(dataset, split)
        expected = np.zeros_like(avg)
        for p, label in zip(ref.forward(checkpoint, dataset, split)[1], labels):
            expected[label] += p
        expected /= np.bincount(labels, minlength=2)[:, None, None]
        diff = np.abs(avg - expected).max()
        _require(diff <= ASSIGNMENT_TOL, f"{assign_csv}: assignments differ from the reference by {diff:.3g}")
    expected = float(np.abs(avg[0] - avg[1]).mean())
    _require(math.isclose(score, expected, rel_tol=1e-12, abs_tol=1e-15),
             f"{assign_csv}: difference_score {score!r}, mean |A0 - A1| of its rows is {expected!r}")


def ablate_rows(ablate_csv) -> tuple[dict, dict]:
    """(seed rows, mean/std rows) keyed by (readout, centers, clusters, seed or stat)."""
    header, rows = read_csv_rows(ablate_csv)
    runs, stats = {}, {}
    for row in rows:
        rec = dict(zip(header, row))
        key = (rec["readout"], rec["centers"], int(rec["clusters"]))
        if rec["seed"] in ("mean", "std"):
            stats[key + (rec["seed"],)] = rec
        else:
            runs[key + (int(rec["seed"]),)] = rec
    return runs, stats


def check_checkpoint_auroc(ref: Expected, ablate_csv, key, checkpoint, dataset, split) -> None:
    """A saved sweep checkpoint scores its CSV row's test AUROC."""
    runs, _ = ablate_rows(ablate_csv)
    _require(key in runs, f"{ablate_csv}: no row for {key}")
    _, labels = ref.test_set(dataset, split)
    scores, _ = ref.forward(checkpoint, dataset, split)
    _compare_auroc(float(runs[key]["auroc"]), scores, labels, f"{checkpoint} vs its CSV row")


def check_ablate_summary(ablate_csv) -> None:
    """Every mean/std row is fmean/pstdev of its combination's seed rows."""
    runs, stats = ablate_rows(ablate_csv)
    combos = {key[:3] for key in runs}
    _require(len(stats) == 2 * len(combos), f"{ablate_csv}: {len(stats)} summary rows for {len(combos)} combinations")
    for combo in combos:
        seeds = [rec for key, rec in runs.items() if key[:3] == combo]
        for metric in ("auroc", "accuracy", "sensitivity", "specificity"):
            values = [float(rec[metric]) for rec in seeds]
            for stat, reducer in (("mean", statistics.fmean), ("std", statistics.pstdev)):
                got = float(stats[combo + (stat,)][metric])
                _require(got == reducer(values), f"{ablate_csv}: {combo} {stat} {metric} {got!r} != {reducer(values)!r}")


def check_sweep_quality(ablate_csv) -> None:
    """Every sweep run reaches the planted data's minimum test AUROC."""
    runs, _ = ablate_rows(ablate_csv)
    worst = min(float(rec["auroc"]) for rec in runs.values())
    _require(worst >= MIN_SWEEP_AUROC, f"{ablate_csv}: a run reached test AUROC {worst} < {MIN_SWEEP_AUROC}")


def theory_rows(theory_csv) -> dict[tuple[str, str], tuple[float, str]]:
    header, rows = read_csv_rows(theory_csv)
    _require(header == ["mode", "descriptor", "estimate", "error"], f"{theory_csv}: header {header}")
    return {(mode, desc): (float(est), err) for mode, desc, est, err in rows}


def check_theory_ladder(theory_csv) -> None:
    """F(0) = 0 and F increases along the phi ladder."""
    rows = theory_rows(theory_csv)
    values = [rows[("2d", phi)][0] for phi in PHI_LADDER]
    _require(values[0] == 0.0, f"{theory_csv}: F(0) = {values[0]!r}")
    _require(all(a < b for a, b in zip(values, values[1:])), f"{theory_csv}: F not increasing: {values}")


def check_theory_separation(theory_csv) -> None:
    """Orthonormal centers beat cosine-0.5 by more than 3 combined SE."""
    rows = theory_rows(theory_csv)
    (ortho, se_o), (tilted, se_t) = [
        (rows[key][0], float(rows[key][1])) for key in (("mc", "orthonormal"), ("mc", "cosine_0.5"))
    ]
    sigma = (ortho - tilted) / math.hypot(se_o, se_t)
    _require(sigma > 3.0, f"{theory_csv}: orthonormal leads by {sigma:.2f} SE")
    stated = rows[("mc", "separation_sigma")][0]
    _require(math.isclose(stated, sigma, rel_tol=1e-9), f"{theory_csv}: separation_sigma {stated!r} != {sigma!r}")


def check_theory_vif(theory_csv) -> None:
    """Orthogonal VIFs are 1 within 1e-9.  The two rho=0.9 columns share
    one VIF, 1/(1 - r^2) of their sample correlation r, and it lies within
    VIF_SIGMAS standard errors of 1/(1 - 0.81)."""
    rows = theory_rows(theory_csv)
    ortho = [value for (mode, desc), (value, _) in rows.items() if desc.startswith("orthogonal_col")]
    _require(len(ortho) > 0 and all(abs(v - 1.0) <= 1e-9 for v in ortho), f"{theory_csv}: orthogonal VIFs {ortho}")
    cols = [rows[("vif", f"rho09_col{i}")][0] for i in (0, 1)]
    mean = rows[("vif", "rho09_mean")][0]
    _require(math.isclose(cols[0], cols[1], rel_tol=1e-9) and math.isclose(mean, sum(cols) / 2, rel_tol=1e-12),
             f"{theory_csv}: rho=0.9 VIFs {cols}, mean {mean}")
    target = 1.0 / (1.0 - RHO**2)
    tolerance = VIF_SIGMAS * 2.0 * RHO / math.sqrt(RHO_SAMPLES) * target
    _require(abs(mean - target) <= tolerance,
             f"{theory_csv}: rho=0.9 mean VIF {mean} is {abs(mean - target) / target:.2%} from {target:.4f}")


def check_eigen_run(checkpoint, report, k_eigen: int, epochs: int) -> None:
    """The eigen-feature checkpoint's layer-0 width is V + k and its
    training losses are finite."""
    ckpt = read_bnt(checkpoint)
    width = ckpt.layers[0][0].shape[-1]
    _require(ckpt.features == "profile_eigen" and width == ckpt.nodes + k_eigen,
             f"{checkpoint}: features {ckpt.features}, layer-0 width {width} != {ckpt.nodes} + {k_eigen}")
    losses = [float(t) for t in read_key_values(report)["train_loss"].split()]
    _require(len(losses) == epochs and all(math.isfinite(x) for x in losses), f"{report}: train_loss {losses}")


def check_eigendecompositions(calls) -> None:
    """Each (input, values, vectors) agrees with numpy.linalg.eigh:
    values within 1e-9, and vectors of well-separated values equal up to sign."""
    _require(len(calls) > 0, "no eigendecomposition was recorded")
    for m, vals, vecs in calls:
        ref_vals, ref_vecs = np.linalg.eigh(m)
        ref_vals, ref_vecs = ref_vals[::-1], ref_vecs[:, ::-1]
        scale = max(1.0, float(np.abs(ref_vals).max()))
        _require(np.abs(vals - ref_vals).max() <= 1e-9 * scale, "eigenvalues differ from numpy.linalg.eigh")
        gaps = np.minimum(np.abs(np.diff(ref_vals, prepend=np.inf)), np.abs(np.diff(ref_vals, append=-np.inf)))
        separated = gaps > 1e-6 * scale
        dots = np.abs((vecs * ref_vecs).sum(axis=0))
        _require(np.all(np.abs(dots[separated] - 1.0) <= 1e-6), "eigenvectors differ from numpy.linalg.eigh beyond sign")
