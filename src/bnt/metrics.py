"""Classification metrics and the assignment difference score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EvalResult:
    """Metrics of one evaluation; None marks an undefined denominator."""

    auroc: float | None
    accuracy: float
    sensitivity: float | None
    specificity: float | None
    n_pos: int
    n_neg: int


def format_metric(value) -> str:
    """A metric as report and CSV text: "undefined" for None, else the float's repr."""
    return "undefined" if value is None else repr(float(value))


def _check_scores_labels(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise ValueError("scores and labels must be 1-D and the same length")
    if scores.size == 0:
        raise ValueError("need at least one sample")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    return scores, labels.astype(np.intp)


def auroc(scores, labels) -> float:
    """Probability a positive outranks a negative, ties counted half.

    Computed from midranks (tied scores share the average of their rank
    range), which is exactly the pair-counting definition.  Raises if
    only one class is present.
    """
    scores, labels = _check_scores_labels(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc needs both classes present")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    smaller = np.cumsum(counts) - counts
    midrank = smaller + (counts + 1) / 2.0  # half-integers, exact in float64
    ranks = midrank[inverse]
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def threshold_metrics(scores, labels, threshold: float = 0.5):
    """(accuracy, sensitivity, specificity) predicting positive at
    score >= threshold; a metric with an empty denominator is None."""
    scores, labels = _check_scores_labels(scores, labels)
    pred = scores >= threshold
    pos = labels == 1
    tp = int((pred & pos).sum())
    tn = int((~pred & ~pos).sum())
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    accuracy = (tp + tn) / labels.size
    sensitivity = tp / n_pos if n_pos else None
    specificity = tn / n_neg if n_neg else None
    return accuracy, sensitivity, specificity


def difference_score(p_class0, p_class1) -> float:
    """Mean absolute entry difference between two class-averaged
    cluster-assignment matrices of equal shape (clusters x nodes)."""
    a = np.asarray(p_class0, dtype=np.float64)
    b = np.asarray(p_class1, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"expected equal 2-D shapes, got {a.shape} and {b.shape}")
    return float(np.abs(a - b).mean())
