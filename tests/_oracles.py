"""Independent reference implementations used to cross-check the library.

Everything in here is deliberately written the slow, obvious way —
exhaustive pair counting, finite differences through the
public forward pass — so that agreement with the fast implementations
is meaningful evidence and not a tautology.
"""

import math

import numpy as np

from bnt.model import ModelConfig, ModelParams, forward


def auroc_pairs(scores, labels):
    """Exhaustive positive/negative pair counting with half-credit ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("need both classes")
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def cross_entropy_reference(logits, label):
    """Hand-rolled -log softmax[label] via the log-sum-exp trick."""
    m = max(float(logits[0]), float(logits[1]))
    lse = m + math.log(math.exp(float(logits[0]) - m) + math.exp(float(logits[1]) - m))
    return lse - float(logits[label])


def batch_loss_reference(batch, params: ModelParams, config: ModelConfig) -> float:
    """Mean cross-entropy through the public forward(), one graph at a time.

    Shares no code with loss_and_grad's batched forward/backward path.
    """
    total = 0.0
    for x, label in batch:
        logits, _ = forward(x, params, config)
        total += cross_entropy_reference(logits, label)
    return total / len(batch)


def finite_difference_grads(batch, params: ModelParams, config: ModelConfig, h: float = 1e-5):
    """Central-difference gradient of batch_loss_reference per tensor entry."""
    grads = {}
    for name, tensor in params.named_tensors():
        grad = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            up = batch_loss_reference(batch, params, config)
            flat[i] = original - h
            down = batch_loss_reference(batch, params, config)
            flat[i] = original
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = grad
    return grads


def max_relative_error(analytic, numeric, floor: float = 1e-4) -> float:
    """max |a - n| / max(|a|, |n|, floor) over all entries."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())
