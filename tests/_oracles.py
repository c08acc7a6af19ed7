"""Independent reference implementations used to cross-check the library.

Everything in here is deliberately written the slow, obvious way —
exhaustive pair counting, finite differences through the
public forward pass — so that agreement with the fast implementations
is meaningful evidence and not a tautology.
"""

import dataclasses
import math

import numpy as np

from bnt.data import Dataset
from bnt.linalg import sum_lastaxis
from bnt.model import (
    CentersMode,
    ModelConfig,
    ModelParams,
    Readout,
    _forward_batch,
    _readout_backward,
    _Workspace,
    forward,
)
from bnt.rng import Rng


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

    Shares the batched forward (``_forward_batch``, here one graph per
    ``score_chunks`` chunk) with loss_and_grad, but not its backward or its
    loss: the loss is cross_entropy_reference, and the gradients it checks
    come from finite differences.
    """
    total = 0.0
    for x, label in batch:
        logits, _ = forward(x, params, config)
        total += cross_entropy_reference(logits, label)
    return total / len(batch)


def batch_loss(batch, params: ModelParams, config: ModelConfig) -> float:
    """Mean cross-entropy of a batch scored whole through a scoring workspace,
    by the batched forward behind predict_proba."""
    graphs = np.array([x for x, _ in batch])
    logits = _forward_batch(graphs, params, config, _Workspace(len(batch), config)).logits
    return sum(cross_entropy_reference(l, y) for l, (_, y) in zip(logits, batch)) / len(batch)


def held(dataset: Dataset) -> Dataset:
    """``dataset`` with each matrix read once, row by row, and stacked into
    one (N, V, V) array of their dtype: a copy to index, slice and compare
    as an array, and to train on without computing or reading it again."""
    return dataclasses.replace(dataset, matrices=np.stack([m for m in dataset.matrices]))


def readout_backward_whole_batch(dg, tr, params: ModelParams, config: ModelConfig):
    """The readout backward with the clustering readout's ``ds @ centers``
    added to the whole batch at once: the reference whose bits the
    library's one-graph-at-a-time add must give."""
    if config.readout is not Readout.OCREAD:
        return _readout_backward(dg, tr, params, config)
    z, p = tr.z, tr.assignment
    b, v, _ = z.shape
    dpooled = dg.reshape(b, config.clusters, v)
    dp = z @ dpooled.swapaxes(1, 2)
    ds = (dp - sum_lastaxis(dp * p)) * p
    dz = p @ dpooled + ds @ params.centers
    learnable = config.centers_mode is CentersMode.LEARNABLE
    return dz, ds.reshape(b * v, -1).T @ z.reshape(b * v, v) if learnable else None


def adam_per_tensor(param_map, grad_map, moments: dict, step: int, config) -> None:
    """Adam step ``step``, in place, tensor by tensor over param_map; ``moments``
    maps a name to its (m, v) pair and gains zeros on a tensor's first step.
    Tensors absent from param_map are frozen: they are never read or written.
    The betas and eps are Kingma and Ba's defaults, written out, not imported."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    for name, p in param_map.items():
        g = grad_map[name]
        if config.weight_decay:
            g = g + config.weight_decay * p
        m, v = moments.setdefault(name, (np.zeros_like(p), np.zeros_like(p)))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= config.lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


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


def _ball_block(rng: Rng, n: int, dim: int, radius: float) -> np.ndarray:
    """n points uniform in the dim-ball of the given radius."""
    g = rng.normal(n * dim).reshape(n, dim)
    norms = np.sqrt((g * g).sum(axis=1, keepdims=True))
    np.maximum(norms, 1e-300, out=norms)
    u = rng.uniform(n)
    scale = radius * u ** (1.0 / dim)
    return g * (scale[:, None] / norms)


def variance_functional_mc_reference(centers, radius, n_samples, seed, block_size=1 << 16):
    """(value, standard error) of the ball-averaged assignment variance,
    drawn and scored one whole block at a time, serially; the same streams
    and the same reduction order as ``theory.variance_functional_mc``."""
    centers = np.asarray(centers, dtype=np.float64)
    k, dim = centers.shape
    base = Rng(seed)
    total = 0.0
    total_sq = 0.0
    for index, start in enumerate(range(0, n_samples, block_size)):
        z = _ball_block(base.derive(index), min(block_size, n_samples - start), dim, radius)
        logits = z @ centers.T
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        vals = ((p - 1.0 / k) ** 2).sum(axis=1)
        total += vals.sum()
        total_sq += (vals * vals).sum()
    mean = float(total) / n_samples
    var = max(float(total_sq) / n_samples - mean * mean, 0.0)
    return mean, math.sqrt(var / n_samples)
