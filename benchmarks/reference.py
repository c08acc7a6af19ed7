"""Independent readers and a reference model for checking bnt's outputs.

Nothing here imports ``bnt``.  The dataset (``.bntd``) and checkpoint
(``.bnt``) files are parsed from their documented byte layouts, the model
is recomputed one attention head at a time with plain NumPy, and AUROC is
counted pair by pair, so a fault in the program cannot pass a check by
being shared with it.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

READOUTS = ("ocread", "mean", "max", "sum", "concat")
CENTERS = ("orthonormal", "random_unit", "learnable")
FEATURES = ("profile", "profile_identity", "profile_eigen")


@dataclass
class Dataset:
    ids: list[int]
    labels: np.ndarray  # (n,) int
    sites: np.ndarray  # (n,) int
    matrices: np.ndarray  # (n, V, V) float64

    def select(self, ids):
        """(matrices, labels) of the given subject ids, in that order."""
        index = {sid: i for i, sid in enumerate(self.ids)}
        rows = [index[sid] for sid in ids]
        return self.matrices[rows], self.labels[rows]


def read_bntd(path) -> Dataset:
    """Dataset file: ``<4sIII`` magic/version/V/n, then per graph
    ``<IBHB`` id/label/site/pad and V*V little-endian float32."""
    with open(path, "rb") as f:
        raw = f.read()
    magic, version, v, n = struct.unpack_from("<4sIII", raw, 0)
    if magic != b"BNTD" or version != 1:
        raise ValueError(f"{path}: not a version-1 BNTD file")
    record = 8 + 4 * v * v
    if len(raw) != 16 + n * record:
        raise ValueError(f"{path}: {len(raw)} bytes, expected {16 + n * record}")
    ids, labels, sites = [], np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    matrices = np.empty((n, v, v))
    for i in range(n):
        off = 16 + i * record
        sid, labels[i], sites[i], _ = struct.unpack_from("<IBHB", raw, off)
        ids.append(sid)
        matrices[i] = np.frombuffer(raw, dtype="<f4", count=v * v, offset=off + 8).reshape(v, v)
    return Dataset(ids, labels, sites, matrices)


@dataclass
class Checkpoint:
    nodes: int
    heads: int
    head_dim: int
    clusters: int
    readout: str
    centers_mode: str
    features: str
    k_eigen: int
    layers: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]  # wq, wk, wv, wo
    centers: np.ndarray
    mlp: list[tuple[np.ndarray, np.ndarray]]  # (weight, bias)


def read_bnt(path) -> Checkpoint:
    """Checkpoint file: ``<4sIIIIII`` magic/version/nodes/layers/heads/
    clusters/head_dim, ``<I`` hidden count and that many ``<I`` widths,
    ``<BBBI`` readout/centers/feature codes and k_eigen, then every tensor
    as little-endian float64 in declaration order."""
    with open(path, "rb") as f:
        raw = f.read()
    magic, version, v, n_layers, m, k, hd = struct.unpack_from("<4sIIIIII", raw, 0)
    if magic != b"BNTM" or version != 1:
        raise ValueError(f"{path}: not a version-1 BNTM file")
    off = 28
    (n_hidden,) = struct.unpack_from("<I", raw, off)
    hidden = struct.unpack_from(f"<{n_hidden}I", raw, off + 4)
    off += 4 + 4 * n_hidden
    r_code, c_code, f_code, k_eigen = struct.unpack_from("<BBBI", raw, off)
    off += 7
    readout, features = READOUTS[r_code], FEATURES[f_code]

    def take(*shape):
        nonlocal off
        count = math.prod(shape)
        t = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(shape)
        off += 8 * count
        return t

    in_width = v + {"profile": 0, "profile_identity": v, "profile_eigen": k_eigen}[features]
    layers = []
    for layer in range(n_layers):
        w = in_width if layer == 0 else v
        layers.append((take(m, hd, w), take(m, hd, w), take(m, hd, w), take(m * hd, v)))
    centers = take(k, v)
    flat = {"ocread": k * v, "concat": v * v}.get(readout, v)
    widths = [flat, *hidden, 2]
    mlp = [(take(widths[i], widths[i + 1]), take(widths[i + 1])) for i in range(len(widths) - 1)]
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} bytes left after the last tensor")
    return Checkpoint(v, m, hd, k, readout, CENTERS[c_code], features, k_eigen, layers, centers, mlp)


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_forward(ckpt: Checkpoint, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(logits, assignment) of one graph: profile features, per-head
    scaled dot-product attention, OCRead pooling, tanh MLP."""
    if ckpt.features != "profile" or ckpt.readout != "ocread":
        raise ValueError("the reference covers profile features with the ocread readout")
    z = x
    for wq, wk, wv, wo in ckpt.layers:
        heads = []
        for h in range(ckpt.heads):
            q, k, val = z @ wq[h].T, z @ wk[h].T, z @ wv[h].T
            heads.append(_softmax_rows(q @ k.T / math.sqrt(ckpt.head_dim)) @ val)
        z = np.concatenate(heads, axis=1) @ wo
    assignment = _softmax_rows(z @ ckpt.centers.T)  # (V, K)
    a = (assignment.T @ z).reshape(-1)
    for w, b in ckpt.mlp[:-1]:
        a = np.tanh(a @ w + b)
    w, b = ckpt.mlp[-1]
    return a @ w + b, assignment


def proba(logits) -> float:
    """P(class 1) from the two class logits."""
    return 1.0 / (1.0 + math.exp(-(logits[1] - logits[0])))


def pair_auroc(scores, labels, tie_tol: float = 0.0) -> tuple[float, int]:
    """(AUROC, near-tied pairs) by counting every positive/negative pair:
    a win counts 1, an exact tie 1/2.  Pairs whose scores differ by at
    most tie_tol are counted separately so a caller can allow for them."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUROC needs both classes")
    diff = pos[:, None] - neg[None, :]
    wins = float((diff > 0).sum()) + 0.5 * float((diff == 0).sum())
    return wins / diff.size, int((np.abs(diff) <= tie_tol).sum())


def read_key_values(path) -> dict[str, str]:
    """``key = value`` lines (split plans, train reports); later keys win."""
    kv = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            key, sep, value = line.partition("=")
            if sep:
                kv[key.strip()] = value.strip()
    return kv


def read_split(path) -> dict[str, list[int]]:
    kv = read_key_values(path)
    return {name: [int(t) for t in kv.get(name, "").split()] for name in ("train", "val", "test")}


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    return rows[0], rows[1:]
