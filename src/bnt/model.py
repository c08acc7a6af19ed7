"""Transformer classifier over complete weighted graphs.

The model consumes a V x V connectivity matrix whose row i is node i's
connection profile.  A stack of multi-head self-attention layers maps
the profile features to a final V x V node embedding; a readout
collapses that to a fixed-length vector; a small tanh MLP produces two
class logits.

The clustering readout assigns each node a softmax distribution over K
learned or frozen cluster centers and pools node embeddings under that
soft assignment.  Centers can be orthonormal (Gram-Schmidt of a Xavier
draw, frozen), random unit rows (frozen), or learnable.

Parameters live in one contiguous float64 vector laid out by
``param_layout``; every named tensor of a ``ModelParams`` is a view into
it.  Gradients are computed analytically by reverse mode over the cached
forward intermediates (large attention maps are recomputed instead, and
with them every layer's Q/K/V projections but the last layer's), into a
second vector of the same layout; finite differences verify them in the
tests.  The attention backward writes each layer's gradients over that
layer's own forward arrays, each once its last read is done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import accumulate

import numpy as np

from . import linalg
from .linalg import softmax_lastaxis, sum_lastaxis
from .rng import Rng
from .workers import blas_threads, lane_cap, run_lanes


# A checkpoint stores each enum below by its declaration index, so their
# member order is part of the .bnt format: append new members only.
class Readout(Enum):
    OCREAD = "ocread"
    MEAN = "mean"
    MAX = "max"
    SUM = "sum"
    CONCAT = "concat"


class CentersMode(Enum):
    ORTHONORMAL = "orthonormal"
    RANDOM_UNIT = "random_unit"
    LEARNABLE = "learnable"


class FeatureMode(Enum):
    PROFILE = "profile"
    PROFILE_IDENTITY = "profile_identity"
    PROFILE_EIGEN = "profile_eigen"


@dataclass
class ModelConfig:
    nodes: int
    layers: int = 2
    heads: int = 4
    clusters: int = 4
    head_dim: int | None = None  # defaults to ceil(nodes / heads)
    mlp_hidden: tuple[int, ...] = (256, 32)
    readout: Readout = Readout.OCREAD
    centers_mode: CentersMode = CentersMode.ORTHONORMAL
    feature_mode: FeatureMode = FeatureMode.PROFILE
    k_eigen: int = 0

    def __post_init__(self):
        self.mlp_hidden = tuple(int(h) for h in self.mlp_hidden)
        if self.head_dim is None and self.heads >= 1:
            self.head_dim = math.ceil(self.nodes / self.heads)

    def validate(self):
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        if self.head_dim < 1:
            raise ValueError("head_dim must be >= 1")
        if self.clusters < 1:
            raise ValueError("clusters must be >= 1")
        if self.readout is Readout.OCREAD and self.clusters > self.nodes:
            raise ValueError(
                f"clusters must not exceed nodes for the clustering readout "
                f"({self.clusters} > {self.nodes})"
            )
        if any(h < 1 for h in self.mlp_hidden):
            raise ValueError("mlp_hidden widths must be positive")
        if self.feature_mode is FeatureMode.PROFILE_EIGEN:
            if not 1 <= self.k_eigen <= self.nodes:
                raise ValueError(
                    f"k_eigen must be in 1..nodes for eigenvector features, got {self.k_eigen}"
                )

    @property
    def input_width(self) -> int:
        if self.feature_mode is FeatureMode.PROFILE:
            return self.nodes
        if self.feature_mode is FeatureMode.PROFILE_IDENTITY:
            return 2 * self.nodes
        return self.nodes + self.k_eigen

    @property
    def flat_dim(self) -> int:
        """Length of the readout vector fed to the MLP."""
        if self.readout is Readout.OCREAD:
            return self.clusters * self.nodes
        if self.readout is Readout.CONCAT:
            return self.nodes * self.nodes
        return self.nodes


@dataclass
class AttentionLayerParams:
    """One attention layer; per-head projections stacked on axis 0.

    w_query/w_key/w_value have shape (heads, head_dim, in_width) so
    w_query[m] is head m's projection; w_output has shape
    (heads * head_dim, nodes).
    """

    w_query: np.ndarray
    w_key: np.ndarray
    w_value: np.ndarray
    w_output: np.ndarray


_ATTENTION_TENSORS = ("w_query", "w_key", "w_value", "w_output")


def param_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], slice]]:
    """(name, shape, span) of every parameter tensor in declaration order,
    which is also the order of the checkpoint body; ``span`` is the tensor's
    slice of the one parameter vector."""
    v, m, hd = config.nodes, config.heads, config.head_dim
    shapes = []
    for i in range(config.layers):
        w = config.input_width if i == 0 else v
        shapes += [(f"layers.{i}.{t}", (m, hd, w)) for t in _ATTENTION_TENSORS[:3]]
        shapes.append((f"layers.{i}.w_output", (m * hd, v)))
    shapes.append(("centers", (config.clusters, v)))
    widths = [config.flat_dim, *config.mlp_hidden, 2]
    for i, (a, b) in enumerate(zip(widths, widths[1:])):
        shapes += [(f"mlp.{i}.weight", (a, b)), (f"mlp.{i}.bias", (b,))]
    sizes = [math.prod(shape) for _, shape in shapes]
    return [(name, shape, slice(end - size, end))
            for (name, shape), size, end in zip(shapes, sizes, accumulate(sizes))]


def param_count(config: ModelConfig) -> int:
    """Length of the parameter vector."""
    return param_layout(config)[-1][2].stop


class ModelParams:
    """Every parameter in one contiguous float64 ``vector``; ``layers``,
    ``centers``, ``mlp_weights`` and ``mlp_biases`` are views into it, laid
    out by ``param_layout``."""

    def __init__(self, vector: np.ndarray, config: ModelConfig):
        layout = param_layout(config)
        total = layout[-1][2].stop
        if vector.shape != (total,):
            raise ValueError(f"expected {total} parameters, got shape {vector.shape}")
        self.vector = vector
        views = self._views = {name: vector[span].reshape(shape) for name, shape, span in layout}
        self.layers = [
            AttentionLayerParams(*(views[f"layers.{i}.{t}"] for t in _ATTENTION_TENSORS))
            for i in range(config.layers)
        ]
        self.centers = views["centers"]  # (clusters, nodes)
        n_mlp = len(config.mlp_hidden) + 1
        self.mlp_weights = [views[f"mlp.{i}.weight"] for i in range(n_mlp)]
        self.mlp_biases = [views[f"mlp.{i}.bias"] for i in range(n_mlp)]

    def named_tensors(self):
        """(name, view) pairs in declaration order."""
        return iter(self._views.items())


def trainable_names(config: ModelConfig) -> set[str]:
    """Names of tensors that receive gradient updates: all but the centers,
    which train only in the learnable-centers clustering readout."""
    learnable = config.readout is Readout.OCREAD and config.centers_mode is CentersMode.LEARNABLE
    return {name for name, _, _ in param_layout(config) if learnable or name != "centers"}


def trainable_spans(config: ModelConfig) -> list[slice]:
    """The parameter vector's maximal runs of ``trainable_names`` tensors."""
    names = trainable_names(config)
    spans = []
    for name, _, span in param_layout(config):
        if name in names and spans and spans[-1].stop == span.start:
            spans[-1] = slice(spans[-1].start, span.stop)
        elif name in names:
            spans.append(span)
    return spans


def init_params(config: ModelConfig, rng: Rng) -> ModelParams:
    """Draw fresh parameters; the rng stream order is part of the contract."""
    config.validate()
    params = ModelParams(np.zeros(param_count(config)), config)  # MLP biases start at zero
    v = config.nodes
    hd = config.head_dim
    for l, layer in enumerate(params.layers):
        in_w = config.input_width if l == 0 else v
        for stack in (layer.w_query, layer.w_key, layer.w_value):
            for head in stack:
                head[...] = linalg.xavier_uniform(hd, in_w, rng)
        layer.w_output[...] = linalg.xavier_uniform(config.heads * hd, v, rng)

    centers = params.centers
    if config.centers_mode is CentersMode.ORTHONORMAL:
        centers[...] = linalg.orthonormal_rows(config.clusters, v, rng)
    else:
        centers[...] = linalg.xavier_uniform(config.clusters, v, rng)
        centers /= np.sqrt((centers * centers).sum(axis=1, keepdims=True))

    for w in params.mlp_weights:
        w[...] = linalg.xavier_uniform(*w.shape, rng)
    return params


def node_feature(x, mode: FeatureMode, k_eigen: int = 0) -> np.ndarray:
    """Node feature matrices of one graph (V, V) or of a batch (..., V, V).

    PROFILE keeps the connection profile rows as they are;
    PROFILE_IDENTITY appends a one-hot node identity block;
    PROFILE_EIGEN appends the top k_eigen eigenvectors (as columns) of
    each symmetric input, one eigendecomposition per graph.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] != x.shape[-1]:
        raise ValueError(f"expected square matrices, got shape {x.shape}")
    v = x.shape[-1]
    if mode is FeatureMode.PROFILE:
        return x
    if mode is FeatureMode.PROFILE_IDENTITY:
        return np.concatenate([x, np.broadcast_to(np.eye(v), x.shape)], axis=-1)
    if not 1 <= k_eigen <= v:
        raise ValueError(f"k_eigen must be in 1..{v}, got {k_eigen}")
    vecs = np.empty(x.shape[:-1] + (k_eigen,))
    for index in np.ndindex(x.shape[:-2]):
        vecs[index] = linalg.symmetric_eigendecomposition(x[index])[1][:, :k_eigen]
    return np.concatenate([x, vecs], axis=-1)


# ---------------------------------------------------------------------------
# Batched forward / backward internals.  Shapes: z (B, V, w); per-head
# tensors (B, M, V, head_dim); attention (B, M, V, V), computed per block.
# ---------------------------------------------------------------------------


# Budget for one block's (graphs, M, V, V) float64 attention, so the softmax
# temporaries of a block stay in cache instead of spanning the whole batch.
_ATTN_BLOCK_BYTES = 256 * 1024

# A training workspace keeps each layer's whole-batch attention and Q/K/V
# projections for the backward where that attention takes at most this many
# bytes.  Else the backward recomputes the attention per block, and the layers
# share one Q/K/V buffer that the backward projects again for each layer below
# the last.  On 2 cores of an Intel Xeon (B=64, default widths, one BLAS
# thread, alternating runs) recomputing the attention cost +22-25% of a step at
# V=32, +10-22% at V=64, +13-29% at V=128 and +6-20% at V=200, and saved 2 MiB
# per layer at V=32, 32 MiB at V=128 and 78 MiB at V=200: only layers beyond
# V=128 recompute.  Sharing Q/K/V then saved 58.6 MiB more at V=200 and L=2,
# for about 5% of the cohort benchmark's training rate (10 alternating pairs).
_ATTN_STORE_BYTES = 32 * 1024 * 1024


def _blocks(b: int, m: int, v: int) -> list[slice]:
    step = max(1, _ATTN_BLOCK_BYTES // (8 * m * v * v))
    return [slice(i, min(i + step, b)) for i in range(0, b, step)]


class _LayerBuffers:
    """One attention layer's arrays for up to n graphs: the Q/K/V projections
    ``qkv`` (3, n·V, M·hd), its own or the given one that other layers share,
    the attention of shape ``attn`` (all n graphs (n, M, V, V), or one
    block per lane (lanes, block, M, V, V)), and two flat buffers of
    n·V·max(V, M·hd) floats: ``h``, the head outputs (n, V, M, hd), whose
    (n, V, M·hd) view is ``hcat``, and ``out``, the (n, V, V) output.  After a
    training step they hold the layer's gradients instead (``_mhsa_backward``)."""

    def __init__(self, n: int, v: int, m: int, hd: int, attn: tuple[int, ...], qkv=None):
        self.qkv = np.empty((3, n * v, m * hd)) if qkv is None else qkv
        self.h = np.empty(n * v * max(v, m * hd))
        self.attn = np.empty(attn)
        self.out = np.empty(n * v * max(v, m * hd))


class _Workspace:
    """Every large array of a forward (and, with ``train``, a backward) over up
    to n graphs, reused across calls; a batch of fewer graphs uses leading views.
    A training workspace runs its steps in ``lanes`` threads (``run_lanes``) where
    n graphs are more than ``_LANES_MIN_FLOPS`` of forward work, else in one.

    Scoring: one ``_LayerBuffers`` with one attention block serves every layer;
    each layer projects its input to Q/K/V before overwriting ``out``.
    Training: each layer keeps its own buffers for the backward, with its
    whole-batch attention where that is at most ``_ATTN_STORE_BYTES``.  Else
    each keeps one attention block per lane that the backward recomputes,
    and the layers share one ``qkv``: each layer's forward projects over the
    one below's, and the backward projects each layer below the last again
    before its backward (``_mhsa_backward``).  The backward writes
    each layer's gradients over that layer's dead forward arrays, so after a
    step the layers hold gradients, not activations (read those before the
    backward).  Besides the layers there is one block's ``dattn`` and its
    product temporary per lane, one block's ``dq`` per lane (stored like q),
    and ``grads``, the gradient vector of every step."""

    def __init__(self, n: int, config: ModelConfig, train: bool = False, lanes: int = 1):
        v, m, hd = config.nodes, config.heads, config.head_dim
        block = _blocks(n, m, v)[0].stop
        self.graphs, self.train = n, train
        self.lanes = lanes if train and n * _forward_flops(config) > _LANES_MIN_FLOPS else 1
        store = train and 8 * n * m * v * v <= _ATTN_STORE_BYTES
        attn = (n, m, v, v) if store else (self.lanes, block, m, v, v)
        if not train:
            self.layers = [_LayerBuffers(n, v, m, hd, attn)] * config.layers
            return
        qkv = None if store else np.empty((3, n * v, m * hd))
        self.layers = [_LayerBuffers(n, v, m, hd, attn, qkv) for _ in range(config.layers)]
        self.grads = ModelParams(np.zeros(param_count(config)), config)
        self.dattn = np.empty((self.lanes, 2, block, m, v, v))
        self.dq = np.empty((self.lanes, block, v, m, hd))


# A training workspace for at most this many forward FLOPs runs its steps in
# one thread.  On 2 cores of an Intel Xeon, two lanes made a 64-graph step
# (default widths, alternating runs) slower at V=96 (1.4 GFLOP) and faster
# from V=112 (2.2 GFLOP, 370 -> 295 ms); at V=200 it took 1.40 s -> 0.88 s.
_LANES_MIN_FLOPS = 2e9


def _attention(q: np.ndarray, k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Softmax of the scaled scores of query and key blocks (..., V, hd) into
    ``out``: the forward's ops, which the backward repeats for the same bits."""
    np.matmul(q, k.swapaxes(-1, -2), out=out)
    out /= math.sqrt(q.shape[-1])
    return softmax_lastaxis(out, out=out)


def _project(z2: np.ndarray, layer: AttentionLayerParams, qkv: np.ndarray, lanes: int):
    """The Q/K/V projections of z2 (n·V, w) into qkv (3, n·V, M·hd), three GEMMs
    in up to ``lanes`` lanes: the forward's call, which the backward repeats
    for the same bits."""
    run_lanes([partial(np.matmul, z2, wt.reshape(-1, z2.shape[1]).T, out=d)
               for wt, d in zip((layer.w_query, layer.w_key, layer.w_value), qkv)], lanes)


def _mhsa_forward(z: np.ndarray, layer: AttentionLayerParams, buf: _LayerBuffers, lanes: int = 1):
    """One attention layer over z (B, V, w) into ``buf``: full-batch projections;
    scores, softmax (in place) and attn @ v over blocks of graphs (``_blocks``).
    An attention buffer for all B graphs keeps every block for the backward; a
    buffer of one block per lane is overwritten by each block of that lane, and
    the backward recomputes them."""
    b, v, w = z.shape
    m, hd, w_in = layer.w_query.shape
    if w_in != w:
        raise ValueError(f"layer expects input width {w_in}, got {w}")
    mh = m * hd
    qkv = buf.qkv[:, : b * v]
    _project(z.reshape(b * v, w), layer, qkv, lanes)
    q, k, vv = (d.reshape(b, v, m, hd).transpose(0, 2, 1, 3) for d in qkv)
    h, out = buf.h[: b * v * mh].reshape(b, v, m, hd), buf.out[: b * v * v].reshape(b, v, v)
    heads, hcat = h.transpose(0, 2, 1, 3), h.reshape(b, v, mh)  # views, no copies
    keep = buf.attn.ndim == 4

    def attend(blocks, lane):
        for blk in blocks:
            a = _attention(q[blk], k[blk], buf.attn[blk] if keep else buf.attn[lane, : blk.stop - blk.start])
            np.matmul(a, vv[blk], out=heads[blk])
            np.matmul(hcat[blk], layer.w_output, out=out[blk])  # one GEMM per graph either way

    blocks = _blocks(b, m, v)
    run_lanes([partial(attend, blocks[i::lanes], i) for i in range(lanes)], lanes)
    return out, (z, q, k, vv, hcat, buf)


def _mhsa_backward(dout, layer: AttentionLayerParams, cache, grads: AttentionLayerParams,
                   ws: _Workspace, input_grad: bool, reproject: bool):
    """Backward of one attention layer through the training workspace ``ws``.
    With ``reproject`` (a ``qkv`` the layer above shares, which holds that
    layer's gradients now), the layer first projects its input z again
    (``_project``): z is the features or the layer below's ``out``, which
    stays intact until that layer's backward.  Weight gradients go into
    ``grads``; the input gradient, returned where ``input_grad`` (nothing
    reads the first layer's), and every other gradient go over a forward
    array of the layer once its last read is done: dhcat, then the input
    gradient, over ``out`` (read as the next layer's input, or by the
    readout), the input gradient's products over ``h`` (read as hcat by the
    ``w_output`` gradient), and per block dV, dK and dQ over V, K and Q."""
    z, q, k, vv, hcat, buf = cache
    b, v, w = z.shape
    m, hd, _ = layer.w_query.shape
    mh = m * hd
    z2, lanes, attn, dhcat = z.reshape(b * v, w), ws.lanes, buf.attn, buf.out[: b * v * mh].reshape(b, v, mh)
    if reproject:
        _project(z2, layer, buf.qkv[:, : b * v], lanes)

    run_lanes([partial(np.matmul, hcat.reshape(b * v, mh).T, dout.reshape(b * v, v), out=grads.w_output),
               partial(np.matmul, dout, layer.w_output.T, out=dhcat)], lanes)
    dh = dhcat.reshape(b, v, m, hd).transpose(0, 2, 1, 3)

    def attend_backward(blocks, lane):
        for blk in blocks:
            dattn, prod = ws.dattn[lane, :, : blk.stop - blk.start]
            dq = ws.dq[lane, : blk.stop - blk.start].transpose(0, 2, 1, 3)  # stored like q
            a = attn[blk] if attn.ndim == 4 else _attention(q[blk], k[blk], attn[lane, : blk.stop - blk.start])
            np.matmul(dh[blk], vv[blk].swapaxes(-1, -2), out=dattn)
            np.matmul(a.swapaxes(-1, -2), dh[blk], out=vv[blk])  # dattn has read V
            # softmax backward per attention row, in place
            dattn -= np.multiply(dattn, a, out=prod).sum(axis=-1, keepdims=True)
            dattn *= a
            dattn /= math.sqrt(hd)
            np.matmul(dattn, k[blk], out=dq)
            np.matmul(dattn.swapaxes(-1, -2), q[blk], out=k[blk])  # dQ has read K
            q[blk] = dq  # dK has read Q

    blocks = _blocks(b, m, v)
    run_lanes([partial(attend_backward, blocks[i::lanes], i) for i in range(lanes)], lanes)

    flats = list(buf.qkv[:, : b * v])  # dQ, dK, dV now, each (B·V, M·hd)
    weights = (layer.w_query, layer.w_key, layer.w_value)
    dz, dprod = (f[: b * v * v].reshape(b * v, v) for f in (buf.out, buf.h))  # read above layer 0: w == V

    def input_grad_sum():  # the three products summed in a fixed order
        dz[...] = 0.0
        for flat, wt in zip(flats, weights):
            np.add(dz, np.matmul(flat, wt.reshape(mh, w), out=dprod), out=dz)

    tasks = [partial(np.matmul, flat.T, z2, out=dw.reshape(mh, w))
             for flat, dw in zip(flats, (grads.w_query, grads.w_key, grads.w_value))]
    if input_grad:
        tasks.insert(0, input_grad_sum)  # first, so one lane takes it while another takes the three above
    run_lanes(tasks, lanes)
    return dz.reshape(b, v, v) if input_grad else None


class _BatchTrace:
    __slots__ = ("z", "caches", "assignment", "max_idx", "mlp_acts", "logits")

    def __init__(self):
        self.z = None  # the last layer's output
        self.caches = []
        self.assignment = None
        self.max_idx = None
        self.mlp_acts = None
        self.logits = None


def _forward_batch(x: np.ndarray, params: ModelParams, config: ModelConfig, ws: _Workspace) -> _BatchTrace:
    """Forward pass over x (B, V, V) into ``ws``, a ``_Workspace`` for >= B
    graphs.  A training workspace keeps every layer's cache for the backward;
    a scoring one overwrites them layer by layer."""
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite entries")
    b, v, v2 = x.shape
    if v != config.nodes or v2 != config.nodes:
        raise ValueError(f"expected graphs of shape ({config.nodes}, {config.nodes}), got ({v}, {v2})")
    if b > ws.graphs:
        raise ValueError(f"workspace holds {ws.graphs} graphs, got {b}")

    tr = _BatchTrace()
    z = node_feature(x, config.feature_mode, config.k_eigen)
    for layer, buf in zip(params.layers, ws.layers):
        z, cache = _mhsa_forward(z, layer, buf, ws.lanes)
        tr.caches.append(cache)
    tr.z = z

    if config.readout is Readout.OCREAD:
        pooled, tr.assignment = ocread(z, params.centers)  # (B, K, V), (B, V, K)
        g = pooled.reshape(b, -1)
    else:
        if config.readout is Readout.MAX:
            tr.max_idx = z.argmax(axis=1)  # routes the max backward; first index on ties
        g = baseline_readout(z, config.readout)

    acts = [g]
    a = g
    for w, bias in zip(params.mlp_weights[:-1], params.mlp_biases[:-1]):
        a = np.tanh(a @ w + bias)
        acts.append(a)
    logits = a @ params.mlp_weights[-1] + params.mlp_biases[-1]
    tr.mlp_acts = acts
    tr.logits = logits
    return tr


def _readout_backward(dg: np.ndarray, tr: _BatchTrace, params: ModelParams, config: ModelConfig):
    """Gradient of the readout vector wrt the final embedding (and centers)."""
    z = tr.z
    b, v, _ = z.shape
    dcenters = None
    if config.readout is Readout.OCREAD:
        p = tr.assignment
        dpooled = dg.reshape(b, config.clusters, v)
        dz = p @ dpooled
        dp = z @ dpooled.swapaxes(1, 2)
        ds = (dp - sum_lastaxis(dp * p)) * p  # (B, V, K)
        for g in range(b):  # a graph at a time: a whole-batch product and sum took 2·B·V·V floats
            dz[g] += ds[g] @ params.centers
        if config.centers_mode is CentersMode.LEARNABLE:
            dcenters = ds.reshape(b * v, -1).T @ z.reshape(b * v, v)
    elif config.readout is Readout.MEAN:
        dz = np.broadcast_to(dg[:, None, :] / v, z.shape)
    elif config.readout is Readout.SUM:
        dz = np.broadcast_to(dg[:, None, :], z.shape)
    elif config.readout is Readout.MAX:
        dz = np.zeros_like(z)
        cols = np.broadcast_to(np.arange(v), (b, v))
        rows = np.broadcast_to(np.arange(b)[:, None], (b, v))
        dz[rows, tr.max_idx, cols] = dg
    else:  # CONCAT
        dz = dg.reshape(b, v, v)
    return dz, dcenters


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def forward(x, params: ModelParams, config: ModelConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """Class logits (2,) and soft assignment (V, clusters) of one graph, scored
    by ``score_chunks`` as a chunk of its own; the assignment is None for the
    non-clustering readouts."""
    ((_, logits, assignment),) = score_chunks([x], params, config)
    return logits[0], None if assignment is None else assignment[0]


def ocread(z, centers) -> tuple[np.ndarray, np.ndarray]:
    """Soft cluster pooling of node embeddings z of shape (..., V, w).

    Returns (pooled, assignment): assignment[..., i, k] is node i's
    softmax weight on center k, pooled = assignment^T @ z per graph.
    Leading axes are batch axes.
    """
    z = np.asarray(z, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    p = softmax_lastaxis(z @ centers.T)
    return p.swapaxes(-1, -2) @ z, p


def baseline_readout(z, kind: Readout) -> np.ndarray:
    """Non-clustering readouts of z (..., V, w): mean/sum/max over nodes or flatten.

    Leading axes are batch axes.
    """
    z = np.asarray(z, dtype=np.float64)
    if kind is Readout.MEAN:
        return z.mean(axis=-2)
    if kind is Readout.SUM:
        return z.sum(axis=-2)
    if kind is Readout.MAX:
        return z.max(axis=-2)
    if kind is Readout.CONCAT:
        return z.reshape(*z.shape[:-2], -1)
    raise ValueError(f"not a baseline readout: {kind}")


@blas_threads(1)
def loss_and_grad(x, params: ModelParams, config: ModelConfig, labels, ws: _Workspace | None = None):
    """Mean cross-entropy over the batch x (B, V, V) with class ``labels``
    (B,), and analytic parameter gradients.

    Gradients come back as a ModelParams over the workspace's gradient
    vector, valid until the next call with that workspace.  Centers receive
    gradient only for the learnable-centers clustering readout; otherwise
    their slot is zero.  ``ws`` is a training ``_Workspace`` for at least B
    graphs that successive calls share, and sets the step's threads (its
    ``lanes``); without one, the call builds its own.  BLAS runs on one
    thread whatever the environment, so the bytes are those of any lanes.
    After the call the workspace's layers hold gradients, not the forward's
    arrays: telemetry of attention or of layer outputs reads them before it.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(labels, dtype=np.intp)
    b = len(x)
    if b == 0:
        raise ValueError("batch must be non-empty")
    if y.shape != (b,):
        raise ValueError(f"expected {b} labels, got shape {y.shape}")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if ws is None:
        ws = _Workspace(b, config, train=True)
    elif not ws.train:
        raise ValueError("loss_and_grad needs a training workspace")

    tr = _forward_batch(x, params, config, ws)
    logp = _log_softmax(tr.logits)
    loss = float(-logp[np.arange(b), y].mean())

    grads = ws.grads  # every slot is written below, or stays zero

    dlogits = np.exp(logp)
    dlogits[np.arange(b), y] -= 1.0
    dlogits /= b

    # MLP backward
    da = dlogits
    acts = tr.mlp_acts
    for i in range(len(params.mlp_weights) - 1, -1, -1):
        a_prev = acts[i]
        grads.mlp_weights[i][...] = a_prev.T @ da
        grads.mlp_biases[i][...] = da.sum(axis=0)
        if i > 0:
            da = (da @ params.mlp_weights[i].T) * (1.0 - acts[i] * acts[i])
        else:
            da = da @ params.mlp_weights[i].T

    dz, dcenters = _readout_backward(da, tr, params, config)
    if dcenters is not None:
        grads.centers[...] = dcenters

    for i in range(len(params.layers) - 1, -1, -1):
        shared = i + 1 < len(ws.layers) and ws.layers[i].qkv is ws.layers[i + 1].qkv
        dz = _mhsa_backward(dz, params.layers[i], tr.caches[i], grads.layers[i], ws, i > 0, shared)

    return loss, grads


def _forward_flops(config: ModelConfig) -> int:
    """FLOPs of one graph's forward in its matrix products: per attention layer
    the Q/K/V projections, scores, attention times V and the output
    projection, then the clustering readout and the MLP."""
    v, mh = config.nodes, config.heads * config.head_dim
    widths = [config.input_width] + [v] * (config.layers - 1)
    flops = sum(2 * v * mh * (3 * w + 3 * v) for w in widths)
    if config.readout is Readout.OCREAD:
        flops += 4 * v * v * config.clusters
    mlp = [config.flat_dim, *config.mlp_hidden, 2]
    return flops + sum(2 * a * b for a, b in zip(mlp, mlp[1:]))


def gather_float64(matrices, rows) -> np.ndarray:
    """``matrices[rows]`` as a new float64 array: ``matrices`` is an (N, V, V)
    array or a row source (``data.FileMatrices``, read a record at a time),
    and each matrix is widened as it is copied in, so no gathered copy in
    the stored dtype is made.  At V=200 a 64-graph float32 copy, though
    freed before the step, kept 8 MiB more resident in a ``train`` run."""
    out = np.empty((len(rows),) + matrices.shape[1:])
    for i, row in enumerate(rows):
        out[i] = matrices[row]
    return out


@blas_threads(1)
def score_chunks(graphs, params: ModelParams, config: ModelConfig, jobs: int = 1, take=None):
    """``(rows, logits, assignment)`` per chunk of ``graphs`` ((N, V, V) of any
    real dtype, a row source such as ``data.FileMatrices``, or a list of N
    matrices, stacked once), in order: a chunk is one attention block of
    graphs (``_blocks``), ``rows`` slices ``graphs`` and ``assignment`` is
    the chunk's soft assignment or None.  With an index array ``take``, the
    graphs are ``graphs[take]`` and ``rows`` slices ``take``.  Each chunk is
    gathered and widened to float64 when it is scored (``gather_float64``),
    so a pass holds a chunk of a dataset file, never the file.

    The chunks run in up to ``jobs`` lanes (``workers.lane_cap``), no more
    lanes than chunks, lane i taking chunks i, i + lanes, ..., each lane
    through one workspace of its own, so no attention, q/k/v or layer output
    is kept.  The first failing chunk in chunk order raises, once every lane
    has ended.  A chunk's graphs and matrix shapes do not depend on ``jobs``,
    and BLAS runs on one thread, so neither do its bytes."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    x = graphs if hasattr(graphs, "shape") else np.asarray(graphs)
    if take is None:
        take = range(len(x))
    chunks = _blocks(len(take), config.heads, config.nodes)
    lanes = min(lane_cap(jobs), len(chunks))
    results, failures = [None] * len(chunks), {}

    def lane(first, ws):
        for i in range(first, len(chunks), lanes):
            rows = chunks[i]
            try:
                tr = _forward_batch(gather_float64(x, take[rows]), params, config, ws)
            except Exception as exc:  # this lane stops; its later chunks cannot fail first
                failures[i] = exc
                return
            results[i] = rows, tr.logits, tr.assignment

    # the workspaces are built here, before the lanes start: with lanes that
    # built their own, a V=200 train run (validation passes in two lanes)
    # peaked at 539.4 MiB, against 532.9 MiB
    run_lanes([partial(lane, i, _Workspace(chunks[0].stop, config)) for i in range(lanes)], lanes)
    if failures:
        raise failures[min(failures)]
    return results


def predict_proba(graphs, params: ModelParams, config: ModelConfig, jobs: int = 1,
                  take=None) -> np.ndarray:
    """P(class 1) for each graph (of ``graphs[take]`` with ``take``), scored by
    ``score_chunks`` in up to ``jobs`` lanes; the result does not depend on
    ``jobs``, and is that of ``graphs`` widened up front.  Memory per lane is
    one chunk's whatever the graph or layer count: its inputs widened to
    float64 and its features, plus a workspace of (3·M·head_dim +
    2·max(V, M·head_dim))·V floats per graph and the chunk's attention (256
    KiB, or one graph's M·V·V floats where that is larger); the pass adds its
    n·(2 + V·K) result floats."""
    out = np.empty(len(graphs) if take is None else len(take))
    for rows, logits, _ in score_chunks(graphs, params, config, jobs, take):
        out[rows] = linalg.sigmoid(logits[:, 1] - logits[:, 0])
    return out
