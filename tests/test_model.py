"""Attention model: forward hand cases, readouts, gradients, predictions."""

import math
import multiprocessing
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import bnt.model
import bnt.training
import bnt.workers
from _oracles import (
    adam_per_tensor,
    batch_loss,
    batch_loss_reference,
    finite_difference_grads,
    max_relative_error,
    readout_backward_whole_batch,
)
from bnt.linalg import sigmoid
from bnt.model import (
    AttentionLayerParams,
    CentersMode,
    FeatureMode,
    ModelConfig,
    ModelParams,
    Readout,
    baseline_readout,
    forward,
    init_params,
    loss_and_grad,
    node_feature,
    ocread,
    param_count,
    param_layout,
    predict_proba,
    trainable_names,
    trainable_spans,
)
from bnt.rng import Rng
from bnt.training import TrainConfig, adam_step, AdamState


def _correlation_input(v, seed, t=40):
    series = Rng(seed).normal(v * t).reshape(v, t)
    x = np.corrcoef(series)
    np.fill_diagonal(x, 1.0)
    return x


def _loss_and_grad(batch, params, config, **kwargs):
    """loss_and_grad over (matrix, label) pairs, the batch form the oracles take."""
    return loss_and_grad(np.array([x for x, _ in batch]), params, config, [y for _, y in batch], **kwargs)


def _small_config(readout, centers, v=6):
    return ModelConfig(
        nodes=v,
        layers=1,
        heads=2,
        clusters=2,
        mlp_hidden=(5, 3),
        readout=readout,
        centers_mode=centers,
    )


# ---------------------------------------------------------------------------
# configuration


def test_head_dim_defaults_to_ceiling():
    assert ModelConfig(nodes=32, heads=4).head_dim == 8
    assert ModelConfig(nodes=33, heads=4).head_dim == 9
    assert ModelConfig(nodes=3, heads=4).head_dim == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(nodes=0),
        dict(nodes=4, layers=0),
        dict(nodes=4, heads=0),
        dict(nodes=4, clusters=0),
        dict(nodes=4, clusters=5),  # exceeds nodes for the clustering readout
        dict(nodes=4, mlp_hidden=(8, 0)),
        dict(nodes=4, feature_mode=FeatureMode.PROFILE_EIGEN, k_eigen=0),
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        ModelConfig(**kwargs).validate()


def test_trainable_names_freeze_centers_except_learnable():
    for centers, frozen in (
        (CentersMode.ORTHONORMAL, True),
        (CentersMode.RANDOM_UNIT, True),
        (CentersMode.LEARNABLE, False),
    ):
        names = trainable_names(_small_config(Readout.OCREAD, centers))
        assert ("centers" not in names) == frozen
    # centers are irrelevant to non-clustering readouts
    assert "centers" not in trainable_names(_small_config(Readout.MEAN, CentersMode.LEARNABLE))


# ---------------------------------------------------------------------------
# node features


def test_node_feature_shapes_and_content():
    x = _correlation_input(5, seed=1)
    prof = node_feature(x, FeatureMode.PROFILE)
    assert np.array_equal(prof, x)
    with_id = node_feature(x, FeatureMode.PROFILE_IDENTITY)
    assert with_id.shape == (5, 10)
    assert np.array_equal(with_id[:, :5], x)
    assert np.array_equal(with_id[:, 5:], np.eye(5))


@pytest.mark.parametrize("mode", list(FeatureMode))
def test_node_feature_of_a_batch_matches_each_graph(mode):
    batch = np.stack([_correlation_input(6, seed=s) for s in range(6)]).reshape(2, 3, 6, 6)
    out = node_feature(batch, mode, k_eigen=2)
    for index in np.ndindex(2, 3):
        assert np.array_equal(out[index], node_feature(batch[index], mode, k_eigen=2))


def test_node_feature_eigen_columns_are_eigenvectors():
    x = _correlation_input(6, seed=2)
    out = node_feature(x, FeatureMode.PROFILE_EIGEN, k_eigen=2)
    assert out.shape == (6, 8)
    vals = np.sort(np.linalg.eigvalsh(x))[::-1]
    for i in range(2):
        vec = out[:, 6 + i]
        assert np.allclose(x @ vec, vals[i] * vec, atol=1e-8)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# attention layer hand cases


def mhsa_layer(z_prev, layer: AttentionLayerParams) -> np.ndarray:
    """One multi-head self-attention layer applied to a single graph."""
    z_prev = np.asarray(z_prev, dtype=np.float64)
    m, hd, _ = layer.w_query.shape
    v = len(z_prev)
    buffers = bnt.model._LayerBuffers(1, v, m, hd, (1, 1, m, v, v))
    out, _ = bnt.model._mhsa_forward(z_prev[None], layer, buffers)
    return out[0]


def _identity_layer(v, zero_qk=False):
    eye = np.eye(v)[None]  # one head, head_dim == v
    scale = 0.0 if zero_qk else 1.0
    return AttentionLayerParams(
        w_query=eye * scale,
        w_key=eye * scale,
        w_value=eye.copy(),
        w_output=np.eye(v),
    )


def test_mhsa_identity_weights_hand_value():
    # z = I with identity projections: scores = I/sqrt(2); each row of the
    # attention matrix is softmax([1/sqrt(2), 0]) in some order.
    z = np.eye(2)
    out = mhsa_layer(z, _identity_layer(2))
    a = math.exp(1.0 / math.sqrt(2.0)) / (math.exp(1.0 / math.sqrt(2.0)) + 1.0)
    expected = np.array([[a, 1.0 - a], [1.0 - a, a]])
    assert np.allclose(out, expected, atol=1e-12)


def test_mhsa_zero_queries_average_rows():
    # zero Q/K means uniform attention: every output row is the mean row
    z = Rng(3).normal(4 * 4).reshape(4, 4)
    out = mhsa_layer(z, _identity_layer(4, zero_qk=True))
    assert np.allclose(out, np.tile(z.mean(axis=0), (4, 1)), atol=1e-12)


def test_mhsa_permutation_consistency():
    # with node-symmetric weights, permuting nodes permutes the output
    v = 4
    z = Rng(4).normal(v * v).reshape(v, v)
    perm = np.array([2, 0, 3, 1])
    p = np.eye(v)[perm]
    layer = _identity_layer(v, zero_qk=True)
    direct = mhsa_layer(p @ z @ p.T, layer)
    routed = p @ mhsa_layer(z, layer) @ p.T
    assert np.allclose(direct, routed, atol=1e-12)


# ---------------------------------------------------------------------------
# readouts


def test_ocread_single_node_hand_value():
    z = np.array([[1.0]])
    centers = np.array([[1.0], [0.0]])
    pooled, assignment = ocread(z, centers)
    e = math.e
    assert np.allclose(assignment, [[e / (e + 1.0), 1.0 / (e + 1.0)]], atol=1e-15)
    assert np.allclose(pooled, [[e / (e + 1.0)], [1.0 / (e + 1.0)]], atol=1e-15)


def test_ocread_assignment_rows_sum_to_one():
    z = Rng(5).normal(6 * 6).reshape(6, 6)
    centers = Rng(6).normal(3 * 6).reshape(3, 6)
    pooled, assignment = ocread(z, centers)
    assert assignment.shape == (6, 3)
    assert pooled.shape == (3, 6)
    assert np.allclose(assignment.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(pooled, assignment.T @ z, atol=1e-12)


def test_baseline_readouts_hand_values():
    z = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert np.allclose(baseline_readout(z, Readout.MEAN), [2.0, 1.0])
    assert np.allclose(baseline_readout(z, Readout.MAX), [3.0, 4.0])
    assert np.allclose(baseline_readout(z, Readout.SUM), [4.0, 2.0])
    assert np.allclose(baseline_readout(z, Readout.CONCAT), [1.0, -2.0, 3.0, 4.0])


def test_readouts_treat_leading_axes_as_batch():
    z = Rng(7).normal(2 * 3 * 5 * 5).reshape(2, 3, 5, 5)
    centers = Rng(8).normal(2 * 5).reshape(2, 5)
    pooled, assignment = ocread(z, centers)
    for i in np.ndindex(2, 3):
        one_pooled, one_assignment = ocread(z[i], centers)
        assert np.array_equal(pooled[i], one_pooled)
        assert np.array_equal(assignment[i], one_assignment)
        for kind in (Readout.MEAN, Readout.SUM, Readout.MAX, Readout.CONCAT):
            assert np.array_equal(baseline_readout(z, kind)[i], baseline_readout(z[i], kind))


# ---------------------------------------------------------------------------
# initialization


def test_init_centers_respect_mode():
    config = _small_config(Readout.OCREAD, CentersMode.ORTHONORMAL, v=8)
    params = init_params(config, Rng(0))
    e = params.centers
    assert np.abs(e @ e.T - np.eye(config.clusters)).max() < 1e-10

    config_r = _small_config(Readout.OCREAD, CentersMode.RANDOM_UNIT, v=8)
    params_r = init_params(config_r, Rng(0))
    norms = np.linalg.norm(params_r.centers, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    # unit rows alone are not orthonormalized rows
    assert np.abs(params_r.centers @ params_r.centers.T - np.eye(config.clusters)).max() > 1e-6


def test_init_deterministic():
    config = _small_config(Readout.OCREAD, CentersMode.LEARNABLE)
    a = init_params(config, Rng(9))
    b = init_params(config, Rng(9))
    for (name_a, ta), (name_b, tb) in zip(a.named_tensors(), b.named_tensors()):
        assert name_a == name_b
        assert np.array_equal(ta, tb)


def test_named_tensors_are_views_of_the_vector_in_declaration_order():
    config = ModelConfig(nodes=6, layers=2, heads=2, clusters=3, mlp_hidden=(5, 4),
                         feature_mode=FeatureMode.PROFILE_IDENTITY)
    params = init_params(config, Rng(1))
    names = [f"layers.{i}.{t}" for i in range(2) for t in ("w_query", "w_key", "w_value", "w_output")]
    names += ["centers"] + [f"mlp.{i}.{t}" for i in range(3) for t in ("weight", "bias")]
    assert [name for name, _ in params.named_tensors()] == names
    offset = 0
    for (name, t), (_, shape, span) in zip(params.named_tensors(), param_layout(config)):
        assert t.shape == shape and span == slice(offset, offset + t.size), name
        assert np.shares_memory(t, params.vector), name
        assert t.ctypes.data == params.vector.ctypes.data + 8 * offset, name
        offset += t.size
    assert offset == param_count(config) == params.vector.size
    views = dict(params.named_tensors())
    assert views["layers.1.w_key"] is params.layers[1].w_key and views["centers"] is params.centers
    assert views["mlp.2.weight"] is params.mlp_weights[2] and views["mlp.2.bias"] is params.mlp_biases[2]
    with pytest.raises(ValueError, match=f"expected {offset} parameters"):
        ModelParams(np.zeros(offset + 1), config)


def test_initial_loss_near_coin_flip():
    config = ModelConfig(nodes=8)
    params = init_params(config, Rng(1))
    batch = [(_correlation_input(8, seed=s), s % 2) for s in range(4)]
    assert abs(batch_loss(batch, params, config) - math.log(2.0)) < 0.05


# ---------------------------------------------------------------------------
# losses and gradients


def test_batch_loss_matches_reference_path():
    config = _small_config(Readout.OCREAD, CentersMode.LEARNABLE)
    params = init_params(config, Rng(2))
    batch = [(_correlation_input(6, seed=s), s % 2) for s in range(3)]
    fast = batch_loss(batch, params, config)
    slow = batch_loss_reference(batch, params, config)
    assert abs(fast - slow) < 1e-12


def test_loss_and_grad_value_matches_batch_loss():
    config = _small_config(Readout.CONCAT, CentersMode.ORTHONORMAL)
    params = init_params(config, Rng(3))
    batch = [(_correlation_input(6, seed=s), s % 2) for s in range(2)]
    loss, _ = _loss_and_grad(batch, params, config)
    assert abs(loss - batch_loss_reference(batch, params, config)) < 1e-12


@pytest.mark.parametrize(
    "readout,centers",
    [
        (Readout.OCREAD, CentersMode.LEARNABLE),
        (Readout.MAX, CentersMode.ORTHONORMAL),
        (Readout.CONCAT, CentersMode.RANDOM_UNIT),
    ],
)
def test_gradients_match_finite_differences(readout, centers):
    config = _small_config(readout, centers)
    params = init_params(config, Rng(4))
    batch = [(_correlation_input(6, seed=10 + s), s % 2) for s in range(2)]
    _, grads = _loss_and_grad(batch, params, config)
    numeric = finite_difference_grads(batch, params, config)
    trainable = trainable_names(config)
    grad_map = dict(grads.named_tensors())
    for name in sorted(trainable):
        err = max_relative_error(grad_map[name], numeric[name])
        assert err < 1e-4, f"{name}: {err}"


def _one_graph_blocks(monkeypatch):
    # Test graphs are small enough for one attention block per batch;
    # a budget of one byte makes every graph its own block.
    monkeypatch.setattr(bnt.model, "_ATTN_BLOCK_BYTES", 1)


def _chunks_of(monkeypatch, graphs, config):
    # the attention block budget whose blocks, and so scoring chunks, hold
    # ``graphs`` graphs of ``config``
    monkeypatch.setattr(bnt.model, "_ATTN_BLOCK_BYTES", graphs * 8 * config.heads * config.nodes**2)


def _head_dim(kind, v, m):
    """head_dim at the default width, or with M·head_dim below or above V: the
    in-place backward keeps V or M·head_dim columns in one buffer."""
    return {"default": None, "narrow": max(1, v // (2 * m)), "wide": -(-v // m) + 2}[kind]


def _assert_attention_gradients_by_directions(batch, params, config, grads, h=1e-5):
    # each attention tensor's gradient along a random direction against the
    # central difference of ``batch_loss``, a scoring forward that shares no
    # array with the backward: a gradient written over an array before its
    # last read shows as a wrong derivative, not only as other bits
    grad_map, rng = dict(grads.named_tensors()), np.random.default_rng(0)
    for name, tensor in params.named_tensors():
        if name.startswith("layers."):
            d, saved = rng.standard_normal(tensor.shape), tensor.copy()
            d /= np.linalg.norm(d)
            tensor[...] = saved + h * d
            up = batch_loss(batch, params, config)
            tensor[...] = saved - h * d
            down = batch_loss(batch, params, config)
            tensor[...] = saved
            numeric, analytic = (up - down) / (2 * h), float((grad_map[name] * d).sum())
            assert abs(numeric - analytic) <= 1e-4 * abs(analytic) + 1e-9, (name, numeric, analytic)


def test_attention_blocks_change_no_bit(monkeypatch):
    config = _small_config(Readout.OCREAD, CentersMode.LEARNABLE)
    params = init_params(config, Rng(4))
    batch = [(_correlation_input(6, seed=60 + s), s % 2) for s in range(5)]
    loss, grads = _loss_and_grad(batch, params, config)
    _one_graph_blocks(monkeypatch)
    blocked_loss, blocked_grads = _loss_and_grad(batch, params, config)
    assert blocked_loss == loss
    for (name, g), (_, blocked) in zip(grads.named_tensors(), blocked_grads.named_tensors()):
        assert np.array_equal(blocked, g), name


def test_gradients_match_finite_differences_in_one_graph_blocks(monkeypatch):
    _one_graph_blocks(monkeypatch)
    config = _small_config(Readout.OCREAD, CentersMode.LEARNABLE)
    params = init_params(config, Rng(4))
    batch = [(_correlation_input(6, seed=10 + s), s % 2) for s in range(3)]
    _, grads = _loss_and_grad(batch, params, config)
    numeric = finite_difference_grads(batch, params, config)
    grad_map = dict(grads.named_tensors())
    for name in sorted(trainable_names(config)):
        err = max_relative_error(grad_map[name], numeric[name])
        assert err < 1e-4, f"{name}: {err}"


@pytest.mark.parametrize("head_dim", [2, 4], ids=["narrow", "wide"])
def test_gradients_match_finite_differences_through_three_layers_in_lanes(monkeypatch, head_dim):
    # M·head_dim 4 < V = 6 and 8 > V, so each layer's gradients take its dead
    # forward buffers in both layouts; two lanes of one-graph blocks whose
    # attention the backward recomputes
    monkeypatch.setattr(bnt.model, "_LANES_MIN_FLOPS", 0)
    monkeypatch.setattr(bnt.model, "_ATTN_STORE_BYTES", 0)
    _one_graph_blocks(monkeypatch)
    config = ModelConfig(nodes=6, layers=3, heads=2, head_dim=head_dim, clusters=2, mlp_hidden=(5, 3),
                         centers_mode=CentersMode.LEARNABLE)
    params = init_params(config, Rng(4))
    batch = [(_correlation_input(6, seed=10 + s), s % 2) for s in range(3)]
    ws = bnt.model._Workspace(3, config, train=True, lanes=2)
    assert ws.lanes == 2 and all(layer.attn.shape == (2, 1, 2, 6, 6) for layer in ws.layers)
    _, grads = _loss_and_grad(batch, params, config, ws=ws)
    numeric = finite_difference_grads(batch, params, config)
    grad_map = dict(grads.named_tensors())
    for name in sorted(trainable_names(config)):
        err = max_relative_error(grad_map[name], numeric[name])
        assert err < 1e-4, f"{name}: {err}"


_WORKSPACE_SHAPES = [(v, layers) for v in (6, 32, 48) for layers in (1, 2, 3)]


@pytest.mark.parametrize(
    "case", range(len(Readout) * len(FeatureMode)),
    ids=[f"{r.value}-{f.value}" for r in Readout for f in FeatureMode],
)
@pytest.mark.parametrize("head_dim", ["default", "narrow", "wide"])
def test_a_reused_training_workspace_changes_no_bit(case, head_dim):
    # 64, 24, 64 graphs: a stale buffer from a larger batch, or an input
    # gradient that is not cleared between layers or calls, would show
    readout = list(Readout)[case // len(FeatureMode)]
    features = list(FeatureMode)[case % len(FeatureMode)]
    v, layers = _WORKSPACE_SHAPES[case % len(_WORKSPACE_SHAPES)]
    config = ModelConfig(nodes=v, layers=layers, heads=4, head_dim=_head_dim(head_dim, v, 4), clusters=3,
                         mlp_hidden=(8,), readout=readout, centers_mode=CentersMode.LEARNABLE,
                         feature_mode=features, k_eigen=3)
    params = init_params(config, Rng(11))
    graphs = [_correlation_input(v, seed=80 + s) for s in range(64)]
    ws = bnt.model._Workspace(64, config, train=True)
    for step, b in enumerate((64, 24, 64)):
        batch = [(graphs[(i + 5 * step) % 64], (i + step) % 2) for i in range(b)]
        loss, grads = _loss_and_grad(batch, params, config, ws=ws)
        fresh_loss, fresh = _loss_and_grad(batch, params, config)
        assert loss == fresh_loss, step
        for (name, g), (_, f) in zip(grads.named_tensors(), fresh.named_tensors()):
            assert np.array_equal(g, f), (step, name)
        if step == 1:
            _assert_attention_gradients_by_directions(batch, params, config, grads)
        for (_, t), (_, g) in zip(params.named_tensors(), grads.named_tensors()):
            t -= 0.1 * g  # the next step runs on other weights


def test_loss_and_grad_refuses_a_scoring_or_small_workspace():
    config = _small_config(Readout.MEAN, CentersMode.ORTHONORMAL)
    params = init_params(config, Rng(5))
    batch = [(_correlation_input(6, seed=s), s % 2) for s in range(3)]
    with pytest.raises(ValueError, match="training workspace"):
        _loss_and_grad(batch, params, config, ws=bnt.model._Workspace(3, config))
    with pytest.raises(ValueError, match="workspace holds 2 graphs"):
        _loss_and_grad(batch, params, config, ws=bnt.model._Workspace(2, config, train=True))


def test_a_training_workspace_reuses_one_gradient_vector():
    config = _small_config(Readout.OCREAD, CentersMode.ORTHONORMAL)
    params = init_params(config, Rng(5))
    ws = bnt.model._Workspace(3, config, train=True)
    batch = [(_correlation_input(6, seed=s), s % 2) for s in range(3)]
    first = _loss_and_grad(batch, params, config, ws=ws)[1].vector
    assert _loss_and_grad(batch[:2], params, config, ws=ws)[1].vector is first is ws.grads.vector


_STORE = 2**62  # an attention-store budget that every workspace fits


# Every GEMM shape a step issues: V from one attention block of several graphs
# (12, 16, 32) to one graph per block (64, 128, 200), a full and a partial batch
# (1 graph at V=200), and all input widths.
_THREAD_CASES = [(12, 8), (16, 8), (32, 8), (64, 6), (128, 3), (200, 3)]


@pytest.mark.parametrize("v, batch", _THREAD_CASES, ids=[f"v{v}" for v, _ in _THREAD_CASES])
@pytest.mark.parametrize("features", list(FeatureMode))
@pytest.mark.parametrize("readout", [Readout.OCREAD, Readout.MEAN])
@pytest.mark.parametrize("head_dim", ["default", "narrow", "wide"])
def test_bytes_do_not_depend_on_lanes_or_blas_threads(monkeypatch, head_dim, readout, features, v, batch):
    # also not on whether the backward reads stored attention or recomputes it;
    # the first step's gradients are checked against the forward too
    monkeypatch.setattr(bnt.model, "_LANES_MIN_FLOPS", 0)  # lanes at every size
    config = ModelConfig(nodes=v, head_dim=_head_dim(head_dim, v, 4), readout=readout,
                         centers_mode=CentersMode.LEARNABLE, feature_mode=features, k_eigen=4)
    params = init_params(config, Rng(13))
    x = np.stack([_correlation_input(v, seed=200 + s) for s in range(batch)])
    y = np.arange(batch) % 2
    partial = 1 if v == 200 else batch // 2 + 1
    runs = []
    for lanes, threads, store in ((1, 1, _STORE), (2, 2, _STORE), (1, 2, _STORE), (1, 1, 0), (2, 1, 0)):
        monkeypatch.setattr(bnt.model, "_ATTN_STORE_BYTES", store)
        ws = bnt.model._Workspace(batch, config, train=True, lanes=lanes)
        assert ws.lanes == lanes
        assert all((layer.attn.ndim == 4) == bool(store) for layer in ws.layers)
        with bnt.workers.blas_threads(threads):
            steps = []
            for b in (batch, partial):
                loss, grads = loss_and_grad(x[:b], params, config, y[:b], ws=ws)
                steps.append((loss, grads.vector.tobytes()))
                if not runs and b == batch:
                    _assert_attention_gradients_by_directions(list(zip(x, y)), params, config, grads)
            with monkeypatch.context() as patch:  # the last chunk partial
                _chunks_of(patch, batch - 1, config)
                steps.append(predict_proba(x, params, config, jobs=lanes).tobytes())
        runs.append(steps)
    for run in runs[1:]:
        assert run == runs[0]


@pytest.mark.parametrize("v", [7, 12, 32, 200])
@pytest.mark.parametrize("readout", list(Readout))
def test_the_one_graph_readout_add_gives_the_bytes_of_the_whole_batch_add(monkeypatch, readout, v):
    monkeypatch.setattr(bnt.model, "_LANES_MIN_FLOPS", 0)  # lanes at every size
    batch = 2 if v == 200 else 6
    x = np.stack([_correlation_input(v, seed=300 + s) for s in range(batch)])
    y = np.arange(batch) % 2
    for centers in CentersMode:
        config = ModelConfig(nodes=v, clusters=3, mlp_hidden=(8,), readout=readout, centers_mode=centers)
        params = init_params(config, Rng(17))
        for lanes in (1, 2):
            runs = []
            for backward in (bnt.model._readout_backward, readout_backward_whole_batch):
                with monkeypatch.context() as patch:
                    patch.setattr(bnt.model, "_readout_backward", backward)
                    ws = bnt.model._Workspace(batch, config, train=True, lanes=lanes)
                    loss, grads = loss_and_grad(x, params, config, y, ws=ws)
                    runs.append((loss, grads.vector.tobytes()))
            assert runs[0] == runs[1], (centers, lanes)


def test_more_lanes_than_cores_with_fast_thread_switches_change_no_bit(monkeypatch):
    # one graph per attention block, so 4 lanes share 9 blocks; a lane that
    # wrote into another's arrays would change bits under frequent switches
    monkeypatch.setattr(bnt.model, "_LANES_MIN_FLOPS", 0)
    monkeypatch.setattr(bnt.model, "_ATTN_BLOCK_BYTES", 0)
    config = ModelConfig(nodes=16, heads=2, clusters=3, mlp_hidden=(8,), centers_mode=CentersMode.LEARNABLE)
    params = init_params(config, Rng(17))
    x = np.stack([_correlation_input(16, seed=300 + s) for s in range(9)])
    y = np.arange(9) % 2

    def step(lanes):
        loss, grads = loss_and_grad(x, params, config, y, ws=bnt.model._Workspace(9, config, True, lanes))
        return loss, grads.vector.tobytes()

    expected = step(1)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for store in (_STORE, 0):  # each lane's attention block is its own when recomputing too
            monkeypatch.setattr(bnt.model, "_ATTN_STORE_BYTES", store)
            for _ in range(5):
                assert step(4) == expected
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads  # the lanes have ended


def test_each_lane_writes_its_dq_product_into_its_own_memory(monkeypatch):
    # a shared dQ block is a race that changes bits only when GEMMs are long
    # enough (V >= 64); the targets themselves show it at any size
    monkeypatch.setattr(bnt.model, "_LANES_MIN_FLOPS", 0)
    monkeypatch.setattr(bnt.model, "_ATTN_BLOCK_BYTES", 0)
    config = ModelConfig(nodes=16, heads=2, clusters=3, mlp_hidden=(8,))
    params = init_params(config, Rng(17))
    x = np.stack([_correlation_input(16, seed=300 + s) for s in range(9)])
    local, targets, real_run_lanes = threading.local(), {}, bnt.model.run_lanes

    def as_lane(lane, task):
        local.lane = lane
        try:
            task()
        finally:
            local.lane = None

    def run_lanes(tasks, lanes):
        real_run_lanes([lambda i=i, t=t: as_lane(i, t) for i, t in enumerate(tasks)], lanes)

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(*args, out=None):
            if out is not None and np.shares_memory(out, ws.dq):
                targets.setdefault(local.lane, []).append(out)
            return np.matmul(*args, out=out)

    monkeypatch.setattr(bnt.model, "run_lanes", run_lanes)
    monkeypatch.setattr(bnt.model, "np", RecordingNumpy())
    for store in (_STORE, 0):
        monkeypatch.setattr(bnt.model, "_ATTN_STORE_BYTES", store)
        targets.clear()
        ws = bnt.model._Workspace(9, config, True, 4)
        loss_and_grad(x, params, config, np.arange(9) % 2, ws=ws)
        assert sorted(targets) == [0, 1, 2, 3]  # 9 one-graph blocks over 4 lanes
        for lane, other in ((a, b) for a in targets for b in targets if a < b):
            for mine in targets[lane]:
                assert not any(np.shares_memory(mine, theirs) for theirs in targets[other]), (lane, other)


def test_a_warm_training_workspace_allocates_a_quarter_of_a_step(monkeypatch):
    config = ModelConfig(nodes=32, heads=4, clusters=4)
    params = init_params(config, Rng(12))
    batch = [(_correlation_input(32, seed=90 + s), s % 2) for s in range(64)]
    for store in (_STORE, 0):  # V=32 stores its attention by default; also recompute it
        monkeypatch.setattr(bnt.model, "_ATTN_STORE_BYTES", store)
        ws = bnt.model._Workspace(64, config, train=True)
        _loss_and_grad(batch, params, config, ws=ws)
        peaks = []
        for kwargs in ({}, {"ws": ws}):
            tracemalloc.start()
            try:
                _loss_and_grad(batch, params, config, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 0.25 * peaks[0], (store, peaks)


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("head_dim", ["narrow", "default", "wide"])
def test_a_shared_qkv_buffer_gives_the_bytes_of_stored_attention(monkeypatch, head_dim, lanes, layers):
    # recomputed attention: one Q/K/V array for every layer, each layer below
    # the last projected again in the backward, at 3 layers the middle one from
    # the first layer's output; a full then a partial batch through one workspace
    monkeypatch.setattr(bnt.model, "_LANES_MIN_FLOPS", 0)
    config = ModelConfig(nodes=12, layers=layers, heads=4, head_dim=_head_dim(head_dim, 12, 4), clusters=3,
                         mlp_hidden=(8,), centers_mode=CentersMode.LEARNABLE)
    params = init_params(config, Rng(19))
    x = np.stack([_correlation_input(12, seed=400 + s) for s in range(5)])
    y = np.arange(5) % 2
    runs = []
    for store in (_STORE, 0):
        monkeypatch.setattr(bnt.model, "_ATTN_STORE_BYTES", store)
        ws = bnt.model._Workspace(5, config, train=True, lanes=lanes)
        assert ws.lanes == lanes
        assert all((layer.qkv is ws.layers[0].qkv) == (not store) for layer in ws.layers[1:])
        steps = []
        for b in (5, 3):
            loss, grads = loss_and_grad(x[:b], params, config, y[:b], ws=ws)
            steps.append((loss, grads.vector.tobytes()))
        runs.append(steps)
    assert runs[1] == runs[0]


def _workspace_arrays(ws):
    """Every buffer of a training workspace, each counted once however many views of it it holds."""
    arrays = [a for holder in (ws, *ws.layers) for a in vars(holder).values() if isinstance(a, np.ndarray)]
    bases = [a if a.base is None else a.base for a in [*arrays, ws.grads.vector]]
    return list({id(a): a for a in bases}.values())


def test_a_large_training_workspace_stores_no_attention(monkeypatch):
    # V=200, B=64: 78 MiB of attention per layer, recomputed in the backward,
    # and one Q/K/V array (59 MiB) that both layers share, since the backward
    # projects the first layer's again; V=32, B=64: 2 MiB of attention per
    # layer, kept with each layer's own Q/K/V, so those steps run as they always have
    maps, qkv = 8 * 64 * 4 * 200 * 200, 8 * 3 * 64 * 200 * 200
    config = ModelConfig(nodes=200)
    ws = bnt.model._Workspace(64, config, train=True, lanes=2)
    arrays = _workspace_arrays(ws)
    assert not any(a.shape[-4:] == (64, 4, 200, 200) for a in arrays)
    assert [layer.attn.shape for layer in ws.layers] == [(2, 1, 4, 200, 200)] * 2  # one block per lane
    assert ws.layers[0].qkv is ws.layers[1].qkv
    monkeypatch.setattr(bnt.model, "_ATTN_STORE_BYTES", _STORE)
    stored_ws = bnt.model._Workspace(64, config, train=True, lanes=2)
    assert stored_ws.layers[0].qkv is not stored_ws.layers[1].qkv
    stored = _workspace_arrays(stored_ws)
    one_block = ws.dattn[0, 0].nbytes
    assert sum(a.nbytes for a in stored) - sum(a.nbytes for a in arrays) == 2 * maps - 4 * one_block + qkv
    assert sum(a.nbytes for a in arrays) <= 152 * 2**20  # 361 MiB with both layers' maps and Q/K/V
    # no whole-batch array but the layers' forward buffers and the gradient
    # vector: the gradients take those, beside one block's dattn and dq per lane
    layers = {id(a) for layer in ws.layers for a in vars(layer).values()} | {id(ws.grads.vector)}
    scratch = [a for a in arrays if id(a) not in layers]
    assert sum(a.nbytes for a in scratch) == 2 * (2 * one_block + 8 * 200 * 200)
    assert [sorted(vars(layer)) for layer in ws.layers] == [["attn", "h", "out", "qkv"]] * 2
    monkeypatch.undo()
    small = bnt.model._Workspace(64, ModelConfig(nodes=32), train=True)
    assert [layer.attn.shape for layer in small.layers] == [(64, 4, 32, 32)] * 2
    assert small.layers[0].qkv is not small.layers[1].qkv
    # np.empty touches no page, so a V=360 workspace costs its sizes alone here
    large = bnt.model._Workspace(64, ModelConfig(nodes=360), train=True, lanes=2)
    assert large.lanes == 2 and sum(a.nbytes for a in _workspace_arrays(large)) <= 488 * 2**20


def test_loss_and_grad_rejects_bad_labels():
    config = _small_config(Readout.MEAN, CentersMode.ORTHONORMAL)
    params = init_params(config, Rng(5))
    with pytest.raises(ValueError):
        _loss_and_grad([(_correlation_input(6, seed=0), 2)], params, config)
    x = np.array([_correlation_input(6, seed=s) for s in range(3)])
    for labels in ([0, 1], [[0, 1, 0]], [1]):  # one label per graph, no broadcasting
        with pytest.raises(ValueError, match="expected 3 labels"):
            loss_and_grad(x, params, config, labels)


def test_forward_rejects_non_finite_input():
    config = _small_config(Readout.MEAN, CentersMode.ORTHONORMAL)
    params = init_params(config, Rng(5))
    bad = _correlation_input(6, seed=0)
    bad[0, 1] = np.nan
    with pytest.raises(ValueError):
        forward(bad, params, config)


# ---------------------------------------------------------------------------
# optimization behavior


def _take_adam_steps(config, params, batch, steps=25, lr=3e-3):
    tc = TrainConfig(lr=lr, weight_decay=0.0)
    spans = trainable_spans(config)
    state = AdamState(np.zeros_like(params.vector), np.zeros_like(params.vector))
    for _ in range(steps):
        _, grads = _loss_and_grad(batch, params, config)
        adam_step(params.vector, grads.vector, state, tc, spans)


@pytest.mark.parametrize("adam_slice", [bnt.training._ADAM_SLICE, 7])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
@pytest.mark.parametrize("centers", [CentersMode.ORTHONORMAL, CentersMode.LEARNABLE])
def test_flat_adam_matches_the_per_tensor_reference(centers, weight_decay, adam_slice, monkeypatch):
    # frozen orthonormal centers leave a hole between the attention and MLP
    # spans; slices of 7 floats end inside tensors and spans
    monkeypatch.setattr(bnt.training, "_ADAM_SLICE", adam_slice)
    config = _small_config(Readout.OCREAD, centers)
    flat, reference = init_params(config, Rng(8)), init_params(config, Rng(8))
    tc = TrainConfig(lr=3e-3, weight_decay=weight_decay)
    state = AdamState(np.zeros_like(flat.vector), np.zeros_like(flat.vector))
    param_map = {n: t for n, t in reference.named_tensors() if n in trainable_names(config)}
    moments = {}
    batch = [(_correlation_input(6, seed=40 + s), s % 2) for s in range(4)]
    for step in range(1, 26):
        _, grads = _loss_and_grad(batch, flat, config)
        adam_step(flat.vector, grads.vector, state, tc, trainable_spans(config))
        adam_per_tensor(param_map, dict(grads.named_tensors()), moments, step, tc)
        assert np.array_equal(flat.vector, reference.vector), step


def test_training_steps_descend():
    config = _small_config(Readout.OCREAD, CentersMode.LEARNABLE)
    params = init_params(config, Rng(6))
    batch = [(_correlation_input(6, seed=20 + s), s % 2) for s in range(4)]
    before = batch_loss(batch, params, config)
    _take_adam_steps(config, params, batch)
    assert batch_loss(batch, params, config) < before


@pytest.mark.parametrize("centers", [CentersMode.ORTHONORMAL, CentersMode.RANDOM_UNIT])
def test_frozen_centers_never_move(centers):
    config = _small_config(Readout.OCREAD, centers)
    params = init_params(config, Rng(7))
    snapshot = params.centers.copy()
    batch = [(_correlation_input(6, seed=30 + s), s % 2) for s in range(4)]
    _take_adam_steps(config, params, batch)
    assert np.array_equal(params.centers, snapshot)  # bit-identical


def test_learnable_centers_move():
    config = _small_config(Readout.OCREAD, CentersMode.LEARNABLE)
    params = init_params(config, Rng(7))
    snapshot = params.centers.copy()
    batch = [(_correlation_input(6, seed=30 + s), s % 2) for s in range(4)]
    _take_adam_steps(config, params, batch)
    assert not np.array_equal(params.centers, snapshot)


# ---------------------------------------------------------------------------
# prediction


def test_predict_proba_is_sigmoid_of_logit_margin():
    config = _small_config(Readout.OCREAD, CentersMode.ORTHONORMAL)
    params = init_params(config, Rng(8))
    graphs = [_correlation_input(6, seed=40 + s) for s in range(5)]
    probs = predict_proba(graphs, params, config)
    assert probs.shape == (5,)
    for x, p in zip(graphs, probs):
        logits, _ = forward(x, params, config)
        expected = 1.0 / (1.0 + math.exp(logits[0] - logits[1]))
        assert abs(p - expected) < 1e-12


def test_predict_proba_chunking_invariant(monkeypatch):
    config = _small_config(Readout.MAX, CentersMode.ORTHONORMAL)
    params = init_params(config, Rng(8))
    graphs = [_correlation_input(6, seed=50 + s) for s in range(37)]  # one chunk at the default budget
    whole = predict_proba(graphs, params, config)
    _chunks_of(monkeypatch, 3, config)
    assert np.array_equal(predict_proba(graphs, params, config), whole)
    assert np.array_equal(predict_proba(np.array(graphs), params, config), whole)


def test_scoring_taken_rows_matches_scoring_their_copy(lanes_used, pool_sizes, monkeypatch):
    config = _small_config(Readout.OCREAD, CentersMode.ORTHONORMAL)
    params = init_params(config, Rng(8))
    graphs = np.array([_correlation_input(6, seed=50 + s) for s in range(37)])
    take = np.array([30, 2, 2, 17, 0, 36, 5, 11, 9, 23, 4, 8, 1, 35, 20, 6, 13, 3])
    for chunk, jobs in ((1, 1), (5, 1), (16, 1), (5, 2)):
        _chunks_of(monkeypatch, chunk, config)
        taken = bnt.model.score_chunks(graphs, params, config, jobs, take=take)
        copied = bnt.model.score_chunks(graphs[take], params, config)
        assert [rows for rows, _, _ in taken] == [rows for rows, _, _ in copied]
        assert {rows.stop - rows.start for rows, _, _ in taken[:-1]} == {chunk}
        for (_, logits, assignment), (_, logits_c, assignment_c) in zip(taken, copied):
            assert logits.tobytes() == logits_c.tobytes()
            assert assignment.tobytes() == assignment_c.tobytes()
        assert np.array_equal(predict_proba(graphs, params, config, jobs, take=take),
                              predict_proba(graphs[take], params, config))
    assert max(lanes_used) == min(2, bnt.workers.usable_cpus()) and pool_sizes == []


@pytest.mark.parametrize("readout", [Readout.OCREAD, Readout.MEAN])
def test_scoring_in_lanes_is_byte_identical_to_one_lane(lanes_used, pool_sizes, monkeypatch, readout):
    config = _small_config(readout, CentersMode.ORTHONORMAL)
    params = init_params(config, Rng(8))
    graphs = [_correlation_input(6, seed=50 + s) for s in range(37)]
    _chunks_of(monkeypatch, 3, config)
    threads = threading.active_count()
    one = bnt.model.score_chunks(graphs, params, config)
    assert lanes_used == {1}
    two = bnt.model.score_chunks(graphs, params, config, jobs=2)
    assert max(lanes_used) == min(2, bnt.workers.usable_cpus()) and len(two) == len(one) == 13
    for (rows, logits, assignment), (rows2, logits2, assignment2) in zip(one, two):
        assert rows == rows2 and logits.tobytes() == logits2.tobytes()
        assert (assignment is None and assignment2 is None) or assignment.tobytes() == assignment2.tobytes()
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        predict_proba(graphs, params, config, jobs=0)
    assert pool_sizes == [] and threading.active_count() == threads  # every lane has ended


def test_the_first_failing_chunk_in_chunk_order_raises_across_lanes(lanes_used, monkeypatch):
    monkeypatch.setattr(bnt.workers, "usable_cpus", lambda: 2)  # two lanes on any machine
    real = bnt.model._forward_batch

    def counted(x, *args):  # marks an error with the count of non-finite graphs in its chunk
        try:
            return real(x, *args)
        except ValueError as exc:
            exc.bad_graphs = int((~np.isfinite(x)).any(axis=(1, 2)).sum())
            raise

    monkeypatch.setattr(bnt.model, "_forward_batch", counted)
    config = _small_config(Readout.OCREAD, CentersMode.ORTHONORMAL)
    params = init_params(config, Rng(8))
    _chunks_of(monkeypatch, 3, config)
    graphs = np.array([_correlation_input(6, seed=50 + s) for s in range(37)])
    graphs[9] = np.nan  # chunk 3 of 3 graphs, lane 1's second chunk
    graphs[18:20] = np.nan  # chunk 6, lane 0's fourth chunk
    threads = threading.active_count()
    for jobs in (1, 2):
        for score in (bnt.model.score_chunks, predict_proba):
            with pytest.raises(ValueError, match="non-finite") as raised:
                score(graphs, params, config, jobs)
            assert raised.value.bad_graphs == 1
    assert lanes_used == {1, 2} and threading.active_count() == threads


needs_setter = pytest.mark.skipif(bnt.workers._openblas()[0]() is None,
                                  reason="NumPy's OpenBLAS exports no thread-count setter")


@needs_setter
def test_a_scoring_pass_pins_blas_once_around_its_lanes(monkeypatch):
    # were each lane to pin and restore the count, a lane that pinned after
    # another could restore 1 last and leave the process on one thread
    monkeypatch.setattr(bnt.workers, "usable_cpus", lambda: 4)
    config = ModelConfig(nodes=200, layers=1, mlp_hidden=(8,))
    params = init_params(config, Rng(19))
    x = np.stack([_correlation_input(200, seed=400 + s) for s in range(4)])
    expected = predict_proba(x, params, config).tobytes()  # one-graph chunks
    with bnt.workers.blas_threads(2):
        for _ in range(3):
            assert predict_proba(x, params, config, jobs=4).tobytes() == expected
            assert bnt.workers._openblas()[0]() == 2


def test_scoring_in_more_lanes_than_cores_with_fast_thread_switches_changes_no_bit(lanes_used, monkeypatch):
    # chunks of 2 graphs and 4 lanes over 5 chunks; a lane that wrote
    # into another's workspace would change bits under frequent switches
    monkeypatch.setattr(bnt.workers, "usable_cpus", lambda: 4)
    config = ModelConfig(nodes=16, heads=2, clusters=3, mlp_hidden=(8,))
    params = init_params(config, Rng(17))
    _chunks_of(monkeypatch, 2, config)
    x = np.stack([_correlation_input(16, seed=300 + s) for s in range(9)])

    def scored(jobs):
        return [(rows, logits.tobytes(), assignment.tobytes())
                for rows, logits, assignment in bnt.model.score_chunks(x, params, config, jobs)]

    expected = scored(1)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert scored(4) == expected
    finally:
        sys.setswitchinterval(interval)
    assert lanes_used == {1, 4} and threading.active_count() == threads


def test_a_scoring_pass_runs_its_attention_block_chunks_in_up_to_one_lane_each(monkeypatch):
    cc200, v32 = ModelConfig(nodes=200), ModelConfig(nodes=32)
    # the training lane gate's count, V=200, 4 heads of 50, 2 layers: 2 *
    # 2·200·200·(3·200 + 3·200) attention, 4·200·200·4 readout, 2·(800·256 +
    # 256·32 + 32·2) MLP
    assert bnt.model._forward_flops(cc200) == 192_000_000 + 640_000 + 426_112
    assert bnt.model._forward_flops(v32) == 786_432 + 16_384 + 82_048
    monkeypatch.setattr(bnt.workers, "usable_cpus", lambda: 4)
    used, real = [], bnt.model.run_lanes

    def run(tasks, lanes):
        used.append(lanes)
        real(tasks, lanes)

    monkeypatch.setattr(bnt.model, "run_lanes", run)
    monkeypatch.setattr(bnt.model, "_forward_batch", lambda x, *args: SimpleNamespace(logits=None, assignment=None))

    def scored(config, graphs, jobs):  # (chunk sizes, lanes)
        used.clear()
        v = config.nodes
        chunks = bnt.model.score_chunks(np.broadcast_to(np.zeros((v, v)), (graphs, v, v)), None, config, jobs)
        return [rows.stop - rows.start for rows, _, _ in chunks], used[0]

    # one attention block per chunk: 8 graphs at V=32, 3 at V=48, 2 at V=64, 1 from V=65
    assert scored(v32, 20, 2) == ([8, 8, 4], 2)
    assert scored(ModelConfig(nodes=48), 7, 4) == ([3, 3, 1], 3)
    assert scored(ModelConfig(nodes=64), 5, 1) == ([2, 2, 1], 1)
    assert scored(ModelConfig(nodes=65), 2, 4) == ([1, 1], 2)
    assert scored(cc200, 120, 2) == ([1] * 120, 2)  # eval and export-assignments
    assert scored(cc200, 120, 3)[1] == 3 and scored(cc200, 120, 8)[1] == 4  # one lane per usable CPU
    assert scored(v32, 8, 2) == ([8], 1) and scored(cc200, 0, 2) == ([], 0)  # no more lanes than chunks
    assert scored(cc200, 120, 1)[1] == 1
    monkeypatch.setattr(bnt.workers, "_job", (None, ()))
    assert scored(cc200, 120, 2)[1] == 1  # a pool worker runs one lane


def test_a_laned_scoring_pass_builds_every_lane_workspace_in_the_calling_thread(lanes_used, monkeypatch):
    # workspaces that lanes built would each take heap memory of their own thread
    monkeypatch.setattr(bnt.workers, "usable_cpus", lambda: 4)
    built, real = [], bnt.model._Workspace

    def recorded(*args, **kwargs):
        built.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(bnt.model, "_Workspace", recorded)
    config = _small_config(Readout.OCREAD, CentersMode.ORTHONORMAL)
    params = init_params(config, Rng(8))
    graphs = np.array([_correlation_input(6, seed=50 + s) for s in range(5)])
    for jobs in (1, 2, 3):
        built.clear()
        lanes_used.clear()
        predict_proba(graphs, params, config, jobs)
        assert max(lanes_used) == jobs and built == [threading.get_ident()] * jobs


@pytest.mark.parametrize("v, n", [(32, 80), (48, 24), (200, 20)])
def test_scoring_never_forks(monkeypatch, v, n):
    # V=200 scoring of one-graph chunks took a pool before it ran in lanes
    def no_pool(*args):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(bnt.workers, "_fork_pool", no_pool)
    config = ModelConfig(nodes=v)
    params = init_params(config, Rng(3))
    graph = _correlation_input(v, seed=80, t=2 * v)
    assert predict_proba([graph] * n, params, config, jobs=2).shape == (n,)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("v", [6, 40])
@pytest.mark.parametrize("centers", list(CentersMode))
@pytest.mark.parametrize("features", list(FeatureMode))
@pytest.mark.parametrize("readout", list(Readout))
def test_predict_proba_matches_the_training_forward(monkeypatch, readout, features, centers, v):
    config = ModelConfig(nodes=v, layers=2, heads=2, clusters=2, mlp_hidden=(5, 3), readout=readout,
                         centers_mode=centers, feature_mode=features, k_eigen=2)
    params = init_params(config, Rng(9))
    graphs = [_correlation_input(v, seed=60 + s) for s in range(37)]
    for n in (0, 1, 17, 37):
        for chunk in (1, 3, 16, max(n, 1)):
            _chunks_of(monkeypatch, chunk, config)
            probs = predict_proba(graphs[:n], params, config)
            assert probs.shape == (n,)
            for start in range(0, n, chunk):
                rows = slice(start, min(start + chunk, n))
                ws = bnt.model._Workspace(rows.stop - rows.start, config, train=True)
                logits = bnt.model._forward_batch(np.stack(graphs[rows]), params, config, ws).logits
                assert np.array_equal(probs[rows], sigmoid(logits[:, 1] - logits[:, 0]))


def test_predict_proba_memory_does_not_grow_with_layers():
    graphs = [_correlation_input(32, seed=70 + s) for s in range(37)]
    peaks = {}
    for layers in (1, 4):
        config = ModelConfig(nodes=32, layers=layers, heads=4, clusters=4, mlp_hidden=(8,))
        params = init_params(config, Rng(10))
        tracemalloc.start()
        try:
            predict_proba(graphs, params, config)
            peaks[layers] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4] <= 1.1 * peaks[1], peaks
