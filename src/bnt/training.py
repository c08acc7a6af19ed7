"""Training loop, Adam optimizer, checkpoints, and train reports.

Adam, the best-epoch snapshot and the checkpoint body all work on the
model's one parameter vector (``ModelParams.vector``).  Weight decay is
applied classically: l2 term added to the gradient before the Adam
moments (not decoupled).  The choice is recorded in every TrainReport.
Model selection picks the epoch with the highest validation AUROC (first
epoch on ties) and the returned parameters are a snapshot from that
epoch.  A non-finite loss, gradient or validation score stops training
with a FloatingPointError that names the epoch.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import metrics as metrics_mod
from .data import replacing
from .model import (
    CentersMode,
    FeatureMode,
    ModelConfig,
    ModelParams,
    Readout,
    _Workspace,
    init_params,
    loss_and_grad,
    param_count,
    predict_proba,
    trainable_spans,
)
from .rng import Rng

CHECKPOINT_MAGIC = b"BNTM"
CHECKPOINT_VERSION = 1
WEIGHT_DECAY_MODE = "l2_in_gradient"

_INIT_STREAM = 0
_EPOCH_STREAM_BASE = 1


class CheckpointFormatError(Exception):
    pass


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 1e-4
    batch_size: int = 64
    epochs: int = 200
    seed: int = 0

    def validate(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class AdamState:
    """First and second moment vectors, aligned with the parameter vector,
    and the step count.  Entries outside the updated spans stay zero."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


# Adam runs over slices of this many floats, so its temporaries (64 KiB each)
# stay in cache: whole-span temporaries made a step 1.4-2x slower.  The update
# is element-wise, so slicing changes no bit.
_ADAM_SLICE = 8192

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, config: TrainConfig,
              spans: list[slice]) -> None:
    """One Adam update, in place, of the ``spans`` (slices with explicit
    bounds) of the parameter vector with the gradient vector.  Entries
    outside them (frozen tensors) never change or enter the moments."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for span in spans:
        for start in range(span.start, span.stop, _ADAM_SLICE):
            s = slice(start, min(start + _ADAM_SLICE, span.stop))
            p, g, m, v = params[s], grads[s], state.m[s], state.v[s]
            if config.weight_decay:
                g = g + config.weight_decay * p
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p -= config.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


class _ReportFields(dict):
    """Key-value lines of a report; reading an absent key is a format error."""

    def __missing__(self, key):
        raise ValueError(f"train report has no {key} line")


@dataclass
class TrainReport:
    seed: int
    selected_epoch: int
    train_loss: list[float]
    val_auroc: list[float]
    test: metrics_mod.EvalResult
    model_config: ModelConfig
    train_config: TrainConfig
    weight_decay_mode: str = WEIGHT_DECAY_MODE

    def to_text(self) -> str:
        mc, tc = self.model_config, self.train_config
        lines = [
            "kind = train_report",
            f"seed = {self.seed}",
            f"selected_epoch = {self.selected_epoch}",
            f"weight_decay_mode = {self.weight_decay_mode}",
            f"config.nodes = {mc.nodes}",
            f"config.layers = {mc.layers}",
            f"config.heads = {mc.heads}",
            f"config.clusters = {mc.clusters}",
            f"config.head_dim = {mc.head_dim}",
            "config.mlp_hidden = " + " ".join(str(h) for h in mc.mlp_hidden),
            f"config.readout = {mc.readout.value}",
            f"config.centers_mode = {mc.centers_mode.value}",
            f"config.feature_mode = {mc.feature_mode.value}",
            f"config.k_eigen = {mc.k_eigen}",
            f"train.lr = {tc.lr!r}",
            f"train.weight_decay = {tc.weight_decay!r}",
            f"train.batch_size = {tc.batch_size}",
            f"train.epochs = {tc.epochs}",
            "train_loss = " + " ".join(repr(x) for x in self.train_loss),
            "val_auroc = " + " ".join(repr(x) for x in self.val_auroc),
            f"test.auroc = {metrics_mod.format_metric(self.test.auroc)}",
            f"test.accuracy = {metrics_mod.format_metric(self.test.accuracy)}",
            f"test.sensitivity = {metrics_mod.format_metric(self.test.sensitivity)}",
            f"test.specificity = {metrics_mod.format_metric(self.test.specificity)}",
            f"test.n_pos = {self.test.n_pos}",
            f"test.n_neg = {self.test.n_neg}",
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TrainReport":
        """Parse to_text output; a missing or malformed line raises ValueError."""
        kv: dict[str, str] = _ReportFields()
        for line in text.splitlines():
            if "=" in line:
                key, _, value = line.partition("=")
                kv[key.strip()] = value.strip()
        if kv.get("kind") != "train_report":
            raise ValueError("not a train report document")

        def opt(value):
            return None if value == "undefined" else float(value)

        mc = ModelConfig(
            nodes=int(kv["config.nodes"]),
            layers=int(kv["config.layers"]),
            heads=int(kv["config.heads"]),
            clusters=int(kv["config.clusters"]),
            head_dim=int(kv["config.head_dim"]),
            mlp_hidden=tuple(int(x) for x in kv["config.mlp_hidden"].split()),
            readout=Readout(kv["config.readout"]),
            centers_mode=CentersMode(kv["config.centers_mode"]),
            feature_mode=FeatureMode(kv["config.feature_mode"]),
            k_eigen=int(kv["config.k_eigen"]),
        )
        tc = TrainConfig(
            lr=float(kv["train.lr"]),
            weight_decay=float(kv["train.weight_decay"]),
            batch_size=int(kv["train.batch_size"]),
            epochs=int(kv["train.epochs"]),
            seed=int(kv["seed"]),
        )
        test = metrics_mod.EvalResult(
            auroc=opt(kv["test.auroc"]),
            accuracy=opt(kv["test.accuracy"]),
            sensitivity=opt(kv["test.sensitivity"]),
            specificity=opt(kv["test.specificity"]),
            n_pos=int(kv["test.n_pos"]),
            n_neg=int(kv["test.n_neg"]),
        )
        return cls(
            seed=int(kv["seed"]),
            selected_epoch=int(kv["selected_epoch"]),
            train_loss=[float(x) for x in kv.get("train_loss", "").split()],
            val_auroc=[float(x) for x in kv.get("val_auroc", "").split()],
            test=test,
            model_config=mc,
            train_config=tc,
            weight_decay_mode=kv.get("weight_decay_mode", WEIGHT_DECAY_MODE),
        )


def evaluate(params: ModelParams, config: ModelConfig, graphs,
             jobs: int = 1) -> tuple[metrics_mod.EvalResult, np.ndarray]:
    """Score graphs (``predict_proba`` in up to ``jobs`` processes) and
    compute the evaluation metrics.

    AUROC is None when only one class is present (threshold metrics are
    still reported where defined).
    """
    labels = np.array([g.label for g in graphs], dtype=np.intp)
    scores = predict_proba([g.matrix for g in graphs], params, config, jobs=jobs)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    auroc_val = metrics_mod.auroc(scores, labels) if n_pos and n_neg else None
    accuracy, sensitivity, specificity = metrics_mod.threshold_metrics(scores, labels)
    return (
        metrics_mod.EvalResult(auroc_val, accuracy, sensitivity, specificity, n_pos, n_neg),
        scores,
    )


def _diverged(epoch: int, what: str) -> FloatingPointError:
    return FloatingPointError(f"training diverged in epoch {epoch}: non-finite {what}")


# Divergence shows as a non-finite loss, gradient or validation score, each
# checked once; errstate keeps NumPy's warnings about it off stderr.
@np.errstate(all="ignore")
def train(
    graphs,
    plan,
    model_config: ModelConfig,
    train_config: TrainConfig,
    jobs: int = 1,
) -> tuple[ModelParams, TrainReport]:
    """Train on the plan's train ids, select on val AUROC, report on test.
    A plan that does not fit ``graphs`` raises ``SplitError`` (``SplitPlan.select``).
    Validation and test scoring use up to ``jobs`` processes where that pays
    (``model.predict_proba``); nothing returned depends on ``jobs``."""
    model_config.validate()
    train_config.validate()
    train_graphs, val_graphs, test_graphs = plan.select(graphs)

    rng = Rng(train_config.seed)
    params = init_params(model_config, rng.derive(_INIT_STREAM))
    spans = trainable_spans(model_config)
    state = AdamState(np.zeros_like(params.vector), np.zeros_like(params.vector))
    best = np.empty_like(params.vector)  # the selected epoch's parameters

    samples = [(g.matrix, g.label) for g in train_graphs]
    n = len(samples)
    bs = train_config.batch_size
    ws = _Workspace(min(bs, n), model_config, train=True)  # every step's large arrays
    val_matrices = [g.matrix for g in val_graphs]
    val_labels = np.array([g.label for g in val_graphs], dtype=np.intp)

    best_auroc = -np.inf
    best_epoch = 0
    train_losses: list[float] = []
    val_aurocs: list[float] = []

    for epoch in range(1, train_config.epochs + 1):
        perm = rng.derive(_EPOCH_STREAM_BASE + epoch).shuffle(n)
        epoch_loss = 0.0
        for start in range(0, n, bs):
            batch = [samples[i] for i in perm[start : start + bs]]
            loss, grads = loss_and_grad(batch, params, model_config, ws=ws)
            if not math.isfinite(loss):
                raise _diverged(epoch, "loss")
            if not np.isfinite(grads.vector).all():
                bad = next(name for name, g in grads.named_tensors() if not np.isfinite(g).all())
                raise _diverged(epoch, f"gradient of {bad}")
            adam_step(params.vector, grads.vector, state, train_config, spans)
            epoch_loss += loss * len(batch)
        train_losses.append(epoch_loss / n)

        val_scores = predict_proba(val_matrices, params, model_config, jobs=jobs)
        if not np.isfinite(val_scores).all():
            raise _diverged(epoch, "validation scores")
        val_aurocs.append(metrics_mod.auroc(val_scores, val_labels))
        if val_aurocs[-1] > best_auroc:
            best_auroc = val_aurocs[-1]
            best_epoch = epoch
            np.copyto(best, params.vector)

    del ws  # so workers forked for the test pass do not inherit the step buffers
    best_params = ModelParams(best, model_config)
    test_result, _ = evaluate(best_params, model_config, test_graphs, jobs)
    report = TrainReport(
        seed=train_config.seed,
        selected_epoch=best_epoch,
        train_loss=train_losses,
        val_auroc=val_aurocs,
        test=test_result,
        model_config=model_config,
        train_config=train_config,
    )
    return best_params, report


# ---------------------------------------------------------------------------
# Checkpoints: magic, version, config fields, then the parameter vector as
# little-endian float64 (every tensor in declaration order).
# ---------------------------------------------------------------------------

_READOUT_CODES = [Readout.OCREAD, Readout.MEAN, Readout.MAX, Readout.SUM, Readout.CONCAT]
_CENTERS_CODES = [CentersMode.ORTHONORMAL, CentersMode.RANDOM_UNIT, CentersMode.LEARNABLE]
_FEATURE_CODES = [FeatureMode.PROFILE, FeatureMode.PROFILE_IDENTITY, FeatureMode.PROFILE_EIGEN]


def save_checkpoint(path, params: ModelParams, config: ModelConfig) -> None:
    head = struct.pack(
        "<4sIIIIII",
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        config.nodes,
        config.layers,
        config.heads,
        config.clusters,
        config.head_dim,
    )
    head += struct.pack("<I", len(config.mlp_hidden))
    head += struct.pack(f"<{len(config.mlp_hidden)}I", *config.mlp_hidden)
    head += struct.pack(
        "<BBBI",
        _READOUT_CODES.index(config.readout),
        _CENTERS_CODES.index(config.centers_mode),
        _FEATURE_CODES.index(config.feature_mode),
        config.k_eigen,
    )
    with replacing(path) as f:
        f.write(head)
        f.write(params.vector.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig]:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"not a checkpoint file: magic {raw[:4]!r}")
    try:
        version, nodes, layers, heads, clusters, head_dim = struct.unpack_from("<IIIIII", raw, 4)
        off = 4 + 24
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        (n_hidden,) = struct.unpack_from("<I", raw, off)
        off += 4
        hidden = struct.unpack_from(f"<{n_hidden}I", raw, off)
        off += 4 * n_hidden
        r_code, c_code, f_code, k_eigen = struct.unpack_from("<BBBI", raw, off)
        off += 7
        config = ModelConfig(
            nodes=nodes,
            layers=layers,
            heads=heads,
            clusters=clusters,
            head_dim=head_dim,
            mlp_hidden=tuple(hidden),
            readout=_READOUT_CODES[r_code],
            centers_mode=_CENTERS_CODES[c_code],
            feature_mode=_FEATURE_CODES[f_code],
            k_eigen=k_eigen,
        )
    except (struct.error, IndexError) as exc:
        raise CheckpointFormatError(f"corrupt checkpoint header: {exc}") from exc
    try:
        config.validate()
    except ValueError as exc:
        raise CheckpointFormatError(f"invalid checkpoint config: {exc}") from exc

    # The size checks come before any allocation, so a header that claims
    # huge tensors is refused instead of exhausting memory.  Every tensor
    # holds at least one float, so the first check also bounds the layout
    # that param_count builds for the second.
    body = len(raw) - off
    tensors = 4 * config.layers + 1 + 2 * (len(config.mlp_hidden) + 1)
    if body < 8 * tensors:
        raise CheckpointFormatError(f"checkpoint body is {body} bytes, too short for {tensors} tensors")
    total = param_count(config)
    if body != 8 * total:
        raise CheckpointFormatError(f"checkpoint body is {body} bytes, expected {8 * total}")
    vector = np.frombuffer(raw, dtype="<f8", offset=off).astype(np.float64)
    return ModelParams(vector, config), config
