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
from dataclasses import astuple, dataclass, fields
from enum import Enum, EnumMeta
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import metrics as metrics_mod
from . import workers
from .data import key_values, replacing
from .model import (
    ModelConfig,
    ModelParams,
    _Workspace,
    gather_float64,
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


# The report's config.*, train.* and test.* lines hold the fields of
# ModelConfig, TrainConfig and EvalResult, and the checkpoint header those of
# ModelConfig, in declaration order.  Each is coded by its type: an int as
# text or "<I", a float by repr (exact on reading back), None as "undefined",
# a tuple of ints space-separated or as a "<I" count and "<I" entries, an enum
# by its value or as a "<B" declaration index.


def _format_field(value) -> str:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return " ".join(str(x) for x in value)
    if value is None or isinstance(value, float):
        return metrics_mod.format_metric(value)
    return str(value)


def _parse_field(hint, text: str):
    if get_origin(hint) is UnionType:  # X | None
        return None if text == "undefined" else _parse_field(get_args(hint)[0], text)
    if get_origin(hint) is tuple:
        return tuple(int(x) for x in text.split())
    if isinstance(hint, EnumMeta):
        return hint(text)
    return float(text) if hint is float else int(text)


def _field_lines(obj, prefix: str, omit=()) -> list[str]:
    return [f"{prefix}{f.name} = {_format_field(getattr(obj, f.name))}"
            for f in fields(obj) if f.name not in omit]


def _read_fields(cls, kv, prefix: str, **given):
    hints = get_type_hints(cls)
    for f in fields(cls):
        if f.name not in given:
            given[f.name] = _parse_field(hints[f.name], kv[prefix + f.name])
    return cls(**given)


@dataclass
class TrainReport:
    selected_epoch: int
    train_loss: list[float]
    val_auroc: list[float]
    test: metrics_mod.EvalResult
    model_config: ModelConfig
    train_config: TrainConfig
    weight_decay_mode: str = WEIGHT_DECAY_MODE

    def to_text(self) -> str:
        lines = [
            "kind = train_report",
            f"seed = {self.train_config.seed}",
            f"selected_epoch = {self.selected_epoch}",
            f"weight_decay_mode = {self.weight_decay_mode}",
            *_field_lines(self.model_config, "config."),
            *_field_lines(self.train_config, "train.", omit=("seed",)),
            "train_loss = " + " ".join(repr(x) for x in self.train_loss),
            "val_auroc = " + " ".join(repr(x) for x in self.val_auroc),
            *_field_lines(self.test, "test."),
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TrainReport":
        """Parse to_text output; a missing or malformed line raises ValueError."""
        kv = key_values(text, "train_report")
        return cls(
            model_config=_read_fields(ModelConfig, kv, "config."),
            train_config=_read_fields(TrainConfig, kv, "train.", seed=int(kv["seed"])),
            test=_read_fields(metrics_mod.EvalResult, kv, "test."),
            selected_epoch=int(kv["selected_epoch"]),
            train_loss=[float(x) for x in kv.get("train_loss", "").split()],
            val_auroc=[float(x) for x in kv.get("val_auroc", "").split()],
            weight_decay_mode=kv.get("weight_decay_mode", WEIGHT_DECAY_MODE),
        )


def evaluate(params: ModelParams, config: ModelConfig, matrices, labels,
             jobs: int = 1, take=None) -> metrics_mod.EvalResult:
    """Score ``matrices`` (``predict_proba``: one attention block of graphs
    per chunk, in up to ``jobs`` lanes) and compute the evaluation metrics
    against their class ``labels``; with an index array ``take``, those of
    ``matrices[take]`` and ``labels[take]``.

    AUROC is None when only one class is present (threshold metrics are
    still reported where defined).
    """
    labels = np.asarray(labels if take is None else np.take(labels, take), dtype=np.intp)
    scores = predict_proba(matrices, params, config, jobs=jobs, take=take)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    auroc_val = metrics_mod.auroc(scores, labels) if n_pos and n_neg else None
    accuracy, sensitivity, specificity = metrics_mod.threshold_metrics(scores, labels)
    return metrics_mod.EvalResult(auroc_val, accuracy, sensitivity, specificity, n_pos, n_neg)


def _diverged(epoch: int, what: str) -> FloatingPointError:
    return FloatingPointError(f"training diverged in epoch {epoch}: non-finite {what}")


# Divergence shows as a non-finite loss, gradient or validation score, each
# checked once; errstate keeps NumPy's warnings about it off stderr.
@np.errstate(all="ignore")
def train(
    dataset,
    plan,
    model_config: ModelConfig,
    train_config: TrainConfig,
    jobs: int = 1,
) -> tuple[ModelParams, TrainReport]:
    """Train on the plan's train ids, select on val AUROC, report on test.
    A plan that does not fit ``dataset`` raises ``SplitError`` (``SplitPlan.select``).
    Steps large enough to pay, and the validation and test passes, run in up
    to ``jobs`` lanes (``workers.lane_cap``; ``model._Workspace``,
    ``model.score_chunks``).  ``dataset.matrices`` stay as they are (from a
    file, a ``data.FileMatrices`` that reads float32 records on demand):
    each batch, and each scoring chunk, is read and widened to float64 as it
    is gathered (``model.gather_float64``).  Widening is exact, so the
    result is that of the matrices widened up front.  Nothing returned
    depends on ``jobs``."""
    model_config.validate()
    train_config.validate()
    train_rows, val_rows, test_rows = plan.select(dataset)
    matrices, labels = dataset.matrices, dataset.labels

    rng = Rng(train_config.seed)
    params = init_params(model_config, rng.derive(_INIT_STREAM))
    spans = trainable_spans(model_config)
    state = AdamState(np.zeros_like(params.vector), np.zeros_like(params.vector))
    best = np.empty_like(params.vector)  # the selected epoch's parameters

    n = len(train_rows)
    bs = train_config.batch_size
    # every step's large arrays
    ws = _Workspace(min(bs, n), model_config, train=True, lanes=workers.lane_cap(jobs))

    best_auroc = -np.inf
    best_epoch = 0
    train_losses: list[float] = []
    val_aurocs: list[float] = []

    for epoch in range(1, train_config.epochs + 1):
        perm = rng.derive(_EPOCH_STREAM_BASE + epoch).shuffle(n)
        epoch_loss = 0.0
        for start in range(0, n, bs):
            rows = train_rows[perm[start : start + bs]]
            # each batch is widened as it is gathered, and freed when its step ends
            loss, grads = loss_and_grad(gather_float64(matrices, rows), params, model_config, labels[rows], ws=ws)
            if not math.isfinite(loss):
                raise _diverged(epoch, "loss")
            if not np.isfinite(grads.vector).all():
                bad = next(name for name, g in grads.named_tensors() if not np.isfinite(g).all())
                raise _diverged(epoch, f"gradient of {bad}")
            adam_step(params.vector, grads.vector, state, train_config, spans)
            epoch_loss += loss * len(rows)
        train_losses.append(epoch_loss / n)

        val_scores = predict_proba(matrices, params, model_config, jobs=jobs, take=val_rows)
        if not np.isfinite(val_scores).all():
            raise _diverged(epoch, "validation scores")
        val_aurocs.append(metrics_mod.auroc(val_scores, labels[val_rows]))
        if val_aurocs[-1] > best_auroc:
            best_auroc = val_aurocs[-1]
            best_epoch = epoch
            np.copyto(best, params.vector)

    del ws  # so the test pass's lane workspaces reuse the step buffers' memory
    best_params = ModelParams(best, model_config)
    test_result = evaluate(best_params, model_config, matrices, labels, jobs, test_rows)
    report = TrainReport(
        selected_epoch=best_epoch,
        train_loss=train_losses,
        val_auroc=val_aurocs,
        test=test_result,
        model_config=model_config,
        train_config=train_config,
    )
    return best_params, report


# ---------------------------------------------------------------------------
# Checkpoints: magic, version, the ModelConfig fields (coded as above), then
# the parameter vector as little-endian float64 (every tensor in declaration
# order).
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: ModelParams, config: ModelConfig) -> None:
    head = struct.pack("<4sI", CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    for value in astuple(config):
        if isinstance(value, tuple):
            head += struct.pack(f"<I{len(value)}I", len(value), *value)
        elif isinstance(value, Enum):
            head += struct.pack("<B", list(type(value)).index(value))
        else:
            head += struct.pack("<I", value)
    with replacing(path) as f:
        f.write(head)
        f.write(params.vector.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig]:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"not a checkpoint file: magic {raw[:4]!r}")
    off = 4

    def take(fmt):
        nonlocal off
        values = struct.unpack_from("<" + fmt, raw, off)
        off += struct.calcsize("<" + fmt)
        return values

    try:
        (version,) = take("I")
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        given = {}
        hints = get_type_hints(ModelConfig)
        for f in fields(ModelConfig):
            hint = hints[f.name]
            if get_origin(hint) is tuple:
                given[f.name] = take(f"{take('I')[0]}I")
            elif isinstance(hint, EnumMeta):
                given[f.name] = list(hint)[take("B")[0]]
            else:
                (given[f.name],) = take("I")
        config = ModelConfig(**given)
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
