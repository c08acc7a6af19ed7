"""In-process spans around the public functions of each bnt module.

A :class:`Tracer` wraps every listed function at each place its name is
bound (modules import names with ``from .x import y``, so one function can
live under several module attributes) and records one span per call:
name, start, end, parent span and run id.  Spans stay in memory until the
caller writes them out.  A span's self time is its duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

MIB = float(1 << 20)


def loss_and_grad_gflop(batch_size: int, config) -> float:
    """Matrix-multiply GFLOP of one ``loss_and_grad`` call (README formula)."""
    v, m, hd, k = config.nodes, config.heads, config.head_dim, config.clusters
    mh = m * hd
    flop = 0
    for layer in range(config.layers):
        w = config.input_width if layer == 0 else v
        forward = 6 * v * w * mh + 4 * m * v * v * hd + 2 * v * mh * v
        flop += 3 * forward  # the backward pass does two products per forward one
    if config.readout.value == "ocread":
        flop += 10 * v * v * k + (2 * k * v * v if config.centers_mode.value == "learnable" else 0)
    widths = [config.flat_dim, *config.mlp_hidden, 2]
    flop += 3 * sum(2 * a * b for a, b in zip(widths, widths[1:]))
    return batch_size * flop / 1e9


# Hooks run after a call's span has closed: hook(tracer, args, result).
def _count_read(tracer, args, result):
    tracer.counters["data.read_dataset.mib"] += os.path.getsize(args[0]) / MIB


def _count_softmax(tracer, args, result):
    tracer.counters["linalg.softmax_lastaxis.mib"] += args[0].nbytes / MIB


def _keep_eigen(tracer, args, result):
    tracer.eigen_calls.append((args[0].copy(), result[0].copy(), result[1].copy()))


def _count_loss(tracer, args, result):
    tracer.counters["model.loss_and_grad.gflop"] += loss_and_grad_gflop(len(args[0]), args[2])


def _count_predict(tracer, args, result):
    tracer.counters["model.predict_proba.graphs"] += len(args[0])


def _profile_features(args) -> bool:
    # tracemalloc slows the pure-Python Jacobi solver behind eigenvector
    # features about tenfold, so peaks are taken only where it is not run.
    return args[2].feature_mode.value != "profile_eigen"


# (module, attribute, hook, when to record the call's tracemalloc peak)
TARGETS = [
    ("bnt.data", "generate_dataset", None, None),
    ("bnt.data", "write_dataset", None, None),
    ("bnt.data", "stratified_split", None, None),
    ("bnt.data", "read_dataset", _count_read, None),
    ("bnt.rng", "Rng.normal", None, None),
    ("bnt.rng", "Rng.uniform", None, None),
    ("bnt.rng", "Rng.shuffle", None, None),
    ("bnt.linalg", "softmax_lastaxis", _count_softmax, None),
    ("bnt.linalg", "symmetric_eigendecomposition", _keep_eigen, None),
    ("bnt.model", "node_feature", None, None),
    ("bnt.model", "loss_and_grad", _count_loss, _profile_features),
    ("bnt.model", "predict_proba", _count_predict, _profile_features),
    ("bnt.model", "forward", None, None),
    ("bnt.training", "train", None, None),
    ("bnt.training", "adam_step", None, None),
    ("bnt.training", "evaluate", None, None),
    ("bnt.training", "save_checkpoint", None, None),
    ("bnt.training", "load_checkpoint", None, None),
    ("bnt.metrics", "auroc", None, None),
    ("bnt.theory", "variance_functional_mc", None, None),
    ("bnt.theory", "variance_functional_2d", None, None),
    ("bnt.theory", "vif", None, None),
]
ROOT = "cli.main"
SPAN_NAMES = [ROOT] + [f"{module[4:]}.{attr}" for module, attr, _, _ in TARGETS]
COUNTERS = ("data.read_dataset.mib", "linalg.softmax_lastaxis.mib", "model.loss_and_grad.gflop",
            "model.predict_proba.graphs")
PEAKS = tuple(f"{module[4:]}.{attr}.peak_mib" for module, attr, _, memory in TARGETS if memory)


def self_times(spans) -> list[float]:
    """Self time of each (start, end, parent) span: its duration minus the
    union of its children's intervals clipped to it."""
    children = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][0], spans[parent][1]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children[parent].append((lo, hi))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered, reach = 0, start
        for lo, hi in sorted(children[i]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Tracer:
    """Records spans for one traced run; install() patches, restore() undoes."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, run_id]
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
        self.peaks: dict[str, float] = dict.fromkeys(PEAKS, 0.0)
        self.eigen_calls: list[tuple] = []  # (input, values, vectors)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _enter(self, name: str) -> list:
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        return record

    def _exit(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    def call_root(self, fn, *args):
        """Run fn(*args) under one root span named cli.main."""
        record = self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._exit(record)

    def _wrap(self, name, fn, hook, memory):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer._enter(name)
            started = memory is not None and memory(args) and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if started:
                    peak = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
                    key = f"{name}.peak_mib"
                    tracer.peaks[key] = max(tracer.peaks[key], peak)
                tracer._exit(record)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "bnt" or n.startswith("bnt.")]
        for module_name, attr, hook, memory in TARGETS:
            name = f"{module_name[4:]}.{attr}"
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patched.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original, hook, memory))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hook, memory)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def summary(self) -> dict[str, float]:
        """Per-name self_ms, incl_ms and calls, plus the counters and peaks."""
        own = self_times([(s[1], s[2], s[3]) for s in self.spans])
        out = {f"{name}.{stat}": 0.0 for name in SPAN_NAMES for stat in ("self_ms", "incl_ms", "calls")}
        for span, self_ns in zip(self.spans, own):
            out[f"{span[0]}.self_ms"] += self_ns / 1e6
            out[f"{span[0]}.incl_ms"] += (span[2] - span[1]) / 1e6
            out[f"{span[0]}.calls"] += 1
        out.update(self.counters)
        out.update(self.peaks)
        return out

    def wall_ms(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0) / 1e6

    def span_lines(self):
        """One JSON line per span, in start order."""
        for i, (name, start, end, parent, run_id) in enumerate(self.spans):
            yield json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                              "parent": parent, "run_id": run_id}) + "\n"


def gflop_per_s(summary: dict[str, float]) -> float:
    seconds = summary.get("model.loss_and_grad.incl_ms", 0.0) / 1e3
    return summary.get("model.loss_and_grad.gflop", 0.0) / seconds if seconds > 0 else 0.0
