"""Command-line interface: reproducible generation, training, and checks.

Subcommands
-----------
generate            synthesize a connectivity dataset file
split               write a stratified (or plain random) train/val/test plan
train               fit a model; writes checkpoint + report + manifest
eval                score a checkpoint on a test split; aggregate run CSVs
verify-theory       numerical checks of the variance / collinearity results
export-assignments  class-averaged soft cluster assignments as CSV
ablate              sweep readouts x centers x clusters x seeds into one CSV

Every run writes exactly one manifest (key = value text) recording the
command, library version, every resolved option, input/output paths,
and wall-clock duration; re-running a command with the manifest's
values reproduces its outputs bit for bit (single-threaded BLAS, which
importing ``bnt`` sets where the thread variables are unset).  Existing
outputs are never overwritten unless --force is given.

Option resolution order: explicit flag, then --config file entry
(key = value lines keyed by option name), then the BNT_SEED environment
variable (seed options only), then the built-in default.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
failure or out of memory, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .data import (
    DatasetFormatError,
    GeneratorSpec,
    SplitPlan,
    generate_dataset,
    random_split,
    read_dataset,
    stratified_split,
    write_dataset,
)
from .linalg import DegenerateBasisError, EigenConvergenceError, gram_schmidt
from .metrics import difference_score
from .model import CentersMode, FeatureMode, ModelConfig, ModelParams, Readout, score_chunks
from .rng import Rng
from .theory import (
    correlated_unit_centers,
    orthonormal_centers,
    variance_functional_2d,
    variance_functional_mc,
    vif,
)
from .training import (
    CheckpointFormatError,
    TrainConfig,
    TrainReport,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .workers import WorkerDied, ordered_map, usable_cpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports Ctrl-C

ENV_SEED = "BNT_SEED"

EVAL_HEADER = ["run_id", "seed", "auroc", "accuracy", "sensitivity", "specificity"]
ABLATE_HEADER = [
    "readout",
    "centers",
    "clusters",
    "seed",
    "selected_epoch",
    "auroc",
    "accuracy",
    "sensitivity",
    "specificity",
]
THEORY_HEADER = ["mode", "descriptor", "estimate", "error"]

_METRIC_FIELDS = ("auroc", "accuracy", "sensitivity", "specificity")


class UsageError(Exception):
    """Bad flags, bad option values, or refusing to overwrite (exit 1)."""


class DataError(Exception):
    """Unreadable or malformed input artifacts (exit 2)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; route through our
    # own exception so every usage error lands on exit code 1.
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# option tables


_REQUIRED = object()


@dataclass(frozen=True)
class _Opt:
    name: str  # argparse dest and config-file key
    flag: str
    parse: Callable[[str], object]
    default: object
    help: str
    seed_like: bool = False


def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()} is not a finite number")
    return value


def _parse_str(text: str) -> str:
    return text


def _parse_fractions(text: str):
    parts = [p for p in text.split(",") if p.strip() != ""]
    if len(parts) != 3:
        raise ValueError("expected three comma-separated fractions, e.g. 0.7,0.1,0.2")
    return tuple(float(p) for p in parts)


def _parse_int_list(text: str):
    parts = [p for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise ValueError("expected a comma-separated list of integers")
    return tuple(int(p, 10) for p in parts)


def _parse_readout(text: str) -> Readout:
    try:
        return Readout(text.strip().lower())
    except ValueError:
        choices = ", ".join(r.value for r in Readout)
        raise ValueError(f"expected one of: {choices}")


_CENTERS_ALIASES = {"random": CentersMode.RANDOM_UNIT}


def _parse_centers(text: str) -> CentersMode:
    token = text.strip().lower()
    if token in _CENTERS_ALIASES:
        return _CENTERS_ALIASES[token]
    try:
        return CentersMode(token)
    except ValueError:
        raise ValueError("expected one of: orthonormal, random, learnable")


def _parse_feature(text: str) -> FeatureMode:
    try:
        return FeatureMode(text.strip().lower())
    except ValueError:
        choices = ", ".join(f.value for f in FeatureMode)
        raise ValueError(f"expected one of: {choices}")


def _parse_readout_list(text: str):
    return tuple(_parse_readout(p) for p in text.split(",") if p.strip() != "")


def _parse_centers_list(text: str):
    return tuple(_parse_centers(p) for p in text.split(",") if p.strip() != "")


def _parse_theory_mode(text: str) -> str:
    token = text.strip().lower()
    if token not in ("mc", "2d", "vif", "all"):
        raise ValueError("expected one of: mc, 2d, vif, all")
    return token


_MAX_JOBS = 64

# ablate runs, Monte Carlo blocks and scoring chunks in worker processes
_JOBS_OPT = _Opt(
    "jobs",
    "--jobs",
    _parse_int,
    min(usable_cpus(), _MAX_JOBS),
    f"worker processes, 1..{_MAX_JOBS}, at most one per run, block or scoring chunk; "
    "defaults to the usable CPUs",
)

_GEN_DEFAULTS = GeneratorSpec()
_TRAIN_DEFAULTS = TrainConfig()
_MODEL_DEFAULTS = ModelConfig(nodes=8)  # dummy nodes; only shared defaults read

_GENERATE_OPTS = [
    _Opt("out", "--out", _parse_str, _REQUIRED, "output dataset path"),
    _Opt("nodes", "--nodes", _parse_int, _GEN_DEFAULTS.nodes, "nodes per graph"),
    _Opt("modules", "--modules", _parse_int, _GEN_DEFAULTS.modules, "planted module count"),
    _Opt(
        "subjects_per_class",
        "--subjects-per-class",
        _parse_int,
        _GEN_DEFAULTS.subjects_per_class,
        "subjects per class (two classes)",
    ),
    _Opt("sites", "--sites", _parse_int, _GEN_DEFAULTS.sites, "collection site count"),
    _Opt("within", "--within", _parse_float, _GEN_DEFAULTS.within_strength, "within-module signal strength"),
    _Opt(
        "between0",
        "--between0",
        _parse_float,
        _GEN_DEFAULTS.between_strength_class0,
        "between-module mixing for class 0",
    ),
    _Opt(
        "between1",
        "--between1",
        _parse_float,
        _GEN_DEFAULTS.between_strength_class1,
        "between-module mixing for class 1",
    ),
    _Opt("site_noise", "--site-noise", _parse_float, _GEN_DEFAULTS.site_noise, "site effect scale"),
    _Opt(
        "series_length",
        "--series-length",
        _parse_int,
        _GEN_DEFAULTS.series_length,
        "synthetic time-series length",
    ),
    _Opt("seed", "--seed", _parse_int, _GEN_DEFAULTS.seed, "generator seed", seed_like=True),
]

_SPLIT_OPTS = [
    _Opt("dataset", "--dataset", _parse_str, _REQUIRED, "input dataset path"),
    _Opt("out", "--out", _parse_str, _REQUIRED, "output split-plan path"),
    _Opt(
        "fractions",
        "--fractions",
        _parse_fractions,
        (0.7, 0.1, 0.2),
        "train,val,test fractions summing to 1",
    ),
    _Opt("seed", "--seed", _parse_int, 0, "shuffle seed", seed_like=True),
]


def _model_opts():
    return [
        _Opt("layers", "--layers", _parse_int, _MODEL_DEFAULTS.layers, "attention layers"),
        _Opt("heads", "--heads", _parse_int, _MODEL_DEFAULTS.heads, "attention heads per layer"),
        _Opt(
            "head_dim",
            "--head-dim",
            _parse_int,
            None,
            "per-head width (default: ceil(nodes/heads))",
        ),
        _Opt(
            "mlp_hidden",
            "--mlp-hidden",
            _parse_int_list,
            tuple(_MODEL_DEFAULTS.mlp_hidden),
            "classifier hidden widths, comma-separated",
        ),
        _Opt(
            "features",
            "--features",
            _parse_feature,
            _MODEL_DEFAULTS.feature_mode,
            "node features: profile | profile_identity | profile_eigen",
        ),
        _Opt(
            "k_eigen",
            "--k-eigen",
            _parse_int,
            _MODEL_DEFAULTS.k_eigen,
            "eigenvector count for profile_eigen features",
        ),
    ]


def _hyper_opts():
    return [
        _Opt("lr", "--lr", _parse_float, _TRAIN_DEFAULTS.lr, "Adam learning rate"),
        _Opt(
            "weight_decay",
            "--weight-decay",
            _parse_float,
            _TRAIN_DEFAULTS.weight_decay,
            "l2 penalty added to gradients",
        ),
        _Opt("batch_size", "--batch-size", _parse_int, _TRAIN_DEFAULTS.batch_size, "minibatch size"),
        _Opt("epochs", "--epochs", _parse_int, _TRAIN_DEFAULTS.epochs, "training epochs"),
    ]


_TRAIN_OPTS = (
    [
        _Opt("dataset", "--dataset", _parse_str, _REQUIRED, "input dataset path"),
        _Opt("split", "--split", _parse_str, _REQUIRED, "input split-plan path"),
        _Opt("out", "--out", _parse_str, _REQUIRED, "output run directory"),
        _Opt("readout", "--readout", _parse_readout, _MODEL_DEFAULTS.readout, "graph readout kind"),
        _Opt(
            "centers",
            "--centers",
            _parse_centers,
            _MODEL_DEFAULTS.centers_mode,
            "cluster centers: orthonormal | random | learnable",
        ),
        _Opt("clusters", "--clusters", _parse_int, _MODEL_DEFAULTS.clusters, "readout cluster count"),
    ]
    + _model_opts()
    + _hyper_opts()
    + [_Opt("seed", "--seed", _parse_int, _TRAIN_DEFAULTS.seed, "training seed", seed_like=True),
       _JOBS_OPT]
)

_EVAL_OPTS = [
    _Opt("checkpoint", "--checkpoint", _parse_str, None, "model checkpoint path"),
    _Opt("dataset", "--dataset", _parse_str, None, "input dataset path"),
    _Opt("split", "--split", _parse_str, None, "input split-plan path"),
    _Opt("out", "--out", _parse_str, _REQUIRED, "output metrics CSV path"),
    _Opt("report", "--report", _parse_str, None, "train report providing the seed column"),
    _Opt("run_id", "--run-id", _parse_str, None, "row label (default: checkpoint stem)"),
    _JOBS_OPT,
]

_THEORY_OPTS = [
    _Opt("out", "--out", _parse_str, _REQUIRED, "output prefix (writes PREFIX.csv/.txt/.manifest)"),
    _Opt("mode", "--mode", _parse_theory_mode, "all", "which checks to run: mc | 2d | vif | all"),
    _Opt("r", "--r", _parse_float, 3.0, "ball / disc radius"),
    _Opt("samples", "--samples", _parse_int, 1_000_000, "Monte Carlo sample count"),
    _Opt("nodes", "--nodes", _parse_int, 8, "embedding dimension for the mc check"),
    _Opt("clusters", "--clusters", _parse_int, 4, "cluster count for the mc check"),
    _Opt("cosine", "--cosine", _parse_float, 0.5, "pairwise cosine of the correlated centers"),
    _Opt("quad_nodes", "--quad-nodes", _parse_int, 64, "quadrature nodes per axis (2d mode)"),
    _JOBS_OPT,
    _Opt("seed", "--seed", _parse_int, 0, "sampling seed", seed_like=True),
]

_EXPORT_OPTS = [
    _Opt("checkpoint", "--checkpoint", _parse_str, _REQUIRED, "model checkpoint path"),
    _Opt("dataset", "--dataset", _parse_str, _REQUIRED, "input dataset path"),
    _Opt("split", "--split", _parse_str, _REQUIRED, "input split-plan path"),
    _Opt("out", "--out", _parse_str, _REQUIRED, "output assignments CSV path"),
    _JOBS_OPT,
]

_ABLATE_OPTS = (
    [
        _Opt("dataset", "--dataset", _parse_str, _REQUIRED, "input dataset path"),
        _Opt("split", "--split", _parse_str, _REQUIRED, "input split-plan path"),
        _Opt("out", "--out", _parse_str, _REQUIRED, "output combined CSV path"),
        _Opt(
            "readouts",
            "--readouts",
            _parse_readout_list,
            (Readout.OCREAD,),
            "readouts to sweep, comma-separated",
        ),
        _Opt(
            "centers",
            "--centers",
            _parse_centers_list,
            (CentersMode.ORTHONORMAL, CentersMode.RANDOM_UNIT),
            "center modes to sweep (only affect the ocread readout)",
        ),
        _Opt("clusters", "--clusters", _parse_int_list, (4,), "cluster counts to sweep"),
        _Opt(
            "seeds",
            "--seeds",
            _parse_int_list,
            (0, 1, 2, 3, 4),
            "training seeds to sweep",
            seed_like=True,
        ),
        _Opt(
            "save_models",
            "--save-models",
            _parse_str,
            None,
            "directory receiving one checkpoint per run",
        ),
        _JOBS_OPT,
    ]
    + _model_opts()
    + _hyper_opts()
)


# ---------------------------------------------------------------------------
# resolution, guarding, manifests


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve(args, opts) -> dict:
    """Flag > config file > BNT_SEED (seed options) > built-in default."""
    config_values = _read_config_file(args.config) if args.config else {}
    known = {o.name for o in opts}
    for key in config_values:
        if key not in known:
            raise UsageError(
                f"unknown config key '{key}' (valid keys: {', '.join(sorted(known))})"
            )
    env_seed = os.environ.get(ENV_SEED)
    resolved = {}
    for opt in opts:
        raw = getattr(args, opt.name)
        source = opt.flag
        if raw is None and opt.name in config_values:
            raw, source = config_values[opt.name], f"config key '{opt.name}'"
        if raw is None and opt.seed_like and env_seed is not None:
            raw, source = env_seed, ENV_SEED
        if raw is None:
            if opt.default is _REQUIRED:
                raise UsageError(f"missing required option {opt.flag}")
            resolved[opt.name] = opt.default
            continue
        try:
            resolved[opt.name] = opt.parse(raw)
        except ValueError as exc:
            raise UsageError(f"invalid value for {source}: {raw!r} ({exc})")
    return resolved


def _guard_outputs(paths, force: bool) -> None:
    if force:
        return
    for path in paths:
        if os.path.exists(path):
            raise UsageError(f"refusing to overwrite existing {path} (pass --force)")


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (Readout, CentersMode, FeatureMode)):
        return value.value
    if isinstance(value, (tuple, list)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _write_manifest(path, command, options, inputs, outputs, started) -> None:
    lines = [
        "kind = run_manifest",
        f"command = {command}",
        f"version = {__version__}",
    ]
    for key in sorted(options):
        lines.append(f"option.{key} = {_format_value(options[key])}")
    for key in sorted(inputs):
        lines.append(f"input.{key} = {inputs[key]}")
    for key in sorted(outputs):
        lines.append(f"output.{key} = {outputs[key]}")
    # What decides whether a re-run is bit for bit: interpreter, NumPy and BLAS threads.
    lines.append(f"env.python = {platform.python_version()}")
    lines.append(f"env.numpy = {np.__version__}")
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        lines.append(f"env.{var} = {os.environ.get(var, 'unset')}")
    lines.append(f"env.cpus = {usable_cpus()}")  # sets the --jobs default
    lines.append(f"duration_seconds = {time.monotonic() - started:.3f}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt_metric(value) -> str:
    return "undefined" if value is None else repr(float(value))


# ---------------------------------------------------------------------------
# input loading


def _load_dataset(path, expect_nodes=None):
    try:
        graphs = read_dataset(path, expect_nodes=expect_nodes)
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}")
    if not graphs:
        raise DataError(f"dataset {path} contains no graphs")
    return graphs


def _load_split(path) -> SplitPlan:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise DataError(f"cannot read split plan {path}: {exc}")
    try:
        return SplitPlan.from_text(text)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}")


def _load_checkpoint(path):
    try:
        return load_checkpoint(path)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}")


def _load_report(path) -> TrainReport:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise DataError(f"cannot read train report {path}: {exc}")
    try:
        return TrainReport.from_text(text)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}")


def _select_graphs(graphs, ids, what: str):
    by_id = {g.subject_id: g for g in graphs}
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise DataError(f"{what} references subject id {missing[0]} absent from the dataset")
    return [by_id[i] for i in ids]


def _check_plan_classes(plan: SplitPlan, graphs, where: str) -> None:
    """DataError unless every id of the plan is in the dataset and train and
    val each hold both classes, as training needs."""
    for name in ("train", "val", "test"):
        ids = getattr(plan, name)
        classes = {g.label for g in _select_graphs(graphs, ids, f"{where}: {name} list")}
        if name != "test" and classes != {0, 1}:
            held = f"holds only class {classes.pop()}" if ids else "is empty"
            raise DataError(f"{where}: the {name} list {held}; train and val need both classes")


def _build_model_config(opt, nodes, readout, centers, clusters) -> ModelConfig:
    try:
        config = ModelConfig(
            nodes=nodes,
            layers=opt["layers"],
            heads=opt["heads"],
            clusters=clusters,
            head_dim=opt["head_dim"],
            mlp_hidden=tuple(opt["mlp_hidden"]),
            readout=readout,
            centers_mode=centers,
            feature_mode=opt["features"],
            k_eigen=opt["k_eigen"],
        )
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc))
    return config


def _check_jobs(opt) -> None:
    if not 1 <= opt["jobs"] <= _MAX_JOBS:
        raise UsageError(f"--jobs must be in 1..{_MAX_JOBS}")


def _build_train_config(opt, seed) -> TrainConfig:
    try:
        config = TrainConfig(
            lr=opt["lr"],
            weight_decay=opt["weight_decay"],
            batch_size=opt["batch_size"],
            epochs=opt["epochs"],
            seed=seed,
        )
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc))
    return config


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    started = time.monotonic()
    opt = _resolve(args, _GENERATE_OPTS)
    if opt["modules"] > opt["nodes"]:
        raise UsageError(
            f"--modules ({opt['modules']}) cannot exceed --nodes ({opt['nodes']})"
        )
    spec = GeneratorSpec(
        nodes=opt["nodes"],
        modules=opt["modules"],
        subjects_per_class=opt["subjects_per_class"],
        sites=opt["sites"],
        within_strength=opt["within"],
        between_strength_class0=opt["between0"],
        between_strength_class1=opt["between1"],
        site_noise=opt["site_noise"],
        series_length=opt["series_length"],
        seed=opt["seed"],
    )
    try:
        spec.validate()
    except ValueError as exc:
        raise UsageError(str(exc))
    out = opt["out"]
    manifest = out + ".manifest"
    _guard_outputs([out, manifest], args.force)
    graphs = generate_dataset(spec)
    write_dataset(out, graphs)
    _write_manifest(manifest, "generate", opt, {}, {"dataset": out}, started)
    print(f"wrote {len(graphs)} graphs of {spec.nodes} nodes to {out}")
    return EXIT_OK


def cmd_split(args) -> int:
    started = time.monotonic()
    opt = _resolve(args, _SPLIT_OPTS)
    graphs = _load_dataset(opt["dataset"])
    splitter = random_split if args.no_stratify else stratified_split
    try:
        plan = splitter(graphs, opt["fractions"], Rng(opt["seed"]))
    except ValueError as exc:
        raise UsageError(str(exc))
    _check_plan_classes(plan, graphs, "split refused")
    out = opt["out"]
    manifest = out + ".manifest"
    _guard_outputs([out, manifest], args.force)
    with open(out, "w", encoding="utf-8") as f:
        f.write(plan.to_text())
    for warning in plan.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    options = dict(opt, stratified=not args.no_stratify)
    _write_manifest(manifest, "split", options, {"dataset": opt["dataset"]}, {"split": out}, started)
    print(
        f"split {len(graphs)} graphs into {len(plan.train)} train / "
        f"{len(plan.val)} val / {len(plan.test)} test -> {out}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    started = time.monotonic()
    opt = _resolve(args, _TRAIN_OPTS)
    _check_jobs(opt)
    graphs = _load_dataset(opt["dataset"])
    nodes = graphs[0].matrix.shape[0]
    plan = _load_split(opt["split"])
    _check_plan_classes(plan, graphs, opt["split"])
    model_config = _build_model_config(opt, nodes, opt["readout"], opt["centers"], opt["clusters"])
    train_config = _build_train_config(opt, opt["seed"])

    out_dir = opt["out"]
    checkpoint_path = os.path.join(out_dir, "checkpoint.bnt")
    report_path = os.path.join(out_dir, "report.txt")
    manifest_path = os.path.join(out_dir, "manifest.txt")
    _guard_outputs([checkpoint_path, report_path, manifest_path], args.force)

    params, report = train(graphs, plan, model_config, train_config, opt["jobs"])
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(checkpoint_path, params, model_config)
    with open(report_path, "w", encoding="utf-8") as f:
        f.write(report.to_text())

    options = dict(opt, nodes=nodes, head_dim=model_config.head_dim)
    _write_manifest(
        manifest_path,
        "train",
        options,
        {"dataset": opt["dataset"], "split": opt["split"]},
        {"checkpoint": checkpoint_path, "report": report_path},
        started,
    )
    test = report.test
    print(
        f"selected epoch {report.selected_epoch}; test auroc {_fmt_metric(test.auroc)} "
        f"accuracy {_fmt_metric(test.accuracy)} -> {out_dir}"
    )
    return EXIT_OK


def _eval_single(args) -> int:
    started = time.monotonic()
    opt = _resolve(args, _EVAL_OPTS)
    _check_jobs(opt)
    for name in ("checkpoint", "dataset", "split"):
        if opt[name] is None:
            raise UsageError(f"missing required option --{name}")
    params, config = _load_checkpoint(opt["checkpoint"])
    graphs = _load_dataset(opt["dataset"], expect_nodes=config.nodes)
    plan = _load_split(opt["split"])
    test_graphs = _select_graphs(graphs, plan.test, "test split")
    if not test_graphs:
        raise DataError("test split is empty; nothing to evaluate")
    result, _ = evaluate(params, config, test_graphs, opt["jobs"])

    seed = ""
    if opt["report"] is not None:
        seed = str(_load_report(opt["report"]).seed)
    run_id = opt["run_id"]
    if run_id is None:
        run_id = os.path.splitext(os.path.basename(opt["checkpoint"]))[0]

    out = opt["out"]
    manifest = out + ".manifest"
    _guard_outputs([out, manifest], args.force)
    row = [run_id, seed] + [_fmt_metric(getattr(result, m)) for m in _METRIC_FIELDS]
    _write_csv(out, EVAL_HEADER, [row])
    _write_manifest(
        manifest,
        "eval",
        dict(opt, aggregate=False),
        {"checkpoint": opt["checkpoint"], "dataset": opt["dataset"], "split": opt["split"]},
        {"metrics": out},
        started,
    )
    print(
        f"{run_id}: auroc {_fmt_metric(result.auroc)} accuracy {_fmt_metric(result.accuracy)} "
        f"({result.n_pos} pos / {result.n_neg} neg) -> {out}"
    )
    return EXIT_OK


def _eval_aggregate(args) -> int:
    started = time.monotonic()
    opt = _resolve(args, _EVAL_OPTS)
    _check_jobs(opt)
    for name in ("checkpoint", "dataset", "split", "report", "run_id"):
        if opt[name] is not None:
            raise UsageError(f"--{name.replace('_', '-')} is meaningless with --aggregate")
    if not args.inputs:
        raise UsageError("aggregate mode needs at least one input metrics CSV")

    rows = []
    for path in args.inputs:
        try:
            with open(path, "r", newline="", encoding="utf-8") as f:
                reader = csv.reader(f)
                header = next(reader, None)
                if header != EVAL_HEADER:
                    raise DataError(f"{path}: unexpected header {header!r}")
                for row in reader:
                    if len(row) != len(EVAL_HEADER):
                        raise DataError(f"{path}: malformed row {row!r}")
                    if row[0] in ("mean", "std"):
                        continue  # already-aggregated rows are not data
                    rows.append(row)
        except OSError as exc:
            raise DataError(f"cannot read metrics CSV {path}: {exc}")
    if not rows:
        raise DataError("no data rows found in the input CSVs")

    summary = {}
    for index, name in enumerate(_METRIC_FIELDS, start=2):
        texts = [row[index] for row in rows]
        if any(t == "undefined" for t in texts):
            summary[name] = ("undefined", "undefined")
            continue
        try:
            values = [float(t) for t in texts]
        except ValueError as exc:
            raise DataError(f"non-numeric {name} value in input CSVs ({exc})")
        summary[name] = (
            repr(statistics.fmean(values)),
            repr(statistics.pstdev(values)),
        )
    mean_row = ["mean", ""] + [summary[m][0] for m in _METRIC_FIELDS]
    std_row = ["std", ""] + [summary[m][1] for m in _METRIC_FIELDS]

    out = opt["out"]
    manifest = out + ".manifest"
    _guard_outputs([out, manifest], args.force)
    _write_csv(out, EVAL_HEADER, rows + [mean_row, std_row])
    inputs = {f"metrics{i}": path for i, path in enumerate(args.inputs)}
    _write_manifest(manifest, "eval", dict(opt, aggregate=True), inputs, {"metrics": out}, started)
    print(f"aggregated {len(rows)} runs from {len(args.inputs)} files -> {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.aggregate:
        return _eval_aggregate(args)
    if args.inputs:
        raise UsageError("positional CSV arguments are only valid with --aggregate")
    return _eval_single(args)


_PHI_GRID = [
    ("phi=0", 0.0),
    ("phi=pi/8", math.pi / 8),
    ("phi=pi/4", math.pi / 4),
    ("phi=3pi/8", 3 * math.pi / 8),
    ("phi=pi/2", math.pi / 2),
]


# One 2d value at n nodes holds several n x n arrays: 1,024 nodes take about
# 0.4 s and 42 MiB per call, and the cost grows fourfold per doubling.
_MAX_QUAD_NODES = 1024


def _theory_rows_2d(opt):
    if not 8 <= opt["quad_nodes"] <= _MAX_QUAD_NODES:
        raise UsageError(f"--quad-nodes must be in 8..{_MAX_QUAD_NODES}")
    rows = []
    for label, phi in _PHI_GRID:
        estimate = float(variance_functional_2d(phi, opt["r"], opt["quad_nodes"]))
        coarse = float(variance_functional_2d(phi, opt["r"], opt["quad_nodes"] // 2))
        rows.append(["2d", label, repr(estimate), repr(abs(estimate - coarse))])
    return rows


def _theory_rows_mc(opt):
    if opt["nodes"] < opt["clusters"] + 1:
        raise UsageError(
            "--nodes must exceed --clusters (the correlated construction needs the extra dimension)"
        )
    ortho = orthonormal_centers(opt["clusters"], opt["nodes"], opt["seed"])
    tilted = correlated_unit_centers(opt["clusters"], opt["nodes"], opt["cosine"])
    rows = []
    estimates = []
    for label, centers in (("orthonormal", ortho), (f"cosine_{opt['cosine']:g}", tilted)):
        est = variance_functional_mc(
            centers,
            opt["r"],
            opt["samples"],
            opt["seed"],
            jobs=opt["jobs"],
        )
        estimates.append(est)
        rows.append(["mc", label, repr(float(est.value)), repr(float(est.standard_error))])
    a, b = estimates
    combined = math.sqrt(a.standard_error**2 + b.standard_error**2)
    separation = (a.value - b.value) / combined if combined > 0 else math.inf
    rows.append(["mc", "separation_sigma", repr(float(separation)), ""])
    return rows


def _builtin_orthogonal_design(seed: int, s: int = 1024, r: int = 4) -> np.ndarray:
    # Orthonormalizing [ones; gaussians] then dropping the ones row leaves
    # r mean-zero pairwise-orthogonal columns, so each VIF is exactly 1.
    raw = Rng(seed).derive(1).normal(r * s).reshape(r, s)
    basis = gram_schmidt(np.vstack([np.ones((1, s)), raw]))
    return basis[1:].T


def _builtin_correlated_design(seed: int, s: int = 10_000, rho: float = 0.9) -> np.ndarray:
    base = Rng(seed)
    x = base.derive(2).normal(s)
    z = base.derive(3).normal(s)
    y = rho * x + math.sqrt(1.0 - rho * rho) * z
    return np.column_stack([x, y])


def _theory_rows_vif(opt):
    rows = []
    for label, design in (
        ("orthogonal", _builtin_orthogonal_design(opt["seed"])),
        ("rho09", _builtin_correlated_design(opt["seed"])),
    ):
        report = vif(design)
        for index, value in enumerate(report.vif):
            rows.append(["vif", f"{label}_col{index}", repr(value), ""])
        rows.append(["vif", f"{label}_mean", repr(report.mean_vif), ""])
    return rows


def cmd_verify_theory(args) -> int:
    started = time.monotonic()
    opt = _resolve(args, _THEORY_OPTS)
    _check_jobs(opt)
    prefix = opt["out"]
    csv_path, txt_path, manifest_path = (
        prefix + ".csv",
        prefix + ".txt",
        prefix + ".manifest",
    )
    _guard_outputs([csv_path, txt_path, manifest_path], args.force)

    rows = []
    if opt["mode"] in ("2d", "all"):
        rows.extend(_theory_rows_2d(opt))
    if opt["mode"] in ("mc", "all"):
        rows.extend(_theory_rows_mc(opt))
    if opt["mode"] in ("vif", "all"):
        rows.extend(_theory_rows_vif(opt))

    _write_csv(csv_path, THEORY_HEADER, rows)
    lines = ["kind = theory_report", f"mode = {opt['mode']}"]
    for mode, descriptor, estimate, error in rows:
        suffix = f", error = {error}" if error else ""
        lines.append(f"{mode} {descriptor}: estimate = {estimate}{suffix}")
    with open(txt_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    _write_manifest(
        manifest_path,
        "verify-theory",
        opt,
        {},
        {"csv": csv_path, "text": txt_path},
        started,
    )
    print(f"wrote {len(rows)} check rows -> {csv_path}")
    return EXIT_OK


def cmd_export_assignments(args) -> int:
    started = time.monotonic()
    opt = _resolve(args, _EXPORT_OPTS)
    _check_jobs(opt)
    params, config = _load_checkpoint(opt["checkpoint"])
    if config.readout is not Readout.OCREAD:
        raise UsageError(
            f"checkpoint readout is '{config.readout.value}'; "
            "cluster assignments exist only for the ocread readout"
        )
    graphs = _load_dataset(opt["dataset"], expect_nodes=config.nodes)
    plan = _load_split(opt["split"])
    test_graphs = _select_graphs(graphs, plan.test, "test split")
    labels = [g.label for g in test_graphs]
    for label in (0, 1):
        if label not in labels:
            raise DataError(f"test split has no class-{label} graphs to average over")

    # One graph per chunk keeps the single-graph GEMM shapes, hence the bytes
    # of every V, and a working set that stays in cache.
    sums = np.zeros((2, config.nodes, config.clusters))
    chunks = score_chunks([g.matrix for g in test_graphs], params, config, 1, opt["jobs"])
    with contextlib.closing(chunks):
        for rows, _, assignment in chunks:
            sums[labels[rows.start]] += assignment[0]  # in test-split order
    averaged = {label: sums[label] / labels.count(label) for label in (0, 1)}

    rows = []
    for label in (0, 1):
        matrix = averaged[label]  # nodes x clusters
        for cluster in range(config.clusters):
            for node in range(config.nodes):
                rows.append(
                    [
                        "assignment",
                        str(label),
                        str(cluster),
                        str(node),
                        repr(float(matrix[node, cluster])),
                    ]
                )
    score = difference_score(averaged[0], averaged[1])
    rows.append(["difference_score", "", "", "", repr(score)])

    out = opt["out"]
    manifest = out + ".manifest"
    _guard_outputs([out, manifest], args.force)
    _write_csv(out, ["kind", "class", "cluster", "node", "value"], rows)
    _write_manifest(
        manifest,
        "export-assignments",
        opt,
        {"checkpoint": opt["checkpoint"], "dataset": opt["dataset"], "split": opt["split"]},
        {"assignments": out},
        started,
    )
    print(
        f"exported {config.clusters * config.nodes} assignment rows per class; "
        f"difference score {score!r} -> {out}"
    )
    return EXIT_OK


def cmd_ablate(args) -> int:
    started = time.monotonic()
    opt = _resolve(args, _ABLATE_OPTS)
    _check_jobs(opt)
    graphs = _load_dataset(opt["dataset"])
    nodes = graphs[0].matrix.shape[0]
    plan = _load_split(opt["split"])
    _check_plan_classes(plan, graphs, opt["split"])

    combos = [
        (readout, centers, clusters)
        for readout in opt["readouts"]
        for centers in opt["centers"]
        for clusters in opt["clusters"]
    ]
    seeds = opt["seeds"]
    if not combos or not seeds:
        raise UsageError("the sweep is empty")

    def model_path(readout, centers, clusters, seed):
        name = f"{readout.value}_{centers.value}_k{clusters}_seed{seed}.bnt"
        return os.path.join(opt["save_models"], name)

    out = opt["out"]
    manifest = out + ".manifest"
    guarded = [out, manifest]
    if opt["save_models"] is not None:
        guarded.extend(
            model_path(r, c, k, s) for (r, c, k) in combos for s in seeds
        )
    _guard_outputs(guarded, args.force)

    # validate every combination before spending minutes training any
    configs = {combo: _build_model_config(opt, nodes, *combo) for combo in combos}
    train_configs = {seed: _build_train_config(opt, seed) for seed in seeds}

    def train_run(run):
        combo, seed = run
        params, report = train(graphs, plan, configs[combo], train_configs[seed], opt["jobs"])
        return params.vector, report

    # Runs train in worker processes; checkpoints, stderr lines and rows
    # follow here in sweep order, as a serial loop would write them.
    rows = []
    runs = [(combo, seed) for combo in combos for seed in seeds]
    with contextlib.closing(ordered_map(train_run, runs, opt["jobs"])) as outcomes:
        for readout, centers, clusters in combos:
            results = []
            for seed in seeds:
                try:
                    vector, report = next(outcomes)
                except (DegenerateBasisError, EigenConvergenceError, FloatingPointError, WorkerDied) as exc:
                    raise type(exc)(
                        f"readout={readout.value} centers={centers.value} "
                        f"clusters={clusters} seed={seed}: {exc}"
                    )
                if opt["save_models"] is not None:
                    model_config = configs[(readout, centers, clusters)]
                    os.makedirs(opt["save_models"], exist_ok=True)
                    save_checkpoint(model_path(readout, centers, clusters, seed),
                                    ModelParams(vector, model_config), model_config)
                results.append(report.test)
                rows.append(
                    [
                        readout.value,
                        centers.value,
                        str(clusters),
                        str(seed),
                        str(report.selected_epoch),
                    ]
                    + [_fmt_metric(getattr(report.test, m)) for m in _METRIC_FIELDS]
                )
                print(
                    f"[ablate] readout={readout.value} centers={centers.value} "
                    f"clusters={clusters} seed={seed}: auroc {_fmt_metric(report.test.auroc)}",
                    file=sys.stderr,
                )
            for stat_name, reducer in (("mean", statistics.fmean), ("std", statistics.pstdev)):
                cells = []
                for metric in _METRIC_FIELDS:
                    values = [getattr(t, metric) for t in results]
                    if any(v is None for v in values):
                        cells.append("undefined")
                    else:
                        cells.append(repr(reducer([float(v) for v in values])))
                rows.append([readout.value, centers.value, str(clusters), stat_name, ""] + cells)

    _write_csv(out, ABLATE_HEADER, rows)
    options = dict(opt, nodes=nodes)
    outputs = {"csv": out}
    if opt["save_models"] is not None:
        outputs["models_dir"] = opt["save_models"]
    _write_manifest(
        manifest,
        "ablate",
        options,
        {"dataset": opt["dataset"], "split": opt["split"]},
        outputs,
        started,
    )
    print(f"{len(combos) * len(seeds)} runs across {len(combos)} combinations -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly and entry point


def _add_opts(parser, opts) -> None:
    for opt in opts:
        parser.add_argument(
            opt.flag,
            dest=opt.name,
            default=None,
            metavar=opt.name.upper(),
            help=f"{opt.help} (default: {_format_value(opt.default) if opt.default is not _REQUIRED else 'required'})",
        )


def _add_common(parser) -> None:
    parser.add_argument("--config", default=None, metavar="FILE", help="key = value option file")
    parser.add_argument("--force", action="store_true", help="allow overwriting existing outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bnt", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"bnt {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    spec = [
        ("generate", "synthesize a connectivity dataset", cmd_generate, _GENERATE_OPTS),
        ("split", "write a train/val/test split plan", cmd_split, _SPLIT_OPTS),
        ("train", "fit a model and write a run directory", cmd_train, _TRAIN_OPTS),
        ("eval", "score a checkpoint or aggregate metrics CSVs", cmd_eval, _EVAL_OPTS),
        ("verify-theory", "run the numerical theory checks", cmd_verify_theory, _THEORY_OPTS),
        (
            "export-assignments",
            "export class-averaged cluster assignments",
            cmd_export_assignments,
            _EXPORT_OPTS,
        ),
        ("ablate", "sweep readouts x centers x clusters x seeds", cmd_ablate, _ABLATE_OPTS),
    ]
    for name, help_text, func, opts in spec:
        p = sub.add_parser(name, help=help_text, description=help_text)
        _add_common(p)
        _add_opts(p, opts)
        if name == "split":
            p.add_argument(
                "--no-stratify",
                action="store_true",
                help="plain random split instead of per-(site,label) stratification",
            )
        if name == "eval":
            p.add_argument(
                "--aggregate",
                action="store_true",
                help="combine the given metrics CSVs and append mean/std rows",
            )
            p.add_argument(
                "inputs",
                nargs="*",
                metavar="CSV",
                help="input metrics CSVs (aggregate mode only)",
            )
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, DatasetFormatError, CheckpointFormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DegenerateBasisError, EigenConvergenceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (MemoryError, WorkerDied) as exc:
        print(f"resource failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
