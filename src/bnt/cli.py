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

Every run writes exactly one manifest (key = value text): the command,
library version, an option.* line per resolved option (the --no-stratify
and --aggregate switches are true/false options), an input.* line per
input file read, the outputs and the wall-clock duration.  An option left
without a value has no line, so the option lines, as a --config file,
replay the run: its outputs come out bit for bit (single-threaded BLAS,
which importing ``bnt`` sets where the thread variables are unset).
Existing outputs are never overwritten unless --force is given, and that
check comes before any input is read.

A command writes all of its outputs or none.  Each is staged as a hidden
temp file and moved into place only when the command has succeeded, the
manifest last; a failed or interrupted command leaves no output, temp
file or new directory, and --force replaces existing outputs only on
success.  Only train's run directory and ablate's --save-models directory
are made for the command; any other output's directory must exist.

Option resolution order: explicit flag, then --config file entry
(key = value lines keyed by option name), then the BNT_SEED environment
variable (seed options only), then the built-in default.  An option that
sets a GeneratorSpec, ModelConfig or TrainConfig field takes that field's
default, and its parser from the field's type, so the two cannot drift.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
failure or out of memory, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import math
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, get_type_hints

import numpy as np

from . import __version__
from .data import (
    DatasetFormatError,
    GeneratorSpec,
    SplitPlan,
    generate_dataset,
    make_temp,
    random_split,
    read_dataset,
    stratified_split,
    write_dataset,
)
from .linalg import DegenerateBasisError, EigenConvergenceError, gram_schmidt
from .metrics import difference_score, format_metric
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
from .workers import WorkerDied, lane_cap, ordered_map, usable_cpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports Ctrl-C

ENV_SEED = "BNT_SEED"

_METRIC_FIELDS = ("auroc", "accuracy", "sensitivity", "specificity")

EVAL_HEADER = ["run_id", "seed", *_METRIC_FIELDS]
ABLATE_HEADER = [
    "readout",
    "centers",
    "clusters",
    "seed",
    "selected_epoch",
    *_METRIC_FIELDS,
]
THEORY_HEADER = ["mode", "descriptor", "estimate", "error"]


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
    name: str  # argparse dest and config-file key; the flag is --name, dashed
    parse: Callable[[str], object]
    default: object
    help: str

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()} is not a finite number")
    return value


def _choice(tokens: dict, shown=None):
    """A parser of one key of ``tokens`` (token -> value), ignoring case and
    outer spaces; its error lists ``shown``, by default every token."""
    expected = f"expected one of: {', '.join(shown or tokens)}"

    def parse(text: str):
        try:
            return tokens[text.strip().lower()]
        except KeyError:
            raise ValueError(expected) from None

    return parse


def _list_of(parse, empty=None, distinct=False):
    """A parser of comma-separated ``parse`` values, blank items skipped;
    ``empty``, if given, is the error for a list of none, and a ``distinct``
    list refuses a value it already holds (a sweep would train it twice)."""

    def parse_list(text: str):
        parts = [p for p in text.split(",") if p.strip() != ""]
        if empty and not parts:
            raise ValueError(empty)
        values = tuple(parse(p) for p in parts)
        for i, value in enumerate(values):
            if distinct and value in values[:i]:
                raise ValueError(f"{parts[i].strip()} repeats an earlier value")
        return values

    return parse_list


def _parse_fractions(text: str):
    parts = _list_of(str)(text)
    if len(parts) != 3:
        raise ValueError("expected three comma-separated fractions, e.g. 0.7,0.1,0.2")
    return tuple(_parse_float(p) for p in parts)


_parse_readout = _choice({r.value: r for r in Readout})
_parse_centers = _choice(
    {**{c.value: c for c in CentersMode}, "random": CentersMode.RANDOM_UNIT},
    shown=("orthonormal", "random", "learnable"),
)
_parse_feature = _choice({f.value: f for f in FeatureMode})
_parse_theory_mode = _choice({m: m for m in ("mc", "2d", "vif", "all")})
_parse_switch = _choice({"true": True, "false": False})
_parse_int_list = _list_of(_parse_int, empty="expected a comma-separated list of integers")
_parse_int_sweep = _list_of(_parse_int, empty="expected a comma-separated list of integers", distinct=True)

_MAX_JOBS = 64

_JOBS_OPT = _Opt(
    "jobs",
    _parse_int,
    min(usable_cpus(), _MAX_JOBS),
    "worker processes (ablate runs, Monte Carlo blocks) or threads (a large train step, a scoring pass), "
    f"1..{_MAX_JOBS}, at most one per usable CPU and per run or block; defaults to the usable CPUs",
)

# The option of each config field not named after it.
_OPTION_OF = {
    "within_strength": "within",
    "between_strength_class0": "between0",
    "between_strength_class1": "between1",
    "centers_mode": "centers",
    "feature_mode": "features",
}

# The parser of a config field's option, by the field's type hint.
_PARSER_OF = {int: _parse_int, int | None: _parse_int, float: _parse_float, tuple[int, ...]: _parse_int_list,
              Readout: _parse_readout, CentersMode: _parse_centers, FeatureMode: _parse_feature}


def _field_opts(cls, **helps):
    """An option per field of ``cls`` that ``helps`` names (field -> help), in that order: its name
    from ``_OPTION_OF`` (else the field's), its parser from the field's type hint, its default the field's."""
    hints, defaults = get_type_hints(cls), {f.name: f.default for f in fields(cls)}
    return [_Opt(_OPTION_OF.get(name, name), _PARSER_OF[hints[name]], defaults[name], text)
            for name, text in helps.items()]


# the options that name an input file: a manifest's input.* lines are those set, then eval --aggregate's CSVs
_INPUT_OPTS = ("checkpoint", "dataset", "report", "split")

# the required dataset and split-plan inputs (eval's are optional)
_DATASET_OPT = _Opt("dataset", str, _REQUIRED, "input dataset path")
_PLAN_OPT = _Opt("split", str, _REQUIRED, "input split-plan path")

_GENERATE_OPTS = [_Opt("out", str, _REQUIRED, "output dataset path")] + _field_opts(
    GeneratorSpec,
    nodes="nodes per graph",
    modules="planted module count",
    subjects_per_class="subjects per class (two classes)",
    sites="collection site count",
    within_strength="within-module signal strength",
    between_strength_class0="between-module mixing for class 0",
    between_strength_class1="between-module mixing for class 1",
    site_noise="site effect scale",
    series_length="synthetic time-series length",
    seed="generator seed",
)

_SPLIT_OPTS = [
    _DATASET_OPT,
    _Opt("out", str, _REQUIRED, "output split-plan path"),
    _Opt(
        "fractions",
        _parse_fractions,
        (0.7, 0.1, 0.2),
        "train,val,test fractions summing to 1",
    ),
    _Opt("seed", _parse_int, 0, "shuffle seed"),
    _Opt("no_stratify", _parse_switch, False, "plain random split instead of per-(site,label) stratification"),
]


_MODEL_OPTS = _field_opts(
    ModelConfig,
    layers="attention layers",
    heads="attention heads per layer",
    head_dim="per-head width (default: ceil(nodes/heads))",
    mlp_hidden="classifier hidden widths, comma-separated",
    feature_mode="node features: profile | profile_identity | profile_eigen",
    k_eigen="eigenvector count for profile_eigen features",
)

_HYPER_OPTS = _field_opts(
    TrainConfig,
    lr="Adam learning rate",
    weight_decay="l2 penalty added to gradients",
    batch_size="minibatch size",
    epochs="training epochs",
)


_TRAIN_OPTS = (
    [
        _DATASET_OPT,
        _PLAN_OPT,
        _Opt("out", str, _REQUIRED, "output run directory"),
    ]
    + _field_opts(
        ModelConfig,
        readout="graph readout kind",
        centers_mode="cluster centers: orthonormal | random | learnable",
        clusters="readout cluster count",
    )
    + _MODEL_OPTS
    + _HYPER_OPTS
    + _field_opts(TrainConfig, seed="training seed")
    + [_JOBS_OPT]
)

_EVAL_OPTS = [
    _Opt("checkpoint", str, None, "model checkpoint path"),
    _Opt("dataset", str, None, "input dataset path"),
    _Opt("split", str, None, "input split-plan path"),
    _Opt("out", str, _REQUIRED, "output metrics CSV path"),
    _Opt("report", str, None, "train report providing the seed column"),
    _Opt("run_id", str, None, "row label (default: checkpoint stem)"),
    _JOBS_OPT,
    _Opt("aggregate", _parse_switch, False, "combine the given metrics CSVs and append mean/std rows"),
]

_THEORY_OPTS = [
    _Opt("out", str, _REQUIRED, "output prefix (writes PREFIX.csv/.txt/.manifest)"),
    _Opt("mode", _parse_theory_mode, "all", "which checks to run: mc | 2d | vif | all"),
    _Opt("r", _parse_float, 3.0, "ball / disc radius"),
    _Opt("samples", _parse_int, 1_000_000, "Monte Carlo sample count"),
    _Opt("nodes", _parse_int, 8, "embedding dimension for the mc check"),
    _Opt("clusters", _parse_int, 4, "cluster count for the mc check"),
    _Opt("cosine", _parse_float, 0.5, "pairwise cosine of the correlated centers"),
    _Opt("quad_nodes", _parse_int, 64, "quadrature nodes per axis (2d mode)"),
    _JOBS_OPT,
    _Opt("seed", _parse_int, 0, "sampling seed"),
]

_EXPORT_OPTS = [
    _Opt("checkpoint", str, _REQUIRED, "model checkpoint path"),
    _DATASET_OPT,
    _PLAN_OPT,
    _Opt("out", str, _REQUIRED, "output assignments CSV path"),
    _JOBS_OPT,
]

_ABLATE_OPTS = (
    [
        _DATASET_OPT,
        _PLAN_OPT,
        _Opt("out", str, _REQUIRED, "output combined CSV path"),
        _Opt(
            "readouts",
            _list_of(_parse_readout, distinct=True),
            (Readout.OCREAD,),
            "readouts to sweep, comma-separated",
        ),
        _Opt(
            "centers",
            _list_of(_parse_centers, distinct=True),
            (CentersMode.ORTHONORMAL, CentersMode.RANDOM_UNIT),
            "center modes to sweep (only affect the ocread readout)",
        ),
        _Opt("clusters", _parse_int_sweep, (4,), "cluster counts to sweep"),
        _Opt(
            "seeds",
            _parse_int_sweep,
            (0, 1, 2, 3, 4),
            "training seeds to sweep",
        ),
        _Opt(
            "save_models",
            str,
            None,
            "directory receiving one checkpoint per run",
        ),
        _JOBS_OPT,
    ]
    + _MODEL_OPTS
    + _HYPER_OPTS
)


# ---------------------------------------------------------------------------
# resolution, manifests, writing


def _read_config_file(path: str) -> dict:
    def parse(text):
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

    return _load_text(path, "config file", parse, UsageError)


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
        if raw is None and opt.name in ("seed", "seeds") and env_seed is not None:
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


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _manifest_text(command, options, inputs, outputs, started) -> str:
    lines = [
        "kind = run_manifest",
        f"command = {command}",
        f"version = {__version__}",
    ]
    for key in sorted(options):
        if options[key] is not None:  # an option left unset has no value to pass back
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
    return "\n".join(lines) + "\n"


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _summary_rows(columns, lead):
    """The mean and std rows over metric ``columns``: ``lead(stat)`` then one
    cell per column, "undefined" where the column holds an undefined (None)
    value."""
    return [
        lead(stat) + [
            format_metric(None if any(v is None for v in column) else reducer([float(v) for v in column]))
            for column in columns
        ]
        for stat, reducer in (("mean", statistics.fmean), ("std", statistics.pstdev))
    ]


# ---------------------------------------------------------------------------
# input loading


def _load_dataset(path, expect_nodes=None):
    try:
        dataset = read_dataset(path, expect_nodes=expect_nodes)
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}")
    if not len(dataset):
        raise DataError(f"dataset {path} contains no graphs")
    return dataset


def _load_text(path, what: str, parse, error=DataError):
    """parse(the text of path); ``error`` if it cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}")
    try:
        return parse(text)
    except ValueError as exc:
        raise error(f"{path}: {exc}")


def _load_checkpoint(path):
    try:
        return load_checkpoint(path)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}")


def _load_plan(opt, dataset, names=("train", "val", "test")):
    """The --split plan and the dataset rows of its named lists; a plan that
    does not fit ``dataset`` (``SplitPlan.select``) is a data error naming the file."""

    def parse(text):
        plan = SplitPlan.from_text(text)
        return plan, plan.select(dataset, names)

    return _load_text(opt["split"], "split plan", parse)


def _load_training_inputs(opt):
    """The dataset, its node count and the checked split plan that train and ablate read."""
    dataset = _load_dataset(opt["dataset"])
    plan, _ = _load_plan(opt, dataset)
    return dataset, dataset.matrices.shape[1], plan


def _load_test_split(opt, config):
    """The dataset and its test split's rows, for a checkpoint of ``config``;
    scoring gathers the rows a chunk at a time (``score_chunks``' ``take``)."""
    dataset = _load_dataset(opt["dataset"], expect_nodes=config.nodes)
    _, (rows,) = _load_plan(opt, dataset, ("test",))
    return dataset, rows


def _config(cls, opt, **given):
    """A validated ``cls``, each field ``given`` or else the resolved option
    ``_OPTION_OF`` names (by default, the field's own); a field set by neither
    raises KeyError instead of taking its default.  A ValueError from validate() exits 1."""
    for field in fields(cls):
        if field.name not in given:
            given[field.name] = opt[_OPTION_OF.get(field.name, field.name)]
    config = cls(**given)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# commands: each body reads its inputs, computes, writes into the staged
# paths it is handed, and returns its stdout line


def _generate(opt, args, staged):
    if opt["modules"] > opt["nodes"]:
        raise UsageError(
            f"--modules ({opt['modules']}) cannot exceed --nodes ({opt['nodes']})"
        )
    dataset = generate_dataset(_config(GeneratorSpec, opt))
    write_dataset(staged["dataset"], dataset)
    return f"wrote {len(dataset)} graphs of {opt['nodes']} nodes to {opt['out']}"


def _split(opt, args, staged):
    dataset = _load_dataset(opt["dataset"])
    splitter = random_split if opt["no_stratify"] else stratified_split
    plan = splitter(dataset, opt["fractions"], Rng(opt["seed"]))
    plan.select(dataset)  # refuses a plan that training could not use
    _write_text(staged["split"], plan.to_text())
    for warning in plan.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return (f"split {len(dataset)} graphs into {len(plan.train)} train / "
            f"{len(plan.val)} val / {len(plan.test)} test -> {opt['out']}")


def _train(opt, args, staged):
    dataset, nodes, plan = _load_training_inputs(opt)
    model_config = _config(ModelConfig, opt, nodes=nodes)
    train_config = _config(TrainConfig, opt)
    params, report = train(dataset, plan, model_config, train_config, opt["jobs"])
    save_checkpoint(staged["checkpoint"], params, model_config)
    _write_text(staged["report"], report.to_text())
    test = report.test
    return (f"selected epoch {report.selected_epoch}; test auroc {format_metric(test.auroc)} "
            f"accuracy {format_metric(test.accuracy)} -> {opt['out']}")


def _eval(opt, args, staged):
    if opt["aggregate"]:
        return _eval_aggregate(opt, args, staged)
    if args.inputs:
        raise UsageError("positional CSV arguments are only valid with --aggregate")
    for name in ("checkpoint", "dataset", "split"):
        if opt[name] is None:
            raise UsageError(f"missing required option --{name}")
    params, config = _load_checkpoint(opt["checkpoint"])
    dataset, test = _load_test_split(opt, config)
    seed = ""
    if opt["report"] is not None:
        report = _load_text(opt["report"], "train report", TrainReport.from_text)
        if report.model_config != config:
            raise DataError(f"train report {opt['report']} does not describe checkpoint {opt['checkpoint']}")
        seed = str(report.train_config.seed)
    result = evaluate(params, config, dataset.matrices, dataset.labels, opt["jobs"], test)
    run_id = opt["run_id"]
    if run_id is None:
        run_id = os.path.splitext(os.path.basename(opt["checkpoint"]))[0]

    row = [run_id, seed] + [format_metric(getattr(result, m)) for m in _METRIC_FIELDS]
    _write_csv(staged["metrics"], EVAL_HEADER, [row])
    return (f"{run_id}: auroc {format_metric(result.auroc)} accuracy {format_metric(result.accuracy)} "
            f"({result.n_pos} pos / {result.n_neg} neg) -> {opt['out']}")


def _metric_column(texts, name: str):
    """The values of one metric column of the input CSVs; [None] if any is undefined."""
    if "undefined" in texts:
        return [None]
    try:
        return [_parse_float(t) for t in texts]
    except ValueError as exc:
        raise DataError(f"invalid {name} value in input CSVs ({exc})")


def _eval_aggregate(opt, args, staged):
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
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read metrics CSV {path}: {exc}")
    if not rows:
        raise DataError("no data rows found in the input CSVs")

    columns = [_metric_column([row[index] for row in rows], name)
               for index, name in enumerate(_METRIC_FIELDS, start=2)]
    _write_csv(staged["metrics"], EVAL_HEADER, rows + _summary_rows(columns, lambda stat: [stat, ""]))
    return f"aggregated {len(rows)} runs from {len(args.inputs)} files -> {opt['out']}"


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
    if opt["clusters"] < 1:
        raise UsageError("--clusters must be at least 1")
    if opt["nodes"] < opt["clusters"] + 1:
        raise UsageError(
            "--nodes must exceed --clusters (the correlated construction needs the extra dimension)"
        )
    ortho = orthonormal_centers(opt["clusters"], opt["nodes"], opt["seed"])
    tilted = correlated_unit_centers(opt["clusters"], opt["nodes"], opt["cosine"])
    estimates = variance_functional_mc(
        np.stack([ortho, tilted]), opt["r"], opt["samples"], opt["seed"], jobs=opt["jobs"]
    )
    rows = [
        ["mc", label, repr(float(est.value)), repr(float(est.standard_error))]
        for label, est in zip(("orthonormal", f"cosine_{opt['cosine']:g}"), estimates)
    ]
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


def _builtin_correlated_design(seed: int, rho: float = 0.9) -> np.ndarray:
    # From two mean-zero orthonormal columns the sample correlation is exactly rho.
    x, z = _builtin_orthogonal_design(seed, 10_000, 2).T
    return np.column_stack([x, rho * x + math.sqrt(1.0 - rho * rho) * z])


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


def _verify_theory(opt, args, staged):
    rows = []
    for mode, check in (("2d", _theory_rows_2d), ("mc", _theory_rows_mc), ("vif", _theory_rows_vif)):
        if opt["mode"] in (mode, "all"):
            rows.extend(check(opt))
    _write_csv(staged["csv"], THEORY_HEADER, rows)
    lines = ["kind = theory_report", f"mode = {opt['mode']}"]
    for mode, descriptor, estimate, error in rows:
        suffix = f", error = {error}" if error else ""
        lines.append(f"{mode} {descriptor}: estimate = {estimate}{suffix}")
    _write_text(staged["text"], "\n".join(lines) + "\n")
    return f"wrote {len(rows)} check rows -> {opt['out']}.csv"


def _export_assignments(opt, args, staged):
    params, config = _load_checkpoint(opt["checkpoint"])
    if config.readout is not Readout.OCREAD:
        raise UsageError(
            f"checkpoint readout is '{config.readout.value}'; "
            "cluster assignments exist only for the ocread readout"
        )
    dataset, test = _load_test_split(opt, config)
    counts = np.bincount(dataset.labels[test], minlength=2)
    for label in (0, 1):
        if not counts[label]:
            raise DataError(f"test split has no class-{label} graphs to average over")

    sums = np.zeros((2, config.nodes, config.clusters))
    for rows, _, assignment in score_chunks(dataset.matrices, params, config, opt["jobs"], test):
        for label, graph in zip(dataset.labels[test[rows]], assignment):
            sums[label] += graph  # in test-split order
    averaged = {label: sums[label] / counts[label] for label in (0, 1)}

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

    _write_csv(staged["assignments"], ["kind", "class", "cluster", "node", "value"], rows)
    return (f"exported {config.clusters * config.nodes} assignment rows per class; "
            f"difference score {score!r} -> {opt['out']}")


def _combos(opt):
    return [
        (readout, centers, clusters)
        for readout in opt["readouts"]
        for centers in opt["centers"]
        for clusters in opt["clusters"]
    ]


def _ablate(opt, args, staged):
    dataset, nodes, plan = _load_training_inputs(opt)
    combos, seeds = _combos(opt), opt["seeds"]
    if not combos:  # an empty --readouts or --centers; the integer sweeps refuse an empty list
        raise UsageError("the sweep is empty")

    # validate every combination before spending minutes training any
    configs = {(r, c, k): _config(ModelConfig, opt, nodes=nodes, readout=r, centers_mode=c, clusters=k)
               for r, c, k in combos}
    train_configs = {seed: _config(TrainConfig, opt, seed=seed) for seed in seeds}

    def train_run(run):
        combo, seed = run
        params, report = train(dataset, plan, configs[combo], train_configs[seed], opt["jobs"])
        return params.vector, report

    # Runs train in worker processes; checkpoints, stderr lines and rows
    # follow here in sweep order, as a serial loop would write them.
    rows = []
    runs = [(combo, seed) for combo in combos for seed in seeds]
    with contextlib.closing(ordered_map(train_run, runs, lane_cap(opt["jobs"]))) as outcomes:
        for combo in combos:
            readout, centers, clusters = combo
            tests = []
            for seed in seeds:
                run = f"readout={readout.value} centers={centers.value} clusters={clusters} seed={seed}"
                try:
                    vector, report = next(outcomes)
                except (DegenerateBasisError, EigenConvergenceError, FloatingPointError, WorkerDied) as exc:
                    raise type(exc)(f"{run}: {exc}")
                if opt["save_models"] is not None:
                    save_checkpoint(staged[combo, seed], ModelParams(vector, configs[combo]), configs[combo])
                tests.append(report.test)
                rows.append(
                    [
                        readout.value,
                        centers.value,
                        str(clusters),
                        str(seed),
                        str(report.selected_epoch),
                    ]
                    + [format_metric(getattr(report.test, m)) for m in _METRIC_FIELDS]
                )
                print(f"[ablate] {run}: auroc {format_metric(report.test.auroc)}", file=sys.stderr)
            columns = [[getattr(t, m) for t in tests] for m in _METRIC_FIELDS]
            rows += _summary_rows(columns, lambda stat: [readout.value, centers.value, str(clusters), stat, ""])

    _write_csv(staged["csv"], ABLATE_HEADER, rows)
    return f"{len(combos) * len(seeds)} runs across {len(combos)} combinations -> {opt['out']}"


# ---------------------------------------------------------------------------
# the command table and its runner


def _outputs(manifest: str, new_dir=None, **listed):
    """(every file, the manifest last; the outputs the manifest lists; the
    directory the files may be written into if it does not exist yet)."""
    return dict(listed, manifest=manifest), listed, new_dir


def _beside(key: str):
    """Outputs of a command that writes --out, named ``key`` in its manifest,
    and --out.manifest."""
    return lambda opt: _outputs(opt["out"] + ".manifest", **{key: opt["out"]})


def _train_outputs(opt):
    checkpoint, report, manifest = (os.path.join(opt["out"], name)
                                    for name in ("checkpoint.bnt", "report.txt", "manifest.txt"))
    return _outputs(manifest, new_dir=opt["out"], checkpoint=checkpoint, report=report)


def _theory_outputs(opt):
    return _outputs(opt["out"] + ".manifest", csv=opt["out"] + ".csv", text=opt["out"] + ".txt")


def _ablate_outputs(opt):
    files, listed, _ = _beside("csv")(opt)
    if opt["save_models"] is None:
        return files, listed, None
    listed["models_dir"] = opt["save_models"]
    for readout, centers, clusters in _combos(opt):
        for seed in opt["seeds"]:
            name = f"{readout.value}_{centers.value}_k{clusters}_seed{seed}.bnt"
            files[(readout, centers, clusters), seed] = os.path.join(opt["save_models"], name)
    return files, listed, opt["save_models"]


@dataclass(frozen=True)
class _Command:
    help: str
    opts: list
    # opt -> ({key: path} of every file written, "manifest" among them, in
    # guard order; {key: path} the manifest lists as outputs; the directory
    # the command makes, with its missing parents, or None)
    outputs: Callable
    body: Callable  # (opt, args, {key: staged path}) -> stdout line; _run alone writes the manifest
    flags: tuple = ()  # positional argparse arguments, as (name, keywords) pairs


_COMMANDS = {
    "generate": _Command(
        help="synthesize a connectivity dataset",
        opts=_GENERATE_OPTS,
        outputs=_beside("dataset"),
        body=_generate,
    ),
    "split": _Command(
        help="write a train/val/test split plan",
        opts=_SPLIT_OPTS,
        outputs=_beside("split"),
        body=_split,
    ),
    "train": _Command(
        help="fit a model and write a run directory",
        opts=_TRAIN_OPTS,
        outputs=_train_outputs,
        body=_train,
    ),
    "eval": _Command(
        help="score a checkpoint or aggregate metrics CSVs",
        opts=_EVAL_OPTS,
        outputs=_beside("metrics"),
        body=_eval,
        flags=(("inputs", dict(nargs="*", metavar="CSV", help="input metrics CSVs (aggregate mode only)")),),
    ),
    "verify-theory": _Command(
        help="run the numerical theory checks",
        opts=_THEORY_OPTS,
        outputs=_theory_outputs,
        body=_verify_theory,
    ),
    "export-assignments": _Command(
        help="export class-averaged cluster assignments",
        opts=_EXPORT_OPTS,
        outputs=_beside("assignments"),
        body=_export_assignments,
    ),
    "ablate": _Command(
        help="sweep readouts x centers x clusters x seeds",
        opts=_ABLATE_OPTS,
        outputs=_ablate_outputs,
        body=_ablate,
    ),
}


def _parents(path):
    """(the nearest existing directory above path, the missing ones below
    it, outermost first); NotADirectoryError if a file stands in the way."""
    directory, missing = os.path.dirname(path) or os.curdir, []
    while not os.path.isdir(directory):
        if os.path.lexists(directory):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
        missing.insert(0, directory)
        directory = os.path.dirname(directory) or os.curdir
    return directory, missing


def _run(name: str, args) -> int:
    """Run one command: resolve its options, check --jobs, refuse to overwrite
    (unless --force) or to write where a file cannot go, stage every output
    as a temp file on its target's filesystem, run the body, then make the
    missing directories and move the outputs into place, the manifest last.
    On any exception, Ctrl-C included, the temp files and new directories
    are removed, and outputs that already existed stay as they were."""
    started = time.monotonic()
    command = _COMMANDS[name]
    opt = _resolve(args, command.opts)
    inputs = {key: opt[key] for key in _INPUT_OPTS if opt.get(key) is not None}
    inputs.update((f"metrics{i}", path) for i, path in enumerate(getattr(args, "inputs", ())))
    texts = [(o.flag, opt[o.name]) for o in command.opts] + [("input", p) for p in inputs.values()]
    for where, value in texts:  # a line break, any that str.splitlines sees, would forge manifest lines
        if isinstance(value, str) and "".join(value.splitlines()) != value:
            raise UsageError(f"{where} value {value!r} contains a line break")
    if "jobs" in opt and not 1 <= opt["jobs"] <= _MAX_JOBS:
        raise UsageError(f"--jobs must be in 1..{_MAX_JOBS}")
    files, listed, new_dir = command.outputs(opt)
    # Refused here, not when a rename fails after other outputs have moved:
    # an existing output without --force, one that is a directory, and one
    # under a file or in a missing directory the command does not make (the
    # same error text as writing it would give).
    for path in files.values():
        if not args.force and os.path.exists(path):
            raise UsageError(f"refusing to overwrite existing {path} (pass --force)")
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        in_new_dir = new_dir is not None and os.path.normpath(os.path.dirname(path)) == os.path.normpath(new_dir)
        if _parents(path)[1] and not in_new_dir:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    staged, made = {}, []
    try:
        for key, path in files.items():
            staged[key] = make_temp(_parents(path)[0], os.path.basename(path))
        line = command.body(opt, args, staged)
        _write_text(staged["manifest"], _manifest_text(name, opt, inputs, listed, started))
        # A Ctrl-C from here waits until every output is in place.
        unblocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for path in files.values():
                for directory in _parents(path)[1]:
                    os.mkdir(directory)
                    made.append(directory)
            for key in sorted(files, key=lambda k: k == "manifest"):
                os.replace(staged[key], files[key])
                del staged[key]
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, unblocked)
    except BaseException:
        for path in staged.values():
            with contextlib.suppress(OSError):
                os.remove(path)
        for directory in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise
    print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bnt", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"bnt {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.help)
        p.add_argument("--config", default=None, metavar="FILE", help="key = value option file")
        p.add_argument("--force", action="store_true", help="allow overwriting existing outputs")
        for opt in command.opts:
            default = "required" if opt.default is _REQUIRED else _format_value(opt.default)
            switch = isinstance(opt.default, bool)  # a bare flag, as if given "true"
            shape = dict(action="store_const", const="true") if switch else dict(metavar=opt.name.upper())
            p.add_argument(opt.flag, dest=opt.name, default=None, help=f"{opt.help} (default: {default})", **shape)
        for flag, keywords in command.flags:
            p.add_argument(flag, **keywords)
    return parser


# (exception types, exit code, stderr line), first match first: a
# DegenerateBasisError is also a ValueError.
_FAILURES = (
    (UsageError, EXIT_USAGE, "error: {}"),
    ((DataError, DatasetFormatError, CheckpointFormatError), EXIT_DATA, "data error: {}"),
    ((DegenerateBasisError, EigenConvergenceError, FloatingPointError), EXIT_NUMERICAL, "numerical failure: {}"),
    ((MemoryError, WorkerDied), EXIT_NUMERICAL, "resource failure: {}"),
    (ValueError, EXIT_USAGE, "error: {}"),
    (OSError, EXIT_DATA, "data error: {}"),
    (KeyboardInterrupt, EXIT_INTERRUPTED, "interrupted"),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _run(args.command, args)
    except (Exception, KeyboardInterrupt) as exc:
        for types, code, line in _FAILURES:
            if isinstance(exc, types):
                text = str(exc) or ("out of memory" if isinstance(exc, MemoryError) else "")
                print(line.format(text), file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
