"""Synthetic connectivity datasets, their binary file format, and splits.

Each subject is a complete weighted graph: the Pearson correlation
matrix of V synthetic node time series.  Nodes are partitioned evenly
into functional modules; a node's series mixes its own module's latent
series (within_strength), the other modules' latents (a class-dependent
between strength), unit noise, and a site-specific common component, so
class membership only shows up in the between-module structure.

Datasets round-trip to a little-endian binary file (magic ``BNTD``) that
stores matrices as float32, written and checked 16 records at a time and
read through one descriptor, so no command holds a whole dataset; splits
round-trip to a human-readable key-value text file.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
import os
import struct
import weakref
from dataclasses import dataclass, field

import numpy as np

from .rng import Rng

MAGIC = b"BNTD"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIII")

_SITE_STREAM = 1
_SUBJECT_STREAM = 2

_CHUNK = 16  # records per write buffer and per read-time check


def make_temp(directory, name: str) -> str:
    """Create an empty hidden file for ``name`` in ``directory``, with the
    permissions ``open(..., "w")`` would give it, and return its path."""
    for n in itertools.count():
        path = os.path.join(directory, f".{name}.{os.getpid()}.{n}.tmp")
        try:
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            return path
        except FileExistsError:
            continue


@contextlib.contextmanager
def replacing(path):
    """Open a temp file beside ``path`` for writing bytes.  It replaces ``path``
    when the block ends, or is removed if the block raises, so a reader
    never sees a torn file and a failed write leaves ``path`` as it was."""
    tmp = make_temp(os.path.dirname(path) or os.curdir, os.path.basename(path))
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


class DatasetFormatError(ValueError):
    """Base class for dataset file format problems."""


class BadMagicError(DatasetFormatError):
    pass


class BadVersionError(DatasetFormatError):
    pass


class TruncationError(DatasetFormatError):
    pass


class VMismatchError(DatasetFormatError):
    """The file's node count is not the one expected."""


class SplitError(DatasetFormatError):
    """A split plan that leaks or does not fit its dataset."""


@dataclass
class Dataset:
    """N subjects in file order: row i of ``subject_ids``, ``labels`` and
    ``sites`` (N,) and of ``matrices`` (N, V, V) is subject i's.  The
    matrices are an array, or a row source that gives one subject at a
    time: from ``generate_dataset``, float64 matrices computed as they are
    read, and from ``read_dataset`` a ``FileMatrices``, the file's float32
    values read a record at a time.  Either has ``shape`` and ``dtype``, and
    ``matrices[i]`` is subject i's (V, V) matrix."""

    subject_ids: np.ndarray
    labels: np.ndarray
    sites: np.ndarray
    matrices: np.ndarray  # each symmetric, unit diagonal, entries in [-1, 1]

    def __len__(self) -> int:
        return len(self.subject_ids)

    def _check_shapes(self):
        n, v = len(self), self.matrices.shape[-1]
        if (self.labels.shape, self.sites.shape, self.matrices.shape) != ((n,), (n,), (n, v, v)):
            raise DatasetFormatError(f"expected {n} labels, {n} sites and {n} square matrices")

    def validate(self):
        """Raise DatasetFormatError naming the first subject, in row order,
        whose id repeats or does not fit the file, or whose label, site or
        matrix (finite, symmetric, unit diagonal, in [-1, 1]) is invalid."""
        self._check_shapes()
        _check_records(self.subject_ids, self.labels, self.sites, self.matrices, set())


def _check_records(subject_ids, labels, sites, matrices, seen: set) -> None:
    """The ``Dataset.validate`` rule over some consecutive rows, each
    matrix in the dtype it is given: ``seen`` holds the ids of the rows
    before them, and gets theirs, so a file is checked a chunk at a time."""
    for sid, label, site, m in zip(subject_ids.tolist(), labels.tolist(), sites.tolist(), matrices):
        if sid in seen:
            raise DatasetFormatError(f"subject {sid} appears twice in the dataset")
        seen.add(sid)
        if not 0 <= sid < 2**32:
            raise DatasetFormatError(f"subject {sid}: subject_id out of range")
        if label not in (0, 1):
            raise DatasetFormatError(f"subject {sid}: label must be 0 or 1, got {label}")
        if not 0 <= site < 2**16:
            raise DatasetFormatError(f"subject {sid}: site out of range: {site}")
        if not np.isfinite(m).all():
            raise DatasetFormatError(f"subject {sid}: matrix has non-finite entries")
        if np.abs(m - m.T).max() > 1e-6:
            raise DatasetFormatError(f"subject {sid}: matrix is not symmetric within 1e-6")
        if not (m.diagonal() == 1.0).all():
            raise DatasetFormatError(f"subject {sid}: diagonal must be exactly 1")
        if m.min() < -1.0 or m.max() > 1.0:
            raise DatasetFormatError(f"subject {sid}: entries must lie in [-1, 1]")


@dataclass
class GeneratorSpec:
    nodes: int = 32
    modules: int = 4
    subjects_per_class: int = 200
    sites: int = 4
    within_strength: float = 0.9
    between_strength_class0: float = 0.1
    between_strength_class1: float = 0.4
    site_noise: float = 0.1
    series_length: int = 256
    seed: int = 0

    def validate(self):
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if not 1 <= self.modules <= self.nodes:
            raise ValueError(
                f"modules must be in 1..nodes, got modules={self.modules}, nodes={self.nodes}"
            )
        if self.subjects_per_class < 1:
            raise ValueError("subjects_per_class must be >= 1")
        if self.sites < 1:
            raise ValueError("sites must be >= 1")
        for name in ("within_strength", "between_strength_class0", "between_strength_class1"):
            s = getattr(self, name)
            if not 0.0 < s < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {s}")
        if self.site_noise < 0.0:
            raise ValueError("site_noise must be >= 0")
        if self.series_length < 4:
            raise ValueError("series_length must be >= 4")


def module_of_node(nodes: int, modules: int) -> np.ndarray:
    """Even contiguous assignment of nodes to modules."""
    return (np.arange(nodes) * modules) // nodes


class _Subjects:
    """The matrices of ``spec``'s subjects, subject i's (V, V) float64 matrix
    computed from (seed, i) each time ``self[i]`` is read."""

    dtype = np.dtype(np.float64)

    def __init__(self, spec: GeneratorSpec):
        self.spec, self.base = spec, Rng(spec.seed)
        self.shape = (2 * spec.subjects_per_class, spec.nodes, spec.nodes)
        self.membership = module_of_node(spec.nodes, spec.modules)
        self.site_pattern = np.stack(
            [self.base.derive(_SITE_STREAM, s).normal(spec.nodes) for s in range(spec.sites)]
        )

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, sid) -> np.ndarray:
        sid = range(len(self))[operator.index(sid)]
        spec = self.spec
        v, t, m = spec.nodes, spec.series_length, spec.modules
        label, within = divmod(sid, spec.subjects_per_class)
        between = spec.between_strength_class1 if label else spec.between_strength_class0

        srng = self.base.derive(_SUBJECT_STREAM, sid)
        latents = srng.normal(m * t).reshape(m, t)
        noise = srng.normal(v * t).reshape(v, t)
        common = srng.normal(t)

        own = latents[self.membership]  # (V, T)
        if m > 1:
            others = (latents.sum(axis=0) - own) / (m - 1)
        else:
            others = np.zeros_like(own)
        series = (
            spec.within_strength * own
            + between * others
            + noise
            + spec.site_noise * self.site_pattern[within % spec.sites][:, None] * common
        )

        corr = np.corrcoef(series).reshape(v, v)  # one series gives a 0-d array
        matrix = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
        np.fill_diagonal(matrix, 1.0)
        return matrix


def generate_dataset(spec: GeneratorSpec) -> Dataset:
    """Deterministic synthetic dataset; subject i's stream depends only on
    (seed, i), so any subset can be regenerated independently.  Its matrices
    are computed a subject at a time as they are read, and ``write_dataset``
    checks them as it writes, so ``generate`` holds one 16-record chunk, not
    the dataset."""
    spec.validate()
    subjects = _Subjects(spec)
    ids = np.arange(len(subjects))
    return Dataset(ids, ids // spec.subjects_per_class, (ids % spec.subjects_per_class) % spec.sites, subjects)


def _record_dtype(v: int) -> np.dtype:
    """One .bntd record: id, label, site, a pad byte, then the V x V matrix.
    NumPy sizes a dtype by a C int, so V is at most 23,170."""
    if 8 + 4 * v * v > np.iinfo(np.intc).max:
        raise DatasetFormatError(f"a record of {v} nodes exceeds the largest NumPy dtype")
    return np.dtype([("id", "<u4"), ("label", "u1"), ("site", "<u2"), ("pad", "u1"), ("matrix", "<f4", (v, v))])


def write_dataset(path, dataset: Dataset) -> None:
    """Write a dataset to the binary format (matrices as float32).

    16 records at a time are read from ``dataset`` (computed, for a
    generated one), checked by the ``Dataset.validate`` rule in the dtype
    they are given, and written through one buffer.  The file replaces
    ``path`` only once whole (``replacing``), so a bad record leaves no file
    behind.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("refusing to write an empty dataset")
    dataset._check_shapes()
    v = dataset.matrices.shape[1]
    records, seen = np.zeros(min(n, _CHUNK), _record_dtype(v)), set()
    with replacing(path) as f:
        f.write(_HEADER.pack(MAGIC, FORMAT_VERSION, v, n))
        for start in range(0, n, _CHUNK):
            chunk = records[: n - start]
            rows = range(start, start + len(chunk))
            ids, labels, sites = (a[start : rows.stop] for a in (dataset.subject_ids, dataset.labels, dataset.sites))
            matrices = [dataset.matrices[i] for i in rows]
            _check_records(ids, labels, sites, matrices, seen)
            chunk["id"], chunk["label"], chunk["site"] = ids, labels, sites
            for j, matrix in enumerate(matrices):
                chunk["matrix"][j] = matrix
            f.write(chunk)


class FileMatrices:
    """The one reader of a ``.bntd`` file, and its (N, V, V) float32 matrices,
    none of them held.  It opens the path once and checks the header (magic,
    size, version, node count), then the file's size.  ``read`` fills a
    buffer from a record on with one positional read (``os.preadv``):
    ``read_dataset`` checks the records through it, and ``self[i]`` reads
    record i's matrix into a new array.

    Positional reads move no file offset, so scoring lanes and forked
    workers share the descriptor, and a file that replaces the path later
    (``generate --force``) leaves the opened bytes readable.  Each read
    compares the file's size and modification time with those at the size
    check: a file cut short raises TruncationError (a memory map would turn
    the cut into SIGBUS), and one rewritten in place, while its records are
    checked or after, raises DatasetFormatError, as far as its file system's
    clock tells the write apart from the last one before the check.
    ``close()`` closes the descriptor, as collecting this object does."""

    dtype = np.dtype("<f4")

    def __init__(self, path, expect_nodes: int | None = None):
        self._fd = os.open(path, os.O_RDONLY)
        self.close = weakref.finalize(self, os.close, self._fd)  # also when a check below fails
        try:
            head = os.pread(self._fd, _HEADER.size, 0)
        except OSError as exc:  # os.open opens a directory; name it, as open would
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        if head[:4] != MAGIC:
            raise BadMagicError(f"not a dataset file: magic {head[:4]!r}")
        if len(head) < _HEADER.size:
            raise TruncationError(f"header truncated at {len(head)} bytes")
        _, version, v, n = _HEADER.unpack(head)
        if version != FORMAT_VERSION:
            raise BadVersionError(f"unsupported dataset version {version}")
        if expect_nodes is not None and v != expect_nodes:
            raise VMismatchError(f"dataset has {v} nodes, expected {expect_nodes}")
        self.shape, self.record = (n, v, v), _record_dtype(v)
        self._size = _HEADER.size + n * self.record.itemsize
        checked = os.fstat(self._fd)
        if checked.st_size != self._size:
            raise TruncationError(f"file is {checked.st_size} bytes, expected {self._size} for {n} records")
        self._stamp = checked.st_size, checked.st_mtime_ns

    def __len__(self) -> int:
        return self.shape[0]

    def read(self, into: np.ndarray, start: int, at: int = 0) -> np.ndarray:
        """``into``, filled from byte ``at`` of record ``start`` on; a cut or changed file raises."""
        if not self.close.alive:  # its number may name another file by now
            raise ValueError("read from a closed dataset file")
        offset = _HEADER.size + start * self.record.itemsize + at
        got, status = os.preadv(self._fd, [into], offset), os.fstat(self._fd)
        size = min(status.st_size, offset + got if got < into.nbytes else self._size)  # where the data ran out
        if size < self._size:
            raise TruncationError(f"file is {size} bytes, expected {self._size} for {len(self)} records")
        if (status.st_size, status.st_mtime_ns) != self._stamp:
            raise DatasetFormatError("dataset file changed after it was checked")
        return into

    def __getitem__(self, i) -> np.ndarray:
        i = range(len(self))[operator.index(i)]
        return self.read(np.empty(self.shape[1:], self.dtype), i, self.record.fields["matrix"][1])


def read_dataset(path, expect_nodes: int | None = None) -> Dataset:
    """Read a binary dataset file: its ids, labels and sites, and its matrices
    as the ``FileMatrices`` that checked its header and size.  Through it the
    records are checked 16 at a time in one buffer, by the ``Dataset.validate``
    rule with one id set across the chunks, so no more than a chunk is held.
    A reader that needs float64 widens the rows it gathers exactly (``model.gather_float64``)."""
    matrices = FileMatrices(path, expect_nodes)
    n = len(matrices)
    ids, labels, sites = (np.empty(n, np.int64) for _ in range(3))
    records, seen = np.empty(min(n, _CHUNK), matrices.record), set()
    for start in range(0, n, _CHUNK):
        chunk = matrices.read(records[: n - start], start)
        rows = slice(start, start + len(chunk))
        ids[rows], labels[rows], sites[rows] = chunk["id"], chunk["label"], chunk["site"]
        _check_records(ids[rows], labels[rows], sites[rows], chunk["matrix"], seen)
    return Dataset(ids, labels, sites, matrices)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


class _KeyValues(dict):
    def __missing__(self, key):  # only read once the kind line is checked
        raise ValueError(f"{self['kind'].replace('_', ' ')} has no {key} line")


def key_values(text: str, kind: str, repeated: str | None = None) -> dict:
    """The stripped ``key = value`` lines of a text document whose ``kind``
    line is ``kind``; a later line of a key replaces an earlier one, except
    that ``repeated`` maps to the list of its values in order.  A document of
    another kind, or reading a key it lacks, raises ValueError naming it."""
    values = _KeyValues()
    for line in text.splitlines():
        key, eq, value = line.partition("=")
        if eq:
            key, value = key.strip(), value.strip()
            if key == repeated:
                values.setdefault(key, []).append(value)
            else:
                values[key] = value
    if values.get("kind") != kind:
        raise ValueError(f"not a {kind.replace('_', ' ')} document")
    return values


@dataclass
class SplitPlan:
    train: list[int]
    val: list[int]
    test: list[int]
    fractions: tuple[float, float, float]
    seed: int = 0
    stratified: bool = True
    warnings: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            "kind = split_plan",
            f"seed = {self.seed}",
            f"stratified = {'true' if self.stratified else 'false'}",
            "fractions = " + " ".join(repr(float(x)) for x in self.fractions),
        ]
        for w in self.warnings:
            lines.append(f"warning = {w}")
        for name in ("train", "val", "test"):
            ids = getattr(self, name)
            lines.append(f"{name} = " + " ".join(str(i) for i in ids))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SplitPlan":
        fields = key_values(text, "split_plan", repeated="warning")
        frac = _check_fractions(fields["fractions"].split())

        def ids(name):
            return [int(x) for x in fields.get(name, "").split()]

        plan = cls(
            train=ids("train"),
            val=ids("val"),
            test=ids("test"),
            fractions=frac,  # type: ignore[arg-type]
            seed=int(fields.get("seed", "0")),
            stratified=fields.get("stratified", "true") == "true",
            warnings=fields.get("warning", []),
        )
        plan.validate()
        return plan

    def validate(self):
        """Raise SplitError if an id repeats within a list or sits in two
        lists, so no subject can leak from one split into another."""
        seen: dict[int, str] = {}
        for name in ("train", "val", "test"):
            for i in getattr(self, name):
                if i in seen:
                    where = f"twice in {name}" if seen[i] == name else f"in both {seen[i]} and {name}"
                    raise SplitError(f"subject id {i} appears {where}")
                seen[i] = name

    def select(self, dataset: Dataset, names=("train", "val", "test")) -> list[np.ndarray]:
        """The ``dataset`` rows of each named list's subjects, in list order.
        SplitError if the plan leaks (``validate``), if a named list holds an
        id that ``dataset`` lacks, if train or val is empty or holds one
        class (training needs both classes for its loss and for model
        selection), or if test is empty (nothing to report)."""
        self.validate()
        row_of = {sid: row for row, sid in enumerate(dataset.subject_ids.tolist())}
        selected = []
        for name in names:
            ids = getattr(self, name)
            missing = [i for i in ids if i not in row_of]
            if missing:
                raise SplitError(f"{name} list references subject id {missing[0]} absent from the dataset")
            selected.append(np.array([row_of[i] for i in ids], dtype=np.intp))
            classes = set(dataset.labels[selected[-1]].tolist())
            if name == "test" and not ids:
                raise SplitError("the test list is empty")
            if name != "test" and classes != {0, 1}:
                held = f"holds only class {classes.pop()}" if ids else "is empty"
                raise SplitError(f"the {name} list {held}; train and val need both classes")
        return selected


def _check_fractions(fractions):
    fractions = tuple(float(x) for x in fractions)
    if len(fractions) != 3:
        raise ValueError("expected three fractions (train, val, test)")
    if not np.isfinite(fractions).all():
        raise ValueError(f"fractions must be finite, got {fractions}")
    if any(x < 0 for x in fractions):
        raise ValueError("fractions must be nonnegative")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    return fractions


def _largest_remainder(n: int, fractions) -> list[int]:
    """Apportion n items to the fractions; each count is within 1 of n*f."""
    quotas = np.array([n * f for f in fractions])
    base = np.floor(quotas).astype(int)
    leftover = n - int(base.sum())
    order = np.argsort(-(quotas - base), kind="stable")
    for i in range(leftover):
        base[order[i]] += 1
    return base.tolist()


def _deal(cells, fractions, rng: Rng, stratified: bool) -> SplitPlan:
    """Shuffle each cell of subject ids in turn and deal it to train, val
    and test by largest remainder; each list ends sorted."""
    plan = SplitPlan([], [], [], _check_fractions(fractions), seed=rng.seed, stratified=stratified)
    buckets = (plan.train, plan.val, plan.test)
    for ids in cells:
        perm = rng.shuffle(len(ids))
        pos = 0
        for bucket, c in zip(buckets, _largest_remainder(len(ids), plan.fractions)):
            bucket.extend(ids[i] for i in perm[pos : pos + c])
            pos += c
    for bucket in buckets:
        bucket.sort()
    return plan


def stratified_split(dataset: Dataset, fractions, rng: Rng) -> SplitPlan:
    """Split subjects into train/val/test, stratified by (site, label).

    Within every (site, label) cell the subjects are shuffled and
    apportioned by largest remainder, so each cell's count in a split
    deviates from its proportional share by at most 1.  Only the
    dataset's ids, labels and sites are read.
    """
    cells: dict[tuple[int, int], list[int]] = {}
    for sid, label, site in zip(dataset.subject_ids.tolist(), dataset.labels.tolist(), dataset.sites.tolist()):
        cells.setdefault((site, label), []).append(sid)
    plan = _deal([cells[key] for key in sorted(cells)], fractions, rng, stratified=True)
    n_active = sum(1 for f in plan.fractions if f > 0)
    for (site, label), ids in sorted(cells.items()):
        if len(ids) < n_active:
            plan.warnings.append(
                f"cell site={site} label={label} has {len(ids)} subjects "
                f"for {n_active} non-empty splits"
            )
    return plan


def random_split(dataset: Dataset, fractions, rng: Rng) -> SplitPlan:
    """Plain shuffled split without stratification: one cell of every subject."""
    return _deal([dataset.subject_ids.tolist()], fractions, rng, stratified=False)
