"""Domain types, dataset validation, and ingestion of sample files.

A dataset is a collection of sample sets.  Each set holds ``n`` observation
vectors in R^q drawn from one distribution; a set is *labeled* when the
generating parameter vector in R^d is known and *unlabeled* otherwise.

Validation lives in the constructors: :class:`SampleSet` checks shape and
finiteness, :class:`Dataset` checks the invariants across sets.  The loaders
only parse, converting each set's values in one call, and prefix any error
with the file and line it comes from.

On-disk formats
---------------
NDJSON: one record per line,
``{"id": str, "params": [float, ...] | absent, "samples": [[float, ...], ...]}``.
A missing ``params`` field (not an empty list) marks the set unlabeled.

CSV: header ``id, p1..pd, s1..sq``; one row per observation; empty parameter
cells mark the set unlabeled.  The rows of one id need not be contiguous,
but they must all carry the same parameters.

Every other CSV table (distance matrices, embeddings, parameter tables,
reports) is read by :func:`read_table` and written by :func:`write_table`.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DatasetError, DuplicateParameters, MirrorError, UnequalSampleSizes

__all__ = [
    "SampleSet",
    "Dataset",
    "load_dataset",
    "save_dataset",
    "read_table",
    "write_table",
    "validate_equal_sample_size",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SampleSet:
    """One distribution's evidence: ``n`` embedded observations, optional label.

    ``samples`` is an (n, q) matrix whose rows are iid observations in the
    embedding space; ``params`` is the generating parameter vector, or None
    for an unlabeled set.  Arrays are made read-only so instances can be
    shared freely across threads.
    """

    id: str
    samples: np.ndarray
    params: np.ndarray | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[0] < 1 or samples.shape[1] < 1:
            raise DatasetError(
                f"set {self.id!r}: samples must be a non-empty 2-d matrix, "
                f"got shape {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise DatasetError(f"set {self.id!r}: samples contain non-finite values")
        object.__setattr__(self, "samples", _freeze(samples))
        if self.params is not None:
            params = np.asarray(self.params, dtype=np.float64)
            if params.ndim != 1 or params.size < 1:
                raise DatasetError(
                    f"set {self.id!r}: params must be a non-empty vector"
                )
            if not np.all(np.isfinite(params)):
                raise DatasetError(f"set {self.id!r}: params contain non-finite values")
            object.__setattr__(self, "params", _freeze(params))

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def q(self) -> int:
        return self.samples.shape[1]

    @property
    def labeled(self) -> bool:
        return self.params is not None


@dataclass(frozen=True)
class Dataset:
    """Labeled and unlabeled sample sets sharing one embedding space.

    Invariants checked eagerly at construction: distinct set ids, a common
    sample dimension q across every set, a common parameter dimension d
    across labeled sets, and pairwise distinct labeled parameter vectors.
    """

    labeled: tuple[SampleSet, ...]
    unlabeled: tuple[SampleSet, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "labeled", tuple(self.labeled))
        object.__setattr__(self, "unlabeled", tuple(self.unlabeled))
        sets = self.labeled + self.unlabeled
        if not sets:
            raise DatasetError("dataset contains no sample sets")
        if any(s.params is None for s in self.labeled):
            raise DatasetError("labeled sets must carry parameter vectors")
        if any(s.params is not None for s in self.unlabeled):
            raise DatasetError("unlabeled sets must not carry parameter vectors")
        repeated = [i for i, k in Counter(s.id for s in sets).items() if k > 1]
        if repeated:
            raise DatasetError(f"set id {repeated[0]!r} is used more than once")
        q = sets[0].q
        for s in sets:
            if s.q != q:
                raise DatasetError(
                    f"inconsistent sample dimension: set {s.id!r} has q={s.q}, "
                    f"expected q={q}"
                )
        if self.labeled:
            d = self.labeled[0].params.size
            for s in self.labeled:
                if s.params.size != d:
                    raise DatasetError(
                        f"inconsistent parameter dimension: set {s.id!r} has "
                        f"d={s.params.size}, expected d={d}"
                    )
            _, group, counts = np.unique(self.params_matrix(), axis=0,
                                         return_inverse=True, return_counts=True)
            shared = np.flatnonzero(counts[group] > 1)
            if shared.size:
                first_two = np.flatnonzero(group == group[shared[0]])[:2]
                a, b = (self.labeled[k] for k in first_two)
                raise DuplicateParameters(
                    f"sets {a.id!r} and {b.id!r} share parameters {a.params.tolist()}"
                )

    @property
    def m(self) -> int:
        return len(self.labeled)

    @property
    def d(self) -> int:
        if not self.labeled:
            raise DatasetError("dataset has no labeled sets; d is undefined")
        return self.labeled[0].params.size

    @property
    def q(self) -> int:
        return (self.labeled + self.unlabeled)[0].q

    @property
    def all_sets(self) -> tuple[SampleSet, ...]:
        return self.labeled + self.unlabeled

    def params_matrix(self) -> np.ndarray:
        """Stack labeled parameter vectors into an (m, d) matrix."""
        return np.array([s.params for s in self.labeled], dtype=np.float64)


def validate_equal_sample_size(ds: Dataset) -> int:
    """Return the common n, or raise :class:`UnequalSampleSizes`.

    The exact permutation coupling behind the transport solver requires
    every set (labeled and unlabeled) to hold the same number of rows.
    """
    sets = ds.all_sets
    n = sets[0].n
    offenders = [(s.id, s.n) for s in sets if s.n != n]
    if offenders:
        bad = [(sets[0].id, n)] + offenders
        raise UnequalSampleSizes([i for i, _ in bad], [k for _, k in bad])
    return n


@contextmanager
def _located(where: str):
    """Prefix a MirrorError with its location; a failed decode or conversion becomes one."""
    try:
        yield
    except MirrorError as e:
        e.args = (f"{where}: {e}",)
        raise
    except UnicodeDecodeError as e:
        raise DatasetError(f"{where}: not valid UTF-8 ({e.reason})") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise DatasetError(f"{where}: invalid numeric data ({e})") from e


@contextmanager
def _open_text(path: Path, newline: str | None = None):
    """Open a UTF-8 text file; bytes that are not UTF-8 raise a located error."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # The decoder reads ahead in chunks, so find the line from the bytes.
            for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
                with _located(f"{path}: line {lineno}"):
                    raw.decode("utf-8")
            raise


def _dataset(path: Path, sets: list[SampleSet]) -> Dataset:
    if not sets:
        raise DatasetError(f"{path}: file contains no records")
    with _located(str(path)):
        return Dataset(labeled=tuple(s for s in sets if s.labeled),
                       unlabeled=tuple(s for s in sets if not s.labeled))


def _load_ndjson(path: Path) -> Dataset:
    sets: list[SampleSet] = []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            with _located(f"{path}: line {lineno}"):
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    raise DatasetError(f"invalid JSON ({e.msg})") from e
                if not isinstance(rec, dict) or "id" not in rec or "samples" not in rec:
                    raise DatasetError("record must contain 'id' and 'samples'")
                if not isinstance(rec["id"], str):
                    raise DatasetError("'id' must be a string")
                params = rec.get("params")
                sets.append(SampleSet(
                    id=rec["id"],
                    samples=np.array(rec["samples"], dtype=np.float64),
                    params=None if params is None else np.array(params, dtype=np.float64),
                ))
    return _dataset(path, sets)


def _csv_params(cells: str | tuple[str, ...]) -> tuple[float, ...] | None:
    """The parameter cells of one CSV row: all empty (unlabeled) or all numbers."""
    cells = (cells,) if isinstance(cells, str) else cells
    empty = [not c.strip() for c in cells]
    if all(empty):
        return None
    if any(empty):
        raise DatasetError("partially empty parameter cells")
    return tuple(np.array(cells, dtype=np.float64).tolist())


def _samples(rows: list) -> np.ndarray:
    """Convert the sample cells of a set's rows (strings, or tuples of them)."""
    return np.array(rows, dtype=np.float64).reshape(len(rows), -1)


def _load_csv(path: Path, locate: bool = False) -> Dataset:
    """Group the rows by id, then convert each set once.

    When a conversion fails, the file is read again with ``locate`` set, which
    builds a set from every row alone so the error names the row's line.
    """
    with _open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        if header[:1] != ["id"]:
            raise DatasetError(f"{path}: line 1: header must start with 'id'")
        p_cols = [i for i, h in enumerate(header) if h.startswith("p") and h[1:].isdigit()]
        s_cols = [i for i, h in enumerate(header) if h.startswith("s") and h[1:].isdigit()]
        if not s_cols:
            raise DatasetError(f"{path}: line 1: no sample columns s1..sq found")
        params_of = itemgetter(*p_cols) if p_cols else (lambda row: "")
        samples_of = itemgetter(*s_cols)

        # id -> (raw parameter cells of its first row, their values, sample cells)
        groups: dict[str, tuple] = {}
        for row in reader:
            if len(row) != len(header):
                if any(c.strip() for c in row):
                    raise DatasetError(f"{path}: line {reader.line_num}: "
                                       f"expected {len(header)} cells, got {len(row)}")
                continue
            raw = params_of(row)
            group = groups.get(row[0])
            if group is None or raw != group[0]:
                with _located(f"{path}: line {reader.line_num}"):
                    params = _csv_params(raw)
                    if group is None:
                        group = groups[row[0]] = (raw, params, [])
                    elif params != group[1]:
                        raise DatasetError(f"set {row[0]!r} changes parameters mid-file")
            group[2].append(samples_of(row))
            if locate:
                with _located(f"{path}: line {reader.line_num}"):
                    SampleSet(id=row[0], samples=_samples(group[2][-1:]), params=group[1])

    sets = []
    for set_id, (_, params, rows) in groups.items():
        try:
            sets.append(SampleSet(id=set_id, samples=_samples(rows), params=params))
        except (DatasetError, ValueError):
            if locate:
                raise
            return _load_csv(path, locate=True)
    return _dataset(path, sets)


def load_dataset(path: str | Path, format: str = "ndjson") -> Dataset:
    """Load a dataset file, validating all invariants eagerly.

    ``format`` is ``"ndjson"`` or ``"csv"``; parse errors carry the line
    number.  Downstream code never sees a dataset violating its invariants.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    if format == "ndjson":
        return _load_ndjson(path)
    if format == "csv":
        return _load_csv(path)
    raise ValueError(f"unknown format {format!r} (expected 'ndjson' or 'csv')")


def read_table(path: str | Path, header_ids: bool = False) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a CSV table of finite floats with one id per row or per column.

    By default each row is ``id, v1..vk`` under a header naming the columns,
    and lines starting with ``#`` are comments.  With ``header_ids`` the
    header lists the ids as written, one per column, every row holds only
    numbers, and ``#`` is not special, since an id may start with it.  Blank
    lines are skipped.  Returns the ids and the (rows, k) value matrix; ids
    must be distinct, and every error names the file and the line.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    header, rows, lines = None, [], {}  # lines: id -> the line it is on
    with _open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not any(c.strip() for c in row) or (not header_ids and row[0].startswith("#")):
                continue
            with _located(f"{path}: line {reader.line_num}"):
                if header is None:
                    header = row
                    ids = row if header_ids else []
                elif len(row) != len(header):
                    raise DatasetError(f"expected {len(header)} cells, got {len(row)}")
                else:
                    ids = [] if header_ids else [row[0]]
                    rows.append(np.array(row if header_ids else row[1:], dtype=np.float64))
                    if not np.all(np.isfinite(rows[-1])):
                        raise DatasetError("non-finite value")
                for i in ids:
                    if i in lines:
                        raise DatasetError(f"id {i!r} repeats line {lines[i]}")
                    lines[i] = reader.line_num
    if not rows:
        raise DatasetError(f"{path}: no table rows")
    return tuple(lines), np.array(rows)


def _csv_cell(cell) -> str:
    """One CSV cell: a float by ``repr``, text quoted where a reader needs it.

    ``repr`` is the shortest text that reads back to the same double.  Unlike
    csv.writer, which quotes only the characters of its own line terminator
    ("\\n"), this also quotes a lone "\\r", which a reader takes for a line break.
    """
    if isinstance(cell, (float, np.floating)):
        return repr(float(cell))
    text = str(cell)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_table(path: str | Path, header: Iterable, rows: Iterable[Iterable],
                note: str | None = None) -> None:
    """Write a CSV table: an optional ``# note`` line, the header, then the rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if note:
            fh.write(f"# {note}\n")
        for row in chain([header], rows):
            fh.write(",".join(map(_csv_cell, row)) + "\n")


def save_dataset(ds: Dataset, path: str | Path, format: str = "ndjson") -> None:
    """Serialize a dataset so that reloading reproduces it field-for-field."""
    path = Path(path)
    sets = ds.all_sets
    if format == "ndjson":
        with open(path, "w", encoding="utf-8") as fh:
            for s in sets:
                rec: dict = {"id": s.id}
                if s.params is not None:
                    rec["params"] = s.params.tolist()
                rec["samples"] = s.samples.tolist()
                fh.write(json.dumps(rec) + "\n")
        return
    if format == "csv":
        d = max((s.params.size for s in sets if s.params is not None), default=0)
        header = ["id"] + [f"p{k + 1}" for k in range(d)] + [f"s{k + 1}" for k in range(ds.q)]
        write_table(path, header, ([s.id, *(s.params if s.labeled else [""] * d), *row]
                                   for s in sets for row in s.samples))
        return
    raise ValueError(f"unknown format {format!r} (expected 'ndjson' or 'csv')")
