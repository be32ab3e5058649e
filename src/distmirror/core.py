"""Domain types, dataset validation, and ingestion of sample files.

A dataset is one tuple of sample sets.  Each set holds ``n`` observation
vectors in R^q drawn from one distribution; a set is *labeled* when the
generating parameter vector in R^d is known and *unlabeled* otherwise, so
a dataset's labeled and unlabeled sets are read off the sets themselves.

Validation lives in the constructors: :class:`SampleSet` checks shape and
finiteness, :class:`Dataset` checks the invariants across sets.  The loaders
only parse, and prefix any error with the file and line it comes from.  Each
reader reads its file once, front to back, decoding UTF-8 as it goes, so a named
pipe is as good an input as a file.  The CSV loader appends each row's sample
values to its set's float buffer as the row is read, so a file's values are
never held as text, and each set is built from its buffer.

Every other float matrix the library takes (points, queries, surface values,
grids, parameters, configurations) passes one rule, ``_matrix``: it must be an
(m, k) matrix with k >= 1, and the m or k its caller fixes, and the error names
its first row that is not finite.  :class:`SampleSet`, ``MirrorEmbedding``,
``DistanceMatrix`` and :func:`read_table` name a bad value by set id, entry or line.

One error policy holds in every reader: of all the lines that are wrong, the
earliest is the one reported, whether its fault is bytes that are not UTF-8, its
structure (cells, fields, ids) or its values.  A CSV row that the csv module
cannot split, such as one with a cell over its field size limit, is an error at
its line.  An error that spans the whole file, such as two sets sharing
parameters, names the file alone.

A value that must not repeat follows the same rule: the error names the
earliest entry equal to an earlier one, and that value's first entry
(``_first_repeat``; rows compare as tuples, so -0.0 equals 0.0).  Its seven
sites are :class:`Dataset`'s set ids and its parameter vectors, the ids of
``transport.DistanceMatrix`` and of ``embedding.MirrorEmbedding``, the study
lists of ``sim._check_distinct``, the points of ``surface.delaunay_triangulate``
and the ids of :func:`read_table`, whose streaming check reports a repeated
id before a bad value on a later line.

On-disk formats
---------------
NDJSON: one record per line,
``{"id": str, "params": [float, ...] | absent, "samples": [[float, ...], ...]}``.
A missing ``params`` field (not an empty list) marks the set unlabeled.

A q = 1 set is held in ascending order with -0.0 folded into 0.0 (see
:class:`SampleSet`), so :func:`save_dataset` writes its draws in that order.

CSV: the header is exactly ``id, p1..pd, s1..sq`` (d >= 0, q >= 1), each cell
stripped of surrounding space and in that order; any other header is an error
at its line that names its first unexpected column.  One row per observation;
empty parameter cells mark the set unlabeled.  The rows of one id need not be
contiguous, but they must all carry the same parameters.

Every other CSV table (distance matrices, embeddings, parameter tables,
reports) is read by :func:`read_table` and written by :func:`write_table`.

In every CSV file a row is blank when each of its cells is empty or
whitespace, and blank rows are skipped, whatever their cell count.  A row
whose first cell starts with ``#`` is a comment only before a table's
header, where :func:`write_table` puts its note; after the header it is
data, since an id may start with ``#``.  A sample CSV, whose first row that is
not blank is its header, and a table whose header lists its ids (a distance
matrix) have no comments.
"""

from __future__ import annotations

import csv
import io
import json
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from math import isfinite, nan
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DatasetError, DuplicateParameters, MirrorError

__all__ = [
    "SampleSet",
    "Dataset",
    "load_dataset",
    "save_dataset",
    "read_table",
    "write_table",
]


def _freeze(a, dtype=np.float64) -> np.ndarray:
    """A read-only C-contiguous ``dtype`` copy of a's values.

    Always a copy, so the caller's array keeps its flags and nothing written
    to it later, even after it is made writeable again, reaches the object.
    """
    a = np.array(a, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


def _matrix(a, noun: str, m: int | str = "m", k: int | str = "d") -> np.ndarray:
    """a as a float (m, k) matrix of finite rows, k >= 1; an int m or k fixes that size, a str
    names a free one.  Errors call a row ``noun``, as in ``point 2 ([nan, 1.0]) is not finite``."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or any(isinstance(n, int) and n != size for n, size in zip((m, k), a.shape)):
        raise MirrorError(f"{noun}s must be an ({m}, {k}) matrix")
    if not a.shape[1]:
        raise MirrorError(f"{noun}s must have at least one coordinate")
    bad = np.flatnonzero(~np.isfinite(a).all(axis=1))
    if bad.size:
        raise MirrorError(f"{noun} {bad[0]} ({a[bad[0]].tolist()}) is not finite")
    return a


def _first_repeat(keys: Iterable) -> tuple[int, int] | None:
    """(i, j) for the earliest key j equal to an earlier key, and i that key's first
    index; None when the hashable keys are distinct."""
    first: dict = {}
    for j, key in enumerate(keys):
        i = first.setdefault(key, j)
        if i != j:
            return i, j
    return None


@dataclass(frozen=True)
class SampleSet:
    """One distribution's evidence: ``n`` embedded observations, optional label.

    ``samples`` is an (n, q) matrix whose rows are iid observations in the
    embedding space; ``params`` is the generating parameter vector, or None
    for an unlabeled set.  A q = 1 set is held as its order statistics:
    ascending, with -0.0 folded into 0.0, so any order of the same draws gives
    the same bits.  q > 1 sets keep their row order.  Arrays are made
    read-only so instances can be shared freely across threads.
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
        if samples.shape[1] == 1:
            # The sort is the object's one copy.  Adding 0.0 folds -0.0 into 0.0:
            # numpy's vectorised sort does not keep the order of equal signed zeros.
            samples = np.sort(samples, axis=0)
            samples += 0.0
            samples.setflags(write=False)
        else:
            samples = _freeze(samples)
        object.__setattr__(self, "samples", samples)
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


def _check_dimension(sets: Sequence[SampleSet], symbol: str) -> None:
    """Reject sets whose sample dimension q, or parameter dimension d of labeled
    sets, differs from the first set's; the error names that set and the first
    set that differs."""
    kind, dims = (("sample", [s.q for s in sets]) if symbol == "q"
                  else ("parameter", [s.params.size for s in sets]))
    bad = next((k for k, dim in enumerate(dims) if dim != dims[0]), None)
    if bad is not None:
        raise DatasetError(f"{kind} dimension mismatch: {sets[0].id!r} has {symbol}={dims[0]}, "
                           f"{sets[bad].id!r} has {symbol}={dims[bad]}")


@dataclass(frozen=True)
class Dataset:
    """Sample sets sharing one embedding space, labeled sets first.

    A dataset is its one tuple of sets, ``all_sets``.  The constructor takes
    the sets in any order and keeps them labeled first (those whose ``params``
    is not None), each group in the order given; ``labeled`` and ``unlabeled``
    are those two groups.  Invariants checked eagerly, over ``all_sets`` in
    that order: at least one set, distinct set ids, a common sample dimension
    q across every set, a common parameter dimension d across labeled sets,
    and pairwise distinct labeled parameter vectors.
    """

    all_sets: tuple[SampleSet, ...]
    labeled: tuple[SampleSet, ...] = field(init=False, repr=False)
    unlabeled: tuple[SampleSet, ...] = field(init=False, repr=False)

    def __post_init__(self):
        sets = tuple(self.all_sets)
        labeled = tuple(s for s in sets if s.labeled)
        unlabeled = tuple(s for s in sets if not s.labeled)
        sets = labeled + unlabeled
        for name, value in (("all_sets", sets), ("labeled", labeled), ("unlabeled", unlabeled)):
            object.__setattr__(self, name, value)
        if not sets:
            raise DatasetError("dataset contains no sample sets")
        repeat = _first_repeat(s.id for s in sets)
        if repeat:
            raise DatasetError(f"set id {sets[repeat[1]].id!r} is used more than once")
        _check_dimension(sets, "q")
        if labeled:
            _check_dimension(labeled, "d")
            repeat = _first_repeat(map(tuple, self.params_matrix().tolist()))
            if repeat:
                a, b = (labeled[k] for k in repeat)
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
        return self.all_sets[0].q

    def params_matrix(self) -> np.ndarray:
        """Stack labeled parameter vectors into an (m, d) matrix."""
        return np.array([s.params for s in self.labeled], dtype=np.float64)


@contextmanager
def _located(where: str):
    """Prefix a MirrorError with its location; a failed conversion becomes one."""
    try:
        yield
    except MirrorError as e:
        e.args = (f"{where}: {e}",)
        raise
    except (TypeError, ValueError, OverflowError) as e:
        raise DatasetError(f"{where}: invalid numeric data ({e})") from e


def _lines(fh, path: Path) -> Iterator[str]:
    """The lines of a binary file, decoded from UTF-8 as they are read.

    Lines end at "\\n", "\\r\\n" or a lone "\\r" and keep their ending, as
    from a file opened with ``newline=""``, so the file is read once even when
    it is a pipe.  Each byte that is not UTF-8 decodes to a lone surrogate,
    which no valid line holds: the first line holding one raises a
    DatasetError that names it, once every line before it has been taken.
    """
    with io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape", newline="") as text:
        for lineno, line in enumerate(text, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise DatasetError(f"{path}: line {lineno}: not valid UTF-8") from None
            yield line


@contextmanager
def _csv_rows(fh, path: Path):
    """A csv.reader of the file's lines; a row it cannot split is a DatasetError at its line."""
    reader = csv.reader(_lines(fh, path))
    try:
        yield reader
    except csv.Error as e:  # such as a cell over csv.field_size_limit()
        raise DatasetError(f"{path}: line {reader.line_num}: {e}") from None


def _json_numbers(values: list, field: str) -> np.ndarray:
    """A float vector from JSON numbers; true, false, strings and null are not numbers."""
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise DatasetError(f"'{field}' holds {json.dumps(bad)}, which is not a number")
    return np.fromiter(values, dtype=np.float64, count=len(values))


def _json_samples(rows) -> np.ndarray:
    """An (n, q) matrix from a JSON list of equal-length lists of numbers."""
    if type(rows) is not list or not set(map(type, rows)) <= {list}:
        raise DatasetError("'samples' must be a list of lists of numbers")
    if len(set(map(len, rows))) > 1:
        raise DatasetError("'samples' rows differ in length")
    flat = _json_numbers(list(chain.from_iterable(rows)), "samples")
    return flat.reshape(len(rows), len(rows[0]) if rows else 0)


def _load_ndjson(path: Path) -> Dataset:
    sets: list[SampleSet] = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(_lines(fh, path), start=1):
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
                if params is not None and type(params) is not list:
                    raise DatasetError("'params' must be a list of numbers")
                sets.append(SampleSet(
                    id=rec["id"],
                    samples=_json_samples(rec["samples"]),
                    params=None if params is None else _json_numbers(params, "params"),
                ))
    with _located(str(path)):
        return Dataset(sets)


def _is_number_text(text: str) -> bool:
    """Is text free of what Python's int and float read beyond ASCII decimal
    numbers: '_' digit separators and non-ASCII digits and spaces?"""
    return text.isascii() and "_" not in text


def _floats(cells: list | tuple) -> np.ndarray:
    """Convert CSV cells, strings or equal-length sequences of them, to a float array.

    numpy converts text as Python's float does; a cell that fails
    :func:`_is_number_text` raises the ValueError of text it cannot convert.
    """
    flat = cells if not cells or isinstance(cells[0], str) else list(chain.from_iterable(cells))
    if not _is_number_text("".join(flat)):
        bad = next(c for c in flat if not _is_number_text(c))
        raise ValueError(f"could not convert string to float: {bad!r}")
    return np.array(cells, dtype=np.float64)


def _csv_params(cells: str | tuple[str, ...]) -> tuple[float, ...] | None:
    """The parameter cells of one CSV row: all empty (unlabeled) or all finite numbers."""
    cells = (cells,) if isinstance(cells, str) else cells
    empty = [not c.strip() for c in cells]
    if all(empty):
        return None
    if any(empty):
        raise DatasetError("partially empty parameter cells")
    params = _floats(cells)
    if not np.isfinite(params).all():
        raise DatasetError("params contain non-finite values")
    return tuple(params.tolist())


def _load_csv(path: Path) -> Dataset:
    """Check every row in one loop, appending its sample values to its set's buffer.

    A row whose sample cells are ASCII without '_', read by Python's float as
    finite values, appends them to its set's ``array('d')``; a q = 1 row does so
    without building a list, since a list per row makes a q = 1 load about a
    third slower.  Any other row is converted by the reference, a
    :class:`SampleSet` of that row alone at its line, which raises the row's
    error or yields its values.  Rows are read in order, so the error reported is
    the earliest line's.  Each set is built from a view of its buffer, and the
    buffer freed, one set at a time.
    """
    with open(path, "rb") as fh, _csv_rows(fh, path) as reader:
        header = [h.strip() for h in next((r for r in reader if any(c.strip() for c in r)), [])]
        where = f"{path}: line {max(reader.line_num, 1)}"
        if header[:1] != ["id"]:
            raise DatasetError(f"{where}: header must start with 'id'")
        width = len(header)
        d = next((k for k, h in enumerate(header[1:]) if h != f"p{k + 1}"), width - 1)
        unexpected = [h for k, h in enumerate(header[d + 1:]) if h != f"s{k + 1}"]
        if unexpected:
            raise DatasetError(f"{where}: unexpected column {unexpected[0]!r}; "
                               "the header must be id, p1..pd, s1..sq")
        if width == d + 1:
            raise DatasetError(f"{where}: no sample columns s1..sq found")
        params_of = itemgetter(*range(1, d + 1)) if d else (lambda row: "")
        q = width - d - 1

        # id -> (raw parameter cells of its first row, their values, its sample buffer)
        groups: dict[str, tuple] = {}
        for row in reader:
            # A blank row's first cell is empty or starts with a space, outside '!'..'~'.
            if len(row) != width or not "!" <= row[0] < "\x7f":
                if not any(c.strip() for c in row):
                    continue
                if len(row) != width:
                    raise DatasetError(f"{path}: line {reader.line_num}: "
                                       f"expected {width} cells, got {len(row)}")
            raw = params_of(row)
            group = groups.get(row[0])
            if group is None or raw != group[0]:
                with _located(f"{path}: line {reader.line_num}"):
                    params = _csv_params(raw)
                    if group is None:
                        group = groups[row[0]] = (raw, params, array("d"))
                    elif params != group[1]:
                        raise DatasetError(f"set {row[0]!r} changes parameters mid-file")
            # The cheap check: ASCII cells without '_' that Python's float reads as finite values.
            if q == 1:  # the common case, which builds no list
                text = row[-1]
                try:
                    value = float(text)
                except ValueError:
                    value = nan
                if text.isascii() and "_" not in text and isfinite(value):
                    group[2].append(value)
                    continue
            else:
                cells = row[d + 1:]
                text = "".join(cells)
                try:
                    values = [*map(float, cells)]
                except ValueError:
                    values = [nan]
                # A sum that overflows sends a row of finite values to the reference.
                if text.isascii() and "_" not in text and isfinite(sum(values)):
                    group[2].fromlist(values)
                    continue
            # The reference raises the row's error at its line, or gives the row's values.
            with _located(f"{path}: line {reader.line_num}"):
                reference = SampleSet(id=row[0], samples=_floats([row[d + 1:]]))
            group[2].fromlist(reference.samples.ravel().tolist())

    sets = []
    for set_id in list(groups):
        _, params, samples = groups.pop(set_id)  # so each buffer is freed once its set is built
        sets.append(SampleSet(id=set_id, samples=np.frombuffer(samples).reshape(-1, q), params=params))
    with _located(str(path)):
        return Dataset(sets)


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

    By default each row is ``id, v1..vk`` under a header naming the columns.
    With ``header_ids`` the header lists the ids as written, one per column,
    and every row holds only numbers.  Blank rows and comments are as in the
    module's "On-disk formats".  Returns the ids and the (rows, k) value
    matrix; ids must be distinct, and every error names the file and the line.
    A repeated id is found as its line is read, before any later line's fault,
    and the earliest line that repeats an earlier id is named, as ``_first_repeat`` does.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    header, rows, lines = None, [], {}  # lines: id -> the line it is on
    with open(path, "rb") as fh, _csv_rows(fh, path) as reader:
        for row in reader:
            if not any(c.strip() for c in row) or (
                    header is None and not header_ids and row[0].startswith("#")):
                continue
            with _located(f"{path}: line {reader.line_num}"):
                if header is None:
                    header = row
                    ids = row if header_ids else []
                elif len(row) != len(header):
                    raise DatasetError(f"expected {len(header)} cells, got {len(row)}")
                else:
                    ids = [] if header_ids else [row[0]]
                    rows.append(_floats(row if header_ids else row[1:]))
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
