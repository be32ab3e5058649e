"""Domain types, dataset validation, and ingestion of sample files.

A dataset is a collection of sample sets.  Each set holds ``n`` observation
vectors in R^q drawn from one distribution; a set is *labeled* when the
generating parameter vector in R^d is known and *unlabeled* otherwise.

Validation lives in the constructors: :class:`SampleSet` checks shape and
finiteness, :class:`Dataset` checks the invariants across sets.  The loaders
only parse, and prefix any error with the file and line it comes from.  Each
reader reads its file once, front to back, decoding UTF-8 as it goes, so a named
pipe is as good an input as a file.  The CSV loader converts sample cells a
bounded chunk of rows at a time, so a file's values are never all held as text
at once.

One error policy holds in every reader: of all the lines that are wrong, the
earliest is the one reported, whether its fault is bytes that are not UTF-8, its
structure (cells, fields, ids) or its values.  A CSV row that the csv module
cannot split, such as one with a cell over its field size limit, is an error at
its line.  An error that spans the whole file, such as two sets sharing
parameters, names the file alone.

On-disk formats
---------------
NDJSON: one record per line,
``{"id": str, "params": [float, ...] | absent, "samples": [[float, ...], ...]}``.
A missing ``params`` field (not an empty list) marks the set unlabeled.

CSV: the header is exactly ``id, p1..pd, s1..sq`` (d >= 0, q >= 1), each cell
stripped of surrounding space and in that order; any other header is an error
at line 1 that names its first unexpected column.  One row per observation;
empty parameter cells mark the set unlabeled.  The rows of one id need not be
contiguous, but they must all carry the same parameters.

Every other CSV table (distance matrices, embeddings, parameter tables,
reports) is read by :func:`read_table` and written by :func:`write_table`.

In every CSV file a row is blank when each of its cells is empty or
whitespace, and blank rows are skipped, whatever their cell count.  A row
whose first cell starts with ``#`` is a comment only before a table's
header, where :func:`write_table` puts its note; after the header it is
data, since an id may start with ``#``.  A sample CSV, whose first row is its
header, and a table whose header lists its ids (a distance matrix) have no
comments.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

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


def _freeze(a, dtype=np.float64) -> np.ndarray:
    """a as a read-only C-contiguous ``dtype`` array: a itself when it already is one."""
    a = np.ascontiguousarray(a, dtype=dtype)
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


def _dataset(path: Path, sets: list[SampleSet]) -> Dataset:
    if not sets:
        raise DatasetError(f"{path}: file contains no records")
    with _located(str(path)):
        return Dataset(labeled=tuple(s for s in sets if s.labeled),
                       unlabeled=tuple(s for s in sets if not s.labeled))


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
    return _dataset(path, sets)


def _is_number_text(text: str) -> bool:
    """Is text free of what Python's int and float read beyond ASCII decimal
    numbers: '_' digit separators and non-ASCII digits and spaces?"""
    return text.isascii() and "_" not in text


def _floats(cells: list | tuple) -> np.ndarray:
    """Convert CSV cells, strings or equal-length tuples of them, to a float array.

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


def _samples(rows: list) -> np.ndarray:
    """Convert rows of sample cells (strings, or tuples of them) to an (n, q) matrix."""
    return _floats(rows).reshape(len(rows), -1)


#: Rows of sample cells held as text at once, counted across all sets and not
#: counting blank rows, before they are converted.  Chunks much smaller than this
#: leave many interleaved sets a few rows per block, and larger ones parse no
#: faster (see CHANGES.md).
_CSV_CHUNK_ROWS = 4096


def _load_csv(path: Path) -> Dataset:
    """Check every row's structure in one loop, converting sample cells in chunks.

    Each row adds its sample cells, set and line to the pending chunk, and
    blank rows are not counted.  A chunk of ``_CSV_CHUNK_ROWS`` rows is
    converted in one call and its rows are appended, in file order, to their
    sets' blocks.  A chunk that fails to convert or holds a non-finite value
    is checked again one row at a time, so its error names the row's line.
    The pending chunk is converted before an error in a later row leaves the
    loop, so the error reported is the earliest line's.
    """
    with open(path, "rb") as fh, _csv_rows(fh, path) as reader:
        header = [h.strip() for h in next(reader, [])]
        if header[:1] != ["id"]:
            raise DatasetError(f"{path}: line 1: header must start with 'id'")
        width = len(header)
        d = next((k for k, h in enumerate(header[1:]) if h != f"p{k + 1}"), width - 1)
        unexpected = [h for k, h in enumerate(header[d + 1:]) if h != f"s{k + 1}"]
        if unexpected:
            raise DatasetError(f"{path}: line 1: unexpected column {unexpected[0]!r}; "
                               "the header must be id, p1..pd, s1..sq")
        if width == d + 1:
            raise DatasetError(f"{path}: line 1: no sample columns s1..sq found")
        params_of = itemgetter(*range(1, d + 1)) if d else (lambda row: "")
        samples_of = itemgetter(*range(d + 1, width))

        # id -> (raw parameter cells of its first row, their values, set index)
        groups: dict[str, tuple] = {}
        blocks: list[list[np.ndarray]] = []  # set index -> its converted rows
        cells, owners, lines = [], [], []  # the pending chunk: each row's sample cells, set, line

        def convert_chunk():
            chunk, owner, chunk_lines = cells.copy(), np.array(owners), lines.copy()
            for column in (cells, owners, lines):  # so a chunk that fails is not converted again
                column.clear()
            try:
                values = _samples(chunk)
                finite = np.isfinite(values).all()
            except ValueError:
                finite = False
            if not finite:
                ids = list(groups)  # set index -> id
                for row_cells, k, line in zip(chunk, owner.tolist(), chunk_lines):
                    with _located(f"{path}: line {line}"):
                        SampleSet(id=ids[k], samples=_samples([row_cells]))
            # A stable sort gives each set one block per chunk, its rows in file order.
            order = owner.argsort(kind="stable")
            owner, values = owner[order], values[order]
            starts = np.flatnonzero(np.diff(owner, prepend=-1)).tolist()
            for lo, hi in zip(starts, starts[1:] + [len(owner)]):
                blocks[owner[lo]].append(values[lo:hi])

        try:
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
                            group = groups[row[0]] = (raw, params, len(blocks))
                            blocks.append([])
                        elif params != group[1]:
                            raise DatasetError(f"set {row[0]!r} changes parameters mid-file")
                cells.append(samples_of(row))
                owners.append(group[2])
                lines.append(reader.line_num)
                if len(cells) == _CSV_CHUNK_ROWS:
                    convert_chunk()
        finally:  # so an error in the chunk's rows comes before one after them
            if cells:
                convert_chunk()

    sets = []
    for set_id, (_, params, k) in groups.items():
        samples = np.concatenate(blocks[k])
        blocks[k] = None  # frees the chunks that no later set shares
        sets.append(SampleSet(id=set_id, samples=samples, params=params))
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

    By default each row is ``id, v1..vk`` under a header naming the columns.
    With ``header_ids`` the header lists the ids as written, one per column,
    and every row holds only numbers.  Blank rows and comments are as in the
    module's "On-disk formats".  Returns the ids and the (rows, k) value
    matrix; ids must be distinct, and every error names the file and the line.
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
