import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from itertools import cycle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

import distmirror
from distmirror.cli import main, read_params_csv, write_params_csv
from distmirror.core import (
    _CSV_CHUNK_ROWS,
    _lines,
    Dataset,
    SampleSet,
    load_dataset,
    read_table,
    save_dataset,
)
from distmirror.embedding import MirrorEmbedding, read_embedding, write_embedding
from distmirror.errors import DatasetError, DuplicateParameters, MirrorError
from distmirror.recovery import RecoveryResult
from distmirror.sim import (
    FamilyVariant,
    GaussianFamilySpec,
    run_mirror_experiment,
    run_recovery_experiment,
)
from distmirror.surface import MirrorSurface, Triangulation, delaunay_triangulate
from distmirror.transport import DistanceMatrix, distance_matrix, read_distance_matrix


def write_ndjson(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def test_load_two_labeled_records(tmp_path):
    path = tmp_path / "d.ndjson"
    write_ndjson(
        path,
        [
            {"id": "a", "params": [0.1, 0.5], "samples": [[1, 2, 3, 4]] * 3},
            {"id": "b", "params": [0.2, 0.5], "samples": [[4, 3, 2, 1]] * 3},
        ],
    )
    ds = load_dataset(path, "ndjson")
    assert ds.m == 2
    assert ds.d == 2
    assert ds.q == 4
    assert all(s.n == 3 for s in ds.labeled)
    assert not ds.unlabeled


def test_missing_params_means_unlabeled(tmp_path):
    path = tmp_path / "d.ndjson"
    write_ndjson(path, [{"id": "u", "samples": [[1.0, 2.0]]}])
    ds = load_dataset(path)
    assert ds.m == 0
    assert len(ds.unlabeled) == 1
    assert ds.unlabeled[0].params is None
    with pytest.raises(DatasetError, match=r"^dataset has no labeled sets; d is undefined$"):
        ds.d


def test_duplicate_parameters_rejected(tmp_path):
    path = tmp_path / "d.ndjson"
    write_ndjson(
        path,
        [
            {"id": "a", "params": [1, 1], "samples": [[0.0]]},
            {"id": "b", "params": [1, 1], "samples": [[0.0]]},
        ],
    )
    with pytest.raises(DuplicateParameters):
        load_dataset(path)


@pytest.mark.parametrize("params, pair", [
    ([[2, 0], [1, 1], [3, 0], [1, 1], [2, 0], [1, 1]], (1, 3)),
    ([[0, 1], [1, 1], [2, 2], [1, 1], [1, 1]], (1, 3)),
    ([[5, 5], [-0.0, 1], [0.0, 1]], (1, 2)),
], ids=["earliest-repeat-first", "three-way-repeat", "signed-zero"])
def test_duplicate_parameters_name_first_pair(params, pair):
    # The earliest set that repeats an earlier set's parameters is named after the
    # first set with them, with their parameters; set 4 also repeats set 0, but later.
    sets = [SampleSet(id=f"s{i}", samples=[[0.0]], params=p) for i, p in enumerate(params)]
    i, j = pair
    message = f"sets 's{i}' and 's{j}' share parameters {[float(v) for v in params[i]]}"
    with pytest.raises(DuplicateParameters, match=re.escape(message)):
        Dataset(sets)


#: A key's 2-d point, for the sites that take parameters or points.
_KEY_POINT = {"a": [0.0, 0.0], "b": [1.0, 0.0], "c": [0.0, 1.0]}


def _labeled_by_id(keys):
    return [SampleSet(id=k, samples=[[0.0]], params=[float(n)]) for n, k in enumerate(keys)]


def _load_ids(path, keys):
    write_ndjson(path, [{"id": s.id, "params": s.params.tolist(), "samples": [[0.0]]}
                        for s in _labeled_by_id(keys)])
    load_dataset(path)


def _read_table_ids(path, keys):
    path.write_text("id,v1\n" + "".join(f"{k},{n}\n" for n, k in enumerate(keys)))
    read_table(path)


# Each site: how it is fed the keys, and the message it gives for the pair (i, j).
_REPEAT_SITES = {
    "dataset-ids": (lambda path, keys: Dataset(_labeled_by_id(keys)),
                    lambda i, j, keys: f"set id {keys[j]!r} is used more than once"),
    "ndjson-ids": (_load_ids, lambda i, j, keys: f"set id {keys[j]!r} is used more than once"),
    "dataset-params": (
        lambda path, keys: Dataset([SampleSet(id=f"s{n}", samples=[[0.0]], params=_KEY_POINT[k])
                                    for n, k in enumerate(keys)]),
        lambda i, j, keys: f"sets 's{i}' and 's{j}' share parameters {_KEY_POINT[keys[i]]}"),
    "mirror-n-values": (
        lambda path, keys: run_mirror_experiment(n_values=[10 * ord(k) for k in keys], seeds=[0]),
        lambda i, j, keys: f"sample size {10 * ord(keys[j])} is given more than once"),
    "mirror-seeds": (
        lambda path, keys: run_mirror_experiment(n_values=[10], seeds=[ord(k) for k in keys]),
        lambda i, j, keys: f"seed {ord(keys[j])} is given more than once"),
    "recovery-n-values": (
        lambda path, keys: run_recovery_experiment(n_values=[10 * ord(k) for k in keys]),
        lambda i, j, keys: f"sample size {10 * ord(keys[j])} is given more than once"),
    "points-d1": (lambda path, keys: delaunay_triangulate([[float(ord(k))] for k in keys]),
                  lambda i, j, keys: f"point {j} coincides with point {i}"),
    "points-d2": (lambda path, keys: delaunay_triangulate([_KEY_POINT[k] for k in keys]),
                  lambda i, j, keys: f"point {j} coincides with point {i}"),
    "distance-matrix-ids": (
        lambda path, keys: DistanceMatrix(ids=tuple(keys), values=np.zeros((len(keys),) * 2)),
        lambda i, j, keys: f"distance matrix id {keys[j]!r} is used more than once"),
    "embedding-ids": (
        lambda path, keys: MirrorEmbedding(ids=tuple(keys), coords=np.zeros((len(keys), 1)),
                                           spectrum=np.zeros(len(keys))),
        lambda i, j, keys: f"embedding id {keys[j]!r} is used more than once"),
    "read-table-ids": (_read_table_ids,
                       lambda i, j, keys: f"line {j + 2}: id {keys[j]!r} repeats line {i + 2}"),
}


@pytest.mark.parametrize("site", _REPEAT_SITES)
@pytest.mark.parametrize("keys, repeat", [
    ("abba", (1, 2)),
    ("abcba", (1, 3)),
    ("abccab", (2, 3)),
], ids=["abba", "abcba", "abccab"])
def test_every_repeat_check_names_the_earliest_repeat(tmp_path, site, keys, repeat):
    # One rule at every site: j is the earliest key equal to an earlier key, i that
    # key's first index.  The first pair in (i, j) order, (0, j'), is not named.
    feed, message = _REPEAT_SITES[site]
    with pytest.raises(MirrorError, match=re.escape(message(*repeat, keys))):
        feed(tmp_path / "keys.txt", keys)


def test_duplicate_set_ids_rejected(tmp_path):
    path = tmp_path / "d.ndjson"
    write_ndjson(
        path,
        [
            {"id": "a", "params": [0.0], "samples": [[0.0]]},
            {"id": "a", "samples": [[1.0]]},
        ],
    )
    with pytest.raises(DatasetError, match="'a' is used more than once"):
        load_dataset(path)


def test_parse_error_reports_line_number(tmp_path):
    path = tmp_path / "d.ndjson"
    path.write_text('{"id": "a", "samples": [[1]]}\nnot json\n')
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(path)


def test_inconsistent_q_rejected(tmp_path):
    path = tmp_path / "d.ndjson"
    write_ndjson(
        path,
        [
            {"id": "a", "params": [0], "samples": [[1, 2]]},
            {"id": "b", "params": [1], "samples": [[1, 2, 3]]},
        ],
    )
    with pytest.raises(DatasetError, match="dimension"):
        load_dataset(path)


def test_dataset_names_the_first_set_and_the_first_of_another_dimension():
    a = SampleSet("a", np.zeros((1, 2)), params=[0.0])
    b = SampleSet("b", np.zeros((1, 3)), params=[1.0])
    with pytest.raises(DatasetError, match=r"^sample dimension mismatch: 'a' has q=2, 'b' has q=3$"):
        Dataset((a, b))
    c = SampleSet("c", np.zeros((1, 2)), params=[1.0, 2.0])
    with pytest.raises(DatasetError,
                       match=r"^parameter dimension mismatch: 'a' has d=1, 'c' has d=2$"):
        Dataset((a, c))


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "d.ndjson"
    path.write_text('{"id": "a", "params": [0], "samples": [[NaN]]}\n')
    with pytest.raises(DatasetError):
        load_dataset(path)


def test_missing_file_names_path(tmp_path):
    with pytest.raises(DatasetError, match="nope.ndjson"):
        load_dataset(tmp_path / "nope.ndjson")
    with pytest.raises(DatasetError, match=f"^no such file: {re.escape(str(tmp_path / 'nope.csv'))}$"):
        read_table(tmp_path / "nope.csv")


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "d.ndjson"
    ds = Dataset((SampleSet(id="a", samples=[[0.0]]),))
    save_dataset(ds, path)
    message = r"^unknown format 'json' \(expected 'ndjson' or 'csv'\)$"
    with pytest.raises(ValueError, match=message):
        load_dataset(path, "json")
    with pytest.raises(ValueError, match=message):
        save_dataset(ds, tmp_path / "d.json", "json")
    assert not (tmp_path / "d.json").exists()


def test_csv_grouped_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "id,p1,p2,s1,s2\n"
        "a,0.1,0.5,1.0,2.0\n"
        "a,0.1,0.5,3.0,4.0\n"
        "u,,,9.0,8.0\n"
    )
    ds = load_dataset(path, "csv")
    assert ds.m == 1
    assert ds.labeled[0].n == 2
    assert len(ds.unlabeled) == 1
    np.testing.assert_array_equal(ds.labeled[0].params, [0.1, 0.5])
    np.testing.assert_array_equal(ds.unlabeled[0].samples, [[9.0, 8.0]])


def test_csv_rows_of_one_id_need_not_be_contiguous(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,p1,s1\na,0.1,1.0\nb,0.2,5.0\na,0.10,2.0\nb, 0.2,6.0\n")
    ds = load_dataset(path, "csv")
    assert [s.id for s in ds.labeled] == ["a", "b"]
    np.testing.assert_array_equal(ds.labeled[0].samples, [[1.0], [2.0]])
    np.testing.assert_array_equal(ds.labeled[1].samples, [[5.0], [6.0]])


def test_csv_params_change_mid_file_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,p1,s1\na,0.1,1.0\na,0.2,2.0\n")
    with pytest.raises(DatasetError, match="line 3"):
        load_dataset(path, "csv")


@pytest.mark.parametrize("header, column", [
    ("id,p2,p1,s1", "p2"), ("id,p1,p3,s1", "p3"), ("id,p1,s1,s1", "s1"), ("id,p1,s1,x", "x"),
    ("id, p1 ,s2", "s2"), ("id,s1,p1", "p1"), ("id,p1,s1,", ""),
])
def test_csv_header_error_names_first_unexpected_column(tmp_path, header, column):
    path = tmp_path / "d.csv"
    path.write_text(header + "\n")
    with pytest.raises(DatasetError, match=f"d.csv: line 1: unexpected column '{column}'"):
        load_dataset(path, "csv")


@pytest.mark.parametrize("header", ["", "x,s1", "id", "id,p1"])
def test_csv_header_without_id_or_samples_is_rejected(tmp_path, header):
    path = tmp_path / "d.csv"
    path.write_text(header + "\n")
    with pytest.raises(DatasetError, match="d.csv: line 1: (header must start|no sample columns)"):
        load_dataset(path, "csv")


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_round_trip_identity(tmp_path, fmt):
    rng = np.random.default_rng(5)
    labeled = tuple(
        SampleSet(id=f"s{i}", samples=rng.standard_normal((4, 3)), params=np.array([i, 0.5]))
        for i in range(3)
    )
    unlabeled = (SampleSet(id="u0", samples=rng.standard_normal((4, 3))),)
    ds = Dataset(labeled + unlabeled)
    path = tmp_path / f"d.{fmt}"
    save_dataset(ds, path, fmt)
    back = load_dataset(path, fmt)
    assert [s.id for s in back.all_sets] == [s.id for s in ds.all_sets]
    for a, b in zip(ds.all_sets, back.all_sets):
        np.testing.assert_array_equal(a.samples, b.samples)
        if a.params is None:
            assert b.params is None
        else:
            np.testing.assert_array_equal(a.params, b.params)
    # a second round trip is byte-identical
    path2 = tmp_path / f"d2.{fmt}"
    save_dataset(back, path2, fmt)
    assert path.read_bytes() == path2.read_bytes()


def test_invariants_checked_eagerly():
    with pytest.raises(DatasetError):
        SampleSet(id="bad", samples=np.array([[np.inf]]))
    with pytest.raises(DatasetError):
        SampleSet(id="bad", samples=np.empty((0, 2)))
    with pytest.raises(DatasetError):
        Dataset(())


def test_sampleset_arrays_immutable():
    s = SampleSet(id="a", samples=np.ones((2, 2)), params=np.array([1.0]))
    with pytest.raises(ValueError):
        s.samples[0, 0] = 5.0
    with pytest.raises(ValueError):
        s.params[0] = 5.0


TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# (input array, the array the object keeps) for every frozen array field.
FROZEN_FIELDS = {
    "SampleSet.samples": (np.ones((3, 1)), lambda a: SampleSet(id="a", samples=a).samples),
    "SampleSet.params": (np.array([0.5, 0.25]), lambda a: SampleSet(
        id="a", samples=np.ones((1, 1)), params=a).params),
    "DistanceMatrix.values": (np.array([[0.0, 1.0], [1.0, 0.0]]), lambda a: DistanceMatrix(
        ids=("a", "b"), values=a).values),
    "GaussianFamilySpec.grid": (np.array([[0.5, 0.5], [0.25, 0.75]]), lambda a: GaussianFamilySpec(
        variant=FamilyVariant.MEAN_SD, grid=a).grid),
    "MirrorEmbedding.coords": (np.ones((2, 1)), lambda a: MirrorEmbedding(
        ids=("a", "b"), coords=a, spectrum=np.zeros(2)).coords),
    "MirrorEmbedding.spectrum": (np.array([2.0, 1.0]), lambda a: MirrorEmbedding(
        ids=("a", "b"), coords=np.ones((2, 1)), spectrum=a).spectrum),
    "Triangulation.points": (TRIANGLE.copy(), lambda a: Triangulation(
        points=a, simplices=[[0, 1, 2]]).points),
    "MirrorSurface.values": (np.ones((3, 2)), lambda a: MirrorSurface(
        delaunay_triangulate(TRIANGLE), a).values),
    "RecoveryResult.x_hat": (np.array([0.5, 0.25]), lambda a: RecoveryResult(
        x_hat=a, residual=0.0, on_boundary=False).x_hat),
}


@pytest.mark.parametrize("form", ["array", "view", "read-only view", "read-only array"])
@pytest.mark.parametrize("name", FROZEN_FIELDS)
def test_frozen_fields_leave_the_callers_array_alone(name, form):
    # The object keeps a read-only array of its own; the caller's array keeps
    # its flags, and writing to it later, even after making a read-only array
    # writeable again, does not change the object.
    template, build = FROZEN_FIELDS[name]
    owner = template.copy()
    given = owner[...] if form.endswith("view") else owner
    if form.startswith("read-only"):
        given.setflags(write=False)
    kept = build(given)
    before = kept.copy()
    assert not kept.flags.writeable
    assert given.flags.writeable == (not form.startswith("read-only"))
    assert owner.flags.writeable == (form != "read-only array")
    owner.setflags(write=True)
    owner[...] = 7.0
    np.testing.assert_array_equal(kept, before)


def test_triangulation_derived_arrays_are_read_only():
    # The hull is derived when the object is built, the inverses on their first read.
    tri = Triangulation(points=TRIANGLE, simplices=[[0, 1, 2]])
    assert "_bary" not in vars(tri)
    for derived in (tri.hull, tri._bary):
        assert not derived.flags.writeable
        with pytest.raises(ValueError):
            derived[0] = 0
    assert tri.hull.tolist() == [0, 1, 2] and vars(tri)["_bary"] is tri._bary


@pytest.mark.parametrize("name", ["distmirror"] + [
    f"distmirror.{info.name}" for info in pkgutil.iter_modules(distmirror.__path__)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


# ---------------------------------------------------------------------------
# malformed inputs: every one ends in a MirrorError naming the file and line
# ---------------------------------------------------------------------------

ND_OK = '{"id": "a", "params": [0], "samples": [[1]]}\n'
CSV_OK = "id,p1,s1\na,0,1\n"
EMBEDDING_OK = "id,y1\na,0.0\nb,1.0\n"
PARAMS_OK = "id,p1\na,0.0\nb,1.0\n"

BAD_INPUTS = [
    # (reader, file text or bytes, line the error names or None for the file alone)
    pytest.param("ndjson", ND_OK + '{"id": "b", "samples": [[1, 2], [3]]}\n', 2, id="ndjson-ragged"),
    pytest.param("ndjson", ND_OK + '\n{"id": "b", "samples": [["x"]]}\n', 3, id="ndjson-non-numeric"),
    pytest.param("ndjson", ND_OK + '{"id": "b", "samples": [[NaN]]}\n', 2, id="ndjson-nan"),
    pytest.param("ndjson", ND_OK + '{"id": "b", "params": [1e999], "samples": [[1]]}\n', 2,
                 id="ndjson-inf"),
    pytest.param("ndjson", ND_OK + '{"id": "b", "samples": [[null]]}\n', 2, id="ndjson-null"),
    pytest.param("ndjson", ND_OK + '{"id": "b", "samples": [[[1]]]}\n', 2, id="ndjson-nested"),
    pytest.param("ndjson", ND_OK + '{"id": "b", "params": [], "samples": [[1]]}\n', 2,
                 id="ndjson-empty-params"),
    pytest.param("ndjson", ND_OK + '{"id": "b", "params": 5, "samples": [[1]]}\n', 2,
                 id="ndjson-scalar-params"),
    pytest.param("ndjson", ND_OK + '{"id": "b", "samples": [[1], [true]]}\n', 2,
                 id="ndjson-bool-sample"),
    pytest.param("ndjson", ND_OK + '{"id": "b", "params": [1.5], "samples": [["1.5"], ["2"]]}\n',
                 2, id="ndjson-string-sample"),
    pytest.param("ndjson", ND_OK + '{"id": "b", "params": [true], "samples": [[1]]}\n', 2,
                 id="ndjson-bool-param"),
    pytest.param("ndjson", ND_OK + '{"id": null, "samples": [[1]]}\n', 2, id="ndjson-null-id"),
    pytest.param("ndjson", ND_OK + '{"id": 7, "samples": [[1]]}\n', 2, id="ndjson-number-id"),
    pytest.param("csv", CSV_OK + "a,0\n", 3, id="csv-ragged"),
    pytest.param("csv", CSV_OK + "b,1,2\na,0,x\n", 4, id="csv-non-numeric"),
    pytest.param("csv", CSV_OK + "b,x,2\n", 3, id="csv-non-numeric-param"),
    pytest.param("csv", CSV_OK + "\nb,1,2\nb,1,nan\n", 5, id="csv-nan"),
    pytest.param("csv", CSV_OK + "b,inf,2\nb,inf,3\n", 3, id="csv-inf-param"),
    pytest.param("csv", "id,p1,p2,s1\na,0,0,1\nb,1,,2\n", 3, id="csv-partly-empty-params"),
    pytest.param("csv", CSV_OK + "a,0.5,2\n", 3, id="csv-params-change"),
    # The CSV header is exactly id, p1..pd, s1..sq: no column is read by its name alone.
    pytest.param("csv", "id,p2,p1,s1\na,0,1,2\nb,1,0,3\n", 1, id="csv-header-swapped-params"),
    pytest.param("csv", "id,p1,p3,s1\na,0,1,2\n", 1, id="csv-header-skipped-param"),
    pytest.param("csv", "id,p1,s1,s1\na,0,1,2\n", 1, id="csv-header-repeated-sample"),
    pytest.param("csv", "id,p1,s1,x\na,0,1,2\n", 1, id="csv-header-unknown-column"),
    # Python's float reads '_' separators and non-ASCII digits and spaces; CSV numbers do not.
    pytest.param("csv", CSV_OK + "b,1,1_000\n", 3, id="csv-underscore-sample"),
    pytest.param("csv", CSV_OK + "b,1,2\nb,1,\u0661\u0662\n", 4, id="csv-arabic-indic-sample"),
    pytest.param("csv", CSV_OK + "b,1,\u20032\n", 3, id="csv-em-space-sample"),
    pytest.param("csv", CSV_OK + "b,1_0,2\n", 3, id="csv-underscore-param"),
    pytest.param("distmat", "a,b\n0,1_0\n1_0,0\n", 2, id="distmat-underscore"),
    pytest.param("embedding", EMBEDDING_OK + "c,\uff11\n", 4, id="embedding-fullwidth"),
    pytest.param("params", PARAMS_OK + "c,1_0\n", 4, id="params-underscore"),
    pytest.param("distmat", "a,b\n0,1\n1\n", 3, id="distmat-ragged"),
    pytest.param("distmat", "a,b\n0,1\n1,x\n", 3, id="distmat-non-numeric"),
    pytest.param("distmat", "a,b\n0,1\nnan,0\n", 3, id="distmat-nan"),
    pytest.param("distmat", "a,a\n0,1\n1,0\n", 1, id="distmat-duplicate-id"),
    pytest.param("embedding", EMBEDDING_OK + "c\n", 4, id="embedding-ragged"),
    pytest.param("embedding", "# note\n" + EMBEDDING_OK + "c,x\n", 5, id="embedding-non-numeric"),
    pytest.param("embedding", EMBEDDING_OK + "c,-inf\n", 4, id="embedding-inf"),
    pytest.param("embedding", EMBEDDING_OK + "a,2.0\n", 4, id="embedding-duplicate-id"),
    pytest.param("params", PARAMS_OK + "c,1,2\n", 4, id="params-ragged"),
    pytest.param("params", PARAMS_OK + "c,one\n", 4, id="params-non-numeric"),
    pytest.param("params", PARAMS_OK + "c,nan\n", 4, id="params-nan"),
    pytest.param("params", PARAMS_OK + "b,2.0\n", 4, id="params-duplicate-id"),
    pytest.param("distmat", "a,b\n0,-1\n-1,0\n", None, id="distmat-negative"),
    # A quoted cell longer than csv.field_size_limit() (131,072 by default).
    pytest.param("csv", CSV_OK + f'b,1,"{"1" * 200_000}"\n', 3, id="csv-cell-over-field-limit"),
    pytest.param("distmat", f'a,b\n"{"0" * 200_000}",1\n1,0\n', 2,
                 id="distmat-cell-over-field-limit"),
    pytest.param("ndjson", ND_OK.encode() + b'{"id": "b\xff", "samples": [[1]]}\n', 2,
                 id="ndjson-not-utf8"),
    pytest.param("csv", CSV_OK.encode() + b"b,1,2\r\nb,1,\xff\n", 4, id="csv-not-utf8"),
    pytest.param("distmat", b"a,b\n0,1\n1,0\xff\n", 3, id="distmat-not-utf8"),
    pytest.param("embedding", b"\xff" + EMBEDDING_OK.encode(), 1, id="embedding-not-utf8"),
    pytest.param("params", PARAMS_OK.encode() + b"\n\nc,1\xfe\n", 6, id="params-not-utf8"),
]

READERS = {
    "ndjson": lambda path: load_dataset(path, "ndjson"),
    "csv": lambda path: load_dataset(path, "csv"),
    "distmat": read_distance_matrix,
    "embedding": read_embedding,
    "params": read_params_csv,
}


def cli_argv(reader, path, tmp_path):
    out = str(tmp_path / "out.csv")
    if reader in ("ndjson", "csv"):
        return ["distmat", "--input", path, "--format", reader, "--output", out]
    if reader == "distmat":
        return ["embed", "--input", path, "--dim", "1", "--output", out]
    embedding, params = tmp_path / "emb.csv", tmp_path / "params.csv"
    embedding.write_text(EMBEDDING_OK)
    params.write_text(PARAMS_OK)
    if reader == "embedding":
        return ["fit", "--embedding", path, "--params", str(params), "--output", out]
    return ["fit", "--embedding", str(embedding), "--params", path, "--output", out]


@pytest.mark.parametrize("reader, text, line", BAD_INPUTS)
def test_bad_input_names_file_and_line(tmp_path, capsys, reader, text, line):
    path = tmp_path / "bad.txt"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    where = f"bad.txt: line {line}:" if line else "bad.txt:"
    with pytest.raises(MirrorError, match=where):
        READERS[reader](path)
    assert main(cli_argv(reader, str(path), tmp_path)) == 1
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


PIPED = ("csv-non-numeric", "csv-nan", "ndjson-not-utf8", "distmat-not-utf8")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("reader, text, line", [p for p in BAD_INPUTS if p.id in PIPED])
def test_bad_input_through_a_pipe_reads_it_once(tmp_path, reader, text, line):
    # A reader that opens its input a second time waits forever for a second writer.
    data = text if isinstance(text, bytes) else text.encode()
    src = str(Path(distmirror.__file__).parent.parent)
    code = "import sys; from distmirror.cli import main; sys.exit(main(sys.argv[1:]))"

    def run(path):
        argv = [sys.executable, "-c", code, *cli_argv(reader, str(path), tmp_path)]
        proc = subprocess.Popen(argv, stderr=subprocess.PIPE, stdout=subprocess.DEVNULL, text=True,
                                env={**os.environ, "PYTHONPATH": src})
        try:
            err = proc.communicate(timeout=60)[1]
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            pytest.fail(f"reading {path} did not end")
        return proc.returncode, err.replace(str(path), "bad.txt")

    regular = tmp_path / "regular.txt"
    regular.write_bytes(data)
    pipe = tmp_path / "pipe.txt"
    os.mkfifo(pipe)

    def feed():
        try:
            with open(pipe, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        piped = run(pipe)
    finally:
        # Opening the read end releases a writer whose reader never opened the pipe.
        os.close(os.open(pipe, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(10)
    assert piped == run(regular)
    assert piped[0] == 1 and f"bad.txt: line {line}:" in piped[1] and "Traceback" not in piped[1]


class ShortReads(io.RawIOBase):
    """A binary stream that hands out its bytes a few at a time, as a pipe may."""

    def __init__(self, data, sizes):
        self.data, self.sizes, self.at = data, cycle(sizes), 0

    def readable(self):
        return True

    def readinto(self, buffer):
        n = min(len(buffer), next(self.sizes), len(self.data) - self.at)
        buffer[:n] = self.data[self.at:self.at + n]
        self.at += n
        return n


# Text whose line breaks and multi-byte characters fall across short reads.
texts = st.lists(st.sampled_from(["a", ",", '"', "\u00e9", "\u20ac", "\U0001d11e", "\n", "\r",
                                  "\r\n", "\x0c", "\u2028"]), max_size=30)
read_sizes = st.lists(st.integers(1, 9), min_size=1, max_size=8)


@given(texts, read_sizes)
def test_property_lines_match_a_text_mode_read(pieces, sizes):
    raw = "".join(pieces).encode()
    expected = list(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=""))
    assert list(_lines(ShortReads(raw, sizes), Path("t.txt"))) == expected


@given(texts, read_sizes, st.data())
def test_property_bad_utf8_hands_on_earlier_lines_then_names_its_own(pieces, sizes, data):
    text = "".join(pieces).encode()
    at = data.draw(st.integers(0, len(text)))
    raw = text[:at] + b"\xff" + text[at:]
    # The first line that does not decode alone, by a whole-file split.
    split = raw.splitlines(keepends=True)
    bad = next(k for k, line in enumerate(split) if not _decodes(line))
    got = []
    with pytest.raises(DatasetError, match=f"^t.txt: line {bad + 1}: not valid UTF-8"):
        for line in _lines(ShortReads(raw, sizes), Path("t.txt")):
            got.append(line)
    assert got == list(io.StringIO(b"".join(split[:bad]).decode(), newline=""))


def _decodes(raw):
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


# ---------------------------------------------------------------------------
# save/load round trips
# ---------------------------------------------------------------------------

floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 0.1, 1 / 3, 1.7976931348623157e308]),
)


@st.composite
def datasets(draw):
    """Mixed labeled and unlabeled sets of any finite floats, with any ids."""
    q, d = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    ids = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=4, unique=True))
    sets, used = [], set()
    for set_id in ids:
        samples = draw(arrays(np.float64, (draw(st.integers(1, 3)), q), elements=floats))
        params = draw(st.none() | arrays(np.float64, d, elements=floats))
        if params is not None and tuple(params + 0.0) in used:  # + 0.0 folds -0.0 into 0.0
            params = None
        if params is not None:
            used.add(tuple(params + 0.0))
        sets.append(SampleSet(id=set_id, samples=samples, params=params))
    return Dataset(tuple(sets))


def bits(a):
    return None if a is None else a.view(np.uint64).tolist()


def fields(ds):
    return [(s.id, bits(s.samples), bits(s.params)) for s in ds.all_sets]


@given(datasets())
@example(Dataset((SampleSet(id="\r", samples=np.zeros((1, 1))),)))
def test_property_save_load_round_trip_is_bit_exact(ds):
    with tempfile.TemporaryDirectory() as tmp:
        loaded = {}
        for fmt in ("ndjson", "csv"):
            path = Path(tmp) / f"d.{fmt}"
            save_dataset(ds, path, fmt)
            loaded[fmt] = load_dataset(path, fmt)
            assert fields(loaded[fmt]) == fields(ds)
            assert [s.labeled for s in loaded[fmt].all_sets] == [s.labeled for s in ds.all_sets]
    assert fields(loaded["ndjson"]) == fields(loaded["csv"])


@given(datasets(), st.data())
def test_property_any_order_of_the_sets_gives_labeled_first_in_input_order(ds, data):
    given_order = data.draw(st.permutations(ds.all_sets))
    labeled = [s for s in given_order if s.labeled]
    unlabeled = [s for s in given_order if not s.labeled]
    mixed, sorted_ = Dataset(tuple(given_order)), Dataset(tuple(labeled + unlabeled))
    assert list(mixed.labeled) == labeled and list(mixed.unlabeled) == unlabeled
    assert list(mixed.all_sets) == labeled + unlabeled
    assert (mixed.m, mixed.q) == (sorted_.m, sorted_.q) == (len(labeled), given_order[0].q)
    assert bits(mixed.params_matrix()) == bits(sorted_.params_matrix())
    if labeled:
        assert mixed.d == sorted_.d == labeled[0].params.size
    else:
        with pytest.raises(DatasetError, match=r"^dataset has no labeled sets; d is undefined$"):
            mixed.d


# Many signed zeros, and no gap so small that a W2 cost underflows to zero.
zero_heavy = st.one_of(st.sampled_from([0.0, -0.0]),
                       st.floats(-1e3, 1e3).filter(lambda x: x == 0 or abs(x) >= 1e-100))


@given(draws=st.lists(zero_heavy, min_size=1, max_size=64), data=st.data())
def test_property_q1_set_is_held_as_its_order_statistics(draws, data):
    # numpy's vectorised sort may swap equal signed zeros, so a set held sorted
    # but unfolded could change bits with its draw order or on a round trip.
    other = data.draw(st.lists(zero_heavy, min_size=len(draws), max_size=len(draws)))
    orders = [(draws, other), (data.draw(st.permutations(draws)), data.draw(st.permutations(other)))]
    sets = [[SampleSet(id=k, samples=np.array(x)[:, None]) for k, x in zip("ab", pair)]
            for pair in orders]
    held = sets[0][0].samples[:, 0]
    assert bits(sets[1][0].samples) == bits(sets[0][0].samples)
    assert bits(sets[1][1].samples) == bits(sets[0][1].samples)
    assert np.array_equal(held, np.sort(draws))
    assert not np.signbit(held[held == 0]).any()
    for p in (1, 2):
        assert (distance_matrix(sets[0], p).values.tobytes()
                == distance_matrix(sets[1], p).values.tobytes())
    ds = Dataset(tuple(sets[1]))
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("ndjson", "csv"):
            path = Path(tmp) / f"d.{fmt}"
            save_dataset(ds, path, fmt)
            assert fields(load_dataset(path, fmt)) == fields(ds)


@st.composite
def tables(draw):
    """Distinct ids, drawn as datasets() draws them, each with a row of any finite floats."""
    ids = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=4, unique=True))
    return ids, draw(arrays(np.float64, (len(ids), draw(st.integers(1, 3))), elements=floats))


# After a table's header a '#' starts an id, not a comment.
HASH_LED_IDS = (["#a", "b", "#"], np.array([[1.0], [2.0], [3.0]]))


@pytest.mark.parametrize("note", [None, "dim=1 (auto)"], ids=["no-note", "note"])
@given(table=tables())
@example(table=HASH_LED_IDS)
def test_property_embedding_round_trip_is_bit_exact(note, table):
    ids, coords = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "emb.csv"
        write_embedding(MirrorEmbedding(ids=ids, coords=coords, spectrum=np.zeros(len(ids))),
                        path, header_note=note)
        back_ids, back = read_embedding(path)
    assert back_ids == tuple(ids)
    assert bits(back) == bits(coords)


@given(table=tables())
@example(table=HASH_LED_IDS)
def test_property_params_round_trip_is_bit_exact(table):
    ids, params = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.csv"
        write_params_csv(ids, params, path)
        back_ids, back = read_params_csv(path)
    assert back_ids == tuple(ids)
    assert bits(back) == bits(params)


# ---------------------------------------------------------------------------
# CSV ingest converts a bounded chunk of rows at a time
# ---------------------------------------------------------------------------


def write_interleaved_csv(ds, path):
    """save_dataset's CSV with the sets' rows dealt round-robin, not one set after another."""
    save_dataset(ds, path, "csv")
    head, *body = path.read_text().splitlines(keepends=True)
    rank = [(r, k) for k, s in enumerate(ds.all_sets) for r in range(s.n)]
    path.write_text(head + "".join(line for _, line in sorted(zip(rank, body))))


def sets_of_sizes(sizes, q=1, d=1, unlabeled=0, seed=0):
    """Labeled sets of the given row counts; the last ``unlabeled`` of them carry no params."""
    rng = np.random.default_rng(seed)
    sets = [SampleSet(id=f"s{k}", samples=rng.standard_normal((n, q)),
                      params=None if k >= len(sizes) - unlabeled else np.full(d, float(k)))
            for k, n in enumerate(sizes)]
    return Dataset(tuple(sets))


@pytest.mark.parametrize("ds, interleaved, blank_every", [
    (sets_of_sizes([10_000]), False, 0),
    (sets_of_sizes([100] * 2000), False, 0),
    (sets_of_sizes([1500, 1200, 900], unlabeled=1), True, 0),
    (sets_of_sizes([700] * 5, q=3, d=2, unlabeled=2), True, 0),
    (sets_of_sizes([1500, 1200, 900], unlabeled=1), True, 3),
], ids=["one-set-of-1e4", "2000-sets-of-100", "three-interleaved", "q3-interleaved",
        "blank-lines-in-every-chunk"])
def test_csv_load_across_chunks_matches_ndjson(tmp_path, ds, interleaved, blank_every):
    nd, cs = tmp_path / "d.ndjson", tmp_path / "d.csv"
    save_dataset(ds, nd, "ndjson")
    if interleaved:
        write_interleaved_csv(ds, cs)
    else:
        save_dataset(ds, cs, "csv")
    if blank_every:  # blank rows of any width, which no chunk counts among its rows
        head, *body = cs.read_text().splitlines(keepends=True)
        blanks = cycle(["\n", ",\n", " \t\r\n", ",,\n", " , \t,\n", "\u3000,,\u00a0\n"])
        cs.write_text(head + "".join(line + (next(blanks) if k % blank_every == 0 else "")
                                     for k, line in enumerate(body)), encoding="utf-8")
    from_csv, from_ndjson = load_dataset(cs, "csv"), load_dataset(nd, "ndjson")
    assert fields(from_csv) == fields(from_ndjson) == fields(ds)
    assert [s.labeled for s in from_csv.all_sets] == [s.labeled for s in ds.all_sets]


@pytest.mark.parametrize("interleaved", [False, True], ids=["contiguous", "interleaved"])
def test_csv_load_peak_bytes_per_value(tmp_path, interleaved):
    # Holding every cell as text until the file ends cost 84-100 B per 8-B value.
    ds = sets_of_sizes([10_000] * 20)
    path = tmp_path / "d.csv"
    if interleaved:
        write_interleaved_csv(ds, path)
    else:
        save_dataset(ds, path, "csv")
    tracemalloc.start()
    try:
        loaded = load_dataset(path, "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fields(loaded) == fields(ds)
    assert peak / 200_000 <= 40


@pytest.mark.parametrize("line", [_CSV_CHUNK_ROWS + k for k in (1, 2, 1000)],
                         ids=["last-row-of-a-chunk", "first-row-after-a-full-chunk",
                              "inside-a-later-chunk"])
@pytest.mark.parametrize("cell, message", [("x", "invalid numeric data"), ("nan", "non-finite"),
                                           ("0,1", "expected 3 cells, got 4")],
                         ids=["non-numeric", "nan", "ragged"])
def test_csv_bad_cell_beyond_the_first_chunk_names_its_line(tmp_path, cell, message, line):
    path = tmp_path / "d.csv"
    write_interleaved_csv(sets_of_sizes([_CSV_CHUNK_ROWS] * 3), path)
    lines = path.read_text().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].rsplit(",", 1)[0] + f",{cell}\n"
    path.write_text("".join(lines))
    with pytest.raises(DatasetError, match=f"d.csv: line {line}: .*{message}"):
        load_dataset(path, "csv")


@pytest.mark.parametrize("later", [b"a,0,1,2\n", b"a,0.5,1\n", b"a,0,\xff\n",
                                   b'a,0,"' + b"1" * 200_000 + b'"\n'],
                         ids=["ragged-row", "parameter-change", "not-utf8", "cell-over-field-limit"])
def test_csv_bad_cell_before_a_later_error_in_its_chunk_is_the_error(tmp_path, later):
    # The later row's error is found first, but the earliest line is the one reported.
    rows = [f"a,0,{k}\n".encode() for k in range(3 * _CSV_CHUNK_ROWS)]
    rows[5] = b"a,0,x\n"
    rows[100] = later
    path = tmp_path / "d.csv"
    path.write_bytes(b"id,p1,s1\n" + b"".join(rows))
    with pytest.raises(DatasetError, match="line 7: invalid numeric data"):
        load_dataset(path, "csv")
