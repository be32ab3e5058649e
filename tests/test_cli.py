import csv
import json

import numpy as np
import pytest

import distmirror.cli
import distmirror.recovery
import distmirror.transport
from distmirror.cli import main, read_params_csv, write_params_csv
from distmirror.core import load_dataset
from distmirror.embedding import read_embedding
from distmirror.sim import FamilyVariant, GaussianFamilySpec, generate
from distmirror.surface import delaunay_triangulate, fit_axis_scaling
from distmirror.core import save_dataset
from distmirror.transport import read_distance_matrix


def write_ndjson(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def singleton_fixture(tmp_path):
    path = tmp_path / "data.ndjson"
    write_ndjson(
        path,
        [
            {"id": "a", "params": [0.0], "samples": [[0.0]]},
            {"id": "b", "params": [1.0], "samples": [[1.0]]},
            {"id": "c", "params": [3.0], "samples": [[3.0]]},
        ],
    )
    return path


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return [r for r in csv.reader(fh) if r and not r[0].startswith("#")]


def test_distmat_singletons(tmp_path):
    data = singleton_fixture(tmp_path)
    out = tmp_path / "dm.csv"
    assert main(["distmat", "--input", str(data), "--metric", "w1", "--output", str(out)]) == 0
    dm = read_distance_matrix(out)
    assert dm.ids == ("a", "b", "c")
    np.testing.assert_allclose(dm.values, [[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def test_distmat_missing_input(tmp_path, capsys):
    code = main(
        ["distmat", "--input", str(tmp_path / "gone.ndjson"), "--output", str(tmp_path / "o.csv")]
    )
    assert code == 1
    assert "gone.ndjson" in capsys.readouterr().err


def test_distmat_external_metric_is_usage_error(tmp_path):
    data = singleton_fixture(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["distmat", "--input", str(data), "--metric", "external",
              "--output", str(tmp_path / "o.csv")])
    assert exc.value.code == 2


def collinear_matrix(tmp_path):
    path = tmp_path / "dm.csv"
    path.write_text("a,b,c\n0.0,1.0,2.0\n1.0,0.0,1.0\n2.0,1.0,0.0\n")
    return path


def test_embed_collinear_matrix(tmp_path):
    dm = collinear_matrix(tmp_path)
    out = tmp_path / "emb.csv"
    assert main(["embed", "--input", str(dm), "--dim", "1", "--output", str(out)]) == 0
    ids, coords = read_embedding(out)
    assert ids == ("a", "b", "c")
    got = coords[:, 0]
    sign = 1.0 if got[2] > 0 else -1.0
    np.testing.assert_allclose(got, sign * np.array([-1.0, 0.0, 1.0]), atol=1e-9)
    assert (tmp_path / "emb.spectrum.csv").exists()


def test_embed_auto_dim_recorded(tmp_path):
    dm = collinear_matrix(tmp_path)
    out = tmp_path / "emb.csv"
    assert main(["embed", "--input", str(dm), "--dim", "auto", "--output", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "# dim=1 (auto)"


def test_embed_asymmetric_input_fails(tmp_path):
    path = tmp_path / "dm.csv"
    path.write_text("a,b\n0.0,2.0\n1.0,0.0\n")
    assert main(["embed", "--input", str(path), "--dim", "1", "--output", str(tmp_path / "e.csv")]) == 1


def test_embed_integer_dim_writes_the_diagnosed_spectrum(tmp_path, monkeypatch):
    # An integer --dim needs no scree, so one eigendecomposition serves both files.
    dm = collinear_matrix(tmp_path)
    assert main(["diagnose", "--input", str(dm), "--output", str(tmp_path / "scree.csv")]) == 0
    monkeypatch.setattr(distmirror.cli, "realizability_diagnostics", None)
    out = tmp_path / "emb.csv"
    assert main(["embed", "--input", str(dm), "--dim", "2", "--output", str(out)]) == 0
    assert (tmp_path / "emb.spectrum.csv").read_bytes() == (tmp_path / "scree.csv").read_bytes()


def test_embed_auto_dim_decomposes_once(tmp_path, monkeypatch):
    # The dimension choice and the coordinates share one eigendecomposition,
    # and the files equal those of the dimension it chose.
    dm = collinear_matrix(tmp_path)
    fixed = tmp_path / "fixed.csv"
    assert main(["embed", "--input", str(dm), "--dim", "1", "--output", str(fixed)]) == 0
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda b: calls.append(b) or eigh(b))
    auto = tmp_path / "auto.csv"
    assert main(["embed", "--input", str(dm), "--dim", "auto", "--output", str(auto)]) == 0
    assert len(calls) == 1
    assert auto.read_text() == fixed.read_text().replace("# dim=1", "# dim=1 (auto)")
    assert (tmp_path / "auto.spectrum.csv").read_bytes() == (
        tmp_path / "fixed.spectrum.csv").read_bytes()


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 745. GiB for an array"),
     "error: out of memory (Unable to allocate 745. GiB for an array)"),
    (MemoryError(), "error: out of memory"),
], ids=["numpy-message", "bare"])
def test_memory_error_is_an_error_line(tmp_path, capsys, monkeypatch, error, line):
    def fit(args):
        raise error

    monkeypatch.setattr(distmirror.cli, "_cmd_fit", fit)
    assert main(["fit", "--embedding", "e.csv", "--params", "p.csv",
                 "--output", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("command", ["embed", "recover"])
@pytest.mark.parametrize("dim", ["0", "-1", "x", "1_0", "\u0662"])
def test_bad_dim_is_usage_error_before_reading(tmp_path, capsys, command, dim):
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(tmp_path / "gone.csv"), "--dim", dim,
              "--output", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    assert f"argument --dim: expected a positive integer or 'auto', got '{dim}'" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("option, text, noun", [
    ("--seed", "\u0660", "an integer"),
    ("--seed", "1_0", "an integer"),
    ("--grid-res", "\uff15", "an integer"),
], ids=["seed-arabic-indic", "seed-underscore", "grid-res-fullwidth"])
def test_number_option_outside_ascii_decimal_is_usage_error(tmp_path, capsys, option, text, noun):
    # Python's int and float read these as numbers; the options take ASCII decimals only.
    command = (["simulate", "--experiment", "mean-sd", "--output-dir", str(tmp_path / "o")]
               if option == "--seed" else
               ["fit", "--embedding", "e.csv", "--params", "p.csv", "--output", "o.csv"])
    with pytest.raises(SystemExit) as exc:
        main(command + [option, text])
    assert exc.value.code == 2
    assert f"argument {option}: expected {noun}, got {text!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("values", ["1_0", "10,\u0662\u0660"])
def test_n_values_outside_ascii_decimal_is_usage_error(tmp_path, capsys, values):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--experiment", "mean-sd", "--n-values", values, "--seed", "0",
              "--output-dir", str(tmp_path / "o")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --n-values: expected a comma-separated integer list" in err


def test_diagnose_prints_summary(tmp_path, capsys):
    dm = collinear_matrix(tmp_path)
    spec_out = tmp_path / "scree.csv"
    assert main(["diagnose", "--input", str(dm), "--output", str(spec_out)]) == 0
    out = capsys.readouterr().out
    assert "negative eigenvalues" in out
    assert spec_out.exists()


def identity_grid_fixture(tmp_path, k=3):
    axis = np.linspace(0.0, 1.0, k)
    grid = np.array([[a, b] for a in axis for b in axis])
    ids = tuple(f"g{i}" for i in range(len(grid)))
    emb = tmp_path / "emb.csv"
    with open(emb, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "y1", "y2"])
        for set_id, row in zip(ids, grid):
            writer.writerow([set_id, repr(float(row[0])), repr(float(row[1]))])
    params = tmp_path / "params.csv"
    write_params_csv(ids, grid, params)
    return emb, params, grid


def test_fit_identity_surface(tmp_path):
    emb, params, grid = identity_grid_fixture(tmp_path)
    out = tmp_path / "surface.csv"
    assert main(
        ["fit", "--embedding", str(emb), "--params", str(params),
         "--grid-res", "3", "--output", str(out),
         "--triangulation", str(tmp_path / "tri.csv")]
    ) == 0
    rows = read_csv_rows(out)
    assert rows[0] == ["x1", "x2", "y1", "y2"]
    got = np.array([[float(c) for c in r] for r in rows[1:]])
    # with resolution 3 on the unit square the evaluation nodes are the grid
    for row in got:
        np.testing.assert_allclose(row[2:], row[:2], atol=1e-10)
    assert (tmp_path / "tri.csv").exists()


def test_fit_collinear_params_fail(tmp_path):
    ids = ("a", "b", "c")
    line = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    emb = tmp_path / "emb.csv"
    with open(emb, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "y1"])
        for set_id, v in zip(ids, line[:, 0]):
            writer.writerow([set_id, repr(float(v))])
    params = tmp_path / "params.csv"
    write_params_csv(ids, line, params)
    assert main(
        ["fit", "--embedding", str(emb), "--params", str(params), "--output", str(tmp_path / "s.csv")]
    ) == 1


@pytest.mark.parametrize("flags", [[], ["--normalize-params"], ["d=1"]],
                         ids=["delaunay", "normalized", "delaunay-1d"])
def test_fit_writes_the_same_bytes_in_any_number_of_chunks(tmp_path, monkeypatch, capsys, flags):
    # A triangular hull leaves part of every chunk's rows outside it.
    rng = np.random.default_rng(7)
    if "d=1" in flags:
        flags, params = flags[:-1], rng.uniform(0, 3, (9, 1))
    else:
        params = np.vstack([[[0.0, 0.0], [3.0, 0.0], [0.0, 2.0]],
                            rng.dirichlet(np.ones(3), 30) @ [[0.0, 0.0], [3.0, 0.0], [0.0, 2.0]]])
    ids = tuple(f"g{i}" for i in range(len(params)))
    emb, par = tmp_path / "emb.csv", tmp_path / "params.csv"
    emb.write_text("id,y1,y2\n" + "".join(f"{i},{a!r},{b!r}\n" for i, (a, b) in
                                           zip(ids, rng.standard_normal((len(ids), 2)).tolist())))
    write_params_csv(ids, params, par)
    calls = []
    original = distmirror.cli.interpolate
    monkeypatch.setattr(distmirror.cli, "interpolate",
                        lambda s, x: calls.append(len(x)) or original(s, x))
    outputs = []
    for points in (distmirror.cli._GRID_POINTS, 40, 7):
        monkeypatch.setattr(distmirror.cli, "_GRID_POINTS", points)
        calls.clear()
        out = tmp_path / f"surface{points}.csv"
        assert main(["fit", "--embedding", str(emb), "--params", str(par), *flags,
                     "--grid-res", "13", "--output", str(out)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out.replace(out.name, "")))
        # chunks of whole first-axis rows: all at once, 3 rows (d = 2) or 40 points (d = 1), one row
        width = 13 if params.shape[1] == 2 else 1
        step = max(1, points // width)
        assert calls == [min(step, 13 - i) * width for i in range(0, 13, step)]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert "rows=" in outputs[0][1] and len(outputs[0][0].splitlines()) > 2


@pytest.mark.parametrize("res", ["-3", "0", "1"])
def test_fit_grid_res_below_two_is_usage_error(tmp_path, res):
    emb, params, _ = identity_grid_fixture(tmp_path)
    out = tmp_path / "surface.csv"
    code = main(
        ["fit", "--embedding", str(emb), "--params", str(params),
         "--grid-res", res, "--output", str(out)]
    )
    assert code == 2
    assert not out.exists()


def test_fit_normalize_params_reproduces_affine_embedding(tmp_path):
    # Axes spanning 1 and 1000: the surface is built on normalized axes and
    # queried through the same scaling, so an affine map is reproduced exactly.
    grid = np.array([[a, b] for a in np.linspace(0.0, 1.0, 4) for b in np.linspace(0.0, 1000.0, 5)])
    coords = grid @ np.array([[2.0, -1.0], [0.003, 0.001]]) + np.array([1.0, 0.5])
    ids = tuple(f"g{i}" for i in range(len(grid)))
    emb = tmp_path / "emb.csv"
    with open(emb, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "y1", "y2"])
        for set_id, row in zip(ids, coords):
            writer.writerow([set_id, *map(repr, row.tolist())])
    params = tmp_path / "params.csv"
    write_params_csv(ids, grid, params)
    out = tmp_path / "surface.csv"
    assert main(
        ["fit", "--embedding", str(emb), "--params", str(params), "--normalize-params",
         "--grid-res", "7", "--output", str(out)]
    ) == 0
    assert out.read_text().splitlines()[0] == "# normalized axes: offset=0.0,0.0 scale=1.0,1000.0"
    rows = np.array([[float(v) for v in r] for r in read_csv_rows(out)[1:]])
    assert rows.shape == (49, 4)
    expected = rows[:, :2] @ np.array([[2.0, -1.0], [0.003, 0.001]]) + np.array([1.0, 0.5])
    np.testing.assert_allclose(rows[:, 2:], expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("flags", [[], ["--normalize-params"]],
                         ids=["default", "--normalize-params"])
def test_fit_triangulation_export_in_params_units(tmp_path, flags):
    # The exported vertices are the raw parameters, on normalized axes too.
    grid = np.array([[a, b] for a in np.linspace(0.0, 1.0, 5) for b in np.linspace(0.0, 1000.0, 4)])
    ids = tuple(f"g{i}" for i in range(len(grid)))
    emb = tmp_path / "emb.csv"
    with open(emb, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "y1"])
        for set_id, row in zip(ids, grid):
            writer.writerow([set_id, repr(float(row[0] + row[1] / 1000.0))])
    params = tmp_path / "params.csv"
    write_params_csv(ids, grid, params)
    tri_out = tmp_path / "tri.csv"
    assert main(
        ["fit", "--embedding", str(emb), "--params", str(params), *flags, "--grid-res", "3",
         "--output", str(tmp_path / "surface.csv"), "--triangulation", str(tri_out)]
    ) == 0
    rows = read_csv_rows(tri_out)
    assert rows[0] == ["section", "index", "c1", "c2", "c3"]
    points = np.array([[float(v) for v in r[2:4]] for r in rows[1:] if r[0] == "point"])
    simplices = np.array([[int(v) for v in r[2:]] for r in rows[1:] if r[0] == "simplex"])
    np.testing.assert_array_equal(points, grid)
    work = fit_axis_scaling(grid).transform(grid) if flags else grid
    np.testing.assert_array_equal(simplices, delaunay_triangulate(work).simplices)


@pytest.mark.parametrize("option", [["--method", "delaunay"], ["--penalty", "1"],
                                    ["--degree", "3"], ["--knots", "8"]],
                         ids=["method", "penalty", "degree", "knots"])
def test_fit_removed_option_is_unrecognized(tmp_path, capsys, option):
    emb, params, _ = identity_grid_fixture(tmp_path)
    out = tmp_path / "surface.csv"
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--embedding", str(emb), "--params", str(params), *option,
              "--output", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not out.exists()


def test_fit_unsupported_dimension_reports_fitter_error(tmp_path, capsys):
    grid = np.random.default_rng(5).random((20, 3))
    ids = tuple(f"g{i}" for i in range(len(grid)))
    emb = tmp_path / "emb.csv"
    with open(emb, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "y1"])
        for set_id, row in zip(ids, grid):
            writer.writerow([set_id, repr(float(row.sum()))])
    params = tmp_path / "params.csv"
    write_params_csv(ids, grid, params)
    out = tmp_path / "surface.csv"
    assert main(
        ["fit", "--embedding", str(emb), "--params", str(params), "--output", str(out)]
    ) == 1
    assert "error: triangulation supports d in {1, 2}, got d=3" in capsys.readouterr().err
    assert not out.exists()


def test_fit_embedding_without_columns_is_an_error(tmp_path, capsys):
    # A surface with no value column would write every grid point, the hull's outside included.
    ids = ("a", "b", "c", "d")
    (tmp_path / "emb.csv").write_text("id\n" + "".join(f"{i}\n" for i in ids))
    params = tmp_path / "params.csv"
    write_params_csv(ids, np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [0.5, 0.5]]), params)
    out = tmp_path / "surface.csv"
    assert main(["fit", "--embedding", str(tmp_path / "emb.csv"), "--params", str(params),
                 "--grid-res", "3", "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: surface values must have at least one coordinate\n")
    assert not out.exists()


# The square of side 2e308 with its centre: each axis spans more than the float range.
SQUARE_AT_FLOAT_LIMIT = [[-1e308, -1e308], [1e308, -1e308], [1e308, 1e308], [-1e308, 1e308],
                         [0.0, 0.0]]
WIDE_AXIS_ERROR = "error: parameter axis 1 spans more than the float range (-1e+308 to 1e+308)\n"


@pytest.mark.parametrize("flags", [[], ["--normalize-params"]], ids=["raw", "normalized"])
def test_fit_axis_wider_than_the_float_range_is_an_error(tmp_path, capsys, flags):
    # No grid spans such an axis: np.linspace overflows, and only its finite rows would be written.
    ids = tuple("abcde")
    (tmp_path / "emb.csv").write_text("id,y1\n" + "".join(f"{i},{k}.0\n" for k, i in enumerate(ids)))
    params = tmp_path / "params.csv"
    write_params_csv(ids, np.array(SQUARE_AT_FLOAT_LIMIT), params)
    out = tmp_path / "surface.csv"
    assert main(["fit", "--embedding", str(tmp_path / "emb.csv"), "--params", str(params),
                 "--grid-res", "3", "--output", str(out), *flags]) == 1
    assert capsys.readouterr().err == WIDE_AXIS_ERROR
    assert not out.exists()


def test_recover_normalized_axis_wider_than_the_float_range_is_an_error(tmp_path, capsys):
    # Such an axis has an infinite scale, which would turn finite parameters into NaN.
    data = tmp_path / "data.ndjson"
    write_ndjson(data, [{"id": f"s{k}", "params": x, "samples": [[float(k)], [k + 0.5]]}
                        for k, x in enumerate([[-1e308, 0.0], [1e308, 0.5], [0.0, 1.0]])]
                 + [{"id": "u", "samples": [[0.2], [0.7]]}])
    out = tmp_path / "rec.csv"
    assert main(["recover", "--input", str(data), "--normalize-params", "--output", str(out)]) == 1
    assert capsys.readouterr().err == WIDE_AXIS_ERROR
    assert not out.exists()


PARAMS_ABC = "id,p1\na,0.0\nb,1.0\nc,2.0\n"


@pytest.mark.parametrize("files, argv, message", [
    ({"emb.csv": "id,y1\na,0.0\nb,1.0\nd,2.0\n", "params.csv": PARAMS_ABC},
     ["fit", "--embedding", "emb.csv", "--params", "params.csv"],
     "params.csv: params file lacks ids: ['d']"),
    ({"emb.csv": "id,y1\n", "params.csv": PARAMS_ABC},
     ["fit", "--embedding", "emb.csv", "--params", "params.csv"], "emb.csv: no table rows"),
    ({"data.ndjson": '{"id": "u", "samples": [[1.0]]}\n'},
     ["recover", "--input", "data.ndjson"], "recovery requires labeled sets"),
    ({"data.ndjson": ""}, ["distmat", "--input", "data.ndjson"],
     "data.ndjson: dataset contains no sample sets"),
    ({"data.ndjson": '{"id": "a", "samples": [1.0, 2.0]}\n'}, ["distmat", "--input", "data.ndjson"],
     "data.ndjson: line 1: 'samples' must be a list of lists of numbers"),
    ({"data.ndjson": '{"id": "a"}\n'}, ["distmat", "--input", "data.ndjson"],
     "data.ndjson: line 1: record must contain 'id' and 'samples'"),
    ({"dm.csv": "a,b,c\n0.0,1.0,2.0\n1.0,0.0,1.0\n"}, ["embed", "--input", "dm.csv"],
     "dm.csv: expected 3 value rows, found 2"),
    ({"dm.csv": "a\n0.0\n"}, ["embed", "--input", "dm.csv", "--dim", "auto"],
     "choosing the embedding dimension needs at least two sets, got m=1"),
], ids=["params-lack-an-id", "header-only-embedding", "only-unlabeled", "empty-ndjson",
        "flat-samples", "no-samples", "fewer-rows-than-ids", "auto-dim-of-one-set"])
def test_bad_input_is_one_error_line(tmp_path, monkeypatch, capsys, files, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main([*argv, "--output", "out.csv"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


def test_params_csv_round_trip(tmp_path):
    ids = ("a", "b")
    params = np.array([[0.1, 0.2], [0.3, 0.4]])
    path = tmp_path / "p.csv"
    write_params_csv(ids, params, path)
    back_ids, back = read_params_csv(path)
    assert back_ids == ids
    np.testing.assert_array_equal(back, params)


def recovery_fixture(tmp_path, with_unlabeled=True):
    axis = np.linspace(0.0, 1.0, 3)
    grid = np.array([[a, b] for a in axis for b in axis])
    records = []
    for i, x in enumerate(grid):
        samples = np.tile([x[0], x[1], 0.5], (4, 1))
        records.append({"id": f"g{i}", "params": x.tolist(), "samples": samples.tolist()})
    if with_unlabeled:
        clone = records[4]["samples"]
        records.append({"id": "mystery", "samples": clone})
    path = tmp_path / "data.ndjson"
    write_ndjson(path, records)
    return path, grid


def test_recover_duplicate_of_labeled(tmp_path):
    data, grid = recovery_fixture(tmp_path)
    out = tmp_path / "report.csv"
    assert main(
        ["recover", "--input", str(data), "--metric", "w2", "--output", str(out)]
    ) == 0
    rows = read_csv_rows(out)
    assert rows[0] == ["id", "x_true_1", "x_true_2", "x_hat_1", "x_hat_2", "residual", "on_boundary"]
    row = rows[1]
    assert row[0] == "mystery"
    assert row[1] == "" and row[2] == ""
    x_hat = np.array([float(row[3]), float(row[4])])
    np.testing.assert_allclose(x_hat, grid[4], atol=1e-6)


def test_recover_without_unlabeled_is_usage_error(tmp_path):
    data, _ = recovery_fixture(tmp_path, with_unlabeled=False)
    code = main(["recover", "--input", str(data), "--metric", "w2", "--output", str(tmp_path / "r.csv")])
    assert code == 2


def test_recover_leave_one_out_fills_truth(tmp_path):
    data, grid = recovery_fixture(tmp_path, with_unlabeled=False)
    out = tmp_path / "report.csv"
    assert main(
        ["recover", "--input", str(data), "--metric", "w2", "--leave-one-out",
         "--output", str(out)]
    ) == 0
    rows = read_csv_rows(out)
    assert len(rows) == 10
    truth = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
    np.testing.assert_allclose(truth, grid, atol=0)


@pytest.mark.parametrize("command", ["distmat", "recover"])
def test_unequal_sample_sizes_name_every_offender(tmp_path, capsys, command):
    # 6-row labeled sets; of the unlabeled sets one has 7 rows and the last has 5.
    # A check per joint embedding would name one pair; the check up front names all.
    rng = np.random.default_rng(0)
    axis = np.linspace(0.0, 1.0, 3)
    records = [{"id": f"g{i}", "params": [a, b], "samples": rng.random((6, 3)).tolist()}
               for i, (a, b) in enumerate((a, b) for a in axis for b in axis)]
    records += [{"id": f"u{i}", "samples": rng.random((n, 3)).tolist()}
                for i, n in enumerate([6, 7, 6, 5])]
    data, out = tmp_path / "data.ndjson", tmp_path / "out.csv"
    write_ndjson(data, records)
    assert main([command, "--input", str(data), "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: sample sets differ in size: g0(n=6), u1(n=7), u3(n=5)\n"
    assert not out.exists()


def dim_fixture(tmp_path):
    """Noisy mean-sd sets on a 4 x 4 grid plus three unlabeled sets."""
    axis = np.linspace(0.0, 1.0, 4)
    grid = np.array([[a, b] for a in axis for b in axis])
    labeled = generate(GaussianFamilySpec(variant=FamilyVariant.MEAN_SD, grid=grid, n=30, seed=1))
    other = generate(GaussianFamilySpec(variant=FamilyVariant.MEAN_SD, grid=grid, n=30, seed=2))
    records = [{"id": s.id, "params": s.params.tolist(), "samples": s.samples.tolist()}
               for s in labeled.labeled]
    records += [{"id": f"u{i}", "samples": other.labeled[i].samples.tolist()}
                for i in (1, 5, 10)]
    path = tmp_path / "data.ndjson"
    write_ndjson(path, records)
    return path, tuple(s.id for s in labeled.labeled)


@pytest.mark.parametrize("mode", [["--leave-one-out"], []], ids=["loo", "unlabeled"])
@pytest.mark.parametrize("normalize", [["--normalize-params"], []], ids=["normalized", "raw"])
def test_recover_auto_dim_equals_the_dim_it_chose(tmp_path, capsys, mode, normalize):
    data, _ = dim_fixture(tmp_path)
    base = ["recover", "--input", str(data), "--metric", "w2", *mode, *normalize]
    auto, fixed = tmp_path / "auto.csv", tmp_path / "fixed.csv"
    assert main(base + ["--dim", "auto", "--output", str(auto)]) == 0
    note = capsys.readouterr().out.split()[1]
    assert note.startswith("dim=")
    assert main(base + ["--dim", note.removeprefix("dim="), "--output", str(fixed)]) == 0
    assert capsys.readouterr().out.split()[1:3] == [note, "sets=16" if mode else "sets=3"]
    assert auto.read_bytes() == fixed.read_bytes()


@pytest.mark.parametrize("mode, dim, expected", [
    (["--leave-one-out"], [], 1),
    (["--leave-one-out"], ["--dim", "2"], 1),
    (["--leave-one-out"], ["--dim", "auto"], 1),
    ([], [], 0),
    ([], ["--dim", "2"], 0),
    ([], ["--dim", "auto"], 1),
], ids=["loo", "loo-dim2", "loo-auto", "unlabeled", "unlabeled-dim2", "unlabeled-auto"])
def test_recover_builds_the_labeled_matrix_only_when_read(tmp_path, monkeypatch, mode, dim,
                                                          expected):
    # Only --dim auto and --leave-one-out read the labeled sets' own distances,
    # and they share one matrix.
    data, labeled_ids = dim_fixture(tmp_path)
    original, calls = distmirror.transport.distance_matrix, []

    def counted(sets, p=1):
        calls.append(tuple(s.id for s in sets) == labeled_ids)
        return original(sets, p)

    monkeypatch.setattr(distmirror.cli, "distance_matrix", counted)
    monkeypatch.setattr(distmirror.recovery, "distance_matrix", counted)
    assert main(["recover", "--input", str(data), "--metric", "w2", *mode, *dim,
                 "--output", str(tmp_path / "r.csv")]) == 0
    assert sum(calls) == expected


def test_recover_small_grid_interior_error_bound(tmp_path):
    # mean-sd family on a 5x5 grid at n=1000: the noiseless closed-form
    # pipeline floors the mean interior error at 0.0594 (coarse-grid
    # interpolation bias); the frozen bound adds sampling headroom
    axis = np.linspace(0.0, 1.0, 5)
    grid = np.array([[a, b] for a in axis for b in axis])
    ds = generate(GaussianFamilySpec(variant=FamilyVariant.MEAN_SD, grid=grid, n=1000, seed=0))
    data = tmp_path / "d.ndjson"
    save_dataset(ds, data, "ndjson")
    out = tmp_path / "report.csv"
    assert main(
        ["recover", "--input", str(data), "--metric", "w2", "--leave-one-out",
         "--output", str(out)]
    ) == 0
    rows = read_csv_rows(out)[1:]
    errors = []
    for r in rows:
        truth = np.array([float(r[1]), float(r[2])])
        x_hat = np.array([float(r[3]), float(r[4])])
        interior = 0.0 + 1e-9 < truth.min() and truth.max() < 1.0 - 1e-9
        if interior:
            errors.append(np.linalg.norm(truth - x_hat))
    assert len(errors) == 9
    assert np.mean(errors) < 0.09


def test_recover_normalize_params_round_trips_units(tmp_path):
    # heterogeneous axis scales: recovery in normalized coordinates must
    # report estimates back in raw units
    axis1 = np.linspace(10.0, 90.0, 3)
    axis2 = np.linspace(0.1, 0.9, 3)
    grid = np.array([[a, b] for a in axis1 for b in axis2])
    records = []
    for i, x in enumerate(grid):
        samples = np.tile([x[0] / 80.0, x[1], 0.0], (4, 1))
        records.append({"id": f"g{i}", "params": x.tolist(), "samples": samples.tolist()})
    records.append({"id": "u", "samples": records[4]["samples"]})
    data = tmp_path / "d.ndjson"
    write_ndjson(data, records)
    out = tmp_path / "report.csv"
    assert main(
        ["recover", "--input", str(data), "--metric", "w2", "--normalize-params",
         "--output", str(out)]
    ) == 0
    row = read_csv_rows(out)[1]
    x_hat = np.array([float(row[3]), float(row[4])])
    np.testing.assert_allclose(x_hat, grid[4], atol=1e-6)


def test_simulate_byte_identical_reruns(tmp_path):
    args = ["simulate", "--experiment", "mean-only", "--n-values", "10",
            "--seeds", "0,1"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--output-dir", str(out1)]) == 0
    assert main(args + ["--output-dir", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    assert files1 == ["manifest.txt", "mirror_error_curve.csv", "mirror_surface_n10.csv"]
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_mean_sd_outputs(tmp_path):
    out = tmp_path / "r"
    axis_n = "10,20"
    assert main(
        ["simulate", "--experiment", "mean-sd", "--n-values", axis_n, "--seed", "3",
         "--output-dir", str(out)]
    ) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.txt", "recovery_scatter_n10.csv", "recovery_scatter_n20.csv"]
    rows = read_csv_rows(out / "recovery_scatter_n10.csv")
    assert rows[0] == ["x1_true", "x2_true", "x1_hat", "x2_hat", "residual", "truth_on_boundary"]
    assert len(rows) == 101


@pytest.mark.parametrize(
    "experiment, flag", [("mean-sd", "--seeds=3,4"), ("mean-only", "--seed=7")]
)
def test_simulate_flag_of_other_study_is_usage_error(tmp_path, capsys, experiment, flag):
    out = tmp_path / "r"
    assert main(["simulate", "--experiment", experiment, flag, "--output-dir", str(out)]) == 2
    assert f"usage error: {flag.split('=')[0]} does not apply" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--n-values", ","], ["--seeds", ",", "--n-values", "10"]],
                         ids=["empty-n-values", "empty-seeds"])
def test_simulate_empty_list_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "r"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--experiment", "mean-only", *argv, "--output-dir", str(out)])
    assert exc.value.code == 2
    assert "expected a comma-separated integer list, got ','" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment, argv, message", [
    ("mean-only", ["--n-values", "10,10", "--seeds", "0"], "sample size 10 is given more than"),
    ("mean-only", ["--n-values", "10", "--seeds", "0,0"], "seed 0 is given more than once"),
    ("mean-sd", ["--n-values", "0"], "n must be an integer of at least 1, got 0"),
    # A seed outside the substream key's 64 bits would alias one inside them.
    ("mean-sd", ["--n-values", "10", "--seed", str(2**64)],
     f"seed must be an integer in [0, 2**64), got {2**64}"),
    ("mean-sd", ["--n-values", "10", "--seed=-1"], "seed must be an integer in [0, 2**64), got -1"),
    ("mean-only", ["--n-values", "10", "--seeds", f"0,{2**64}"],
     f"seed must be an integer in [0, 2**64), got {2**64}"),
], ids=["repeated-n", "repeated-seed", "zero-n", "seed-2**64", "seed-minus-1", "seeds-2**64"])
def test_simulate_bad_study_values_leave_no_output(tmp_path, capsys, experiment, argv, message):
    out = tmp_path / "r"
    assert main(["simulate", "--experiment", experiment, *argv, "--output-dir", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_file_pipeline_matches_in_process(tmp_path):
    # distmat | embed | fit | recover composed through files agrees with the
    # in-process pipeline within serialization tolerance
    rng = np.random.default_rng(77)
    axis = np.linspace(0.0, 1.0, 3)
    grid = np.array([[a, b] for a in axis for b in axis])
    records = []
    for i, x in enumerate(grid):
        base = np.array([x[0], x[1] * 2.0, 0.3])
        samples = base + 0.01 * rng.standard_normal((6, 3))
        records.append({"id": f"g{i}", "params": x.tolist(), "samples": samples.tolist()})
    data = tmp_path / "d.ndjson"
    write_ndjson(data, records)

    dm_path = tmp_path / "dm.csv"
    emb_path = tmp_path / "emb.csv"
    surf_path = tmp_path / "surface.csv"
    assert main(["distmat", "--input", str(data), "--metric", "w2", "--output", str(dm_path)]) == 0
    assert main(["embed", "--input", str(dm_path), "--dim", "2", "--output", str(emb_path)]) == 0
    ids, coords = read_embedding(emb_path)
    params_path = tmp_path / "params.csv"
    write_params_csv(ids, grid, params_path)
    assert main(
        ["fit", "--embedding", str(emb_path), "--params", str(params_path),
         "--grid-res", "5", "--output", str(surf_path)]
    ) == 0

    from distmirror.embedding import cmds
    from distmirror.surface import MirrorSurface, delaunay_triangulate, interpolate
    from distmirror.transport import distance_matrix

    ds = load_dataset(data)
    emb = cmds(distance_matrix(list(ds.all_sets), 2), 2)
    surf = MirrorSurface(delaunay_triangulate(grid), emb.coords)
    rows = np.array(read_csv_rows(surf_path)[1:], dtype=float)
    assert rows.shape == (25, 4)  # the 5 x 5 grid spans the parameters' hull
    np.testing.assert_allclose(rows[:, 2:], interpolate(surf, rows[:, :2]), atol=1e-9)


def test_hash_led_id_keeps_its_row_through_the_file_chain(tmp_path):
    # '#a' heads the distance matrix and leads a row of the embedding and of the
    # params table, after each header, where '#' starts an id and not a comment.
    axis = np.linspace(0.0, 1.0, 3)
    grid = np.array([[a, b] for a in axis for b in axis])
    sets = generate(GaussianFamilySpec(variant=FamilyVariant.MEAN_SD, grid=grid, n=20)).labeled
    ids = ["#a"] + [s.id for s in sets[1:]]
    data = tmp_path / "d.ndjson"
    write_ndjson(data, [{"id": i, "params": s.params.tolist(), "samples": s.samples.tolist()}
                        for i, s in zip(ids, sets)])
    dm, emb, params, tri = (tmp_path / f"{name}.csv" for name in ("dm", "emb", "params", "tri"))
    assert main(["distmat", "--input", str(data), "--metric", "w2", "--output", str(dm)]) == 0
    assert main(["embed", "--input", str(dm), "--dim", "2", "--output", str(emb)]) == 0
    assert read_embedding(emb)[0] == tuple(ids)
    write_params_csv(ids, grid, params)
    assert main(["fit", "--embedding", str(emb), "--params", str(params), "--grid-res", "3",
                 "--output", str(tmp_path / "surface.csv"), "--triangulation", str(tri)]) == 0
    points = [r for r in read_csv_rows(tri) if r[0] == "point"]
    assert len(points) == 9


@pytest.mark.parametrize("threads", ["two", "0", "-3"])
def test_bad_thread_count_is_usage_error(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setenv("MIRROR_THREADS", threads)
    code = main(
        ["simulate", "--experiment", "mean-sd", "--n-values", "10", "--seed", "0",
         "--output-dir", str(tmp_path / "r")]
    )
    assert code == 2
    assert "MIRROR_THREADS" in capsys.readouterr().err


def test_thread_count_ignored_where_no_pool_runs(tmp_path, monkeypatch):
    monkeypatch.setenv("MIRROR_THREADS", "two")
    emb, params, _ = identity_grid_fixture(tmp_path)
    out = tmp_path / "surface.csv"
    code = main(
        ["fit", "--embedding", str(emb), "--params", str(params),
         "--grid-res", "3", "--output", str(out)]
    )
    assert code == 0
