import csv
import json
import warnings

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
    ("--degree", "1_0", "an integer"),
    ("--knots", "\u00a03", "an integer"),
    ("--penalty", "1_0.5", "a number"),
    ("--penalty", "\u0661e-2", "a number"),
    ("--penalty", "x", "a number"),
], ids=["seed-arabic-indic", "seed-underscore", "grid-res-fullwidth", "degree-underscore",
        "knots-nbsp", "penalty-underscore", "penalty-arabic-indic", "penalty-word"])
def test_number_option_outside_ascii_decimal_is_usage_error(tmp_path, capsys, option, text, noun):
    # Python's int and float read these as numbers; the options take ASCII decimals only.
    command = (["simulate", "--experiment", "mean-sd", "--output-dir", str(tmp_path / "o")]
               if option == "--seed" else
               ["fit", "--embedding", "e.csv", "--params", "p.csv", "--output", "o.csv",
                "--method", "bspline"])
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
         "--method", "delaunay", "--grid-res", "3", "--output", str(out),
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


def test_fit_bspline_constant(tmp_path):
    axis = np.linspace(0.0, 1.0, 5)
    grid = np.array([[a, b] for a in axis for b in axis])
    ids = tuple(f"g{i}" for i in range(len(grid)))
    emb = tmp_path / "emb.csv"
    with open(emb, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "y1"])
        for set_id in ids:
            writer.writerow([set_id, repr(4.25)])
    params = tmp_path / "params.csv"
    write_params_csv(ids, grid, params)
    out = tmp_path / "surface.csv"
    assert main(
        ["fit", "--embedding", str(emb), "--params", str(params),
         "--method", "bspline", "--grid-res", "4", "--output", str(out)]
    ) == 0
    rows = read_csv_rows(out)
    values = [float(r[2]) for r in rows[1:]]
    np.testing.assert_allclose(values, 4.25, atol=1e-7)


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


@pytest.mark.parametrize("flag", ["--method=bspline", "--normalize-params"])
def test_fit_triangulation_export_in_params_units(tmp_path, flag):
    # The exported vertices are the raw parameters, whichever surface is fitted.
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
        ["fit", "--embedding", str(emb), "--params", str(params), flag, "--grid-res", "3",
         "--output", str(tmp_path / "surface.csv"), "--triangulation", str(tri_out)]
    ) == 0
    rows = read_csv_rows(tri_out)
    assert rows[0] == ["section", "index", "c1", "c2", "c3"]
    points = np.array([[float(v) for v in r[2:4]] for r in rows[1:] if r[0] == "point"])
    simplices = np.array([[int(v) for v in r[2:]] for r in rows[1:] if r[0] == "simplex"])
    np.testing.assert_array_equal(points, grid)
    work = fit_axis_scaling(grid).transform(grid) if flag == "--normalize-params" else grid
    np.testing.assert_array_equal(simplices, delaunay_triangulate(work).simplices)


@pytest.mark.parametrize("penalty", ["nan", "inf"])
def test_fit_bspline_non_finite_penalty_is_error(tmp_path, capsys, penalty):
    emb, params, _ = identity_grid_fixture(tmp_path, k=5)
    out = tmp_path / "surface.csv"
    assert main(
        ["fit", "--embedding", str(emb), "--params", str(params), "--method", "bspline",
         "--penalty", penalty, "--output", str(out)]
    ) == 1
    assert f"error: invalid spline config: BSplineConfig(degree=3, interior_knots=8, " \
        f"penalty={penalty})" in capsys.readouterr().err
    assert not out.exists()


def test_fit_bspline_ill_conditioned_system_is_error(tmp_path, capsys):
    # Nearly an equilateral triangle about its centre: the degree-1 normal matrix
    # has rcond ~1e-18.  Rounding the points to (-0.5, +-0.8660254037844386)
    # makes it exactly singular, which was already an error.
    emb, params = tmp_path / "emb.csv", tmp_path / "params.csv"
    emb.write_text("id,y1\na,0.0\nb,1.0\nc,2.0\nd,3.0\n")
    write_params_csv(("a", "b", "c", "d"), np.array(
        [[1.0, 0.0], [-0.4999999999999998, 0.8660254037844387],
         [-0.5000000000000004, -0.8660254037844384], [0.0, 0.0]]), params)
    out = tmp_path / "surface.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["fit", "--embedding", str(emb), "--params", str(params), "--method",
                     "bspline", "--degree", "1", "--knots", "2", "--output", str(out)]) == 1
    assert not caught
    assert capsys.readouterr().err == ("error: singular spline system; "
                                       "data may be too sparse for the knot grid\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "options",
    [["--degree", "-5", "--penalty", "nan"], ["--knots", "4"], ["--penalty", "0.5"]],
    ids=["degree-penalty", "knots", "penalty"],
)
@pytest.mark.parametrize("method", [[], ["--method", "delaunay"]], ids=["default", "delaunay"])
def test_fit_spline_option_with_delaunay_is_usage_error(tmp_path, capsys, options, method):
    emb, params, _ = identity_grid_fixture(tmp_path)
    out = tmp_path / "surface.csv"
    assert main(
        ["fit", "--embedding", str(emb), "--params", str(params), *method, *options,
         "--output", str(out)]
    ) == 2
    assert "apply only to --method bspline" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "columns, method, message",
    [(3, "delaunay", "triangulation supports d in {1, 2}, got d=3"),
     (1, "bspline", "spline fitting requires d=2 parameter points")],
)
def test_fit_unsupported_dimension_reports_fitter_error(tmp_path, capsys, columns, method,
                                                       message):
    grid = np.random.default_rng(5).random((20, columns))
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
        ["fit", "--embedding", str(emb), "--params", str(params), "--method", method,
         "--output", str(out)]
    ) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


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
    ("mean-sd", ["--n-values", "0"], "n must be at least 1"),
], ids=["repeated-n", "repeated-seed", "zero-n"])
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
