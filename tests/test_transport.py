import glob
import itertools
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import distmirror._parallel
from distmirror._parallel import worker_count
from distmirror.cli import main
from distmirror.core import Dataset, SampleSet, save_dataset
from distmirror.errors import MirrorError, UnequalSampleSizes
from distmirror.transport import (
    DistanceMatrix,
    cost_matrix,
    distance_matrix,
    read_distance_matrix,
    wasserstein_exact,
    write_distance_matrix,
)


def make(points, set_id="s"):
    return SampleSet(id=set_id, samples=np.atleast_2d(np.asarray(points, dtype=float)))


def brute_force_cost(a, b, p):
    """Factorial enumeration over all couplings; the independent oracle."""
    n = a.n
    best = np.inf
    for perm in itertools.permutations(range(n)):
        total = sum(
            np.linalg.norm(a.samples[i] - b.samples[perm[i]]) ** p for i in range(n)
        )
        best = min(best, (total / n) ** (1.0 / p))
    return best


@pytest.mark.parametrize("p", [0.5, np.nan, np.inf])
@pytest.mark.parametrize("entry", [
    lambda a, b, p: cost_matrix(a, b, p),
    lambda a, b, p: wasserstein_exact(a, b, p),
    lambda a, b, p: distance_matrix([a, b], p),
], ids=["cost_matrix", "wasserstein_exact", "distance_matrix"])
def test_order_outside_one_to_infinity_is_rejected(entry, p):
    # W_inf of these sets is 2, which no finite-order formula here computes.
    a, b = make([[0.0], [1.0], [5.0]], "a"), make([[0.5], [3.0], [4.0]], "b")
    with pytest.raises(ValueError, match="1 <= p < inf"):
        entry(a, b, p)


def test_cost_matrix_singletons():
    np.testing.assert_allclose(cost_matrix(make([[0.0]]), make([[3.0]]), 1), [[3.0]])


def test_cost_matrix_squared_distances():
    a = make([[0.0], [1.0]])
    b = make([[1.0], [2.0]])
    np.testing.assert_allclose(cost_matrix(a, b, 2), [[1.0, 4.0], [0.0, 1.0]])


def test_cost_matrix_zero_diagonal():
    a = make(np.arange(6, dtype=float).reshape(3, 2))
    np.testing.assert_array_equal(np.diagonal(cost_matrix(a, a, 1)), np.zeros(3))


def test_cost_matrix_dimension_mismatch():
    with pytest.raises(MirrorError):
        cost_matrix(make([[0.0]]), make([[0.0, 1.0]]), 1)


def test_wasserstein_singletons():
    assert wasserstein_exact(make([[0.0]]), make([[3.0]]), 1) == pytest.approx(3.0)


def test_wasserstein_two_points():
    # both pairings attain ( |0-1| + |1-2| ) / 2 = ( |0-2| + |1-1| ) / 2 = 1
    cost = wasserstein_exact(make([[0.0], [1.0]]), make([[1.0], [2.0]]), 1)
    assert cost == pytest.approx(1.0, abs=1e-12)


def test_wasserstein_self_distance_zero():
    rng = np.random.default_rng(3)
    a = make(rng.standard_normal((5, 3)))
    assert wasserstein_exact(a, a, 2) == pytest.approx(0.0, abs=1e-12)


def test_unequal_sizes_rejected():
    with pytest.raises(UnequalSampleSizes):
        wasserstein_exact(make([[0.0], [1.0]]), make([[0.0]]), 1)


def test_equal_sample_size_ok():
    a, b = (make(np.zeros((100, 2)) + i, f"s{i}") for i in range(2))
    assert wasserstein_exact(a, b, 1) == pytest.approx(np.sqrt(2))
    assert distance_matrix([a, b], 1).values[0, 1] == pytest.approx(np.sqrt(2))


def test_equal_sample_size_single_observation():
    a = make(np.ones((1, 1)), "a")
    assert wasserstein_exact(a, a, 1) == 0.0
    assert distance_matrix([a], 1).values.tolist() == [[0.0]]


def test_unequal_sample_sizes_lists_ids():
    # The first set, then every set whose n differs from it, in input order.
    a, b = make(np.zeros((100, 1)), "a"), make(np.zeros((99, 1)), "b")
    for call in (lambda: wasserstein_exact(a, b, 1), lambda: distance_matrix([a, b], 1)):
        with pytest.raises(UnequalSampleSizes, match=r"^sample sets differ in size: a\(n=100\), b\(n=99\)$"):
            call()
    sets = [make(np.zeros((n, 1)), name) for name, n in [("a", 5), ("b", 6), ("x", 5), ("c", 7)]]
    with pytest.raises(UnequalSampleSizes,
                       match=r"^sample sets differ in size: a\(n=5\), b\(n=6\), c\(n=7\)$"):
        distance_matrix(sets, 1)


def test_sets_of_another_dimension_or_none_rejected():
    a, b, c = make(np.zeros((2, 1)), "a"), make(np.zeros((2, 1)), "b"), make(np.zeros((3, 2)), "c")
    with pytest.raises(MirrorError, match=r"^sample dimension mismatch: 'a' has q=1, 'c' has q=2$"):
        distance_matrix([a, b, c], 1)
    with pytest.raises(MirrorError, match=r"^sample dimension mismatch: 'c' has q=2, 'a' has q=1$"):
        cost_matrix(c, a, 1)
    with pytest.raises(MirrorError, match=r"^distance_matrix requires at least one sample set$"):
        distance_matrix([], 1)


@pytest.mark.parametrize("p", [1, 2])
@given(q=st.integers(1, 3), n=st.integers(1, 6), data=st.data())
def test_matches_brute_force(p, q, n, data):
    # Samples on a small integer grid, so tied costs and tied samples occur.
    # The q = 1 entries of distance_matrix take their own sorted path.
    coords = st.lists(st.integers(-2, 2), min_size=n * q, max_size=n * q)
    a, b = (make(np.reshape(data.draw(coords), (n, q)), name) for name in "ab")
    expected = brute_force_cost(a, b, p)
    assert wasserstein_exact(a, b, p) == pytest.approx(expected, abs=1e-12)
    assert distance_matrix([a, b], p).values[0, 1] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_1d_fast_path_matches_assignment(p):
    rng = np.random.default_rng(23)
    from scipy.optimize import linear_sum_assignment

    for _ in range(20):
        n = int(rng.integers(2, 40))
        a = make(rng.standard_normal((n, 1)), "a")
        b = make(rng.standard_normal((n, 1)), "b")
        fast = wasserstein_exact(a, b, p)
        costs = cost_matrix(a, b, p)
        rows, cols = linear_sum_assignment(costs)
        slow = float(costs[rows, cols].mean() ** (1.0 / p))
        assert fast == pytest.approx(slow, abs=1e-12)


def test_large_sample_gaussian_w1():
    # population W1 between equal-variance normals is |mu1 - mu2|
    rng = np.random.default_rng(42)
    a = make(rng.normal(0.0, 1.0, (5000, 1)), "a")
    b = make(rng.normal(2.0, 1.0, (5000, 1)), "b")
    w = wasserstein_exact(a, b, 1)
    assert abs(w - 2.0) / 2.0 < 0.05


def test_distance_matrix_single_set():
    dm = distance_matrix([make([[0.0]], "a")], 1)
    np.testing.assert_array_equal(dm.values, [[0.0]])


def test_distance_matrix_three_singletons():
    sets = [make([[0.0]], "a"), make([[1.0]], "b"), make([[3.0]], "c")]
    dm = distance_matrix(sets, 1)
    np.testing.assert_allclose(dm.values, [[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def test_distance_matrix_recomputation_oracle():
    rng = np.random.default_rng(19)
    sets = [make(rng.standard_normal((6, 2)), f"s{i}") for i in range(5)]
    for p in (1, 2):
        dm = distance_matrix(sets, p)
        assert np.array_equal(dm.values, dm.values.T)
        for i in range(5):
            for j in range(5):
                expect = 0.0 if i == j else wasserstein_exact(sets[i], sets[j], p)
                assert dm.values[i, j] == pytest.approx(expect, abs=1e-15)


def test_metric_axioms_on_sampled_triples():
    rng = np.random.default_rng(29)
    for p in (1, 2):
        sets = [make(rng.standard_normal((5, 2)), f"s{i}") for i in range(6)]
        dm = distance_matrix(sets, p).values
        assert np.all(dm >= 0)
        for i, j, k in itertools.permutations(range(6), 3):
            assert dm[i, j] <= dm[i, k] + dm[k, j] + 1e-9


def test_distance_matrix_thread_count_invariance(monkeypatch):
    rng = np.random.default_rng(31)
    for q in (1, 3):
        sets = [make(rng.standard_normal((30, q)), f"s{i}") for i in range(8)]
        monkeypatch.setenv("MIRROR_THREADS", "1")
        one = distance_matrix(sets, 2).values
        monkeypatch.setenv("MIRROR_THREADS", "4")
        four = distance_matrix(sets, 2).values
        assert one.tobytes() == four.tobytes()


def test_distance_matrix_q1_pairs_open_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was opened")

    monkeypatch.setattr(distmirror._parallel, "ThreadPoolExecutor", no_pool)
    monkeypatch.setenv("MIRROR_THREADS", "4")
    rng = np.random.default_rng(32)
    distance_matrix([make(rng.standard_normal((30, 1)), f"s{i}") for i in range(8)], 2)
    # Assignment pairs still go to the pool, so the patch is in force.
    with pytest.raises(AssertionError, match="thread pool"):
        distance_matrix([make(rng.standard_normal((5, 3)), f"s{i}") for i in range(3)], 2)


@pytest.mark.parametrize("p", [1, 2])
def test_distance_matrix_q1_holds_no_second_copy(p):
    # The sets are read as held: a sorted copy of each would double their bytes.
    rng = np.random.default_rng(33)
    sets = [make(rng.standard_normal((20_000, 1)) + i, f"s{i}") for i in range(20)]
    tracemalloc.start()
    try:
        distance_matrix(sets, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(s.samples.nbytes for s in sets) / 4


@pytest.mark.parametrize("q", [1, 2])
def test_overflowing_cost_is_inf_without_a_warning(q):
    # At q = 2 every assignment costs inf, so scipy finds no finite solution.
    rng = np.random.default_rng(5)
    a, b = (make(rng.standard_normal((5, q)) * 1e160, name) for name in "ab")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert wasserstein_exact(a, b, 2) == np.inf
    assert not caught


@pytest.mark.parametrize("q, scale", [(1, 1e160), (2, 1e160), (2, 6e153)],
                         ids=["q1-gaps-overflow", "q2-no-finite-assignment", "q2-mean-overflows"])
def test_overflowing_cost_is_an_error_naming_its_pair(tmp_path, capsys, q, scale):
    # Gaps near 1e160 square to inf, so at q = 2 every assignment costs inf.  Near
    # 6e153 a finite assignment exists, but the mean of its costs overflows.
    rng = np.random.default_rng(5)
    sets = [SampleSet(id=f"s{i}", samples=rng.standard_normal((5, q)) * scale, params=[i])
            for i in range(4)]
    path = tmp_path / "huge.ndjson"
    save_dataset(Dataset(tuple(sets)), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["distmat", "--input", str(path), "--metric", "w2",
                     "--output", str(tmp_path / "dm.csv")])
    err = capsys.readouterr().err
    assert code == 1 and not caught
    assert err.count("error:") == 1 and "'s0' and 's1'" in err and "Traceback" not in err


def tiny_sets(q):
    rng = np.random.default_rng(7)
    return [SampleSet(id=f"s{i}", samples=rng.standard_normal((3, q)) * 1e-170, params=[i])
            for i in range(3)]


def test_underflowing_cost_is_an_error_naming_its_pair(tmp_path, capsys):
    # Gaps near 1e-170 square to 0, so every W2 cost is 0 while W1 costs are not.
    path = tmp_path / "tiny.ndjson"
    save_dataset(Dataset(tuple(tiny_sets(1))), path)
    argv = ["distmat", "--input", str(path), "--output", str(tmp_path / "dm.csv"), "--metric"]
    assert main(argv + ["w1"]) == 0
    assert (read_distance_matrix(tmp_path / "dm.csv").values[np.triu_indices(3, 1)] > 0).all()
    capsys.readouterr()
    assert main(argv + ["w2"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "'s0' and 's1' underflows to zero" in err


def test_underflowing_assignment_cost_is_an_error_naming_its_pair():
    with pytest.raises(MirrorError, match="W2 cost of 's0' and 's1' underflows to zero"):
        distance_matrix(tiny_sets(3), 2)


@pytest.mark.parametrize("q", [1, 3])
def test_sets_equal_as_multisets_are_at_zero(q):
    rng = np.random.default_rng(8)
    samples = rng.standard_normal((6, q))
    sets = [make(samples, "a"), make(samples[::-1], "b"), make(samples + 1.0, "c")]
    values = distance_matrix(sets, 2).values
    assert values[0, 1] == 0 and values[0, 2] > 0


@pytest.mark.parametrize("command", [["embed", "--dim", "1"], ["diagnose"]])
def test_distances_whose_squares_overflow_are_an_error(tmp_path, capsys, command):
    path = tmp_path / "dm.csv"
    path.write_text("a,b\n0,1e308\n1e308,0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command[0], "--input", str(path), "--output", str(tmp_path / "out.csv"),
                     *command[1:]])
    err = capsys.readouterr().err
    assert code == 1 and not caught
    assert err.count("error:") == 1 and "squared distances overflow" in err


@pytest.mark.parametrize("affinity, cpus, expected", [({0}, 8, 1), (None, 3, 3), (None, None, 1)])
def test_worker_count_reads_cpu_affinity(monkeypatch, affinity, cpus, expected):
    monkeypatch.delenv("MIRROR_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    assert worker_count() == expected


# Run in a fresh process: set numpy's OpenBLAS to 2 threads, optionally hide the
# library from distmirror's lookup, import distmirror, print the count in force.
BLAS_PROBE = """
import ctypes, glob, os, pathlib, sys
import numpy
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))[0])
lib.scipy_openblas_set_num_threads64_(2)
if sys.argv[1] == "hidden":
    pathlib.Path.glob = lambda self, pattern: iter(())
import distmirror
print(lib.scipy_openblas_get_num_threads64_())
"""


def blas_env(case):
    """This checkout on the path, and no BLAS thread count but the one a "named" case names."""
    src = os.path.dirname(os.path.dirname(distmirror._parallel.__file__))
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    return {**base, "PYTHONPATH": src, **({"OPENBLAS_NUM_THREADS": "2"} if case == "named" else {})}


@pytest.mark.parametrize("case, expected", [("default", 1), ("named", 2), ("hidden", 2)])
def test_import_caps_numpy_blas_threads(case, expected):
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    if not glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        pytest.skip("numpy has no bundled OpenBLAS")
    out = subprocess.run([sys.executable, "-c", BLAS_PROBE, case], capture_output=True,
                         text=True, check=True, timeout=120, env=blas_env(case))
    assert int(out.stdout) == expected


# Run in a fresh process: import distmirror, then load scipy's bundled OpenBLAS
# through scipy.linalg and print the thread count it started with.
SCIPY_BLAS_PROBE = """
import ctypes, glob, os
import distmirror
import scipy, scipy.linalg
libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")
lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas-*.so"))[0])
print(lib.scipy_openblas_get_num_threads())
"""


@pytest.mark.parametrize("case, expected", [("default", 1), ("named", 2)])
def test_scipy_openblas_starts_with_one_thread(case, expected):
    import scipy

    libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")
    if not glob.glob(os.path.join(libs, "libscipy_openblas-*.so")):
        pytest.skip("scipy has no bundled OpenBLAS")
    out = subprocess.run([sys.executable, "-c", SCIPY_BLAS_PROBE], capture_output=True,
                         text=True, check=True, timeout=120, env=blas_env(case))
    assert int(out.stdout) == expected


def run_probe(code, *args, threads="1"):
    """Run ``code`` in a fresh process on this checkout; return its stdout lines."""
    src = os.path.dirname(os.path.dirname(distmirror._parallel.__file__))
    out = subprocess.run([sys.executable, "-c", PROBE_HEAD + code, *map(str, args)],
                         capture_output=True, text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src, "MIRROR_THREADS": threads})
    return out.stdout.splitlines()


# Shared by every probe: the scipy modules loaded so far.
PROBE_HEAD = """
import sys
import numpy as np
scipy_loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""

# Import the CLI, then run distmat, embed and diagnose on q = 1 data through main.
Q1_CLI_PROBE = """
import contextlib, io, pathlib
from distmirror.cli import main
print(scipy_loaded())
from distmirror.core import Dataset, SampleSet, save_dataset
tmp = pathlib.Path(sys.argv[1])
rng = np.random.default_rng(0)
save_dataset(Dataset(tuple(
    SampleSet(id=f"s{k}", samples=rng.standard_normal((20, 1)) + k, params=[float(k)])
    for k in range(6))), tmp / "d.ndjson")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["distmat", "--input", str(tmp / "d.ndjson"), "--output", str(tmp / "dm.csv")]),
             main(["embed", "--input", str(tmp / "dm.csv"), "--output", str(tmp / "e.csv")]),
             main(["diagnose", "--input", str(tmp / "dm.csv")])]
print(codes, scipy_loaded())
"""


def test_import_loads_no_assignment_module(tmp_path):
    # No scipy module at all: q = 1 distances, embedding and diagnostics run on numpy alone.
    assert run_probe(Q1_CLI_PROBE, tmp_path) == ["[]", "[0, 0, 0] []"]


# Each first use of a scipy-backed path, alone in a fresh process.
FIRST_USE = {
    "q3-distance-matrix": ("""
from distmirror import SampleSet, distance_matrix
rng = np.random.default_rng(0)
dm = distance_matrix([SampleSet(id=str(k), samples=rng.standard_normal((8, 3))) for k in range(3)], 2)
print(bool(np.all(dm.values[~np.eye(3, dtype=bool)] > 0)))
""", ["scipy.optimize", "scipy.spatial"]),
    "d2-triangulation": ("""
from distmirror import delaunay_triangulate
grid = np.array([[a, b] for a in range(5) for b in range(5)], dtype=float)
print(len(delaunay_triangulate(grid).simplices) == 32)
""", ["scipy.spatial"]),
    "generate": ("""
from distmirror import FamilyVariant, GaussianFamilySpec, generate
ds = generate(GaussianFamilySpec(variant=FamilyVariant.MEAN_SD, n=10, seed=0))
print(ds.m == 100)
""", ["scipy.special"]),
}


@pytest.mark.parametrize("case", FIRST_USE)
def test_scipy_package_loads_on_first_use(case):
    code, packages = FIRST_USE[case]
    probe = f"""
import distmirror.cli
print(scipy_loaded())
{code}
print([p for p in {packages!r} if p in sys.modules])
"""
    assert run_probe(probe) == ["[]", "True", str(packages)]


# Take the first q > 1 assignment and the first simulated draws inside pool
# workers, then print a digest of each result.
POOL_FIRST_USE_PROBE = """
import hashlib
from distmirror import (FamilyVariant, GaussianFamilySpec, SampleSet, distance_matrix,
                        generate)
ds = generate(GaussianFamilySpec(variant=FamilyVariant.MEAN_ONLY, n=30, seed=2))
rng = np.random.default_rng(1)
dm = distance_matrix([SampleSet(id=str(k), samples=rng.standard_normal((12, 3)))
                      for k in range(8)], 1)
digest = hashlib.sha256(dm.values.tobytes())
for s in ds.labeled:
    digest.update(s.samples.tobytes())
print(digest.hexdigest())
"""


def test_first_scipy_use_in_pool_threads_matches_serial():
    assert run_probe(POOL_FIRST_USE_PROBE, threads="2") == run_probe(POOL_FIRST_USE_PROBE)


def test_distance_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(37)
    # Ids that need quoting, including a lone carriage return, and ids whose
    # surrounding spaces are part of the id.
    ids = ["s0", "a,b", 'say "hi"', "line\rbreak", " lead", "trail "]
    sets = [make(rng.standard_normal((4, 2)), i) for i in ids]
    dm = distance_matrix(sets, 1)
    path = tmp_path / "dm.csv"
    write_distance_matrix(dm, path)
    back = read_distance_matrix(path)
    assert back.ids == dm.ids
    np.testing.assert_array_equal(back.values, dm.values)


@st.composite
def distance_matrices(draw):
    """Finite symmetric nonnegative matrices, entries from subnormal up to 1.7e308, any ids."""
    ids = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=5, unique=True)
               .filter(lambda ids: any(i.strip() for i in ids)))  # a blank header is skipped
    m = len(ids)
    entries = st.floats(0, 1.7e308) | st.sampled_from([5e-324, 1.5e-323, 2.2250738585072014e-308])
    values = np.zeros((m, m))
    rows, cols = np.triu_indices(m, 1)
    values[rows, cols] = values[cols, rows] = draw(arrays(np.float64, rows.size, elements=entries))
    return DistanceMatrix(ids=ids, values=values)


@given(distance_matrices())
def test_property_distance_matrix_csv_round_trip_is_bit_exact(dm):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dm.csv"
        write_distance_matrix(dm, path)
        back = read_distance_matrix(path)
    assert back.ids == dm.ids
    assert back.values.view(np.uint64).tolist() == dm.values.view(np.uint64).tolist()


@pytest.mark.parametrize("text, message", [
    ("a,b\n0,1e308\n1e308,0\n", None),
    ("a,b\n0,-1e308\n-1e308,0\n", r"negative entries, first d\('a', 'b'\) = -1e\+308$"),
    ("a,b\n0,1e308\n-1e308,0\n", "asymmetric"),
    ("a,b,c\n0,1,2\n1,0,-5e-324\n2,-5e-324,0\n",
     r"negative entries, first d\('b', 'c'\) = -5e-324$"),
], ids=["valid", "negative", "asymmetric", "negative-subnormal"])
def test_reader_takes_entries_near_the_float_limit_without_a_warning(tmp_path, text, message):
    path = tmp_path / "dm.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            assert read_distance_matrix(path).values.tolist() == [[0, 1e308], [1e308, 0]]
        else:
            with pytest.raises(MirrorError, match=message):
                read_distance_matrix(path)


@pytest.mark.parametrize("text, message", [
    ("a,b,c\n0,1,2\n1.5,0,3\n2,3,0\n",
     "matrix asymmetric beyond tolerance 1e-09, first d('a', 'b') = 1.0 != d('b', 'a') = 1.5"),
    ("a,b\n0.5,1\n1,0\n",
     "nonzero diagonal entry beyond tolerance 1e-09, first d('a', 'a') = 0.5"),
    ("a,b\n0,1e308\n-1e308,0\n",
     "matrix asymmetric beyond tolerance 1e-09, first d('a', 'b') = 1e+308 != d('b', 'a') = -1e+308"),
], ids=["asymmetric", "diagonal", "asymmetric-near-the-float-limit"])
def test_reader_errors_name_the_first_entry(tmp_path, capsys, text, message):
    path = tmp_path / "dm.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["embed", "--input", str(path), "--dim", "1", "--output", str(tmp_path / "e.csv")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_reader_symmetrizes_small_asymmetry(tmp_path):
    path = tmp_path / "dm.csv"
    path.write_text("a,b\n0.0,1.0000000001\n0.9999999999,0.0\n")
    dm = read_distance_matrix(path)
    assert dm.values[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert dm.values[0, 1] == dm.values[1, 0]


def test_reader_rejects_large_asymmetry(tmp_path):
    path = tmp_path / "dm.csv"
    path.write_text("a,b\n0.0,1.5\n1.0,0.0\n")
    with pytest.raises(MirrorError, match="asymmetric"):
        read_distance_matrix(path)


def test_distance_matrix_invariants_enforced():
    # Each error names the first offending entry in row-major order.
    for values, message in [
        ([[0.0, 1], [1, 0]], r"^distance matrix shape \(2, 2\) does not match 3 ids$"),
        ([[0.0, 1, 2], [1, 0, 3], [2, 4, 0]],
         r"not exactly symmetric, first d\('b', 'c'\) = 3.0 != d\('c', 'b'\) = 4.0$"),
        ([[0.0, 1, 2], [1, 0, -1], [2, -1, 0]], r"negative entries, first d\('b', 'c'\) = -1.0$"),
        ([[0.0, 1, 2], [1, 0, np.inf], [2, np.nan, 0]],
         r"non-finite entries, first d\('b', 'c'\) = inf$"),
        ([[0.0, 1, 2], [1, 0.5, 3], [2, 3, 1e-300]],
         r"nonzero diagonal, first d\('b', 'b'\) = 0.5$"),
    ]:
        with pytest.raises(MirrorError, match=message):
            DistanceMatrix(ids=("a", "b", "c"), values=np.array(values))
