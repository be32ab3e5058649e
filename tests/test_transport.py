import glob
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import distmirror._parallel
from distmirror._parallel import worker_count
from distmirror.core import SampleSet
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
    plan = wasserstein_exact(make([[0.0]]), make([[3.0]]), 1)
    assert plan.cost == pytest.approx(3.0)


def test_wasserstein_two_points():
    # both pairings attain ( |0-1| + |1-2| ) / 2 = ( |0-2| + |1-1| ) / 2 = 1
    plan = wasserstein_exact(make([[0.0], [1.0]]), make([[1.0], [2.0]]), 1)
    assert plan.cost == pytest.approx(1.0, abs=1e-12)


def test_wasserstein_self_distance_zero():
    rng = np.random.default_rng(3)
    a = make(rng.standard_normal((5, 3)))
    plan = wasserstein_exact(a, a, 2)
    assert plan.cost == pytest.approx(0.0, abs=1e-12)


def test_unequal_sizes_rejected():
    with pytest.raises(UnequalSampleSizes):
        wasserstein_exact(make([[0.0], [1.0]]), make([[0.0]]), 1)


@pytest.mark.parametrize("p", [1, 2])
@given(q=st.integers(1, 3), n=st.integers(1, 6), data=st.data())
def test_matches_brute_force(p, q, n, data):
    # Samples on a small integer grid, so tied costs and tied samples occur.
    # The q = 1 entries of distance_matrix take their own sorted path.
    coords = st.lists(st.integers(-2, 2), min_size=n * q, max_size=n * q)
    a, b = (make(np.reshape(data.draw(coords), (n, q)), name) for name in "ab")
    expected = brute_force_cost(a, b, p)
    assert wasserstein_exact(a, b, p).cost == pytest.approx(expected, abs=1e-12)
    assert distance_matrix([a, b], p).values[0, 1] == pytest.approx(expected, abs=1e-12)


def test_plan_permutation_attains_cost():
    rng = np.random.default_rng(7)
    for p in (1, 2, 1.5):
        a = make(rng.standard_normal((8, 2)), "a")
        b = make(rng.standard_normal((8, 2)), "b")
        plan = wasserstein_exact(a, b, p)
        perm = plan.permutation
        assert sorted(perm) == list(range(8))
        recomputed = (
            np.mean(
                np.linalg.norm(a.samples - b.samples[perm], axis=1) ** p
            )
            ** (1.0 / p)
        )
        assert plan.cost == pytest.approx(recomputed, abs=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_1d_fast_path_matches_assignment(p):
    rng = np.random.default_rng(23)
    from scipy.optimize import linear_sum_assignment

    for _ in range(20):
        n = int(rng.integers(2, 40))
        a = make(rng.standard_normal((n, 1)), "a")
        b = make(rng.standard_normal((n, 1)), "b")
        fast = wasserstein_exact(a, b, p).cost
        costs = cost_matrix(a, b, p)
        rows, cols = linear_sum_assignment(costs)
        slow = float(costs[rows, cols].mean() ** (1.0 / p))
        assert fast == pytest.approx(slow, abs=1e-12)


def test_large_sample_gaussian_w1():
    # population W1 between equal-variance normals is |mu1 - mu2|
    rng = np.random.default_rng(42)
    a = make(rng.normal(0.0, 1.0, (5000, 1)), "a")
    b = make(rng.normal(2.0, 1.0, (5000, 1)), "b")
    w = wasserstein_exact(a, b, 1).cost
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
                expect = 0.0 if i == j else wasserstein_exact(sets[i], sets[j], p).cost
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
save_dataset(Dataset(labeled=tuple(
    SampleSet(id=f"s{k}", samples=rng.standard_normal((20, 1)) + k, params=[float(k)])
    for k in range(6))), tmp / "d.ndjson")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["distmat", "--input", str(tmp / "d.ndjson"), "--output", str(tmp / "dm.csv")]),
             main(["embed", "--input", str(tmp / "dm.csv"), "--output", str(tmp / "e.csv")]),
             main(["diagnose", "--input", str(tmp / "dm.csv")])]
print(codes, scipy_loaded())
"""


def test_import_loads_no_assignment_or_spline_module(tmp_path):
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
    "spline-fit": ("""
from distmirror import evaluate_bspline, fit_bspline
grid = np.array([[a, b] for a in range(5) for b in range(5)], dtype=float)
print(evaluate_bspline(fit_bspline(grid, grid * 2.0), [1.5, 2.5]).shape == (2,))
""", ["scipy.interpolate", "scipy.linalg"]),
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
    with pytest.raises(MirrorError):
        DistanceMatrix(ids=("a", "b"), values=np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(MirrorError):
        DistanceMatrix(ids=("a", "b"), values=np.array([[0.0, -1.0], [-1.0, 0.0]]))
