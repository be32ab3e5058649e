import itertools
import os
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distmirror._parallel
from distmirror.core import Dataset, SampleSet
from distmirror.embedding import MirrorEmbedding, cmds, procrustes_align
from distmirror.errors import MirrorError
from distmirror.recovery import joint_embed, leave_one_out, recover_parameter
from distmirror.sim import FamilyVariant, GaussianFamilySpec, generate
from distmirror.surface import (
    MirrorSurface,
    delaunay_triangulate,
    hull_boundary_distance,
    interpolate,
)
from distmirror.transport import distance_matrix


def identity_embedding(grid, target):
    """Embedding whose mirror values equal the parameters themselves."""
    coords = np.vstack([grid, np.atleast_2d(target)])
    m = len(coords)
    return MirrorEmbedding(
        ids=tuple(f"s{i}" for i in range(m)),
        coords=coords,
        spectrum=np.zeros(m),
    )


def unit_grid(k):
    axis = np.linspace(0.0, 1.0, k)
    return np.array([[a, b] for a in axis for b in axis])


def gaussian_sets(rng, params_list, n=20, labeled=True):
    sets = []
    for i, mu in enumerate(params_list):
        samples = rng.normal(float(np.sum(mu)), 1.0, (n, 1))
        sets.append(
            SampleSet(
                id=f"g{i}",
                samples=samples,
                params=np.asarray(mu, dtype=float) if labeled else None,
            )
        )
    return sets


# ---------------------------------------------------------------------------
# joint embedding
# ---------------------------------------------------------------------------


def test_joint_embed_duplicate_tracks_labeled_row():
    rng = np.random.default_rng(50)
    labeled = gaussian_sets(rng, [[0.0, 0], [1, 0], [0, 1], [1, 1]])
    clone = SampleSet(id="u", samples=labeled[2].samples)
    psi = joint_embed(labeled, clone, p=1, c=2)
    np.testing.assert_allclose(psi.coords[-1], psi.coords[2], atol=1e-9)


def test_joint_embed_collinear_midpoint():
    labeled = [
        SampleSet(id="a", samples=np.array([[0.0]]), params=np.array([0.0])),
        SampleSet(id="b", samples=np.array([[2.0]]), params=np.array([2.0])),
    ]
    unlabeled = SampleSet(id="u", samples=np.array([[1.0]]))
    psi = joint_embed(labeled, unlabeled, p=1, c=1)
    y = psi.coords[:, 0]
    assert y[2] == pytest.approx((y[0] + y[1]) / 2, abs=1e-10)


def test_joint_embed_rejects_labeled_extra():
    labeled = [
        SampleSet(id="a", samples=np.array([[0.0]]), params=np.array([0.0])),
    ]
    with pytest.raises(MirrorError):
        joint_embed(labeled, labeled[0], p=1, c=1)


def test_joint_embed_matches_direct_cmds():
    rng = np.random.default_rng(51)
    labeled = gaussian_sets(rng, [[0.0, 0], [1, 0], [0, 1]])
    unl = SampleSet(id="u", samples=rng.normal(0.5, 1.0, (20, 1)))
    psi = joint_embed(labeled, unl, p=2, c=2)
    dm = distance_matrix(labeled + [unl], 2)
    np.testing.assert_array_equal(psi.coords, cmds(dm, 2).coords)


# ---------------------------------------------------------------------------
# recover_parameter
# ---------------------------------------------------------------------------


def test_identity_mirror_interior_point():
    grid = unit_grid(5)
    rec = recover_parameter(identity_embedding(grid, [0.4, 0.7]), grid)
    np.testing.assert_allclose(rec.x_hat, [0.4, 0.7], atol=1e-12)
    assert rec.residual == pytest.approx(0.0, abs=1e-12)
    assert not rec.on_boundary


def project_to_polygon(poly, x):
    """Brute projection oracle: nearest point over all polygon edges."""
    best, best_d = None, np.inf
    for k in range(len(poly)):
        a, b = poly[k], poly[(k + 1) % len(poly)]
        t = np.clip((x - a) @ (b - a) / ((b - a) @ (b - a)), 0, 1)
        p = a + t * (b - a)
        dist = np.linalg.norm(x - p)
        if dist < best_d:
            best, best_d = p, dist
    return best, best_d


def test_identity_mirror_outside_projects_to_hull():
    grid = unit_grid(5)
    rng = np.random.default_rng(52)
    tri = delaunay_triangulate(grid)
    poly = grid[tri.hull]
    for _ in range(10):
        target = rng.uniform(-1, 2, size=2)
        if 0 <= target[0] <= 1 and 0 <= target[1] <= 1:
            continue
        rec = recover_parameter(identity_embedding(grid, target), grid)
        expect, expect_d = project_to_polygon(poly, target)
        np.testing.assert_allclose(rec.x_hat, expect, atol=1e-9)
        assert rec.residual == pytest.approx(expect_d, abs=1e-9)
        assert rec.on_boundary


UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
WIDE_TRIANGLE = [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize(
    "shape, scale",
    [(UNIT_SQUARE, 1e-200), (UNIT_SQUARE, 1.0), (UNIT_SQUARE, 1e160), (UNIT_SQUARE, 1e300),
     (WIDE_TRIANGLE, 1e308)],
)
def test_boundary_flags_and_distances_do_not_depend_on_scale(shape, scale):
    unit = np.array(shape)
    params = unit * scale
    tri = delaunay_triangulate(params)
    # (0.25, 0.25) lies 0.25 from the bottom edge of both shapes, farther from the rest.
    (dist,) = hull_boundary_distance(tri, np.array([[0.25, 0.25]]) * scale)
    assert dist / scale == pytest.approx(0.25, rel=1e-12)
    # Mirror values stay at unit scale, so only the parameters are scaled.
    assert recover_parameter(identity_embedding(unit, [0.25, -1.0]), params).on_boundary
    assert not recover_parameter(identity_embedding(unit, [0.25, 0.5]), params).on_boundary


def test_residual_bounded_by_vertices():
    rng = np.random.default_rng(53)
    grid = unit_grid(4)
    values = rng.standard_normal((16, 2))
    target = rng.standard_normal(2)
    psi = MirrorEmbedding(
        ids=tuple(f"s{i}" for i in range(17)),
        coords=np.vstack([values, target[None, :]]),
        spectrum=np.zeros(17),
    )
    rec = recover_parameter(psi, grid)
    vertex_best = min(np.linalg.norm(values - target, axis=1))
    assert rec.residual <= vertex_best + 1e-12


@st.composite
def recovery_problems(draw):
    """A jittered lattice, random vertex values in R^c and a random target."""
    k, c = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    jitter = draw(st.sampled_from([0.0, 1e-9, 0.05, 0.2])) / k
    grid = unit_grid(k) + jitter * rng.uniform(-1, 1, (k * k, 2))
    values = rng.standard_normal((k * k, c))
    target = draw(st.sampled_from([0.1, 1.0, 3.0])) * rng.standard_normal(c)
    return grid, values, target


def embedding_of(values, target):
    coords = np.vstack([values, target[None, :]])
    m = len(coords)
    return MirrorEmbedding(ids=tuple(f"s{i}" for i in range(m)), coords=coords,
                           spectrum=np.zeros(m))


@given(recovery_problems())
def test_global_minimum_against_random_probes(problem):
    # Oracle: the residual at a dense lattice of barycentric probes in every simplex.
    grid, values, target = problem
    rec = recover_parameter(embedding_of(values, target), grid)
    tri = delaunay_triangulate(grid)
    res = 12
    weights = np.array([(i, j, res - i - j) for i in range(res + 1)
                        for j in range(res + 1 - i)]) / res
    probes = np.einsum("pv,kvc->kpc", weights, values[tri.simplices])
    assert rec.residual <= np.linalg.norm(probes - target, axis=2).min() + 1e-9
    (at_x_hat,) = interpolate(MirrorSurface(tri, values), rec.x_hat[None])
    assert np.isfinite(at_x_hat).all()
    assert rec.residual == pytest.approx(np.linalg.norm(at_x_hat - target), abs=1e-9)


def test_isometry_equivariance():
    rng = np.random.default_rng(55)
    grid = unit_grid(4)
    values = rng.standard_normal((16, 2))
    target = 0.2 * rng.standard_normal(2)
    coords = np.vstack([values, target[None, :]])
    theta = 1.1
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = coords @ rot.T + np.array([3.0, -1.0])
    ids = tuple(f"s{i}" for i in range(17))
    rec_a = recover_parameter(
        MirrorEmbedding(ids=ids, coords=coords, spectrum=np.zeros(17)), grid
    )
    rec_b = recover_parameter(
        MirrorEmbedding(ids=ids, coords=moved, spectrum=np.zeros(17)), grid
    )
    np.testing.assert_allclose(rec_a.x_hat, rec_b.x_hat, atol=1e-9)


def test_tie_break_deterministic():
    # all mirror values identical: every hull point attains residual zero,
    # so the tie-break (lowest simplex, lexicographically smallest point) decides
    grid = unit_grid(3)
    coords = np.zeros((10, 2))
    psi = MirrorEmbedding(
        ids=tuple(f"s{i}" for i in range(10)), coords=coords, spectrum=np.zeros(10)
    )
    rec1 = recover_parameter(psi, grid)
    rec2 = recover_parameter(psi, grid)
    np.testing.assert_array_equal(rec1.x_hat, rec2.x_hat)
    assert rec1.residual == 0.0


def test_tie_break_prefers_lowest_simplex_then_smallest_x():
    # Points 0 = (1, 1), 3 = (0.5, 1) and 8 = (0, 0) all match the target
    # exactly.  Simplex 0 is (0, 3, 4), so the lowest simplex rules out point
    # 8, the lexicographically smallest of the three, and x then picks point 3.
    axis = np.linspace(0.0, 1.0, 3)
    grid = np.array([[a, b] for a in axis for b in axis])[::-1]
    values = np.ones((9, 1))
    values[[0, 3, 8]] = 0.0
    rec = recover_parameter(embedding_of(values, np.zeros(1)), grid)
    assert delaunay_triangulate(grid).simplices[0].tolist() == [0, 3, 4]
    np.testing.assert_array_equal(rec.x_hat, [0.5, 1.0])
    assert rec.residual == 0.0


# ---------------------------------------------------------------------------
# leave-one-out
# ---------------------------------------------------------------------------


def test_leave_one_out_matches_naive_pipeline():
    rng = np.random.default_rng(56)
    grid = unit_grid(3)
    ds = Dataset(labeled=tuple(gaussian_sets(rng, grid, n=15)))
    fast = leave_one_out(distance_matrix(ds.labeled, p=2), ds.params_matrix(), c=2)
    for i in (0, 4, 8):
        rest = [s for j, s in enumerate(ds.labeled) if j != i]
        held = SampleSet(id="u", samples=ds.labeled[i].samples)
        psi = joint_embed(rest, held, p=2, c=2)
        naive = recover_parameter(psi, np.delete(ds.params_matrix(), i, axis=0))
        rec = fast[i]
        np.testing.assert_allclose(rec.x_hat, naive.x_hat, atol=1e-12)
        assert rec.residual == pytest.approx(naive.residual, abs=1e-12)


def test_leave_one_out_identity_mirror_interior_exact():
    # point-mass samples at an isometric image of the parameters make the
    # embedding exact, so interior points recover exactly
    grid = unit_grid(3)
    sets = tuple(
        SampleSet(id=f"g{i}", samples=np.tile(grid[i], (5, 1)), params=grid[i])
        for i in range(len(grid))
    )
    results = leave_one_out(distance_matrix(sets, p=2), grid, c=2)
    # the single interior point of the 3x3 grid
    np.testing.assert_allclose(results[4].x_hat, grid[4], atol=1e-8)


def test_leave_one_out_requires_enough_sets():
    rng = np.random.default_rng(57)
    ds = Dataset(labeled=tuple(gaussian_sets(rng, [[0.0, 0], [1, 0], [0, 1]])))
    with pytest.raises(MirrorError, match="d\\+3"):
        leave_one_out(distance_matrix(ds.labeled, p=1), ds.params_matrix(), c=2)


def test_leave_one_out_rejects_params_of_other_sets():
    rng = np.random.default_rng(58)
    grid = unit_grid(3)
    dm = distance_matrix(gaussian_sets(rng, grid), p=1)
    for params in (grid[:-1], grid[:, 0], np.vstack([grid, grid[:1]])):
        with pytest.raises(MirrorError, match="params must be an \\(9, d\\) matrix"):
            leave_one_out(dm, params, c=2)


@contextmanager
def blas_threads(count):
    """Set numpy's OpenBLAS thread count through ``_parallel``'s handle, then restore it."""
    lib = distmirror._parallel._OPENBLAS
    if lib is None:  # numpy without the bundled OpenBLAS: its count cannot be set
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(count)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


@st.composite
def jittered_grids(draw):
    """A k x k grid of [0, 1]^2 with each point moved by under a third of the spacing."""
    k = draw(st.integers(3, 6))
    seed = draw(st.integers(0, 2**16))
    offsets = np.random.default_rng(seed).uniform(-1.0, 1.0, (k * k, 2)) / (3 * (k - 1))
    grid = np.clip(unit_grid(k) + draw(st.floats(0.0, 1.0)) * offsets, 0.0, 1.0)
    return grid, seed


@settings(max_examples=10)
@given(jittered_grids())
def test_leave_one_out_thread_invariance(problem):
    # Identical bytes for every pool size and every BLAS thread count.
    grid, seed = problem
    ds = generate(GaussianFamilySpec(variant=FamilyVariant.MEAN_SD, grid=grid, n=10, seed=seed))
    runs = []
    for threads, blas in itertools.product(("1", "2", "4"), (1, 2)):
        with blas_threads(blas), mock.patch.dict(os.environ, {"MIRROR_THREADS": threads}):
            # The matrix is built here so the property covers transport as well.
            recs = leave_one_out(distance_matrix(ds.labeled, p=2), grid, c=2)
            runs.append([(rec.x_hat.tobytes(), rec.residual) for rec in recs])
    assert all(run == runs[0] for run in runs[1:])


def test_condition_diagnostics_shape_and_scale():
    from distmirror.recovery import recovery_condition_diagnostics

    grid = unit_grid(4)
    # identity mirror: every simplex Jacobian is the identity map
    psi = identity_embedding(grid, [0.5, 0.5])
    conds = recovery_condition_diagnostics(psi, grid)
    tri = delaunay_triangulate(grid)
    assert conds.shape == (tri.n_simplices,)
    np.testing.assert_allclose(conds, 1.0, atol=1e-9)


def test_small_scale_error_shrinks_with_n():
    grid = unit_grid(5)
    errors = {}
    for n in (10, 500):
        ds = generate(
            GaussianFamilySpec(variant=FamilyVariant.MEAN_SD, grid=grid, n=n, seed=3)
        )
        results = leave_one_out(distance_matrix(ds.labeled, p=2), grid, c=2)
        errors[n] = np.median(
            [np.linalg.norm(t - r.x_hat) for t, r in zip(grid, results)]
        )
    assert errors[500] < errors[10]
