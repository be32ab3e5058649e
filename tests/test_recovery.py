import itertools
import os
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distmirror._parallel
import distmirror.recovery as recovery
from distmirror.core import Dataset, SampleSet
from distmirror.embedding import MirrorEmbedding, cmds
from distmirror.errors import MirrorError
from distmirror.recovery import (joint_embed, leave_one_out, recover_parameter,
                                 write_recovery_report)
from distmirror.sim import (FamilyVariant, GaussianFamilySpec, generate, mean_sd_grid,
                            true_distance_matrix)
from distmirror.surface import (
    MirrorSurface,
    delaunay_triangulate,
    hull_boundary_distance,
    interpolate,
    jacobian_condition_numbers,
)
from distmirror.transport import DistanceMatrix, distance_matrix


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


def test_embedding_rows_must_be_one_more_than_the_parameters():
    grid = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MirrorError, match=r"^embedding has 3 rows; expected m\+1 = 4$"):
        recover_parameter(identity_embedding(grid[:2], [0.1, 0.1]), grid)


def test_empty_recovery_report_rejected(tmp_path):
    with pytest.raises(MirrorError, match=r"^no recovery results to write$"):
        write_recovery_report([], [], tmp_path / "report.csv")
    assert not (tmp_path / "report.csv").exists()


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


def brute_force_face(vvals, vpts, target, face):
    """Reference: the closed-form minimizer over one face of every simplex, solved
    alone, with its solvability threshold scaled to that face's largest Gram entry."""
    k = len(face)
    vals, pts = vvals[:, list(face), :], vpts[:, list(face), :]
    n_simplices = vvals.shape[0]
    if k == 1:
        weights = np.ones((n_simplices, 1))
        feasible = np.ones(n_simplices, dtype=bool)
    else:
        base = vals[:, 0, :]
        directions = vals[:, 1:, :] - base[:, None, :]
        rhs = target[None, :] - base
        gram = np.einsum("kic,kjc->kij", directions, directions)
        proj = np.einsum("kic,kc->ki", directions, rhs)
        if k == 2:
            g = gram[:, 0, 0]
            solvable = g > 1e-14 * np.maximum(g.max(initial=0.0), 1.0)
            mu = np.zeros((n_simplices, 1))
            np.divide(proj[:, 0], g, out=mu[:, 0], where=solvable)
        else:
            det = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] ** 2
            norm = gram[:, 0, 0] * gram[:, 1, 1]
            solvable = det > 1e-12 * np.maximum(norm, 1e-300)
            mu = np.zeros((n_simplices, 2))
            safe_det = np.where(solvable, det, 1.0)
            mu[:, 0] = (gram[:, 1, 1] * proj[:, 0] - gram[:, 0, 1] * proj[:, 1]) / safe_det
            mu[:, 1] = (gram[:, 0, 0] * proj[:, 1] - gram[:, 0, 1] * proj[:, 0]) / safe_det
        weights = np.concatenate([1.0 - mu.sum(axis=1, keepdims=True), mu], axis=1)
        feasible = solvable & (weights.min(axis=1) >= -recovery.FEASIBILITY_TOL)
        weights = np.clip(weights, 0.0, None)
        weights /= weights.sum(axis=1, keepdims=True)
    x = np.einsum("ki,kid->kd", weights, pts)
    diff = np.einsum("ki,kic->kc", weights, vals) - target[None, :]
    return feasible, x, np.einsum("kc,kc->k", diff, diff)


def brute_force_recovery(values, target, params):
    """Reference: every face of every simplex, then one lexsort of all feasible
    candidates by value, simplex and x_1..x_d."""
    tri = delaunay_triangulate(params)
    vvals, vpts = values[tri.simplices], tri.points[tri.simplices]
    faces = [f for r in range(1, tri.d + 2) for f in itertools.combinations(range(tri.d + 1), r)]
    feasible, x, value = (np.concatenate(parts) for parts in
                          zip(*(brute_force_face(vvals, vpts, target, f) for f in faces)))
    sids = np.tile(np.arange(tri.n_simplices), len(faces))[feasible]
    x, value = x[feasible], value[feasible]
    best = np.lexsort((*x.T[::-1], sids, value))[0]
    return x[best], np.sqrt(value[best])


@st.composite
def tied_recovery_problems(draw):
    """A lattice (d = 2) or a line (d = 1) with vertex values from a few levels,
    and a target at a vertex value, on an edge shared by two simplices, or free."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    d, c = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    k = draw(st.integers(2, 5))
    params = unit_grid(k) if d == 2 else np.linspace(0.0, 1.0, k + 1)[:, None]
    params = params + draw(st.sampled_from([0.0, 0.05])) / k * rng.uniform(-1, 1, params.shape)
    levels = draw(st.integers(1, 4))
    values = rng.integers(0, levels, (len(params), c)).astype(float)
    tri = delaunay_triangulate(params)
    where = draw(st.sampled_from(["vertex", "shared edge", "free"]))
    if where == "vertex":
        target = values[rng.integers(len(params))]
    elif where == "shared edge":
        # an edge of two simplices: for d = 1 a vertex, for d = 2 an interior edge
        edges = {}
        for s in tri.simplices.tolist():
            for e in itertools.combinations(sorted(s), tri.d):
                edges[e] = edges.get(e, 0) + 1
        shared = sorted(e for e, n in edges.items() if n == 2)
        edge = list(shared[rng.integers(len(shared))])
        target = values[edge].mean(axis=0)
    else:
        target = rng.uniform(-0.5, levels - 0.5, c)
    return params, values, target


@settings(max_examples=200)
@given(tied_recovery_problems())
def test_property_recovery_matches_brute_force_reference(problem):
    params, values, target = problem
    rec = recover_parameter(embedding_of(values, target), params)
    x_hat, residual = brute_force_recovery(values, target, params)
    assert rec.x_hat.tobytes() == x_hat.tobytes()
    assert np.float64(rec.residual).tobytes() == residual.tobytes()


def test_each_edge_slot_scales_its_own_singularity_threshold():
    # Edge (0, 1) has squared length 9e-4 in mirror space, the other two 1e12.
    # Judged against theirs it would count as singular, and the recovery would
    # fall back to vertex 0; against its own it is solved, at its midpoint.
    params = np.array([[0.0, 0], [1, 0], [0, 1]])
    values = np.array([[0.0, 0], [0.03, 0], [0, 1e6]])
    rec = recover_parameter(embedding_of(values, np.array([0.015, -1.0])), params)
    np.testing.assert_allclose(rec.x_hat, [0.5, 0.0], rtol=0, atol=1e-12)
    assert rec.residual == pytest.approx(1.0, abs=1e-12)


def test_recovery_rejects_a_non_finite_target():
    grid = unit_grid(3)
    # The embedding rejects the row when it is built, before a recovery could read it.
    message = "^embedding row 's9' has a non-finite coordinate or eigenvalue$"
    with pytest.raises(MirrorError, match=message):
        recover_parameter(identity_embedding(grid, [0.5, np.nan]), grid)


# ---------------------------------------------------------------------------
# leave-one-out
# ---------------------------------------------------------------------------


def test_leave_one_out_matches_naive_pipeline():
    rng = np.random.default_rng(56)
    grid = unit_grid(3)
    ds = Dataset(tuple(gaussian_sets(rng, grid, n=15)))
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
    ds = Dataset(tuple(gaussian_sets(rng, [[0.0, 0], [1, 0], [0, 1]])))
    with pytest.raises(MirrorError, match="d\\+3"):
        leave_one_out(distance_matrix(ds.labeled, p=1), ds.params_matrix(), c=2)


def test_leave_one_out_rejects_params_of_other_sets():
    rng = np.random.default_rng(58)
    grid = unit_grid(3)
    dm = distance_matrix(gaussian_sets(rng, grid), p=1)
    for params in (grid[:-1], grid[:, 0], np.vstack([grid, grid[:1]])):
        with pytest.raises(MirrorError, match="params must be an \\(9, d\\) matrix"):
            leave_one_out(dm, params, c=2)


def test_leave_one_out_names_a_param_row_that_is_not_finite():
    # Row 5 of the given params, not its index in the grid with hold-out 0 removed.
    rng = np.random.default_rng(59)
    grid = unit_grid(3)
    dm = distance_matrix(gaussian_sets(rng, grid), p=1)
    grid[5, 1] = np.nan
    with pytest.raises(MirrorError, match=r"^param 5 \(\[0\.5, nan\]\) is not finite$"):
        leave_one_out(dm, grid, c=2)


def test_leave_one_out_pools_only_the_embeddings(monkeypatch):
    # The pool maps the m embeddings; every recovery runs in the calling thread.
    grid = unit_grid(3)
    dm = distance_matrix(gaussian_sets(np.random.default_rng(59), grid), p=1)
    mapped, embed_threads, recover_threads = [], [], []
    real_map, real_cmds, real_recover = (
        recovery.map_deterministic, recovery.cmds, recovery.recover_parameter)

    def map_wrapper(fn, items):
        mapped.append(len(items))
        return real_map(fn, items)

    def cmds_wrapper(delta, c):
        embed_threads.append(threading.get_ident())
        return real_cmds(delta, c)

    def recover_wrapper(psi, params):
        recover_threads.append(threading.get_ident())
        return real_recover(psi, params)

    monkeypatch.setenv("MIRROR_THREADS", "2")
    monkeypatch.setattr(recovery, "map_deterministic", map_wrapper)
    monkeypatch.setattr(recovery, "cmds", cmds_wrapper)
    monkeypatch.setattr(recovery, "recover_parameter", recover_wrapper)
    threads_before = threading.active_count()
    leave_one_out(dm, grid, c=2)
    assert mapped == [9]
    # Only the map's pool runs code off the calling thread.
    assert len(embed_threads) == 9 and threading.get_ident() not in embed_threads
    assert len(set(embed_threads)) <= 2
    assert recover_threads == [threading.get_ident()] * 9
    assert threading.active_count() == threads_before


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
    grid = unit_grid(4)
    # identity mirror: every simplex Jacobian is the identity map
    psi = identity_embedding(grid, [0.5, 0.5])
    tri = delaunay_triangulate(grid)
    conds = jacobian_condition_numbers(MirrorSurface(tri, psi.coords[:-1]))
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


def test_population_limit_recovery_is_the_affine_preimage():
    # The closed-form mean-sd matrix puts every interior hold-out's target on its
    # reduced surface.  The oracle shares only the triangulation with
    # recover_parameter: it inverts the affine map of each triangle whose image
    # holds the target, and every such preimage must be x_hat.
    grid = mean_sd_grid()
    dm = true_distance_matrix(FamilyVariant.MEAN_SD, grid)
    recs = leave_one_out(dm, grid, c=2)
    interior = np.flatnonzero(((grid > 0.0) & (grid < 1.0)).all(axis=1))
    assert len(interior) == 64
    for i in interior:
        assert recs[i].residual <= 1e-12
        order = [j for j in range(dm.m) if j != i] + [i]
        coords = cmds(DistanceMatrix(ids=tuple(dm.ids[j] for j in order),
                                     values=dm.values[np.ix_(order, order)]), 2).coords
        tri = delaunay_triangulate(grid[order[:-1]])
        # Per triangle, [values; 1] @ lambda = [target; 1].
        system = np.concatenate([np.swapaxes(coords[tri.simplices], 1, 2),
                                 np.ones((tri.n_simplices, 1, 3))], axis=1)
        lam = np.linalg.solve(system, np.append(coords[-1], 1.0)[None, :, None])[..., 0]
        holds = lam.min(axis=1) >= -1e-9
        assert holds.any()
        preimages = np.einsum("kv,kvd->kd", lam[holds], tri.points[tri.simplices[holds]])
        assert np.abs(preimages - recs[i].x_hat).max() <= 1e-12


def interior_coordinate_medians(dm, grid):
    """Leave-one-out median |x_hat - truth| per coordinate over the interior hold-outs."""
    recs = leave_one_out(dm, grid, c=2)
    interior = ((grid > 0.0) & (grid < 1.0)).all(axis=1)
    return np.median(np.abs(np.array([r.x_hat for r in recs]) - grid)[interior], axis=0)


def test_large_n_x1_error_reaches_the_population_floor():
    # The x1 error stops at the surface's interpolation bias, which the population
    # matrix shows alone (x2 is exact there), while the x2 error keeps falling with n.
    # Bounds from seeds 0-5 at n = 10^4: x1 at 0.87-0.98 of the floor, x2 at
    # 0.135-0.154 of x1.
    grid = mean_sd_grid()
    floor = interior_coordinate_medians(true_distance_matrix(FamilyVariant.MEAN_SD, grid), grid)
    assert floor[0] == pytest.approx(0.0104, abs=1e-4) and floor[1] <= 1e-15
    ds = generate(GaussianFamilySpec(variant=FamilyVariant.MEAN_SD, n=10_000, seed=0))
    x1, x2 = interior_coordinate_medians(distance_matrix(ds.labeled, p=2), grid)
    assert 0.8 * floor[0] <= x1 <= 1.05 * floor[0]
    assert x2 <= 0.2 * x1
