import re
import warnings
from contextlib import contextmanager
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from distmirror import surface
from distmirror.errors import DegenerateInput, MirrorError, UnsupportedDimension
from distmirror.sim import mean_only_grid, mean_sd_grid
from distmirror.surface import (
    BARY_TOL,
    BOUNDARY_TOL,
    GEOM_EPS,
    _QUERY_FLOATS,
    _incircle,
    _orient,
    _sides,
    MirrorSurface,
    Triangulation,
    barycentric,
    delaunay_triangulate,
    fit_axis_scaling,
    hull_boundary_distance,
    interpolate,
    jacobian_condition_numbers,
    lipschitz_constant,
    locate,
    near_hull_boundary,
    simplex_gradients,
)


def circumcircle_margin(points, simplices):
    """Independent empty-circumcircle oracle via circumcenters and radii.

    Returns the largest inward violation (positive means some point lies
    strictly inside some triangle's circumcircle).
    """
    worst = -np.inf
    for tri in simplices:
        a, b, c = points[tri]
        # circumcenter from the perpendicular-bisector linear system
        m = 2 * np.array([b - a, c - a])
        rhs = np.array([b @ b - a @ a, c @ c - a @ a])
        center = np.linalg.solve(m, rhs)
        radius = np.linalg.norm(a - center)
        dist = np.linalg.norm(points - center, axis=1)
        dist[tri] = np.inf
        worst = max(worst, float(np.max(radius - dist)))
    return worst


def hull_area(points, hull):
    poly = points[hull]
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def random_hull_points(tri, rng, count):
    verts = tri.points[tri.hull]
    weights = rng.random((count, len(verts)))
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ verts


# ---------------------------------------------------------------------------
# triangulation construction
# ---------------------------------------------------------------------------


def test_three_points_single_triangle():
    tri = delaunay_triangulate(np.array([[0.0, 0], [4, 0], [0, 4]]))
    assert tri.simplices.tolist() == [[0, 1, 2]]
    assert sorted(tri.hull.tolist()) == [0, 1, 2]


def test_interior_point_three_triangles():
    tri = delaunay_triangulate(np.array([[0.0, 0], [4, 0], [0, 4], [1, 1]]))
    assert tri.n_simplices == 3
    assert all(3 in s for s in tri.simplices.tolist())


def test_cocircular_square_tie_break():
    # both diagonals are Delaunay; the one through the lowest index wins
    tri = delaunay_triangulate(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))
    assert tri.n_simplices == 2
    diagonals = [set(a) & set(b) for a in tri.simplices.tolist() for b in tri.simplices.tolist() if set(a) != set(b)]
    shared = diagonals[0]
    assert shared == {0, 2}


def test_grid_diagonals_follow_tie_break():
    g = np.array([[i, j] for i in range(4) for j in range(4)], dtype=float)
    tri = delaunay_triangulate(g)
    tris = {tuple(sorted(s)) for s in tri.simplices.tolist()}
    for i in range(3):
        for j in range(3):
            c00, c01 = 4 * i + j, 4 * i + j + 1
            c10, c11 = 4 * (i + 1) + j, 4 * (i + 1) + j + 1
            assert tuple(sorted((c00, c01, c11))) in tris
            assert tuple(sorted((c00, c10, c11))) in tris


def test_collinear_rejected():
    with pytest.raises(DegenerateInput):
        delaunay_triangulate(np.array([[0.0, 0], [1, 1], [2, 2], [3, 3]]))


def test_sliver_peel_that_leaves_no_triangle_rejected():
    # qhull triangulates the three points, but their one triangle is a boundary
    # sliver, so the peel removes it and no triangle is left.
    from scipy.spatial import Delaunay

    points = np.array([[0.0, 0.0], [0.5, 1e-12], [1.0, 0.0]])
    assert len(Delaunay(points).simplices) == 1
    with pytest.raises(DegenerateInput, match=r"^all points are collinear$"):
        delaunay_triangulate(points)


def test_duplicates_rejected():
    # The message names the smallest index that repeats an earlier point, and
    # that point's first copy; -0.0 and 0.0 coincide.
    for points, message in [
        ([[0.0, 0], [1, 0], [1, 0], [0, 1]], "point 2 coincides with point 1"),
        ([[0.0, 0], [1, 0], [0, 1], [0, 1], [1, 0], [0, 1]], "point 3 coincides with point 2"),
        ([[0.0, 1], [1, 0], [0, 0], [0, 1], [1, 0], [0, 0]], "point 3 coincides with point 0"),
        ([[0.0, 0], [-0.0, 0], [1, 0], [0, 1]], "point 1 coincides with point 0"),
        ([[2.0], [0.0], [1.0], [0.0], [2.0]], "point 3 coincides with point 1"),
        ([[1.0], [-0.0], [0.0]], "point 2 coincides with point 1"),
    ]:
        with pytest.raises(DegenerateInput, match=f"^{message}$"):
            delaunay_triangulate(np.array(points))


def test_high_dimension_rejected():
    with pytest.raises(UnsupportedDimension):
        delaunay_triangulate(np.zeros((5, 3)))


@pytest.mark.parametrize("points, message", [
    ([[0.0, 0], [1, 0], [np.nan, 1], [0, np.inf]], r"point 2 \(\[nan, 1\.0\]\) is not finite"),
    ([[0.0], [-np.inf], [1.0]], r"point 1 \(\[-inf\]\) is not finite"),
], ids=["2-d", "1-d"])
def test_non_finite_point_named(points, message):
    with pytest.raises(MirrorError, match=f"^{message}$"):
        delaunay_triangulate(np.array(points))


def test_too_few_points_rejected():
    with pytest.raises(DegenerateInput):
        delaunay_triangulate(np.array([[0.0, 0], [1, 1]]))


def test_1d_sorted_segments():
    tri = delaunay_triangulate(np.array([[3.0], [1.0], [2.0]]))
    assert tri.simplices.tolist() == [[0, 2], [1, 2]]
    assert tri.hull.tolist() == [1, 0]


def test_near_collinear_hull_point_kept_as_vertex():
    # point 2 sits 1e-13 inside the bottom edge: a hull vertex, not a sliver apex
    tri = delaunay_triangulate(np.array([[0.0, 0], [1, 0], [0.5, 1e-13], [0.5, 1]]))
    assert tri.simplices.tolist() == [[0, 2, 3], [1, 3, 2]]
    assert tri.hull.tolist() == [0, 2, 1, 3]


# Two near-collinear inputs of tools/triangulation_corpus.py whose qhull triangles
# sit near the area floor.  The sliver peel leaves some points in no triangle
# (on /20 points 0, 2, 3 and 6; on /65 two pieces meeting at one vertex).
NEAR_COLLINEAR_20 = [
    [-0.09749595841408576, -0.04650965877898301], [-0.30598362607692353, -0.1459670151684727],
    [-0.1082245984253607, -0.05162766976292395], [-0.15094006122040549, -0.07200473596640779],
    [-0.4828112958749254, -0.23032122552267523], [-0.21525481373443517, -0.10268556871443534],
    [-0.2435526405394341, -0.11618481822577659], [-0.4088169259429291, -0.19502280953789175]]
NEAR_COLLINEAR_65 = [
    [-0.18847812293670282, -0.4162588631180079], [-0.3010164754549118, -0.6648027574716823],
    [-0.03289895015079793, -0.07265819169996011], [-0.3074826634265092, -0.6790835026888425],
    [-0.19502555954651, -0.43071904807845185], [-0.36802496873746265, -0.8127927671284887],
    [-0.022770832681106783, -0.05028997942998916], [-0.046775444326744096, -0.10330479195264863],
    [-0.2647874389640345, -0.5847899830064642], [-0.3164416675708238, -0.6988696976197245],
    [-0.04677598177405309, -0.1033059789135714], [-0.2408288924409153, -0.5318769065149079],
    [-0.3226837885524082, -0.7126555850434071], [-0.3523623489981771, -0.778201461855161]]


@pytest.mark.parametrize("points, message", [
    (NEAR_COLLINEAR_20, "point 0 is a vertex of no simplex"),
    (NEAR_COLLINEAR_65, "point 1 is a vertex of no simplex"),
], ids=["near-collinear-20", "near-collinear-65"])
def test_near_collinear_peel_leaving_a_point_in_no_triangle_rejected(points, message):
    with pytest.raises(DegenerateInput, match=f"^{message}$"):
        delaunay_triangulate(np.array(points))


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e150])
def test_triangulation_scale_invariant(scale):
    g = np.array([[i, j] for i in range(4) for j in range(4)], dtype=float)
    ref = delaunay_triangulate(g)
    tri = delaunay_triangulate(g * scale)
    assert tri.simplices.tolist() == ref.simplices.tolist()
    assert tri.hull.tolist() == ref.hull.tolist()


def test_near_duplicate_names_point():
    pts = np.array([[0.0, 0], [1, 0], [0.5, 0.5], [0.5, 0.5 + 1e-15], [0, 1]])
    with pytest.raises(DegenerateInput, match="point 3"):
        delaunay_triangulate(pts)


def test_degenerate_simplex_named():
    pts = np.array([[0.0, 0], [1, 0], [2, 0], [0, 1]])
    with pytest.raises(DegenerateInput, match=r"simplex 1 \(\[0, 1, 2\]\)"):
        Triangulation(points=pts, simplices=[[0, 1, 3], [0, 1, 2]])


def test_triangulation_needs_a_simplex():
    with pytest.raises(MirrorError, match="K >= 1"):
        Triangulation(points=np.eye(2), simplices=np.empty((0, 3), dtype=int))


SQUARE = [[0.0, 0], [1, 0], [1, 1], [0, 1]]
# A regular pentagon and its centre.
PENTAGON = np.column_stack([np.cos(np.pi / 2 + 0.4 * np.pi * np.arange(5)),
                            np.sin(np.pi / 2 + 0.4 * np.pi * np.arange(5))]).tolist() + [[0.0, 0]]


@pytest.mark.parametrize("points, simplices, message", [
    (SQUARE[:3], [[0, 1, 5]], r"simplices\[0, 2\] = 5 names no point in 0\.\.2"),
    (SQUARE[:3], [[0, 1, -1]], r"simplices\[0, 2\] = -1 names no point in 0\.\.2"),
    ([[0.0, 0], [1, 0], [np.nan, 1]], [[0, 1, 2]], r"point 2 \(\[nan, 1\.0\]\) is not finite"),
    # Two triangles apart: walked from point 0, the boundary closes after 3 of its 6 sides.
    (SQUARE[:3] + [[5.0, 5], [6, 5], [5, 6]], [[0, 1, 2], [3, 4, 5]],
     r"the boundary walked from point 0 is not one closed cycle of its 6 sides"),
    # A bow-tie: point 0 starts two boundary sides.
    (SQUARE[:3] + [[-1.0, 0], [-1, -1]], [[0, 1, 2], [0, 3, 4]],
     r"the boundary walked from point 0 is not one closed cycle of its 6 sides"),
    (SQUARE[:3], [[0, 2, 1]], r"simplex 0 \(\[0, 2, 1\]\) is clockwise"),
    (SQUARE, [[0, 1, 2]], r"point 3 is a vertex of no simplex"),
    # The centre fanned to every second vertex: one closed cycle, a pentagram that turns twice.
    (PENTAGON, [[5, i, (i + 2) % 5] for i in range(5)],
     r"the boundary walked from point 0 turns 2 times, not once"),
    ([[0.0], [1], [2], [3]], [[0, 1], [2, 3]],
     r"the segments are not one path after segment \[0, 1\]"),
], ids=["index-past-end", "negative-index", "nan-point", "disjoint-triangles", "bow-tie",
        "clockwise", "lone-point", "pentagram", "1-d-gap"])
def test_triangulation_rejects_a_bad_point_index_or_hull(points, simplices, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MirrorError, match=f"^{message}$"):
            Triangulation(points=np.array(points), simplices=simplices)


def test_hull_derived_from_the_simplices_alone():
    # The unit square and its centre, fanned from the centre: the centre is no hull vertex.
    tri = Triangulation(points=np.array(SQUARE + [[0.5, 0.5]]),
                        simplices=[[0, 1, 4], [0, 4, 3], [1, 2, 4], [2, 3, 4]])
    assert tri.hull.tolist() == [0, 1, 2, 3]
    assert hull_boundary_distance(tri, [[0.5, 0.5]]).tolist() == [0.5]


def tiny_cluster(kind, r):
    corners = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
    if kind == "hexagon":
        ang = np.pi / 3 * np.arange(6)
        cluster = np.vstack([np.column_stack([np.cos(ang), np.sin(ang)]), [[0.0, 0.0]]])
    else:
        cluster = np.array([[i, j] for i in range(3) for j in range(3)], dtype=float)
    return np.vstack([corners, 0.5 + r * cluster])


@pytest.mark.parametrize("kind", ["hexagon", "subgrid"])
@pytest.mark.parametrize("r", [1e-3, 1e-4, 1e-5])
def test_tiny_cluster_triangulates(kind, r):
    # Every quad of the cluster passes the unit-box incircle epsilon, so the
    # cocircular cells chain across the whole cluster, inner vertices included.
    pts = tiny_cluster(kind, r)
    tri = delaunay_triangulate(pts)
    assert sorted(set(tri.simplices.ravel().tolist())) == list(range(len(pts)))
    u, v = (pts[tri.simplices[:, k]] - pts[tri.simplices[:, 0]] for k in (1, 2))
    areas = 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    assert areas.min() > 0
    assert areas.sum() == pytest.approx(1.0, rel=1e-12)
    assert tri.hull.tolist() == [0, 1, 2, 3]
    if kind == "hexagon":
        # the centre lies inside the circumcircle of every hexagon-only triangle
        assert np.sum(tri.simplices == len(pts) - 1) == 6


def test_point_qhull_leaves_out_is_named_with_its_nearest_vertex():
    # At r = 1e-7 no two points are equal, but qhull puts the centre in no triangle.
    pts = tiny_cluster("hexagon", 1e-7)
    assert len(np.unique(pts, axis=0)) == len(pts) == 11
    with pytest.raises(DegenerateInput, match=r"^point 10 lies within qhull's precision of "
                       r"point 4 and is in no triangle$"):
        delaunay_triangulate(pts)


@pytest.mark.parametrize("kind, thin", [("hexagon", (8, 9, 10)), ("subgrid", (8, 9, 6))])
def test_tiny_cluster_below_area_floor_names_first_kept_triangle(kind, thin):
    # At r = 1e-6 some cells keep qhull's triangles, and one of them is under
    # the area floor; the error names the first such triangle in qhull's order.
    with pytest.raises(DegenerateInput, match=rf"^triangle \({', '.join(map(str, thin))}\) "
                       "has non-positive area"):
        delaunay_triangulate(tiny_cluster(kind, 1e-6))


def test_delaunay_property_random_sets():
    rng = np.random.default_rng(100)
    for trial in range(5):
        m = int(rng.integers(10, 80))
        pts = rng.random((m, 2)) * 10
        tri = delaunay_triangulate(pts)
        assert circumcircle_margin(pts, tri.simplices) <= 1e-7


def test_coverage_and_area():
    rng = np.random.default_rng(101)
    pts = rng.random((60, 2))
    tri = delaunay_triangulate(pts)
    areas = []
    for s in tri.simplices:
        p = pts[s]
        areas.append(0.5 * abs(np.linalg.det(np.array([p[1] - p[0], p[2] - p[0]]))))
    assert sum(areas) == pytest.approx(hull_area(pts, tri.hull), rel=1e-9)
    assert (locate(tri, random_hull_points(tri, rng, 1000)) >= 0).all()


def cocircular(points, t1, t2):
    """Do the four corners of two adjacent triangles share a circumcircle?

    The tolerance is relative to the extent of the point set, not to the
    radius, which is huge for thin triangles.
    """
    a, b, c = points[list(t1)]
    m = 2 * np.array([b - a, c - a])
    center = np.linalg.solve(m, np.array([b @ b - a @ a, c @ c - a @ a]))
    radius = np.linalg.norm(a - center)
    (w,) = set(t2) - set(t1)
    extent = np.max(points.max(axis=0) - points.min(axis=0))
    return abs(np.linalg.norm(points[w] - center) - radius) <= 1e-9 * extent


def tie_break_violations(points, simplices):
    """Interior edges of cocircular cells that miss the cell's lowest index.

    A cell is a maximal group of triangles joined across edges whose two
    triangles are cocircular; the documented tie-break fans every cell
    from its lowest-index vertex, so each such edge has it as an endpoint.
    """
    tris = [tuple(s) for s in simplices.tolist()]
    by_edge = {}
    for k, t in enumerate(tris):
        for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            by_edge.setdefault(frozenset(e), []).append(k)
    links = {k: [] for k in range(len(tris))}
    for e, ks in by_edge.items():
        if len(ks) == 2 and cocircular(points, tris[ks[0]], tris[ks[1]]):
            links[ks[0]].append((ks[1], e))
            links[ks[1]].append((ks[0], e))
    seen, bad = set(), []
    for start in range(len(tris)):
        if start in seen:
            continue
        cell, stack, inner = {start}, [start], set()
        while stack:
            for nb, e in links[stack.pop()]:
                inner.add(e)
                if nb not in cell:
                    cell.add(nb)
                    stack.append(nb)
        seen |= cell
        lowest = min(v for k in cell for v in tris[k])
        bad += [sorted(e) for e in inner if lowest not in e]
    return bad


@st.composite
def lattices(draw):
    """Rectangular lattices, optionally jittered, with shuffled labels."""
    kx, ky = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    sx, sy = draw(st.sampled_from([1.0, 0.3, 2.5])), draw(st.sampled_from([1.0, 0.7]))
    jitter = draw(st.sampled_from([0.0, 1e-13, 1e-4, 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pts = np.array([[i * sx, j * sy] for i in range(kx) for j in range(ky)])
    pts = pts + jitter * rng.uniform(-1, 1, pts.shape) + draw(st.sampled_from([0.0, 3.0, -1e3]))
    return pts[rng.permutation(len(pts))] * 10.0 ** draw(st.integers(-6, 6))


@st.composite
def polygons(draw):
    """Regular k-gons, optionally with their centre, with shuffled labels."""
    k = draw(st.integers(3, 24))
    ang = 2 * np.pi * np.arange(k) / k
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    if draw(st.booleans()):
        pts = np.vstack([pts, [[0.0, 0.0]]])
    order = draw(st.permutations(range(len(pts))))
    return pts[list(order)] * 10.0 ** draw(st.integers(-6, 6))


point_sets = st.one_of(lattices(), polygons())


@given(point_sets)
def test_property_empty_circumcircle(pts):
    tri = delaunay_triangulate(pts)
    extent = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    assert circumcircle_margin(pts, tri.simplices) <= 1e-9 * extent


@given(point_sets)
def test_property_covers_hull_with_every_point(pts):
    tri = delaunay_triangulate(pts)
    assert sorted(set(tri.simplices.ravel().tolist())) == list(range(len(pts)))
    local = pts - pts.min(axis=0)  # the shoelace sum cancels badly far from the origin
    u, v = (local[tri.simplices[:, k]] - local[tri.simplices[:, 0]] for k in (1, 2))
    areas = 0.5 * np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    assert areas.sum() == pytest.approx(hull_area(local, tri.hull), rel=1e-9)


@given(point_sets)
def test_property_hull_is_the_boundary_cycle(pts):
    # Against qhull's own hull: every hull vertex is on the cycle, and each step
    # of the cycle is a side of exactly one triangle.
    from scipy.spatial import ConvexHull

    tri = delaunay_triangulate(pts)
    hull = tri.hull.tolist()
    assert set(ConvexHull(pts).vertices.tolist()) <= set(hull)
    assert len(set(hull)) == len(hull)
    sides = [frozenset(e) for s in tri.simplices.tolist() for e in zip(s, s[1:] + s[:1])]
    for side in zip(hull, hull[1:] + hull[:1]):
        assert sides.count(frozenset(side)) == 1


@given(point_sets)
def test_property_side_twins_are_qhulls_neighbours(pts):
    # qhull's own neighbour array is the oracle: made ccw, each triangle's sides
    # have twins in exactly the triangles qhull names as its neighbours.
    from scipy.spatial import Delaunay

    qhull = Delaunay(pts)
    tris = qhull.simplices.astype(np.intp)
    cw = _orient(pts, tris) < 0
    tris[cw, 1:] = tris[cw, :0:-1]
    twin = _sides(tris)[2]
    across = np.where(twin < 0, -1, twin // 3).reshape(-1, 3)
    assert (np.sort(across, axis=1) == np.sort(qhull.neighbors, axis=1)).all()


@given(point_sets)
def test_property_cocircular_cells_fan_from_lowest_index(pts):
    tri = delaunay_triangulate(pts)
    assert tie_break_violations(pts, tri.simplices) == []


@contextmanager
def qhull_runs():
    """The qhull options of every scipy Delaunay run made inside the block, in order."""
    import scipy.spatial

    runs, real = [], scipy.spatial.Delaunay

    def counted(*args, **kwargs):
        runs.append(kwargs.get("qhull_options"))
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.spatial, "Delaunay", counted)
        yield runs


def one_run_alone(pts, options):
    """``delaunay_triangulate`` with both runs given the same qhull options: that run's
    simplices and hull, or its error text."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surface, "_QHULL_UNMERGED", options)
        mp.setattr(surface, "_QHULL_MERGED", options)
        try:
            tri = delaunay_triangulate(pts)
        except MirrorError as exc:
            return str(exc)
    return tri.simplices.tolist(), tri.hull.tolist()


@given(point_sets)
def test_property_same_triangulation_as_the_merged_run_alone(pts):
    tri = delaunay_triangulate(pts)
    assert (tri.simplices.tolist(), tri.hull.tolist()) == one_run_alone(
        pts, surface._QHULL_MERGED)


def grid_5x5():
    axis = np.linspace(0.0, 2.0, 5)
    return np.array([[a, b] for a in axis for b in axis])


@pytest.mark.parametrize("grid", [mean_sd_grid, mean_only_grid, grid_5x5])
def test_benchmark_grids_keep_the_unmerged_run(grid):
    # The full grid and each grid with one point held out, as recovery triangulates them.
    pts = grid()
    for held_out in [None, *range(len(pts))]:
        with qhull_runs() as runs:
            delaunay_triangulate(pts if held_out is None else np.delete(pts, held_out, axis=0))
        assert runs == [surface._QHULL_UNMERGED], held_out


# Corpus input lattices/17: a 6 x 6 lattice of step 1e-5, each point moved by up to
# 1e-13 of a step.  qhull without facet merging calls it collinear.
LATTICE_17 = [
    [2.9999999999999184e-05, 6.077952845157843e-19], [1.9999999999999585e-05, -1.778720627164525e-19],
    [4.9999999999999054e-05, 2.9999999999999957e-05], [3.0000000000000587e-05, 2.000000000000046e-05],
    [4.9999999999999515e-05, 9.999999999999904e-06], [2.1847677687732504e-19, 3.999999999999971e-05],
    [2.0000000000000486e-05, 2.9999999999999757e-05], [2.9999999999999296e-05, 4.999999999999966e-05],
    [3.000000000000067e-05, 4.0000000000000884e-05], [5.000000000000056e-05, 4.0000000000000376e-05],
    [4.000000000000075e-05, 9.999999999999972e-06], [-3.0156359193974324e-19, 2.999999999999915e-05],
    [4.0000000000000064e-05, 3.9999999999999705e-05], [2.0000000000000883e-05, 5.000000000000037e-05],
    [1.9999999999999117e-05, 1.0000000000000387e-05], [4.0000000000000315e-05, 2.999999999999942e-05],
    [1.0000000000000902e-05, 1.0000000000000697e-05], [1.0000000000000873e-05, 1.9999999999999537e-05],
    [1.0000000000000656e-05, 4.2488307838407954e-20], [2.9999999999999252e-05, 2.9999999999999123e-05],
    [4.000000000000051e-05, 2.000000000000038e-05], [5.000000000000019e-05, 5.000000000000009e-05],
    [4.9999999999999474e-05, -1.6346614331581064e-19], [2.0000000000000313e-05, 1.999999999999925e-05],
    [2.9999999999999198e-05, 1.0000000000000856e-05], [5.0000000000000185e-05, 1.9999999999999466e-05],
    [6.821536307024107e-19, 4.999999999999932e-05], [1.0000000000000169e-05, 3.0000000000000682e-05],
    [7.54459503547733e-21, 2.334821372806617e-19], [2.000000000000094e-05, 3.999999999999944e-05],
    [5.444614932757891e-19, 2.0000000000000052e-05], [5.046977104540713e-19, 9.999999999999547e-06],
    [1.0000000000000826e-05, 3.999999999999999e-05], [1.0000000000000362e-05, 5.000000000000075e-05],
    [3.999999999999946e-05, -9.19610147348284e-19], [3.999999999999907e-05, 5.000000000000084e-05]]


@pytest.mark.parametrize("points", [np.array(LATTICE_17), tiny_cluster("subgrid", 1e-4)],
                         ids=["lattice-17", "tiny-subgrid-1e-4"])
def test_unsettled_unmerged_run_is_rerun_merged(points):
    unmerged = one_run_alone(points, surface._QHULL_UNMERGED)
    merged = one_run_alone(points, surface._QHULL_MERGED)
    assert unmerged != merged
    if isinstance(unmerged, str):
        assert unmerged == "all points are collinear"
    with qhull_runs() as runs:
        tri = delaunay_triangulate(points)
    assert runs == [surface._QHULL_UNMERGED, surface._QHULL_MERGED]
    assert (tri.simplices.tolist(), tri.hull.tolist()) == merged


def exact_incircle(a, b, c, d):
    """The incircle determinant of the float points, in exact rational arithmetic."""
    rows = [[Fraction(p[0]) - Fraction(d[0]), Fraction(p[1]) - Fraction(d[1])] for p in (a, b, c)]
    (ax, ay), (bx, by), (cx, cy) = rows
    lift = [x * x + y * y for x, y in rows]
    return lift[0] * (bx * cy - by * cx) - lift[1] * (ax * cy - ay * cx) + lift[2] * (ax * by - ay * bx)


def incircle_error_bound(a, b, c, d):
    """Shewchuk's (1997) forward error bound of the float incircle determinant:
    (10 + 96 eps) eps times the permanent of the same expansion (eps = 2**-53)."""
    eps = 2.0**-53
    rel = np.array([a, b, c]) - np.array(d)
    x, y = np.abs(rel[:, 0]), np.abs(rel[:, 1])
    lift = x * x + y * y
    permanent = (lift[0] * (x[1] * y[2] + y[1] * x[2]) + lift[1] * (x[0] * y[2] + y[0] * x[2])
                 + lift[2] * (x[0] * y[1] + y[0] * x[1]))
    return (10 + 96 * eps) * eps * permanent


unit_coordinates = st.floats(0.0, 1.0, allow_subnormal=False)


@st.composite
def incircle_quads(draw):
    """Four points of the unit box: random, or on a lattice of step 1/k."""
    if draw(st.booleans()):
        return [(draw(unit_coordinates), draw(unit_coordinates)) for _ in range(4)]
    k = draw(st.integers(1, 1000))
    cells = st.integers(0, k)
    return [(draw(cells) / k, draw(cells) / k) for _ in range(4)]


@given(incircle_quads())
def test_property_incircle_sign_matches_exact_determinant(quad):
    a, b, c, d = quad
    points = np.array(quad)
    (value,) = _incircle(points, np.array([[0, 1, 2]]), np.array([3]))
    exact = exact_incircle(a, b, c, d)
    bound = incircle_error_bound(a, b, c, d)
    assert abs(Fraction(float(value)) - exact) <= Fraction(bound)
    if abs(exact) > bound:
        assert np.sign(value) == np.sign(exact)


@st.composite
def cocircular_lattice_quads(draw):
    """The corners of a lattice rectangle, possibly tilted, in the unit box: the
    lattice has step 1/k, and the sides run along (p, q) and t (-q, p)."""
    p, q, t = draw(st.integers(1, 30)), draw(st.integers(0, 30)), draw(st.integers(1, 30))
    corners = np.array([[q * t, 0], [q * t + p, q], [p, q + p * t], [0, p * t]])
    k = draw(st.integers(int(corners.max()), 1000))
    shift = [draw(st.integers(0, k - int(top))) for top in corners.max(axis=0)]
    return (corners + shift) / k


@given(cocircular_lattice_quads())
def test_property_cocircular_lattice_quads_pass_the_epsilon(quad):
    # The four corners of a rectangle lie on one circle; in floats the
    # determinant is rounding only.  Both diagonals' triangles are tested.
    for tri, d in (([0, 1, 2], 3), ([0, 2, 3], 1), ([1, 2, 3], 0), ([0, 1, 3], 2)):
        tri = tri if _orient(quad, np.array([tri]))[0] > 0 else tri[::-1]
        (value,) = _incircle(quad, np.array([tri]), np.array([d]))
        assert abs(value) <= GEOM_EPS


# ---------------------------------------------------------------------------
# locate / barycentric
# ---------------------------------------------------------------------------


@pytest.fixture
def kite():
    return delaunay_triangulate(np.array([[0.0, 0], [4, 0], [0, 4], [1, 1]]))


def test_locate_interior(kite):
    x = np.array([[2.0, 0.5]])
    sid = locate(kite, x)
    assert sid.shape == (1,) and sid[0] >= 0
    assert barycentric(kite, sid, x).min() >= 0


def test_locate_shared_vertex_lowest_id(kite):
    # the shared vertex belongs to all three simplices; index 0 wins
    assert locate(kite, [[1.0, 1.0]]).tolist() == [0]


def test_locate_outside(kite):
    sid = locate(kite, [[50.0, 50.0], [2.0, 0.5], [-1e-3, 0.0]])
    assert sid[[0, 2]].tolist() == [-1, -1] and sid[1] >= 0


@st.composite
def query_problems(draw):
    """A d = 1 or d = 2 triangulation, a pool of query points and rows drawn from it.

    The pool holds the vertices (the shared faces for d = 1), points on simplex
    edges (shared or hull edges for d = 2), interior points, and points just or
    far outside the hull.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        pts = draw(point_sets)
    else:
        m = draw(st.integers(2, 12))
        pts = np.cumsum(rng.uniform(0.1, 1.0, m))[rng.permutation(m), None]
        pts = pts * 10.0 ** draw(st.integers(-6, 6))
    tri = delaunay_triangulate(pts)
    corners = tri.points[tri.simplices[rng.integers(tri.n_simplices, size=16)]]
    t = rng.random((16, 1))
    edge = corners[:, 0] * t + corners[:, 1] * (1 - t)
    interior = np.einsum("nv,nvd->nd", rng.dirichlet(np.ones(tri.d + 1), 16), corners)
    centre = tri.points.mean(axis=0)
    push = rng.uniform(1.0 + 1e-6, 3.0, (len(tri.hull), 1))
    outside = centre + (tri.points[tri.hull] - centre) * push
    pool = np.vstack([tri.points, edge, interior, outside])
    # More rows than one block of locate and one of the boundary distance.
    block = _QUERY_FLOATS // min(tri.n_simplices * (tri.d + 1), len(tri.hull) * tri.d)
    rows = rng.integers(len(pool), size=block + draw(st.integers(1, 300)))
    return tri, pool, rows


def former_interpolate(surf, x):
    """The one-point interpolant of earlier versions, whose bytes ``fit`` keeps."""
    tri = surf.tri
    xh = np.append(x, 1.0)
    feasible = np.flatnonzero((tri._bary @ xh).min(axis=1) >= -BARY_TOL)
    if not feasible.size:
        return np.full(surf.c, np.nan)
    sid = feasible[0]
    vertex = np.flatnonzero((tri.points[tri.simplices[sid]] == x).all(axis=1))
    if vertex.size:
        lam = np.eye(tri.d + 1)[vertex[0]]
    else:
        lam = np.clip(tri._bary[sid] @ xh, 0.0, 1.0)
        lam = lam / lam.sum()
    return lam @ surf.values[tri.simplices[sid]]


def same_bits(got, expect):
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


@given(query_problems())
def test_property_batched_queries_match_one_row_calls(problem):
    tri, pool, rows = problem
    surf = MirrorSurface(tri, np.random.default_rng(len(pool)).standard_normal((tri.m, 2)))
    queries = [partial(locate, tri), partial(interpolate, surf),
               partial(hull_boundary_distance, tri), partial(near_hull_boundary, tri)]
    for query in queries:
        one_row = np.concatenate([query(pool[i:i + 1]) for i in range(len(pool))])
        same_bits(query(pool[rows]), one_row[rows])
    same_bits(interpolate(surf, pool), np.array([former_interpolate(surf, x) for x in pool]))
    sid = locate(tri, pool)
    one_row = np.full((len(pool), tri.d + 1), np.nan)
    for i in np.flatnonzero(sid >= 0):
        one_row[i] = barycentric(tri, sid[i:i + 1], pool[i:i + 1])
    hits = rows[sid[rows] >= 0]
    same_bits(barycentric(tri, sid[hits], pool[hits]), one_row[hits])
    with pytest.raises(MirrorError, match="row 0: simplex index -1 out of range"):
        barycentric(tri, [-1], pool[:1])


def test_locate_empty_query(kite):
    assert locate(kite, np.empty((0, 2))).shape == (0,)


@pytest.mark.parametrize("x", [[2.0, 0.5], [[[2.0, 0.5]]], [[2.0]], [[2.0, 0.5, 1.0]]])
def test_query_shape_checked(kite, x):
    with pytest.raises(MirrorError, match=r"^query points must be an \(N, 2\) matrix$"):
        locate(kite, x)


@pytest.mark.parametrize("query", [
    locate, partial(barycentric, simplex=np.zeros(3, dtype=int)), hull_boundary_distance,
    near_hull_boundary,
    lambda tri, x: interpolate(MirrorSurface(tri, np.arange(4.0)), x),
], ids=["locate", "barycentric", "hull_boundary_distance", "near_hull_boundary", "interpolate"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_query_point_not_finite_named(kite, query, bad):
    # Not an answer for a point outside the hull: -1, a NaN row, or a distance.
    x = np.array([[1.0, 0.5], [1.0, 1.0], [bad, 0.5]])
    with pytest.raises(MirrorError, match=rf"^query point 2 \(\[{bad}, 0\.5\]\) is not finite$"):
        query(kite, x=x)


def test_barycentric_vertex_exact(kite):
    x = np.array([[4.0, 0.0]])
    sid = locate(kite, x)
    lam = barycentric(kite, sid, x)
    expect = np.zeros((1, 3))
    expect[0, list(kite.simplices[sid[0]]).index(1)] = 1.0
    np.testing.assert_array_equal(lam, expect)


def test_barycentric_centroid(kite):
    verts = kite.points[kite.simplices[0]]
    lam = barycentric(kite, [0], [verts.mean(axis=0)])
    np.testing.assert_allclose(lam, [[1 / 3] * 3], atol=1e-12)


def test_barycentric_edge_midpoint(kite):
    verts = kite.points[kite.simplices[0]]
    lam = barycentric(kite, [0], [(verts[0] + verts[1]) / 2])
    np.testing.assert_allclose(lam, [[0.5, 0.5, 0.0]], atol=1e-12)


def test_barycentric_outside_rejected(kite):
    with pytest.raises(MirrorError, match="row 1: point .* lies outside simplex 0"):
        barycentric(kite, [0, 0], [[1.0, 0.5], [50.0, 50.0]])


@pytest.mark.parametrize("sid", [-1, 3, 99])
def test_barycentric_rejects_simplex_out_of_range(kite, sid):
    # -1 is locate's answer outside the hull; numpy would read it as the last simplex.
    with pytest.raises(MirrorError, match=rf"row 1: simplex index {sid} out of range \[0, 3\)"):
        barycentric(kite, [0, sid], [[1.0, 0.5], [1.0, 0.5]])


@pytest.mark.parametrize("sid", [[0.0], [0, 0], 0])
def test_barycentric_needs_one_integer_index_per_row(kite, sid):
    with pytest.raises(MirrorError, match="need one integer simplex index per row"):
        barycentric(kite, sid, [[1.0, 0.5]])


def test_barycentric_partition_and_reconstruction():
    rng = np.random.default_rng(102)
    pts = rng.random((40, 2)) * 5
    tri = delaunay_triangulate(pts)
    scale = 5.0
    x = random_hull_points(tri, rng, 1000)
    sid = locate(tri, x)
    lam = barycentric(tri, sid, x)
    np.testing.assert_allclose(lam.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert lam.min() >= 0
    corners = tri.points[tri.simplices[sid]]
    np.testing.assert_allclose(np.einsum("nv,nvd->nd", lam, corners), x, atol=1e-10 * scale)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def test_interpolate_vertex_exact(kite):
    values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    surf = MirrorSurface(kite, values)
    np.testing.assert_array_equal(interpolate(surf, kite.points), values)


def test_interpolate_linear_precision():
    rng = np.random.default_rng(103)
    pts = rng.random((25, 2)) * 2
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal(3)
    tri = delaunay_triangulate(pts)
    surf = MirrorSurface(tri, pts @ a.T + b)
    x = random_hull_points(tri, rng, 300)
    np.testing.assert_allclose(interpolate(surf, x), x @ a.T + b, atol=1e-10)


def test_interpolate_centroid_is_mean(kite):
    values = np.array([1.0, 2.0, 3.0, 10.0])
    surf = MirrorSurface(kite, values)
    verts = kite.simplices[0]
    centroid = kite.points[verts].mean(axis=0)
    assert interpolate(surf, [centroid])[0, 0] == pytest.approx(values[verts].mean(), abs=1e-12)


def test_interpolate_outside_sentinel(kite):
    # The sentinel is a NaN row; surface values are finite, so it means only "outside".
    surf = MirrorSurface(kite, np.column_stack([np.arange(4.0), np.ones(4)]))
    got = interpolate(surf, [[9.0, 9.0], [4.0, 0.0]])
    assert np.isnan(got[0]).all()
    np.testing.assert_array_equal(got[1], [1.0, 1.0])


def test_cross_edge_continuity():
    rng = np.random.default_rng(104)
    pts = rng.random((30, 2))
    tri = delaunay_triangulate(pts)
    surf = MirrorSurface(tri, rng.standard_normal((30, 2)))
    edges = {}
    for sid, s in enumerate(tri.simplices.tolist()):
        for u, v in ((s[0], s[1]), (s[1], s[2]), (s[2], s[0])):
            edges.setdefault((min(u, v), max(u, v)), []).append(sid)
    shared = [(e, sids) for e, sids in edges.items() if len(sids) == 2][:34]
    assert len(shared) >= 33
    # Three points on each shared edge, each evaluated in both of its triangles.
    ends, sides = (np.repeat(part, 3, axis=0) for part in zip(*shared))
    t = rng.random((len(ends), 1))
    x = tri.points[ends[:, 0]] * t + tri.points[ends[:, 1]] * (1 - t)
    va, vb = (np.einsum("nv,nvc->nc", barycentric(tri, s, x), surf.values[tri.simplices[s]])
              for s in sides.T)
    np.testing.assert_allclose(va, vb, atol=1e-10)


def test_lipschitz_constant_properties():
    rng = np.random.default_rng(105)
    pts = rng.random((20, 2))
    vals = rng.standard_normal((20, 2))
    surf = MirrorSurface(delaunay_triangulate(pts), vals)
    lip = lipschitz_constant(surf)
    assert np.isfinite(lip)
    grads = simplex_gradients(surf)
    assert lip == pytest.approx(max(np.linalg.norm(g, 2) for g in grads))
    # interpolating the data forces at least the max pairwise slope
    slopes = []
    for i in range(20):
        for j in range(i + 1, 20):
            gap = np.linalg.norm(pts[i] - pts[j])
            slopes.append(np.linalg.norm(vals[i] - vals[j]) / gap)
    assert lip >= max(slopes) - 1e-9
    conds = jacobian_condition_numbers(surf)
    assert conds.shape == (surf.tri.n_simplices,)
    assert np.all(conds >= 1)


@given(point_sets, st.integers(1, 3), st.integers(0, 2**16))
def test_property_jacobian_figures_read_the_singular_values(pts, c, seed):
    surf = MirrorSurface(delaunay_triangulate(pts),
                         np.random.default_rng(seed).standard_normal((len(pts), c)))
    s = np.linalg.svd(simplex_gradients(surf), compute_uv=False)
    assert lipschitz_constant(surf) == s[:, 0].max()
    with np.errstate(divide="ignore"):
        same_bits(jacobian_condition_numbers(surf), s[:, 0] / s[:, -1])


def test_hull_boundary_distance():
    tri = delaunay_triangulate(np.array([[0.0, 0], [2, 0], [2, 2], [0, 2]]))
    dist = hull_boundary_distance(tri, [[1.0, 1.0], [0.0, 1.0], [0.5, 1.0]])
    np.testing.assert_allclose(dist, [1.0, 0.0, 0.5], rtol=0, atol=1e-15)


def test_hull_boundary_distance_1d():
    tri = delaunay_triangulate(np.array([[3.0], [1.0], [2.0]]))
    dist = hull_boundary_distance(tri, [[2.0], [2.5], [0.0]])
    np.testing.assert_array_equal(dist, [1.0, 0.5, 1.0])


@pytest.mark.parametrize(
    "shape, scale",
    [([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], s) for s in (1e-200, 1.0, 1e300)]
    + [([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 1e308)],
    ids=["1e-200", "1", "1e300", "pm1e308"],
)
@pytest.mark.parametrize("factor, near", [(0.5, True), (2.0, False)])
def test_near_hull_boundary_is_relative_to_extent(shape, scale, factor, near):
    unit = np.array(shape)
    extent = np.max(unit.max(axis=0) - unit.min(axis=0))
    tri = delaunay_triangulate(unit * scale)
    # Above the middle of the bottom edge, far from the other two edges.
    x = np.array([[unit[:2, 0].mean(), factor * BOUNDARY_TOL * extent]]) * scale
    assert near_hull_boundary(tri, x).tolist() == [near]


def test_axis_scaling_round_trip():
    rng = np.random.default_rng(106)
    pts = rng.random((10, 2)) * np.array([80.0, 0.8]) + np.array([10.0, 0.1])
    scaling = fit_axis_scaling(pts)
    scaled = scaling.transform(pts)
    assert scaled.min() == pytest.approx(0.0, abs=1e-12)
    assert scaled.max() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(scaling.inverse(scaled), pts, atol=1e-12)


@pytest.mark.parametrize("vals, message", [
    (np.ones((24, 1)), r"surface values must be an \(25, c\) matrix"),
    (np.r_[np.ones(24), np.nan], r"surface value 24 \(\[nan\]\) is not finite"),
    (np.ones((25, 0)), r"surface values must have at least one coordinate"),
], ids=["row-count", "not-finite", "no-column"])
def test_mirror_surface_values_checked(vals, message):
    grid = np.array([[a, b] for a in range(5) for b in range(5)], dtype=float)
    with pytest.raises(MirrorError, match=f"^{message}$"):
        MirrorSurface(delaunay_triangulate(grid), vals)


# The square of side 2e308 with its centre: each axis spans more than the float range.
SQUARE_AT_FLOAT_LIMIT = np.array([[-1.0, -1], [1, -1], [1, 1], [-1, 1], [0, 0]]) * 1e308


def test_simplex_wider_than_the_float_range_rejected():
    # Its LU overflows, so neither slogdet's sign nor inv's barycentric coordinates hold:
    # locate would put two of the square's four centroids in the wrong triangle.
    with pytest.raises(MirrorError, match=r"^simplex 0 \(\[0, 1, 4\]\) spans more than the float range$"):
        delaunay_triangulate(SQUARE_AT_FLOAT_LIMIT)


@pytest.mark.parametrize("points, axis", [
    (SQUARE_AT_FLOAT_LIMIT, 1),
    (SQUARE_AT_FLOAT_LIMIT * [1e-308, 1], 2),
    (SQUARE_AT_FLOAT_LIMIT[[0, 4, 2], :1], 1),
], ids=["square", "second-axis", "d=1"])
def test_axis_scaling_wider_than_the_float_range_rejected(points, axis):
    # Its scale would be inf, and every transformed point 0 or NaN.
    low, high = points[:, axis - 1].min(), points[:, axis - 1].max()
    message = f"parameter axis {axis} spans more than the float range ({low} to {high})"
    with pytest.raises(MirrorError, match=f"^{re.escape(message)}$"):
        fit_axis_scaling(points)
