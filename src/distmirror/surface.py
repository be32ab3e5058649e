"""Piecewise-linear mirror surfaces over the parameter space.

The observed parameter points are triangulated (Delaunay for d = 2, sorted
segments for d = 1); a mirror value in R^c sits at every vertex and is
interpolated barycentrically inside each simplex.  Nothing is ever
extrapolated: every query takes an (N, d) array of points, answers each row,
and at a finite point outside the convex hull answers -1 (``locate``) or a NaN
row (``interpolate``), as scipy's ``find_simplex`` and ``LinearNDInterpolator``
do; a query row that is not finite is an error that names it (``core._matrix``).

For d = 2, qhull (``scipy.spatial.Delaunay``) builds the triangulation.
qhull and every geometric predicate run on the points translated and scaled
uniformly into the unit box, where the predicates use a static epsilon of
1e-12; inputs are assumed well-conditioned (grids and similar).  The
orientation and incircle predicates are closed-form float expansions whose
rounding error in the unit box stays below 2e-14, so the epsilon, not the
rounding, decides which quads count as cocircular.  Coincident points are
found before qhull runs, and the error names the earliest point that
repeats an earlier one and that point's first copy (``core._first_repeat``).
The result does not depend on the points' overall coordinate scale, but the
epsilon is absolute in the unit box: a cluster of points far smaller than
the points' extent can be rejected ("non-positive area") or have its cells
fanned where they are not Delaunay at the cluster's own scale.  The
tie-break among equally Delaunay triangulations is "each cocircular cell is
fanned from its lowest-index vertex", making triangulations reproducible
across platforms and qhull versions.

qhull runs once or twice.  The first run leaves out facet merging (``Q0``).
Merging joins the triangles of a cocircular cell, such as a grid's square,
which qhull then triangulates again and the fan (below) re-triangulates
anyway; on the 99-point grids of the mean-sd study it is about two thirds of
qhull's time.  That run's triangles are kept when it is
*settled*: qhull raised no error and left no point out; after orientation and
the sliver peel, every interior side is strictly Delaunay (incircle below
``-GEOM_EPS``) or a cocircular side of a cell that was fanned; no final
triangle is under the area floor; and ``Triangulation`` accepts the result.
Otherwise qhull runs again with scipy's default options, which merge facets,
and that run alone decides the triangles or the error, as it did when it was
the only run.  The result does not depend on which run produced it: a
settled triangulation has every interior side locally Delaunay, so it is a
Delaunay triangulation; its strictly Delaunay sides belong to every Delaunay
triangulation, so they cut the points into the same cocircular cells as the
merged run's sides do, and each cell's fan depends only on its vertices.
That argument holds up to ``GEOM_EPS``; the triangulation corpus and a
property test compare the two runs.

Of qhull's output only its triangles and its ``coplanar`` report are read.
In the run that decides the result, that report lists the points qhull left
out of every triangle, each with its nearest vertex, and its first entry is
an error naming the two: the point lies within qhull's precision of that
vertex.  The two are not equal, since coincident points are rejected before
qhull runs.  Which triangles share a side comes from one side table built
from the triangles alone (``_sides``): side 3k + j of triangle k runs from
its vertex j to vertex j + 1, and its twin is the side with the same two
ends, or -1 on the boundary.  The table finds the boundary slivers to peel,
the cocircular cells to fan and the boundary that ``Triangulation`` derives
its hull from.  A point that the peel leaves in no triangle is an error, raised
by ``Triangulation``, which needs every point to be a vertex.

A point is on the hull boundary when it lies within ``BOUNDARY_TOL`` times
the points' largest extent of it, compared in prescaled units (all divided
by one power of two), where neither side can overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .core import _first_repeat, _freeze, _matrix, write_table
from .errors import DegenerateInput, MirrorError, UnsupportedDimension

__all__ = [
    "Triangulation",
    "MirrorSurface",
    "AxisScaling",
    "fit_axis_scaling",
    "delaunay_triangulate",
    "locate",
    "barycentric",
    "interpolate",
    "simplex_gradients",
    "lipschitz_constant",
    "jacobian_condition_numbers",
    "hull_boundary_distance",
    "near_hull_boundary",
    "write_triangulation",
]

#: Barycentric slack accepted by point-location and clamping.
BARY_TOL = 1e-12
#: Epsilon for the orientation / in-circumcircle predicates in the unit box.
GEOM_EPS = 1e-12
#: Distance to the hull boundary, relative to the largest extent, that counts as on it.
BOUNDARY_TOL = 1e-9

# qhull's options for d = 2: scipy's default, which merges facets, and the same without
# merging (Q0).  scipy adds Qt (triangulated output) to both.
_QHULL_MERGED = "Qbb Qc Qz Q12"
_QHULL_UNMERGED = _QHULL_MERGED + " Q0"


def _sides(tris: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tail, head, twin) of each side of the (K, 3) triangles.

    Side 3k + j of triangle k runs from its vertex j to vertex j + 1 (mod 3),
    so the sides of a ccw triangle run counterclockwise.  The twin of a side
    is another side with the same two ends, or -1 where there is none; in a
    triangulation of ccw triangles it is the same side run the other way, in
    the triangle across it.
    """
    tail, head = tris.ravel(), tris[:, [1, 2, 0]].ravel()
    key = np.minimum(tail, head) * (tris.max() + 1) + np.maximum(tail, head)
    order = np.argsort(key, kind="stable")
    pair = np.flatnonzero(key[order[1:]] == key[order[:-1]])
    twin = np.full(len(key), -1)
    twin[order[pair]], twin[order[pair + 1]] = order[pair + 1], order[pair]
    return tail, head, twin


def _boundary(points: np.ndarray, simplices: np.ndarray) -> list[int]:
    """The hull vertices of nondegenerate simplices, ccw for d = 2 (see ``Triangulation``)."""
    if points.shape[1] == 1:
        # Segments lower end first, by coordinate: one path if each starts where the last one ends.
        x = points[:, 0]
        seg = np.where(x[simplices[:, :1]] < x[simplices[:, 1:]], simplices, simplices[:, ::-1])
        seg = seg[np.argsort(x[seg[:, 0]])]
        gap = np.flatnonzero(seg[1:, 0] != seg[:-1, 1])
        if gap.size:
            raise MirrorError(f"the segments are not one path after segment {seg[gap[0]].tolist()}")
        return [seg[0, 0], seg[-1, 1]]
    # A side that no other triangle shares is on the boundary.
    tail, head, twin = _sides(simplices)
    one = twin < 0
    succ = dict(zip(tail[one].tolist(), head[one].tolist()))
    # Walked from its lowest vertex, one closed cycle meets every boundary side once.
    cycle = [min(succ, default=int(simplices.min()))]
    for _ in range(one.sum() - 1):
        cycle.append(succ.get(cycle[-1], -1))
    if len(set(cycle)) != one.sum() or succ.get(cycle[-1]) != cycle[0]:
        raise MirrorError(f"the boundary walked from point {cycle[0]} is not one closed cycle "
                          f"of its {one.sum()} sides")
    # It must also turn once, as a pentagram of a pentagon's vertices does not.  Around
    # the cycle the changes of heading (atan2, whatever a side's length; halved points
    # leave no difference to overflow) sum to 0, so the turns are the left turns that
    # wrap the heading past pi less the right turns that wrap it back.
    step = np.diff(0.5 * points[cycle + cycle[:2]], axis=0)
    turn = np.diff(np.arctan2(step[:, 1], step[:, 0]))
    turns = np.count_nonzero(turn < -np.pi) - np.count_nonzero(turn > np.pi)
    if turns != 1:
        raise MirrorError(f"the boundary walked from point {cycle[0]} turns {turns} times, not once")
    return cycle


@dataclass(frozen=True)
class Triangulation:
    """Simplicial cover of the convex hull of m parameter points.

    ``simplices`` holds (d+1)-tuples of point indices (counterclockwise for
    d = 2, sorted rows, lexicographic order).  Every point is finite and a
    vertex of some simplex, every index names a point, and no simplex is
    degenerate or, for d = 2, clockwise.  ``hull`` is derived from the
    simplices: the faces that belong to exactly one simplex bound them, and
    it lists their vertices as one counterclockwise cycle from its lowest
    index for d = 2, or the two ends in coordinate order for d = 1.  A
    boundary that is not one closed cycle turning once (d = 2) or whose
    segments are not one path (d = 1) is an error.
    """

    points: np.ndarray
    simplices: np.ndarray
    hull: np.ndarray = field(init=False)

    def __post_init__(self):
        points = _matrix(self.points, "point")
        simplices = np.asarray(self.simplices, dtype=np.intp)
        m, d = points.shape
        if simplices.ndim != 2 or simplices.shape[1] != d + 1 or not len(simplices):
            raise MirrorError("simplices must be a (K, d+1) index matrix with K >= 1")
        bad = np.flatnonzero((simplices < 0) | (simplices >= m))
        if bad.size:
            at = ", ".join(map(str, np.unravel_index(bad[0], simplices.shape)))
            raise MirrorError(f"simplices[{at}] = {simplices.flat[bad[0]]} names no point "
                              f"in 0..{m - 1}")
        lone = np.flatnonzero(np.bincount(simplices.ravel(), minlength=m) == 0)
        if lone.size:
            raise DegenerateInput(f"point {lone[0]} is a vertex of no simplex")
        object.__setattr__(self, "points", _freeze(points))
        object.__setattr__(self, "simplices", _freeze(simplices, np.intp))
        # slogdet runs the LU of inv: sign 0 on a zero pivot, and for d = 2 the area's sign.
        # A pivot that underflows to zero is degenerate too, and one that overflows, in a
        # simplex wider than the float range, leaves both the sign and inv unusable.
        with np.errstate(over="ignore", divide="ignore"):  # each is reported below
            sign, logdet = np.linalg.slogdet(self._homogeneous())
        flat = (sign == 0) | (logdet == -np.inf)
        wide = ~flat & ~np.isfinite(logdet)
        bad = np.flatnonzero(flat | wide | (d == 2) & (sign < 0))
        if bad.size:
            k = bad[0]
            at = f"simplex {k} ({simplices[k].tolist()})"
            if flat[k]:
                raise DegenerateInput(f"{at} is degenerate")
            raise MirrorError(f"{at} spans more than the float range" if wide[k]
                              else f"{at} is clockwise")
        object.__setattr__(self, "hull", _freeze(_boundary(points, simplices), np.intp))

    def _homogeneous(self) -> np.ndarray:
        """Per simplex, its vertices as columns of coordinates over a row of ones."""
        homogeneous = np.ones((self.n_simplices, self.d + 1, self.d + 1))
        for i in range(self.d):
            homogeneous[:, i] = self.points[:, i][self.simplices]
        return homogeneous

    @cached_property
    def _bary(self) -> np.ndarray:
        """Homogeneous inverse per simplex, lambda = _bary[k] @ [x, 1], computed on first use."""
        return _freeze(np.linalg.inv(self._homogeneous()))

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def n_simplices(self) -> int:
        return self.simplices.shape[0]


@dataclass(frozen=True)
class MirrorSurface:
    """A triangulation with a mirror value in R^c at every vertex."""

    tri: Triangulation
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        values = _matrix(values[:, None] if values.ndim == 1 else values, "surface value",
                         self.tri.m, "c")
        object.__setattr__(self, "values", _freeze(values))

    @property
    def c(self) -> int:
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# geometric predicates (d = 2)
# ---------------------------------------------------------------------------


def _prescale_exponent(points: np.ndarray) -> int:
    """Exponent e with every |coordinate| < 2**e; dividing by 2**e is exact."""
    return int(np.frexp(np.max(np.abs(points), initial=0.0))[1])


def _orient(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Twice the signed area of each row (a, b, c); > 0 means counterclockwise."""
    # Gathered per coordinate: one (3, E) row per vertex slot.
    x, y = points[:, 0][tris.T], points[:, 1][tris.T]
    return (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])


def _incircle(points: np.ndarray, tris: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Positive where d[k] lies strictly inside the circumcircle of ccw tris[k].

    The determinant of the rows (x, y, x^2 + y^2) of the triangle's vertices
    relative to d[k], expanded in closed form along its last column, as
    Shewchuk's (1997) float incircle test evaluates it.  Its forward error,
    the roundings of the differences included, is at most (10 + 96 eps) eps
    times the same expansion taken over absolute values (eps = 2**-53).  In
    the unit box that expansion is at most 12, so the error is below 1.4e-14,
    far below ``GEOM_EPS``.
    """
    x = points[:, 0][tris.T] - points[d, 0]
    y = points[:, 1][tris.T] - points[d, 1]
    lift = x * x + y * y
    return (lift[0] * (x[1] * y[2] - y[1] * x[2])
            - lift[1] * (x[0] * y[2] - y[0] * x[2])
            + lift[2] * (x[0] * y[1] - y[0] * x[1]))


def _drop_boundary_slivers(tris: np.ndarray, area: np.ndarray) -> np.ndarray:
    """Peel off boundary triangles whose area is under the floor.

    qhull keeps a point lying within the area floor inside a hull edge as
    the apex of a zero-width boundary triangle; removing that triangle makes
    the point a hull vertex, as it would be were it exactly on the edge.  A
    side is exposed when no live triangle lies across it.
    """
    thin = area <= GEOM_EPS
    if not thin.any():
        return tris
    twin = _sides(tris)[2]
    alive = np.ones(len(tris), dtype=bool)
    while True:
        sliver = thin & alive & ((twin < 0) | ~alive[twin // 3]).reshape(-1, 3).any(axis=1)
        if not sliver.any():
            break
        alive &= ~sliver
    return tris[alive]


def _fan_cocircular_cells(unit: np.ndarray, tris: np.ndarray) -> tuple[np.ndarray, bool]:
    """Re-triangulate every cocircular Delaunay cell as a fan from its lowest index.

    Adjacency comes from the side table of ``_sides``: each interior side is
    taken once, from the lower-numbered of its two triangles, and the vertex
    across it is read off its twin.  An interior side is cocircular when the
    four points of its two triangles pass the incircle test within
    ``GEOM_EPS`` and form a strictly convex quad.  Triangles joined by such
    sides form one cell, and a triangle with no such side is a cell of one;
    a cell is bounded by the sides whose twin is missing or in another cell.
    Where a cell is a convex polygon with no inner vertex, its k triangles
    become the k-triangle fan; the result lists the kept triangles first, in
    input order, then the fans.  Any triangulation of a cocircular cell is
    Delaunay, so this only fixes the choice among them.  The static epsilon
    passes every quad of a cluster far smaller than the unit box, so such a
    cell may fail that shape; it keeps qhull's triangles.

    Also returns whether the input is settled (module docstring): every
    interior side is strictly Delaunay, with incircle below ``-GEOM_EPS``, or
    cocircular in a cell that was fanned.
    """
    m, n_tris = len(unit), len(tris)
    tail, head, twin = _sides(tris)
    # The vertex opposite side 3k + j of triangle k is its vertex j + 2 (mod 3).
    apex = tris[:, [2, 0, 1]].ravel()
    side = np.flatnonzero(twin > np.arange(len(twin)))
    near, far = apex[side], apex[twin[side]]
    # Flipping to the other diagonal must leave both triangles above the area floor.
    flips = np.column_stack([near, far, tail[side], near, far, head[side]]).reshape(-1, 3)
    s1, s2 = _orient(unit, flips).reshape(-1, 2).T
    convex = (np.minimum(s1, s2) < -GEOM_EPS) & (np.maximum(s1, s2) > GEOM_EPS)
    incircle = _incircle(unit, tris[side // 3], far)
    cocircular = convex & (np.abs(incircle) <= GEOM_EPS)
    a, b = side[cocircular] // 3, twin[side[cocircular]] // 3
    # Label each triangle with the lowest triangle index in its cell.
    label = np.arange(n_tris)
    while (label[a] != label[b]).any():
        low = np.minimum(label[a], label[b])
        np.minimum.at(label, a, low)
        np.minimum.at(label, b, low)
    cut = np.flatnonzero((twin < 0) | (label[twin // 3] != np.repeat(label, 3)))
    cell, src, dst = label[cut // 3], tail[cut], head[cut]
    # Every boundary vertex is a source, so the lowest source is the fan's hub.
    hub = np.full(n_tris, m)
    np.minimum.at(hub, cell, src)
    hub = hub[cell]
    spoke = (src != hub) & (dst != hub)
    fan, fan_cell = np.column_stack([hub, src, dst])[spoke], cell[spoke]
    # k triangles bound by k+2 edges from k+2 distinct sources form one
    # simple cycle with no inner vertex (Euler's formula).  Given k+2 edges,
    # the sources are distinct unless one (cell, source) key repeats.
    fanned = np.bincount(cell, minlength=n_tris) == np.bincount(label, minlength=n_tris) + 2
    key = np.sort(cell * m + src)
    fanned[key[1:][key[1:] == key[:-1]] // m] = False
    fanned[fan_cell[_orient(unit, fan) <= GEOM_EPS]] = False
    settled = bool(((incircle < -GEOM_EPS) | cocircular & fanned[label[side // 3]]).all())
    return np.concatenate([tris[~fanned[label]], fan[fanned[fan_cell]]]), settled


def _canonical_simplices(tris: np.ndarray) -> np.ndarray:
    """Rotate each row to start at its lowest index, then sort the rows."""
    width = tris.shape[1]
    shift = (np.argmin(tris, axis=1)[:, None] + np.arange(width)) % width
    tris = tris[np.arange(len(tris))[:, None], shift]
    return tris[np.lexsort(tris.T[::-1])]


def delaunay_triangulate(points: np.ndarray) -> Triangulation:
    """Triangulate m parameter points in d = 1 or 2 dimensions.

    d = 1 produces consecutive segments of the sorted points.  d = 2 takes
    the Delaunay triangulation from qhull, computed like every predicate on
    the points translated and uniformly scaled into the unit box, so the
    result does not depend on the coordinate scale.  Each cocircular cell,
    where several triangulations are Delaunay, is fanned from its
    lowest-index vertex.  qhull runs without facet merging first, and again
    with scipy's default options only when that run is not settled (module
    docstring); either way the result is the merged run's.
    """
    points = _matrix(points, "point")
    m, d = points.shape
    if d >= 3:
        raise UnsupportedDimension(
            f"triangulation supports d in {{1, 2}}, got d={d}"
        )
    if m < d + 1:
        raise DegenerateInput(f"need at least {d + 1} points for d={d}, got {m}")
    repeat = _first_repeat(map(tuple, points.tolist()))
    if repeat:
        raise DegenerateInput(f"point {repeat[1]} coincides with point {repeat[0]}")

    if d == 1:
        order = np.argsort(points[:, 0])
        simplices = _canonical_simplices(np.column_stack([order[:-1], order[1:]]))
        return Triangulation(points=points, simplices=simplices)

    # The power-of-two prescale is exact and keeps the differences finite.
    unit = np.ldexp(points, -_prescale_exponent(points))
    low = unit.min(axis=0)
    unit = (unit - low) / np.max(unit.max(axis=0) - low)
    try:
        tri, settled = _triangulate_unit(points, unit, _QHULL_UNMERGED)
    except MirrorError:
        settled = False
    return tri if settled else _triangulate_unit(points, unit, _QHULL_MERGED)[0]


def _triangulate_unit(points: np.ndarray, unit: np.ndarray,
                      options: str) -> tuple[Triangulation, bool]:
    """One qhull run over the unit-box points, peeled and fanned, and whether it is settled."""
    # Imported here: only d = 2 reads scipy.spatial, which d = 1 and q = 1 runs never load.
    from scipy.spatial import Delaunay, QhullError

    try:
        qhull = Delaunay(unit, qhull_options=options)
    except QhullError:
        raise DegenerateInput("all points are collinear") from None
    if len(qhull.coplanar):
        p, _, v = qhull.coplanar[0].tolist()
        raise DegenerateInput(f"point {p} lies within qhull's precision of point {v} "
                              "and is in no triangle")
    tris = qhull.simplices.astype(np.intp)
    area = _orient(unit, tris)
    cw = area < 0
    tris[cw, 1:] = tris[cw, :0:-1]
    tris = _drop_boundary_slivers(tris, np.abs(area))
    if len(tris) == 0:
        raise DegenerateInput("all points are collinear")
    tris, settled = _fan_cocircular_cells(unit, tris)

    thin = np.flatnonzero(_orient(unit, tris) <= GEOM_EPS)
    if thin.size:
        tri = tuple(tris[thin[0]].tolist())
        raise DegenerateInput(f"triangle {tri} has non-positive area; input too degenerate")
    return Triangulation(points=points, simplices=_canonical_simplices(tris)), settled


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


#: Floats a query holds at once.  ``locate`` holds simplices x (d+1) of them
#: per query point and the boundary distance hull edges x d, so each takes as
#: many rows at a time as fit in this many floats (128 KB), and at least one.
_QUERY_FLOATS = 1 << 14


def _blockwise(answer, x: np.ndarray, row_floats: int) -> np.ndarray:
    """``answer`` of x's rows, as many at a time as hold ``_QUERY_FLOATS`` floats."""
    step = max(1, _QUERY_FLOATS // row_floats)
    if len(x) <= step:
        return answer(x)
    return np.concatenate([answer(x[i:i + step]) for i in range(0, len(x), step)])


def locate(tri: Triangulation, x: np.ndarray) -> np.ndarray:
    """Index of the simplex containing each row of x, or -1 outside the hull.

    Points on shared faces resolve to the lowest simplex index.
    """
    def block(xb):
        lam = (tri._bary @ np.column_stack([xb, np.ones(len(xb))])[:, None, :, None])[..., 0]
        inside = lam.min(axis=2) >= -BARY_TOL
        return np.where(inside.any(axis=1), inside.argmax(axis=1), -1)

    return _blockwise(block, _matrix(x, "query point", "N", tri.d), tri.n_simplices * (tri.d + 1))


def barycentric(tri: Triangulation, simplex: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of each row of x in its simplex, shape (N, d+1).

    Coordinates are clamped to [0, 1] and renormalized to sum to one;
    a vertex query returns an exact unit vector.  Raises on a simplex index
    outside [0, K), such as ``locate``'s -1, and on a point outside its
    simplex beyond tolerance.
    """
    x, sid = _matrix(x, "query point", "N", tri.d), np.asarray(simplex)
    if sid.shape != x.shape[:1] or sid.dtype.kind not in "iu":
        raise MirrorError(f"need one integer simplex index per row, got {sid.dtype} {sid.shape}")
    bad = np.flatnonzero((sid < 0) | (sid >= tri.n_simplices))
    if bad.size:
        raise MirrorError(f"row {bad[0]}: simplex index {sid[bad[0]]} out of range "
                          f"[0, {tri.n_simplices})")
    vertex = (tri.points[tri.simplices[sid]] == x[:, None, :]).all(axis=2)
    at_vertex = vertex.any(axis=1, keepdims=True)
    lam = (tri._bary[sid] @ np.column_stack([x, np.ones(len(x))])[:, :, None])[..., 0]
    outside = np.flatnonzero(~at_vertex[:, 0] & (lam.min(axis=1) < -BARY_TOL))
    if outside.size:
        i = outside[0]
        raise MirrorError(f"row {i}: point {x[i].tolist()} lies outside simplex {sid[i]} "
                          f"(min coordinate {lam[i].min():.3e})")
    lam = np.clip(lam, 0.0, 1.0)
    return np.where(at_vertex, vertex, lam / lam.sum(axis=1, keepdims=True))


def interpolate(surface: MirrorSurface, x: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolant at each row of x, shape (N, c); NaN rows outside the hull.

    Exact at vertices, continuous across shared faces, and affine inside
    each simplex (so affine data is reproduced everywhere).
    """
    tri, x = surface.tri, _matrix(x, "query point", "N", surface.tri.d)
    sid = locate(tri, x)
    inside = sid >= 0
    lam = barycentric(tri, sid[inside], x[inside])
    out = np.full((len(x), surface.c), np.nan)
    out[inside] = (lam[:, None, :] @ surface.values[tri.simplices[sid[inside]]])[:, 0]
    return out


def simplex_gradients(surface: MirrorSurface) -> np.ndarray:
    """Per-simplex Jacobian of the interpolant, shape (K, c, d)."""
    tri = surface.tri
    # d lambda / d x is the first d columns of the homogeneous inverse.
    return np.swapaxes(surface.values[tri.simplices], 1, 2) @ tri._bary[:, :, : tri.d]


def _jacobian_singular_values(surface: MirrorSurface) -> np.ndarray:
    """Singular values of each simplex's Jacobian, descending, shape (K, min(c, d))."""
    return np.linalg.svd(simplex_gradients(surface), compute_uv=False)


def lipschitz_constant(surface: MirrorSurface) -> float:
    """Lipschitz constant of the interpolant over the hull.

    Equals the largest per-simplex Jacobian spectral norm; piecewise
    affinity plus continuity make this bound tight.
    """
    return float(_jacobian_singular_values(surface)[:, 0].max())


def jacobian_condition_numbers(surface: MirrorSurface) -> np.ndarray:
    """Condition number of each simplex's Jacobian (inf where singular)."""
    s = _jacobian_singular_values(surface)
    return np.divide(s[:, 0], s[:, -1], out=np.full(len(s), np.inf), where=s[:, -1] != 0)


def _prescaled_boundary_distance(
    tri: Triangulation, x: np.ndarray
) -> tuple[np.ndarray, int, float]:
    """(distance from each row of x to the hull boundary, e, largest extent), all divided
    by 2**e of :func:`_prescale_exponent` so that nothing overflows or underflows."""
    e = _prescale_exponent(tri.points)
    pts = np.ldexp(tri.points, -e)
    extent = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    # For d = 2, edge k runs from hull vertex k to vertex k + 1 (mod the hull's length).
    ring = pts[np.append(tri.hull, tri.hull[0])]
    a, ab = ring[:-1], ring[1:] - ring[:-1]
    denom = np.einsum("kj,kj->k", ab, ab)

    def block(x):
        x = np.ldexp(x, -e)[:, None, :]
        if tri.d == 1:
            return np.abs(x - a).min(axis=1)[:, 0]
        t = np.divide(np.einsum("nkj,kj->nk", x - a, ab), denom,
                      out=np.zeros((len(x), len(a))), where=denom != 0)
        gap = x - (a + np.clip(t, 0.0, 1.0)[..., None] * ab)
        return np.sqrt(np.add.reduce(gap * gap, axis=2)).min(axis=1)

    return _blockwise(block, _matrix(x, "query point", "N", tri.d), a.size), e, extent


def hull_boundary_distance(tri: Triangulation, x: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of x to the hull boundary."""
    dist, e, _ = _prescaled_boundary_distance(tri, x)
    return np.ldexp(dist, e)


def near_hull_boundary(tri: Triangulation, x: np.ndarray) -> np.ndarray:
    """Is each row of x within ``BOUNDARY_TOL`` times the points' largest extent
    of the hull boundary?"""
    dist, _, extent = _prescaled_boundary_distance(tri, x)
    return dist <= BOUNDARY_TOL * extent


# ---------------------------------------------------------------------------
# axis normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxisScaling:
    """Per-axis affine map of parameter coordinates onto [0, 1]."""

    offset: np.ndarray
    scale: np.ndarray

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.offset) / self.scale

    def inverse(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=np.float64) * self.scale + self.offset


def _axis_range(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each axis's (min, max); an axis wider than the float range is an error."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    with np.errstate(over="ignore"):  # an overflow is inf, reported below
        wide = np.flatnonzero(np.isinf(hi - lo))
    if wide.size:
        k = wide[0]
        raise MirrorError(f"parameter axis {k + 1} spans more than the float range "
                          f"({float(lo[k])} to {float(hi[k])})")
    return lo, hi


def fit_axis_scaling(points: np.ndarray) -> AxisScaling:
    """Fit the affine map sending each axis's observed range onto [0, 1]."""
    lo, hi = _axis_range(np.asarray(points, dtype=np.float64))
    return AxisScaling(offset=lo, scale=np.where(hi == lo, 1.0, hi - lo))


def write_triangulation(tri: Triangulation, path: str | Path) -> None:
    """Export vertices then simplex index tuples as one CSV."""
    width = tri.d + 1
    write_table(path, ["section", "index"] + [f"c{k + 1}" for k in range(width)], chain(
        (["point", i, *p, ""] for i, p in enumerate(tri.points)),
        (["simplex", k, *s] for k, s in enumerate(tri.simplices.tolist())),
    ))
