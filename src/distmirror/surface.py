"""Piecewise-linear mirror surfaces over the parameter space.

The observed parameter points are triangulated (Delaunay for d = 2, sorted
segments for d = 1); a mirror value in R^c sits at every vertex and is
interpolated barycentrically inside each simplex.  Nothing is ever
extrapolated: every query takes an (N, d) array of points, answers each row,
and outside the convex hull answers -1 (``locate``) or a NaN row (the
evaluators), as scipy's ``find_simplex`` and ``LinearNDInterpolator`` do.

A penalized tensor-product B-spline fit is available as a smooth
alternative for d = 2.

For d = 2, qhull (``scipy.spatial.Delaunay``) builds the triangulation.
It and every geometric predicate run on the points translated and scaled
uniformly into the unit box, where the predicates use a static epsilon of
1e-12; inputs are assumed well-conditioned (grids and similar).  The result
does not depend on the points' overall coordinate scale, but the epsilon is
absolute in the unit box: a cluster of points far smaller than the points'
extent can be rejected ("non-positive area") or have its cells fanned where
they are not Delaunay at the cluster's own scale.  The tie-break among
equally Delaunay triangulations is
"each cocircular cell is fanned from its lowest-index vertex", making
triangulations reproducible across platforms and qhull versions.

A point is on the hull boundary when it lies within ``BOUNDARY_TOL`` times
the points' largest extent of it, compared in prescaled units (all divided
by one power of two), where neither side can overflow.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .core import _freeze, write_table
from .errors import DegenerateInput, MirrorError, UnsupportedDimension

__all__ = [
    "Triangulation",
    "MirrorSurface",
    "BSplineConfig",
    "BSplineSurface",
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
    "fit_bspline",
    "evaluate_bspline",
    "write_triangulation",
]

#: Barycentric slack accepted by point-location and clamping.
BARY_TOL = 1e-12
#: Epsilon for the orientation / in-circumcircle predicates in the unit box.
GEOM_EPS = 1e-12
#: Distance to the hull boundary, relative to the largest extent, that counts as on it.
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class Triangulation:
    """Simplicial cover of the convex hull of m parameter points.

    ``simplices`` holds (d+1)-tuples of point indices (counterclockwise for
    d = 2, sorted rows, lexicographic order); ``hull`` lists the boundary
    vertex indices, in counterclockwise cycle order for d = 2.
    """

    points: np.ndarray
    simplices: np.ndarray
    hull: np.ndarray
    _bary: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        simplices = np.asarray(self.simplices, dtype=np.intp)
        if points.ndim != 2:
            raise MirrorError("points must be an (m, d) matrix")
        d = points.shape[1]
        if simplices.ndim != 2 or simplices.shape[1] != d + 1 or not len(simplices):
            raise MirrorError("simplices must be a (K, d+1) index matrix with K >= 1")
        # Homogeneous inverse per simplex: lambda = _bary[k] @ [x, 1].
        homogeneous = np.ones((len(simplices), d + 1, d + 1))
        homogeneous[:, :d] = points[simplices].transpose(0, 2, 1)
        try:
            mats = np.linalg.inv(homogeneous)
        except np.linalg.LinAlgError:
            # slogdet runs the same LU and gives sign 0 on a zero pivot.
            idx = int(np.flatnonzero(np.linalg.slogdet(homogeneous)[0] == 0)[0])
            raise DegenerateInput(
                f"simplex {idx} ({simplices[idx].tolist()}) is degenerate"
            ) from None
        object.__setattr__(self, "points", _freeze(points))
        object.__setattr__(self, "simplices", _freeze(simplices, np.intp))
        object.__setattr__(self, "hull", _freeze(self.hull, np.intp))
        object.__setattr__(self, "_bary", _freeze(mats))

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
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != self.tri.m:
            raise MirrorError(
                f"value rows ({values.shape[0]}) must match point count ({self.tri.m})"
            )
        if not np.all(np.isfinite(values)):
            raise MirrorError("surface values contain non-finite entries")
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
    a, b, c = (points[tris[:, k]] for k in range(3))
    u, v = b - a, c - a
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def _incircle(points: np.ndarray, tris: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Positive where d[k] lies strictly inside the circumcircle of ccw tris[k]."""
    rows = points[tris] - points[d][:, None, :]
    sq = np.sum(rows * rows, axis=2)
    return np.linalg.det(np.concatenate([rows, sq[..., None]], axis=2))


def _drop_boundary_slivers(
    tris: np.ndarray, nbrs: np.ndarray, area: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Peel off boundary triangles whose area is under the floor.

    qhull keeps a point lying within the area floor inside a hull edge as
    the apex of a zero-width boundary triangle; removing that triangle makes
    the point a hull vertex, as it would be were it exactly on the edge.
    """
    alive = np.ones(len(tris), dtype=bool)
    while True:
        sliver = alive & (area <= GEOM_EPS) & ((nbrs < 0) | ~alive[nbrs]).any(axis=1)
        if not sliver.any():
            break
        alive &= ~sliver
    renumber = np.cumsum(alive) - 1
    nbrs = np.where((nbrs >= 0) & alive[nbrs], renumber[nbrs], -1)
    return tris[alive], nbrs[alive]


def _cycle(succ: dict[int, int]) -> list[int]:
    """The vertices of a successor map's cycle, from the lowest one."""
    cycle = [min(succ)]
    while len(cycle) < len(succ):
        cycle.append(succ[cycle[-1]])
    return cycle


def _boundary_edges(tris: np.ndarray, nbrs: np.ndarray, label: np.ndarray) -> tuple:
    """(label, source, target) of each ccw side whose neighbour is missing or labelled apart."""
    k, j = np.nonzero((nbrs < 0) | (label[nbrs] != label[:, None]))
    return label[k], tris[k, (j + 1) % 3], tris[k, (j + 2) % 3]


def _fan_cocircular_cells(unit: np.ndarray, tris: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
    """Re-triangulate every cocircular Delaunay cell as a fan from its lowest index.

    An interior edge is cocircular when the four points of its two
    triangles pass the incircle test within ``GEOM_EPS`` and form a strictly
    convex quad.  Triangles joined by such edges form one cell, and a
    triangle with no such edge is a cell of one.  Where a cell is a convex
    polygon with no inner vertex, its k triangles become the k-triangle fan;
    the result lists the kept triangles first, in input order, then the
    fans.  Any triangulation of a cocircular cell is Delaunay, so this only
    fixes the choice among them.  The static epsilon passes every quad of a
    cluster far smaller than the unit box, so such a cell may fail that
    shape; it keeps qhull's triangles.
    """
    k, j = np.nonzero(nbrs > np.arange(len(tris))[:, None])
    n = nbrs[k, j]
    near, tail, head = (tris[k, (j + i) % 3] for i in range(3))
    far = tris[n, np.argmax(nbrs[n] == k[:, None], axis=1)]
    # Flipping to the other diagonal must leave both triangles above the area floor.
    s1, s2 = (_orient(unit, np.column_stack([near, far, w])) for w in (tail, head))
    convex = (np.minimum(s1, s2) < -GEOM_EPS) & (np.maximum(s1, s2) > GEOM_EPS)
    cocircular = convex & (np.abs(_incircle(unit, tris[k], far)) <= GEOM_EPS)
    a, b = k[cocircular], n[cocircular]
    # Label each triangle with the lowest triangle index in its cell.
    label = np.arange(len(tris))
    while not np.array_equal(label[a], label[b]):
        low = np.minimum(label[a], label[b])
        np.minimum.at(label, a, low)
        np.minimum.at(label, b, low)
    cell, src, dst = _boundary_edges(tris, nbrs, label)
    # Every boundary vertex is a source, so the lowest source is the fan's hub.
    hub = np.full(len(tris), len(unit))
    np.minimum.at(hub, cell, src)
    spoke = (src != hub[cell]) & (dst != hub[cell])
    fan, fan_cell = np.column_stack([hub[cell], src, dst])[spoke], cell[spoke]
    # k triangles bound by k+2 edges from k+2 distinct sources form one
    # simple cycle with no inner vertex (Euler's formula).
    size = np.bincount(label, minlength=len(tris)) + 2
    sources = np.unique(cell * len(unit) + src) // len(unit)
    fanned = (np.bincount(cell, minlength=len(tris)) == size) & (
        np.bincount(sources, minlength=len(tris)) == size)
    fanned[fan_cell[_orient(unit, fan) <= GEOM_EPS]] = False
    return np.concatenate([tris[~fanned[label]], fan[fanned[fan_cell]]])


def _canonical_simplices(tris: np.ndarray) -> np.ndarray:
    """Rotate each row to start at its lowest index, then sort the rows."""
    width = tris.shape[1]
    shift = (np.argmin(tris, axis=1)[:, None] + np.arange(width)) % width
    tris = np.take_along_axis(tris, shift, axis=1)
    return tris[np.lexsort(tris.T[::-1])]


def delaunay_triangulate(points: np.ndarray) -> Triangulation:
    """Triangulate m parameter points in d = 1 or 2 dimensions.

    d = 1 produces consecutive segments of the sorted points.  d = 2 takes
    the Delaunay triangulation from qhull, computed like every predicate on
    the points translated and uniformly scaled into the unit box, so the
    result does not depend on the coordinate scale.  Each cocircular cell,
    where several triangulations are Delaunay, is fanned from its
    lowest-index vertex.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise MirrorError("points must be an (m, d) matrix")
    m, d = points.shape
    if d >= 3:
        raise UnsupportedDimension(
            f"triangulation supports d in {{1, 2}}, got d={d}"
        )
    if d < 1:
        raise MirrorError("points must have at least one coordinate")
    if not np.all(np.isfinite(points)):
        raise MirrorError("points contain non-finite values")
    if m < d + 1:
        raise DegenerateInput(f"need at least {d + 1} points for d={d}, got {m}")
    uniq = np.unique(points, axis=0)
    if uniq.shape[0] != m:
        raise DegenerateInput("points contain duplicates")

    if d == 1:
        order = np.argsort(points[:, 0], kind="stable")
        simplices = _canonical_simplices(np.column_stack([order[:-1], order[1:]]))
        hull = np.array([order[0], order[-1]], dtype=np.intp)
        return Triangulation(points=points, simplices=simplices, hull=hull)

    # Imported here: only d = 2 reads scipy.spatial, which d = 1 and q = 1 runs never load.
    from scipy.spatial import Delaunay, QhullError

    # The power-of-two prescale is exact and keeps the differences finite.
    unit = np.ldexp(points, -_prescale_exponent(points))
    unit = (unit - unit.min(axis=0)) / np.max(unit.max(axis=0) - unit.min(axis=0))
    try:
        qhull = Delaunay(unit)
    except QhullError:
        raise DegenerateInput("all points are collinear") from None
    if len(qhull.coplanar):
        p, _, v = qhull.coplanar[0].tolist()
        raise DegenerateInput(f"point {max(p, v)} coincides with point {min(p, v)}")
    tris = qhull.simplices.astype(np.intp)
    nbrs = qhull.neighbors.astype(np.intp)
    # Make every triangle ccw; neighbour j stays opposite vertex j.
    area = _orient(unit, tris)
    cw = area < 0
    tris[cw, 1:] = tris[cw, :0:-1]
    nbrs[cw, 1:] = nbrs[cw, :0:-1]
    tris, nbrs = _drop_boundary_slivers(tris, nbrs, np.abs(area))
    if len(tris) == 0:
        raise DegenerateInput("all points are collinear")
    # The ccw boundary edges; vertices lying on a hull edge are part of the cycle.
    _, src, dst = _boundary_edges(tris, nbrs, np.zeros(len(tris), dtype=np.intp))
    hull = _cycle(dict(zip(src.tolist(), dst.tolist())))
    tris = _fan_cocircular_cells(unit, tris, nbrs)

    thin = np.flatnonzero(_orient(unit, tris) <= GEOM_EPS)
    if thin.size:
        tri = tuple(tris[thin[0]].tolist())
        raise DegenerateInput(f"triangle {tri} has non-positive area; input too degenerate")
    simplices = _canonical_simplices(tris)
    return Triangulation(points=points, simplices=simplices, hull=hull)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


#: Floats a query holds at once.  ``locate`` holds simplices x (d+1) of them
#: per query point and the boundary distance hull edges x d, so each takes as
#: many rows at a time as fit in this many floats (128 KB), and at least one.
_QUERY_FLOATS = 1 << 14


def _rows(tri: Triangulation, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != tri.d:
        raise MirrorError(f"query points have shape {x.shape}, expected (N, {tri.d})")
    return x


def _blockwise(answer, x: np.ndarray, row_floats: int) -> np.ndarray:
    """``answer`` of x's rows, as many at a time as hold ``_QUERY_FLOATS`` floats."""
    step = max(1, _QUERY_FLOATS // row_floats)
    return np.concatenate([answer(x[i:i + step]) for i in range(0, len(x) or 1, step)])


def locate(tri: Triangulation, x: np.ndarray) -> np.ndarray:
    """Index of the simplex containing each row of x, or -1 outside the hull.

    Points on shared faces resolve to the lowest simplex index.
    """
    def block(xb):
        lam = (tri._bary @ np.column_stack([xb, np.ones(len(xb))])[:, None, :, None])[..., 0]
        inside = lam.min(axis=2) >= -BARY_TOL
        return np.where(inside.any(axis=1), inside.argmax(axis=1), -1)

    return _blockwise(block, _rows(tri, x), tri.n_simplices * (tri.d + 1))


def barycentric(tri: Triangulation, simplex: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of each row of x in its simplex, shape (N, d+1).

    Coordinates are clamped to [0, 1] and renormalized to sum to one;
    a vertex query returns an exact unit vector.  Raises on a simplex index
    outside [0, K), such as ``locate``'s -1, and on a point outside its
    simplex beyond tolerance.
    """
    x, sid = _rows(tri, x), np.asarray(simplex)
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
    tri, x = surface.tri, _rows(surface.tri, x)
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


def lipschitz_constant(surface: MirrorSurface) -> float:
    """Lipschitz constant of the interpolant over the hull.

    Equals the largest per-simplex Jacobian spectral norm; piecewise
    affinity plus continuity make this bound tight.
    """
    grads = simplex_gradients(surface)
    if grads.size == 0:
        return 0.0
    return float(np.linalg.norm(grads, ord=2, axis=(1, 2)).max())


def jacobian_condition_numbers(surface: MirrorSurface) -> np.ndarray:
    """Condition number of each simplex's Jacobian (inf where singular)."""
    s = np.linalg.svd(simplex_gradients(surface), compute_uv=False)
    return np.divide(s[:, 0], s[:, -1], out=np.full(len(s), np.inf), where=s[:, -1] != 0)


def _prescaled_boundary_distance(
    tri: Triangulation, x: np.ndarray
) -> tuple[np.ndarray, int, float]:
    """(distance from each row of x to the hull boundary, e, largest extent), all divided
    by 2**e of :func:`_prescale_exponent` so that nothing overflows or underflows."""
    e = _prescale_exponent(tri.points)
    pts = np.ldexp(tri.points, -e)
    extent = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    a = pts[tri.hull]  # for d = 2, edge k runs from hull vertex k to vertex k + 1
    ab = np.roll(a, -1, axis=0) - a
    denom = np.einsum("kj,kj->k", ab, ab)

    def block(x):
        x = np.ldexp(x, -e)[:, None, :]
        if tri.d == 1:
            return np.abs(x - a).min(axis=1)[:, 0]
        t = np.divide(np.einsum("nkj,kj->nk", x - a, ab), denom,
                      out=np.zeros((len(x), len(a))), where=denom != 0)
        nearest = a + np.clip(t, 0.0, 1.0)[..., None] * ab
        return np.linalg.norm(x - nearest, axis=2).min(axis=1)

    return _blockwise(block, _rows(tri, x), a.size), e, extent


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


def fit_axis_scaling(points: np.ndarray) -> AxisScaling:
    """Fit the affine map sending each axis's observed range onto [0, 1]."""
    points = np.asarray(points, dtype=np.float64)
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    span = np.where(span == 0, 1.0, span)
    return AxisScaling(offset=lo, scale=span)


# ---------------------------------------------------------------------------
# penalized tensor-product B-spline surface (d = 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BSplineConfig:
    """Smooth surface fit settings: degree >= 1, knots per axis >= 0, finite penalty >= 0."""

    degree: int = 3
    interior_knots: int = 8
    penalty: float = 1e-2

    def __post_init__(self):
        if not (self.degree >= 1 and self.interior_knots >= 0 and 0 <= self.penalty < np.inf):
            raise MirrorError(f"invalid spline config: {self}")


@dataclass(frozen=True)
class BSplineSurface:
    """Tensor-product spline surface with difference-penalized coefficients."""

    degree: int
    knots: tuple[np.ndarray, np.ndarray]
    coefficients: np.ndarray
    domain: Triangulation = field(repr=False, compare=False)


def _knot_vector(lo: float, hi: float, degree: int, interior: int) -> np.ndarray:
    """Uniform knots extended ``degree`` steps beyond each end.

    Uniform spacing keeps the coefficient-difference penalty's null space
    aligned with polynomials of the data coordinates (second-order
    differences annihilate exactly the linear functions), the standard
    difference-penalty construction.
    """
    core = np.linspace(lo, hi, interior + 2)
    h = (hi - lo) / (interior + 1)
    left = lo - h * np.arange(degree, 0, -1)
    right = hi + h * np.arange(1, degree + 1)
    return np.concatenate([left, core, right])


def _basis_rows(x: np.ndarray, knots: np.ndarray, degree: int) -> np.ndarray:
    # Imported here: only spline fitting reads scipy.interpolate, slow to load.
    from scipy.interpolate import BSpline

    lo, hi = knots[degree], knots[-degree - 1]
    clipped = np.clip(np.asarray(x, dtype=np.float64), lo, hi)
    return BSpline.design_matrix(clipped, knots, degree).toarray()


def _second_difference_penalty(n: int) -> np.ndarray:
    d2 = np.diff(np.eye(n), n=2, axis=0)
    return d2.T @ d2


def fit_bspline(
    points: np.ndarray,
    values: np.ndarray,
    config: BSplineConfig = BSplineConfig(),
) -> BSplineSurface:
    """Fit a penalized tensor-product spline to scattered surface values.

    Minimizes squared residual plus ``penalty`` times the squared
    second-order differences of the coefficient grid along each axis, the
    classic difference-penalty construction.  With zero penalty the design
    must have full rank, otherwise an error suggests raising the penalty.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise UnsupportedDimension("spline fitting requires d=2 parameter points")
    need = (config.degree + 1) ** 2
    if points.shape[0] < need:
        raise MirrorError(
            f"need at least (degree+1)^2 = {need} points, got {points.shape[0]}"
        )

    domain = delaunay_triangulate(points)
    values = MirrorSurface(domain, values).values
    knots_x = _knot_vector(points[:, 0].min(), points[:, 0].max(),
                           config.degree, config.interior_knots)
    knots_y = _knot_vector(points[:, 1].min(), points[:, 1].max(),
                           config.degree, config.interior_knots)
    bx = _basis_rows(points[:, 0], knots_x, config.degree)
    by = _basis_rows(points[:, 1], knots_y, config.degree)
    nx, ny = bx.shape[1], by.shape[1]
    design = np.einsum("ij,ik->ijk", bx, by).reshape(len(points), nx * ny)

    penalty_matrix = np.kron(_second_difference_penalty(nx), np.eye(ny)) + np.kron(
        np.eye(nx), _second_difference_penalty(ny)
    )
    normal = design.T @ design + config.penalty * penalty_matrix
    rhs = design.T @ values
    # Imported here: only spline fitting reads scipy.linalg, slow to load.
    import scipy.linalg

    try:
        # An ill-conditioned system is as singular as one that fails outright.
        # The filter is process state: fit_bspline runs in the calling thread only.
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            coef = scipy.linalg.solve(normal, rhs, assume_a="pos")
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgWarning):
        if config.penalty == 0:
            raise MirrorError(
                "rank-deficient spline design with zero penalty; "
                "set penalty > 0 to regularize"
            ) from None
        raise MirrorError(
            "singular spline system; data may be too sparse for the knot grid"
        ) from None
    return BSplineSurface(
        degree=config.degree,
        knots=(knots_x, knots_y),
        coefficients=coef.reshape(nx, ny, values.shape[1]),
        domain=domain,
    )


def evaluate_bspline(surf: BSplineSurface, x: np.ndarray) -> np.ndarray:
    """Spline value at each row of x, shape (N, c), NaN outside the hull like ``interpolate``."""
    x = _rows(surf.domain, x)
    inside = locate(surf.domain, x) >= 0
    out = np.full((len(x), surf.coefficients.shape[2]), np.nan)
    if inside.any():  # scipy's design matrix needs a point
        bx, by = (_basis_rows(x[inside, k], surf.knots[k], surf.degree) for k in (0, 1))
        out[inside] = np.einsum("ni,nj,ijc->nc", bx, by, surf.coefficients)
    return out


def write_triangulation(tri: Triangulation, path: str | Path) -> None:
    """Export vertices then simplex index tuples as one CSV."""
    width = tri.d + 1
    write_table(path, ["section", "index"] + [f"c{k + 1}" for k in range(width)], chain(
        (["point", i, *p, ""] for i, p in enumerate(tri.points)),
        (["simplex", k, *s] for k, s in enumerate(tri.simplices.tolist())),
    ))
