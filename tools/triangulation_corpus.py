"""Print the triangulation of a fixed corpus of point sets, one line per input.

Usage::

    python tools/triangulation_corpus.py SRC_DIR > out.txt

``SRC_DIR`` is the directory that holds the ``distmirror`` package (``src`` in
a checkout).  Each line is ``<family>/<index> <result>``, where the result is
the SHA-256 of the simplices and the hull that ``delaunay_triangulate``
returns, or the exception's type and text.  The corpus is drawn from fixed
seeds, so running the script on two checkouts and diffing the outputs shows
every input whose triangulation, hull or error changed.

After the last line, two summaries go to stderr.  The first says, of the inputs
that triangulate, on how many ``locate`` misses one of the input's own vertices,
and on how many it puts a simplex centroid in any simplex but its own, or the
midpoint of a side two triangles share in neither of them.  Every such point
lies in the hull in exact arithmetic, in the simplex or simplices it was built
from, so both counts are point-location faults (ROADMAP item 10).  The second
says, in all and per family, on how many of the inputs that reached qhull it
ran twice: the run without facet merging was not settled, and the merged run
was made again (the ``surface`` docstring).  The script counts the
``scipy.spatial.Delaunay`` calls each input makes.  The summaries change
neither stdout nor the exit status.

Every outcome is printed, but the exit status is 1 if any input raised an
exception that is not a ``MirrorError``, or raised a warning while it was
triangulated or probed: every rejected input must be a located error of the
program's own, never a crash, and no input may overflow or divide by zero
unreported (ROADMAP aim 3).  Each warning is also printed to stderr, after its
input's line.  A run in which every input triangulated or raised a
``MirrorError``, and nothing warned, exits 0.

The families are the two simulation grids and their leave-one-out grids,
jittered and scaled lattices, regular polygons with and without their
centre, random and rounded clouds, tiny clusters inside the unit square,
near-collinear sets, d = 1 sets, a few malformed inputs, and shapes at the
ends of the float range (ROADMAP item 5).
"""

from __future__ import annotations

import hashlib
import sys
import warnings
from collections import Counter

import numpy as np


def simulation_grids(sim):
    for grid in (sim.mean_only_grid(), sim.mean_sd_grid()):
        yield grid
        for i in range(len(grid)):
            yield np.delete(grid, i, axis=0)


def lattices(rng, count=400):
    for _ in range(count):
        kx, ky = rng.integers(2, 8, size=2)
        step = np.array([rng.choice([1.0, 0.3, 2.5]), rng.choice([1.0, 0.7])])
        pts = np.array([[i, j] for i in range(kx) for j in range(ky)]) * step
        pts = pts + rng.choice([0.0, 1e-13, 1e-4, 0.1]) * rng.uniform(-1, 1, pts.shape)
        pts = (pts + rng.choice([0.0, 3.0, -1e3]))[rng.permutation(len(pts))]
        yield pts * 10.0 ** rng.integers(-6, 7)


def polygons(rng):
    for k in range(3, 25):
        ang = 2 * np.pi * np.arange(k) / k
        ring = np.column_stack([np.cos(ang), np.sin(ang)])
        for centre in (False, True):
            pts = np.vstack([ring, [[0.0, 0.0]]]) if centre else ring
            for _ in range(5):
                yield pts[rng.permutation(len(pts))] * 10.0 ** rng.integers(-6, 7)


def random_clouds(rng, count=300):
    for _ in range(count):
        pts = rng.random((int(rng.integers(3, 120)), 2))
        yield pts * 10.0 ** rng.uniform(-5, 4) + rng.choice([0.0, 1.0, -50.0])


def rounded_clouds(rng, count=200):
    # Few distinct values per axis: repeated points, collinear runs and cocircular quads.
    for _ in range(count):
        levels = int(rng.integers(2, 9))
        pts = np.round(rng.random((int(rng.integers(3, 40)), 2)) * levels) / levels
        if rng.random() < 0.5:
            pts = np.unique(pts, axis=0)
        yield pts[rng.permutation(len(pts))] * rng.choice([1.0, 1e-3, 7.0])


def tiny_clusters(rng):
    corners = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
    ang = np.pi / 3 * np.arange(6)
    hexagon = np.vstack([np.column_stack([np.cos(ang), np.sin(ang)]), [[0.0, 0.0]]])
    subgrid = np.array([[i, j] for i in range(3) for j in range(3)], dtype=float)
    for cluster in (hexagon, subgrid):
        for r in 10.0 ** -np.arange(1.0, 9.0):
            for centre in (0.5, 0.25):
                yield np.vstack([corners, centre + r * cluster])
    for _ in range(50):
        r = 10.0 ** rng.uniform(-8, -1)
        yield np.vstack([corners, rng.random(2) + r * rng.random((int(rng.integers(3, 12)), 2))])


def near_collinear(rng, count=150):
    for _ in range(count):
        m = int(rng.integers(3, 15))
        t = np.sort(rng.random(m)) if rng.random() < 0.5 else np.linspace(0.0, 1.0, m)
        direction = rng.normal(size=2)
        pts = t[:, None] * direction
        lift = rng.choice([0.0, 1e-15, 1e-13, 1e-12, 1e-11, 1e-9, 1e-6])
        pts[:, 1] += lift * rng.uniform(-1, 1, m)
        if rng.random() < 0.5:
            pts = np.vstack([pts, [[0.5 * direction[0], 0.5 * direction[1] + 1.0]]])
        yield pts[rng.permutation(len(pts))]


def one_dimensional(rng, count=60):
    for _ in range(count):
        pts = rng.random((int(rng.integers(2, 30)), 1)) * 10.0 ** rng.integers(-4, 5)
        if rng.random() < 0.3:
            pts = np.round(pts, 1)
        yield pts


def malformed():
    yield np.array([[0.0, 0], [1, 0], [np.nan, 1]])
    yield np.array([[0.0, np.inf], [1, 0], [0, 1]])
    yield np.array([[0.0], [np.nan], [2.0]])
    yield np.array([[0.0, 0], [1, 1]])
    yield np.array([[0.0]])
    yield np.zeros((5, 3))
    yield np.zeros((4, 0))
    yield np.zeros(4)


def float_limits():
    # Spans beyond the float range, just inside it, and at the subnormal end.
    square = np.array([[-1.0, -1], [1, -1], [1, 1], [-1, 1], [0, 0]])
    for scale in (1e308, 0.5e308, 1e-308, 1e-320):
        yield square * scale
    yield (square + 1) * 0.85e308
    yield np.array([[-1.0, 0], [1, 0], [0, 1]]) * 1e308
    yield np.array([[-1e308], [0.0], [1e308]])
    yield square * [1e308, 1.0]


def corpus(sim):
    rng = np.random.default_rng(20240601)
    yield "simulation-grids", simulation_grids(sim)
    yield "lattices", lattices(rng)
    yield "polygons", polygons(rng)
    yield "random-clouds", random_clouds(rng)
    yield "rounded-clouds", rounded_clouds(rng)
    yield "tiny-clusters", tiny_clusters(rng)
    yield "near-collinear", near_collinear(rng)
    yield "one-dimensional", one_dimensional(rng)
    yield "malformed", malformed()
    yield "float-limits", float_limits()


def outcome(surface, pts):
    """The input's result line, whether it is a triangulation or a MirrorError, and
    the triangulation (None if it raised)."""
    try:
        tri = surface.delaunay_triangulate(pts)
    except Exception as exc:  # every outcome is printed, errors included
        return f"{type(exc).__name__}: {exc}", isinstance(exc, surface.MirrorError), None
    digest = hashlib.sha256(np.ascontiguousarray(tri.simplices, dtype=np.int64).tobytes())
    digest.update(b"|" + np.ascontiguousarray(tri.hull, dtype=np.int64).tobytes())
    text = f"{tri.n_simplices} simplices, hull {len(tri.hull)}: {digest.hexdigest()[:32]}"
    return text, True, tri


def location_misses(surface, tri) -> tuple[bool, bool]:
    """Does ``locate`` miss one of the triangulation's own vertices; does it put a
    simplex centroid in any simplex but its own or, for d = 2, the midpoint of a
    side two triangles share in neither of them?

    The probes are averaged on the points divided by one power of two, which is
    exact and keeps every sum finite at the float limit."""
    e = surface._prescale_exponent(tri.points)
    points = np.ldexp(tri.points, -e)
    own = np.arange(tri.n_simplices)
    probes, owners = [points[tri.simplices].mean(axis=1)], [np.column_stack([own, own])]
    if tri.d == 2:
        tail, head, twin = surface._sides(tri.simplices)
        shared = np.flatnonzero(twin > np.arange(len(twin)))
        probes.append((points[tail[shared]] + points[head[shared]]) / 2)
        owners.append(np.column_stack([shared // 3, twin[shared] // 3]))
    found = surface.locate(tri, np.ldexp(np.vstack(probes), e))
    return (bool((surface.locate(tri, tri.points) < 0).any()),
            not (found[:, None] == np.vstack(owners)).any(axis=1).all())


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: triangulation_corpus.py SRC_DIR", file=sys.stderr)
        return 2
    sys.path.insert(0, argv[1])
    import scipy.spatial
    from distmirror import sim, surface

    # Every qhull run is counted: the d = 2 path imports Delaunay from scipy.spatial per call.
    qhull_runs, delaunay = [0], scipy.spatial.Delaunay

    def counted_delaunay(*args, **kwargs):
        qhull_runs[0] += 1
        return delaunay(*args, **kwargs)

    scipy.spatial.Delaunay = counted_delaunay
    status, triangulated, vertex_misses, inner_misses = 0, 0, 0, 0
    reached, reran = Counter(), Counter()  # per family: inputs that ran qhull, and twice
    for family, inputs in corpus(sim):
        for i, pts in enumerate(inputs):
            qhull_runs[0] = 0
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                text, ok, tri = outcome(surface, pts)
                print(f"{family}/{i} {text}")
                if tri is not None:
                    vertex, inner = location_misses(surface, tri)
                    triangulated += 1
                    vertex_misses += vertex
                    inner_misses += inner
            for w in caught:
                print(f"{family}/{i} warned: {w.category.__name__}: {w.message}", file=sys.stderr)
            status |= not ok or bool(caught)
            if qhull_runs[0]:
                reached[family] += 1
                reran[family] += qhull_runs[0] > 1
    print(f"locate misses an own vertex on {vertex_misses} of {triangulated} triangulated "
          f"inputs, and puts a centroid or shared-side midpoint outside its own simplices "
          f"on {inner_misses}", file=sys.stderr)
    print(f"qhull ran twice (the merged rerun) on {sum(reran.values())} of "
          f"{sum(reached.values())} inputs that reached it: "
          + ", ".join(f"{family} {reran[family]} of {n}" for family, n in reached.items()),
          file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
