"""Parameter recovery for unlabeled sample sets.

The unlabeled set is embedded jointly with the m labeled sets; the mirror
surface is fitted on the labeled rows only, and the recovered parameter is
the point of the hull whose surface value is closest to the unlabeled row.

The minimization is exact: inside every simplex the squared distance is a
convex quadratic in the barycentric weights, so each face of the simplex is
solved in closed form (equality-constrained least squares) and the best
feasible solution wins.  No grid search is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np

from ._parallel import map_deterministic
from .core import SampleSet, _freeze, _matrix, write_table
from .embedding import MirrorEmbedding, cmds
from .errors import MirrorError
from .surface import MirrorSurface, delaunay_triangulate, near_hull_boundary
from .transport import DistanceMatrix, distance_matrix

__all__ = [
    "RecoveryResult",
    "joint_embed",
    "recover_parameter",
    "leave_one_out",
    "write_recovery_report",
]

@dataclass(frozen=True)
class RecoveryResult:
    """Recovered parameter with diagnostics.

    ``residual`` is the mirror-space distance between the fitted surface at
    ``x_hat`` and the unlabeled set's embedded position; ``on_boundary``
    flags recoveries pinned to the hull boundary.
    """

    x_hat: np.ndarray
    residual: float
    on_boundary: bool

    def __post_init__(self):
        object.__setattr__(self, "x_hat", _freeze(self.x_hat))


def joint_embed(
    labeled: Sequence[SampleSet],
    unlabeled: SampleSet,
    p: float = 1,
    *,
    c: int,
) -> MirrorEmbedding:
    """Embed m labeled sets plus one unlabeled set together into R^c.

    The last embedding row is the unlabeled set's mirror position.
    """
    if unlabeled.params is not None:
        raise MirrorError(f"set {unlabeled.id!r} is labeled; expected unlabeled")
    sets = list(labeled) + [unlabeled]
    return cmds(distance_matrix(sets, p), c)


#: Barycentric slack below which a face minimizer still counts as feasible.
FEASIBILITY_TOL = 1e-9


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, c) matrices."""
    return np.einsum("kc,kc->k", u, v)


def _face_candidates(
    surface: MirrorSurface, target: np.ndarray, faces: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form minimizers over faces of one size, batched across faces and simplices.

    ``faces`` is a (K, F, k) array: the vertex indices of F faces of each of
    the K simplices.  Returns (feasible mask, candidate points (K*F, d),
    squared objective values (K*F,)) for every (simplex, face) pair,
    simplex-major.  Faces whose quadratic is singular are reported
    infeasible: their minimum is also attained on a sub-face, which is
    enumerated separately.  An edge counts as singular relative to the
    largest squared length that edge slot takes over the K simplices.
    """
    n_simplices, n_faces, k = faces.shape
    vals = surface.values[faces].reshape(n_simplices * n_faces, k, -1)  # (K*F, k, c)
    pts = surface.tri.points[faces].reshape(n_simplices * n_faces, k, -1)  # (K*F, k, d)
    n = len(vals)
    weights = np.zeros((n, k))  # column j > 0 is vertex j's weight mu_j
    solvable = np.ones(n, dtype=bool)  # a vertex (k = 1) is its own minimizer
    if k > 1:
        # The Gram matrix of the directions from vertex 0, and their products with
        # the target's offset from it, one entry at a time.
        base = vals[:, 0, :]
        rhs = target[None, :] - base
        d1 = vals[:, 1, :] - base
        g11, p1 = _dot(d1, d1), _dot(d1, rhs)
        if k == 2:
            scale = np.maximum(g11.reshape(n_simplices, n_faces).max(axis=0, initial=0.0), 1.0)
            solvable = (g11.reshape(n_simplices, n_faces) > 1e-14 * scale).ravel()
            np.divide(p1, g11, out=weights[:, 1], where=solvable)
        else:  # k == 3, the full triangle
            d2 = vals[:, 2, :] - base
            g12, g22, p2 = _dot(d1, d2), _dot(d2, d2), _dot(d2, rhs)
            det = g11 * g22 - g12 ** 2
            norm = g11 * g22
            solvable = det > 1e-12 * np.maximum(norm, 1e-300)
            safe_det = np.where(solvable, det, 1.0)
            weights[:, 1] = (g22 * p1 - g12 * p2) / safe_det
            weights[:, 2] = (g11 * p2 - g12 * p1) / safe_det
    weights[:, 0] = 1.0 - weights[:, 1:].sum(axis=1)
    feasible = solvable & (weights.min(axis=1) >= -FEASIBILITY_TOL)
    weights = np.maximum(weights, 0.0)
    weights /= weights.sum(axis=1, keepdims=True)
    x = np.einsum("ki,kid->kd", weights, pts)
    diff = np.einsum("ki,kic->kc", weights, vals) - target[None, :]
    value = np.einsum("kc,kc->k", diff, diff)
    return feasible, x, value


def recover_parameter(
    psi: MirrorEmbedding, params: np.ndarray
) -> RecoveryResult:
    """Recover the parameter of the last embedding row from the first m rows.

    Builds the mirror surface over ``params`` (an (m, d) matrix matching
    embedding rows 0..m-1), then returns the hull point whose interpolated
    value is closest to the last row.  Every face of every simplex is solved
    in closed form, one batch per face size.  Equal minima resolve to the
    lowest simplex index, then to the lexicographically smallest parameter;
    only the candidates tied at the minimum value are sorted for that.
    """
    tri = delaunay_triangulate(params)
    m = tri.m
    if psi.coords.shape[0] != m + 1:
        raise MirrorError(
            f"embedding has {psi.coords.shape[0]} rows; expected m+1 = {m + 1}"
        )
    surface = MirrorSurface(tri, psi.coords[:m])
    target = psi.coords[m]

    # Each face size's vertex slots, then their vertex indices in every simplex.
    slots = [list(combinations(range(tri.d + 1), r)) for r in range(1, tri.d + 2)]
    faces = [tri.simplices[:, s] for s in slots]  # (K, F, k) each
    candidates = [_face_candidates(surface, target, f) for f in faces]
    feasible, x, value = (np.concatenate(parts) for parts in zip(*candidates))
    sids = np.concatenate([np.repeat(np.arange(tri.n_simplices), len(s)) for s in slots])
    # value is the primary key, so only the candidates tied at its minimum can win;
    # among them lexsort's last key rules: simplex, then x_1..x_d.
    tied = np.flatnonzero(feasible & (value == value[feasible].min()))
    best = tied[np.lexsort((*x[tied].T[::-1], sids[tied]))[0]]
    return RecoveryResult(
        x_hat=x[best],
        residual=float(np.sqrt(value[best])),
        on_boundary=bool(near_hull_boundary(tri, x[best][None])[0]),
    )


def _reordered_submatrix(dm: DistanceMatrix, held_out: int) -> DistanceMatrix:
    """Move one set to the last row/column, matching a fresh joint embedding."""
    m = dm.m
    order = [j for j in range(m) if j != held_out] + [held_out]
    values = dm.values[np.ix_(order, order)]
    return DistanceMatrix(ids=tuple(dm.ids[j] for j in order), values=values)


def leave_one_out(
    dm: DistanceMatrix,
    params: np.ndarray,
    *,
    c: int,
) -> list[RecoveryResult]:
    """Hold out each labeled set in turn and recover its parameter.

    ``dm`` holds the distances among the m labeled sets and ``params`` their
    (m, d) parameters, in the same order; the caller builds ``dm`` once and
    nothing here computes a distance.  Returns one recovery per set, in that
    order.  Hold-outs whose truth sits on (or outside) the reduced hull are
    reported like any other; callers can separate them via the distance of
    the truth to the reduced hull.  Each iteration sees exactly the matrix a
    fresh joint embedding of the remaining sets plus the held-out set would.

    Only the m embeddings are mapped over the worker pool, because their
    ``eigh`` releases the GIL; the recoveries, whose triangulation and face
    enumeration hold it, run in order in the calling thread (``_parallel.py``).
    """
    params = _matrix(params, "param", dm.m)
    m, d = params.shape
    if m < d + 3:
        raise MirrorError(f"leave-one-out needs m >= d+3 = {d + 3} labeled sets, got {m}")

    embeddings = map_deterministic(lambda i: cmds(_reordered_submatrix(dm, i), c), range(m))
    return [recover_parameter(psi, np.delete(params, i, axis=0))
            for i, psi in enumerate(embeddings)]


def write_recovery_report(
    results: Sequence[tuple[np.ndarray | None, RecoveryResult]],
    ids: Sequence[str],
    path: str | Path,
) -> None:
    """Write recovery rows: id, true params (blank if unknown), estimate,
    residual, boundary flag."""
    if not results:
        raise MirrorError("no recovery results to write")
    d = len(results[0][1].x_hat)
    header = (["id"] + [f"x_true_{k + 1}" for k in range(d)]
              + [f"x_hat_{k + 1}" for k in range(d)] + ["residual", "on_boundary"])
    write_table(path, header, (
        [set_id, *([""] * d if truth is None else truth), *rec.x_hat,
         rec.residual, str(rec.on_boundary).lower()]
        for set_id, (truth, rec) in zip(ids, results)
    ))
