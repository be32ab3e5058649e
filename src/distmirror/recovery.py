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
from .core import SampleSet, write_table
from .embedding import MirrorEmbedding, cmds
from .errors import MirrorError
from .surface import (MirrorSurface, delaunay_triangulate, jacobian_condition_numbers,
                      near_hull_boundary)
from .transport import DistanceMatrix, distance_matrix

__all__ = [
    "RecoveryResult",
    "joint_embed",
    "recover_parameter",
    "leave_one_out",
    "recovery_condition_diagnostics",
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


def _face_candidates(
    vvals: np.ndarray, vpts: np.ndarray, target: np.ndarray, face: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form minimizers over one face pattern, batched across simplices.

    ``vvals`` is (K, d+1, c) vertex mirror values, ``vpts`` (K, d+1, d)
    vertex coordinates.  Returns (feasible mask, candidate points (K, d),
    squared objective values (K,)).  Faces whose quadratic is singular are
    reported infeasible: their minimum is also attained on a sub-face, which
    is enumerated separately.
    """
    k = len(face)
    vals = vvals[:, list(face), :]  # (K, k, c)
    pts = vpts[:, list(face), :]  # (K, k, d)
    n_simplices = vvals.shape[0]
    if k == 1:
        weights = np.ones((n_simplices, 1))
        feasible = np.ones(n_simplices, dtype=bool)
    else:
        base = vals[:, 0, :]
        directions = vals[:, 1:, :] - base[:, None, :]  # (K, k-1, c)
        rhs = target[None, :] - base  # (K, c)
        gram = np.einsum("kic,kjc->kij", directions, directions)
        proj = np.einsum("kic,kc->ki", directions, rhs)
        if k == 2:
            g = gram[:, 0, 0]
            solvable = g > 1e-14 * np.maximum(g.max(initial=0.0), 1.0)
            mu = np.zeros((n_simplices, 1))
            np.divide(proj[:, 0], g, out=mu[:, 0], where=solvable)
        else:  # k == 3, the full triangle
            det = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] ** 2
            norm = gram[:, 0, 0] * gram[:, 1, 1]
            solvable = det > 1e-12 * np.maximum(norm, 1e-300)
            mu = np.zeros((n_simplices, 2))
            safe_det = np.where(solvable, det, 1.0)
            mu[:, 0] = (gram[:, 1, 1] * proj[:, 0] - gram[:, 0, 1] * proj[:, 1]) / safe_det
            mu[:, 1] = (gram[:, 0, 0] * proj[:, 1] - gram[:, 0, 1] * proj[:, 0]) / safe_det
        weights = np.concatenate([1.0 - mu.sum(axis=1, keepdims=True), mu], axis=1)
        feasible = solvable & (weights.min(axis=1) >= -FEASIBILITY_TOL)
        weights = np.clip(weights, 0.0, None)
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
    value is closest to the last row.  Equal minima resolve to the lowest
    simplex index, then to the lexicographically smallest parameter.
    """
    params = np.ascontiguousarray(params, dtype=np.float64)
    if params.ndim != 2:
        raise MirrorError("params must be an (m, d) matrix")
    m = params.shape[0]
    if psi.coords.shape[0] != m + 1:
        raise MirrorError(
            f"embedding has {psi.coords.shape[0]} rows; expected m+1 = {m + 1}"
        )
    tri = delaunay_triangulate(params)
    surface = MirrorSurface(tri, psi.coords[:m])
    target = psi.coords[m]

    d = tri.d
    vvals = surface.values[tri.simplices]  # (K, d+1, c)
    vpts = tri.points[tri.simplices]  # (K, d+1, d)
    faces = [f for r in range(1, d + 2) for f in combinations(range(d + 1), r)]
    candidates = [_face_candidates(vvals, vpts, target, f) for f in faces]
    feasible, x, value = (np.concatenate(parts) for parts in zip(*candidates))
    sids = np.tile(np.arange(tri.n_simplices), len(faces))[feasible]
    x, value = x[feasible], value[feasible]
    # lexsort's last key is the primary one: value, then simplex, then x_1..x_d.
    best = np.lexsort((*x.T[::-1], sids, value))[0]
    x_hat = x[best].copy()
    return RecoveryResult(
        x_hat=x_hat,
        residual=float(np.sqrt(value[best])),
        on_boundary=near_hull_boundary(tri, x_hat),
    )


def recovery_condition_diagnostics(psi: MirrorEmbedding, params: np.ndarray) -> np.ndarray:
    """Per-simplex condition numbers of the fitted surface's Jacobians.

    Whether the mirror is invertible enough for recovery cannot be tested
    from data; this reports how close each simplex's linear map comes to
    singular (values near 1 are well-conditioned, inf is flat).
    """
    params = np.ascontiguousarray(params, dtype=np.float64)
    m = params.shape[0]
    if psi.coords.shape[0] not in (m, m + 1):
        raise MirrorError("embedding rows must cover the parameter rows")
    surface = MirrorSurface(delaunay_triangulate(params), psi.coords[:m])
    return jacobian_condition_numbers(surface)


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
    """
    params = np.ascontiguousarray(params, dtype=np.float64)
    if params.ndim != 2 or len(params) != dm.m:
        raise MirrorError(f"params must be an ({dm.m}, d) matrix, got shape {params.shape}")
    m, d = params.shape
    if m < d + 3:
        raise MirrorError(f"leave-one-out needs m >= d+3 = {d + 3} labeled sets, got {m}")

    def run(i: int) -> RecoveryResult:
        psi = cmds(_reordered_submatrix(dm, i), c)
        return recover_parameter(psi, np.delete(params, i, axis=0))

    return map_deterministic(run, list(range(m)))


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
