"""Exact Wasserstein p-distances between equal-size sample sets.

For two empirical measures with the same number n of atoms, the Wasserstein
p-distance reduces to a minimum over permutation couplings,

    W_p = min_pi ( (1/n) sum_i ||a_i - b_{pi(i)}||^p )^(1/p),

which is solved exactly: by pairing order statistics when q = 1 (optimal
for every p >= 1 in one dimension), and by linear sum assignment on the
dense cost matrix otherwise.  A q = 1 :class:`SampleSet` already holds its
samples in ascending order, so they are paired as held, with no sort and no
copy.  Entropic or other approximate solvers are deliberately absent; all
downstream tolerances assume exact costs.  The layer returns costs only: no
caller reads the coupling that attains one.  A cost too large for a float
is infinite, and :func:`distance_matrix` names the first pair whose cost is,
as it does the first pair of differing sets whose cost underflows to zero.
Every entry point first checks that its sets share q and n; an unequal n
names every set whose n differs from the first set's.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._parallel import map_deterministic
from .core import (SampleSet, _check_dimension, _first_repeat, _freeze, _located, read_table,
                   write_table)
from .errors import MirrorError, UnequalSampleSizes

__all__ = [
    "DistanceMatrix",
    "cost_matrix",
    "wasserstein_exact",
    "distance_matrix",
    "read_distance_matrix",
    "write_distance_matrix",
]

#: Largest asymmetry tolerated when reading an external distance matrix.
SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative matrix of pairwise empirical dissimilarities between distinct ids."""

    ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        repeat = _first_repeat(self.ids)
        if repeat:
            raise MirrorError(f"distance matrix id {self.ids[repeat[1]]!r} is used more than once")
        values = np.asarray(self.values, dtype=np.float64)
        m = len(self.ids)
        if values.shape != (m, m):
            raise MirrorError(
                f"distance matrix shape {values.shape} does not match {m} ids"
            )
        # Each check is one pass; only a failed one searches for its first entry.
        if not np.all(np.isfinite(values)):
            raise MirrorError("distance matrix contains non-finite entries, first "
                              + _first_entry(self.ids, values, ~np.isfinite(values)))
        if np.any(values < 0):
            raise MirrorError("distance matrix contains negative entries, first "
                              + _first_entry(self.ids, values, values < 0))
        if not np.array_equal(values, values.T):
            raise MirrorError("distance matrix is not exactly symmetric, first "
                              + _first_entry(self.ids, values, values != values.T, mirror=True))
        if np.any(np.diagonal(values) != 0):
            raise MirrorError("distance matrix has a nonzero diagonal, first "
                              + _first_entry(self.ids, values, np.diag(np.diagonal(values) != 0)))
        object.__setattr__(self, "values", _freeze(values))

    @property
    def m(self) -> int:
        return len(self.ids)


def _first_entry(ids: tuple[str, ...], values: np.ndarray, bad: np.ndarray, mirror: bool = False) -> str:
    """The first entry, in row-major order, that ``bad`` flags: its ids and value."""
    i, j = np.argwhere(bad)[0].tolist()
    text = f"d({ids[i]!r}, {ids[j]!r}) = {float(values[i, j])!r}"
    return text + f" != d({ids[j]!r}, {ids[i]!r}) = {float(values[j, i])!r}" if mirror else text


def _check_sets(sets: Sequence[SampleSet]) -> None:
    """Reject sets that exact transport cannot compare: none, or sets whose q or n differ.

    The permutation coupling needs every set to hold as many draws as the
    first; an unequal n names the first set and every set that differs from it.
    """
    if not sets:
        raise MirrorError("distance_matrix requires at least one sample set")
    _check_dimension(sets, "q")
    first = sets[0]
    offenders = [s for s in sets if s.n != first.n]
    if offenders:
        raise UnequalSampleSizes([first, *offenders])


def _check_order(p: float) -> None:
    """Reject a transport order outside [1, inf), NaN included."""
    if not 1 <= p < np.inf:
        raise ValueError(f"order p must satisfy 1 <= p < inf, got {p}")


def cost_matrix(a: SampleSet, b: SampleSet, p: float) -> np.ndarray:
    """Dense matrix of per-pair costs ||a_i - b_j||^p (Euclidean norm)."""
    _check_order(p)
    _check_sets((a, b))
    # Imported here: only q > 1 costs read scipy.spatial, which q = 1 data never loads.
    from scipy.spatial.distance import cdist

    if p == 2:
        return cdist(a.samples, b.samples, "sqeuclidean")
    d = cdist(a.samples, b.samples, "euclidean")
    return d if p == 1 else d**p


def _sorted_pair_cost(sa: np.ndarray, sb: np.ndarray, p: float) -> float:
    """Cost of pairing ascending 1-d samples in order."""
    # np.add.reduce is the pairwise sum np.mean takes, without its Python overhead.
    # The gaps are transformed in place; for p = 2 the sign needs no removing.
    gaps = sa - sb
    n = gaps.size
    if p == 2:
        gaps *= gaps
        return float(np.sqrt(np.add.reduce(gaps) / n))
    np.abs(gaps, out=gaps)
    if p == 1:
        return float(np.add.reduce(gaps) / n)
    gaps **= p
    return float((np.add.reduce(gaps) / n) ** (1.0 / p))


def _sorted_rows(s: SampleSet) -> np.ndarray:
    """The samples in lexicographic row order: equal for sets equal as multisets."""
    return s.samples[np.lexsort(s.samples.T)]


def wasserstein_exact(a: SampleSet, b: SampleSet, p: float = 1) -> float:
    """Minimal cost W_p over the permutation couplings of two equal-size sets.

    q = 1 pairs the samples as held, in ascending order; otherwise an exact
    linear-assignment solve on the cost matrix.  Costs for p = 2 are minimized on squared
    distances and rooted once at the end.  A cost that overflows is ``inf``.
    """
    _check_order(p)
    _check_sets((a, b))
    with np.errstate(over="ignore"):  # a cost past the float range is inf
        if a.q == 1:
            return _sorted_pair_cost(a.samples[:, 0], b.samples[:, 0], p)
        # Imported here: scipy.optimize takes about 0.15 s to load, and q = 1 never needs it.
        from scipy.optimize import linear_sum_assignment

        costs = cost_matrix(a, b, p)
        try:
            rows, cols = linear_sum_assignment(costs)
        except ValueError:  # "cost matrix is infeasible": every assignment costs inf
            return float("inf")
        return float(float(costs[rows, cols].mean()) ** (1.0 / p))


def distance_matrix(sets: Sequence[SampleSet], p: float = 1) -> DistanceMatrix:
    """Pairwise exact Wasserstein p-distances for a list of sample sets.

    Each unordered pair is computed once and mirrored, so the result is
    exactly symmetric.  For q = 1 the pairs read each set's ascending samples
    as held and run in the calling thread; only assignment pairs (q > 1) run
    in the worker pool.  The result is identical for any worker count.  A
    cost that overflows a float, or that underflows to zero between sets whose
    samples differ, is a MirrorError naming the first such pair.
    """
    _check_order(p)
    sets = list(sets)
    _check_sets(sets)
    m = len(sets)
    rows, cols = np.triu_indices(m, 1)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    if sets[0].q == 1:
        draws = [s.samples[:, 0] for s in sets]
        with np.errstate(over="ignore"):  # an overflow is inf, reported below
            costs = [_sorted_pair_cost(draws[i], draws[j], p) for i, j in pairs]
    else:
        costs = map_deterministic(lambda ij: wasserstein_exact(sets[ij[0]], sets[ij[1]], p), pairs)
    costs = np.array(costs, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(costs))
    if bad.size:
        i, j = pairs[bad[0]]
        raise MirrorError(f"the W{p:g} cost of {sets[i].id!r} and {sets[j].id!r} "
                          "overflows a float; rescale the samples")
    for k in np.flatnonzero(costs == 0).tolist():
        i, j = pairs[k]
        if not np.array_equal(_sorted_rows(sets[i]), _sorted_rows(sets[j])):
            raise MirrorError(f"the W{p:g} cost of {sets[i].id!r} and {sets[j].id!r} underflows "
                              "to zero, though their samples differ; rescale the samples")
    values = np.zeros((m, m), dtype=np.float64)
    values[rows, cols] = values[cols, rows] = costs
    return DistanceMatrix(ids=tuple(s.id for s in sets), values=values)


def write_distance_matrix(dm: DistanceMatrix, path: str | Path) -> None:
    """Write a distance matrix CSV: an id row, then m numeric rows."""
    write_table(path, dm.ids, dm.values)


def read_distance_matrix(path: str | Path) -> DistanceMatrix:
    """Read a distance matrix CSV, symmetrizing tiny asymmetries by averaging.

    Entries that already equal their mirror are kept as read, so a matrix
    written by :func:`write_distance_matrix` reads back bit for bit.
    """
    ids, values = read_table(path, header_ids=True)
    m = len(ids)
    if len(values) != m:
        raise MirrorError(f"{path}: expected {m} value rows, found {len(values)}")
    # Halves, whose sums and differences stay within the float range.
    half = values / 2
    asym = np.abs(half - half.T) > SYMMETRY_TOL / 2
    if asym.any():
        raise MirrorError(f"{path}: matrix asymmetric beyond tolerance {SYMMETRY_TOL:.0e}, first "
                          + _first_entry(ids, values, asym, mirror=True))
    diag = np.abs(np.diagonal(values)) > SYMMETRY_TOL
    if diag.any():
        raise MirrorError(f"{path}: nonzero diagonal entry beyond tolerance {SYMMETRY_TOL:.0e}, "
                          "first " + _first_entry(ids, values, np.diag(diag)))
    values = np.where(values == values.T, values, half + half.T)
    np.fill_diagonal(values, 0.0)
    with _located(str(path)):
        return DistanceMatrix(ids=ids, values=values)
