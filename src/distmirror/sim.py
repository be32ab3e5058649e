"""Gaussian simulation families with known mirrors and closed-form distances.

Two families over a planar parameter grid:

* ``MEAN_ONLY``: N(mu_x, 1) with mu_x = 0.1 ||x - (5.5, 5.5)||^2 on the
  integer grid of [1, 10]^2.  Equal variances make the Wasserstein
  1-distance |mu_x - mu_x'|, so the family admits an exact 1-d mirror
  equal to the mean function itself.
* ``MEAN_SD``: N(mu_x, sigma_x) with mu_x = 2 (0.1 + x1)^2 and
  sigma_x = 2 (0.1 + x2)^2 on a 10 x 10 grid of [0, 1]^2.  For univariate
  Gaussians the Wasserstein 2-distance is sqrt((mu - mu')^2 +
  (sigma - sigma')^2), giving an exact 2-d mirror (mu_x, sigma_x).

Sampling uses counter-based substreams keyed by (seed, grid index) and the
inverse normal CDF, so datasets are bit-identical for a given seed
regardless of generation order or platform.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from ._parallel import map_deterministic
from .core import Dataset, SampleSet, _freeze
from .embedding import MirrorEmbedding, cmds, procrustes_align
from .errors import MirrorError
from .recovery import RecoveryResult, leave_one_out
from .surface import delaunay_triangulate, locate, near_hull_boundary
from .transport import DistanceMatrix, distance_matrix

__all__ = [
    "FamilyVariant",
    "GaussianFamilySpec",
    "AlignedError",
    "mean_only_grid",
    "mean_sd_grid",
    "mean_only_mirror",
    "mean_sd_mirror",
    "gaussian_moments",
    "true_wasserstein",
    "true_distance_matrix",
    "generate",
    "aligned_mirror_error",
    "run_mirror_experiment",
    "run_recovery_experiment",
    "MirrorStudyResult",
    "RecoveryStudyResult",
]

MEAN_ONLY_CENTER = np.array([5.5, 5.5])


class FamilyVariant(str, Enum):
    MEAN_ONLY = "mean-only"
    MEAN_SD = "mean-sd"


def mean_only_grid() -> np.ndarray:
    """Integer grid of [1, 10]^2, 100 points."""
    axis = np.arange(1.0, 11.0)
    return np.array([[a, b] for a in axis for b in axis])


def mean_sd_grid() -> np.ndarray:
    """10 x 10 equally spaced grid of [0, 1]^2."""
    axis = np.linspace(0.0, 1.0, 10)
    return np.array([[a, b] for a in axis for b in axis])


@dataclass(frozen=True)
class GaussianFamilySpec:
    """One simulated family: variant, parameter grid, samples per set, seed."""

    variant: FamilyVariant
    grid: np.ndarray = None
    n: int = 100
    seed: int = 0

    def __post_init__(self):
        mean_only = self.variant is FamilyVariant.MEAN_ONLY
        default = mean_only_grid if mean_only else mean_sd_grid
        grid = np.asarray(default() if self.grid is None else self.grid, dtype=np.float64)
        if grid.ndim != 2 or grid.shape[1] != 2:
            raise MirrorError("grid must be an (m, 2) matrix")
        lo, hi = (1.0, 10.0) if mean_only else (0.0, 1.0)
        if grid.min() < lo or grid.max() > hi:
            raise MirrorError(
                f"{self.variant.value} grid must lie in [{lo}, {hi}]^2"
            )
        if self.n < 1:
            raise MirrorError("n must be at least 1")
        object.__setattr__(self, "grid", _freeze(grid))

    @property
    def m(self) -> int:
        return self.grid.shape[0]


def mean_only_mirror(x: np.ndarray) -> np.ndarray:
    """Exact 1-d mirror of the mean-only family: 0.1 ||x - center||^2."""
    x = np.asarray(x, dtype=np.float64)
    diff = x - MEAN_ONLY_CENTER
    return 0.1 * np.sum(diff * diff, axis=-1)


def mean_sd_mirror(x: np.ndarray) -> np.ndarray:
    """Exact 2-d mirror of the mean-sd family: (mu_x, sigma_x)."""
    x = np.asarray(x, dtype=np.float64)
    return 2.0 * (0.1 + x) ** 2


def gaussian_moments(variant: FamilyVariant, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean, standard deviation) of the family members at one point x or an (m, 2) grid."""
    x = np.asarray(x, dtype=np.float64)
    if variant is FamilyVariant.MEAN_ONLY:
        mu = mean_only_mirror(x)
        return mu, np.ones_like(mu)
    moments = mean_sd_mirror(x)
    return moments[..., 0], moments[..., 1]


def true_wasserstein(variant: FamilyVariant, x: np.ndarray, x2: np.ndarray) -> float:
    """Closed-form population distance between two family members.

    Univariate Gaussians: W2 = sqrt((mu - mu')^2 + (sigma - sigma')^2).
    With equal variances this is exactly |mu - mu'|, which is also W1.
    """
    mu_a, sd_a = gaussian_moments(variant, x)
    mu_b, sd_b = gaussian_moments(variant, x2)
    return float(np.hypot(mu_a - mu_b, sd_a - sd_b))


def true_distance_matrix(variant: FamilyVariant, grid: np.ndarray) -> DistanceMatrix:
    """Population distance matrix over a grid, from the closed forms."""
    mu, sd = gaussian_moments(variant, grid)
    values = np.hypot(mu[:, None] - mu, sd[:, None] - sd)
    return DistanceMatrix(ids=tuple(_set_id(i) for i in range(len(mu))), values=values)


def _set_id(i: int) -> str:
    return f"set{i:03d}"


def _substream_normal(seed: int, index: int, n: int) -> np.ndarray:
    """n standard normal draws from the (seed, index) substream.

    Uniforms come from a keyed counter-based generator and are pushed
    through the inverse CDF, which is deterministic to the ulp across
    platforms (no rejection branches).
    """
    # Imported here: only simulated draws read scipy.special, which loaded data never needs.
    from scipy.special import ndtri

    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    raw = gen.integers(0, np.iinfo(np.uint64).max, size=n, dtype=np.uint64, endpoint=True)
    uniforms = (raw.astype(np.float64) + 0.5) * 2.0**-64
    return ndtri(uniforms)


def generate(spec: GaussianFamilySpec) -> Dataset:
    """Draw the labeled dataset for a family spec (q = 1, one set per grid point)."""
    mu, sigma = gaussian_moments(spec.variant, spec.grid)

    def make(i: int) -> SampleSet:
        z = _substream_normal(spec.seed, i, spec.n)
        return SampleSet(
            id=_set_id(i), samples=(mu[i] + sigma[i] * z)[:, None], params=spec.grid[i]
        )

    return Dataset(labeled=tuple(map_deterministic(make, list(range(spec.m)))))


@dataclass(frozen=True)
class AlignedError:
    """Per-point errors after removing the translation and rotation ambiguity."""

    rmse: float
    max_error: float
    aligned: np.ndarray = field(repr=False, compare=False)


def aligned_mirror_error(estimate: MirrorEmbedding, truth: np.ndarray) -> AlignedError:
    """Compare an embedding to known mirror values up to Euclidean isometry.

    Both configurations are centered, the estimate is rotated onto the truth
    by orthogonal alignment, and per-point Euclidean errors are summarized.
    The aligned estimate keeps the truth's original offset so it can be
    plotted against the true surface directly.
    """
    truth = np.asarray(truth, dtype=np.float64)
    if truth.ndim == 1:
        truth = truth[:, None]
    if truth.shape != estimate.coords.shape:
        raise MirrorError(
            f"truth shape {truth.shape} does not match embedding "
            f"{estimate.coords.shape}"
        )
    truth_center = truth.mean(axis=0)
    est_centered = estimate.coords - estimate.coords.mean(axis=0)
    fit = procrustes_align(est_centered, truth - truth_center)
    aligned = est_centered @ fit.rotation + truth_center
    per_point = np.linalg.norm(aligned - truth, axis=1)
    return AlignedError(
        rmse=float(np.sqrt(np.mean(per_point**2))),
        max_error=float(np.max(per_point)),
        aligned=aligned,
    )


def _check_distinct(name: str, values: Sequence[int]) -> None:
    """Reject a study list that names a value twice; its rows would repeat."""
    repeated = [v for v, k in Counter(values).items() if k > 1]
    if repeated:
        raise MirrorError(f"{name} {repeated[0]} is given more than once")


@dataclass(frozen=True)
class MirrorStudyResult:
    """Error-curve rows plus one aligned surface per sample size."""

    grid: np.ndarray
    n_values: tuple[int, ...]
    seeds: tuple[int, ...]
    errors: np.ndarray  # (len(n_values), len(seeds)) aligned RMSE
    max_errors: np.ndarray
    surfaces: dict[int, np.ndarray]  # n -> (m,) aligned 1-d mirror (first seed)


def run_mirror_experiment(
    n_values: Sequence[int] = (10, 50, 100, 500),
    seeds: Sequence[int] = tuple(range(10)),
    grid: np.ndarray | None = None,
) -> MirrorStudyResult:
    """Mean-only family: estimate the 1-d mirror for each n and seed.

    Pipeline per run: generate -> exact W1 distance matrix -> 1-d embedding
    -> isometry-aligned error against the known mirror on the grid.
    """
    grid = GaussianFamilySpec(variant=FamilyVariant.MEAN_ONLY, grid=grid).grid
    _check_distinct("sample size", n_values)
    _check_distinct("seed", seeds)
    specs = [[GaussianFamilySpec(variant=FamilyVariant.MEAN_ONLY, grid=grid, n=n, seed=seed)
              for seed in seeds] for n in n_values]
    truth = mean_only_mirror(grid)[:, None]
    errors = np.zeros((len(n_values), len(seeds)))
    max_errors = np.zeros_like(errors)
    surfaces: dict[int, np.ndarray] = {}
    for a, row in enumerate(specs):
        for b, spec in enumerate(row):
            ds = generate(spec)
            emb = cmds(distance_matrix(ds.labeled, p=1), c=1)
            err = aligned_mirror_error(emb, truth)
            errors[a, b] = err.rmse
            max_errors[a, b] = err.max_error
            if b == 0:
                surfaces[int(spec.n)] = err.aligned[:, 0].copy()
    return MirrorStudyResult(
        grid=grid,
        n_values=tuple(int(n) for n in n_values),
        seeds=tuple(int(s) for s in seeds),
        errors=errors,
        max_errors=max_errors,
        surfaces=surfaces,
    )


@dataclass(frozen=True)
class RecoveryStudyResult:
    """Leave-one-out recovery scatter per sample size."""

    grid: np.ndarray
    n_values: tuple[int, ...]
    seed: int
    # n -> list of (x_true, RecoveryResult, truth_on_reduced_hull)
    runs: dict[int, list[tuple[np.ndarray, RecoveryResult, bool]]]


def _truth_on_reduced_hull(grid: np.ndarray, i: int) -> bool:
    """Does point i's truth sit on (or outside) the hull of the other points?

    Deleted hull vertices cannot be recovered exactly: their truth lies
    outside the reduced hull, and edge points sit exactly on it.
    """
    tri = delaunay_triangulate(np.delete(grid, i, axis=0))
    truth = grid[i:i + 1]
    return bool(locate(tri, truth)[0] < 0 or near_hull_boundary(tri, truth)[0])


def run_recovery_experiment(
    n_values: Sequence[int] = (10, 100, 1000, 10000),
    seed: int = 0,
    grid: np.ndarray | None = None,
) -> RecoveryStudyResult:
    """Mean-sd family: leave-one-out parameter recovery for each n.

    Pipeline per n: generate -> leave-one-out with exact W2 distances and a
    2-d mirror -> per-point recovery errors, with hull-boundary truths
    flagged rather than dropped.
    """
    grid = GaussianFamilySpec(variant=FamilyVariant.MEAN_SD, grid=grid).grid
    _check_distinct("sample size", n_values)
    specs = [GaussianFamilySpec(variant=FamilyVariant.MEAN_SD, grid=grid, n=n, seed=seed)
             for n in n_values]
    hull_flags = [_truth_on_reduced_hull(grid, i) for i in range(len(grid))]
    runs: dict[int, list[tuple[np.ndarray, RecoveryResult, bool]]] = {}
    for spec in specs:
        recs = leave_one_out(distance_matrix(generate(spec).labeled, p=2), grid, c=2)
        runs[int(spec.n)] = list(zip(grid, recs, hull_flags))
    return RecoveryStudyResult(
        grid=grid,
        n_values=tuple(int(n) for n in n_values),
        seed=int(seed),
        runs=runs,
    )
