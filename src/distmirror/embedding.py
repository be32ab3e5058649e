"""Classical multidimensional scaling of a distance matrix.

The doubly centered matrix B = -1/2 H D^(.2) H (entrywise square, H the
centering matrix) is a Gram matrix exactly when the distances are Euclidean;
its eigendecomposition yields coordinates whose pairwise distances reproduce
the input.  Negative eigenvalues measure the departure from Euclideanness:
they are clipped to zero in the coordinates but preserved in the reported
spectrum, which also drives scree-style dimension selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import _first_repeat, _freeze, _matrix, read_table, write_table
from .errors import MirrorError, NoPositiveSpectrum
from .transport import DistanceMatrix

__all__ = [
    "MirrorEmbedding",
    "RealizabilityReport",
    "double_center",
    "cmds",
    "realizability_diagnostics",
    "select_dimension",
    "procrustes_align",
    "write_embedding",
    "read_embedding",
    "write_spectrum",
]


@dataclass(frozen=True)
class MirrorEmbedding:
    """Coordinates of m points in R^c plus the full spectrum of B.

    Row i is the mirror estimate for set ``ids[i]``; the ids are distinct.
    Columns are mutually orthogonal, column-mean-zero, and column j has
    squared norm equal to max(spectrum[j], 0).  Every coordinate and
    eigenvalue is finite.
    """

    ids: tuple[str, ...]
    coords: np.ndarray
    spectrum: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        repeat = _first_repeat(self.ids)
        if repeat:
            raise MirrorError(f"embedding id {self.ids[repeat[1]]!r} is used more than once")
        coords = np.asarray(self.coords, dtype=np.float64)
        spectrum = np.asarray(self.spectrum, dtype=np.float64)
        m = len(self.ids)
        if coords.ndim != 2 or len(coords) != m:
            raise MirrorError(f"embedding coords shape {coords.shape} is not (m={m}, c)")
        if spectrum.shape != (m,):
            raise MirrorError("spectrum must contain one eigenvalue per point")
        bad = ~(np.isfinite(coords).all(axis=1) & np.isfinite(spectrum))
        if bad.any():
            i = int(np.argmax(bad))
            raise MirrorError(f"embedding row {self.ids[i]!r} has a non-finite coordinate or eigenvalue")
        object.__setattr__(self, "coords", _freeze(coords))
        object.__setattr__(self, "spectrum", _freeze(spectrum))

    @property
    def m(self) -> int:
        return len(self.ids)

    @property
    def c(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True)
class RealizabilityReport:
    """Scree diagnostics of a distance matrix's doubly centered spectrum.

    ``spectrum`` holds the m eigenvalues of B in descending order.  An exactly
    Euclidean matrix has a positive semidefinite B, so each eigenvalue below
    -tol (tol = 1e-9 * max|eigenvalue|) counts against realizability in
    ``count_negative``.  ``eigenvalue_share[j]`` is spectrum[j] / m, the
    per-dimension growth rate a user can threshold to judge whether dimension
    j+1 carries signal.
    """

    spectrum: np.ndarray

    @property
    def count_negative(self) -> int:
        tol = 1e-9 * float(np.max(np.abs(self.spectrum), initial=0.0))
        return int(np.sum(self.spectrum < -tol))

    @property
    def min_eigenvalue(self) -> float:
        return float(self.spectrum[-1]) if self.spectrum.size else 0.0

    @property
    def eigenvalue_share(self) -> np.ndarray:
        return self.spectrum / len(self.spectrum)


def double_center(delta: DistanceMatrix) -> np.ndarray:
    """Return B = -1/2 H D^(.2) H, exactly symmetric with zero row sums.

    Distances too large for B to fit in a float are a MirrorError.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf or nan, reported below
        d2 = delta.values**2
        row = d2.mean(axis=1, keepdims=True)
        col = d2.mean(axis=0, keepdims=True)
        grand = d2.mean()
        b = -0.5 * (d2 - row - col + grand)
        b = (b + b.T) / 2.0
    if not np.isfinite(b).all():
        raise MirrorError("the squared distances overflow a float; rescale the distances")
    return b


def _sorted_eig(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        evals, evecs = np.linalg.eigh(b)
    except np.linalg.LinAlgError as e:
        raise MirrorError(f"eigendecomposition failed: {e}") from e
    # eigh returns the eigenvalues in ascending order.
    return evals[::-1], evecs[:, ::-1]


def cmds(delta: DistanceMatrix, c: int | None) -> MirrorEmbedding:
    """Classical MDS of a distance matrix into R^c.

    Coordinates are eigenvectors of the doubly centered matrix scaled by the
    square roots of the top c eigenvalues (by algebraic value); negative
    eigenvalues among the top c yield zero columns.  Each column's sign is
    flipped so its entry of largest magnitude is positive, making output
    reproducible across platforms.  ``c=None`` takes
    :func:`select_dimension` of the same spectrum, so one eigendecomposition
    serves both the choice and the coordinates; that choice needs m >= 2.
    """
    m = delta.m
    if c is not None and not 1 <= c <= m:
        raise MirrorError(f"embedding dimension c={c} must satisfy 1 <= c <= m={m}")
    if c is None and m < 2:
        raise MirrorError(f"choosing the embedding dimension needs at least two sets, got m={m}")
    evals, evecs = _sorted_eig(double_center(delta))
    if c is None:
        c = select_dimension(evals)
    scale = np.sqrt(np.maximum(evals[:c], 0.0))
    coords = evecs[:, :c] * scale
    flip = coords[np.argmax(np.abs(coords), axis=0), np.arange(c)] < 0
    coords[:, flip] = -coords[:, flip]
    return MirrorEmbedding(ids=delta.ids, coords=coords, spectrum=evals)


def realizability_diagnostics(delta: DistanceMatrix) -> RealizabilityReport:
    """Spectrum-based check of how Euclidean a distance matrix is."""
    return RealizabilityReport(spectrum=_sorted_eig(double_center(delta))[0])


def select_dimension(spectrum: np.ndarray) -> int:
    """Pick the embedding dimension by the largest gap in the scree.

    Returns argmax over j in {1..m-1} of spectrum[j-1] - spectrum[j],
    restricted to positive spectrum[j-1]; ties break toward smaller
    dimension.  Scale-invariant by construction.
    """
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if spectrum.ndim != 1 or spectrum.size < 2:
        raise MirrorError("spectrum must be a vector of length >= 2")
    if np.any(np.diff(spectrum) > 0):
        raise MirrorError("spectrum must be sorted in descending order")
    if not np.any(spectrum > 0):
        raise NoPositiveSpectrum("no positive eigenvalue; nothing to embed")
    gaps = spectrum[:-1] - spectrum[1:]
    gaps = np.where(spectrum[:-1] > 0, gaps, -np.inf)
    return int(np.argmax(gaps)) + 1


def procrustes_align(estimate: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """The orthogonal matrix R minimizing ||reference - estimate @ R||_F.

    Both inputs are finite (m, c) matrices of the same shape, and both are
    column-mean-centered first (matching CMDS output conventions); R comes
    from the SVD of estimate^T reference and may include a reflection.
    """
    estimate = _matrix(estimate, "estimate point", k="c")
    reference = _matrix(reference, "reference point", *estimate.shape)
    est = estimate - estimate.mean(axis=0)
    ref = reference - reference.mean(axis=0)
    u, _, vt = np.linalg.svd(est.T @ ref)
    return u @ vt


def write_embedding(emb: MirrorEmbedding, path: str | Path, header_note: str | None = None) -> None:
    """Write embedding CSV ``id, y1..yc``; an optional note rides as a comment."""
    header = ["id"] + [f"y{j + 1}" for j in range(emb.c)]
    write_table(path, header, ([i, *row] for i, row in zip(emb.ids, emb.coords)), header_note)


def read_embedding(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read an embedding CSV back into (ids, coords)."""
    return read_table(path)


def write_spectrum(spectrum: np.ndarray, path: str | Path) -> None:
    """Write the eigenvalue spectrum as a single-column CSV for scree plots."""
    write_table(path, ["eigenvalue"], ([v] for v in np.asarray(spectrum, dtype=np.float64)))
