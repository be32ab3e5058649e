"""Exception hierarchy shared across the package.

Every error raised on a data or geometry problem derives from
:class:`MirrorError`, so callers (and the CLI) can catch one base class.
"""


class MirrorError(Exception):
    """Base class for all distmirror errors."""


class DatasetError(MirrorError):
    """An input file failed to parse, or a dataset invariant was violated."""


class DuplicateParameters(DatasetError):
    """Two labeled sample sets carry the same parameter vector."""


class UnequalSampleSizes(MirrorError):
    """Sample sets do not share a common number of observations."""

    def __init__(self, sets):
        detail = ", ".join(f"{s.id}(n={s.n})" for s in sets)
        super().__init__(f"sample sets differ in size: {detail}")


class NoPositiveSpectrum(MirrorError):
    """All eigenvalues of the doubly centered matrix are non-positive."""


class DegenerateInput(MirrorError):
    """Points are unusable for triangulation (duplicates or collinear)."""


class UnsupportedDimension(MirrorError):
    """Parameter dimension outside the supported range {1, 2}."""
