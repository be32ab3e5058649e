"""distmirror: Euclidean mirror estimation for sampled distribution families.

A family of probability distributions indexed by a low-dimensional
parameter is observed only through finite samples.  This package estimates
a Euclidean "mirror" of the family -- a map from parameter space into R^c
whose Euclidean distances reproduce a chosen dissimilarity between the
distributions -- and uses it to recover the unknown parameters of
unlabeled sample sets.

Pipeline: exact empirical Wasserstein distances -> classical MDS embedding
(with realizability diagnostics) -> piecewise-linear surface over the
parameter space -> joint re-embedding and hull-constrained nearest-point
recovery.
"""

__version__ = "0.1.0"

from .core import Dataset, SampleSet, load_dataset, save_dataset
from .embedding import (
    MirrorEmbedding,
    RealizabilityReport,
    cmds,
    double_center,
    procrustes_align,
    realizability_diagnostics,
    select_dimension,
)
from .errors import (
    DatasetError,
    DegenerateInput,
    DuplicateParameters,
    MirrorError,
    NoPositiveSpectrum,
    UnequalSampleSizes,
    UnsupportedDimension,
)
from .recovery import RecoveryResult, joint_embed, leave_one_out, recover_parameter
from .sim import (
    FamilyVariant,
    GaussianFamilySpec,
    aligned_mirror_error,
    generate,
    run_mirror_experiment,
    run_recovery_experiment,
)
from .surface import (
    MirrorSurface,
    Triangulation,
    barycentric,
    delaunay_triangulate,
    interpolate,
    lipschitz_constant,
    locate,
)
from .transport import (
    DistanceMatrix,
    cost_matrix,
    distance_matrix,
    read_distance_matrix,
    wasserstein_exact,
    write_distance_matrix,
)

__all__ = [
    "__version__",
    "Dataset",
    "SampleSet",
    "load_dataset",
    "save_dataset",
    "MirrorEmbedding",
    "RealizabilityReport",
    "cmds",
    "double_center",
    "procrustes_align",
    "realizability_diagnostics",
    "select_dimension",
    "DatasetError",
    "DegenerateInput",
    "DuplicateParameters",
    "MirrorError",
    "NoPositiveSpectrum",
    "UnequalSampleSizes",
    "UnsupportedDimension",
    "RecoveryResult",
    "joint_embed",
    "leave_one_out",
    "recover_parameter",
    "FamilyVariant",
    "GaussianFamilySpec",
    "aligned_mirror_error",
    "generate",
    "run_mirror_experiment",
    "run_recovery_experiment",
    "MirrorSurface",
    "Triangulation",
    "barycentric",
    "delaunay_triangulate",
    "interpolate",
    "lipschitz_constant",
    "locate",
    "DistanceMatrix",
    "cost_matrix",
    "distance_matrix",
    "read_distance_matrix",
    "wasserstein_exact",
    "write_distance_matrix",
]
