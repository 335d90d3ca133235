"""Exact Fourier uniformity toolkit over F_2^n and F_3^n."""

from .errors import BudgetExceededError, InputError
from .exact_arith import format_rational, parse_rational
from .gf_core import (
    Coset,
    GFVector,
    PointSet,
    Subspace,
    canonical_rep,
    coset_reps,
    enumerate_subspaces,
    extend_span,
    gaussian_binomial,
    lift_from_quotient,
    perp,
    rref_basis,
)
from .increments import (
    IncrementStep,
    IncrementTrace,
    PipelineParams,
    RegularityResult,
    coordinate_subspace,
    density_increment,
    regularity_decompose,
)
from .pipeline import (
    F3Report,
    PipelineAttempt,
    PipelineReport,
    exhaustive_best_subspace,
    find_uniform_subspace,
    leading_one_set,
    scan_leading_one_set,
    subspace_scan_count,
)
from .ramsey import (
    AlmostColouring,
    UnionStructure,
    bucket_colouring,
    find_union_structure,
)
from .randsets import random_point_set, splitmix64
from .spectra import (
    Spectrum,
    UniformityReport,
    lift_class,
    restricted_spectrum,
    uniformity_sup,
    wht2,
)

__version__ = "0.1.0"

__all__ = [
    "AlmostColouring",
    "BudgetExceededError",
    "Coset",
    "F3Report",
    "GFVector",
    "IncrementStep",
    "IncrementTrace",
    "InputError",
    "PipelineAttempt",
    "PipelineParams",
    "PipelineReport",
    "PointSet",
    "RegularityResult",
    "Spectrum",
    "Subspace",
    "UniformityReport",
    "UnionStructure",
    "bucket_colouring",
    "canonical_rep",
    "coordinate_subspace",
    "coset_reps",
    "density_increment",
    "enumerate_subspaces",
    "exhaustive_best_subspace",
    "extend_span",
    "find_uniform_subspace",
    "find_union_structure",
    "format_rational",
    "gaussian_binomial",
    "leading_one_set",
    "lift_class",
    "lift_from_quotient",
    "parse_rational",
    "perp",
    "random_point_set",
    "regularity_decompose",
    "restricted_spectrum",
    "rref_basis",
    "scan_leading_one_set",
    "splitmix64",
    "subspace_scan_count",
    "uniformity_sup",
    "wht2",
]
