"""Exact-arithmetic model of a diagonal-connection Hilbert field.

The package verifies, at desk scale and mostly in exact rational
arithmetic, the pieces of the construction: the closed-form splitting
expansion of iterated covariant derivatives, the combinatorial
correspondences behind it, the smooth-structure axioms, the unbounded
growth of the curvature eigenvalues, and the quantitative decay that makes
the basis sections analytic.
"""

from .symbolic import (
    GaussianRational,
    Direction,
    WirtingerPolynomial,
    laplacian,
    ZERO,
    ONE,
    S,
    SBAR,
)
from .grid import CompactRectangle, evaluate_on_grid
from .field import (
    FieldSection,
    Connection,
    CurvatureConsistencyError,
    metric_pair,
    check_leibniz,
    check_metric_compat,
)
from .splittings import (
    Splitting,
    SplittingKind,
    CorrespondenceError,
    enumerate_splittings,
    all_splittings,
    classify,
    type1_bijection,
    type2_correspondence,
    splitting_term,
    splitting_expansion,
    IdentitySweep,
    verify_expansion_identity,
    identity_witness,
    check_splitting_recursion,
    direction_sequences,
)
from .analyticity import (
    AnalyticityCertificate,
    LevelSup,
    delta_from,
    derivative_bound,
    estimate_certificate,
    audit_certificate,
    covariant_level_sups,
    scaled_level_bound,
    decay_row,
    decay_witness,
    verify_term_type_bound,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianRational",
    "Direction",
    "WirtingerPolynomial",
    "laplacian",
    "ZERO",
    "ONE",
    "S",
    "SBAR",
    "CompactRectangle",
    "evaluate_on_grid",
    "FieldSection",
    "Connection",
    "CurvatureConsistencyError",
    "metric_pair",
    "check_leibniz",
    "check_metric_compat",
    "Splitting",
    "SplittingKind",
    "CorrespondenceError",
    "enumerate_splittings",
    "all_splittings",
    "classify",
    "type1_bijection",
    "type2_correspondence",
    "splitting_term",
    "splitting_expansion",
    "IdentitySweep",
    "verify_expansion_identity",
    "identity_witness",
    "check_splitting_recursion",
    "direction_sequences",
    "AnalyticityCertificate",
    "LevelSup",
    "delta_from",
    "derivative_bound",
    "estimate_certificate",
    "audit_certificate",
    "covariant_level_sups",
    "scaled_level_bound",
    "decay_row",
    "decay_witness",
    "verify_term_type_bound",
    "__version__",
]
