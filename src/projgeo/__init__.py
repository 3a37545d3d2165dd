"""Geodesics between selfadjoint projections, at matrix scale and in an
exact block-periodic quotient model."""

from .numkernel import (
    HermEig,
    Tolerance,
    default_tolerance,
    expm_skew,
    herm_eig,
    nullspace,
    op_norm,
)
from .projections import (
    DiffSum,
    FiveSpace,
    IndexPair,
    diff_sum,
    halmos_decompose,
    index_pair,
    make_projection,
    pair_with_dims,
    principal_angles,
    random_projection,
    random_unitary,
)
from .geodesics import (
    GeodesicSegment,
    TangentVector,
    UniquenessReport,
    curve_length,
    evaluate,
    exists_geodesic,
    geodesic_report,
    minimal_exponent,
    minimal_geodesic,
    minimality_competitors,
    multi_geodesic_family,
    sample_curve,
    unique_minimal_check,
    velocity,
)
from .blockmodel import (
    BlockOperator,
    DiagonalSequence,
    DichotomyCase,
    DichotomyResult,
    QuotientGeodesic,
    block_identity,
    block_zero,
    evaluate_block_geodesic,
    existence_dichotomy,
    lift_geodesic,
    lift_projection,
    lifting_surgery,
    minimal_norm_lift,
    quotient,
    quotient_geodesic,
    truncated_index_pairs,
)

__version__ = "0.1.0"
