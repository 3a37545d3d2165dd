"""Geodesics between selfadjoint projections, at matrix scale and in an
exact block-periodic quotient model."""

from .numkernel import (
    HermEig,
    Tolerance,
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
    random_projection,
    random_unitary,
)
from .geodesics import (
    GeodesicSegment,
    curve_length,
    evaluate,
    exists_geodesic,
    minimal_exponent,
    minimal_geodesic,
    multi_geodesic_family,
    sample_curve,
)
from .blockmodel import (
    BlockOperator,
    DiagonalSequence,
    DichotomyCase,
    DichotomyResult,
    QuotientGeodesic,
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
