"""Every public function that takes a projection pair lets it in one way:
both matrices of one shape, validated as one stack, and every answer about
the index pair read off the same rank decisions."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from projgeo import projections
from projgeo.blockmodel import existence_dichotomy, quotient_geodesic
from projgeo.errors import DimMismatch, NoGeodesic, NotAProjection, NotPeriodic
from projgeo.geodesics import (
    exists_geodesic,
    minimal_exponent,
    minimal_geodesic,
    minimality_competitors,
    multi_geodesic_family,
    unique_minimal_check,
)
from projgeo.projections import (
    diff_sum,
    halmos_decompose,
    index_pair,
    pair_with_dims,
    random_projection,
)

ENTRIES = {
    "index_pair": index_pair,
    "exists_geodesic": exists_geodesic,
    "halmos_decompose": halmos_decompose,
    "minimal_exponent": minimal_exponent,
    "minimal_geodesic": lambda p, q: minimal_geodesic(p, q, samples=4),
    "unique_minimal_check": unique_minimal_check,
    "multi_geodesic_family": lambda p, q: multi_geodesic_family(p, q, [np.eye(1)]),
    "minimality_competitors": lambda p, q: minimality_competitors(p, q, 3, 0),
    "diff_sum": diff_sum,
    "existence_dichotomy": existence_dichotomy,
    "quotient_geodesic": quotient_geodesic,
}

HALF = np.diag([0.5, 0.0]).astype(complex)
LINE = np.diag([1.0, 0.0]).astype(complex)


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
class TestOneWayIn:
    def test_rejects_non_projection(self, entry):
        with pytest.raises(NotAProjection):
            entry(HALF, LINE)
        with pytest.raises(NotAProjection):
            entry(LINE, HALF)

    def test_rejects_mismatched_sizes(self, entry):
        with pytest.raises(DimMismatch):
            entry(LINE, np.eye(3))
        # the shapes are checked before either matrix is validated
        with pytest.raises(DimMismatch):
            entry(HALF, np.eye(3))

    def test_validates_the_pair_once_as_a_stack(self, monkeypatch, entry):
        p, q = pair_with_dims(1, 0, 1, 1, 2, [0.7], seed=6)
        calls = []
        real = projections.make_projection

        def counted(m):
            calls.append(np.array(m))
            return real(m)

        monkeypatch.setattr(projections, "make_projection", counted)
        entry(p, q)
        # other calls validate other matrices (random midpoints, say)
        assert sum(np.array_equal(m, [p, q]) for m in calls) == 1


def test_three_d_input_is_not_a_matrix():
    with pytest.raises(ValueError, match="expected a 2-d array"):
        halmos_decompose(np.array([LINE, LINE]), LINE)


def test_index_pair_of_a_non_projection_raises():
    # both used to answer: (0, 1) and True
    with pytest.raises(NotAProjection):
        index_pair(np.diag([0.5, 0.0]), np.diag([1.0, 0.0]))
    with pytest.raises(NotAProjection):
        exists_geodesic(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))


@st.composite
def projection_pairs(draw):
    """A pair with prescribed five-space dimensions (balanced, unbalanced
    or of mixed character), or two random projections of independent
    ranks."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        dims = draw(st.tuples(*[st.integers(0, 3)] * 4))
        angles = draw(st.lists(st.floats(0.05, np.pi / 2 - 0.05), max_size=3))
        assume(sum(dims) + len(angles) > 0)
        return pair_with_dims(*dims, 2 * len(angles), angles, seed=seed)
    n = draw(st.integers(1, 8))
    r, s = draw(st.integers(0, n)), draw(st.integers(0, n))
    return random_projection(n, r, seed), random_projection(n, s, (seed, 1))


def _raised(call):
    """The class of the ``NoGeodesic`` or ``NotPeriodic`` a call raises, or
    ``None`` when it returns."""
    try:
        call()
    except (NoGeodesic, NotPeriodic) as exc:
        return type(exc)
    return None


@settings(max_examples=80, deadline=None)
@given(pair=projection_pairs())
def test_one_index_everywhere(pair):
    p, q = pair
    ip = index_pair(p, q)
    ranks = [round(np.trace(m).real) for m in (p, q)]
    assert ip.d_plus - ip.d_minus == ranks[0] - ranks[1]
    assert halmos_decompose(p, q).dims[2:4] == tuple(ip)
    dichotomy = existence_dichotomy(p, q)
    assert dichotomy.quotient_index == ip
    balanced = ip.d_plus == ip.d_minus
    assert exists_geodesic(p, q) is balanced
    matrix_outcome = None if balanced else NoGeodesic
    assert _raised(lambda: minimal_exponent(p, q)) is matrix_outcome
    assert _raised(lambda: minimality_competitors(p, q, 1, 0)) is matrix_outcome
    # in the quotient, an unbalanced pair of infinite crossed nullities has a
    # geodesic that the block-periodic model cannot represent
    if balanced:
        quotient_outcome = None
    else:
        quotient_outcome = NotPeriodic if dichotomy.exists else NoGeodesic
    assert _raised(lambda: quotient_geodesic(p, q)) is quotient_outcome
