"""Every public function that takes a projection pair lets it in one way:
both matrices of one shape, validated as one stack, and every answer about
the index pair read off the same rank decisions."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from projgeo import projections
from projgeo.blockmodel import BlockOperator, existence_dichotomy, quotient_geodesic
from projgeo.errors import (
    DimMismatch,
    InconsistentDims,
    NoGeodesic,
    NotAProjection,
    NotHermitian,
    NotPeriodic,
    ProjGeoError,
)
from projgeo.geodesics import (
    exists_geodesic,
    minimal_exponent,
    minimal_geodesic,
    multi_geodesic_family,
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
    "multi_geodesic_family": lambda p, q: multi_geodesic_family(p, q, [np.eye(1)]),
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

    def test_rejects_the_empty_pair(self, entry):
        empty = np.zeros((0, 0), dtype=complex)
        with pytest.raises(InconsistentDims, match="total dimension is zero"):
            entry(empty, empty)

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


def near_hermitian_pair(dims=(1, 1, 1, 1, 2)):
    """A pair that passes ``make_projection`` with ``P`` off Hermitian by
    3e-11, and its Hermitian twin: ``(raw, twin)``."""
    raw = [m.copy() for m in pair_with_dims(*dims, [0.4], seed=1)]
    raw[0][0, 1] += 3e-11
    return raw, [(m + m.conj().T) / 2 for m in raw]


def _outcome(call):
    """What a call gives: its value, or the class and text of its typed
    error."""
    try:
        return "value", call()
    except ProjGeoError as exc:
        return "raised", type(exc), str(exc)


def _same(a, b) -> bool:
    """Equality of results built from arrays, dataclasses, tuples, lists,
    dicts and scalars."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
            if f.compare
        )
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_accepted_pair_answers_as_its_hermitian_twin(entry):
    # make_projection accepts |P - P*| <= 1e-10; the kernels' 1e-12
    # symmetry check must not reject the pair once it is past the door
    raw, twin = near_hermitian_pair()
    got, want = _outcome(lambda: entry(*raw)), _outcome(lambda: entry(*twin))
    assert NotHermitian not in got + want
    assert _same(got, want)


@pytest.mark.parametrize(
    "dims,case",
    [((1, 1, 0, 0, 2), "FiniteFinite"), ((1, 1, 1, 1, 2), "InfiniteInfinite"),
     ((1, 1, 1, 0, 2), "Mixed")],
)
def test_supplied_lifts_keep_the_callers_tails(dims, case):
    raw, twin = near_hermitian_pair(dims)
    d = raw[0].shape[0]
    blocks = tuple(random_projection(d, r, 20 + r) for r in range(3))

    def lifts(pair):
        return tuple(BlockOperator(d, blocks[i:], m) for i, m in enumerate(pair))

    got = existence_dichotomy(*raw, lifts=lifts(raw))
    want = existence_dichotomy(*twin, lifts=lifts(twin))
    assert got.case.value == want.case.value == case
    assert (got.exists, got.quotient_index) == (want.exists, want.quotient_index)
    if got.witnesses is None:
        assert want.witnesses is None
        return
    for witness, twin_witness, tail in zip(got.witnesses, want.witnesses, raw):
        assert np.array_equal(witness.tail, tail)
        assert _same(witness.exceptional, twin_witness.exceptional)


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
    assert halmos_decompose(p, q).index == ip
    dichotomy = existence_dichotomy(p, q)
    assert dichotomy.quotient_index == ip
    balanced = ip.d_plus == ip.d_minus
    assert exists_geodesic(p, q) is balanced
    matrix_outcome = None if balanced else NoGeodesic
    assert _raised(lambda: minimal_exponent(p, q)) is matrix_outcome
    # in the quotient, an unbalanced pair of infinite crossed nullities has a
    # geodesic that the block-periodic model cannot represent
    if balanced:
        quotient_outcome = None
    else:
        quotient_outcome = NotPeriodic if dichotomy.exists else NoGeodesic
    assert _raised(lambda: quotient_geodesic(p, q)) is quotient_outcome
