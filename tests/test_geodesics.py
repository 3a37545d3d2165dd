import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projgeo import blockmodel, geodesics, projections
from projgeo.blockmodel import quotient_geodesic
from projgeo.errors import BadIndex, DimMismatch, NoGeodesic, NotUnitary, ProjGeoError
from projgeo.geodesics import (
    GeodesicSegment,
    codiagonal_residual,
    curve_length,
    evaluate,
    exists_geodesic,
    minimal_exponent,
    minimal_geodesic,
    minimality_competitors,
    multi_geodesic_family,
    sample_curve,
    unique_minimal_check,
)
from projgeo.numkernel import Tolerance, herm_eig, op_norm
from projgeo.projections import (
    index_pair,
    make_projection,
    pair_with_dims,
    random_projection,
    random_unitary,
)
from projgeo.suites import (
    BOUNDS,
    random_equal_index_pair,
    random_generic_pair,
)
from reference_pipeline import reference_competitors, reference_exponent

# the angle-based split against the old pipeline: exponents and competitor
# lengths agree to this absolute tolerance, well inside (0, pi/2)
REFERENCE_ATOL = 1e-12


def rotation_pair(theta):
    """Closed-form oracle family: P = diag(1,0), Q at angle theta."""
    c, s = np.cos(theta), np.sin(theta)
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)
    return p, q


def rotation_point(theta, t):
    """The projection onto the line at angle t*theta."""
    c, s = np.cos(t * theta), np.sin(t * theta)
    return np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)


def reference_curve(seg, eig=None):
    """The segment as a scalar curve, one matrix product chain per point,
    through the eigenpairs ``eig`` of ``-iZ`` (by default, an eigensolve of
    the exponent)."""
    if eig is None:
        h = -1j * seg.exponent
        eig = herm_eig((h + h.conj().T) / 2)
    w, u = eig

    def point(t):
        rot = (u * np.exp(1j * t * w)) @ u.conj().T
        x = rot @ seg.base @ rot.conj().T
        return (x + x.conj().T) / 2

    return point


def reference_length(gamma, grid):
    """Chordal length with one curve call and one op_norm per grid point."""
    ts = np.linspace(0.0, 1.0, grid + 1)
    total = 0.0
    prev = gamma(float(ts[0]))
    for t in ts[1:]:
        cur = gamma(float(t))
        total += op_norm(cur - prev)
        prev = cur
    return total


@pytest.fixture(scope="module")
def exactness_segments():
    """Segments at n = 2, 16 and 128 (index (0,0), (2,2) and (0,0))."""
    p2, q2 = rotation_pair(np.pi / 3)
    rng = np.random.default_rng(8)
    p16, q16 = pair_with_dims(2, 2, 2, 2, 8, rng.uniform(0.2, 1.3, 4), seed=16)
    p128, q128 = pair_with_dims(32, 32, 0, 0, 64, rng.uniform(0.2, 1.3, 32), seed=128)
    return [minimal_exponent(p, q) for p, q in ((p2, q2), (p16, q16), (p128, q128))]


class TestExistsGeodesic:
    def test_equal(self):
        p = random_projection(5, 2, 0)
        assert exists_geodesic(p, p)

    def test_nested_fails(self):
        p = np.diag([1.0, 1.0, 0.0]).astype(complex)
        q = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert not exists_geodesic(p, q)

    def test_crossed_exists(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.diag([0.0, 1.0]).astype(complex)
        assert exists_geodesic(p, q)


class TestMinimalExponent:
    def test_equal_pair_zero(self):
        p = random_projection(6, 3, 1)
        seg = minimal_exponent(p, p)
        assert op_norm(seg.exponent) <= 1e-12

    def test_rotation_closed_form(self):
        theta = np.pi / 3
        p, q = rotation_pair(theta)
        seg = minimal_exponent(p, q)
        expected = theta * np.array([[0, -1], [1, 0]], dtype=complex)
        assert op_norm(seg.exponent - expected) <= 1e-10
        assert abs(op_norm(seg.exponent) - theta) <= 1e-12

    def test_crossed_pair_norm_and_endpoint(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.diag([0.0, 1.0]).astype(complex)
        seg = minimal_exponent(p, q)
        assert abs(op_norm(seg.exponent) - np.pi / 2) <= 1e-12
        # oracle: conjugate explicitly through the exponential
        assert op_norm(evaluate(seg, 1.0) - q) <= 1e-10

    def test_no_geodesic(self):
        p = np.diag([1.0, 1.0, 0.0]).astype(complex)
        q = np.diag([1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(NoGeodesic):
            minimal_exponent(p, q)

    def test_non_unitary_pairing(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(NotUnitary):
            multi_geodesic_family(p, q, [[[2.0]]])
        with pytest.raises(NotUnitary):
            multi_geodesic_family(p, q, [np.eye(1, dtype=complex), [[2.0]]])

    def test_segment_certificates(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            p, q = random_equal_index_pair(trial)
            seg = minimal_exponent(p, q)
            z = seg.exponent
            assert op_norm(z + z.conj().T) <= 1e-10
            assert codiagonal_residual(p, z) <= 1e-9
            assert op_norm(z) <= np.pi / 2 + 1e-12
            assert op_norm(evaluate(seg, 1.0) - q) <= 1e-9

    def test_conjugation_equivariance(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            p, q = pair_with_dims(
                1, 0, 0, 0, 4, rng.uniform(0.2, 1.3, 2), seed=trial + 300
            )
            n = p.shape[0]
            u = random_unitary(n, trial)
            seg = minimal_exponent(p, q)
            pc = make_projection((u @ p @ u.conj().T + (u @ p @ u.conj().T).conj().T) / 2)
            qc = make_projection((u @ q @ u.conj().T + (u @ q @ u.conj().T).conj().T) / 2)
            seg_c = minimal_exponent(pc, qc)
            assert op_norm(seg_c.exponent - u @ seg.exponent @ u.conj().T) <= 1e-8


def test_exponent_matches_reference():
    for s in range(100):
        p, q = random_generic_pair(s)
        z = minimal_exponent(p, q).exponent
        assert op_norm(z - reference_exponent(p, q)) <= REFERENCE_ATOL


def clears_rank_rtol(angles, factor=10.0):
    """Every angle has sin and cos at least ``factor * rank_rtol``."""
    floor = factor * Tolerance().rank_rtol
    return all(min(np.sin(a), np.cos(a)) >= floor for a in angles)


EDGE_ANGLES = [1e-5, 1e-8, 1e-9, 1e-11, 1e-12] + [
    np.pi / 2 - d for d in (1e-5, 1e-7, 1e-9, 1e-11)
]


@pytest.mark.parametrize(
    "theta",
    EDGE_ANGLES,
    ids=[f"{t:.0e}" if t < 1 else f"half-pi-minus-{np.pi / 2 - t:.0e}" for t in EDGE_ANGLES],
)
def test_edge_pair(theta):
    """A principal angle at 0 or pi/2 up to ``theta``: the split reads the
    angle at linear scale, so the pair keeps its dimensions until the angle
    sinks below rank_rtol, and the endpoint stays within rank_rtol."""
    p, q = pair_with_dims(1, 1, 0, 0, 4, [theta, 0.7], seed=0)
    _, report = minimal_geodesic(p, q, samples=2)
    dims = projections.halmos_decompose(p, q).dims
    if clears_rank_rtol([theta]):
        assert dims == (1, 1, 0, 0, 4)
        assert report["index"] == [0, 0] and report["unique"] is True
        assert report["endpoint_error"] <= 1e-12
    else:
        assert dims == ((2, 2, 0, 0, 2) if theta < 1 else (1, 1, 1, 1, 2))
        assert report["endpoint_error"] <= 2 * Tolerance().rank_rtol


# log10 of an angle's distance to the edge: from 1e-12 up to 0.15
EDGE_GAPS = st.lists(st.floats(min_value=-12.0, max_value=np.log10(0.15)), max_size=2)


@settings(max_examples=150, deadline=None)
@given(
    intersections=st.tuples(*[st.integers(0, 2)] * 4),
    near_zero=EDGE_GAPS,
    near_half_pi=EDGE_GAPS,
    seed=st.integers(0, 2**32 - 1),
)
def test_near_edge_pairs(intersections, near_zero, near_half_pi, seed):
    """Pairs with angles near 0 and pi/2, mixed with the four
    intersections: the answer is within rank_rtol of the endpoint or a
    typed error, and the index is the constructed one whenever every angle
    clears rank_rtol by 10x.  The certificate meets |Z| to roundoff then,
    and within 2 rank_rtol when an angle is decided as an intersection."""
    d11, d00, d10, d01 = intersections
    angles = [10.0**x for x in near_zero] + [np.pi / 2 - 10.0**x for x in near_half_pi]
    if sum(intersections) + len(angles) == 0:
        return
    p, q = pair_with_dims(d11, d00, d10, d01, 2 * len(angles), angles, seed=seed)
    clear = clears_rank_rtol(angles)
    try:
        _, report = minimal_geodesic(p, q, samples=2)
    except ProjGeoError as exc:
        if clear:
            assert isinstance(exc, NoGeodesic) and d10 != d01
        return
    assert report["endpoint_error"] <= 2 * Tolerance().rank_rtol
    gap = abs(report["norm_Z"] - report["lower_bound"])
    assert gap <= (1e-12 if clear else 2 * Tolerance().rank_rtol)
    if clear:
        assert report["index"] == [d10, d01]
        assert report["unique"] is (d10 == d01 == 0)


class TestEvaluate:
    def test_at_zero(self):
        p, q = rotation_pair(np.pi / 3)
        seg = minimal_exponent(p, q)
        assert op_norm(evaluate(seg, 0.0) - p) <= 1e-11

    @pytest.mark.parametrize("t,expected_angle_frac", [(1.0, 1.0), (0.5, 0.5)])
    def test_rotation_family(self, t, expected_angle_frac):
        theta = np.pi / 3
        p, q = rotation_pair(theta)
        seg = minimal_exponent(p, q)
        expected = rotation_point(theta, expected_angle_frac)
        assert op_norm(evaluate(seg, t) - expected) <= 1e-10

    def test_samples_are_projections(self):
        p, q = random_equal_index_pair(17)
        seg = minimal_exponent(p, q)
        for t in np.linspace(-0.5, 1.5, 9):
            point = evaluate(seg, float(t))
            make_projection(point)  # raises if invariants fail

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_t_is_refused(self, t):
        # a point at a t that is not finite would be all NaN, not a matrix
        seg = minimal_exponent(*rotation_pair(np.pi / 3))
        with pytest.raises(ValueError, match=f"^t must be finite, got {t}$"):
            evaluate(seg, t)

    def test_stack_with_one_nan_is_refused(self):
        seg = minimal_exponent(*random_equal_index_pair(17))
        with pytest.raises(ValueError, match="^t must be finite, got nan$"):
            evaluate(seg, [0.0, 0.25, np.nan, 1.0])

    def test_sample_curve_refuses_a_non_finite_t(self):
        seg = minimal_exponent(*rotation_pair(np.pi / 3))
        with pytest.raises(ValueError, match="^t must be finite, got -inf$"):
            list(sample_curve(seg, [0.0, 0.5, -np.inf]))

    def test_overflowing_t_is_refused(self):
        # the largest eigenvalue of -iZ here is pi/2: 1e308 * pi/2 is finite,
        # 1.7e308 * pi/2 is not, and its point would be all NaN
        seg = minimal_exponent(*random_equal_index_pair(3))
        assert np.isfinite(evaluate(seg, 1e308)).all()
        assert np.isfinite(evaluate(seg, [-1e308, 1e308])).all()
        with pytest.raises(ValueError, match=r"^t \* w overflows at t = 1.7e\+308$"):
            evaluate(seg, 1.7e308)
        with pytest.raises(ValueError, match=r"^t \* w overflows at t = -1.7e\+308$"):
            list(sample_curve(seg, [0.0, 0.5, -1.7e308]))


class TestBatchedEvaluate:
    def test_stack_equals_scalar_calls(self, exactness_segments):
        ts = np.linspace(-0.5, 1.5, 23)
        for seg in exactness_segments:
            stack = evaluate(seg, ts)
            n = seg.base.shape[0]
            assert stack.shape == (len(ts), n, n)
            scalar = np.stack([evaluate(seg, float(t)) for t in ts])
            assert np.array_equal(stack, scalar)
            # the split's eigenpairs against an eigensolve of the exponent
            reference = reference_curve(seg)
            assert op_norm(scalar - np.stack([reference(float(t)) for t in ts])).max() <= 1e-13

    def test_segment_stack_equals_lone_segments(self):
        dims = [(1, 1, 0, 0, 4), (0, 0, 1, 1, 4), (2, 2, 1, 1, 0), (6, 0, 0, 0, 0)]
        # bare exponents: the stack eigendecomposes each, as does a lone one
        segments = [
            GeodesicSegment(base=s.base, exponent=s.exponent)
            for s in (
                minimal_exponent(*pair_with_dims(*dim, [0.3, 1.2][:dim[4] // 2], seed=i))
                for i, dim in enumerate(dims)
            )
        ]
        stack = GeodesicSegment(
            base=np.array([s.base for s in segments]),
            exponent=np.array([s.exponent for s in segments]),
        )
        for t in (-0.5, 0.0, 0.25, 1.0, 1.5):
            points = evaluate(stack, t)
            assert points.shape == (len(dims), 6, 6)
            assert np.array_equal(points, np.stack([evaluate(s, t) for s in segments]))

    def test_sample_curve_chunks(self, exactness_segments):
        ts = np.linspace(0.0, 1.0, 301)
        for seg in exactness_segments:
            chunks = list(sample_curve(seg, ts))
            assert np.array_equal(np.concatenate([c for c, _ in chunks]), ts)
            assert all(points.nbytes <= 1 << 20 for _, points in chunks)
            points = np.concatenate([points for _, points in chunks])
            assert np.array_equal(points, evaluate(seg, ts))
        assert list(sample_curve(seg, [])) == []


def _velocity(seg, t):
    """The point ``gamma(t)`` of the segment and the curve's derivative
    there: for ``gamma(t) = exp(tZ) P exp(-tZ)`` it is ``[Z, gamma(t)]``."""
    at = evaluate(seg, t)
    return at, seg.exponent @ at - at @ seg.exponent


class TestVelocity:
    def test_zero_exponent(self):
        p = random_projection(4, 2, 2)
        seg = minimal_exponent(p, p)
        assert op_norm(_velocity(seg, 0.3)[1]) <= 1e-12

    def test_initial_speed(self):
        theta = np.pi / 3
        p, q = rotation_pair(theta)
        seg = minimal_exponent(p, q)
        _, v = _velocity(seg, 0.0)
        # oracle: |[Z, P]| computed directly
        comm = seg.exponent @ p - p @ seg.exponent
        assert abs(op_norm(v) - op_norm(comm)) <= 1e-12
        assert abs(op_norm(v) - theta) <= 1e-10

    def test_finite_difference_oracle(self):
        p, q = random_equal_index_pair(23)
        seg = minimal_exponent(p, q)
        t, h = 0.37, 1e-5
        fd = (evaluate(seg, t + h) - evaluate(seg, t - h)) / (2 * h)
        assert op_norm(_velocity(seg, t)[1] - fd) <= 1e-6

    def test_tangency_and_constant_speed(self):
        p, q = random_equal_index_pair(29)
        seg = minimal_exponent(p, q)
        speed = op_norm(seg.exponent)
        for t in np.linspace(0.0, 1.0, 10):
            at, x = _velocity(seg, float(t))
            assert op_norm(x - (at @ x + x @ at)) <= 1e-9
            assert abs(op_norm(x) - speed) <= 1e-9


class TestCurveLength:
    def test_constant_curve(self):
        p = random_projection(3, 1, 5)
        assert curve_length(minimal_exponent(p, p), 100) == 0.0

    @pytest.mark.parametrize("which,grid", [(0, 2), (0, 1000), (1, 500), (2, 21)])
    def test_equals_per_point_sum(self, exactness_segments, which, grid):
        """``grid`` times the first chord, exactly; and the per-point sum of
        all chords within ``grid`` rounding errors of it."""
        seg = exactness_segments[which]
        gamma = reference_curve(seg, geodesics._segment_eig(seg))
        length = curve_length(seg, grid)
        assert length == grid * op_norm(gamma(1.0 / grid) - gamma(0.0))
        eps = np.finfo(float).eps
        assert abs(length - reference_length(gamma, grid)) <= grid * 4 * eps

    @pytest.mark.parametrize("grid", [2, 500, 10**6])
    def test_one_chord_of_work(self, monkeypatch, grid):
        seg = minimal_exponent(*random_equal_index_pair(41))
        evaluated, normed = [], []
        real_evaluate, real_op_norm = geodesics.evaluate, geodesics.op_norm

        def counted_evaluate(s, t):
            evaluated.append(np.size(t))
            return real_evaluate(s, t)

        def counted_op_norm(a):
            normed.append(np.shape(a))
            return real_op_norm(a)

        monkeypatch.setattr(geodesics, "evaluate", counted_evaluate)
        monkeypatch.setattr(geodesics, "op_norm", counted_op_norm)
        curve_length(seg, grid)
        n = seg.base.shape[0]
        assert evaluated == [2]
        assert normed == [(n, n)]

    def test_grid_must_be_an_integer_of_at_least_two(self):
        seg = minimal_exponent(*rotation_pair(np.pi / 3))
        with pytest.raises(TypeError):
            curve_length(seg, 2.5)
        with pytest.raises(ValueError):
            curve_length(seg, 1)

    def test_rotation_length(self):
        theta = np.pi / 3
        p, q = rotation_pair(theta)
        seg = minimal_exponent(p, q)
        assert abs(curve_length(seg, 1000) - theta) <= 1e-5

    def test_monotone_under_refinement(self):
        p, q = random_equal_index_pair(31)
        seg = minimal_exponent(p, q)
        lengths = [curve_length(seg, m) for m in (2, 4, 8, 16, 64, 256)]
        for coarse, fine in zip(lengths, lengths[1:]):
            assert fine >= coarse - 1e-12

    def test_never_exceeds_norm(self):
        p, q = random_equal_index_pair(37)
        seg = minimal_exponent(p, q)
        length = curve_length(seg, 2000)
        norm_z = op_norm(seg.exponent)
        assert norm_z - 1e-4 <= length <= norm_z + 1e-12


# log10 of an angle's distance to 0 or pi/2: from 1e-12 up to 1e-1
CHORD_EDGE_GAPS = st.floats(min_value=-12.0, max_value=-1.0)


@settings(max_examples=100, deadline=None)
@given(
    dims=st.sampled_from([(1, 1, 0, 0, 4), (0, 0, 1, 1, 4), (2, 1, 2, 2, 6), (0, 0, 0, 0, 8)]),
    data=st.data(),
    grid=st.integers(2, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_chord_length_at_the_edges(dims, data, grid, seed):
    """Angles near 0 and pi/2, crossed parts included: the chord sum is
    ``grid sin(|Z| / grid)`` within ``4 grid`` rounding errors of the chord,
    plus 64 for those of ``|Z|`` itself (they dominate at small grids:
    50 eps measured at grid 4)."""
    gaps = data.draw(st.lists(CHORD_EDGE_GAPS, min_size=dims[4] // 2, max_size=dims[4] // 2))
    near_zero = data.draw(st.lists(st.booleans(), min_size=len(gaps), max_size=len(gaps)))
    angles = [10.0**x if low else np.pi / 2 - 10.0**x for x, low in zip(gaps, near_zero)]
    seg = minimal_exponent(*pair_with_dims(*dims, angles, seed=seed))
    expected = grid * np.sin(op_norm(seg.exponent) / grid)
    assert abs(curve_length(seg, grid) - expected) <= (4 * grid + 64) * np.finfo(float).eps


class TestMinimality:
    def test_midpoint_on_geodesic_is_tight(self):
        theta = np.pi / 3
        p, q = rotation_pair(theta)
        seg = minimal_exponent(p, q)
        r = evaluate(seg, 0.4)
        total = op_norm(minimal_exponent(p, r).exponent) + op_norm(
            minimal_exponent(r, q).exponent
        )
        assert abs(total - theta) <= 1e-8

    def test_rotation_competitors(self):
        theta = np.pi / 3
        p, q = rotation_pair(theta)
        lengths = minimality_competitors(p, q, 25, seed=7)
        assert min(lengths) >= theta - 1e-6

    def test_batch_competitors_n8(self):
        rng = np.random.default_rng(4)
        p, q = pair_with_dims(1, 1, 1, 1, 4, rng.uniform(0.2, 1.3, 2), seed=41)
        assert p.shape == (8, 8)
        norm_z = op_norm(minimal_exponent(p, q).exponent)
        lengths = minimality_competitors(p, q, 100, seed=11)
        assert len(lengths) == 100
        assert min(lengths) >= norm_z - 1e-6

    def test_requires_existing_geodesic(self):
        p = np.diag([1.0, 1.0, 0.0]).astype(complex)
        q = np.diag([1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(NoGeodesic):
            minimality_competitors(p, q, 3, seed=0)

    def test_negative_trials(self):
        # as run_suite refuses them, not an empty list of lengths
        p, q = rotation_pair(np.pi / 3)
        with pytest.raises(ValueError, match="^trials must be non-negative$"):
            minimality_competitors(p, q, -3, 0)


def replace_midpoints(monkeypatch, replace):
    """Make the competitor draws whose keys are in ``replace`` have the
    given projection as midpoint instead of a random one: their unitary
    is one whose leading columns span its range."""
    real = geodesics._haar_unitaries

    def draw(n, seeds):
        us = real(n, seeds)
        for j, s in enumerate(seeds):
            if s in replace:
                us[j] = herm_eig(replace[s]).eigenvectors[:, ::-1]
        return us

    monkeypatch.setattr(geodesics, "_haar_unitaries", draw)


def record_midpoints(monkeypatch) -> list:
    """Record, unchanged, the unitary of every midpoint the competitors
    draw; the midpoint is the range of its leading ``rank P`` columns."""
    real = geodesics._haar_unitaries
    drawn = []

    def draw(n, seeds):
        us = real(n, seeds)
        drawn.extend(us)
        return us

    monkeypatch.setattr(geodesics, "_haar_unitaries", draw)
    return drawn


def assert_matches_reference(got, ref):
    assert len(got) == len(ref)
    assert np.max(np.abs(np.subtract(got, ref)), initial=0.0) <= REFERENCE_ATOL


class TestStackedCompetitors:
    """The competitors of one call are built as stacks and measured by
    their largest angles; each length must agree with the old pipeline, one
    matrix at a time, within ``REFERENCE_ATOL``."""

    def test_suite_sampler_pairs(self):
        crossed = set()
        for s in range(100):
            p, q = random_equal_index_pair(s)
            crossed.add(index_pair(p, q).d_plus > 0)
            got = minimality_competitors(p, q, 3, s * 1000)
            assert_matches_reference(got, reference_competitors(p, q, 3, s * 1000))
        assert crossed == {False, True}

    @pytest.mark.parametrize("n,full", [(4, False), (4, True), (1, True)])
    def test_rank_zero_and_full(self, n, full):
        p = (np.eye(n) if full else np.zeros((n, n))).astype(complex)
        got = minimality_competitors(p, p, 5, 3)
        assert got == reference_competitors(p, p, 5, 3) == [0.0] * 5

    def test_two_dims_groups(self, monkeypatch):
        p, q = random_equal_index_pair(2)
        # R = P gives member 3 a leg (P, P) with no generic part amid
        # members whose legs all have one
        replace = {(40 + 3, 5, 1): p}
        replace_midpoints(monkeypatch, replace)
        got = minimality_competitors(p, q, 8, 40)
        assert_matches_reference(got, reference_competitors(p, q, 8, 40, replace))
        assert abs(got[3] - op_norm(minimal_exponent(p, q).exponent)) <= REFERENCE_ATOL

    def test_midpoints_are_first_draws(self, monkeypatch):
        # competitor i takes its first draw (70 + i, 5, 1), the midpoint the
        # reference's retry loop accepts first
        p, q = random_equal_index_pair(5)
        n, rank = p.shape[0], int(round(np.trace(p).real))
        drawn = record_midpoints(monkeypatch)
        got = minimality_competitors(p, q, 8, 70)
        assert len(drawn) == 8
        for i, u in enumerate(drawn):
            r = projections._range_projection(u, rank)
            assert np.array_equal(r, random_projection(n, rank, (70 + i, 5, 1)))
        assert_matches_reference(got, reference_competitors(p, q, 8, 70))

    def test_every_midpoint_is_joinable(self, monkeypatch):
        # drawn with the rank of P, every midpoint gives two balanced legs
        drawn = record_midpoints(monkeypatch)
        for s in range(20):
            p, q = random_equal_index_pair(s)
            drawn.clear()
            minimality_competitors(p, q, 3, s * 1000)
            assert len(drawn) == 3
            for u in drawn:
                r = projections._range_projection(u, int(round(np.trace(p).real)))
                for leg in index_pair(p, r), index_pair(r, q):
                    assert leg.d_plus == leg.d_minus

    def test_chunk_boundary(self):
        # n = 64: 16 competitors fill one 1 MB stack, so 20 take two
        rng = np.random.default_rng(8)
        p, q = pair_with_dims(10, 10, 2, 2, 40, rng.uniform(0.2, 1.3, 20), seed=8)
        got = minimality_competitors(p, q, 20, 5)
        assert_matches_reference(got, reference_competitors(p, q, 20, 5))

    def test_call_count_independent_of_competitors(self, monkeypatch):
        p, q = random_equal_index_pair(3)
        counts = {}
        for name in ("svd", "eigh", "qr"):
            real = getattr(np.linalg, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)

        def calls(trials):
            counts.clear()
            minimality_competitors(p, q, trials, 17)
            return sum(counts.values())

        few, many = calls(10), calls(100)
        assert few > 0
        assert many <= few + 4

    def test_one_eigensolve_per_call(self, monkeypatch):
        # the split's eigenbases are the legs' ends: the pair is
        # eigensolved once, as one (2, n, n) stack
        eighs = []
        real = np.linalg.eigh

        def counted(a, *args, **kwargs):
            eighs.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for s in range(5):
            p, q = random_equal_index_pair(s)
            eighs.clear()
            minimality_competitors(p, q, 10, s * 1000)
            assert eighs == [(2,) + p.shape]

    def test_no_midpoint_is_formed_or_factored(self, monkeypatch):
        # the legs come from the Haar factors and the split's eigenbases:
        # past the split, one QR of the unitaries and one SVD of the padded
        # blocks, with no eigensolve of the pair or of a midpoint and no
        # n x n SVD of P - R or R - Q
        p, q = random_equal_index_pair(3)
        n, rank = p.shape[0], int(round(np.trace(p).real))
        calls = []
        for name in ("svd", "eigh", "qr"):
            real = getattr(np.linalg, name)

            def counted(a, *args, _real=real, _name=name, **kwargs):
                calls.append((_name, np.shape(a)))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        projections._split(*projections._pair(p, q), Tolerance())
        split_calls = calls[:]
        calls.clear()
        minimality_competitors(p, q, 10, 17)
        assert sorted(calls) == sorted(split_calls + [
            ("qr", (10, n, n)),
            ("svd", (2, 10, 2, max(rank, n - rank), rank)),
        ])


# log10 of an angle's distance to 0 or to pi/2
SPLIT_EDGE_GAPS = st.lists(st.floats(min_value=-9.0, max_value=-5.0), max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    intersections=st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 4)),
    near_zero=SPLIT_EDGE_GAPS,
    near_half_pi=SPLIT_EDGE_GAPS,
    seed=st.integers(0, 2**32 - 1),
)
def test_split_built_spectrum_near_the_edges(intersections, near_zero, near_half_pi, seed):
    """The eigenpairs a segment reads off its split, at angles 1e-9 to 1e-5
    from 0 and from pi/2 and with crossed parts under the identity pairing
    and a twisted one: the curve reaches Q, the eigenpairs belong to Z, and
    the split's norm is the norm of Z within the rounding of Z's bases
    (up to 2.7 n eps measured near pi/2 with a crossed part)."""
    d11, d00, k = intersections
    angles = [10.0**x for x in near_zero] + [np.pi / 2 - 10.0**x for x in near_half_pi]
    if d11 + d00 + k + len(angles) == 0:
        return
    p, q = pair_with_dims(d11, d00, k, k, 2 * len(angles), angles, seed=seed)
    segments = [minimal_exponent(p, q)]
    if k:
        segments += multi_geodesic_family(p, q, [random_unitary(k, seed)])
    for seg in segments:
        assert op_norm(evaluate(seg, 1.0) - q) <= 1e-12
        assert seg.eig_residual <= BOUNDS["minimality.eig_residual"]
        assert abs(seg.norm - op_norm(seg.exponent)) <= 4 * p.shape[0] * np.finfo(float).eps


class TestSegmentNorm:
    DIMS = [(1, 1, 0, 0, 4), (0, 0, 1, 1, 4), (2, 2, 1, 1, 0), (6, 0, 0, 0, 0), (0, 0, 2, 2, 2)]

    def split_segments(self):
        """Pairs of a split and a segment of it: the canonical one and,
        with a crossed part, a twisted one."""
        for i, dims in enumerate(self.DIMS):
            p, q = pair_with_dims(*dims, [0.3, 1.2][:dims[4] // 2], seed=i)
            fs = projections.halmos_decompose(p, q)
            yield fs, minimal_exponent(p, q)
            if dims[2]:
                yield fs, multi_geodesic_family(p, q, [random_unitary(dims[2], i)])[0]

    def test_split_segment_reads_its_largest_angle(self):
        for fs, seg in self.split_segments():
            expected = np.pi / 2 if fs.dims[2] else fs.angles.max(initial=0.0)
            assert type(seg.norm) is float
            assert seg.norm == expected

    def test_bare_segment_is_the_operator_norm(self):
        eps = np.finfo(float).eps
        bare = [GeodesicSegment(base=s.base, exponent=s.exponent)
                for _, s in self.split_segments()]
        for seg in bare:
            n = seg.base.shape[0]
            assert type(seg.norm) is float
            assert abs(seg.norm - op_norm(seg.exponent)) <= 4 * n * eps
        stack = GeodesicSegment(base=np.array([s.base for s in bare]),
                                exponent=np.array([s.exponent for s in bare]))
        assert stack.norm.shape == (len(bare),)
        assert (abs(stack.norm - op_norm(stack.exponent)) <= 4 * 6 * eps).all()

    def test_split_segment_runs_no_eigensolve(self, monkeypatch):
        splits = list(self.split_segments())

        def refused(a):
            raise AssertionError("herm_eig called")

        monkeypatch.setattr(geodesics, "herm_eig", refused)
        for fs, _ in splits:
            pairings = [None, np.eye(fs.dims[2])] if fs.dims[2] else [None]
            for pairing in pairings:
                seg = geodesics._segment(fs, pairing)
                assert seg._eig is not None
                # nor does any reader of its eigenpairs
                assert seg.norm <= np.pi / 2 and seg.eig_residual <= 1e-12
                assert evaluate(seg, [0.0, 0.5]).shape == (2, *fs.p.shape)

    @staticmethod
    def eigenpairs_built_with_the_segment(fs, pairing):
        """The eigenpairs of -iZ as ``_segment`` built them with every segment."""
        d10 = fs.index.d_plus
        s2 = np.sqrt(2)
        x, g = fs.h0[:, 0::2] / s2, fs.h0[:, 1::2] * (1j / s2)
        m10 = (fs.m10 if pairing is None else fs.m10 @ pairing) / s2
        m01 = fs.m01 / s2
        u = np.concatenate([fs.m11, fs.m00, x + g, x - g, m10 + m01, m10 - m01], axis=1)
        w = np.concatenate([np.zeros(fs.dims[0] + fs.dims[1]), -fs.angles, fs.angles,
                            np.full(d10, np.pi / 2), np.full(d10, -np.pi / 2)])
        return w, u

    def test_eigenpairs_are_built_on_first_read(self, monkeypatch):
        # segments read for their exponent alone never build them; a point
        # of a segment that builds them late has the bits it had when every
        # segment was built with them
        made = []
        real = geodesics._segment

        def recorded(*args):
            made.append(real(*args))
            return made[-1]

        for module in (geodesics, blockmodel):
            monkeypatch.setattr(module, "_segment", recorded)
        ts = np.array([0.0, 0.3, 1.0])
        for i, dims in enumerate(self.DIMS):
            p, q = pair_with_dims(*dims, [0.3, 1.2][:dims[4] // 2], seed=i)
            unique_minimal_check(p, q)
            fs = projections.halmos_decompose(p, q)
            segs, pairings = [minimal_exponent(p, q), quotient_geodesic(p, q).segment], [None] * 2
            if dims[2]:
                pairings.append(random_unitary(dims[2], i))
                segs += multi_geodesic_family(p, q, pairings[2:])
            assert made and all(callable(seg._eig) for seg in made)
            made.clear()
            for seg, pairing in zip(segs, pairings):
                eager = GeodesicSegment(seg.base, seg.exponent,
                                        self.eigenpairs_built_with_the_segment(fs, pairing))
                assert evaluate(seg, ts).tobytes() == evaluate(eager, ts).tobytes()
                assert isinstance(seg._eig, tuple)


class TestUniqueness:
    def test_generic_pair_unique(self):
        p, q = rotation_pair(np.pi / 3)
        report = unique_minimal_check(p, q)
        assert report.unique
        assert report.rederivation_error <= 1e-8
        assert report.witness is None

    def test_equal_pair_unique(self):
        p = random_projection(5, 2, 3)
        report = unique_minimal_check(p, p)
        assert report.unique

    def test_crossed_pair_not_unique(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.diag([0.0, 1.0]).astype(complex)
        report = unique_minimal_check(p, q)
        assert not report.unique
        z1, z2 = report.witness
        assert op_norm(z1 - z2) >= 0.1
        assert report.witness_separation >= 0.1

    @pytest.mark.parametrize("dims,unique", [((1, 1, 0, 0, 4), True), ((1, 0, 1, 1, 4), False)])
    def test_reads_the_exponent_without_a_segment(self, monkeypatch, dims, unique):
        # the one segment built is the re-derivation's, on the conjugated pair
        p, q = pair_with_dims(*dims, [0.4, 1.1], seed=5)
        calls = []
        real = geodesics._segment

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(geodesics, "_segment", counted)
        report = unique_minimal_check(p, q)
        assert report.unique is unique
        assert len(calls) == int(unique)
        if not unique:
            assert np.array_equal(report.witness[0], minimal_exponent(p, q).exponent)

    def test_small_distance_implies_unique(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            p, q = pair_with_dims(
                1, 1, 0, 0, 2, [float(rng.uniform(0.1, 0.6))], seed=trial + 900
            )
            assert op_norm(p - q) < 1.0
            assert index_pair(p, q) == (0, 0)
            assert unique_minimal_check(p, q).unique


class TestMultiGeodesicFamily:
    def test_identity_twist_matches_canonical(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.diag([0.0, 1.0]).astype(complex)
        seg = minimal_exponent(p, q)
        fam = multi_geodesic_family(p, q, [np.eye(1, dtype=complex)])
        assert op_norm(fam[0].exponent - seg.exponent) <= 1e-12

    def test_phase_twist_gives_distinct_exponent(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.diag([0.0, 1.0]).astype(complex)
        seg = minimal_exponent(p, q)
        fam = multi_geodesic_family(p, q, [np.array([[np.exp(1j * np.pi / 2)]])])
        assert op_norm(fam[0].exponent - seg.exponent) > 0.5
        assert op_norm(evaluate(fam[0], 1.0) - q) <= 1e-10

    def test_batch_family(self):
        p, q = pair_with_dims(1, 0, 2, 2, 2, [0.6], seed=55)
        k = 2
        rng = np.random.default_rng(3)
        twists = [random_unitary(k, rng) for _ in range(8)]
        fam = multi_geodesic_family(p, q, twists)
        assert len(fam) == 8
        for i, a in enumerate(fam):
            assert abs(op_norm(a.exponent) - np.pi / 2) <= 1e-10
            assert op_norm(evaluate(a, 1.0) - q) <= 1e-9
            for b in fam[i + 1:]:
                assert op_norm(a.exponent - b.exponent) > 1e-8

    def test_bad_index(self):
        p, q = rotation_pair(0.5)
        with pytest.raises(BadIndex):
            multi_geodesic_family(p, q, [np.eye(1, dtype=complex)])

    def test_bad_unitary_size(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(DimMismatch):
            multi_geodesic_family(p, q, [np.eye(2, dtype=complex)])


def test_geodesic_report_fields():
    p, q = rotation_pair(np.pi / 4)
    report = minimal_geodesic(p, q, samples=500)[1]
    assert set(report) == {
        "norm_Z", "lower_bound", "index", "endpoint_error", "eig_residual",
        "length_estimate", "unique",
    }
    assert abs(report["norm_Z"] - np.pi / 4) <= 1e-10
    assert abs(report["lower_bound"] - report["norm_Z"]) <= 1e-12
    assert report["index"] == [0, 0]
    assert report["unique"] is True


@pytest.mark.parametrize("dims,index", [((1, 1, 0, 0, 4), [0, 0]), ((1, 0, 1, 1, 4), [1, 1])])
def test_geodesic_report_equals_public_functions(dims, index):
    p, q = pair_with_dims(*dims, [0.4, 1.1], seed=5)
    seg, report = minimal_geodesic(p, q, samples=300)
    standalone = minimal_exponent(p, q)
    assert np.array_equal(seg.exponent, standalone.exponent)
    assert report["index"] == index == list(index_pair(p, q))
    # the split's largest angle, against the norm of the matrix it built
    assert report["norm_Z"] == standalone.norm
    assert abs(report["norm_Z"] - op_norm(standalone.exponent)) <= 1e-14
    assert report["endpoint_error"] == op_norm(evaluate(standalone, 1.0) - q)
    assert report["eig_residual"] == standalone.eig_residual
    assert report["length_estimate"] == curve_length(standalone, 300)
    # the certificate, read off the split's witness vector with no solve
    fs = projections.halmos_decompose(p, q)
    assert report["lower_bound"] == geodesics._lower_bound(fs)
    assert abs(report["lower_bound"] - report["norm_Z"]) <= 1e-14
    assert report["unique"] is unique_minimal_check(p, q).unique is (index == [0, 0])


@pytest.mark.parametrize("dims,index", [((1, 1, 0, 0, 4), [0, 0]), ((1, 0, 1, 1, 4), [1, 1])])
def test_geodesic_report_solves_once(monkeypatch, dims, index):
    p, q = pair_with_dims(*dims, [0.4, 1.1], seed=5)
    counts = {}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(projections, "_split")
    count(projections, "cs_decompose")
    count(projections, "_haar")
    count(projections, "herm_eig")
    count(projections, "nullspace")
    count(geodesics, "_exponent")
    count(geodesics, "herm_eig")
    report = minimal_geodesic(p, q, samples=20)[1]
    assert report["index"] == index
    assert report["unique"] is (index == [0, 0])
    # one rank decision, one CS split and one exponent: no Haar draw and
    # no second solve; the pair is eigendecomposed once, and the segment
    # reads its eigenpairs off the split
    assert counts == {"_split": 1, "cs_decompose": 1, "_exponent": 1,
                      "herm_eig": 1, "nullspace": 1}


@pytest.mark.parametrize(
    "entry",
    [
        lambda p, q: minimal_geodesic(p, q, samples=20),
        lambda p, q: multi_geodesic_family(p, q, [np.eye(1), 1j * np.eye(1)]),
    ],
    ids=["minimal_geodesic", "multi_geodesic_family"],
)
def test_validates_each_projection_once(monkeypatch, entry):
    p, q = pair_with_dims(1, 0, 1, 1, 2, [0.7], seed=6)
    calls = []
    real = projections.make_projection

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(projections, "make_projection", counted)
    entry(p, q)
    # one call, on the pair as one stack
    assert len(calls) == 1
    assert calls[0].shape == (2, *p.shape)


def test_geodesic_report_unbalanced():
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    q = np.diag([1.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(NoGeodesic) as raised:
        minimal_geodesic(p, q)
    assert raised.value.index == (1, 0)


UNBALANCED_REFUSALS = {
    "minimal_exponent": minimal_exponent,
    "minimal_geodesic": minimal_geodesic,
    "unique_minimal_check": unique_minimal_check,
    "multi_geodesic_family": lambda p, q: multi_geodesic_family(p, q, [np.eye(1)]),
    "minimality_competitors": lambda p, q: minimality_competitors(p, q, 3, 0),
}


@pytest.mark.parametrize("entry", UNBALANCED_REFUSALS.values(), ids=UNBALANCED_REFUSALS.keys())
def test_every_entry_refuses_an_unbalanced_pair_alike(entry):
    # one refusal: NoGeodesic, one text, the index pair found
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    q = np.diag([1.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(NoGeodesic, match=r"^index pair \(1, 0\) is unbalanced$") as raised:
        entry(p, q)
    assert raised.value.index == (1, 0)
