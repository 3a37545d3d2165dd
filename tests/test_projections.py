import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from projgeo import numkernel, projections, suites
from projgeo.cli import main
from projgeo.errors import DimMismatch, InconsistentDims, NotAProjection
from projgeo.numkernel import Tolerance, _adjoint, _hermitize, op_norm
from projgeo.projections import (
    PROJECTION_ATOL,
    diff_sum,
    fivespace_report,
    halmos_decompose,
    index_pair,
    make_projection,
    pair_with_dims,
    random_projection,
    random_unitary,
)
from reference_pipeline import reference_haar_unitaries, reference_split


def two_by_two_generic(theta):
    c, s = np.cos(theta), np.sin(theta)
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)
    return p, q


class TestMakeProjection:
    def test_accepts_diagonal(self):
        p = make_projection(np.diag([1.0, 0.0]))
        assert p.dtype == np.complex128

    def test_rejects_half(self):
        with pytest.raises(NotAProjection):
            make_projection(np.diag([0.5, 0.0]))

    def test_rank_one_from_unit_vector(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v /= np.linalg.norm(v)
        p = make_projection(np.outer(v, v.conj()))
        assert abs(np.trace(p).real - 1.0) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotAProjection):
            make_projection(np.array([[1.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "defect",
        [
            np.array([[0, 1e-9], [0, 0]]),  # |P - P*| too large
            np.diag([1e-9, 0]),  # |P^2 - P| too large
        ],
    )
    def test_stack_names_first_bad_member(self, defect):
        stack = np.stack([random_projection(5, 2, s) for s in range(6)])
        stack[3, :2, :2] += defect
        stack[5, :2, :2] += 3 * defect  # a later, larger defect
        with pytest.raises(NotAProjection) as scalar:
            make_projection(stack[3])
        with pytest.raises(NotAProjection) as stacked:
            make_projection(stack)
        assert str(stacked.value) == str(scalar.value)
        assert np.array_equal(make_projection(stack[:3]), stack[:3])

    def test_returns_exact_hermitian_part(self):
        p = random_projection(5, 2, 3)
        off = p.copy()
        off[0, 1] += 3e-11
        got = make_projection(off)
        assert np.array_equal(got, _adjoint(got))
        assert np.array_equal(got, _hermitize(off))
        # a projection the library built comes back bit for bit, as the same array
        assert np.array_equal(make_projection(p).view(float), p.view(float))
        assert make_projection(p) is p

    @pytest.mark.parametrize(
        "asymmetry,diagonal",
        [
            (2e-9, 0.0),  # |P - P*| too large
            (3e-11, 1e-9),  # off Hermitian within bounds, |P^2 - P| too large
            (0.0, 1e-9),  # bitwise Hermitian, |P^2 - P| too large
        ],
    )
    def test_messages_measure_both_defects(self, asymmetry, diagonal):
        p = random_projection(5, 2, 3)
        p[0, 1] += asymmetry
        p[2, 2] += diagonal
        sym, idem = op_norm(np.array([p - _adjoint(p), p @ p - p]))
        name, defect = ("P - P*", sym) if sym > 1e-10 else ("P^2 - P", idem)
        with pytest.raises(NotAProjection) as raised:
            make_projection(p)
        assert str(raised.value) == f"|{name}| = {defect:.3e} > 1.0e-10"
        assert raised.value.defects == (sym, idem)

    def test_svd_measures_only_what_frobenius_cannot_clear(self, monkeypatch):
        shapes = []
        real = numkernel.op_norm

        def measured(a):
            shapes.append(np.shape(a))
            return real(a)

        # make_projection measures its defects through numkernel._defect_norms
        monkeypatch.setattr(numkernel, "op_norm", measured)
        stack = np.stack([random_projection(5, 2, s) for s in range(3)])
        make_projection(stack)
        off = stack.copy()
        off[1, 0, 1] += 3e-11
        make_projection(off)
        assert shapes == [(0, 5, 5), (0, 5, 5)]
        # |P^2 - P| is 0.6 of the bound, its Frobenius norm 1.34 of it
        p = random_projection(5, 2, 0) + 0.6 * PROJECTION_ATOL * np.eye(5)
        shapes.clear()
        assert make_projection(p) is p
        assert shapes == [(1, 5, 5)]

    def test_valid_pair_takes_no_defect_svd(self, monkeypatch):
        shapes = []
        real = numkernel._svd

        def measured(a, **kwargs):
            shapes.append(np.shape(a))
            return real(a, **kwargs)

        monkeypatch.setattr(numkernel, "_svd", measured)
        pair = pair_with_dims(32, 32, 0, 0, 64, np.linspace(0.1, 1.4, 32), seed=4)
        make_projection(np.array(pair))
        assert shapes and all(shape[0] == 0 for shape in shapes)


def full_svd_verdict(stack):
    """The refusal message of the first matrix whose operator-norm defect
    exceeds the bound, with both defects, or None: the rule with no
    Frobenius clearing; and the smallest relative distance of a defect from
    the bound."""
    defects = op_norm(np.array([stack - _adjoint(stack), stack @ stack - stack]))
    edge = np.min(np.abs(defects / PROJECTION_ATOL - 1))
    for sym, idem in zip(*defects):
        if sym > PROJECTION_ATOL:
            return f"|P - P*| = {sym:.3e} > 1.0e-10", (sym, idem), edge
        if idem > PROJECTION_ATOL:
            return f"|P^2 - P| = {idem:.3e} > 1.0e-10", (sym, idem), edge
    return None, None, edge


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 8),
    perturbations=st.lists(
        st.tuples(st.integers(1, 8), st.floats(-1, 1), st.booleans()), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_frobenius_clearing_keeps_the_full_svd_verdict(n, perturbations, seed):
    # each projection gets a perturbation of rank 1..n and operator norm
    # 10^(-1..1) of the bound, Hermitian or not
    rng = np.random.default_rng(seed)
    stack = []
    for rank, size, hermitian in perturbations:
        rank = min(rank, n)
        u, v = rng.standard_normal((2, n, rank)) + 1j * rng.standard_normal((2, n, rank))
        e = u @ _adjoint(v)
        e = _hermitize(e) if hermitian else e
        e *= 10.0**size * PROJECTION_ATOL / op_norm(e)
        stack.append(random_projection(n, int(rng.integers(0, n + 1)), rng) + e)
    stack = np.array(stack)
    message, defects, edge = full_svd_verdict(stack)
    assume(edge > 1e-12)
    if message is None:
        make_projection(stack)
        return
    with pytest.raises(NotAProjection) as raised:
        make_projection(stack)
    assert str(raised.value) == message
    assert raised.value.defects == defects


# the constructions return projections without checking them at run time;
# these hold them to the defects they must meet, far inside PROJECTION_ATOL
CONSTRUCTION_ATOL = 1e-13


def assert_built_projection(p):
    assert np.array_equal(p, _adjoint(p))
    assert np.max(op_norm(p @ p - p), initial=0.0) <= CONSTRUCTION_ATOL


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 128), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_random_projections_are_projections(n, data, seed):
    r = data.draw(st.integers(0, n))
    k = data.draw(st.integers(1, 3))
    stack = np.array([random_projection(n, r, (seed, i)) for i in range(k)])
    assert stack.shape == (k, n, n)
    assert_built_projection(stack)
    assert np.all(np.rint(np.trace(stack, axis1=1, axis2=2).real) == r)


# log10 of an angle's distance to 0 or pi/2: from 1e-12 up to about 0.6
EDGE_GAPS = st.floats(min_value=-12.0, max_value=-0.2)


@settings(max_examples=150, deadline=None)
@given(
    dims=st.tuples(*[st.integers(0, 3)] * 4),
    gaps=st.lists(st.tuples(EDGE_GAPS, st.booleans()), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairs_with_dims_are_projections(dims, gaps, seed):
    angles = [10.0**x if low else np.pi / 2 - 10.0**x for x, low in gaps]
    for m in pair_with_dims(*dims, 2 * len(angles), angles, seed=seed):
        assert_built_projection(m)


class TestRandomProjection:
    def test_rank_zero_and_full(self):
        assert np.allclose(random_projection(4, 0, 1), 0.0)
        assert np.allclose(random_projection(4, 4, 1), np.eye(4))

    def test_trace_equals_rank(self):
        p = random_projection(8, 3, 7)
        assert abs(np.trace(p).real - 3.0) <= 1e-12

    def test_bad_rank(self):
        with pytest.raises(InconsistentDims):
            random_projection(4, 5, 0)

    def test_seed_reproducible(self):
        assert np.array_equal(random_projection(6, 2, 11), random_projection(6, 2, 11))


class TestPairWithDims:
    def test_equal_pair(self):
        p, q = pair_with_dims(1, 1, 0, 0, 0, [], seed=0)
        assert np.allclose(p, q)
        assert abs(np.trace(p).real - 1.0) <= 1e-12

    def test_pure_crossed_pair(self):
        p, q = pair_with_dims(0, 0, 1, 1, 0, [], seed=3)
        assert index_pair(p, q) == (1, 1)

    def test_generic_angle_controls_distance(self):
        theta = np.pi / 3
        p, q = pair_with_dims(0, 0, 0, 0, 2, [theta], seed=5)
        # oracle: for a single generic 2-plane, |P - Q| = sin(theta)
        assert abs(op_norm(p - q) - np.sin(theta)) <= 1e-9

    def test_inconsistent_dims(self):
        with pytest.raises(InconsistentDims):
            pair_with_dims(0, 0, 0, 0, 3, [0.4], seed=0)
        with pytest.raises(InconsistentDims):
            pair_with_dims(0, 0, 0, 0, 2, [], seed=0)
        with pytest.raises(InconsistentDims):
            pair_with_dims(0, 0, 0, 0, 2, [np.pi / 2], seed=0)
        with pytest.raises(InconsistentDims, match="strictly in"):
            pair_with_dims(0, 0, 0, 0, 2, [float("nan")], seed=1)

    def test_round_trip_battery(self):
        rng = np.random.default_rng(42)
        for trial in range(500):
            d11, d00 = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            d10, d01 = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            g = int(rng.integers(0, 4))
            if d11 + d00 + d10 + d01 + 2 * g == 0:
                continue
            angles = rng.uniform(0.1, np.pi / 2 - 0.1, g)
            p, q = pair_with_dims(d11, d00, d10, d01, 2 * g, angles, seed=trial)
            fs = halmos_decompose(p, q)
            assert fs.dims == (d11, d00, d10, d01, 2 * g)
            assert np.allclose(np.sort(angles), fs.angles, atol=1e-9)


class TestHalmosDecompose:
    def test_equal_projections(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        fs = halmos_decompose(p, p)
        assert fs.dims == (1, 1, 0, 0, 0)

    def test_orthogonal_ranges(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.diag([0.0, 1.0]).astype(complex)
        assert halmos_decompose(p, q).dims == (0, 0, 1, 1, 0)

    def test_generic_two_by_two(self):
        p, q = two_by_two_generic(0.9)
        assert halmos_decompose(p, q).dims == (0, 0, 0, 0, 2)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            halmos_decompose(np.eye(2), np.eye(3))

    def test_structure_invariants(self):
        rng = np.random.default_rng(10)
        for trial in range(100):
            p, q = pair_with_dims(
                1, 1, 1, 1, 4, rng.uniform(0.15, 1.4, 2), seed=trial + 1000
            )
            n = p.shape[0]
            fs = halmos_decompose(p, q)
            stacked = np.hstack([fs.m11, fs.m00, fs.m10, fs.m01, fs.h0])
            assert stacked.shape == (n, n)
            assert op_norm(stacked.conj().T @ stacked - np.eye(n)) <= 1e-9
            # each subspace reduces both projections
            for basis in (fs.m11, fs.m00, fs.m10, fs.m01, fs.h0):
                if basis.shape[1] == 0:
                    continue
                pi = basis @ basis.conj().T
                assert op_norm(p @ pi - pi @ p) <= 1e-9
                assert op_norm(q @ pi - pi @ q) <= 1e-9
            # compressions are in generic position
            p0, q0 = (_hermitize(fs.h0.conj().T @ m @ fs.h0) for m in (p, q))
            assert index_pair(p0, q0) == (0, 0)
            sub = halmos_decompose(p0, q0)
            assert sub.dims == (0, 0, 0, 0, p0.shape[0])

    def test_carries_validated_pair(self):
        p, q = pair_with_dims(1, 0, 1, 1, 2, [0.6], seed=4)
        fs = halmos_decompose(p, q)
        assert np.array_equal(fs.p, p) and np.array_equal(fs.q, q)
        assert fs.p.dtype == fs.q.dtype == np.complex128
        # real input comes back as the complex matrix that was validated
        real = np.diag([1.0, 0.0])
        fs = halmos_decompose(real, real)
        assert fs.p.dtype == np.complex128 and np.array_equal(fs.p, real)

    def test_report_shape(self):
        p, q = two_by_two_generic(0.7)
        report = fivespace_report(halmos_decompose(p, q))
        assert report["dims"]["generic"] == 2
        assert report["index"] == [0, 0]
        assert abs(report["angles"][0] - 0.7) <= 1e-9


def _reference_dims(p, q):
    """Five-space dimensions by the reference rule: the nullspaces of
    ``P - Q -+ 1``, ``P + Q - 2`` and ``P + Q``, and the ranks."""
    m10, m01, h0, _, _ = reference_split(p, q, Tolerance())
    n, r = p.shape[0], int(round(np.trace(p).real))
    d10, d01, dgen = m10.shape[1], m01.shape[1], h0.shape[1]
    d11 = r - d10 - dgen // 2
    return (d11, n - d11 - d10 - d01 - dgen, d10, d01, dgen)


def _assert_split(p, q, expected=None, reference=True):
    """``index_pair`` agrees with ``halmos_decompose``, whose dimensions are
    ``expected`` (unless None) and, when ``reference``, the reference's."""
    fs = halmos_decompose(p, q)
    assert index_pair(p, q) == fs.dims[2:4]
    if expected is not None:
        assert fs.dims == expected
    if reference:
        assert fs.dims == _reference_dims(p, q)


# log10 of an angle's distance to 0 or pi/2
RULE_GAPS = st.lists(st.floats(min_value=-12.0, max_value=-0.5), max_size=10)


@settings(max_examples=100, deadline=None)
@given(
    intersections=st.tuples(*[st.integers(0, 6)] * 4),
    near_zero=RULE_GAPS,
    near_half_pi=RULE_GAPS,
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_rule_matches_reference(intersections, near_zero, near_half_pi, seed):
    """The nullities of the blocks of ``V_P* V_Q`` (n up to 64) give the
    constructed dimensions wherever every angle clears rank_rtol by 10x,
    and the reference's wherever the reference is decided: its nullspaces
    see an angle at distance ``d`` from the edge as ``1 - cos d ~ d^2 / 2``,
    so it splits the angles with ``d <= rank_rtol / 10`` and ``d^2 / 2 >= 10
    rank_rtol`` as the linear rule does, and no others."""
    gaps = [10.0**x for x in near_zero + near_half_pi]
    if sum(intersections) + len(gaps) == 0:
        return
    angles = gaps[:len(near_zero)] + [np.pi / 2 - g for g in gaps[len(near_zero):]]
    p, q = pair_with_dims(*intersections, 2 * len(angles), angles, seed=seed)
    rtol = Tolerance().rank_rtol
    clear = all(g >= 10 * rtol for g in gaps)
    _assert_split(
        p, q,
        expected=(*intersections, 2 * len(angles)) if clear else None,
        reference=all(g <= rtol / 10 or g * g / 2 >= 10 * rtol for g in gaps),
    )


@pytest.mark.parametrize(
    "dims",
    [
        (0, 3, 0, 0, 0),  # r = s = 0
        (3, 0, 0, 0, 0),  # r = s = n
        (0, 0, 3, 0, 0),  # r = n, s = 0
        (0, 0, 0, 3, 0),  # r = 0, s = n
        (2, 0, 0, 3, 0),  # r = 2, s = n
        (0, 2, 3, 0, 0),  # r = 3, s = 0
        (3, 1, 2, 0, 4),  # r = 7 against n - r = 3: padded, non-square blocks
        (0, 5, 1, 2, 2),  # r = 2 against n - r = 8
    ],
)
def test_rank_rule_on_empty_and_padded_blocks(dims):
    p, q = pair_with_dims(*dims, [0.6] * (dims[4] // 2), seed=sum(dims))
    _assert_split(p, q, dims)


def test_pair_whose_full_svd_did_not_converge():
    """A near-edge pair (n = 42) on which the SVD with vectors of the ``n x
    n`` stack ``[P - Q, P + Q - 1]`` raised ``NoConvergence`` (numpy 2.4);
    the blocks of ``V_P* V_Q`` split it.  Two of its gaps fall below
    rank_rtol: one aligned, one crossed plane."""
    near_zero = [0.0011331291683913166, 1.6015278271669035e-10, 3.1005455477266394e-10,
                 3.239242684468558e-08, 0.08257190895494715, 5.778254655934364e-12,
                 1.0130080601951835e-10]
    near_half_pi = [1.0048952392954845e-12, 4.613823606186546e-09, 3.421227173502622e-10,
                    2.8444361189053964e-05, 4.849544822823541e-07, 3.7167823825385206e-08,
                    2.2873167279363498e-10]
    angles = near_zero + [np.pi / 2 - g for g in near_half_pi]
    p, q = pair_with_dims(3, 0, 6, 5, 28, angles, seed=491)
    _assert_split(p, q, (4, 1, 7, 6, 24), reference=False)


def test_split_factors_no_n_by_n_matrix(monkeypatch):
    """The rank decisions and the CS split factor blocks of ``V_P* V_Q``: no
    SVD with vectors of a matrix larger than ``max(r, n - r) x s``, none of
    a zero-padded block (``r = 7`` against ``n - r = 3`` in the second
    pair), and ``X[:r, :s]`` once, its factors shared by the rank decisions
    and the CS step."""
    inputs = []
    real = np.linalg.svd

    def recorded(m, full_matrices=True, compute_uv=True, **kwargs):
        if compute_uv:
            inputs.extend(np.reshape(m, (-1,) + np.shape(m)[-2:]))
        return real(m, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    for dims in (2, 2, 1, 1, 26), (3, 1, 2, 0, 4):
        n, r, s = sum(dims), dims[0] + dims[2] + dims[4] // 2, dims[0] + dims[3] + dims[4] // 2
        p, q = pair_with_dims(*dims, np.linspace(0.1, 1.4, dims[4] // 2), seed=9)
        x11 = projections._split(projections._pair(p, q), Tolerance()).x[:r, :s]
        inputs.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", recorded)
            assert halmos_decompose(p, q).dims == dims
        shapes = [m.shape for m in inputs]
        assert shapes
        assert all(rows <= max(r, n - r) and cols <= s for rows, cols in shapes), shapes
        assert sum(np.array_equal(m, x11) for m in inputs) == 1
        assert not any((m == 0).all(axis=-1).any() for m in inputs)


class TestIndexPair:
    def test_equal_pair(self):
        p = random_projection(5, 2, 0)
        assert index_pair(p, p) == (0, 0)

    def test_nested_ranges(self):
        p = np.diag([1.0, 1.0, 0.0]).astype(complex)
        q = np.diag([1.0, 0.0, 0.0]).astype(complex)
        # oracle: P - Q - 1 = diag(-1, 0, -1) has nullity 1
        assert index_pair(p, q) == (1, 0)

    def test_crossed(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.diag([0.0, 1.0]).astype(complex)
        assert index_pair(p, q) == (1, 1)

    def test_agrees_with_halmos(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            p, q = pair_with_dims(
                0, 1, 2, 1, 2, rng.uniform(0.2, 1.3, 1), seed=trial + 2000
            )
            ip = index_pair(p, q)
            fs = halmos_decompose(p, q)
            assert (ip.d_plus, ip.d_minus) == (fs.dims[2], fs.dims[3])


class TestDiffSum:
    def test_equal_pair_exact(self):
        p = random_projection(4, 2, 3)
        ds = diff_sum(p, p)
        assert op_norm(ds.a) <= 1e-12
        assert np.allclose(ds.b, 2 * p)

    def test_crossed_pair_annihilator_maximal(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.diag([0.0, 1.0]).astype(complex)
        ds = diff_sum(p, q)
        assert op_norm(ds.b - np.eye(2)) <= 1e-14

    def test_identity_battery(self):
        rng = np.random.default_rng(12)
        for trial in range(1000):
            n = int(rng.integers(2, 17))
            p = random_projection(n, int(rng.integers(0, n + 1)), rng)
            q = random_projection(n, int(rng.integers(0, n + 1)), rng)
            ds = diff_sum(p, q)
            eye = np.eye(n)
            r1 = op_norm(ds.a @ ds.a + ds.b @ ds.b - 2 * ds.b)
            r2 = op_norm((ds.b - eye) @ (ds.b - eye) - (eye - ds.a) @ (eye + ds.a))
            assert r1 <= 1e-11
            assert r2 <= 1e-11
            assert ds.residual == max(r1, r2)


    def test_defective_pair_reports_residual(self):
        # both inputs pass make_projection's 1e-10; the identities miss by
        # about 2 * 5e-11
        p = np.diag([1.0 + 5e-11, 0.0])
        ds = diff_sum(p, np.zeros((2, 2)))
        assert ds.residual == pytest.approx(1e-10, rel=1e-3)

    def test_defective_pair_fails_one_trial(self, monkeypatch, capsys):
        def defective(n, rank, seed):
            return np.diag([1.0 + 5e-11] + [0.0] * (n - 1)).astype(complex)

        monkeypatch.setattr(suites, "random_projection", defective)
        report = suites.run_suite("identities", 2, 0)
        assert report.failures == 2
        assert [r["ok"] for r in report.records] == [False, False]
        assert all(r["failed"] == ["identities.residual"] for r in report.records)
        assert report.checks["identities.residual"] > 1e-11
        rc = main(["verify", "--suite", "identities", "--trials", "1", "--seed", "0"])
        assert rc == 1
        assert '"ok": false' in capsys.readouterr().out

def test_distance_bounded_by_one():
    rng = np.random.default_rng(13)
    for trial in range(200):
        n = int(rng.integers(2, 17))
        p = random_projection(n, int(rng.integers(0, n + 1)), rng)
        q = random_projection(n, int(rng.integers(0, n + 1)), rng)
        dist = op_norm(p - q)
        assert dist <= 1.0 + 1e-12
        if dist < 1.0 - 1e-8:
            assert index_pair(p, q) == (0, 0)


def test_random_unitary_is_unitary():
    u = random_unitary(9, 21)
    assert op_norm(u.conj().T @ u - np.eye(9)) <= 1e-12


def _haar_keys(kind, count):
    """``count`` fresh keys of one kind, the same on every call."""
    if kind == "int":
        return [40 + i for i in range(count)]
    if kind == "tuple":
        return [(40 + i, 5, 1) for i in range(count)]
    if kind == "generator":
        return [np.random.default_rng(40 + i) for i in range(count)]
    rng = np.random.default_rng(40)  # one generator read by every key in turn
    return [rng] * count


@pytest.mark.parametrize("kind", ["int", "tuple", "generator", "shared generator"])
@pytest.mark.parametrize("count", [1, 10])
@pytest.mark.parametrize("n", [1, 2, 7, 14, 128])
def test_haar_unitaries_match_one_gaussian_per_key(n, count, kind):
    # random_unitary draws and factors each key alone, the reference one
    # Gaussian temporary per key and one QR of their stack: the unitaries
    # agree bit for bit
    got = np.array([random_unitary(n, key) for key in _haar_keys(kind, count)])
    ref = reference_haar_unitaries(n, _haar_keys(kind, count))
    assert got.shape == ref.shape == (count, n, n)
    assert got.tobytes() == ref.tobytes()
