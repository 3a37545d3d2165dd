import numpy as np
import pytest

from projgeo import suites
from projgeo.cli import main
from projgeo.errors import BadRank, DimMismatch, InconsistentDims, NotAProjection
from projgeo.numkernel import _hermitize, op_norm
from projgeo.projections import (
    diff_sum,
    fivespace_report,
    halmos_decompose,
    index_pair,
    make_projection,
    pair_with_dims,
    random_projection,
    random_unitary,
)


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


class TestRandomProjection:
    def test_rank_zero_and_full(self):
        assert np.allclose(random_projection(4, 0, 1), 0.0)
        assert np.allclose(random_projection(4, 4, 1), np.eye(4))

    def test_trace_equals_rank(self):
        p = random_projection(8, 3, 7)
        assert abs(np.trace(p).real - 3.0) <= 1e-12

    def test_bad_rank(self):
        with pytest.raises(BadRank):
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
        assert report.worst_residual > 1e-11
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
