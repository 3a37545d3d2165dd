import numpy as np
import pytest
import scipy.linalg

from projgeo.blockmodel import BlockOperator, lift_geodesic
from projgeo.errors import NoConvergence, NotAProjection, NotCodiagonal, NotHermitian, NotUnitary
from projgeo.numkernel import (
    Tolerance,
    cs_decompose,
    herm_eig,
    nullspace,
    op_norm,
)
from projgeo.projections import make_projection, random_unitary

# the polar factor, the principal logarithm and the skew exponential are no
# longer package kernels; they remain as the old-pipeline reference, tested
# here
from reference_pipeline import (
    LogAtMinusOne,
    NotSkew,
    SingularInput,
    expm_skew,
    logm_unitary_principal,
    polar_unitary,
)


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_skew(n, rng, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z = (a - a.conj().T) / 2
    return scale * z / max(op_norm(z), 1e-300)


class TestHermEig:
    def test_diagonal(self):
        w, u = herm_eig(np.diag([2.0, -1.0]).astype(complex))
        assert np.allclose(w, [-1.0, 2.0])
        assert np.allclose(np.abs(u), [[0, 1], [1, 0]])

    def test_off_diagonal_symmetry(self):
        w, _ = herm_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        a = random_hermitian(8, rng)
        w, u = herm_eig(a)
        # oracle: explicit multiplication
        assert op_norm((u * w) @ u.conj().T - a) <= 1e-12 * op_norm(a)
        assert op_norm(u.conj().T @ u - np.eye(8)) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_tiny_non_hermitian(self):
        # relative asymmetry 1.0, however small the matrix
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0, 1e-320], [0, 0]], dtype=complex))

    def test_invariant_battery(self):
        rng = np.random.default_rng(7)
        for trial in range(1000):
            n = int(rng.integers(2, 17))
            a = random_hermitian(n, rng)
            w, u = herm_eig(a)
            assert np.all(np.diff(w) >= 0)
            assert op_norm((u * w) @ u.conj().T - a) <= 1e-12 * op_norm(a)
            assert op_norm(u.conj().T @ u - np.eye(n)) <= 1e-12


class TestOpNorm:
    def test_zero(self):
        assert op_norm(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert op_norm(np.diag([3.0, -5.0])) == 5.0

    def test_against_spectral_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        # oracle: largest eigenvalue of (A* A)^{1/2}
        w, _ = herm_eig(a.conj().T @ a)
        assert abs(op_norm(a) - np.sqrt(w[-1])) <= 1e-12 * np.sqrt(w[-1])

    def test_unitary_invariance(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            n = int(rng.integers(2, 10))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            u = random_unitary(n, rng)
            v = random_unitary(n, rng)
            assert abs(op_norm(u @ a @ v) - op_norm(a)) <= 1e-12 * max(op_norm(a), 1)


class TestNullspace:
    def test_diagonal_with_kernel(self):
        basis = nullspace(np.diag([0.0, -2.0]).astype(complex))
        assert basis.shape == (2, 1)
        assert abs(abs(basis[0, 0]) - 1.0) <= 1e-14

    def test_invertible(self):
        assert nullspace(np.diag([2.0, 1.0]).astype(complex)).shape == (2, 0)

    def test_crossed_projection_difference(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.diag([0.0, 1.0]).astype(complex)
        # oracle: P - Q - 1 = diag(0, -2) has nullity 1
        assert nullspace(p - q - np.eye(2)).shape[1] == 1

    def test_zero_matrix_full_nullity(self):
        assert nullspace(np.zeros((4, 4))).shape == (4, 4)

    def test_basis_annihilates(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        a[:, 2] = a[:, 0] + a[:, 1]
        basis = nullspace(a.T @ a)  # rank-deficient gram matrix
        assert basis.shape[1] >= 1
        assert op_norm((a.T @ a) @ basis) <= 1e-9 * op_norm(a.T @ a)

    def test_empty_blocks(self):
        # no columns: a basis of width 0; no rows: the whole space
        assert [b.shape for b in nullspace(np.zeros((2, 3, 0)))] == [(0, 0), (0, 0)]
        assert [b.shape for b in nullspace(np.zeros((2, 0, 3)))] == [(3, 3), (3, 3)]

    @pytest.mark.parametrize("rows,cols,rank", [(3, 5, 2), (5, 3, 2), (4, 4, 0), (2, 6, 2)])
    def test_zero_padding_keeps_the_basis(self, rows, cols, rank):
        rng = np.random.default_rng(10 * rows + cols)

        def gaussian(m, k):
            return rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))

        block = gaussian(rows, rank) @ gaussian(rank, cols)
        padded = np.zeros((2, rows + 3, cols), dtype=complex)
        padded[0, :rows], padded[1, 3:] = block, block
        bare = nullspace(block)
        assert bare.shape == (cols, cols - rank)
        for basis in nullspace(padded):
            assert basis.shape == bare.shape
            assert op_norm(basis @ basis.conj().T - bare @ bare.conj().T) <= 1e-10


def _cs_residual(x, p, q, u1, u2, theta) -> float:
    """Largest defect of ``(u1, u2, theta)`` as the left factors and angles
    of the CS decomposition of ``x`` split at ``(p, q)``: unitarity, the
    diagonal Gram matrices ``diag(1, cos^2, 0)`` and ``diag(0, sin^2, 1)`` of
    the two blocks' rows, and each angle's two rows on one right vector."""
    n = x.shape[0]
    k, a, b = min(p, n - p, q, n - q), max(0, p + q - n), max(0, n - p - q)
    c11, c21 = u1.conj().T @ x[:p, :q], u2.conj().T @ x[p:, :q]
    cos2 = np.concatenate([np.ones(a), np.cos(theta) ** 2, np.zeros(p - a - k)])
    sin2 = np.concatenate([np.zeros(b), np.sin(theta) ** 2, np.ones(n - p - b - k)])
    defects = [
        u1.conj().T @ u1 - np.eye(p),
        u2.conj().T @ u2 - np.eye(n - p),
        c11 @ c11.conj().T - np.diag(cos2),
        c21 @ c21.conj().T - np.diag(sin2),
        np.sin(theta)[:, None] * c11[a:a + k] - np.cos(theta)[:, None] * c21[b:b + k],
    ]
    return max((np.abs(d).max() for d in defects if d.size), default=0.0)


def _unitary_with_angles(n, p, q, theta, seed):
    """``diag(u1, u2) D diag(v1, v2)*`` with Haar factors and the CS middle
    factor ``D`` of the given angles (``len(theta) == min(p, n-p, q, n-q)``)."""
    k, a, b = len(theta), max(0, p + q - n), max(0, n - p - q)
    c, s = np.cos(theta), np.sin(theta)
    d = np.zeros((n, n))
    # R(Q)'s columns: a aligned, k in the planes, the rest crossed into N(P)
    d[:a, :a] = np.eye(a)
    d[a + np.arange(k), a + np.arange(k)] = c
    d[p + b + np.arange(k), a + np.arange(k)] = s
    d[p + b + k:, a + k:q] = np.eye(q - a - k)
    # N(Q)'s columns complete it to a unitary
    d[:, q:] = np.linalg.qr(d[:, :q], mode="complete")[0][:, q:]
    u = scipy.linalg.block_diag(random_unitary(p, seed), random_unitary(n - p, seed + 1))
    v = scipy.linalg.block_diag(random_unitary(q, seed + 2), random_unitary(n - q, seed + 3))
    return u @ d @ v.conj().T


class TestCSDecompose:
    @pytest.mark.parametrize("n,p,q", [(6, 2, 3), (6, 4, 3), (7, 5, 5), (5, 1, 4), (8, 4, 4)])
    def test_structure(self, n, p, q):
        x = random_unitary(n, n + 10 * p + q)
        u1, u2, theta = cs_decompose(x, p, q)
        k = min(p, n - p, q, n - q)
        a, b = max(0, p + q - n), max(0, n - p - q)
        assert theta.shape == (k,)
        assert np.all(np.diff(theta) >= 0) and theta[0] >= 0 and theta[-1] <= np.pi / 2
        assert op_norm(u1.conj().T @ u1 - np.eye(p)) <= 1e-12
        assert op_norm(u2.conj().T @ u2 - np.eye(n - p)) <= 1e-12
        # the first q columns of x, seen from u1 and u2, hold the identity
        # block, then cos and sin of the angles, then zeros
        c11 = u1.conj().T @ x[:p, :q]
        c21 = u2.conj().T @ x[p:, :q]
        sv11 = np.linalg.svd(c11[a:a + k], compute_uv=False)
        sv21 = np.linalg.svd(c21[b:b + k], compute_uv=False)
        assert np.allclose(np.sort(sv11), np.sort(np.cos(theta)), atol=1e-12)
        assert np.allclose(np.sort(sv21), np.sort(np.sin(theta)), atol=1e-12)
        assert op_norm(c11[a + k:]) <= 1e-12 and op_norm(c21[:b]) <= 1e-12

    def test_angles_ascending_with_exact_edges(self):
        # R(P) = span(e0, e2, e4) meets R(Q) = span(e0, e3, c e4 + s e5) at
        # the angles 0, pi/2 and 0.3, listed out of order
        c, s = np.cos(0.3), np.sin(0.3)
        e = np.eye(6)
        v = e[:, [0, 2, 4, 1, 3, 5]]
        w = np.column_stack([c * e[4] + s * e[5], e[3], e[0], e[2], c * e[5] - s * e[4], e[1]])
        _, _, theta = cs_decompose(v.T @ w, 3, 3)
        assert np.allclose(theta, [0.0, 0.3, np.pi / 2], atol=1e-15)

    @pytest.mark.parametrize("n,p,q", [(6, 2, 3), (6, 4, 3), (7, 5, 5), (5, 1, 4), (8, 4, 4)])
    def test_against_cossin(self, n, p, q):
        x = random_unitary(n, n + 10 * p + q)
        u1, u2, theta = cs_decompose(x, p, q)
        _, reference, _ = scipy.linalg.cossin(x, p=p, q=q, separate=True, compute_vh=False)
        assert np.abs(theta - reference).max() <= 1e-14
        assert _cs_residual(x, p, q, u1, u2, theta) <= 1e-13

    @pytest.mark.parametrize("p,q", [(0, 0), (0, 2), (0, 5), (5, 0), (5, 3), (5, 5), (2, 0), (2, 5)])
    def test_trivial_blocks(self, p, q):
        # scipy's cossin requires 0 < p, q < n; here every direction is
        # forced aligned or crossed, and there is no angle
        x = random_unitary(5, 10 * p + q)
        u1, u2, theta = cs_decompose(x, p, q)
        assert (u1.shape, u2.shape, theta.shape) == ((p, p), (5 - p, 5 - p), (0,))
        assert _cs_residual(x, p, q, u1, u2, theta) <= 1e-13

    @pytest.mark.parametrize("n,p,q", [(12, 5, 5), (12, 5, 8), (12, 7, 5), (13, 6, 6)])
    def test_angles_near_both_edges(self, n, p, q):
        k = min(p, n - p, q, n - q)
        edges = [3e-10, 1e-9, np.pi / 2 - 1e-9, np.pi / 2 - 3e-10]
        angles = np.sort(np.concatenate([edges, np.linspace(0.2, 1.4, k - 4)]))
        x = _unitary_with_angles(n, p, q, angles, seed=n + p + q)
        u1, u2, theta = cs_decompose(x, p, q)
        _, reference, _ = scipy.linalg.cossin(x, p=p, q=q, separate=True, compute_vh=False)
        assert np.abs(theta - reference).max() <= 1e-14
        assert np.abs(theta - angles).max() <= 1e-14
        assert _cs_residual(x, p, q, u1, u2, theta) <= 1e-13


@pytest.mark.parametrize(
    "kernel",
    [
        op_norm,
        nullspace,
        lambda m: cs_decompose(m, 2, 2),
    ],
    ids=["op_norm", "nullspace", "cs_decompose"],
)
def test_svd_failure_is_no_convergence(monkeypatch, kernel):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NoConvergence, match="did not converge"):
        kernel(random_unitary(4, 0))


E1, E2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
# finite and not Hermitian; its norm, about 4e308, overflows
BIG_ASYMMETRIC = np.full((4, 4), 1e308)
BIG_ASYMMETRIC[0, 1] = 0.5e308


@pytest.mark.parametrize(
    "door,error,message",
    [
        (lambda: make_projection(np.full((2, 2), 1e200)), NotAProjection, "P\\^2 - P\\| = inf"),
        (lambda: herm_eig(np.array([[1e308, 1e308], [-1e308, 1e308]])), NotHermitian,
         "asymmetry inf"),
        (lambda: herm_eig(BIG_ASYMMETRIC), NotHermitian,
         "asymmetry 5.000e\\+307 exceeds 1.0e-12 \\* norm inf"),
        (lambda: lift_geodesic(E1, np.array([[0.0, 1e308], [1e308, 0.0]]),
                               BlockOperator(2, (E2,), E1)), NotCodiagonal, "not skew"),
    ],
    ids=["make_projection", "herm_eig", "herm_eig_norm", "lift_geodesic"],
)
def test_finite_input_whose_defect_overflows_gets_its_typed_refusal(door, error, message):
    # the defect's arithmetic, or the norm it is measured against, overflows
    # to inf: no RuntimeWarning (an error under the suite's filterwarnings),
    # and the door's own refusal, not the generic ValueError for a non-finite
    # matrix nor an eigendecomposition with an inf eigenvalue
    with pytest.raises(error, match=message):
        door()


class TestPolarUnitary:
    def test_diagonal_signs(self):
        v = polar_unitary(np.diag([3.0, -2.0]).astype(complex))
        assert np.allclose(v, np.diag([1.0, -1.0]))

    def test_identity(self):
        assert np.allclose(polar_unitary(np.eye(4, dtype=complex)), np.eye(4))

    def test_singular_input(self):
        with pytest.raises(SingularInput):
            polar_unitary(np.diag([1.0, 0.0]).astype(complex))

    def test_spectral_sign_oracle(self):
        rng = np.random.default_rng(4)
        a = random_hermitian(6, rng) + 3 * np.eye(6)  # push away from singular
        a = a - 2.5 * np.eye(6)  # mixed signs, still invertible generically
        v = polar_unitary(a)
        w, u = herm_eig(a)
        expected = (u * np.where(w >= 0, 1.0, -1.0)) @ u.conj().T
        assert op_norm(v - expected) <= 1e-11

    def test_reconstructs_input(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            n = int(rng.integers(2, 9))
            a = random_hermitian(n, rng) + np.diag(rng.choice([-2.0, 2.0], n))
            w = np.linalg.eigvalsh(a)
            if np.min(np.abs(w)) < 1e-3:
                continue
            v = polar_unitary(a)
            assert op_norm(v @ v - np.eye(n)) <= 1e-12
            assert op_norm(v - v.conj().T) <= 1e-12
            ew, eu = herm_eig(a)
            absolute = (eu * np.abs(ew)) @ eu.conj().T
            assert op_norm(v @ absolute - a) <= 1e-11


class TestExpmSkew:
    def test_zero(self):
        assert np.allclose(expm_skew(np.zeros((3, 3))), np.eye(3))

    def test_rotation_closed_form(self):
        theta = np.pi / 2
        z = theta * np.array([[0, -1], [1, 0]], dtype=complex)
        expected = np.array([[0, -1], [1, 0]], dtype=complex)
        assert op_norm(expm_skew(z) - expected) <= 1e-14

    def test_inverse_check(self):
        rng = np.random.default_rng(6)
        z = random_skew(6, rng, scale=1.3)
        e = expm_skew(z) @ expm_skew(-z)
        assert op_norm(e - np.eye(6)) <= 1e-11

    def test_rejects_non_skew(self):
        with pytest.raises(NotSkew):
            expm_skew(np.eye(2, dtype=complex))


class TestLogmUnitary:
    def test_identity(self):
        log = logm_unitary_principal(np.eye(3, dtype=complex))
        assert op_norm(log.skew) <= 1e-14
        assert log.within_half_pi and not log.near_minus_one

    def test_diagonal_phases(self):
        log = logm_unitary_principal(np.diag([1j, -1j]))
        assert np.allclose(log.skew, np.diag([1j * np.pi / 2, -1j * np.pi / 2]))
        assert log.within_half_pi

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        for trial in range(100):
            n = int(rng.integers(2, 9))
            z = random_skew(n, rng, scale=np.pi / 2 - 0.01)
            recovered = logm_unitary_principal(expm_skew(z)).skew
            assert op_norm(recovered - z) <= 1e-9

    def test_reconstructs_unitary(self):
        rng = np.random.default_rng(9)
        w = random_unitary(7, rng)
        log = logm_unitary_principal(w)
        assert op_norm(expm_skew(log.skew) - w) <= 1e-12

    def test_branch_closed_at_pi(self):
        log = logm_unitary_principal(np.array([[-1.0 + 0j]]))
        assert np.allclose(log.skew, [[1j * np.pi]])
        assert log.near_minus_one and not log.within_half_pi

    def test_minus_one_flagged(self):
        with pytest.raises(LogAtMinusOne):
            logm_unitary_principal(np.diag([-1.0 + 0j, 1.0]), require_interior=True)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            logm_unitary_principal(2 * np.eye(2, dtype=complex))


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rank_rtol=0.5)
    with pytest.raises(ValueError):
        Tolerance(rank_rtol=-1e-9)
    assert Tolerance().rank_rtol == 1e-10
