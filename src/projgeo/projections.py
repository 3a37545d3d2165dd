"""Selfadjoint projections and the joint structure of a pair.

A projection is represented as a plain complex array ``P`` with
``P = P* = P^2`` up to the construction tolerance.  For a pair ``(P, Q)``
the space splits into five parts that reduce both operators: the four
intersections ``R(P)&R(Q)``, ``N(P)&N(Q)``, ``R(P)&N(Q)``, ``N(P)&R(Q)``
and a generic part on which the pair has trivial intersections.  The two
"crossed" dimensions form the index pair; their equality is the geodesic
existence criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadRank, DimMismatch, InconsistentDims, NotAProjection
from .numkernel import (
    Tolerance,
    _hermitize,
    as_cmatrix,
    default_tolerance,
    nullspace,
    op_norm,
    require_square,
)

# construction tolerance, deliberately looser than the kernel recon_rtol so
# that conjugated/compressed projections still validate
PROJECTION_ATOL = 1e-10


def make_projection(m, tol: float = PROJECTION_ATOL) -> np.ndarray:
    """Validate that ``m`` is a selfadjoint projection and return it.

    No repair is attempted: a matrix that violates ``P = P*`` or
    ``P^2 = P`` beyond ``tol`` raises ``NotAProjection`` with the violated
    bound.
    """
    p = as_cmatrix(m)
    require_square(p)
    sym_defect = op_norm(p - p.conj().T)
    if sym_defect > tol:
        raise NotAProjection(f"|P - P*| = {sym_defect:.3e} > {tol:.1e}")
    idem_defect = op_norm(p @ p - p)
    if idem_defect > tol:
        raise NotAProjection(f"|P^2 - P| = {idem_defect:.3e} > {tol:.1e}")
    return p


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed unitary (QR of a complex Gaussian, phases fixed)."""
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r).copy()
    d = np.where(np.abs(d) == 0.0, 1.0, d / np.abs(d))
    return q * d


def random_projection(n: int, r: int, seed) -> np.ndarray:
    """Rank-``r`` projection, Haar-conjugated from ``diag(1^r, 0^(n-r))``."""
    if not 0 <= r <= n:
        raise BadRank(f"rank {r} outside [0, {n}]")
    if r == 0:
        return np.zeros((n, n), dtype=np.complex128)
    if r == n:
        return np.eye(n, dtype=np.complex128)
    u = random_unitary(n, seed)
    p = u[:, :r] @ u[:, :r].conj().T
    return make_projection(_hermitize(p))


def pair_with_dims(
    dim11: int,
    dim00: int,
    dim10: int,
    dim01: int,
    dimgen: int,
    angles,
    seed=0,
) -> tuple[np.ndarray, np.ndarray]:
    """Projection pair with prescribed five-space dimensions.

    ``dimgen`` must be even with one principal angle in ``(0, pi/2)`` per
    generic 2-plane.  The canonical block pair is conjugated by a Haar
    unitary drawn from ``seed``.
    """
    dims = (dim11, dim00, dim10, dim01, dimgen)
    if any(d < 0 for d in dims):
        raise InconsistentDims(f"negative dimension in {dims}")
    if dimgen % 2:
        raise InconsistentDims(f"generic dimension {dimgen} must be even")
    angles = np.atleast_1d(np.asarray(angles, dtype=float)) if angles is not None \
        else np.zeros(0)
    if len(angles) != dimgen // 2:
        raise InconsistentDims(
            f"need {dimgen // 2} angles for generic dimension {dimgen}, "
            f"got {len(angles)}"
        )
    if np.any(angles <= 0.0) or np.any(angles >= np.pi / 2):
        raise InconsistentDims("principal angles must lie strictly in (0, pi/2)")
    n = sum(dims)
    if n == 0:
        raise InconsistentDims("total dimension is zero")

    p0 = np.zeros((n, n), dtype=np.complex128)
    q0 = np.zeros((n, n), dtype=np.complex128)
    i = 0
    for _ in range(dim11):
        p0[i, i] = 1.0
        q0[i, i] = 1.0
        i += 1
    i += dim00
    for _ in range(dim10):
        p0[i, i] = 1.0
        i += 1
    for _ in range(dim01):
        q0[i, i] = 1.0
        i += 1
    for theta in angles:
        c, s = np.cos(theta), np.sin(theta)
        p0[i, i] = 1.0
        q0[i:i + 2, i:i + 2] = [[c * c, c * s], [c * s, s * s]]
        i += 2

    u = random_unitary(n, seed)
    p = u @ p0 @ u.conj().T
    q = u @ q0 @ u.conj().T
    return (
        make_projection(_hermitize(p)),
        make_projection(_hermitize(q)),
    )


class IndexPair(NamedTuple):
    d_plus: int   # dim N(P - Q - 1) = dim R(P) & N(Q)
    d_minus: int  # dim N(P - Q + 1) = dim N(P) & R(Q)


@dataclass(frozen=True)
class FiveSpace:
    """Orthonormal bases of the five reducing subspaces of a pair.

    ``m11, m00, m10, m01`` span the four intersections, ``h0`` the generic
    part; ``p0, q0`` are the compressions of the pair to ``h0`` expressed in
    the ``h0`` basis (a pair in generic position).
    """

    m11: np.ndarray
    m00: np.ndarray
    m10: np.ndarray
    m01: np.ndarray
    h0: np.ndarray
    p0: np.ndarray
    q0: np.ndarray

    @property
    def dims(self) -> tuple[int, int, int, int, int]:
        return (
            self.m11.shape[1],
            self.m00.shape[1],
            self.m10.shape[1],
            self.m01.shape[1],
            self.h0.shape[1],
        )


def _orthogonal_complement(cols: np.ndarray, n: int) -> np.ndarray:
    k = cols.shape[1]
    if k == 0:
        return np.eye(n, dtype=np.complex128)
    if k >= n:
        return np.zeros((n, 0), dtype=np.complex128)
    u = np.linalg.svd(cols, full_matrices=True)[0]
    return u[:, k:]


def _require_same_dim(p: np.ndarray, q: np.ndarray) -> int:
    if p.shape != q.shape:
        raise DimMismatch(f"shapes {p.shape} and {q.shape} differ")
    return p.shape[0]


def halmos_decompose(p, q, tol: Tolerance | None = None) -> FiveSpace:
    """Five-space decomposition of a projection pair.

    The intersections are read off as nullspaces of ``P - Q -+ 1``,
    ``P + Q`` and ``P + Q - 2``; the generic part is their joint orthogonal
    complement.  Its basis is ordered by ascending eigenvalue of the
    compression of ``P - Q``, which makes the output reproducible.
    """
    tol = tol or default_tolerance()
    return _decompose(make_projection(p), make_projection(q), tol)


def _decompose(p: np.ndarray, q: np.ndarray, tol: Tolerance) -> FiveSpace:
    """``halmos_decompose`` of a pair that ``make_projection`` already
    accepted; callers that validate at their own boundary use this to
    decompose each pair once."""
    n = _require_same_dim(p, q)
    eye = np.eye(n)
    diff = _hermitize(p - q)
    summ = _hermitize(p + q)
    # the intersection operators live at unit scale: threshold against it,
    # so that an operator that is zero up to roundoff gets full nullity
    m10 = nullspace(diff - eye, tol, scale=1.0)
    m01 = nullspace(diff + eye, tol, scale=1.0)
    m11 = nullspace(summ - 2 * eye, tol, scale=1.0)
    m00 = nullspace(summ, tol, scale=1.0)
    stacked = np.hstack([m11, m00, m10, m01])
    h0 = _orthogonal_complement(stacked, n)
    if h0.shape[1]:
        comp = _hermitize(h0.conj().T @ diff @ h0)
        _, vecs = np.linalg.eigh(comp)
        h0 = h0 @ vecs
        p0 = make_projection(_hermitize(h0.conj().T @ p @ h0))
        q0 = make_projection(_hermitize(h0.conj().T @ q @ h0))
    else:
        p0 = np.zeros((0, 0), dtype=np.complex128)
        q0 = np.zeros((0, 0), dtype=np.complex128)
    return FiveSpace(m11=m11, m00=m00, m10=m10, m01=m01, h0=h0, p0=p0, q0=q0)


def index_pair(p, q, tol: Tolerance | None = None) -> IndexPair:
    """Nullities of ``P - Q -+ 1``: the crossed-intersection dimensions."""
    tol = tol or default_tolerance()
    p = as_cmatrix(p)
    q = as_cmatrix(q)
    n = _require_same_dim(p, q)
    eye = np.eye(n)
    diff = _hermitize(p - q)
    return IndexPair(
        d_plus=nullspace(diff - eye, tol, scale=1.0).shape[1],
        d_minus=nullspace(diff + eye, tol, scale=1.0).shape[1],
    )


def principal_angles(fs: FiveSpace) -> np.ndarray:
    """Principal angles of the generic part, ascending, in radians.

    On the generic part the spectrum of ``P - Q`` is ``+-sin(theta)`` per
    angle; the positive half is inverted through ``arcsin``.
    """
    m = fs.p0.shape[0]
    if m == 0:
        return np.zeros(0)
    w = np.linalg.eigvalsh(_hermitize(fs.p0 - fs.q0))
    pos = np.sort(w[w > 0.0])
    return np.arcsin(np.clip(pos, 0.0, 1.0))


def fivespace_report(fs: FiveSpace) -> dict:
    """JSON-ready summary: integer dimensions plus generic-part angles."""
    d11, d00, d10, d01, dgen = fs.dims
    return {
        "dims": {"m11": d11, "m00": d00, "m10": d10, "m01": d01, "generic": dgen},
        "index": [d10, d01],
        "angles": [float(a) for a in principal_angles(fs)],
    }


@dataclass(frozen=True)
class DiffSum:
    """Difference and sum of a pair: ``a = P - Q``, ``b = P + Q``.

    They satisfy ``a^2 + b^2 = 2 b`` and ``(b-1)^2 = (1-a)(1+a)``; both
    identities are verified at construction, and ``residual`` is the larger
    of the two defects.
    """

    a: np.ndarray
    b: np.ndarray
    residual: float


def diff_sum(p, q) -> DiffSum:
    p = make_projection(p)
    q = make_projection(q)
    n = _require_same_dim(p, q)
    a = _hermitize(p - q)
    b = _hermitize(p + q)
    eye = np.eye(n)
    r1 = op_norm(a @ a + b @ b - 2 * b)
    r2 = op_norm((b - eye) @ (b - eye) - (eye - a) @ (eye + a))
    residual = max(r1, r2)
    if residual > 1e-11:
        raise ValueError(f"pair identities violated: residuals {r1:.3e}, {r2:.3e} > 1e-11")
    return DiffSum(a=a, b=b, residual=residual)
