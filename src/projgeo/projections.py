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
    _adjoint,
    _first,
    _hermitize,
    as_cmatrix,
    as_cstack,
    cs_decompose,
    default_tolerance,
    herm_eig,
    nullspace,
    op_norm,
    require_square,
)

# construction tolerance, deliberately looser than the kernel recon_rtol so
# that conjugated/compressed projections still validate
PROJECTION_ATOL = 1e-10


def make_projection(m) -> np.ndarray:
    """Validate that ``m`` is a selfadjoint projection and return it.

    ``m`` is a matrix or a stack ``(..., n, n)`` of matrices; both defect
    norms of every matrix come from one singular-value call.  No repair is
    attempted: a matrix that violates ``P = P*`` or ``P^2 = P`` beyond
    ``PROJECTION_ATOL`` raises ``NotAProjection`` with the violated bound
    (for a stack, that of the first such matrix).
    """
    p = as_cstack(m)
    require_square(p)
    sym_defects, idem_defects = op_norm(np.array([p - _adjoint(p), p @ p - p]))
    i = _first((sym_defects > PROJECTION_ATOL) | (idem_defects > PROJECTION_ATOL))
    if i is not None:
        sym_defect, idem_defect = np.ravel(sym_defects)[i], np.ravel(idem_defects)[i]
        if sym_defect > PROJECTION_ATOL:
            raise NotAProjection(f"|P - P*| = {sym_defect:.3e} > {PROJECTION_ATOL:.1e}")
        raise NotAProjection(f"|P^2 - P| = {idem_defect:.3e} > {PROJECTION_ATOL:.1e}")
    return p


def _rank(p: np.ndarray):
    """Rank of a projection, its trace rounded; for a stack ``(..., n, n)``,
    the integer array of the ranks of each projection."""
    ranks = np.rint(np.trace(p, axis1=-2, axis2=-1).real)
    return int(ranks) if p.ndim == 2 else ranks.astype(int)


def _random_unitaries(n: int, seeds) -> np.ndarray:
    """Stack of ``random_unitary(n, seed)`` over ``seeds``, with one QR call."""
    draws = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        draws.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    g = np.array(draws) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d = np.where(np.abs(d) == 0.0, 1.0, d / np.abs(d))
    return q * d[..., None, :]


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed unitary (QR of a complex Gaussian, phases fixed)."""
    return _random_unitaries(n, [seed])[0]


def _random_projections(n: int, r: int, seeds) -> np.ndarray:
    """Stack of ``random_projection(n, r, seed)`` over ``seeds``, validated
    as one stack."""
    if not 0 <= r <= n:
        raise BadRank(f"rank {r} outside [0, {n}]")
    k = len(seeds)
    if r == 0:
        return np.zeros((k, n, n), dtype=np.complex128)
    if r == n:
        return np.broadcast_to(np.eye(n, dtype=np.complex128), (k, n, n)).copy()
    u = _random_unitaries(n, seeds)[..., :r]
    return make_projection(_hermitize(u @ _adjoint(u)))


def random_projection(n: int, r: int, seed) -> np.ndarray:
    """Rank-``r`` projection, Haar-conjugated from ``diag(1^r, 0^(n-r))``."""
    return _random_projections(n, r, [seed])[0]


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
    """A validated pair and orthonormal bases of its five reducing subspaces.

    ``p, q`` are the pair as ``make_projection`` returned it.  ``m11, m00,
    m10, m01`` span the four intersections, ``h0`` the generic part, as the
    planes ``(x_j, g_j)`` of its principal angles ``angles`` (ascending) in
    consecutive columns: ``x_j`` in ``R(P)``, ``g_j`` in ``N(P)``, and
    ``cos x_j + sin g_j`` in ``R(Q)``.
    """

    p: np.ndarray
    q: np.ndarray
    m11: np.ndarray
    m00: np.ndarray
    m10: np.ndarray
    m01: np.ndarray
    h0: np.ndarray
    angles: np.ndarray

    @property
    def dims(self) -> tuple[int, int, int, int, int]:
        return (
            self.m11.shape[1],
            self.m00.shape[1],
            self.m10.shape[1],
            self.m01.shape[1],
            self.h0.shape[1],
        )


def _pair(p, q) -> np.ndarray:
    """The way a pair enters the library: both as matrices of one shape,
    validated as one ``(2, n, n)`` stack by ``make_projection``."""
    p, q = as_cmatrix(p), as_cmatrix(q)
    if p.shape != q.shape:
        raise DimMismatch(f"shapes {p.shape} and {q.shape} differ")
    return make_projection(np.array([p, q]))


class _Split(NamedTuple):
    """How the principal directions of a pair fall into the five parts.

    With ``r, s`` the ranks of ``P, Q``, the block sizes force ``a`` aligned
    directions in ``R(P)``, ``b`` in ``N(P)``, ``c`` crossed ones in
    ``R(P)`` and ``e`` in ``N(P)``; each of the other ``k`` directions of
    ``R(P)`` shares the plane of one principal angle with a direction of
    ``N(P)``.  Of those ``k`` angles, the ``aligned`` smallest and the
    ``crossed`` largest lie in the intersections.
    """

    r: int
    s: int
    a: int
    b: int
    c: int
    e: int
    k: int
    aligned: int
    crossed: int

    @property
    def index(self) -> IndexPair:
        return IndexPair(self.c + self.crossed, self.e + self.crossed)


def _split(p: np.ndarray, q: np.ndarray, tol: Tolerance) -> _Split:
    """The rank decisions of a pair, made once, at linear scale.

    On the plane of a principal angle ``theta``, ``P - Q`` has singular
    values ``sin theta`` and ``P + Q - 1`` has ``cos theta``, twice each;
    on the forced aligned and crossed directions they are 0 and 1.  So one
    stacked ``nullspace`` counts the angles with ``sin <= rank_rtol``
    (aligned) and with ``cos <= rank_rtol`` (crossed).
    """
    n = p.shape[0]
    r, s = _rank(p), _rank(q)
    a, b, c, e = max(0, r + s - n), max(0, n - r - s), max(0, r - s), max(0, s - r)
    k = r - a - c
    same, opposite = nullspace(np.array([p - q, p + q - np.eye(n)]), tol, scale=1.0)
    aligned = min(max((same.shape[1] - a - b) // 2, 0), k)
    crossed = min(max((opposite.shape[1] - c - e) // 2, 0), k - aligned)
    return _Split(r, s, a, b, c, e, k, aligned, crossed)


def halmos_decompose(p, q, tol: Tolerance | None = None) -> FiveSpace:
    """Validate a projection pair and split it into its five parts.

    The pair is validated here, once, by ``_pair``; the split carries it
    as ``fs.p`` and ``fs.q``.  The pair is split once by its
    principal angles: bases of ``R(P)``, ``N(P)``, ``R(Q)`` and ``N(Q)``
    from one stacked eigendecomposition, then one CS decomposition of the
    unitary between them.  The rank decisions of ``_split`` pick which
    angles are aligned or crossed, so the dimensions and the angles agree
    by construction.
    """
    tol = tol or default_tolerance()
    p, q = _pair(p, q)
    sp = _split(p, q, tol)
    n = p.shape[0]
    # eigenvectors with the ranges first
    vp, vq = herm_eig(np.array([p, q]), tol).eigenvectors[..., ::-1]
    if sp.k == 0:
        # P or Q is 0 or 1: every direction is aligned or crossed
        x1 = vq if sp.r == n else vp[:, :sp.r]
        x2 = vq[:, ::-1] if sp.r == 0 else vp[:, sp.r:]
        theta = np.zeros(0)
    else:
        u1, u2, theta = cs_decompose(_adjoint(vp) @ vq, sp.r, sp.s)
        x1 = vp[:, :sp.r] @ u1
        x2 = vp[:, sp.r:] @ u2
    lo, hi = sp.aligned, sp.k - sp.crossed
    planes = np.stack([x1[:, sp.a + lo:sp.a + hi], x2[:, sp.b + lo:sp.b + hi]], axis=-1)
    return FiveSpace(
        p=p,
        q=q,
        m11=x1[:, :sp.a + lo],
        m00=x2[:, :sp.b + lo],
        m10=x1[:, sp.a + hi:],
        m01=x2[:, sp.b + hi:],
        h0=planes.reshape(n, -1),
        angles=theta[lo:hi],
    )


def index_pair(p, q, tol: Tolerance | None = None) -> IndexPair:
    """Crossed-intersection dimensions, by the rank decisions of ``_split``."""
    tol = tol or default_tolerance()
    return _split(*_pair(p, q), tol).index


def fivespace_report(fs: FiveSpace) -> dict:
    """JSON-ready summary: integer dimensions plus generic-part angles."""
    d11, d00, d10, d01, dgen = fs.dims
    return {
        "dims": {"m11": d11, "m00": d00, "m10": d10, "m01": d01, "generic": dgen},
        "index": [d10, d01],
        "angles": [float(a) for a in fs.angles],
    }


@dataclass(frozen=True)
class DiffSum:
    """Difference and sum of a pair: ``a = P - Q``, ``b = P + Q``.

    They satisfy ``a^2 + b^2 = 2 b`` and ``(b-1)^2 = (1-a)(1+a)``;
    ``residual`` is the larger of the two defects, for the caller to judge.
    """

    a: np.ndarray
    b: np.ndarray
    residual: float


def diff_sum(p, q) -> DiffSum:
    p, q = _pair(p, q)
    n = p.shape[0]
    a = _hermitize(p - q)
    b = _hermitize(p + q)
    eye = np.eye(n)
    r1 = op_norm(a @ a + b @ b - 2 * b)
    r2 = op_norm((b - eye) @ (b - eye) - (eye - a) @ (eye + a))
    return DiffSum(a=a, b=b, residual=max(r1, r2))
