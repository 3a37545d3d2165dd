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

from .errors import DimMismatch, InconsistentDims, NotAProjection
from .numkernel import (
    Tolerance,
    _adjoint,
    _defect_norms,
    _first,
    _hermitize,
    as_cmatrix,
    as_cstack,
    cs_decompose,
    herm_eig,
    nullspace,
    op_norm,
    require_square,
)

# construction tolerance, deliberately looser than the kernel's RECON_RTOL so
# that conjugated/compressed projections still validate
PROJECTION_ATOL = 1e-10
_SQRT2 = np.sqrt(2)


def make_projection(m) -> np.ndarray:
    """Validate that ``m`` is a selfadjoint projection and return its exact
    Hermitian part.

    ``m`` is a matrix or a stack ``(..., n, n)`` of matrices; both defect
    norms of every matrix come from one singular-value call.  A matrix that
    violates ``P = P*`` or ``P^2 = P`` beyond ``PROJECTION_ATOL`` raises
    ``NotAProjection`` with the violated bound (for a stack, that of the
    first such matrix; a defect that overflows is ``inf``).  An accepted
    matrix is returned as its exact Hermitian part ``(P + P*) / 2``, so
    every check past this door sees a bitwise Hermitian matrix: a bitwise
    Hermitian stack comes back as the same array, which may alias ``m``.
    Nothing else is repaired.
    """
    p = as_cstack(m)
    require_square(p)
    if hermitian := np.array_equal(p, _adjoint(p)):
        # a bitwise Hermitian stack has no symmetry defect to measure
        idem_defects = _defect_norms(lambda: p @ p - p)
        sym_defects = np.zeros_like(idem_defects)
    else:
        sym_defects, idem_defects = _defect_norms(lambda: np.array([p - _adjoint(p), p @ p - p]))
    i = _first((sym_defects > PROJECTION_ATOL) | (idem_defects > PROJECTION_ATOL))
    if i is not None:
        sym_defect, idem_defect = np.ravel(sym_defects)[i], np.ravel(idem_defects)[i]
        if sym_defect > PROJECTION_ATOL:
            raise NotAProjection(f"|P - P*| = {sym_defect:.3e} > {PROJECTION_ATOL:.1e}")
        raise NotAProjection(f"|P^2 - P| = {idem_defect:.3e} > {PROJECTION_ATOL:.1e}")
    return p if hermitian else _hermitize(p)


def _rank(p: np.ndarray):
    """Rank of a projection, its trace rounded; for a stack ``(..., n, n)``,
    the integer array of the ranks of each projection."""
    ranks = np.rint(np.trace(p, axis1=-2, axis2=-1).real)
    return int(ranks) if p.ndim == 2 else ranks.astype(int)


def _haar(draws) -> np.ndarray:
    """Haar unitaries from a stack of ``standard_normal((2, n, n))`` draws, with one QR."""
    draws = np.asarray(draws)
    q, r = np.linalg.qr((draws[:, 0] + 1j * draws[:, 1]) / _SQRT2)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    a = np.abs(d)
    return q * np.where(a == 0.0, 1.0, d / a)[..., None, :]


def _range_projection(u: np.ndarray, r: int) -> np.ndarray:
    """Projection onto the first ``r`` columns of a unitary, or of each of a stack."""
    return _hermitize(u[..., :r] @ _adjoint(u[..., :r]))


def _haar_unitaries(n: int, seeds) -> np.ndarray:
    """Stack of ``random_unitary(n, seed)`` over ``seeds``: one buffer, one QR call."""
    draws = np.empty((len(seeds), 2, n, n))
    for draw, s in zip(draws, seeds):
        np.random.default_rng(s).standard_normal(out=draw)
    return _haar(draws)


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed unitary (QR of a complex Gaussian, phases fixed)."""
    return _haar_unitaries(n, [seed])[0]


def random_projection(n: int, r: int, seed) -> np.ndarray:
    """Rank-``r`` projection, Haar-conjugated from ``diag(1^r, 0^(n-r))``:
    the range of the first ``r`` columns of ``random_unitary(n, seed)``,
    which is drawn only for ``0 < r < n``."""
    if not 0 <= r <= n:
        raise InconsistentDims(f"rank {r} outside [0, {n}]")
    if r in (0, n):
        return np.eye(n, dtype=np.complex128) * (r == n)
    return _range_projection(_haar_unitaries(n, [seed]), r)[0]


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
    if not ((angles > 0.0) & (angles < np.pi / 2)).all():
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
    return tuple(_hermitize(u @ np.array([p0, q0]) @ u.conj().T))


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

    @property
    def index(self) -> IndexPair:
        return IndexPair(self.m10.shape[1], self.m01.shape[1])


def _pair(p, q) -> np.ndarray:
    """The way a pair enters the library: both as nonempty matrices of one
    shape, validated as one ``(2, n, n)`` stack by ``make_projection``."""
    p, q = as_cmatrix(p), as_cmatrix(q)
    if p.shape != q.shape:
        raise DimMismatch(f"shapes {p.shape} and {q.shape} differ")
    if p.shape == (0, 0):
        raise InconsistentDims("total dimension is zero")
    return make_projection(np.array([p, q]))


class _Split(NamedTuple):
    """How the principal directions of a pair fall into the five parts.

    With ``r, s`` the ranks of ``P, Q``, the block sizes force ``a`` aligned
    directions in ``R(P)``, ``b`` in ``N(P)``, ``c`` crossed ones in
    ``R(P)`` and ``e`` in ``N(P)``; each of the other ``k`` directions of
    ``R(P)`` shares the plane of one principal angle with a direction of
    ``N(P)``.  Of those ``k`` angles, the ``aligned`` smallest and the
    ``crossed`` largest lie in the intersections.  ``vp``, ``vq`` and
    ``x = vp* vq`` are what ``_split`` factored, for later steps to reuse.
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
    vp: np.ndarray
    vq: np.ndarray
    x: np.ndarray

    @property
    def index(self) -> IndexPair:
        return IndexPair(self.c + self.crossed, self.e + self.crossed)


def _angle_blocks(x: np.ndarray, r: int) -> np.ndarray:
    """The first ``r`` rows of ``x`` (of each matrix of a stack) and the
    others, zero-padded to one height, which keeps their singular values:
    for ``x = V_A* V_B`` with the range of ``A`` first, the cosines and the
    sines of the angles between ``R(A)`` and the span of ``V_B``."""
    n = x.shape[-2]
    blocks = np.zeros(x.shape[:-2] + (2, max(r, n - r), x.shape[-1]), dtype=np.complex128)
    blocks[..., 0, :r, :], blocks[..., 1, :n - r, :] = x[..., :r, :], x[..., r:, :]
    return blocks


def _split(p: np.ndarray, q: np.ndarray, tol: Tolerance) -> _Split:
    """The rank decisions of a pair, made once, at linear scale.

    One stacked eigendecomposition gives bases ``vp``, ``vq``, ranges
    first.  Of ``x = vp* vq``, the upper left ``r x s`` block has singular
    values ``cos theta`` and the lower left one ``sin theta`` (Bjorck &
    Golub 1973), forced directions of ``R(Q)`` included.  So one stacked
    ``nullspace`` of the two ``_angle_blocks`` (padding keeps the right
    null vectors too) counts the angles with ``cos <= rank_rtol``
    (crossed) and with ``sin <= rank_rtol`` (aligned).
    """
    n, pair = p.shape[0], np.array([p, q])
    r, s = _rank(pair).tolist()
    a, b, c, e = max(0, r + s - n), max(0, n - r - s), max(0, r - s), max(0, s - r)
    k = r - a - c
    vp, vq = herm_eig(pair).eigenvectors[..., ::-1]
    x = _adjoint(vp) @ vq
    cos_null, sin_null = nullspace(_angle_blocks(x[:, :s], r), tol)
    aligned = min(max(sin_null.shape[1] - a, 0), k)
    crossed = min(max(cos_null.shape[1] - e, 0), k - aligned)
    return _Split(r, s, a, b, c, e, k, aligned, crossed, vp, vq, x)


def halmos_decompose(p, q, tol: Tolerance = Tolerance()) -> FiveSpace:
    """Validate a projection pair and split it into its five parts.

    The pair is validated here, once, by ``_pair``; the split carries it
    as ``fs.p`` and ``fs.q``.  The pair is split once by its principal
    angles: ``_split`` eigendecomposes it once and makes the rank
    decisions, and one CS decomposition of its unitary ``x`` gives the
    bases and the angles.  The rank decisions pick which angles are
    aligned or crossed, so the dimensions and the angles agree by
    construction.
    """
    p, q = _pair(p, q)
    return _five_space(p, q, _split(p, q, tol))


def _five_space(p: np.ndarray, q: np.ndarray, sp: _Split) -> FiveSpace:
    """``halmos_decompose`` of a validated pair and its ``_split``."""
    u1, u2, theta = cs_decompose(sp.x, sp.r, sp.s)
    x1 = sp.vp[:, :sp.r] @ u1
    x2 = sp.vp[:, sp.r:] @ u2
    lo, hi = sp.aligned, sp.k - sp.crossed
    planes = np.stack([x1[:, sp.a + lo:sp.a + hi], x2[:, sp.b + lo:sp.b + hi]], axis=-1)
    return FiveSpace(
        p=p,
        q=q,
        m11=x1[:, :sp.a + lo],
        m00=x2[:, :sp.b + lo],
        m10=x1[:, sp.a + hi:],
        m01=x2[:, sp.b + hi:],
        h0=planes.reshape(p.shape[0], -1),
        angles=theta[lo:hi],
    )


def index_pair(p, q, tol: Tolerance = Tolerance()) -> IndexPair:
    """Crossed-intersection dimensions, by the rank decisions of ``_split``:
    the nullities of the two blocks of ``V_P* V_Q``, as in ``halmos_decompose``."""
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
