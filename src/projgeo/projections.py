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

    ``m`` is a matrix or a stack ``(..., n, n)`` of matrices; both defect
    norms of every matrix come from one singular-value call.  No repair is
    attempted: a matrix that violates ``P = P*`` or ``P^2 = P`` beyond
    ``tol`` raises ``NotAProjection`` with the violated bound (for a stack,
    that of the first such matrix).
    """
    p = as_cstack(m)
    require_square(p)
    sym_defects, idem_defects = op_norm(np.array([p - _adjoint(p), p @ p - p]))
    i = _first((sym_defects > tol) | (idem_defects > tol))
    if i is not None:
        sym_defect, idem_defect = np.ravel(sym_defects)[i], np.ravel(idem_defects)[i]
        if sym_defect > tol:
            raise NotAProjection(f"|P - P*| = {sym_defect:.3e} > {tol:.1e}")
        raise NotAProjection(f"|P^2 - P| = {idem_defect:.3e} > {tol:.1e}")
    return p


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
    """Orthonormal bases of the complements of the column spans of a stack
    ``(g, n, k)`` of orthonormal columns, as a ``(g, n, n - k)`` stack."""
    g, _, k = cols.shape
    if k == 0:
        return np.broadcast_to(np.eye(n, dtype=np.complex128), (g, n, n))
    if k >= n:
        return np.zeros((g, n, 0), dtype=np.complex128)
    u = np.linalg.svd(cols, full_matrices=True)[0]
    return u[..., :, k:]


def _require_same_dim(p: np.ndarray, q: np.ndarray) -> int:
    if p.shape[-2:] != q.shape[-2:]:
        raise DimMismatch(f"shapes {p.shape} and {q.shape} differ")
    return p.shape[-1]


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
    if p.ndim != 2 or q.ndim != 2:
        raise ValueError(f"expected 2-d arrays, got shapes {p.shape} and {q.shape}")
    return _decompose_all(p, q, tol)[0]


def _decompose_all(p: np.ndarray, q: np.ndarray, tol: Tolerance) -> list[FiveSpace]:
    """``_decompose`` of each pair of a stack: ``p`` and ``q`` are matrices
    or ``(k, n, n)`` stacks that broadcast against each other.

    The four intersection nullspaces of all pairs come from one
    ``nullspace`` call, that is one stacked SVD.  The pairs are then
    grouped by their intersection dimensions, and each group shares one
    complement SVD, one ``eigh`` and one pair of compression checks.
    """
    n = _require_same_dim(p, q)
    p = p if p.ndim == 3 else p[None]
    q = q if q.ndim == 3 else q[None]
    eye = np.eye(n)
    diff = _hermitize(p - q)
    summ = _hermitize(p + q)
    # the nullspaces of P - Q - 1, P - Q + 1, P + Q - 2 and P + Q: the
    # intersections m10, m01, m11 and m00.  These operators live at unit
    # scale: threshold against it, so that an operator that is zero up to
    # roundoff gets full nullity
    k = diff.shape[0]
    ops = np.array([diff - eye, diff + eye, summ - 2 * eye, summ])
    flat = nullspace(ops.reshape((4 * k, n, n)), tol, scale=1.0)
    splits = [flat[i::k] for i in range(k)]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, split in enumerate(splits):
        groups.setdefault(tuple(b.shape[1] for b in split), []).append(i)
    out: list[FiveSpace | None] = [None] * k
    for idx in groups.values():
        bases = [splits[i] for i in idx]
        cols = np.array(
            [np.hstack([m11, m00, m10, m01]) for m10, m01, m11, m00 in bases]
        )
        h0 = _orthogonal_complement(cols, n)
        if h0.shape[-1]:
            pg = p[idx] if p.shape[0] > 1 else p
            qg = q[idx] if q.shape[0] > 1 else q
            comp = _hermitize(_adjoint(h0) @ diff[idx] @ h0)
            _, vecs = np.linalg.eigh(comp)
            h0 = h0 @ vecs
            p0 = make_projection(_hermitize(_adjoint(h0) @ pg @ h0))
            q0 = make_projection(_hermitize(_adjoint(h0) @ qg @ h0))
        else:
            p0 = q0 = np.zeros((len(idx), 0, 0), dtype=np.complex128)
        for g, (i, (m10, m01, m11, m00)) in enumerate(zip(idx, bases)):
            out[i] = FiveSpace(
                m11=m11, m00=m00, m10=m10, m01=m01, h0=h0[g], p0=p0[g], q0=q0[g]
            )
    return out


def index_pair(p, q, tol: Tolerance | None = None) -> IndexPair:
    """Nullities of ``P - Q -+ 1``: the crossed-intersection dimensions."""
    tol = tol or default_tolerance()
    p = as_cmatrix(p)
    q = as_cmatrix(q)
    n = _require_same_dim(p, q)
    eye = np.eye(n)
    diff = _hermitize(p - q)
    plus, minus = nullspace(np.array([diff - eye, diff + eye]), tol, scale=1.0)
    return IndexPair(d_plus=plus.shape[1], d_minus=minus.shape[1])


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

    They satisfy ``a^2 + b^2 = 2 b`` and ``(b-1)^2 = (1-a)(1+a)``;
    ``residual`` is the larger of the two defects, for the caller to judge.
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
    return DiffSum(a=a, b=b, residual=max(r1, r2))
