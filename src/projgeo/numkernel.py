"""Dense complex linear-algebra kernels.

Everything here operates on plain ``numpy`` complex arrays and is a
deterministic function of its input: for a fixed input array the output
bits are reproducible on a given platform.  Spectral routines sit on top
of LAPACK's Hermitian eigensolver and SVD, whose failures to converge
raise ``NoConvergence``; the principal angles of a subspace pair come from
two SVDs, with cosines and sines each accurate at its own end of ``[0, pi/2]``.

The spectral and singular-value kernels also take a stack ``(..., n, n)``
of matrices and factor it with one LAPACK call; each matrix of the stack
gets the same bits as a call on that matrix alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, NotHermitian

HALF_PI_BOUND = np.pi / 2 + 1e-12  # pi/2 with slack for roundoff in norms
# relative threshold of the symmetry and unitarity checks on kernel inputs
RECON_RTOL = 1e-12


@dataclass(frozen=True)
class Tolerance:
    """The threshold a caller sets: ``rank_rtol`` governs every rank and
    nullity decision, and so the index pair and the five-space split."""

    rank_rtol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.rank_rtol < 1e-2):
            raise ValueError(f"rank_rtol must lie in (0, 1e-2), got {self.rank_rtol!r}")

    def rank(self, values) -> np.ndarray:
        """The rank singular values give: how many (on the last axis) exceed ``rank_rtol``."""
        return (values > self.rank_rtol).sum(axis=-1)


def _as_complex(a, stack: bool) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or (m.ndim > 2 and not stack):
        wanted = "a matrix or a stack of matrices" if stack else "a 2-d array"
        raise ValueError(f"expected {wanted}, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array with finite entries."""
    return _as_complex(a, False)


def as_cstack(a) -> np.ndarray:
    """Coerce a matrix, or a stack ``(..., m, n)`` of matrices, to
    complex128 with finite entries."""
    return _as_complex(a, True)


def require_square(m: np.ndarray) -> int:
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m.shape[-1]


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + _adjoint(m)) / 2


def _skewize(m: np.ndarray) -> np.ndarray:
    return (m - _adjoint(m)) / 2


def _svd(m: np.ndarray, **kwargs):
    """``numpy.linalg.svd``, a failure to converge raised as ``NoConvergence``."""
    try:
        return np.linalg.svd(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def op_norm(a):
    """Operator (spectral) norm: the largest singular value.

    For a stack ``(..., m, n)`` of matrices, the array of the norms of each
    matrix, from one singular-value call.
    """
    m = as_cstack(a)
    norms = _svd(m, compute_uv=False).max(axis=-1, initial=0.0)  # 0 when empty
    return float(norms) if m.ndim == 2 else norms


def _defect_norms(make) -> np.ndarray:
    """``op_norm`` of each matrix of the stack ``make()``, ``inf`` where it overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        stack = make()
    try:
        return op_norm(stack)
    except ValueError:  # an entry overflowed
        finite = np.isfinite(stack).all(axis=(-2, -1))
        return np.where(finite, op_norm(np.where(finite[..., None, None], stack, 0)), np.inf)


class HermEig(NamedTuple):
    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # unitary, columns match eigenvalues


def _first(flags: np.ndarray) -> int | None:
    """Flat index of the first True entry of an array of flags."""
    if not flags.any():
        return None
    return int(np.flatnonzero(flags)[0])


def _check_hermitian(m: np.ndarray) -> None:
    # bitwise-symmetric input (the common case) skips the norms
    if np.array_equal(m, _adjoint(m)):
        return
    norms, defects = _defect_norms(lambda: np.array([m, m - _adjoint(m)]))
    # a norm that overflowed bounds no asymmetry
    i = _first((defects > RECON_RTOL * norms) | (defects > 0) & np.isinf(norms))
    if i is not None:
        raise NotHermitian(
            f"asymmetry {np.ravel(defects)[i]:.3e} exceeds "
            f"{RECON_RTOL:.1e} * norm {np.ravel(norms)[i]:.3e}"
        )


def herm_eig(a) -> HermEig:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack.

    Parameters
    ----------
    a : (n, n) or (..., n, n) array_like, Hermitian within ``RECON_RTOL``
        relative error.

    Returns
    -------
    HermEig
        Real eigenvalues sorted ascending and a matching unitary of
        eigenvectors, so that ``U diag(w) U* == a`` up to roundoff.

    Raises
    ------
    NotHermitian
        If the input (the first offending matrix of a stack) fails the
        symmetry precondition.
    NoConvergence
        If the underlying iteration fails to converge.
    """
    m = as_cstack(a)
    require_square(m)
    _check_hermitian(m)
    try:
        w, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return HermEig(w, u)


def nullspace(a, tol: Tolerance = Tolerance()):
    """Orthonormal basis (columns) of the numerical nullspace of the matrix ``a``.

    A direction ``v`` belongs to the nullspace when ``|a v| <= rank_rtol *
    |v|``.  The rule is absolute, for operators of natural scale 1 such as
    expressions in projections and the identity: a matrix that is zero up
    to roundoff has the whole space as its nullspace, and a matrix of full
    rank yields a basis with zero columns.
    """
    _, s, vh = _svd(as_cmatrix(a))
    return vh[int(tol.rank(s)):].conj().T


def cs_decompose(x, p: int, q: int, x11):
    """Left factors ``(u1, u2, theta)`` of the CS decomposition of an
    ``n x n`` unitary ``x`` split after row ``p`` and column ``q``, with
    ``0 <= p, q <= n``: unitaries ``u1``, ``u2`` of orders ``p``, ``n - p``
    and the ``k = min(p, n - p, q, n - q)`` angles ``theta``, ascending.

    ``x = diag(u1, u2) D diag(v1, v2)*``, where the ``p x q`` block of
    ``D`` is ``diag(1, cos theta, 0)`` and its lower left block is
    ``diag(0, sin theta, 1)``: column ``a + j`` of ``u1`` and column
    ``b + j`` of ``u2`` span the plane of angle ``theta[j]``, with
    ``a = max(0, p + q - n)`` and ``b = max(0, n - p - q)``.  The columns
    before the angles' columns, and those after them, are the directions
    that the block sizes force to angle 0 and to angle ``pi/2``.

    Two SVDs (Bjorck & Golub, Math. Comp. 27, 1973): ``x11``, the ``_svd`` of
    ``x[:p, :q]`` that ``_split`` took, gives the cosines below ``1/sqrt(2)``,
    that of ``x[p:, :q]`` on the rest the sines.  An SVD that fails to converge
    raises ``NoConvergence``.  ``x`` and ``x11``, ``_split``'s, are not checked.
    """
    n = x.shape[0]
    (u, c, wh), x21 = x11, x[p:, :q]
    ns = int(np.count_nonzero(c * c >= 0.5))  # the small angles come first
    g = x21 @ _adjoint(wh[ns:])  # the large angles' partners, then the crossed
    norms = np.linalg.norm(g, axis=0)
    g /= norms
    basis = g[:, :0] if g.shape[1] == n - p else np.linalg.qr(g, "complete")[0][:, g.shape[1]:]
    v2, s, rh = _svd(_adjoint(basis) @ (x21 @ _adjoint(wh[:ns])))
    h = x[:p, :q] @ _adjoint(rh @ wh[:ns])
    cos = np.linalg.norm(h, axis=0)
    sin = np.concatenate([s, np.zeros(ns - len(s))])  # forced zeros last
    small, large = np.arctan2(sin, cos)[::-1], np.arctan2(norms[:len(c) - ns], c[ns:])
    u1 = np.concatenate([(h / cos)[:, ::-1], u[:, ns:]], axis=1)
    u2 = np.concatenate([(basis @ v2)[:, ::-1], g], axis=1)
    return u1, u2, np.concatenate([small, large])[max(0, p + q - n):]
