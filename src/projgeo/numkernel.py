"""Dense complex linear-algebra kernels.

Everything here operates on plain ``numpy`` complex arrays and is a
deterministic function of its input: for a fixed input array the output
bits are reproducible on a given platform.  Spectral routines sit on top
of LAPACK's Hermitian eigensolver; the principal angles of a subspace pair
come from the CS decomposition of LAPACK's ``?uncsd``, which returns
cosines and sines each accurate at its own end of ``[0, pi/2]``.

The spectral kernels, the singular-value kernels and ``nullspace`` also
take a stack ``(..., n, n)`` of matrices and factor it with one LAPACK
call; each matrix of the stack gets the same bits as a call on that matrix
alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import NoConvergence, NotHermitian

RANK_RTOL_ENV = "PROJGEO_TOL_RANK"
HALF_PI_BOUND = np.pi / 2 + 1e-12  # pi/2 with slack for roundoff in norms


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds: ``rank_rtol`` governs rank/nullity decisions,
    ``recon_rtol`` governs reconstruction and symmetry checks."""

    rank_rtol: float = 1e-10
    recon_rtol: float = 1e-12

    def __post_init__(self):
        for name in ("rank_rtol", "recon_rtol"):
            value = getattr(self, name)
            if not (0.0 < value < 1e-2):
                raise ValueError(f"{name} must lie in (0, 1e-2), got {value!r}")


def default_tolerance() -> Tolerance:
    """Default thresholds; ``PROJGEO_TOL_RANK`` overrides the rank threshold."""
    raw = os.environ.get(RANK_RTOL_ENV)
    if raw is None:
        return Tolerance()
    return Tolerance(rank_rtol=float(raw))


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
    return np.swapaxes(m.conj(), -1, -2)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + _adjoint(m)) / 2


def _skewize(m: np.ndarray) -> np.ndarray:
    return (m - _adjoint(m)) / 2


def op_norm(a):
    """Operator (spectral) norm: the largest singular value.

    For a stack ``(..., m, n)`` of matrices, the array of the norms of each
    matrix, from one singular-value call.
    """
    m = as_cstack(a)
    if m.shape[-1] == 0 or m.shape[-2] == 0:
        norms = np.zeros(m.shape[:-2])
    else:
        norms = np.linalg.svd(m, compute_uv=False)[..., 0]
    return float(norms) if m.ndim == 2 else norms


def min_singular_value(a):
    """Smallest singular value of a nonempty matrix; for a stack ``(..., m,
    n)`` of matrices, the array of those of each matrix, from one call."""
    m = as_cstack(a)
    values = np.linalg.svd(m, compute_uv=False)[..., -1]
    return float(values) if m.ndim == 2 else values


class HermEig(NamedTuple):
    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # unitary, columns match eigenvalues


def _first(flags: np.ndarray) -> int | None:
    """Flat index of the first True entry of an array of flags."""
    if not flags.any():
        return None
    return int(np.flatnonzero(flags)[0])


def _check_hermitian(m: np.ndarray, tol: Tolerance) -> None:
    # bitwise-symmetric input (the common case) skips the norms
    if np.array_equal(m, _adjoint(m)):
        return
    norms, defects = op_norm(np.array([m, m - _adjoint(m)]))
    i = _first(defects > tol.recon_rtol * norms)
    if i is not None:
        raise NotHermitian(
            f"asymmetry {np.ravel(defects)[i]:.3e} exceeds "
            f"{tol.recon_rtol:.1e} * norm {np.ravel(norms)[i]:.3e}"
        )


def herm_eig(a, tol: Tolerance | None = None) -> HermEig:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack.

    Parameters
    ----------
    a : (n, n) or (..., n, n) array_like, Hermitian within
        ``tol.recon_rtol`` relative error.
    tol : Tolerance, optional

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
    tol = tol or default_tolerance()
    m = as_cstack(a)
    require_square(m)
    _check_hermitian(m, tol)
    try:
        w, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return HermEig(w, u)


def nullspace(a, tol: Tolerance | None = None, *, scale: float | None = None):
    """Orthonormal basis (columns) of the numerical nullspace of ``a``; for
    a stack ``(..., m, n)`` of matrices, the list of the bases of each
    matrix, in order, from one SVD.

    A direction ``v`` belongs to the nullspace when ``|a v| <= rank_rtol *
    s * |v|``, where the reference ``s`` defaults to ``|a|`` itself.  The
    zero matrix has the whole space as its nullspace; a matrix of full
    rank yields a basis with zero columns.

    Callers whose operators have a known natural scale (e.g. expressions
    in projections and the identity) should pass ``scale`` explicitly:
    a purely relative reference cannot recognize a matrix that is zero up
    to roundoff.
    """
    tol = tol or default_tolerance()
    m = as_cstack(a)
    cols = m.shape[-1]
    stack = m.reshape((math.prod(m.shape[:-2]),) + m.shape[-2:])
    if m.size == 0:
        bases = [np.eye(cols, dtype=np.complex128)] * len(stack)
    else:
        _, s, vh = np.linalg.svd(stack, full_matrices=True)
        reference = s[:, 0] if scale is None else np.full(len(stack), float(scale))
        ranks = (s > tol.rank_rtol * reference[:, None]).sum(axis=-1)
        bases = [
            np.eye(cols, dtype=np.complex128) if ref == 0.0 else v[rank:].conj().T
            for v, rank, ref in zip(vh, ranks.tolist(), reference.tolist())
        ]
    return bases[0] if m.ndim == 2 else bases


class CSFactors(NamedTuple):
    u1: np.ndarray     # (p, p) unitary
    u2: np.ndarray     # (n - p, n - p) unitary
    theta: np.ndarray  # the k = min(p, n - p, q, n - q) angles, ascending


def cs_decompose(x, p: int, q: int) -> CSFactors:
    """Left factors and angles of the CS decomposition of an ``n x n``
    unitary ``x`` split after row ``p`` and column ``q``, with
    ``0 < p, q < n``.

    ``x = diag(u1, u2) D diag(v1, v2)*``, where the ``p x q`` block of
    ``D`` is ``diag(1, cos theta, 0)`` and its lower left block is
    ``diag(0, sin theta, 1)``: column ``a + j`` of ``u1`` and column
    ``b + j`` of ``u2`` span the plane of angle ``theta[j]``, with
    ``a = max(0, p + q - n)`` and ``b = max(0, n - p - q)``.  The columns
    before the angles' columns, and those after them, are the directions
    that the block sizes force to angle 0 and to angle ``pi/2``.

    Raises
    ------
    NoConvergence
        If the underlying iteration fails to converge.
    """
    m = as_cmatrix(x)
    try:
        (u1, u2), theta, _ = scipy.linalg.cossin(
            m, p=p, q=q, separate=True, compute_vh=False
        )
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return CSFactors(u1, u2, theta)
