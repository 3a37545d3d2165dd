"""Dense complex linear-algebra kernels.

Everything here operates on plain ``numpy`` complex arrays and is a
deterministic function of its input: for a fixed input array the output
bits are reproducible on a given platform.  Spectral routines sit on top
of LAPACK's Hermitian eigensolver; the principal logarithm of a unitary
uses a complex Schur factorization, which is a spectral decomposition
whenever the input is normal.

The spectral kernels, ``op_norm`` and ``nullspace`` also take a stack
``(..., n, n)`` of matrices and factor it with one LAPACK call; each matrix
of the stack gets the same bits as a call on that matrix alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import (
    LogAtMinusOne,
    NoConvergence,
    NotHermitian,
    NotSkew,
    NotUnitary,
    SingularInput,
)

RANK_RTOL_ENV = "PROJGEO_TOL_RANK"
HALF_PI_BOUND = np.pi / 2 + 1e-12  # pi/2 with slack for roundoff in phases and norms


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
    i = _first(defects > tol.recon_rtol * np.maximum(norms, 1e-300))
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


def polar_unitary(a, tol: Tolerance | None = None) -> np.ndarray:
    """Unitary factor of the polar decomposition of an invertible Hermitian
    matrix, or of each matrix of a stack.

    For Hermitian ``a`` with trivial nullspace the factor is the spectral
    sign function: a symmetry ``V = V* = V^{-1}`` with ``a = V |a|``.

    Raises
    ------
    SingularInput
        If ``a`` (any matrix of a stack) has a numerical nullspace.
    """
    tol = tol or default_tolerance()
    w, u = herm_eig(a, tol)
    absw = np.abs(w)
    scale = absw.max(axis=-1, initial=0.0)
    smallest = absw.min(axis=-1, initial=np.inf)
    if ((scale == 0.0) | (smallest <= tol.rank_rtol * scale)).any():
        raise SingularInput("polar factor undefined: input has a nullspace")
    signs = np.where(w >= 0.0, 1.0, -1.0)
    return _hermitize((u * signs[..., None, :]) @ _adjoint(u))


def _check_skew(m: np.ndarray, tol: Tolerance) -> None:
    if np.array_equal(m, -_adjoint(m)):
        return
    norm, defect = op_norm(np.array([m, m + _adjoint(m)])).tolist()
    if defect > tol.recon_rtol * norm:
        raise NotSkew(
            f"skew defect {defect:.3e} exceeds "
            f"{tol.recon_rtol:.1e} * norm {norm:.3e}"
        )


def expm_skew(z, tol: Tolerance | None = None) -> np.ndarray:
    """Unitary exponential of a skew-Hermitian matrix.

    Computed spectrally: with ``-i z = U diag(theta) U*`` the result is
    ``U diag(exp(i theta)) U*``, unitary to working precision.
    """
    tol = tol or default_tolerance()
    m = as_cmatrix(z)
    require_square(m)
    _check_skew(m, tol)
    w, u = herm_eig(_hermitize(-1j * m), tol)
    return (u * np.exp(1j * w)) @ u.conj().T


class PrincipalLog(NamedTuple):
    skew: np.ndarray        # skew-Hermitian logarithm
    within_half_pi: bool    # all phases in [-pi/2, pi/2] (+ tiny slack)
    near_minus_one: bool    # spectrum within rank_rtol of -1


def logm_unitary_principal(
    w,
    tol: Tolerance | None = None,
    *,
    require_interior: bool = False,
) -> PrincipalLog:
    """Principal skew-Hermitian logarithm of a unitary matrix, or of each
    matrix of a stack.

    Eigenvalue phases are taken with a two-argument arctangent, so they lie
    in ``(-pi, pi]`` with the branch closed at ``+pi``: a phase of exactly
    ``-pi`` is mapped to ``+pi``.  The result reports whether all phases fit
    inside ``[-pi/2, pi/2]`` and whether the spectrum touches ``-1``; for a
    stack ``(..., n, n)`` both flags are boolean arrays of shape ``...``.

    Parameters
    ----------
    w : (n, n) or (..., n, n) array_like, unitary within ``tol.recon_rtol``.
    require_interior : bool
        When True, raise ``LogAtMinusOne`` if an eigenvalue sits within
        ``tol.rank_rtol`` of ``-1`` instead of silently using the closed
        branch.

    Raises
    ------
    NotUnitary, LogAtMinusOne
    """
    tol = tol or default_tolerance()
    m = as_cstack(w)
    n = require_square(m)
    if np.any(op_norm(_adjoint(m) @ m - np.eye(n)) > tol.recon_rtol):
        raise NotUnitary("input is not unitary within recon_rtol")
    # complex Schur of a normal matrix is a spectral decomposition with an
    # exactly unitary vector matrix; SciPy factors a stack one matrix at a
    # time, so the loop is explicit
    factors = [
        scipy.linalg.schur(x, output="complex")
        for x in m.reshape((math.prod(m.shape[:-2]), n, n))
    ]
    t = np.array([f[0] for f in factors]).reshape(m.shape)
    u = np.array([f[1] for f in factors]).reshape(m.shape)
    lam = np.diagonal(t, axis1=-2, axis2=-1)
    phases = np.arctan2(lam.imag, lam.real)
    phases = np.where(phases == -np.pi, np.pi, phases)
    near = (np.abs(lam + 1.0) <= tol.rank_rtol).any(axis=-1)
    if require_interior and near.any():
        raise LogAtMinusOne("spectrum touches -1; no interior logarithm")
    z = _skewize((u * (1j * phases)[..., None, :]) @ _adjoint(u))
    within = (np.abs(phases) <= HALF_PI_BOUND).all(axis=-1)
    if m.ndim == 2:
        return PrincipalLog(z, bool(within), bool(near))
    return PrincipalLog(z, within, near)
