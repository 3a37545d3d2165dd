"""The five-space split and exponent that projgeo computed before it read
the principal angles off one CS decomposition, kept as an independent
reference for the angle-based split.

The intersections are the nullspaces of ``P - Q -+ 1``, ``P + Q - 2`` and
``P + Q``; the generic part is their orthogonal complement, ordered by the
compression of ``P - Q``; its exponent is the principal logarithm of
``V0 (2 P0 - 1)`` with ``V0`` the polar factor of ``P0 + Q0 - 1``.  The
singular values these thresholds read are quadratic in the distance of an
angle to 0 or pi/2, so the reference is only trusted for angles well inside
(0, pi/2).  Every function takes one matrix at a time.

``expm_skew``, the unitary exponential of a skew matrix, is the inverse the
logarithm's tests check against.
"""

from typing import NamedTuple

import numpy as np
import scipy.linalg

from projgeo.errors import NoGeodesic, NotUnitary
from projgeo.numkernel import (
    as_cmatrix,
    default_tolerance,
    herm_eig,
    nullspace,
    op_norm,
    require_square,
)
from projgeo.projections import make_projection, random_projection

HALF_PI_BOUND = np.pi / 2 + 1e-12


class SingularInput(ValueError):
    pass


class LogAtMinusOne(ValueError):
    pass


class NotSkew(ValueError):
    pass


def _herm(m):
    return (m + m.conj().T) / 2


def polar_unitary(a, tol=None):
    """Unitary factor of the polar decomposition of an invertible Hermitian
    matrix: the spectral sign function."""
    tol = tol or default_tolerance()
    w, u = herm_eig(a, tol)
    absw = np.abs(w)
    if absw.max(initial=0.0) == 0.0 or absw.min() <= tol.rank_rtol * absw.max():
        raise SingularInput("polar factor undefined: input has a nullspace")
    return _herm((u * np.where(w >= 0.0, 1.0, -1.0)) @ u.conj().T)


def _check_skew(m, tol):
    if np.array_equal(m, -m.conj().T):
        return
    norm, defect = op_norm(np.array([m, m + m.conj().T])).tolist()
    if defect > tol.recon_rtol * norm:
        raise NotSkew(
            f"skew defect {defect:.3e} exceeds "
            f"{tol.recon_rtol:.1e} * norm {norm:.3e}"
        )


def expm_skew(z, tol=None):
    """Unitary exponential of a skew-Hermitian matrix.

    Computed spectrally: with ``-i z = U diag(theta) U*`` the result is
    ``U diag(exp(i theta)) U*``, unitary to working precision.
    """
    tol = tol or default_tolerance()
    m = as_cmatrix(z)
    require_square(m)
    _check_skew(m, tol)
    w, u = herm_eig(_herm(-1j * m), tol)
    return (u * np.exp(1j * w)) @ u.conj().T


class PrincipalLog(NamedTuple):
    skew: np.ndarray        # skew-Hermitian logarithm
    within_half_pi: bool    # all phases in [-pi/2, pi/2] (+ tiny slack)
    near_minus_one: bool    # spectrum within rank_rtol of -1


def logm_unitary_principal(w, tol=None, *, require_interior=False):
    """Principal skew-Hermitian logarithm of a unitary matrix, with the
    branch closed at ``+pi``, from a complex Schur factorization."""
    tol = tol or default_tolerance()
    m = np.asarray(w, dtype=complex)
    n = m.shape[0]
    if op_norm(m.conj().T @ m - np.eye(n)) > tol.recon_rtol:
        raise NotUnitary("input is not unitary within recon_rtol")
    t, u = scipy.linalg.schur(m, output="complex")
    lam = np.diagonal(t)
    phases = np.arctan2(lam.imag, lam.real)
    phases = np.where(phases == -np.pi, np.pi, phases)
    near = bool((np.abs(lam + 1.0) <= tol.rank_rtol).any())
    if require_interior and near:
        raise LogAtMinusOne("spectrum touches -1; no interior logarithm")
    z = (u * (1j * phases)) @ u.conj().T
    within = bool((np.abs(phases) <= HALF_PI_BOUND).all())
    return PrincipalLog((z - z.conj().T) / 2, within, near)


def reference_split(p, q, tol):
    """Crossed bases, generic basis and generic compressions of one pair:
    ``(m10, m01, h0, p0, q0)``."""
    n = p.shape[0]
    eye = np.eye(n)
    diff = _herm(p - q)
    summ = _herm(p + q)
    m10 = nullspace(diff - eye, tol, scale=1.0)
    m01 = nullspace(diff + eye, tol, scale=1.0)
    m11 = nullspace(summ - 2 * eye, tol, scale=1.0)
    m00 = nullspace(summ, tol, scale=1.0)
    cols = np.hstack([m11, m00, m10, m01])
    k = cols.shape[1]
    if k == 0:
        h0 = np.eye(n, dtype=complex)
    elif k >= n:
        h0 = np.zeros((n, 0), dtype=complex)
    else:
        h0 = np.linalg.svd(cols, full_matrices=True)[0][:, k:]
    p0 = q0 = None
    if h0.shape[1]:
        _, vecs = np.linalg.eigh(_herm(h0.conj().T @ diff @ h0))
        h0 = h0 @ vecs
        p0 = make_projection(_herm(h0.conj().T @ p @ h0))
        q0 = make_projection(_herm(h0.conj().T @ q @ h0))
    return m10, m01, h0, p0, q0


def reference_leg(split, tol):
    """Exponent of one split, with the identity crossed pairing."""
    m10, m01, h0, p0, q0 = split
    n = h0.shape[0]
    z = np.zeros((n, n), dtype=complex)
    if m10.shape[1]:
        v = m10 @ m01.conj().T
        z += 1j * (np.pi / 2) * (v + v.conj().T)
    if h0.shape[1]:
        eye = np.eye(h0.shape[1])
        v0 = polar_unitary(_herm(p0 + q0 - eye), tol)
        z0 = logm_unitary_principal(v0 @ (2 * p0 - eye), tol).skew
        z += h0 @ z0 @ h0.conj().T
    return (z - z.conj().T) / 2


def reference_exponent(p, q, tol=None):
    """Minimal exponent of one pair by the old pipeline."""
    tol = tol or default_tolerance()
    return reference_leg(reference_split(p, q, tol), tol)


def reference_competitors(p, q, trials, seed, replace=()):
    """Competitor lengths one midpoint, one split and one leg at a time;
    ``replace`` maps a draw ``(seed + i, attempt)`` to the midpoint used
    in its place."""
    tol = default_tolerance()
    replace = dict(replace)
    n = p.shape[0]
    rank = int(round(np.trace(p).real))
    lengths = []
    for i in range(trials):
        for attempt in range(64):
            r = replace.get((seed + i, attempt))
            if r is None:
                r = random_projection(n, rank, (seed + i, attempt))
            leg1 = reference_split(p, r, tol)
            if leg1[0].shape[1] == leg1[1].shape[1]:
                leg2 = reference_split(r, q, tol)
                if leg2[0].shape[1] == leg2[1].shape[1]:
                    break
        else:
            raise NoGeodesic("no midpoint")
        lengths.append(op_norm(reference_leg(leg1, tol)) + op_norm(reference_leg(leg2, tol)))
    return lengths
