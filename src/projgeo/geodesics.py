"""Minimal geodesics between selfadjoint projections.

A geodesic through ``P`` is ``t -> exp(tZ) P exp(-tZ)`` with ``Z`` skew and
``P``-codiagonal (``PZP = (1-P)Z(1-P) = 0``); it is normalized when
``|Z| <= pi/2``, in which case it is shorter than any other piecewise
smooth curve between its endpoints for the operator-norm length
``int |d/dt gamma| dt``.

The exponent joining ``P`` to ``Q`` is read off the five-space split of the
pair by its principal angles:

* zero on the two aligned intersections;
* ``i pi/2 (V + V*)`` on the crossed intersections, where ``V`` is an
  isometry pairing the second crossed space onto the first (canonically,
  basis index onto basis index) -- with this sign the exponential carries
  the second crossed space onto the first with phase ``i``;
* on the generic part, the rotation ``theta (g x* - x g*)`` of each plane
  of a principal angle ``theta``, which turns ``x`` in ``R(P)`` towards
  ``g`` in ``N(P)`` until it lies in ``R(Q)``.

So ``|Z|`` is the largest angle, ``pi/2`` when a crossed part exists.  The
crossed pairing ``V`` is free; that freedom is exactly the source of
non-uniqueness, exposed through ``multi_geodesic_family``.

The split also gives the eigenpairs of ``-iZ`` that a point of the curve
needs, at O(n^2) cost: ``(x +- i g)/sqrt(2)`` with ``-+theta`` on each
plane, ``(m10 T +- m01)/sqrt(2)`` with ``+-pi/2`` on the crossed part
(``T`` the pairing) and 0 on the aligned intersections.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import BadIndex, DimMismatch, NoGeodesic, NotUnitary
from .numkernel import (
    RECON_RTOL,
    Tolerance,
    _adjoint,
    _hermitize,
    _svd,
    as_cmatrix,
    herm_eig,
    op_norm,
)
from .projections import (
    FiveSpace,
    IndexPair,
    _SQRT2,
    _angle_blocks,
    _haar_unitaries,
    _pair,
    _split,
    halmos_decompose,
    index_pair,
    random_unitary,
)

# size of one stack of the points of a segment's grid or of the midpoints
# of minimality_competitors: bounds the memory a grid or a competitor batch
# costs at large n while keeping the per-call overhead low at small n
_CHUNK_BYTES = 1 << 20


@dataclass
class GeodesicSegment:
    """Base projection plus a skew, codiagonal exponent; the segment is
    minimal for ``|t| <= 1`` when ``|exponent| <= pi/2``."""

    base: np.ndarray
    exponent: np.ndarray
    # eigenvalues and eigenvectors of -iZ, in no particular order; until first
    # use, None or, for a segment of a split, the function that reads them off it
    _eig: tuple | Callable | None = field(default=None, repr=False, compare=False)

    @property
    def norm(self):
        """``|Z|``, the largest ``|w|`` of the eigenvalues of ``-iZ`` (of
        each of a stack): for a segment of a split, its largest angle, or
        ``pi/2`` when a crossed part exists."""
        top = np.abs(_segment_eig(self)[0]).max(axis=-1, initial=0.0)
        return float(top) if top.ndim == 0 else top

    @property
    def eig_residual(self) -> float:
        """``|-iZU - U diag(w)|_F`` of the eigenpairs that ``evaluate``
        uses: the check that they belong to ``Z``."""
        w, u = _segment_eig(self)
        return float(np.linalg.norm(-1j * (self.exponent @ u) - u * w[..., None, :]))


@dataclass(frozen=True)
class UniquenessReport:
    unique: bool
    witness: tuple[np.ndarray, np.ndarray] | None
    rederivation_error: float | None
    witness_separation: float | None


def codiagonal_residual(p: np.ndarray, z: np.ndarray) -> float:
    """max(|PZP|, |(1-P)Z(1-P)|): zero for horizontal directions at P."""
    pc = np.eye(p.shape[0]) - p
    return float(op_norm(np.array([p @ z @ p, pc @ z @ pc])).max())


def exists_geodesic(p, q, tol: Tolerance = Tolerance()) -> bool:
    """True when the two crossed-intersection dimensions agree."""
    ip = index_pair(p, q, tol)
    return ip.d_plus == ip.d_minus


def _exponent(fs: FiveSpace, pairing: np.ndarray | None) -> np.ndarray:
    """The exponent of a five-space split, with the crossed ``pairing``
    (identity when ``None``)."""
    x, g = fs.h0[:, 0::2], fs.h0[:, 1::2]
    z = (g * fs.angles) @ _adjoint(x)
    z = z - _adjoint(z)
    k = fs.m10.shape[1]
    if k:
        twist = np.eye(k, dtype=np.complex128) if pairing is None else pairing
        v = fs.m10 @ twist @ _adjoint(fs.m01)
        z = z + 1j * (np.pi / 2) * (v + _adjoint(v))
    return z


def minimal_exponent(p, q, tol: Tolerance = Tolerance()) -> GeodesicSegment:
    """Normalized geodesic segment from ``P`` to ``Q``, with the canonical
    crossed pairing (``multi_geodesic_family`` takes other pairings).

    Returns
    -------
    GeodesicSegment
        With ``exp(Z) P exp(-Z) = Q``, ``|Z| <= pi/2`` and ``Z``
        codiagonal with respect to ``P``.

    Raises
    ------
    NoGeodesic
        If the crossed-intersection dimensions differ.
    """
    return _segment(halmos_decompose(p, q, tol), None)


def _require_balanced(ip: IndexPair) -> None:
    """Refuse a pair that no geodesic joins: its index pair is unbalanced."""
    if ip.d_plus != ip.d_minus:
        raise NoGeodesic(f"index pair {tuple(ip)} is unbalanced", ip)


def _segment(fs: FiveSpace, pairing: np.ndarray | None) -> GeodesicSegment:
    """The segment of the five-space split ``fs`` of the pair, with the
    crossed ``pairing`` (canonical when ``None``); it starts at ``fs.p``."""
    _require_balanced(fs.index)
    d10 = fs.index.d_plus
    if pairing is not None:
        pairing = as_cmatrix(pairing)
        if pairing.shape != (d10, d10):
            raise DimMismatch(f"pairing must be {d10}x{d10}, got {pairing.shape}")
        if op_norm(_adjoint(pairing) @ pairing - np.eye(d10)) > RECON_RTOL:
            raise NotUnitary(f"pairing is not unitary within {RECON_RTOL:.1e}")

    def eig():  # the eigenpairs of -iZ, read off the split as in the module docstring
        x, g = fs.h0[:, 0::2] / _SQRT2, fs.h0[:, 1::2] * (1j / _SQRT2)
        m10 = (fs.m10 if pairing is None else fs.m10 @ pairing) / _SQRT2
        m01 = fs.m01 / _SQRT2
        u = np.concatenate([fs.m11, fs.m00, x + g, x - g, m10 + m01, m10 - m01], axis=1)
        w = np.concatenate([np.zeros(fs.dims[0] + fs.dims[1]), -fs.angles, fs.angles,
                            np.full(d10, np.pi / 2), np.full(d10, -np.pi / 2)])
        return w, u

    return GeodesicSegment(base=fs.p, exponent=_exponent(fs, pairing), _eig=eig)


def _segment_eig(seg: GeodesicSegment) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``(w, U)`` of ``-iZ``, on the first call: those of a
    segment of a split, or for a segment built from an exponent, an
    eigensolve of it (of each of a stack)."""
    if not isinstance(seg._eig, tuple):
        seg._eig = seg._eig() if seg._eig else herm_eig(_hermitize(-1j * seg.exponent))
    return seg._eig


def evaluate(seg: GeodesicSegment, t) -> np.ndarray:
    """Point ``exp(tZ) P exp(-tZ)`` of the segment; ``t`` may leave [0, 1],
    but it and each ``t w``, ``w`` an eigenvalue of ``-iZ``, must be finite
    (else ``ValueError``).

    ``t`` is a float, giving the ``(n, n)`` point, or a 1-d array of k
    values, giving the ``(k, n, n)`` stack of the points; a stack of k
    segments (base and exponent ``(k, n, n)``) at a float ``t`` gives their
    k points.  Each matrix of a stack equals its scalar call bit for bit.
    """
    w, u = _segment_eig(seg)
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError(f"t must be finite, got {t[~np.isfinite(t)].flat[0]}")
    if float(np.abs(t).max(initial=0)) * float(np.abs(w).max(initial=0)) == np.inf:
        raise ValueError(f"t * w overflows at t = {t.flat[np.abs(t).argmax()]}")
    rot = (u * np.exp(1j * t[..., None] * w)[..., None, :]) @ _adjoint(u)
    return _hermitize(rot @ seg.base @ _adjoint(rot))


def sample_curve(seg: GeodesicSegment, ts) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Points of the segment at the 1-d array ``ts``, in order, as pairs of
    a chunk of ``ts`` and the ``(k, n, n)`` stack of its points.

    A chunk holds as many points as fit in a stack of about 1 MB, so a grid
    costs bounded memory at any n.  ``evaluate`` refuses a chunk that holds
    a value that is not finite.
    """
    ts = np.asarray(ts, dtype=float)
    step = max(1, _CHUNK_BYTES // max(seg.base.nbytes, 1))
    for start in range(0, ts.size, step):
        chunk = ts[start:start + step]
        yield chunk, evaluate(seg, chunk)


def curve_length(seg: GeodesicSegment, grid: int) -> float:
    """Chordal length: sum of ``|gamma(t_{i+1}) - gamma(t_i)|`` over the
    uniform partition of [0, 1] into ``grid`` pieces.

    A lower sum: refining the partition (e.g. doubling ``grid``) never
    decreases it, and it increases to ``|Z|``.

    Every chord of the grid is a unitary conjugate of the first,
    ``exp(tZ) (gamma(h) - P) exp(-tZ)``, so they all have the norm of the
    first and the sum is ``grid`` times it: one stacked ``evaluate`` of two
    points and one ``op_norm``.  For ``|Z| <= pi/2`` that is
    ``grid sin(|Z| / grid)``.
    """
    grid = operator.index(grid)
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}")
    start, step = evaluate(seg, [0.0, 1.0 / grid])
    return grid * op_norm(step - start)


def minimality_competitors(
    p,
    q,
    trials: int,
    seed,
    tol: Tolerance = Tolerance(),
) -> list[float]:
    """Lengths of two-leg piecewise geodesics ``P -> R -> Q`` through random
    midpoints ``R``; each length is the sum of the two leg norms and never
    beats the direct segment.  The midpoint of competitor ``i`` is
    ``random_projection(n, rank P, (seed + i, 5, 1))``, the range of the first
    columns ``V_R`` of that key's Haar unitary (a key with a non-zero last word
    is a stream of its own, where ``(s, 0)`` is a suite sampler's
    ``default_rng(s)``).  Both legs are balanced, as a pair's index differs by
    its rank difference.  A leg is as long as its largest principal angle (Porta
    & Recht, Proc. AMS 100, 1987): for an end's eigenvectors ``V_E`` (the
    split's ``vp`` or ``vq``), the ``_angle_blocks`` of ``V_E* V_R`` give the
    leg ``atan2(smax(sines), smin(cosines))``, so no midpoint is formed and the
    pair is not solved again; a 1 MB stack of them costs a QR and an SVD.
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    sp = _split(*_pair(p, q), tol)
    _require_balanced(sp.index)
    n, rank = sp.vp.shape[0], sp.r
    if rank in (0, n):
        return [0.0] * trials  # P = Q = R
    ends = _adjoint(np.array([sp.vp, sp.vq])[:, None])
    step = max(1, _CHUNK_BYTES // sp.vp.nbytes)
    lengths = []
    for start in range(0, trials, step):
        seeds = [(seed + i, 5, 1) for i in range(start, min(start + step, trials))]
        x = ends @ _haar_unitaries(n, seeds)[..., :rank]
        values = _svd(_angle_blocks(x, rank), compute_uv=False)
        legs = np.arctan2(values[..., 1, 0], values[..., 0, -1])
        lengths.extend((legs[0] + legs[1]).tolist())
    return lengths


def _lower_bound(fs: FiveSpace) -> float:
    """Porta & Recht's certificate (Proc. AMS 100, 1987).  On a curve R(t) of
    projections, ``R R' R = 0`` bounds the rate at which the angle of a unit
    ``xi`` to the range of R(t) moves by ``|R'|``, so no curve from ``P`` to
    ``Q`` is shorter than that angle's growth: ``|Z|`` for ``xi`` at the
    largest angle (a crossed column, else the last plane's ``x``), else 0."""
    if not fs.m10.shape[1] + fs.h0.shape[1]:
        return 0.0
    xi = fs.m10[:, 0] if fs.m10.shape[1] else fs.h0[:, -2]
    ends = np.array([fs.p @ xi, fs.q @ xi])
    start, end = np.arctan2(np.linalg.norm(xi - ends, axis=1), np.linalg.norm(ends, axis=1))
    return float(end - start)


# fixed probe seed: the uniqueness re-derivation must be a deterministic
# function of its inputs
_REDERIVE_SEED = 0x5EED


def unique_minimal_check(p, q, tol: Tolerance = Tolerance()) -> UniquenessReport:
    """Uniqueness of the normalized segment, decided by the index pair.

    Index ``(0, 0)``: unique; the exponent is re-derived from conjugated
    inputs (an independent eigensolve path) and compared.  Index ``(k, k)``
    with ``k > 0``: not unique; two distinct exponents obtained from two
    crossed pairings are returned as a witness.
    """
    fs = halmos_decompose(p, q, tol)
    _require_balanced(fs.index)
    z = _exponent(fs, None)
    k = fs.index.d_plus
    if k == 0:
        u = random_unitary(fs.p.shape[0], _REDERIVE_SEED)
        pc, qc = (_hermitize(u.conj().T @ m @ u) for m in (fs.p, fs.q))
        seg_c = minimal_exponent(pc, qc, tol)
        back = u @ seg_c.exponent @ u.conj().T
        err = op_norm(back - z)
        return UniquenessReport(unique=True, witness=None, rederivation_error=err,
                                witness_separation=None)
    twist = 1j * np.eye(k, dtype=np.complex128)  # exp(i pi/2) rotation of the pairing
    # the canonical exponent z has the identity pairing
    z2 = _exponent(fs, twist)
    return UniquenessReport(unique=False, witness=(z, z2), rederivation_error=None,
                            witness_separation=op_norm(z - z2))


def multi_geodesic_family(
    p,
    q,
    unitaries,
    tol: Tolerance = Tolerance(),
) -> list[GeodesicSegment]:
    """Distinct normalized segments from ``P`` to ``Q``, one per pairing.

    Requires index pair ``(k, k)`` with ``k >= 1``: an unbalanced pair raises
    ``NoGeodesic``, index ``(0, 0)`` ``BadIndex``.  Each ``k x k`` unitary
    twists the canonical crossed pairing; distinct unitaries produce
    distinct exponents with identical endpoints and norm ``pi/2``.
    """
    fs = halmos_decompose(p, q, tol)
    _require_balanced(fs.index)
    if fs.index.d_plus == 0:
        raise BadIndex("need index pair (k, k) with k >= 1, got (0, 0)")
    return [_segment(fs, u) for u in unitaries]


def minimal_geodesic(
    p,
    q,
    samples: int = 1000,
    tol: Tolerance = Tolerance(),
) -> tuple[GeodesicSegment, dict]:
    """The normalized segment from ``P`` to ``Q`` and its JSON-ready report.

    The pair is validated and decomposed once; the report's index, segment
    and uniqueness verdict all come from that one decomposition.  The
    segment is unique exactly when the index pair is ``(0, 0)`` (see
    ``unique_minimal_check``).

    Raises
    ------
    NoGeodesic
        If the crossed-intersection dimensions differ.
    ValueError
        If ``samples < 2``.
    """
    fs = halmos_decompose(p, q, tol)
    seg = _segment(fs, None)
    ip = fs.index
    endpoint_error = op_norm(evaluate(seg, 1.0) - fs.q)
    length = curve_length(seg, samples)
    return seg, {
        "norm_Z": seg.norm,
        "lower_bound": _lower_bound(fs),
        "index": [ip.d_plus, ip.d_minus],
        "endpoint_error": float(endpoint_error),
        "eig_residual": seg.eig_residual,
        "length_estimate": float(length),
        "unique": ip.d_plus == 0,
    }
