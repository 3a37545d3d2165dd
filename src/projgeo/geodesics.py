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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import BadIndex, BadUnitarySize, NoGeodesic, NotUnitary
from .numkernel import (
    HermEig,
    Tolerance,
    _adjoint,
    _hermitize,
    as_cmatrix,
    default_tolerance,
    herm_eig,
    min_singular_value,
    op_norm,
)
from .projections import (
    FiveSpace,
    _pair,
    _random_projections,
    _rank,
    _split,
    halmos_decompose,
    index_pair,
    random_unitary,
)

# size of one stack of the points of a segment's grid or of competitor
# midpoints: bounds the memory a grid or a competitor batch costs at large n
# while keeping the per-call overhead low at small n
_CHUNK_BYTES = 1 << 20


@dataclass
class GeodesicSegment:
    """Base projection plus a skew, codiagonal exponent; the segment is
    minimal for ``|t| <= 1`` when ``|exponent| <= pi/2``."""

    base: np.ndarray
    exponent: np.ndarray
    _eig: HermEig | None = field(default=None, repr=False, compare=False)


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


def exists_geodesic(p, q, tol: Tolerance | None = None) -> bool:
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


def minimal_exponent(
    p,
    q,
    pairing: np.ndarray | None = None,
    tol: Tolerance | None = None,
) -> GeodesicSegment:
    """Normalized geodesic segment from ``P`` to ``Q``.

    Parameters
    ----------
    p, q : projection arrays with equal index pair.
    pairing : (k, k) unitary, optional
        Pairing of the crossed intersections expressed in the canonical
        five-space bases; identity when omitted.  Only relevant when the
        index pair is ``(k, k)`` with ``k > 0``.  Unitary within
        ``tol.recon_rtol``.

    Returns
    -------
    GeodesicSegment
        With ``exp(Z) P exp(-Z) = Q``, ``|Z| <= pi/2`` and ``Z``
        codiagonal with respect to ``P``.

    Raises
    ------
    NoGeodesic
        If the crossed-intersection dimensions differ.
    BadUnitarySize, NotUnitary
        If ``pairing`` is not a ``k x k`` unitary.
    """
    tol = tol or default_tolerance()
    return _segment(halmos_decompose(p, q, tol), pairing, tol)


def _segment(
    fs: FiveSpace,
    pairing: np.ndarray | None,
    tol: Tolerance,
) -> GeodesicSegment:
    """``minimal_exponent`` from the five-space split ``fs`` of the pair;
    the segment starts at ``fs.p``."""
    _, _, d10, d01, _ = fs.dims
    if d10 != d01:
        raise NoGeodesic(f"index pair ({d10}, {d01}) is unbalanced")
    if pairing is not None:
        pairing = as_cmatrix(pairing)
        if pairing.shape != (d10, d10):
            raise BadUnitarySize(
                f"pairing must be {d10}x{d10}, got {pairing.shape}"
            )
        if op_norm(_adjoint(pairing) @ pairing - np.eye(d10)) > tol.recon_rtol:
            raise NotUnitary("pairing is not unitary within recon_rtol")
    return GeodesicSegment(base=fs.p, exponent=_exponent(fs, pairing))


def _segment_eig(seg: GeodesicSegment) -> HermEig:
    if seg._eig is None:
        h = _hermitize(-1j * seg.exponent)
        seg._eig = herm_eig(h)
    return seg._eig


def evaluate(seg: GeodesicSegment, t) -> np.ndarray:
    """Point ``exp(tZ) P exp(-tZ)`` of the segment; ``t`` may leave [0, 1].

    ``t`` is a float, giving the ``(n, n)`` point, or a 1-d array of k
    values, giving the ``(k, n, n)`` stack of the points.  Each matrix of
    the stack is computed with the same arithmetic as the scalar call and
    equals its result bit for bit.
    """
    w, u = _segment_eig(seg)
    t = np.asarray(t, dtype=float)
    # the products of the formula, in order, in three stack-size buffers
    scaled = u * np.exp(1j * t[..., None] * w)[..., None, :]
    rot = scaled @ u.conj().T
    rot_p = np.matmul(rot, seg.base, out=scaled)
    rot_h = np.swapaxes(np.conjugate(rot, out=rot), -1, -2)
    x = rot_p @ rot_h
    x_h = np.swapaxes(np.conjugate(x, out=rot), -1, -2)
    np.add(x, x_h, out=x)
    x /= 2
    return x


def sample_curve(seg: GeodesicSegment, ts) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Points of the segment at the 1-d array ``ts``, in order, as pairs of
    a chunk of ``ts`` and the ``(k, n, n)`` stack of its points.

    A chunk holds as many points as fit in a stack of about 1 MB, so a grid
    costs bounded memory at any n.
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


def _joinable_midpoints(
    p: np.ndarray,
    rank: int,
    seeds: list,
    attempts: int = 64,
) -> np.ndarray:
    """The ``(k, n, n)`` stack of the first random midpoint ``R`` per seed
    that ``P`` and ``Q`` (of rank ``rank``) both join by a geodesic.

    In finite dimension the index pair of a pair differs by the difference
    of its ranks, so a midpoint is joinable exactly when its rank is
    ``rank``.  The midpoints of ``seed`` are drawn from ``(seed, 0)``,
    ``(seed, 1)``, ...; at each attempt the seeds still without one share
    one stack of draws.
    """
    n = p.shape[0]
    found = np.empty((len(seeds), n, n), dtype=np.complex128)
    pending = np.arange(len(seeds))
    for attempt in range(attempts):
        if not pending.size:
            break
        rs = _random_projections(n, rank, [(seeds[i], attempt) for i in pending])
        ok = _rank(rs) == rank
        found[pending[ok]] = rs[ok]
        pending = pending[~ok]
    if pending.size:
        raise NoGeodesic(
            f"no joinable midpoint of rank {rank} found in {attempts} attempts"
        )
    return found


def minimality_competitors(
    p,
    q,
    trials: int,
    seed,
    tol: Tolerance | None = None,
) -> list[float]:
    """Lengths of two-leg piecewise geodesics ``P -> R -> Q`` through random
    midpoints ``R``; each length is the sum of the two leg norms and never
    beats the direct segment.
    """
    tol = tol or default_tolerance()
    p, q = _pair(p, q)
    ip = _split(p, q, tol).index
    if ip.d_plus != ip.d_minus:
        raise NoGeodesic(f"index pair {tuple(ip)} is unbalanced")
    return _competitor_lengths(p, q, trials, seed)


def _competitor_lengths(p: np.ndarray, q: np.ndarray, trials: int, seed) -> list[float]:
    """``minimality_competitors`` of a validated pair joined by a geodesic.

    A leg is as long as its largest principal angle, ``atan2(|A - B|,
    smin(V_A* V_B))`` for the range bases ``V_A, V_B`` of its ends.  The
    competitors are built as stacks of about 1 MB: each stack draws its
    midpoints and takes the two terms of all its legs from one stacked
    eigendecomposition and two stacked singular-value calls.
    """
    n = p.shape[0]
    rank = _rank(p)
    if rank in (0, n):
        return [0.0] * trials  # P = Q = R
    vp, vq = herm_eig(np.array([p, q])).eigenvectors[..., n - rank:]
    step = max(1, _CHUNK_BYTES // (p.itemsize * p.size))
    lengths = []
    for start in range(0, trials, step):
        seeds = [seed + i for i in range(start, min(start + step, trials))]
        rs = _joinable_midpoints(p, rank, seeds)
        vr = herm_eig(rs).eigenvectors[..., n - rank:]
        cos = min_singular_value(np.concatenate([_adjoint(vp) @ vr, _adjoint(vr) @ vq]))
        sin = op_norm(np.concatenate([p - rs, rs - q]))
        legs = np.arctan2(sin, cos).reshape(2, -1)
        lengths.extend((legs[0] + legs[1]).tolist())
    return lengths


# fixed probe seed: the uniqueness re-derivation must be a deterministic
# function of its inputs
_REDERIVE_SEED = 0x5EED


def unique_minimal_check(p, q, tol: Tolerance | None = None) -> UniquenessReport:
    """Uniqueness of the normalized segment, decided by the index pair.

    Index ``(0, 0)``: unique; the exponent is re-derived from conjugated
    inputs (an independent eigensolve path) and compared.  Index ``(k, k)``
    with ``k > 0``: not unique; two distinct exponents obtained from two
    crossed pairings are returned as a witness.
    """
    tol = tol or default_tolerance()
    fs = halmos_decompose(p, q, tol)
    seg = _segment(fs, None, tol)
    k = fs.dims[2]
    if k == 0:
        u = random_unitary(fs.p.shape[0], _REDERIVE_SEED)
        pc, qc = (_hermitize(u.conj().T @ m @ u) for m in (fs.p, fs.q))
        seg_c = _segment(halmos_decompose(pc, qc, tol), None, tol)
        back = u @ seg_c.exponent @ u.conj().T
        err = op_norm(back - seg.exponent)
        return UniquenessReport(
            unique=True,
            witness=None,
            rederivation_error=err,
            witness_separation=None,
        )
    twist = 1j * np.eye(k, dtype=np.complex128)  # exp(i pi/2) rotation of the pairing
    # the canonical segment has the identity pairing
    z1, z2 = seg.exponent, _exponent(fs, twist)
    return UniquenessReport(
        unique=False,
        witness=(z1, z2),
        rederivation_error=None,
        witness_separation=op_norm(z1 - z2),
    )


def multi_geodesic_family(
    p,
    q,
    unitaries,
    tol: Tolerance | None = None,
) -> list[GeodesicSegment]:
    """Distinct normalized segments from ``P`` to ``Q``, one per pairing.

    Requires index pair ``(k, k)`` with ``k >= 1``.  Each ``k x k`` unitary
    twists the canonical crossed pairing; distinct unitaries produce
    distinct exponents with identical endpoints and norm ``pi/2``.
    """
    tol = tol or default_tolerance()
    fs = halmos_decompose(p, q, tol)
    _, _, d10, d01, _ = fs.dims
    if d10 != d01 or d10 == 0:
        raise BadIndex(f"need index pair (k, k) with k >= 1, got ({d10}, {d01})")
    return [_segment(fs, u, tol) for u in unitaries]


def minimal_geodesic(
    p,
    q,
    samples: int = 1000,
    tol: Tolerance | None = None,
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
    tol = tol or default_tolerance()
    fs = halmos_decompose(p, q, tol)
    seg = _segment(fs, None, tol)
    _, _, d10, d01, _ = fs.dims
    endpoint_error = op_norm(evaluate(seg, 1.0) - fs.q)
    length = curve_length(seg, samples)
    return seg, {
        "norm_Z": op_norm(seg.exponent),
        "index": [int(d10), int(d01)],
        "endpoint_error": float(endpoint_error),
        "length_estimate": float(length),
        "unique": d10 == 0,
    }
