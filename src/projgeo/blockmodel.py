"""Exact desk-scale model of the bounded-operators-mod-compacts quotient.

Operators act block-diagonally on an infinite orthogonal sum of ``d``
dimensional blocks: finitely many *exceptional* blocks followed by one
*tail* block repeated forever.  Operators whose tail is zero play the role
of the compact ideal, and the quotient map simply reads off the tail
block, so quotient identities hold exactly (they are plain ``d x d``
matrix identities, no truncation error).

Within the model, "infinite-dimensional nullspace" translates to "the
tail block contributes a nontrivial nullspace", since the tail repeats
infinitely often.  The existence dichotomy and the lifting constructions
are stated and verified at that level.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain, cycle, islice
from math import isfinite, lcm

import numpy as np

from .errors import (
    DimMismatch,
    NoGeodesic,
    NormTooLarge,
    NoSpectralGap,
    NotAProjection,
    NotCodiagonal,
    NotHermitian,
    NotPeriodic,
)
from .geodesics import GeodesicSegment, _segment, evaluate
from .numkernel import (
    HALF_PI_BOUND,
    Tolerance,
    _adjoint,
    _defect_norms,
    _first,
    _hermitize,
    _skewize,
    _svd,
    as_cmatrix,
    as_cstack,
    herm_eig,
    op_norm,
)
from .projections import (
    PROJECTION_ATOL,
    IndexPair,
    _five_space,
    _pair,
    _rank,
    _split,
    halmos_decompose,
    make_projection,
)

# keeps exact norm evaluation bounded
MAX_EXCEPTIONAL = 64

# forbidden band around 1/2 for spectral thresholding
SPECTRAL_GAP = 0.1


def _as_block(m, d: int) -> np.ndarray:
    b = as_cmatrix(m)
    if b.shape != (d, d):
        raise DimMismatch(f"expected a {d}x{d} block, got {b.shape}")
    return b


def _padded(stack: np.ndarray, m: int) -> np.ndarray:
    """The first ``m`` blocks of a stack, tail last, then its tail, which stands
    in past the stack's end: the stack itself when ``m`` blocks are all it has."""
    k = len(stack) - 1
    j = min(m, k)
    return stack if m == k else stack[[*range(j), *[k] * (m + 1 - j)]]


@dataclass(frozen=True, init=False)
class BlockOperator:
    """Block-diagonal operator: exceptional ``d x d`` blocks, then a repeating
    tail block, held as one read-only ``(k + 1, d, d)`` complex stack
    ``blocks``, tail last.  The constructor is the one door; it takes the
    exceptional blocks as a tuple or a ``(k, d, d)`` array and keeps the normal
    form: trailing exceptional blocks bitwise equal to the tail are absorbed."""

    blocks: np.ndarray

    def __init__(self, block_dim: int, exceptional, tail):
        d = block_dim
        if d < 1:
            raise DimMismatch(f"block_dim must be positive, got {d}")
        if len(exceptional) > MAX_EXCEPTIONAL:
            raise ValueError(f"exceptional list longer than {MAX_EXCEPTIONAL} blocks")
        blocks = (*exceptional, tail)
        for b in blocks:
            if np.shape(b) != (d, d):
                raise DimMismatch(f"expected a {d}x{d} block, got {np.shape(b)}")
        stack = as_cstack(blocks)
        # the normal form: cut the trailing blocks bitwise equal to the tail
        same = (stack[:-1] == stack[-1]).all(axis=(1, 2)).tolist() if len(stack) > 1 else []
        stack = _padded(stack, len(same) - (same[::-1] + [False]).index(False))
        stack.flags.writeable = False
        object.__setattr__(self, "blocks", stack)

    # -- structure ---------------------------------------------------------

    @property
    def block_dim(self) -> int:
        return self.blocks.shape[-1]

    @property
    def exceptional(self) -> np.ndarray:
        return self.blocks[:-1]

    @property
    def tail(self) -> np.ndarray:
        return self.blocks[-1]

    def _aligned(self, other: "BlockOperator") -> int:
        if not isinstance(other, BlockOperator):
            raise TypeError(f"expected a BlockOperator, got {type(other)!r}")
        if self.block_dim != other.block_dim:
            raise DimMismatch(
                f"block dims {self.block_dim} and {other.block_dim} differ"
            )
        return max(len(self.blocks), len(other.blocks)) - 1

    # -- *-algebra operations ----------------------------------------------

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        m = self._aligned(other)
        s = _padded(self.blocks, m) + _padded(other.blocks, m)
        return BlockOperator(self.block_dim, s[:-1], s[-1])

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        return self + (-1.0) * other

    def __neg__(self) -> "BlockOperator":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, BlockOperator):
            m = self._aligned(other)
            s = _padded(self.blocks, m) @ _padded(other.blocks, m)
        else:
            s = other * self.blocks
        return BlockOperator(self.block_dim, s[:-1], s[-1])

    def __rmul__(self, scalar) -> "BlockOperator":
        return self * scalar

    def adjoint(self) -> "BlockOperator":
        s = _adjoint(self.blocks)
        return BlockOperator(self.block_dim, s[:-1], s[-1])

    def norm(self) -> float:
        """Exact operator norm: the largest block norm."""
        return float(op_norm(self.blocks).max())


def quotient(a: BlockOperator) -> np.ndarray:
    """Quotient map: the tail block.  A *-homomorphism, exactly: products,
    sums and adjoints of tails are computed by the very same matrix
    operations as in the block algebra."""
    return a.tail.copy()


# -- projection lifting ------------------------------------------------------


def lift_projection(t: BlockOperator) -> BlockOperator:
    """Spectral-threshold lift of an almost-projection to a projection.

    Each block is pushed through the step function that sends eigenvalues
    ``>= 1/2`` to one and the rest to zero.  Exceptional blocks must keep
    their spectrum out of the band of half-width ``SPECTRAL_GAP`` around
    1/2; the tail must already be a projection up to 1e-10.

    Raises
    ------
    NotHermitian
        If a block is not bitwise selfadjoint.
    NoSpectralGap
        If an exceptional eigenvalue falls inside the forbidden band,
        reporting the offending eigenvalue.
    NotAProjection
        If the tail is not a projection within 1e-10.
    """
    i = _first((t.blocks != _adjoint(t.blocks)).any(axis=(1, 2)))
    if i is not None:
        raise NotHermitian(f"block {i} is not selfadjoint")
    make_projection(t.tail)
    w, u = herm_eig(t.blocks)
    # the first offending eigenvalue (ascending) of the first offending block
    i = _first(np.abs(w[:-1] - 0.5) < SPECTRAL_GAP)
    if i is not None:
        raise NoSpectralGap(
            f"eigenvalue {float(w.flat[i])!r} of exceptional block {i // t.block_dim} "
            f"lies within {SPECTRAL_GAP} of 1/2"
        )
    lifted = _hermitize((u * (w >= 0.5)[:, None, :]) @ _adjoint(u))
    return BlockOperator(t.block_dim, lifted[:-1], lifted[-1])


# -- norm-minimal selfadjoint lifting ----------------------------------------


@dataclass(frozen=True)
class DiagonalSequence:
    """Real sequence: a finite prefix followed by a cycle repeated forever.

    The eventual behaviour is exactly the cycle, so ``limsup |d_n|`` is the
    largest absolute cycle value.
    """

    prefix: tuple[float, ...]
    tail_cycle: tuple[float, ...]

    def __post_init__(self):
        prefix = tuple(map(float, self.prefix))
        tail = tuple(map(float, self.tail_cycle))
        if not tail:
            raise ValueError("tail_cycle must be non-empty")
        if not all(map(isfinite, prefix + tail)):
            raise ValueError("sequence has non-finite entries")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail_cycle", tail)

    def limsup_abs(self) -> float:
        return max(map(abs, self.tail_cycle))

    def sup_abs(self) -> float:
        return max(map(abs, self.prefix + self.tail_cycle))

    def __add__(self, other: "DiagonalSequence") -> "DiagonalSequence":
        if not isinstance(other, DiagonalSequence):
            return NotImplemented
        head = max(len(self.prefix), len(other.prefix))
        n = head + lcm(len(self.tail_cycle), len(other.tail_cycle))
        a, b = (chain(s.prefix, cycle(s.tail_cycle)) for s in (self, other))
        sums = [x + y for x, y in islice(zip(a, b), n)]
        return DiagonalSequence(tuple(sums[:head]), tuple(sums[head:]))


def _clip_correction(x: float, level: float) -> float:
    """Correction k with ``|x + k|`` inside ``[-level, level]`` as floats.

    Starts from ``clip(x) - x`` and, if re-rounding pushed the sum one ulp
    outside the band, walks the correction toward ``-x`` (whose sum is
    exactly zero, so the walk always terminates inside).
    """
    if abs(x) <= level:
        return 0.0
    k = (level if x > 0 else -level) - x
    while abs(x + k) > level:
        k = np.nextafter(k, -x)
    return k


def minimal_norm_lift(d: DiagonalSequence) -> DiagonalSequence:
    """Eventually-zero correction ``k0`` with ``sup |d + k0| = limsup |d|``.

    Prefix entries are clipped into ``[-L, L]`` with ``L = limsup |d|``
    (two-sided clipping; no eventual entry ever exceeds ``L``), so the
    equality holds exactly in floating point.  No eventually-zero
    correction can do better: it leaves the cycle, and hence the limsup,
    untouched.
    """
    level = d.limsup_abs()
    prefix = tuple(_clip_correction(x, level) for x in d.prefix)
    return DiagonalSequence(prefix, (0.0,) * len(d.tail_cycle))


# -- geodesic lifting ---------------------------------------------------------


def _compress(b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``B z (1-B) + (1-B) z B`` for each projection ``B`` of a stack."""
    bc = np.eye(z.shape[0]) - b
    return _skewize(b @ z @ bc + bc @ z @ b)


def lift_geodesic(
    p: np.ndarray,
    z: np.ndarray,
    lift_p: BlockOperator,
) -> BlockOperator:
    """Lift a quotient geodesic exponent without increasing its norm.

    Given a quotient projection ``p``, a skew ``p``-codiagonal exponent
    ``z`` with ``|z| <= pi/2``, and any block projection ``lift_p`` whose
    tail is exactly ``p`` (the initial point is free within the fiber),
    the lift places ``z`` on the tail and compresses it to the codiagonal
    corners ``P z (1-P) + (1-P) z P`` on each exceptional block.
    Compression cannot increase a norm while the tail pins it from below,
    so the lifted norm equals ``|z|``.
    """
    d = lift_p.block_dim
    p = _as_block(p, d)
    z = _as_block(z, d)
    blocks = make_projection(np.concatenate([p[None], lift_p.exceptional]))[1:]
    pc = np.eye(d) - p
    checks = _defect_norms(lambda: np.array([z + _adjoint(z), p @ z @ p, pc @ z @ pc, z]))
    skew, *diagonal, z_norm = checks.tolist()
    if skew > PROJECTION_ATOL:
        raise NotCodiagonal("exponent is not skew")
    if max(diagonal) > PROJECTION_ATOL:
        raise NotCodiagonal("exponent is not codiagonal with respect to p")
    if z_norm > HALF_PI_BOUND:
        raise NormTooLarge(f"|z| = {z_norm!r} exceeds pi/2")
    if not np.array_equal(lift_p.tail, p):
        raise NotAProjection("lift_p is not a lift of p: tails differ")
    # the tail carries z itself, so the quotient of the lift is exact
    return BlockOperator(d, _compress(blocks, z), z)


def evaluate_block_geodesic(lift_p: BlockOperator, z: BlockOperator):
    """Blockwise geodesic ``t -> exp(tZ) P exp(-tZ)`` as a curve of
    BlockOperators.

    Each block evolves independently; in particular the tail of the curve
    is exactly the quotient geodesic of the tails.  The distinct blocks
    form one segment of stacks, so a point of the curve is one ``evaluate``.
    """
    m = lift_p._aligned(z)
    segment = GeodesicSegment(_padded(lift_p.blocks, m), _padded(z.blocks, m))

    def at(t) -> BlockOperator:
        s = evaluate(segment, t)
        return BlockOperator(lift_p.block_dim, s[:-1], s[-1])

    return at


# -- existence dichotomy -------------------------------------------------------


class DichotomyCase(Enum):
    FINITE_FINITE = "FiniteFinite"
    INFINITE_INFINITE = "InfiniteInfinite"
    MIXED = "Mixed"


def _dichotomy_case(ip: IndexPair) -> DichotomyCase:
    """Both crossed nullities trivial, both nontrivial, or one of each."""
    if not any(ip):
        return DichotomyCase.FINITE_FINITE
    if all(ip):
        return DichotomyCase.INFINITE_INFINITE
    return DichotomyCase.MIXED


@dataclass(frozen=True)
class DichotomyResult:
    exists: bool
    case: DichotomyCase
    witnesses: tuple[BlockOperator, BlockOperator] | None
    quotient_index: IndexPair


def lifting_surgery(
    lift_p: BlockOperator,
    lift_q: BlockOperator,
    tol: Tolerance = Tolerance(),
) -> tuple[BlockOperator, BlockOperator]:
    """Remove crossed intersections from every exceptional block pair.

    Each exceptional pair ``(P_i, Q_i)`` with a crossed intersection is
    replaced by ``(P_i - M10 M10*, Q_i - M01 M01*)``, for the bases ``M10,
    M01`` of its crossed intersections ``R(P_i) & N(Q_i)`` and ``N(P_i) &
    R(Q_i)``.  This changes nothing modulo the ideal (the tails are
    untouched) and leaves every exceptional pair with index ``(0, 0)``.
    """
    m = lift_p._aligned(lift_q)
    if not m:
        return lift_p, lift_q
    # the blocks it reads, each validated once: a tail where the other list is longer
    raw = np.concatenate([lift_p.blocks[:m], lift_q.blocks[:m]])
    k = min(len(lift_p.blocks), m)
    rows = np.minimum(np.arange(m)[:, None], [k - 1, len(raw) - k - 1]) + [0, k]
    pairs, blocks = make_projection(raw)[rows], raw[rows]
    for pair, out in zip(pairs, blocks):
        sp = _split(*pair, tol)
        if any(sp.index):  # only a crossed pair needs its bases
            fs = _five_space(*pair, sp)
            # M01 may miss R(Q_i) by the cosine of a plane counted as
            # crossed; the range of Q_i M01 lies in R(Q_i)
            y = np.linalg.qr(fs.q @ fs.m01)[0]
            crossed = np.array([fs.m10 @ _adjoint(fs.m10), y @ _adjoint(y)])
            out[:] = _hermitize(pair - crossed)
    return (BlockOperator(lift_p.block_dim, blocks[:, 0], lift_p.tail),
            BlockOperator(lift_q.block_dim, blocks[:, 1], lift_q.tail))


def existence_dichotomy(
    p: np.ndarray,
    q: np.ndarray,
    *,
    lifts: tuple[BlockOperator, BlockOperator] | None = None,
    tol: Tolerance = Tolerance(),
) -> DichotomyResult:
    """Classify a quotient pair by the nullities of ``p - q -+ 1``.

    Both trivial: every lift has finite crossed nullspaces (FiniteFinite).
    Both nontrivial: the repeating tail makes both crossed nullspaces
    infinite-dimensional (InfiniteInfinite).  Exactly one trivial: the
    characters can never match (Mixed), and no geodesic exists.

    When lifts are supplied their tails must equal ``p`` and ``q``; in the
    FiniteFinite case their exceptional discrepancies are removed by
    ``lifting_surgery`` so the returned witnesses have balanced index on
    every block.
    """
    pair = _pair(p, q)
    ip = _split(*pair, tol).index
    case = _dichotomy_case(ip)

    if lifts is None:
        lifts = tuple(BlockOperator(len(m), (), m) for m in pair)
    else:
        lp, lq = lifts
        # the caller's tails, not the door's Hermitian part of them
        if not (np.array_equal(lp.tail, p) and np.array_equal(lq.tail, q)):
            raise NotAProjection("supplied lifts do not have tails p, q")
        # their exceptional blocks, if any; in the FiniteFinite case lifting_surgery validates them
        if case is not DichotomyCase.FINITE_FINITE and len(lp.blocks) + len(lq.blocks) > 2:
            make_projection(np.concatenate([lp.exceptional, lq.exceptional]))

    if case is DichotomyCase.MIXED:
        return DichotomyResult(False, case, None, ip)
    witnesses = lifts
    if case is DichotomyCase.FINITE_FINITE:
        witnesses = lifting_surgery(*lifts, tol=tol)
    return DichotomyResult(True, case, witnesses, ip)


def truncated_index_pairs(
    lift_p: BlockOperator,
    lift_q: BlockOperator,
    lengths,
    tol: Tolerance = Tolerance(),
) -> list[IndexPair]:
    """Index pairs of the truncations to the first ``n`` blocks, for each
    ``n`` in ``lengths``.

    A block's crossed directions span the kernel ``K`` of ``P + Q - 1``
    (singular values ``cos theta``, so decided at linear scale).  Off ``K``
    the ranks of ``P`` and ``Q`` agree (Halmos 1969), so with ``k = dim K``
    and ranks ``r, s`` the block's pair is ``((k + r - s)/2, (k - r + s)/2)``.
    A plane gives an equal pair of singular values, so when ``k + r - s`` is
    odd and ``0 < k < d`` the pair around the threshold, ``sv[d-k-1]`` and
    ``sv[d-k]``, may be one plane with ``cos theta`` at ``rank_rtol`` split
    by roundoff: if the two differ by at most ``rank_rtol``, their mean
    decides them as one.  Any other ``k`` raises ``NotAProjection``: the
    block is no projection pair.  A truncation sums the index pairs of its
    blocks, and past the ``m`` exceptional ones holds ``n - m`` tails: one
    stacked singular-value call gives every length.  Different block dims
    raise ``DimMismatch``, a negative length ``ValueError``.
    """
    m = lift_p._aligned(lift_q)
    lengths = list(lengths)
    if any(n < 0 for n in lengths):
        raise ValueError(f"truncation lengths must be non-negative, got {lengths}")
    bp, bq = _padded(lift_p.blocks, m), _padded(lift_q.blocks, m)
    d = lift_p.block_dim
    sv = _svd(bp + bq - np.eye(d), compute_uv=False)  # descending
    nullity = (sv <= tol.rank_rtol).sum(axis=1)
    diff = _rank(bp) - _rank(bq)
    # the pair around the threshold: one plane's when a roundoff split it
    rows = np.arange(m + 1)
    above = sv[rows, np.maximum(d - nullity - 1, 0)]
    below = sv[rows, np.minimum(d - nullity, d - 1)]
    straddle = ((nullity + diff) % 2 == 1) & (0 < nullity) & (nullity < d)
    straddle &= above - below <= tol.rank_rtol
    nullity = nullity + straddle * np.where((above + below) / 2 > tol.rank_rtol, -1, 1)
    i = _first(((nullity + diff) % 2 == 1) | (np.abs(diff) > nullity))
    if i is not None:
        name = "the tail" if i == m else f"exceptional block {i}"
        raise NotAProjection(f"{name}: nullity {nullity[i]} of P + Q - 1 and rank "
                             f"difference {diff[i]} give no index pair")
    crossed = np.array([nullity + diff, nullity - diff]) // 2
    head, tail = crossed[:, :m], crossed[:, m]
    return [
        IndexPair(*(head[:, :n].sum(axis=1) + max(n - m, 0) * tail).tolist())
        for n in lengths
    ]


# -- quotient geodesics --------------------------------------------------------


@dataclass(frozen=True)
class QuotientGeodesic:
    segment: GeodesicSegment
    unique: bool
    case: DichotomyCase


def quotient_geodesic(
    p: np.ndarray,
    q: np.ndarray,
    tol: Tolerance = Tolerance(),
) -> QuotientGeodesic:
    """Minimal geodesic between quotient projections.

    The exponent is computed on the ``d x d`` quotient matrices.  The
    block-periodic model realizes a quotient geodesic only when the tail
    index pair is balanced: with both crossed nullities positive but
    unequal the dichotomy still reports existence (the crossed spaces are
    both infinite-dimensional), yet any pairing between them must cross
    block boundaries and leaves the periodic algebra; that case raises
    ``NotPeriodic`` here.

    The segment is unique when ``p + q - 1`` has trivial annihilator.  The
    kernel of ``p + q - 1`` is the sum of the two crossed intersections, so
    that holds exactly when the index pair is ``(0, 0)``: the FiniteFinite
    case, read off the one split of the pair that also gives the segment.
    """
    fs = halmos_decompose(p, q, tol)
    ip = fs.index
    case = _dichotomy_case(ip)
    if case is DichotomyCase.MIXED:
        raise NoGeodesic(f"no geodesic: index {tuple(ip)} has mixed character", ip)
    if ip.d_plus != ip.d_minus:
        raise NotPeriodic(f"tail index {tuple(ip)} is unbalanced: the crossed "
                          "pairing is not block-periodic", ip)
    return QuotientGeodesic(
        segment=_segment(fs, None),
        unique=case is DichotomyCase.FINITE_FINITE,
        case=case,
    )
