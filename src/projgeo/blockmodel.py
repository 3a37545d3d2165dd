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
    _first,
    _hermitize,
    _skewize,
    _svd,
    as_cmatrix,
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


@dataclass(frozen=True)
class BlockOperator:
    """Block-diagonal operator: exceptional ``d x d`` blocks, then a
    repeating tail block.

    Kept in normal form: trailing exceptional blocks bitwise equal to the
    tail are absorbed, so the exceptional list is minimal.
    """

    block_dim: int
    exceptional: tuple[np.ndarray, ...]
    tail: np.ndarray

    def __post_init__(self):
        d = self.block_dim
        if d < 1:
            raise DimMismatch(f"block_dim must be positive, got {d}")
        tail = _as_block(self.tail, d)
        blocks = tuple(_as_block(b, d) for b in self.exceptional)
        if len(blocks) > MAX_EXCEPTIONAL:
            raise ValueError(
                f"exceptional list longer than {MAX_EXCEPTIONAL} blocks"
            )
        while blocks and np.array_equal(blocks[-1], tail):
            blocks = blocks[:-1]
        object.__setattr__(self, "exceptional", blocks)
        object.__setattr__(self, "tail", tail)

    # -- structure ---------------------------------------------------------

    def block_at(self, i: int) -> np.ndarray:
        """Block acting on the ``i``-th summand."""
        if i < len(self.exceptional):
            return self.exceptional[i]
        return self.tail

    def _aligned(self, other: "BlockOperator") -> int:
        if not isinstance(other, BlockOperator):
            raise TypeError(f"expected a BlockOperator, got {type(other)!r}")
        if self.block_dim != other.block_dim:
            raise DimMismatch(
                f"block dims {self.block_dim} and {other.block_dim} differ"
            )
        return max(len(self.exceptional), len(other.exceptional))

    # -- *-algebra operations ----------------------------------------------

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        m = self._aligned(other)
        return BlockOperator(
            self.block_dim,
            tuple(self.block_at(i) + other.block_at(i) for i in range(m)),
            self.tail + other.tail,
        )

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        return self + (-1.0) * other

    def __neg__(self) -> "BlockOperator":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, BlockOperator):
            m = self._aligned(other)
            return BlockOperator(
                self.block_dim,
                tuple(self.block_at(i) @ other.block_at(i) for i in range(m)),
                self.tail @ other.tail,
            )
        return BlockOperator(
            self.block_dim,
            tuple(other * b for b in self.exceptional),
            other * self.tail,
        )

    def __rmul__(self, scalar) -> "BlockOperator":
        return self * scalar

    def adjoint(self) -> "BlockOperator":
        return BlockOperator(
            self.block_dim,
            tuple(_adjoint(b) for b in self.exceptional),
            _adjoint(self.tail),
        )

    def norm(self) -> float:
        """Exact operator norm: the largest block norm."""
        return float(op_norm(np.array([*self.exceptional, self.tail])).max())


def quotient(a: BlockOperator) -> np.ndarray:
    """Quotient map: the tail block.  A *-homomorphism, exactly: products,
    sums and adjoints of tails are computed by the very same matrix
    operations as in the block algebra."""
    return a.tail.copy()


# -- projection lifting ------------------------------------------------------


def _threshold_block(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The block with eigenpairs ``(w, u)`` pushed through the step at 1/2."""
    return _hermitize((u * (w >= 0.5).astype(float)) @ _adjoint(u))


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
    for i, b in enumerate((*t.exceptional, t.tail)):
        if not np.array_equal(b, _adjoint(b)):
            raise NotHermitian(f"block {i} is not selfadjoint")
    make_projection(t.tail)
    new_blocks = []
    for i, b in enumerate(t.exceptional):
        w, u = herm_eig(b)
        bad = np.abs(w - 0.5) < SPECTRAL_GAP
        if np.any(bad):
            offending = float(w[bad][0])
            raise NoSpectralGap(
                f"eigenvalue {offending!r} of exceptional block {i} lies "
                f"within {SPECTRAL_GAP} of 1/2"
            )
        new_blocks.append(_threshold_block(w, u))
    new_tail = _threshold_block(*herm_eig(t.tail))
    return BlockOperator(t.block_dim, tuple(new_blocks), new_tail)


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
    make_projection(p)
    pc = np.eye(d) - p
    stack = np.array([z + _adjoint(z), p @ z @ p, pc @ z @ pc, z])
    skew, *diagonal, z_norm = op_norm(stack).tolist()
    if skew > PROJECTION_ATOL:
        raise NotCodiagonal("exponent is not skew")
    if max(diagonal) > PROJECTION_ATOL:
        raise NotCodiagonal("exponent is not codiagonal with respect to p")
    if z_norm > HALF_PI_BOUND:
        raise NormTooLarge(f"|z| = {z_norm!r} exceeds pi/2")
    if not np.array_equal(lift_p.tail, p):
        raise NotAProjection("lift_p is not a lift of p: tails differ")
    blocks = ()
    if lift_p.exceptional:
        blocks = tuple(_compress(make_projection(np.array(lift_p.exceptional)), z))
    # the tail carries z itself, so the quotient of the lift is exact
    return BlockOperator(d, blocks, z)


def evaluate_block_geodesic(lift_p: BlockOperator, z: BlockOperator):
    """Blockwise geodesic ``t -> exp(tZ) P exp(-tZ)`` as a curve of
    BlockOperators.

    Each block evolves independently; in particular the tail of the curve
    is exactly the quotient geodesic of the tails.  The distinct blocks
    form one segment of stacks, so a point of the curve is one ``evaluate``.
    """
    indices = range(lift_p._aligned(z) + 1)
    stack = GeodesicSegment(*(np.array([a.block_at(i) for i in indices]) for a in (lift_p, z)))

    def at(t: float) -> BlockOperator:
        *blocks, tail = evaluate(stack, t)
        return BlockOperator(lift_p.block_dim, tuple(blocks), tail)

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
    new_p, new_q = [], []
    for i in range(m):
        bp, bq = lift_p.block_at(i), lift_q.block_at(i)
        pair = _pair(bp, bq)
        sp = _split(*pair, tol)
        if any(sp.index):  # only a crossed pair needs its bases
            fs = _five_space(*pair, sp)
            # M01 may miss R(Q_i) by the cosine of a plane counted as
            # crossed; the range of Q_i M01 lies in R(Q_i)
            y = np.linalg.qr(fs.q @ fs.m01)[0]
            crossed = np.array([fs.m10 @ _adjoint(fs.m10), y @ _adjoint(y)])
            bp, bq = _hermitize(pair - crossed)
        new_p.append(bp)
        new_q.append(bq)
    return (
        BlockOperator(lift_p.block_dim, tuple(new_p), lift_p.tail),
        BlockOperator(lift_p.block_dim, tuple(new_q), lift_q.tail),
    )


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
    d = pair.shape[-1]
    ip = _split(*pair, tol).index
    case = _dichotomy_case(ip)

    if lifts is None:
        lifts = tuple(BlockOperator(d, (), m) for m in pair)
    else:
        lp, lq = lifts
        # the caller's tails, not the door's Hermitian part of them
        if not (np.array_equal(lp.tail, p) and np.array_equal(lq.tail, q)):
            raise NotAProjection("supplied lifts do not have tails p, q")
        # in the FiniteFinite case lifting_surgery validates each block pair
        blocks = [*lp.exceptional, *lq.exceptional]
        if blocks and case is not DichotomyCase.FINITE_FINITE:
            make_projection(np.array(blocks))

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
    blocks = np.array([(lift_p.block_at(i), lift_q.block_at(i)) for i in range(m + 1)])
    d = lift_p.block_dim
    sv = _svd(blocks[:, 0] + blocks[:, 1] - np.eye(d), compute_uv=False)  # descending
    nullity = (sv <= tol.rank_rtol).sum(axis=1)
    diff = _rank(blocks) @ [1, -1]  # rank P - rank Q
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
