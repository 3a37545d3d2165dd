"""Batch verification suites behind ``projgeo verify``.

A suite is a function of one trial, ``_trial_X(i, seed, tol)``: it draws
its instance from that trial's own ``seed`` alone, checks one family of
properties against ``BOUNDS``, and returns the record's fields, the
trial's residual and whether it passed.  ``run_suite`` is the one loop:
trial ``i`` of a run at base seed ``s`` runs at ``s + i`` and is recorded
as ``{"trial": i, "seed": s + i, **fields}``, so a one-trial run at
``s + i`` gives that record again.  Only ``uniqueness`` reads ``i``: its
kind is picked by ``i % 5``.  The report keeps the worst residual, and
the suite passes when no trial fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import blockmodel
from .blockmodel import (
    BlockOperator,
    DiagonalSequence,
    DichotomyCase,
    existence_dichotomy,
    lift_geodesic,
    minimal_norm_lift,
    quotient,
    quotient_geodesic,
    truncated_index_pairs,
)
from .geodesics import (
    GeodesicSegment,
    _lower_bound,
    _segment,
    curve_length,
    evaluate,
    multi_geodesic_family,
    unique_minimal_check,
)
from .numkernel import Tolerance, _adjoint, _hermitize, op_norm
from .projections import (
    IndexPair,
    _haar,
    _range_projection,
    diff_sum,
    halmos_decompose,
    pair_with_dims,
    random_projection,
    random_unitary,
)


@dataclass
class SuiteReport:
    suite: str
    trials: int
    failures: int = 0
    worst_residual: float = 0.0
    records: list[dict] = field(default_factory=list)

    def add(self, record: dict, residual: float, ok: bool) -> None:
        record["residual"] = float(residual)
        record["ok"] = bool(ok)
        self.records.append(record)
        self.worst_residual = max(self.worst_residual, float(residual))
        if not ok:
            self.failures += 1

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "failures": self.failures,
            "worst_residual": self.worst_residual,
            "records": self.records,
        }


# -- instance samplers ---------------------------------------------------------


def _balanced_pair(rng, k: int, hi: float = np.pi / 2 - 0.15):
    """Pair of index (k, k), at most 14 dims, angles in ``[0.15, hi)``, drawn from ``rng``."""
    d11 = int(rng.integers(0, 3))
    d00 = int(rng.integers(0, 3))
    g = int(rng.integers(1, 4))
    angles = rng.uniform(0.15, hi, g)
    return pair_with_dims(d11, d00, k, k, 2 * g, angles, seed=rng)


def random_equal_index_pair(seed):
    """Projection pair with equal index, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return _balanced_pair(rng, int(rng.choice([0, 0, 0, 1, 1, 2])))


def random_generic_pair(seed):
    """Index-(0,0) pair with ``smin(P + Q - 1) >= 0.12``: that singular value
    is the cosine of the largest angle, drawn below ``arccos(0.12)``."""
    return _balanced_pair(np.random.default_rng(seed), 0, np.arccos(0.12))


def random_crossed_pair(seed):
    """Pair with index (k, k), k in {1, 2}, and that k."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 3))
    return _balanced_pair(rng, k), k


def _quotient_dims(rng):
    """The dims ``(d11, d00, d10, d01, g)`` of ``random_quotient_pair``, drawn from
    ``rng``: FiniteFinite (kind < 0.4), InfiniteInfinite (< 0.75) or mixed."""
    d_max = 6  # the block dimension bound
    kind = rng.random()
    if kind < 0.4:
        g = int(rng.integers(1, (d_max - 1) // 2 + 1))
        d11 = int(rng.integers(0, d_max - 2 * g + 1))
        d00 = int(rng.integers(0, d_max - 2 * g - d11 + 1))
        return d11, d00, 0, 0, g
    d10 = int(rng.integers(1, 3))
    d01 = int(rng.integers(1, 3)) if kind < 0.75 else 0
    if kind >= 0.75 and rng.random() < 0.5:  # mixed: either crossed part is the one
        d10, d01 = d01, d10
    room = d_max - d10 - d01
    g = int(rng.integers(0, room // 2 + 1))
    d11 = int(rng.integers(0, room - 2 * g + 1))
    return d11, 0, d10, d01, g


def _quotient_pair(rng, dims) -> tuple[np.ndarray, np.ndarray]:
    """The pair of ``_quotient_dims``' dims, its angles and unitary drawn from ``rng``."""
    d11, d00, d10, d01, g = dims
    angles = rng.uniform(0.2, np.pi / 2 - 0.2, g)
    return pair_with_dims(d11, d00, d10, d01, 2 * g, angles, seed=rng)


def random_quotient_pair(seed):
    """Quotient pair of block dimension <= 6 with an assorted case mix."""
    rng = np.random.default_rng(seed)
    return _quotient_pair(rng, _quotient_dims(rng))


def random_projection_blocks(rng, d: int, count: int) -> np.ndarray:
    """``count`` projections of size ``d`` and random rank, as one ``(count, d, d)``
    complex stack, drawn per block: its rank, then for ``0 < rank < d`` the Gaussian
    of its Haar unitary; one QR factors all the Gaussians.  No report reads a block;
    a test pins this order, and at a lift's 0-3 blocks it beats ``_fiber_norms``' pool."""
    ranks, draws = [], []
    for _ in range(count):
        ranks.append(int(rng.integers(0, d + 1)))
        if 0 < ranks[-1] < d:
            draws.append(rng.standard_normal((2, d, d)))
    unitaries = iter(_haar(draws) if draws else ())
    return np.array([_range_projection(next(unitaries), r) if 0 < r < d else np.eye(d) * (r == d)
                     for r in ranks], dtype=np.complex128).reshape(count, d, d)


def random_diagonal_sequence(rng) -> DiagonalSequence:
    prefix_len = int(rng.integers(0, 9))
    cycle_len = int(rng.integers(1, 7))
    prefix = tuple(float(x) for x in rng.uniform(-10.0, 10.0, prefix_len))
    cycle = tuple(float(x) for x in rng.uniform(-5.0, 5.0, cycle_len))
    return DiagonalSequence(prefix, cycle)


# -- truncation oracle (existence suite) ----------------------------------------

# the shortest final truncation the oracle reads, in blocks
TRUNCATION_BLOCKS = 12


class TruncationVerdict(NamedTuple):
    """The oracle's case; ``final``, the index pair of ``max(m + 1, TRUNCATION_BLOCKS)`` blocks."""

    case: DichotomyCase
    final: IndexPair


def classify_by_truncation(
    lift_p: BlockOperator,
    lift_q: BlockOperator,
    tol: Tolerance = Tolerance(),
) -> TruncationVerdict:
    """Brute-force classification from the index pairs of truncations, summed
    from per-block nullities.  Each block past the ``m`` exceptional ones is a
    tail, so the growth from ``m`` to ``m + 1`` blocks is the crossed nullities'
    growth per block: ``_dichotomy_case`` of it is the case, never undecided."""
    m = lift_p._aligned(lift_q)
    lengths = [m, m + 1, max(m + 1, TRUNCATION_BLOCKS)]
    head, step, final = truncated_index_pairs(lift_p, lift_q, lengths, tol)
    growth = IndexPair(step.d_plus - head.d_plus, step.d_minus - head.d_minus)
    return TruncationVerdict(blockmodel._dichotomy_case(growth), final)


# -- suites ---------------------------------------------------------------------

# acceptance bounds of the suites' trials: a trial fails when a residual
# exceeds its bound (or, for the bounds named "min", falls below it)
BOUNDS = {
    "identities.residual": 1e-11,
    "uniqueness.min_separation": 1e-8,
    "uniqueness.endpoint": 1e-9,
    "uniqueness.norm_error": 1e-10,
    "uniqueness.rederivation": 1e-8,
    "minimality.certificate_gap": 1e-12,
    "minimality.chord_gap": 1e-4,
    "minimality.chord_identity": 1e-12,
    "minimality.eig_residual": 1e-12,
    "lifting.norm_gap": 1e-12,
    "lifting.fiber_norm_gap": 1e-12,
}


def _trial_identities(i: int, seed: int, tol: Tolerance) -> tuple[dict, float, bool]:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 17))
    p = random_projection(n, int(rng.integers(0, n + 1)), rng)
    q = random_projection(n, int(rng.integers(0, n + 1)), rng)
    residual = diff_sum(p, q).residual
    return {"n": n}, residual, residual <= BOUNDS["identities.residual"]


def _trial_existence(i: int, seed: int, tol: Tolerance) -> tuple[dict, float, bool]:
    # not the sampler's stream: default_rng(s), (s, 0) and (s, 0, 0) are one
    rng = np.random.default_rng((seed, 3, 1))
    p, q = random_quotient_pair(seed)
    d = p.shape[0]
    lifts = tuple(  # P's lift is drawn first
        BlockOperator(d, random_projection_blocks(rng, d, int(rng.integers(0, 3))), m)
        for m in (p, q)
    )
    result = existence_dichotomy(p, q, lifts=lifts, tol=tol)
    probe = result.witnesses if result.witnesses is not None else lifts
    oracle, final = classify_by_truncation(*probe, tol=tol)
    ok = oracle is result.case
    if ok and result.case is DichotomyCase.FINITE_FINITE:
        # surgery must leave the witnesses (the probe) with balanced truncated index
        ok = final.d_plus == final.d_minus
    index = list(result.quotient_index)
    fields = {"d": d, "index": index, "case": result.case.value, "oracle": oracle.value}
    return fields, 0.0 if ok else 1.0, ok


def _trial_uniqueness(i: int, seed: int, tol: Tolerance) -> tuple[dict, float, bool]:
    if i % 5 != 4:
        p, q = random_generic_pair(seed)
        check = unique_minimal_check(p, q, tol)
        residual = check.rederivation_error
        ok = check.unique and residual <= BOUNDS["uniqueness.rederivation"]
        return {"kind": "rederive", "n": p.shape[0]}, residual, ok
    (p, q), k = random_crossed_pair(seed)
    rng = np.random.default_rng((seed, 1))
    twists = [random_unitary(k, rng) for _ in range(8)]
    segments = multi_geodesic_family(p, q, twists, tol)
    exponents = np.array([s.exponent for s in segments])
    a, b = np.triu_indices(len(segments), 1)  # the pairs (a, b), a < b, row by row
    sep = op_norm(exponents[a] - exponents[b]).min()
    endpoint = op_norm(np.array([evaluate(s, 1.0) for s in segments]) - q).max()
    norm_err = np.abs(op_norm(exponents) - np.pi / 2).max()
    ok = (
        sep > BOUNDS["uniqueness.min_separation"]
        and endpoint <= BOUNDS["uniqueness.endpoint"]
        and norm_err <= BOUNDS["uniqueness.norm_error"]
    )
    fields = {"kind": "family", "n": p.shape[0], "k": k, "separation": float(sep)}
    return fields, max(endpoint, norm_err), ok


CHORD_GRID = 500  # pieces of a minimality trial's chordal length


def _trial_minimality(i: int, seed: int, tol: Tolerance) -> tuple[dict, float, bool]:
    # a certificate equal to |Z| proves the segment minimal, so its gap is the
    # residual; the chord sum's |Z|^3 / (6 grid^2) below |Z| is discretization
    fs = halmos_decompose(*random_equal_index_pair(seed), tol)
    seg = _segment(fs, None)
    norm_z, lower_bound = seg.norm, _lower_bound(fs)
    gap = abs(norm_z - lower_bound)
    chord = curve_length(seg, CHORD_GRID)
    # the chord sum of a segment with |Z| <= pi/2 is grid sin(|Z| / grid)
    chord_identity = abs(chord - CHORD_GRID * np.sin(norm_z / CHORD_GRID))
    ok = (
        gap <= BOUNDS["minimality.certificate_gap"]
        and abs(chord - norm_z) <= BOUNDS["minimality.chord_gap"]
        and chord_identity <= BOUNDS["minimality.chord_identity"]
        and seg.eig_residual <= BOUNDS["minimality.eig_residual"]
    )
    return {"n": fs.p.shape[0], "norm_Z": float(norm_z), "lower_bound": lower_bound}, gap, ok


def _block_geodesic_instance(seed: int, tol: Tolerance):
    """Quotient pair with balanced tail index, its exponent, a random lift.

    Attempt ``a`` draws the dims of ``random_quotient_pair((seed, a))`` and
    builds the pair only when its crossed dims agree: exactly the pairs
    ``quotient_geodesic`` joins, so it solves the one pair it keeps.
    """
    rng = np.random.default_rng((seed, 4, 1))  # off the attempts' (seed, a) streams
    for attempt in range(64):
        pair_rng = np.random.default_rng((seed, attempt))
        dims = _quotient_dims(pair_rng)
        if dims[2] == dims[3]:
            break
    else:
        raise RuntimeError("no balanced quotient pair found")
    p, q = _quotient_pair(pair_rng, dims)
    z = quotient_geodesic(p, q, tol).segment.exponent
    d = p.shape[0]
    lift_p = BlockOperator(d, random_projection_blocks(rng, d, int(rng.integers(1, 4))), p)
    return p, q, z, lift_p


def _fiber_norms(p: np.ndarray, z: np.ndarray, norm_z: float, rng) -> np.ndarray:
    """``lift_geodesic(p, z, lift).norm()`` of 10 lifts drawn from ``rng``: the largest
    of ``|z|`` and of the lift's block norms.  The lifts' block counts are drawn
    first, then every block's rank, every Gaussian, one QR and one masked product
    for all the blocks, so their norms are one stacked ``op_norm``.  ``p`` is
    never 0 or I here, so no Haar block is bitwise ``p`` and no lift absorbs one."""
    d = p.shape[0]
    counts = rng.integers(0, 4, 10).tolist()
    ranks = rng.integers(0, d + 1, sum(counts))
    u = _haar(rng.standard_normal((len(ranks), 2, d, d)))
    stack = _hermitize((u * (np.arange(d) < ranks[:, None, None])) @ _adjoint(u))
    norms = op_norm(blockmodel._compress(stack, z))
    starts = np.cumsum([0, *counts]).tolist()
    return np.array([norms[a:b].max(initial=norm_z) for a, b in zip(starts, starts[1:])])


def _trial_lifting(i: int, seed: int, tol: Tolerance) -> tuple[dict, float, bool]:
    p, q, z, lift_p = _block_geodesic_instance(seed, tol)
    norm_z = op_norm(z)
    big_z = lift_geodesic(p, z, lift_p)
    norm_gap = abs(big_z.norm() - norm_z)
    quotient_exact = np.array_equal(quotient(big_z), z)
    delta = blockmodel.evaluate_block_geodesic(lift_p, big_z)
    times = (0.25, 0.5, 1.0)
    small = evaluate(GeodesicSegment(base=p, exponent=z), times)
    tails_exact = all(
        np.array_equal(quotient(delta(t)), point) for t, point in zip(times, small)
    )
    # a non-zero third word keeps the fibers off the sampler's (seed,
    # attempt) streams; a trailing zero word would not change the stream
    fiber_rng = np.random.default_rng((seed, 2, 1))
    fiber_norms = _fiber_norms(p, z, norm_z, fiber_rng)
    fiber_ok = all(abs(fiber_norms - norm_z) <= BOUNDS["lifting.fiber_norm_gap"])
    exact = quotient_exact and tails_exact and fiber_ok
    ok = norm_gap <= BOUNDS["lifting.norm_gap"] and exact
    return {"d": p.shape[0], "norm_z": norm_z}, norm_gap if exact else 1.0, ok


def _trial_normlift(i: int, seed: int, tol: Tolerance) -> tuple[dict, float, bool]:
    rng = np.random.default_rng(seed)
    d = random_diagonal_sequence(rng)
    level = d.limsup_abs()
    achieved = (d + minimal_norm_lift(d)).sup_abs()
    fields = {"level": float(level), "achieved": float(achieved)}
    return fields, abs(achieved - level), achieved == level


SUITES = {
    "existence": _trial_existence,
    "uniqueness": _trial_uniqueness,
    "minimality": _trial_minimality,
    "lifting": _trial_lifting,
    "normlift": _trial_normlift,
    "identities": _trial_identities,
}


def run_suite(
    name: str,
    trials: int,
    seed: int,
    tol: Tolerance = Tolerance(),
) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    trial = SUITES[name]
    report = SuiteReport(name, trials)
    for i in range(trials):
        fields, residual, ok = trial(i, seed + i, tol)
        report.add({"trial": i, "seed": seed + i, **fields}, residual, ok)
    return report
