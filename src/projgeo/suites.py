"""Batch verification suites behind ``projgeo verify``.

Each suite draws deterministic instances (per-trial seed = base seed +
trial index), checks one family of properties, and reports per-trial
records plus the worst residual.  A trial fails when its residual exceeds
the suite tolerance; the suite passes when no trial fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .errors import NoGeodesic, NotPeriodic
from .geodesics import (
    GeodesicSegment,
    _competitor_lengths,
    curve_length,
    evaluate,
    minimal_exponent,
    multi_geodesic_family,
    unique_minimal_check,
)
from .numkernel import Tolerance, default_tolerance, op_norm
from .projections import (
    diff_sum,
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


def _balanced_dims(rng, n_max: int = 16, crossed: int | None = None):
    """Five-space dimensions with equal crossed parts, total <= n_max."""
    if crossed is None:
        crossed = int(rng.choice([0, 0, 0, 1, 1, 2]))
    d11 = int(rng.integers(0, 3))
    d00 = int(rng.integers(0, 3))
    generic = int(rng.integers(1, 4))
    while d11 + d00 + 2 * crossed + 2 * generic > n_max:
        if generic > 1:
            generic -= 1
        elif d11 + d00 > 0:
            d11 = max(0, d11 - 1)
            d00 = max(0, d00 - 1)
        else:
            crossed -= 1
    return d11, d00, crossed, crossed, generic


def random_equal_index_pair(seed, n_max: int = 16):
    """Projection pair with equal index, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    d11, d00, k, _, g = _balanced_dims(rng, n_max)
    angles = rng.uniform(0.15, np.pi / 2 - 0.15, g)
    return pair_with_dims(d11, d00, k, k, 2 * g, angles, seed=rng)


def random_generic_pair(seed, n_max: int = 16, min_sigma: float | None = None):
    """Index-(0,0) pair; optionally with ``smin(P + Q - 1) >= min_sigma``."""
    rng = np.random.default_rng(seed)
    # smin(P + Q - 1) is the cosine of the largest angle, here at least
    # min_sigma + 0.02
    hi = np.arccos(min_sigma + 0.02) if min_sigma else np.pi / 2 - 0.15
    d11, d00, _, _, g = _balanced_dims(rng, n_max, crossed=0)
    angles = rng.uniform(0.15, hi, g)
    return pair_with_dims(d11, d00, 0, 0, 2 * g, angles, seed=rng)


def random_crossed_pair(seed, k: int | None = None, n_max: int = 16):
    """Pair with index (k, k), k >= 1."""
    rng = np.random.default_rng(seed)
    if k is None:
        k = int(rng.integers(1, 3))
    d11, d00, _, _, g = _balanced_dims(rng, n_max - 2 * k, crossed=0)
    angles = rng.uniform(0.15, np.pi / 2 - 0.15, g)
    return pair_with_dims(d11, d00, k, k, 2 * g, angles, seed=rng), k


def random_quotient_pair(seed, d_max: int = 6):
    """Quotient pair of block dimension <= d_max with an assorted case mix."""
    rng = np.random.default_rng(seed)
    kind = rng.random()
    if kind < 0.4:
        which = "finite"
        d10 = d01 = 0
        g = int(rng.integers(1, (d_max - 1) // 2 + 1))
        d11 = int(rng.integers(0, d_max - 2 * g + 1))
        d00 = int(rng.integers(0, d_max - 2 * g - d11 + 1))
    elif kind < 0.75:
        which = "infinite"
        d10 = int(rng.integers(1, 3))
        d01 = int(rng.integers(1, 3))
        room = d_max - d10 - d01
        g = int(rng.integers(0, room // 2 + 1))
        d11 = int(rng.integers(0, room - 2 * g + 1))
        d00 = 0
    else:
        which = "mixed"
        d10 = int(rng.integers(1, 3))
        d01 = 0
        if rng.random() < 0.5:
            d10, d01 = d01, d10
        room = d_max - d10 - d01
        g = int(rng.integers(0, room // 2 + 1))
        d11 = int(rng.integers(0, room - 2 * g + 1))
        d00 = 0
    angles = rng.uniform(0.2, np.pi / 2 - 0.2, g)
    p, q = pair_with_dims(d11, d00, d10, d01, 2 * g, angles, seed=rng)
    return p, q, which


def random_projection_blocks(rng, d: int, count: int) -> tuple[np.ndarray, ...]:
    blocks = []
    for _ in range(count):
        rank = int(rng.integers(0, d + 1))
        blocks.append(random_projection(d, rank, rng))
    return tuple(blocks)


def random_diagonal_sequence(rng) -> DiagonalSequence:
    prefix_len = int(rng.integers(0, 9))
    cycle_len = int(rng.integers(1, 7))
    prefix = tuple(float(x) for x in rng.uniform(-10.0, 10.0, prefix_len))
    cycle = tuple(float(x) for x in rng.uniform(-5.0, 5.0, cycle_len))
    return DiagonalSequence(prefix, cycle)


# -- truncation oracle (existence suite) ----------------------------------------


def classify_by_truncation(
    lift_p: BlockOperator,
    lift_q: BlockOperator,
    max_blocks: int = 12,
    tol: Tolerance | None = None,
) -> DichotomyCase | None:
    """Brute-force classification from truncated index pairs, summed
    exactly from per-block nullities by ``truncated_index_pairs``.

    Truncated crossed nullities grow by a constant integer per added tail
    block once the exceptional region is passed: growth on both sides
    means both nullspaces are infinite-dimensional, growth on neither
    means both stay finite, anything else is mixed.  Returns ``None`` if
    the increments have not stabilized by ``max_blocks``.
    """
    start = max(len(lift_p.exceptional), len(lift_q.exceptional)) + 1
    start = min(start, max_blocks - 3)
    lengths = list(range(start, max_blocks + 1))
    pairs = truncated_index_pairs(lift_p, lift_q, lengths, tol)
    inc_plus = {b.d_plus - a.d_plus for a, b in zip(pairs, pairs[1:])}
    inc_minus = {b.d_minus - a.d_minus for a, b in zip(pairs, pairs[1:])}
    if len(inc_plus) != 1 or len(inc_minus) != 1:
        return None
    grow_plus = inc_plus.pop() > 0
    grow_minus = inc_minus.pop() > 0
    if not grow_plus and not grow_minus:
        return DichotomyCase.FINITE_FINITE
    if grow_plus and grow_minus:
        return DichotomyCase.INFINITE_INFINITE
    return DichotomyCase.MIXED


# -- suites ---------------------------------------------------------------------

# acceptance bounds of the suites' trials: a trial fails when a residual
# exceeds its bound (or, for the bounds named "min", falls below it)
BOUNDS = {
    "identities.residual": 1e-11,
    "uniqueness.min_separation": 1e-8,
    "uniqueness.endpoint": 1e-9,
    "uniqueness.norm_error": 1e-10,
    "uniqueness.rederivation": 1e-8,
    "minimality.shortfall": 1e-6,
    "minimality.chord_gap": 1e-4,
    "minimality.chord_identity": 1e-12,
    "lifting.norm_gap": 1e-12,
    "lifting.fiber_norm_gap": 1e-12,
    "normlift.min_margin": -1e-15,
}


def _suite_identities(trials: int, seed: int, tol: Tolerance) -> SuiteReport:
    report = SuiteReport("identities", trials)
    for i in range(trials):
        rng = np.random.default_rng(seed + i)
        n = int(rng.integers(2, 17))
        p = random_projection(n, int(rng.integers(0, n + 1)), rng)
        q = random_projection(n, int(rng.integers(0, n + 1)), rng)
        residual = diff_sum(p, q).residual
        report.add(
            {"trial": i, "seed": seed + i, "n": n},
            residual,
            residual <= BOUNDS["identities.residual"],
        )
    return report


def _suite_existence(trials: int, seed: int, tol: Tolerance) -> SuiteReport:
    report = SuiteReport("existence", trials)
    for i in range(trials):
        rng = np.random.default_rng(seed + i)
        p, q, _ = random_quotient_pair(seed + i)
        d = p.shape[0]
        lifts = (
            BlockOperator(d, random_projection_blocks(rng, d, int(rng.integers(0, 3))), p),
            BlockOperator(d, random_projection_blocks(rng, d, int(rng.integers(0, 3))), q),
        )
        result = existence_dichotomy(p, q, lifts=lifts, tol=tol)
        probe = result.witnesses if result.witnesses is not None else lifts
        oracle = classify_by_truncation(*probe, tol=tol)
        ok = oracle is result.case
        if ok and result.case is DichotomyCase.FINITE_FINITE:
            # surgery must leave the witnesses with balanced truncated index
            final = truncated_index_pairs(*result.witnesses, [12], tol)[0]
            ok = final.d_plus == final.d_minus
        report.add(
            {
                "trial": i,
                "seed": seed + i,
                "d": d,
                "index": [result.quotient_index.d_plus, result.quotient_index.d_minus],
                "case": result.case.value,
                "oracle": oracle.value if oracle is not None else "unstable",
            },
            0.0 if ok else 1.0,
            ok,
        )
    return report


def _suite_uniqueness(trials: int, seed: int, tol: Tolerance) -> SuiteReport:
    report = SuiteReport("uniqueness", trials)
    for i in range(trials):
        record = {"trial": i, "seed": seed + i}
        if i % 5 == 4:
            (p, q), k = random_crossed_pair(seed + i)
            rng = np.random.default_rng((seed + i, 1))
            twists = [random_unitary(k, rng) for _ in range(8)]
            segments = multi_geodesic_family(p, q, twists, tol)
            sep = min(
                op_norm(a.exponent - b.exponent)
                for ii, a in enumerate(segments)
                for b in segments[ii + 1:]
            )
            endpoint = max(op_norm(evaluate(s, 1.0) - q) for s in segments)
            norm_err = max(abs(op_norm(s.exponent) - np.pi / 2) for s in segments)
            ok = (
                sep > BOUNDS["uniqueness.min_separation"]
                and endpoint <= BOUNDS["uniqueness.endpoint"]
                and norm_err <= BOUNDS["uniqueness.norm_error"]
            )
            record.update(
                {"kind": "family", "n": p.shape[0], "k": k, "separation": float(sep)}
            )
            report.add(record, max(endpoint, norm_err), ok)
        else:
            p, q = random_generic_pair(seed + i, min_sigma=0.1)
            check = unique_minimal_check(p, q, tol)
            residual = check.rederivation_error
            record.update({"kind": "rederive", "n": p.shape[0]})
            ok = check.unique and residual <= BOUNDS["uniqueness.rederivation"]
            report.add(record, residual, ok)
    return report


def _suite_minimality(
    trials: int,
    seed: int,
    tol: Tolerance,
    competitors: int = 10,
    grid: int = 500,
) -> SuiteReport:
    report = SuiteReport("minimality", trials)
    for i in range(trials):
        p, q = random_equal_index_pair(seed + i)
        seg = minimal_exponent(p, q, tol=tol)  # validates the pair
        norm_z = op_norm(seg.exponent)
        lengths = _competitor_lengths(p, q, competitors, (seed + i) * 1000)
        shortfall = max(0.0, norm_z - min(lengths)) if lengths else 0.0
        chord = curve_length(seg, grid)
        chord_gap = abs(chord - norm_z)
        # the chord sum of a segment with |Z| <= pi/2 is grid sin(|Z| / grid)
        chord_identity = abs(chord - grid * np.sin(norm_z / grid))
        ok = (
            shortfall <= BOUNDS["minimality.shortfall"]
            and chord_gap <= BOUNDS["minimality.chord_gap"]
            and chord_identity <= BOUNDS["minimality.chord_identity"]
        )
        report.add(
            {
                "trial": i,
                "seed": seed + i,
                "n": p.shape[0],
                "norm_Z": float(norm_z),
                "min_competitor": float(min(lengths)) if lengths else None,
            },
            max(shortfall, chord_gap),
            ok,
        )
    return report


def _block_geodesic_instance(seed: int, tol: Tolerance):
    """Quotient pair with balanced tail index, its exponent, a random lift."""
    rng = np.random.default_rng(seed)
    for attempt in range(64):
        p, q, _ = random_quotient_pair((seed, attempt))
        try:
            z = quotient_geodesic(p, q, tol).segment.exponent
        except (NoGeodesic, NotPeriodic):
            continue
        break
    else:
        raise RuntimeError("no balanced quotient pair found")
    d = p.shape[0]
    lift_p = BlockOperator(d, random_projection_blocks(rng, d, int(rng.integers(1, 4))), p)
    return p, q, z, lift_p


def _suite_lifting(trials: int, seed: int, tol: Tolerance) -> SuiteReport:
    report = SuiteReport("lifting", trials)
    for i in range(trials):
        p, q, z, lift_p = _block_geodesic_instance(seed + i, tol)
        d = p.shape[0]
        norm_z = op_norm(z)
        big_z = lift_geodesic(p, z, lift_p)
        norm_gap = abs(big_z.norm() - norm_z)
        quotient_exact = np.array_equal(quotient(big_z), z)
        delta = blockmodel.evaluate_block_geodesic(lift_p, big_z)
        small = GeodesicSegment(base=p, exponent=z)
        tails_exact = all(
            np.array_equal(quotient(delta(t)), evaluate(small, t))
            for t in (0.25, 0.5, 1.0)
        )
        rng = np.random.default_rng((seed + i, 2))
        fiber_ok = True
        for _ in range(10):
            other = BlockOperator(
                d, random_projection_blocks(rng, d, int(rng.integers(0, 4))), p
            )
            lifted = lift_geodesic(p, z, other)
            fiber_gap = abs(lifted.norm() - norm_z)
            fiber_ok = fiber_ok and fiber_gap <= BOUNDS["lifting.fiber_norm_gap"]
        ok = (
            norm_gap <= BOUNDS["lifting.norm_gap"]
            and quotient_exact
            and tails_exact
            and fiber_ok
        )
        report.add(
            {"trial": i, "seed": seed + i, "d": d, "norm_z": norm_z},
            norm_gap if (quotient_exact and tails_exact and fiber_ok) else 1.0,
            ok,
        )
    return report


def _suite_normlift(trials: int, seed: int, tol: Tolerance) -> SuiteReport:
    report = SuiteReport("normlift", trials)
    for i in range(trials):
        rng = np.random.default_rng(seed + i)
        d = random_diagonal_sequence(rng)
        k0 = minimal_norm_lift(d)
        level = d.limsup_abs()
        achieved = (d + k0).sup_abs()
        exact = achieved == level
        margin = 0.0
        for _ in range(100):
            comp_len = int(rng.integers(0, 11))
            comp = DiagonalSequence(
                tuple(float(x) for x in rng.uniform(-20.0, 20.0, comp_len)),
                (0.0,),
            )
            margin = min(margin, (d + comp).sup_abs() - level)
        ok = exact and margin >= BOUNDS["normlift.min_margin"]
        report.add(
            {
                "trial": i,
                "seed": seed + i,
                "level": float(level),
                "achieved": float(achieved),
            },
            abs(achieved - level) + max(0.0, -margin),
            ok,
        )
    return report


SUITES = {
    "existence": _suite_existence,
    "uniqueness": _suite_uniqueness,
    "minimality": _suite_minimality,
    "lifting": _suite_lifting,
    "normlift": _suite_normlift,
    "identities": _suite_identities,
}


def run_suite(
    name: str,
    trials: int,
    seed: int,
    tol: Tolerance | None = None,
) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    tol = tol or default_tolerance()
    return SUITES[name](trials, seed, tol)
