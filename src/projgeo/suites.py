"""Batch verification suites behind ``projgeo verify``.

A suite is a function of one trial, ``_trial_X(seed, tol)``: it draws its
instance from that trial's own ``seed`` alone and returns the record's fields
and its checks, ``{BOUNDS name: measured value}``.  ``run_suite`` is the one
loop and the one judge: trial ``i`` at base seed ``s`` runs at ``s + i`` and is
recorded as ``{"trial": i, "seed": s + i, **fields, "ok": ...}``, with the
names of its checks past their bounds as ``"failed"`` before ``"ok"``; so a
one-trial run at ``s + i`` gives that record again.  A trial that raises a
``ProjGeoError`` fails, with the error in place of its fields.  The report
keeps each check's worst value; the suite passes when no trial fails.
"""

from __future__ import annotations

import dataclasses
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
    minimal_exponent,
    multi_geodesic_family,
)
from .errors import ProjGeoError
from .numkernel import Tolerance, _adjoint, _hermitize, herm_eig, op_norm
from .projections import (
    IndexPair,
    _haar,
    _range_projection,
    diff_sum,
    halmos_decompose,
    pair_with_dims,
    random_projection,
)


@dataclasses.dataclass
class SuiteReport:
    suite: str
    trials: int
    failures: int = 0
    checks: dict[str, float | None] = dataclasses.field(default_factory=dict)  # name: worst
    records: list[dict] = dataclasses.field(default_factory=list)

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


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
    return _balanced_pair(rng, (0, 0, 0, 1, 1, 2)[rng.integers(0, 6)])


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
    a test pins this order, and at a lift's 0-3 blocks it beats ``_fiber_pool``'s batch."""
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

# acceptance bounds of the suites' checks: a value passes at or below its bound
# (above it, for a ".min_" bound); a yes/no check is a 0/1 mismatch, bound 0
BOUNDS = {
    "identities.residual": 1e-11,
    "existence.oracle": 0,
    "existence.witness_index": 0,
    "uniqueness.min_separation": 1e-8,
    "uniqueness.endpoint": 1e-9,
    "uniqueness.norm_error": 1e-10,
    "uniqueness.direct_rotation": 1e-11,
    "minimality.certificate_gap": 1e-12,
    "minimality.chord_gap": 1e-4,
    "minimality.chord_identity": 1e-12,
    "minimality.eig_residual": 1e-12,
    "lifting.norm_gap": 1e-12,
    "lifting.fiber_norm_gap": 1e-12,
    "lifting.quotient_exact": 0,
    "lifting.tails_exact": 0,
    "normlift.level_gap": 0.0,
}


def _trial_identities(seed: int, tol: Tolerance) -> tuple[dict, dict]:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 17))
    p = random_projection(n, int(rng.integers(0, n + 1)), rng)
    q = random_projection(n, int(rng.integers(0, n + 1)), rng)
    return {"n": n}, {"identities.residual": diff_sum(p, q).residual}


def _trial_existence(seed: int, tol: Tolerance) -> tuple[dict, dict]:
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
    index = list(result.quotient_index)
    fields = {"d": d, "index": index, "case": result.case.value, "oracle": oracle.value}
    return fields, {
        "existence.oracle": oracle is not result.case,
        # surgery must leave the witnesses (the probe) with balanced truncated index
        "existence.witness_index": result.case is DichotomyCase.FINITE_FINITE
        and final.d_plus != final.d_minus,
    }


def _direct_rotation(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Davis & Kahan's direct rotation from ``P`` to ``Q`` (SIAM J. Numer.
    Anal. 7, 1970), a closed form of the minimal exponent of an index-(0, 0)
    pair: ``g(A^2) [Q, P]`` with ``A = P - Q`` and ``g(sin^2 t) = 2t / sin 2t``,
    from one eigensolve.  ``sinc`` gives ``g(0) = 1`` without forming 0/0;
    ``A^2`` must have no eigenvalue 1 (a crossed part)."""
    a = p - q
    w, u = herm_eig(_hermitize(a @ a))
    g = 1 / np.sinc(2 / np.pi * np.arcsin(np.sqrt(np.clip(w, 0.0, 1.0))))
    return (u * g) @ _adjoint(u) @ (q @ p - p @ q)


def _trial_uniqueness(seed: int, tol: Tolerance) -> tuple[dict, dict]:
    if seed % 5 != 4:
        # the split's exponent against a closed form that shares none of its
        # steps: a wrong index moves it by at least pi/2 - arccos(0.12) here
        p, q = random_generic_pair(seed)
        error = op_norm(minimal_exponent(p, q, tol).exponent - _direct_rotation(p, q))
        return {"kind": "direct_rotation", "n": p.shape[0]}, {"uniqueness.direct_rotation": error}
    (p, q), k = random_crossed_pair(seed)
    rng = np.random.default_rng((seed, 1))
    segments = multi_geodesic_family(p, q, _haar(rng.standard_normal((8, 2, k, k))), tol)
    exponents = np.array([s.exponent for s in segments])
    a, b = np.triu_indices(len(segments), 1)  # the pairs (a, b), a < b, row by row
    sep = op_norm(exponents[a] - exponents[b]).min()
    fields = {"kind": "family", "n": p.shape[0], "k": k, "separation": float(sep)}
    return fields, {
        "uniqueness.min_separation": sep,
        "uniqueness.endpoint": op_norm(np.array([evaluate(s, 1.0) for s in segments]) - q).max(),
        "uniqueness.norm_error": np.abs(op_norm(exponents) - np.pi / 2).max(),
    }


CHORD_GRID = 500  # pieces of a minimality trial's chordal length


def _trial_minimality(seed: int, tol: Tolerance) -> tuple[dict, dict]:
    # a certificate equal to |Z| proves the segment minimal; the chord sum's
    # |Z|^3 / (6 grid^2) below |Z| is discretization
    fs = halmos_decompose(*random_equal_index_pair(seed), tol)
    seg = _segment(fs, None)
    norm_z, lower_bound = seg.norm, _lower_bound(fs)
    chord = curve_length(seg, CHORD_GRID)
    return {"n": fs.p.shape[0], "norm_Z": float(norm_z), "lower_bound": lower_bound}, {
        "minimality.certificate_gap": abs(norm_z - lower_bound),
        "minimality.chord_gap": abs(chord - norm_z),
        # the chord sum of a segment with |Z| <= pi/2 is grid sin(|Z| / grid)
        "minimality.chord_identity": abs(chord - CHORD_GRID * np.sin(norm_z / CHORD_GRID)),
        "minimality.eig_residual": seg.eig_residual,
    }


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


def _fiber_pool(p: np.ndarray, z: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """The exceptional blocks of ``lift_geodesic(p, z, lift)`` for 10 lifts drawn
    from ``rng``, pooled in one stack, and the 10 lifts' block counts.  The counts
    are drawn first, then every block's rank, every Gaussian, one QR and one
    masked product for all the blocks, compressed as one stack.  ``p`` is never 0
    or I here, so no Haar block is bitwise ``p`` and no lift absorbs one."""
    d = p.shape[0]
    counts = rng.integers(0, 4, 10)
    ranks = rng.integers(0, d + 1, counts.sum())
    u = _haar(rng.standard_normal((len(ranks), 2, d, d)))
    stack = _hermitize((u * (np.arange(d) < ranks[:, None, None])) @ _adjoint(u))
    return blockmodel._compress(stack, z), counts


def _trial_lifting(seed: int, tol: Tolerance) -> tuple[dict, dict]:
    p, q, z, lift_p = _block_geodesic_instance(seed, tol)
    big_z = lift_geodesic(p, z, lift_p)
    times = (0.25, 0.5, 1.0)
    points = blockmodel.evaluate_block_geodesic(lift_p, big_z)(times)
    small = evaluate(GeodesicSegment(base=p, exponent=z), times)
    # a non-zero third word keeps the fibers off the sampler's (seed,
    # attempt) streams; a trailing zero word would not change the stream
    pool, counts = _fiber_pool(p, z, np.random.default_rng((seed, 2, 1)))
    # one SVD: the lift's blocks (its tail holds z's bits), then the fibers' pool
    norms = op_norm(np.concatenate([big_z.blocks, pool]))
    k = len(big_z.blocks)
    norm_z = float(norms[k - 1])
    fiber_norms = np.full(len(counts), norm_z)
    np.maximum.at(fiber_norms, np.repeat(np.arange(len(counts)), counts), norms[k:])
    return {"d": p.shape[0], "norm_z": norm_z}, {
        "lifting.norm_gap": abs(norms[:k].max() - norm_z),
        "lifting.fiber_norm_gap": np.abs(fiber_norms - norm_z).max(),
        "lifting.quotient_exact": not np.array_equal(quotient(big_z), z),
        "lifting.tails_exact": not np.array_equal([quotient(point) for point in points], small),
    }


def _trial_normlift(seed: int, tol: Tolerance) -> tuple[dict, dict]:
    rng = np.random.default_rng(seed)
    d = random_diagonal_sequence(rng)
    level = d.limsup_abs()
    achieved = (d + minimal_norm_lift(d)).sup_abs()
    fields = {"level": float(level), "achieved": float(achieved)}
    return fields, {"normlift.level_gap": abs(achieved - level)}


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
    measured: dict[str, list] = {}
    for i in range(trials):
        try:
            fields, checks = trial(seed + i, tol)
        except ProjGeoError as exc:  # a library fault fails its trial, not the run
            fields, checks = {"error": f"{type(exc).__name__}: {exc}"}, {}
        record = {"trial": i, "seed": seed + i, **fields}
        # the one comparison of a value with its bound; a NaN passes neither
        failed = [check for check, value in checks.items()
                  if not (value > BOUNDS[check] if ".min_" in check else value <= BOUNDS[check])]
        if failed:
            record["failed"] = failed
        record["ok"] = not failed and "error" not in fields
        report.failures += not record["ok"]
        report.records.append(record)
        for check, value in checks.items():
            measured.setdefault(check, []).append(value)
    # null if any value is no finite number: max and min keep a NaN only when it comes first
    report.checks = {check: float((min if ".min_" in check else max)(measured[check]))
                     if all(abs(v) < np.inf for v in measured[check]) else None
                     for check in BOUNDS if check in measured}
    return report
