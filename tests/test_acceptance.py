"""Acceptance battery: one test per criterion, each printing a pass/fail
line with its measured worst-case numbers.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np

from projgeo.blockmodel import (
    BlockOperator,
    DiagonalSequence,
    DichotomyCase,
    evaluate_block_geodesic,
    existence_dichotomy,
    lift_geodesic,
    minimal_norm_lift,
    quotient,
    truncated_index_pairs,
)
from projgeo.geodesics import (
    GeodesicSegment,
    codiagonal_residual,
    curve_length,
    evaluate,
    minimal_exponent,
    minimal_geodesic,
    multi_geodesic_family,
)
from projgeo.numkernel import Tolerance, op_norm
from projgeo.projections import (
    diff_sum,
    make_projection,
    random_projection,
    random_unitary,
)
from projgeo.suites import (
    BOUNDS,
    _direct_rotation,
    classify_by_truncation,
    random_crossed_pair,
    random_equal_index_pair,
    random_generic_pair,
    random_projection_blocks,
    random_quotient_pair,
    _block_geodesic_instance,
)
from reference_pipeline import minimality_competitors


def report(number, label, ok, details):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} -- {details}")
    assert ok, f"criterion {number} failed: {details}"


def test_criterion_1_endpoint_exponent_suite():
    start = time.perf_counter()
    worst_endpoint = worst_norm = worst_codiag = 0.0
    for trial in range(500):
        p, q = random_equal_index_pair(trial)
        seg = minimal_exponent(p, q)
        worst_endpoint = max(worst_endpoint, op_norm(evaluate(seg, 1.0) - q))
        worst_norm = max(worst_norm, op_norm(seg.exponent))
        worst_codiag = max(worst_codiag, codiagonal_residual(p, seg.exponent))
    elapsed = time.perf_counter() - start
    ok = (
        worst_endpoint <= 1e-9
        and worst_norm <= np.pi / 2 + 1e-12
        and worst_codiag <= 1e-9
        and elapsed <= 30.0
    )
    report(
        1,
        "endpoint/exponent, 500 pairs",
        ok,
        f"endpoint {worst_endpoint:.2e}, |Z|-pi/2 {worst_norm - np.pi / 2:.2e}, "
        f"codiag {worst_codiag:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_closed_form_oracle():
    worst_norm = worst_point = 0.0
    for theta in (np.pi / 6, np.pi / 4, np.pi / 3):
        c, s = np.cos(theta), np.sin(theta)
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)
        seg = minimal_exponent(p, q)
        worst_norm = max(worst_norm, abs(op_norm(seg.exponent) - theta))
        for t in np.linspace(0.0, 1.0, 11):
            ct, st = np.cos(t * theta), np.sin(t * theta)
            closed_form = np.array(
                [[ct * ct, ct * st], [ct * st, st * st]], dtype=complex
            )
            worst_point = max(worst_point, op_norm(evaluate(seg, float(t)) - closed_form))
    ok = worst_norm <= 1e-10 and worst_point <= 1e-10
    report(
        2,
        "2x2 rotation closed form",
        ok,
        f"norm gap {worst_norm:.2e}, point gap {worst_point:.2e}",
    )


def test_criterion_3_minimality():
    start = time.perf_counter()
    worst_shortfall = worst_chord = worst_gap = 0.0
    for trial in range(100):
        p, q = random_equal_index_pair(trial + 10_000)
        seg, geodesic_report = minimal_geodesic(p, q, samples=2)
        norm_z = op_norm(seg.exponent)
        lengths = minimality_competitors(p, q, 100, seed=trial * 7919)
        worst_shortfall = max(worst_shortfall, norm_z - min(lengths))
        # no curve from P to Q is shorter than the certificate's lower bound
        worst_gap = max(worst_gap, abs(norm_z - geodesic_report["lower_bound"]))
        chord = curve_length(seg, 2000)
        worst_chord = max(worst_chord, abs(chord - norm_z))
    elapsed = time.perf_counter() - start
    ok = (worst_shortfall <= 1e-6 and worst_gap <= 1e-12 and worst_chord <= 1e-4
          and elapsed <= 120.0)
    report(
        3,
        "minimality, 100x100 competitors and the certificate",
        ok,
        f"worst shortfall {worst_shortfall:.2e}, certificate gap {worst_gap:.2e}, "
        f"chord gap {worst_chord:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_existence_dichotomy():
    tol = Tolerance()
    agreements = 0
    for trial in range(200):
        rng = np.random.default_rng((20_000, trial, 1))
        p, q = random_quotient_pair((20_000, trial))
        d = p.shape[0]
        lifts = (
            BlockOperator(d, random_projection_blocks(rng, d, int(rng.integers(0, 3))), p),
            BlockOperator(d, random_projection_blocks(rng, d, int(rng.integers(0, 3))), q),
        )
        result = existence_dichotomy(p, q, lifts=lifts, tol=tol)
        probe = result.witnesses if result.witnesses is not None else lifts
        oracle = classify_by_truncation(*probe, tol=tol).case
        agree = oracle is result.case
        if agree and result.case is DichotomyCase.FINITE_FINITE:
            final = truncated_index_pairs(*result.witnesses, [12], tol)[0]
            agree = final.d_plus == final.d_minus
        agreements += int(agree)
    ok = agreements == 200
    report(4, "existence dichotomy vs truncation oracle", ok, f"{agreements}/200 agree")


def uniqueness_residuals() -> tuple[list[float], list[float]]:
    """For each of criterion 5's 200 index-(0, 0) pairs, the gap between its
    exponent and the one re-derived from a conjugated copy of the pair, and
    its distance to the direct rotation, a closed form that reads the pair
    alone: a fault in the split moves both exponents of the first alike, but
    not the second."""
    rederive, direct = [], []
    for trial in range(200):
        p, q = random_generic_pair((30_000, trial))
        n = p.shape[0]
        seg = minimal_exponent(p, q)
        u = random_unitary(n, (30_001, trial))
        pc = make_projection((u.conj().T @ p @ u + (u.conj().T @ p @ u).conj().T) / 2)
        qc = make_projection((u.conj().T @ q @ u + (u.conj().T @ q @ u).conj().T) / 2)
        recovered = u @ minimal_exponent(pc, qc).exponent @ u.conj().T
        rederive.append(op_norm(recovered - seg.exponent))
        direct.append(op_norm(seg.exponent - _direct_rotation(p, q)))
    return rederive, direct


def test_criterion_5_uniqueness():
    rederive, direct = uniqueness_residuals()
    worst_rederive, worst_direct = max(rederive), max(direct)

    worst_sep = np.inf
    worst_endpoint = worst_norm = 0.0
    for trial in range(50):
        (p, q), k = random_crossed_pair((31_000, trial))
        rng = np.random.default_rng((31_001, trial))
        twists = [random_unitary(k, rng) for _ in range(8)]
        family = multi_geodesic_family(p, q, twists)
        assert len(family) == 8
        for i, a in enumerate(family):
            worst_endpoint = max(worst_endpoint, op_norm(evaluate(a, 1.0) - q))
            worst_norm = max(worst_norm, abs(op_norm(a.exponent) - np.pi / 2))
            for b in family[i + 1:]:
                worst_sep = min(worst_sep, op_norm(a.exponent - b.exponent))
    ok = (
        worst_rederive <= 1e-8
        and worst_direct <= BOUNDS["uniqueness.direct_rotation"]
        and worst_sep > 1e-8
        and worst_endpoint <= 1e-9
        and worst_norm <= 1e-10
    )
    report(
        5,
        "uniqueness + multi-geodesic families",
        ok,
        f"rederive {worst_rederive:.2e}, direct rotation {worst_direct:.2e}, "
        f"min separation {worst_sep:.2e}, "
        f"endpoint {worst_endpoint:.2e}, norm gap {worst_norm:.2e}",
    )


def test_criterion_6_lifting_suite():
    tol = Tolerance()
    worst_norm = 0.0
    tails_exact = True
    fibers_ok = True
    for trial in range(100):
        p, q, z, lift_p = _block_geodesic_instance(40_000 + trial, tol)
        d = p.shape[0]
        big = lift_geodesic(p, z, lift_p)
        worst_norm = max(worst_norm, abs(big.norm() - op_norm(z)))
        curve = evaluate_block_geodesic(lift_p, big)
        small = GeodesicSegment(base=p, exponent=z)
        for t in (0.25, 0.5, 1.0):
            tails_exact = tails_exact and np.array_equal(
                quotient(curve(t)), evaluate(small, t)
            )
        rng = np.random.default_rng((40_001, trial))
        for _ in range(10):
            fiber = BlockOperator(
                d, random_projection_blocks(rng, d, int(rng.integers(0, 4))), p
            )
            lifted = lift_geodesic(p, z, fiber)
            fibers_ok = fibers_ok and abs(lifted.norm() - op_norm(z)) <= 1e-12
    ok = worst_norm <= 1e-12 and tails_exact and fibers_ok
    report(
        6,
        "geodesic lifting, 100 instances",
        ok,
        f"norm gap {worst_norm:.2e}, tails exact {tails_exact}, "
        f"fiber freedom {fibers_ok}",
    )


def test_criterion_7_norm_minimal_lift():
    all_exact = True
    worst_margin = 0.0
    for trial in range(500):
        rng = np.random.default_rng(50_000 + trial)
        prefix = tuple(float(x) for x in rng.uniform(-10, 10, rng.integers(0, 9)))
        cycle = tuple(float(x) for x in rng.uniform(-5, 5, rng.integers(1, 7)))
        d = DiagonalSequence(prefix, cycle)
        k0 = minimal_norm_lift(d)
        level = d.limsup_abs()
        all_exact = all_exact and (d + k0).sup_abs() == level
        for _ in range(100):
            comp = DiagonalSequence(
                tuple(float(x) for x in rng.uniform(-20, 20, rng.integers(0, 11))),
                (0.0,),
            )
            worst_margin = min(worst_margin, (d + comp).sup_abs() - level)
    ok = all_exact and worst_margin >= -1e-15
    report(
        7,
        "norm-minimal lift, 500 sequences",
        ok,
        f"sup equality exact {all_exact}, worst competitor margin {worst_margin:.2e}",
    )


def test_criterion_8_algebraic_identities():
    worst = 0.0
    for trial in range(1000):
        rng = np.random.default_rng(60_000 + trial)
        n = int(rng.integers(2, 17))
        p = random_projection(n, int(rng.integers(0, n + 1)), rng)
        q = random_projection(n, int(rng.integers(0, n + 1)), rng)
        ds = diff_sum(p, q)
        eye = np.eye(n)
        r1 = op_norm(ds.a @ ds.a + ds.b @ ds.b - 2 * ds.b)
        r2 = op_norm((ds.b - eye) @ (ds.b - eye) - (eye - ds.a) @ (eye + ds.a))
        worst = max(worst, r1, r2)
    ok = worst <= 1e-11
    report(8, "pair identities, 1000 pairs", ok, f"worst residual {worst:.2e}")


def test_criterion_9_quotient_homomorphism():
    worst = 0.0
    norm_ok = True
    for trial in range(500):
        rng = np.random.default_rng(70_000 + trial)
        d = int(rng.integers(1, 5))

        def block():
            return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

        a = BlockOperator(d, tuple(block() for _ in range(rng.integers(0, 4))), block())
        b = BlockOperator(d, tuple(block() for _ in range(rng.integers(0, 4))), block())
        worst = max(worst, op_norm(quotient(a * b) - quotient(a) @ quotient(b)))
        worst = max(worst, op_norm(quotient(a.adjoint()) - quotient(a).conj().T))
        norm_ok = norm_ok and op_norm(quotient(a)) <= a.norm()
    ok = worst <= 1e-13 and norm_ok
    report(
        9,
        "quotient homomorphism, 500 pairs",
        ok,
        f"worst residual {worst:.2e}, norm domination {norm_ok}",
    )
