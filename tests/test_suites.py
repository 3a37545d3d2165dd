import ast
import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projgeo import blockmodel, geodesics, projections, suites
from projgeo.blockmodel import (
    BlockOperator,
    DiagonalSequence,
    existence_dichotomy,
    lift_geodesic,
    quotient_geodesic,
    truncated_index_pairs,
)
from projgeo.errors import NoGeodesic, NotPeriodic
from projgeo.numkernel import Tolerance, op_norm
from projgeo.suites import (
    TRUNCATION_BLOCKS,
    classify_by_truncation,
    random_crossed_pair,
    random_equal_index_pair,
    random_generic_pair,
    random_projection_blocks,
    random_quotient_pair,
)
import reference_pipeline
from reference_pipeline import (
    reference_block_geodesic_instance,
    reference_projection_blocks,
    reference_quotient_dims,
)


def test_generic_pair_gap_holds_at_first_draw():
    # the angles stay below arccos(0.12), so the gap of P + Q - 1 clears
    # 0.1 + 0.02 without a rejection loop
    for seed in range(200):
        p, q = random_generic_pair(seed)
        gap = np.linalg.svd(p + q - np.eye(p.shape[0]), compute_uv=False)[-1]
        assert gap >= 0.1 + 0.02 - 1e-12


def test_balanced_samplers_draw_at_most_fourteen_dims():
    # d11, d00 <= 2, crossed <= 2 and generic <= 3 planes: no draw can
    # exceed 14, so the samplers need no bound to shrink their dims to
    for seed in range(1000):
        sizes = [random_equal_index_pair(seed)[0].shape[0],
                 random_generic_pair(seed)[0].shape[0]]
        (p, _), k = random_crossed_pair(seed)
        assert k in (1, 2)
        assert max(sizes + [p.shape[0]]) <= 14


@pytest.mark.parametrize(
    "name", ["random_equal_index_pair", "random_generic_pair", "random_crossed_pair"]
)
def test_balanced_samplers_match_the_reference_draws(monkeypatch, name):
    # a sampler given a Generator draws from it, so both streams can be
    # compared after the draw
    dims = {}
    for module in (suites, reference_pipeline):
        def record(*args, _module=module, _real=module.pair_with_dims, **kwargs):
            dims.setdefault(_module, []).append(args[:5])
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "pair_with_dims", record)
    sampler = getattr(suites, name)
    reference = getattr(reference_pipeline, f"reference_{name}")
    for seed in range(1000):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draw, reference_draw = sampler(rng), reference(reference_rng)
        if name == "random_crossed_pair":
            (draw, k), (reference_draw, reference_k) = draw, reference_draw
            assert k == reference_k
        assert all(map(_same_bits, draw, reference_draw))
        assert rng.random() == reference_rng.random()
    assert dims[suites] == dims[reference_pipeline]
    assert len(dims[suites]) == 1000


def test_quotient_samplers_match_the_reference_draws():
    kinds = set()
    for seed in range(1000):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        kind, dims = reference_quotient_dims(reference_rng)
        assert suites._quotient_dims(rng) == dims
        assert rng.random() == reference_rng.random()
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        pair = random_quotient_pair(rng)
        _, dims = reference_quotient_dims(reference_rng)
        assert all(map(_same_bits, pair, suites._quotient_pair(reference_rng, dims)))
        assert rng.random() == reference_rng.random()
        kinds.add(kind)
    assert kinds == {"finite", "infinite", "mixed"}


def test_minimality_fails_a_chord_off_the_sine_identity(monkeypatch):
    # a chord sum 1e-11 off grid sin(|Z| / grid) is well inside chord_gap,
    # so only the chord-identity check can fail the trial
    true_length = suites.curve_length
    monkeypatch.setattr(
        suites, "curve_length", lambda seg, grid: true_length(seg, grid) + 1e-11
    )
    report = suites.run_suite("minimality", 1, seed=123)
    assert report.failures == 1
    assert report.worst_residual <= suites.BOUNDS["minimality.chord_gap"]


def test_minimality_fails_an_exponent_off_its_eigenpairs(monkeypatch):
    # Z moved by 1e-10 after the split: the chord and |Z| still come from
    # the split, so only the eigen-residual can fail the trial
    true_segment = suites._segment

    def moved(fs, pairing):
        seg = true_segment(fs, pairing)
        seg.exponent = seg.exponent + 1e-10j * np.eye(fs.p.shape[0])
        return seg

    monkeypatch.setattr(suites, "_segment", moved)
    report = suites.run_suite("minimality", 1, seed=123)
    assert report.failures == 1
    assert report.worst_residual <= suites.BOUNDS["minimality.chord_gap"]


def test_minimality_trial_lapack_calls(monkeypatch):
    """None of a trial's calls eigendecomposes -iZ, and its certificate
    factors nothing: the one eigensolve is of the pair, as one (2, n, n)
    stack, for the split."""
    calls = []
    for name in ("svd", "eigh", "qr"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    for seed in range(5):
        n = suites.random_equal_index_pair(seed)[0].shape[0]
        calls.clear()
        assert suites.run_suite("minimality", 1, seed).failures == 0
        names = [name for name, _ in calls]
        assert [shape for name, shape in calls if name == "eigh"] == [(2, n, n)]
        if seed == 0:
            # the sampler's QR; validation, split, CS split (2 SVDs and a
            # QR); the chord
            assert {name: names.count(name) for name in set(names)} == {"qr": 2, "svd": 5, "eigh": 1}


def test_minimality_records_match_the_public_functions():
    # the suite splits each pair once for its segment and its certificate;
    # each record must carry the bits the public entries give
    seed = 11
    report = suites.run_suite("minimality", 200, seed)
    for i, record in enumerate(report.records):
        p, q = random_equal_index_pair(seed + i)
        assert record["norm_Z"] == geodesics.minimal_exponent(p, q).norm
        assert record["lower_bound"] == geodesics.minimal_geodesic(p, q, 2)[1]["lower_bound"]


@pytest.mark.parametrize("shift", [1e-9, -1e-9], ids=["longer", "shorter"])
def test_minimality_certificate_fails_a_moved_largest_angle(monkeypatch, shift):
    # a largest angle moved by 1e-9 moves |Z|, the exponent and its
    # eigenpairs alike, so the chord checks and the eigen-residual still
    # pass; the certificate reads the angle off the pair itself and fails
    # every trial whose largest angle is a generic one, on either sign
    true_five_space = projections._five_space

    def moved(p, q, sp):
        fs = true_five_space(p, q, sp)
        last = np.arange(fs.angles.size) == fs.angles.size - 1  # ascending: the largest
        return dataclasses.replace(fs, angles=fs.angles + shift * last)

    monkeypatch.setattr(projections, "_five_space", moved)
    report = suites.run_suite("minimality", 200, 11)
    generic = {r["trial"] for r in report.records if 0 < r["norm_Z"] < np.pi / 2}
    assert {r["trial"] for r in report.records if not r["ok"]} == generic
    assert report.failures == len(generic) == 92
    assert report.worst_residual >= 0.9e-9


def test_lifting_validates_each_draw_once(monkeypatch):
    counts = {"_pair": 0, "pair_with_dims": 0, "_quotient_dims": 0}

    def counted(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    for module in (projections, geodesics, blockmodel):
        counted(module, "_pair")
    counted(suites, "pair_with_dims")
    counted(suites, "_quotient_dims")
    suites.run_suite("lifting", 40, 11)
    # a rejected draw stops at its dims: only the kept pair of each trial is
    # built and validated, once
    assert counts["_pair"] == counts["pair_with_dims"] == 40
    assert counts["_quotient_dims"] > 40


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_quotient_solver_joins_exactly_the_balanced_draws():
    # the lifting sampler keeps a draw by its dims alone: quotient_geodesic
    # must join every draw with d10 == d01 and reject every other one
    tol = Tolerance()
    seen = set()
    for s in range(300):
        for a in range(4):
            p, q = random_quotient_pair((s, a))
            rng = np.random.default_rng((s, a))
            dims = suites._quotient_dims(rng)
            assert all(map(_same_bits, (p, q), suites._quotient_pair(rng, dims)))
            d10, d01 = dims[2:4]
            which = "finite" if d10 == d01 == 0 else "infinite" if d10 and d01 else "mixed"
            if d10 == d01:
                assert quotient_geodesic(p, q, tol).segment.exponent.shape == p.shape
            else:
                with pytest.raises((NoGeodesic, NotPeriodic)) as raised:
                    quotient_geodesic(p, q, tol)
                assert type(raised.value) is (NoGeodesic if which == "mixed" else NotPeriodic)
                assert raised.value.index == (d10, d01)
            seen.add((which, d10 == d01))
    assert seen == {("finite", True), ("infinite", True), ("infinite", False), ("mixed", False)}


def test_block_instance_matches_the_solve_and_skip_loop():
    # the lifts never reach the lifting report, so the instances themselves
    # must equal those of the loop that solved every draw
    tol = Tolerance()
    for seed in range(300):
        p, q, z, lift = suites._block_geodesic_instance(seed, tol)
        ref_p, ref_q, ref_z, ref_lift = reference_block_geodesic_instance(seed, tol)
        assert _same_bits(p, ref_p) and _same_bits(q, ref_q) and _same_bits(z, ref_z)
        assert _same_bits(lift.tail, ref_lift.tail)
        assert len(lift.exceptional) == len(ref_lift.exceptional)
        assert all(map(_same_bits, lift.exceptional, ref_lift.exceptional))


def test_existence_truncates_each_probe_once(monkeypatch):
    # the FiniteFinite balance check reads the oracle's last truncation
    calls = []
    real = suites.truncated_index_pairs

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(suites, "truncated_index_pairs", counted)
    report = suites.run_suite("existence", 40, 11)
    assert report.failures == 0
    assert len(calls) == 40


def test_oracle_returns_its_last_truncation():
    tol = Tolerance()
    for seed in range(60):
        p, q = random_quotient_pair(seed)
        rng = np.random.default_rng((seed, 3, 1))
        d = p.shape[0]
        lifts = tuple(
            BlockOperator(d, random_projection_blocks(rng, d, int(rng.integers(0, 3))), m)
            for m in (p, q)
        )
        result = existence_dichotomy(p, q, lifts=lifts, tol=tol)
        probe = result.witnesses or lifts
        final = classify_by_truncation(*probe, tol=tol).final
        assert final == truncated_index_pairs(*probe, [TRUNCATION_BLOCKS], tol)[0]


E1, E2, ZERO = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2))


def long_lifts(name, m):
    """Lifts of ``m`` exceptional blocks whose counts differ from the tail's:
    crossed blocks on an uncrossed tail (FiniteFinite), uncrossed blocks on a
    crossed tail (InfiniteInfinite), and blocks of index (1, 0) and (0, 0) in
    turn, the last of index (1, 0), on an uncrossed tail (FiniteFinite)."""
    p_blocks, q_blocks, p_tail, q_tail = {
        "crossed-blocks": ([E1] * m, [E2] * m, E1, E1),
        "crossed-tail": ([E1] * m, [E1] * m, E1, E2),
        "alternating": ([E1] * m, [ZERO if (m - i) % 2 else E1 for i in range(m)], E1, E1),
    }[name]
    return BlockOperator(2, tuple(p_blocks), p_tail), BlockOperator(2, tuple(q_blocks), q_tail)


@pytest.mark.parametrize("m", [2, 9, 10, 12, 64])
@pytest.mark.parametrize("name", ["crossed-blocks", "crossed-tail", "alternating"])
def test_oracle_reads_the_tail_past_every_exceptional_block(name, m):
    lift_p, lift_q = long_lifts(name, m)
    assert lift_p._aligned(lift_q) == m
    result = existence_dichotomy(lift_p.tail, lift_q.tail, lifts=(lift_p, lift_q))
    assert classify_by_truncation(lift_p, lift_q).case is result.case


def test_oracle_final_truncation_holds_every_exceptional_block():
    lift_p, lift_q = long_lifts("crossed-blocks", 64)
    assert classify_by_truncation(lift_p, lift_q).final == (64, 64)
    lift_p, lift_q = long_lifts("crossed-blocks", 5)
    assert classify_by_truncation(lift_p, lift_q).final == (5, 5)


def test_family_trial_stacks_its_norms(monkeypatch):
    # 28 separations, 8 endpoint errors and 8 exponent norms: three calls
    calls = []
    real = suites.op_norm

    def counted(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(suites, "op_norm", counted)
    fields, _, ok = suites._trial_uniqueness(4, 11, Tolerance())
    n = fields["n"]
    assert ok and calls == [(28, n, n), (8, n, n), (8, n, n)]


def test_lifting_lifts_once_and_factors_once_per_sampler_call(monkeypatch):
    counts = {"lift_geodesic": 0, "qr": 0, "op_norm": 0}
    sampler_qrs, fiber_calls = [], []
    real_lift, real_qr, real_op_norm = blockmodel.lift_geodesic, np.linalg.qr, suites.op_norm
    real_blocks, real_fibers = suites.random_projection_blocks, suites._fiber_norms

    def counter(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return counted

    class Draws:  # the rng methods a call asks for, in order
        def __init__(self, rng):
            self.rng, self.names = rng, []

        def __getattr__(self, name):
            self.names.append(name)
            return getattr(self.rng, name)

    def blocks(*args, **kwargs):
        before = counts["qr"]
        drawn = real_blocks(*args, **kwargs)
        sampler_qrs.append(counts["qr"] - before)
        return drawn

    def fibers(p, z, norm_z, rng):
        before = counts["qr"], counts["op_norm"]
        draws = Draws(rng)
        norms = real_fibers(p, z, norm_z, draws)
        fiber_calls.append((draws.names, counts["qr"] - before[0], counts["op_norm"] - before[1]))
        return norms

    for module in (suites, blockmodel):
        monkeypatch.setattr(module, "lift_geodesic", counter("lift_geodesic", real_lift))
    monkeypatch.setattr(np.linalg, "qr", counter("qr", real_qr))
    monkeypatch.setattr(suites, "op_norm", counter("op_norm", real_op_norm))
    monkeypatch.setattr(suites, "random_projection_blocks", blocks)
    monkeypatch.setattr(suites, "_fiber_norms", fibers)
    suites.run_suite("lifting", 40, 11)
    # the main lift of each trial; its 10 fiber lifts are one stack
    assert counts["lift_geodesic"] == 40
    # one sampler call per trial, for the main lift, factoring all its blocks at once
    assert len(sampler_qrs) == 40
    assert set(sampler_qrs) == {0, 1}
    # the fiber pool: its counts, then every rank and every Gaussian in one
    # call each, one QR and one op_norm
    assert fiber_calls == [(["integers", "integers", "standard_normal"], 1, 1)] * 40


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 6), count=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
@example(d=1, count=4, seed=0)  # every rank is 0 or d
def test_projection_blocks_match_the_sequential_draws(d, count, seed):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    blocks = random_projection_blocks(rng, d, count)
    reference = reference_projection_blocks(reference_rng, d, count)
    assert len(blocks) == len(reference) == count
    assert all(np.array_equal(b, r) for b, r in zip(blocks, reference))
    assert rng.random() == reference_rng.random()


def test_fiber_stream_is_none_of_the_samplers(monkeypatch):
    # the sampler draws attempt a of trial seed s from default_rng((s, a));
    # a trailing zero key word would give one of those streams again
    seen = []
    real = suites._fiber_norms

    def record(p, z, norm_z, rng):
        seen.append(rng.bit_generator.state)
        return real(p, z, norm_z, rng)

    monkeypatch.setattr(suites, "_fiber_norms", record)
    suites.run_suite("lifting", 3, 11)
    assert len(seen) == 3
    for s, state in enumerate(seen, start=11):
        for a in range(64):
            assert state != np.random.default_rng((s, a)).bit_generator.state

    # every generator that the trials of existence and lifting seed, the
    # samplers' among them, is a stream of its own
    real_rng = np.random.default_rng

    def seeded(key=None):
        rng = real_rng(key)
        if rng is not key:
            streams.append(repr(rng.bit_generator.state))
        return rng

    monkeypatch.setattr(np.random, "default_rng", seeded)
    for suite in ("existence", "lifting"):
        streams = []
        suites.run_suite(suite, 3, 0)
        assert len(streams) >= 6
        assert len(set(streams)) == len(streams), suite
    # a minimality trial draws nothing past its pair: it seeds its sampler's
    # generator alone
    streams = []
    suites.run_suite("minimality", 3, 0)
    assert streams == [repr(real_rng(s).bit_generator.state) for s in range(3)]


def test_lifting_trial_builds_no_fiber_operator_and_evaluates_four_times(monkeypatch):
    # three points of the block curve and one stack of the quotient curve
    built, evaluated, inside = [], [], []
    real_init, real_evaluate = BlockOperator.__init__, blockmodel.evaluate
    real_fibers = suites._fiber_norms

    def init(self, *args):
        built.append(bool(inside))
        real_init(self, *args)

    def evaluate(*args, **kwargs):
        evaluated.append(1)
        return real_evaluate(*args, **kwargs)

    def fibers(*args, **kwargs):
        inside.append(1)
        try:
            return real_fibers(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(BlockOperator, "__init__", init)
    for module in (suites, blockmodel):
        monkeypatch.setattr(module, "evaluate", evaluate)
    monkeypatch.setattr(suites, "_fiber_norms", fibers)
    report = suites.run_suite("lifting", 1, 11)
    assert report.failures == 0
    assert built and not any(built)
    assert len(evaluated) == 4


def test_fiber_norms_equal_the_lone_lifts(monkeypatch):
    # each fiber's largest block norm, read with |z| as 0, is bit for bit the
    # largest exceptional-block norm of lift_geodesic over its pooled blocks
    pools = []
    real_compress = blockmodel._compress

    def compress(b, z):
        pools.append(b)
        return real_compress(b, z)

    monkeypatch.setattr(blockmodel, "_compress", compress)

    def check(p, z, key):
        d = p.shape[0]
        pools.clear()
        norms = suites._fiber_norms(p, z, 0.0, np.random.default_rng(key))
        (pool,) = pools
        rng = np.random.default_rng(key)
        counts = rng.integers(0, 4, 10).tolist()
        ranks = rng.integers(0, d + 1, sum(counts))
        assert np.abs(np.trace(pool, axis1=1, axis2=2) - ranks).max(initial=0.0) <= 1e-12
        lone, start = [], 0
        for count in counts:
            fiber = tuple(pool[start:start + count])
            start += count
            exceptional = lift_geodesic(p, z, BlockOperator(d, fiber, p)).exceptional
            assert len(exceptional) == count
            lone.append(op_norm(np.array(exceptional, ndmin=3)).max(initial=0.0))
        assert norms.tolist() == lone
        return counts

    tol = Tolerance()
    for seed in range(11, 51):
        p, _, z, _ = suites._block_geodesic_instance(seed, tol)
        check(p, z, (seed, 1))
    # key 6228776 draws ten block counts of 0: the pool is empty
    assert check(p, z, 6228776) == [0] * 10


def test_lifting_report_reads_no_fiber_block(monkeypatch):
    # fiber blocks reach only a trial's ok: fibers from another stream move no
    # report byte, and one fiber norm past |z| fails every trial
    expected = suites.run_suite("lifting", 40, 11).to_json()
    real = suites._fiber_norms
    monkeypatch.setattr(
        suites, "_fiber_norms", lambda p, z, norm_z, rng: real(p, z, norm_z, rng.spawn(1)[0])
    )
    assert suites.run_suite("lifting", 40, 11).to_json() == expected

    def off(p, z, norm_z, rng):
        norms = real(p, z, norm_z, rng)
        norms[3] = norm_z + 1e-9
        return norms

    monkeypatch.setattr(suites, "_fiber_norms", off)
    assert suites.run_suite("lifting", 40, 11).failures == 40


def test_normlift_adds_one_sequence_per_trial(monkeypatch):
    # a trial sums one pair of sequences, d + k0: it builds no competitor
    calls = []
    real = DiagonalSequence.__add__

    def add(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(DiagonalSequence, "__add__", add)
    report = suites.run_suite("normlift", 20, 11)
    assert report.failures == 0
    assert len(calls) == 20


@pytest.mark.parametrize("name", sorted(set(suites.SUITES) - {"uniqueness"}))
def test_one_trial_run_is_a_trial_of_the_long_run(name):
    # a trial draws from its own seed alone, so a one-trial run at s + i
    # gives the record of trial i; uniqueness also reads i, to pick its kind
    s = 40
    long_run = suites.run_suite(name, 25, s).records
    for i, record in enumerate(long_run):
        alone = suites.run_suite(name, 1, s + i).records[0]
        assert {**alone, "trial": i} == record


def test_every_suite_is_a_function_of_one_trial():
    for name, trial in suites.SUITES.items():
        assert list(inspect.signature(trial).parameters) == ["i", "seed", "tol"], name


def test_only_run_suite_builds_a_report():
    # the one trial loop: no suite brings back its own report and loop
    tree = ast.parse(inspect.getsource(suites))
    callers = [
        getattr(stmt, "name", "<module>")
        for stmt in tree.body
        for call in ast.walk(stmt)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "SuiteReport"
    ]
    assert callers == ["run_suite"]
