import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from projgeo import blockmodel, projections, suites
from projgeo.blockmodel import (
    BlockOperator,
    DiagonalSequence,
    DichotomyCase,
    SPECTRAL_GAP,
    evaluate_block_geodesic,
    existence_dichotomy,
    lift_geodesic,
    lift_projection,
    minimal_norm_lift,
    quotient,
    quotient_geodesic,
    truncated_index_pairs,
)
from projgeo.errors import (
    DimMismatch,
    NoGeodesic,
    NormTooLarge,
    NoSpectralGap,
    NotAProjection,
    NotCodiagonal,
    NotHermitian,
    NotPeriodic,
    ProjGeoError,
)
from projgeo.geodesics import (
    GeodesicSegment,
    evaluate,
    minimal_exponent,
    unique_minimal_check,
)
from projgeo.numkernel import Tolerance, _skewize, herm_eig, nullspace, op_norm
from projgeo.projections import (
    IndexPair,
    halmos_decompose,
    index_pair,
    make_projection,
    pair_with_dims,
    random_projection,
    random_unitary,
)
from projgeo.serialize import dumps_canonical
from projgeo.suites import (
    classify_by_truncation,
    random_projection_blocks,
    random_quotient_pair,
    run_suite,
)
from reference_pipeline import (
    block_at,
    reference_lift_projection,
    reference_truncated_index_pairs,
)


def random_block_operator(rng, d, n_exceptional):
    def block():
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return BlockOperator(d, tuple(block() for _ in range(n_exceptional)), block())


def is_compact(a: BlockOperator) -> bool:
    """Zero tail: only finitely many nonzero blocks."""
    return not np.any(a.tail)


def value_at(d: DiagonalSequence, n: int) -> float:
    """The ``n``-th entry of the sequence."""
    if n < len(d.prefix):
        return d.prefix[n]
    return d.tail_cycle[(n - len(d.prefix)) % len(d.tail_cycle)]


class TestBlockAlgebra:
    def test_additive_identity(self):
        rng = np.random.default_rng(0)
        a = random_block_operator(rng, 3, 2)
        total = a + BlockOperator(3, (), np.zeros((3, 3)))
        assert np.array_equal(total.tail, a.tail)
        assert all(
            np.array_equal(x, y) for x, y in zip(total.exceptional, a.exceptional)
        )

    def test_product_adjoint_identity(self):
        rng = np.random.default_rng(1)
        a = random_block_operator(rng, 2, 3)
        b = random_block_operator(rng, 2, 1)
        left = (a * b).adjoint()
        right = b.adjoint() * a.adjoint()
        # the two sides run through different BLAS accumulation orders, so
        # equality holds up to matrix-arithmetic rounding only
        assert (left - right).norm() <= 1e-13 * max(a.norm() * b.norm(), 1.0)

    def test_norm_is_max_block_norm(self):
        a = BlockOperator(
            2,
            (np.diag([5.0, 0.0]).astype(complex),),
            np.diag([1.0, 0.0]).astype(complex),
        )
        assert a.norm() == 5.0

    def test_norm_equals_blockwise_norms(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            a = random_block_operator(rng, 4, int(rng.integers(0, 5)))
            assert a.norm() == max(op_norm(b) for b in (*a.exceptional, a.tail))

    def test_normal_form_absorbs_tail_blocks(self):
        tail = np.diag([1.0, 0.0]).astype(complex)
        a = BlockOperator(2, (tail.copy(), tail.copy()), tail)
        assert len(a.exceptional) == 0

    def test_block_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            BlockOperator(2, (), np.eye(2)) + BlockOperator(3, (), np.eye(3))

    def test_ideal_property(self):
        rng = np.random.default_rng(2)
        a = random_block_operator(rng, 3, 2)
        compact = BlockOperator(
            3,
            (rng.standard_normal((3, 3)) + 0j,),
            np.zeros((3, 3), dtype=complex),
        )
        assert is_compact(a * compact)
        assert is_compact(compact * a)

    def test_exceptional_cap(self):
        tail = np.zeros((1, 1), dtype=complex)
        blocks = tuple(np.array([[float(i + 1)]], dtype=complex) for i in range(65))
        with pytest.raises(ValueError):
            BlockOperator(1, blocks, tail)


class TestQuotient:
    def test_compact_maps_to_zero(self):
        a = BlockOperator(2, (np.eye(2, dtype=complex),), np.zeros((2, 2), complex))
        assert np.all(quotient(a) == 0)
        assert is_compact(a)

    def test_star_homomorphism_exact(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            a = random_block_operator(rng, 2, 3)
            b = random_block_operator(rng, 2, 2)
            assert np.array_equal(quotient(a * b), quotient(a) @ quotient(b))
            assert np.array_equal(quotient(a + b), quotient(a) + quotient(b))
            assert np.array_equal(quotient(a.adjoint()), quotient(a).conj().T)

    def test_quotient_norm_dominated(self):
        rng = np.random.default_rng(4)
        for trial in range(100):
            a = random_block_operator(rng, 3, int(rng.integers(0, 4)))
            assert op_norm(quotient(a)) <= a.norm()


class TestLiftProjection:
    def test_projection_fixed(self):
        p = random_projection(3, 1, 5)
        t = BlockOperator(3, (p,), p)
        lifted = lift_projection(t)
        assert op_norm(lifted.tail - p) <= 1e-12

    def test_thresholding(self):
        t = BlockOperator(
            2,
            (np.diag([0.9, 0.1]).astype(complex),),
            np.diag([1.0, 0.0]).astype(complex),
        )
        lifted = lift_projection(t)
        assert np.allclose(block_at(lifted, 0), np.diag([1.0, 0.0]))
        # the thresholded block coincides with the tail, so it is absorbed
        assert len(lifted.exceptional) == 0

    def test_no_spectral_gap(self):
        t = BlockOperator(
            2,
            (np.diag([0.5, 0.0]).astype(complex),),
            np.diag([1.0, 0.0]).astype(complex),
        )
        with pytest.raises(NoSpectralGap):
            lift_projection(t)

    def test_gap_boundary(self):
        value = 0.5 + SPECTRAL_GAP + 1e-3
        t = BlockOperator(
            2,
            (np.diag([value, 0.0]).astype(complex),),
            np.diag([1.0, 0.0]).astype(complex),
        )
        lifted = lift_projection(t)
        assert np.allclose(block_at(lifted, 0), np.diag([1.0, 0.0]))

    def test_rejects_asymmetric(self):
        t = BlockOperator(
            2,
            (np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex),),
            np.diag([1.0, 0.0]).astype(complex),
        )
        with pytest.raises(NotHermitian):
            lift_projection(t)

    def test_rejects_non_projection_tail(self):
        t = BlockOperator(2, (), np.diag([0.7, 0.0]).astype(complex))
        with pytest.raises(NotAProjection):
            lift_projection(t)

    def test_quotient_commutes(self):
        rng = np.random.default_rng(6)
        p = random_projection(4, 2, 9)
        noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        noise = 1e-12 * (noise + noise.conj().T)
        t = BlockOperator(4, (random_projection(4, 1, 10),), p + noise)
        lifted = lift_projection(t)
        assert op_norm(quotient(lifted) - p) <= 1e-10

    @pytest.mark.parametrize("n_exceptional", [0, 1, 3])
    def test_one_stacked_eigensolve_per_operator(self, monkeypatch, n_exceptional):
        calls = []

        def counted(b):
            calls.append(np.shape(b))
            return herm_eig(b)

        monkeypatch.setattr(blockmodel, "herm_eig", counted)
        blocks = tuple(random_projection(3, 1, 30 + i) for i in range(n_exceptional))
        t = BlockOperator(3, blocks, random_projection(3, 2, 29))
        lifted = lift_projection(t)
        assert calls == [(n_exceptional + 1, 3, 3)]
        for got, b in zip((*lifted.exceptional, lifted.tail), (*t.exceptional, t.tail)):
            assert op_norm(got - b) <= 1e-12

    def test_matches_the_per_block_loop(self):
        # the lift bit for bit, and for a bad block at each position the same
        # refusal: the block's number and its first offending eigenvalue
        u = random_unitary(3, 33)
        near = [u @ np.diag(w) @ u.conj().T for w in ([0.02, 0.97, 1.0], [0.1, 0.45, 0.55])]
        near = [(m + m.conj().T) / 2 for m in near]
        skew = near[0] + np.triu(np.full((3, 3), 1e-3), 1)
        tail = random_projection(3, 2, 34)
        for k in range(4):
            blocks = [near[0]] + [random_projection(3, i, 40 + i) for i in range(1, k)]
            t = BlockOperator(3, tuple(blocks[:k]), tail)
            assert_same_operator(lift_projection(t), reference_lift_projection(t))
            for where in range(k + 1):  # the tail last
                for bad in (skew, near[1]):
                    all_blocks = [*blocks[:k], tail]
                    all_blocks[where] = bad
                    t = BlockOperator(3, tuple(all_blocks[:-1]), all_blocks[-1])
                    with pytest.raises(ProjGeoError) as want:
                        reference_lift_projection(t)
                    with pytest.raises(type(want.value)) as got:
                        lift_projection(t)
                    assert str(got.value) == str(want.value)


# finite entries whose pairwise sums stay finite
FINITE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


class TestDiagonalSequence:
    def test_value_indexing(self):
        d = DiagonalSequence((5.0, -3.0), (1.0, 0.5))
        assert [value_at(d, i) for i in range(6)] == [5.0, -3.0, 1.0, 0.5, 1.0, 0.5]

    def test_limsup_ignores_prefix(self):
        d = DiagonalSequence((100.0,), (0.25,))
        assert d.limsup_abs() == 0.25
        assert d.sup_abs() == 100.0

    def test_add_aligns_cycles(self):
        a = DiagonalSequence((1.0,), (1.0, 2.0))
        b = DiagonalSequence((), (10.0, 20.0, 30.0))
        total = a + b
        for n in range(12):
            assert value_at(total, n) == value_at(a, n) + value_at(b, n)

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            DiagonalSequence((1.0,), ())

    @settings(max_examples=200, deadline=None)
    @given(
        a_prefix=st.lists(FINITE, max_size=8),
        a_cycle=st.lists(FINITE, min_size=1, max_size=6),
        b_prefix=st.lists(FINITE, max_size=8),
        b_cycle=st.lists(FINITE, min_size=1, max_size=6),
    )
    def test_add_is_entrywise(self, a_prefix, a_cycle, b_prefix, b_cycle):
        a = DiagonalSequence(tuple(a_prefix), tuple(a_cycle))
        b = DiagonalSequence(tuple(b_prefix), tuple(b_cycle))
        total = a + b
        head = max(len(a_prefix), len(b_prefix))
        assert len(total.prefix) == head
        period = math.lcm(len(a_cycle), len(b_cycle))
        for n in range(head + 2 * period):
            assert value_at(total, n) == value_at(a, n) + value_at(b, n)

    @settings(max_examples=100, deadline=None)
    @given(
        prefix=st.lists(FINITE, max_size=8),
        cycle=st.lists(FINITE, min_size=1, max_size=6),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        where=st.integers(min_value=0, max_value=13),
    )
    def test_non_finite_rejected(self, prefix, cycle, bad, where):
        values = prefix + cycle
        values[where % len(values)] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DiagonalSequence(tuple(values[:len(prefix)]), tuple(values[len(prefix):]))


class TestMinimalNormLift:
    def test_worked_example(self):
        d = DiagonalSequence((5.0, -3.0), (1.0, 0.5))
        k0 = minimal_norm_lift(d)
        assert k0.prefix == (-4.0, 2.0)
        assert k0.tail_cycle == (0.0, 0.0)
        assert (d + k0).sup_abs() == 1.0

    def test_no_clipping_needed(self):
        d = DiagonalSequence((0.2,), (1.0,))
        assert minimal_norm_lift(d).prefix == (0.0,)

    def test_empty_prefix(self):
        d = DiagonalSequence((), (2.0, -1.0))
        k0 = minimal_norm_lift(d)
        assert k0.prefix == ()
        assert (d + k0).sup_abs() == 2.0

    @settings(max_examples=200, deadline=None)
    @given(
        prefix=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=8
        ),
        cycle=st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=6,
        ),
    )
    def test_exact_norm_equality(self, prefix, cycle):
        d = DiagonalSequence(tuple(prefix), tuple(cycle))
        k0 = minimal_norm_lift(d)
        assert all(v == 0.0 for v in k0.tail_cycle)
        assert (d + k0).sup_abs() == d.limsup_abs()

    def test_competitors_never_beat_it(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            prefix = tuple(float(x) for x in rng.uniform(-10, 10, rng.integers(0, 8)))
            cycle = tuple(float(x) for x in rng.uniform(-5, 5, rng.integers(1, 5)))
            d = DiagonalSequence(prefix, cycle)
            level = d.limsup_abs()
            for _ in range(100):
                comp = DiagonalSequence(
                    tuple(float(x) for x in rng.uniform(-20, 20, rng.integers(0, 10))),
                    (0.0,),
                )
                assert (d + comp).sup_abs() >= level - 1e-15


def per_block_lift(z, lift_p):
    """One compression per exceptional block, as a plain loop."""
    eye = np.eye(lift_p.block_dim)
    blocks = tuple(
        _skewize(b @ z @ (eye - b) + (eye - b) @ z @ b) for b in lift_p.exceptional
    )
    return BlockOperator(lift_p.block_dim, blocks, z)


class TestLiftGeodesic:
    def setup_pair(self, seed=0):
        theta = np.pi / 3
        c, s = np.cos(theta), np.sin(theta)
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)
        z = minimal_exponent(p, q).exponent
        return p, q, z

    def test_zero_exponent(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        lift = BlockOperator(2, (), p)
        z = lift_geodesic(p, np.zeros((2, 2), complex), lift)
        assert z.norm() == 0.0

    def test_norm_equality_and_quotient(self):
        p, q, z = self.setup_pair()
        lift = BlockOperator(2, (np.diag([0.0, 1.0]).astype(complex),), p)
        big = lift_geodesic(p, z, lift)
        assert abs(big.norm() - op_norm(z)) <= 1e-12
        assert np.array_equal(quotient(big), z)
        assert abs(op_norm(z) - np.pi / 3) <= 1e-12

    def test_curve_projects_to_quotient_curve(self):
        p, q, z = self.setup_pair()
        lift = BlockOperator(2, (np.diag([0.0, 1.0]).astype(complex),), p)
        big = lift_geodesic(p, z, lift)
        curve = evaluate_block_geodesic(lift, big)
        small = GeodesicSegment(base=p, exponent=z)
        for t in (0.25, 0.5, 1.0):
            assert np.array_equal(quotient(curve(t)), evaluate(small, t))

    def test_curve_moves_each_exceptional_block_on_its_own_geodesic(self):
        # not only the tail: every exceptional block of the block curve is the
        # geodesic of its own block pair (P_i, Z_i), bit for bit
        tol, moved = Tolerance(), 0
        for seed in range(11, 211):
            p, _, z, lift_p = suites._block_geodesic_instance(seed, tol)
            big = lift_geodesic(p, z, lift_p)
            curve = evaluate_block_geodesic(lift_p, big)
            for t in (0.25, 0.5, 1.0):
                point = curve(t)
                for i, block in enumerate(lift_p.exceptional):
                    expected = evaluate(GeodesicSegment(block, block_at(big, i)), t)
                    assert np.array_equal(block_at(point, i), expected)
                    moved += not np.array_equal(expected, block)
        assert moved >= 500

    def test_codiagonal_per_block(self):
        p, q, z = self.setup_pair()
        rng = np.random.default_rng(8)
        lift = BlockOperator(2, random_projection_blocks(rng, 2, 3), p)
        big = lift_geodesic(p, z, lift)
        for i in range(4):
            bp, bz = block_at(lift, i), block_at(big, i)
            eye = np.eye(2)
            assert op_norm(bp @ bz @ bp) <= 1e-10
            assert op_norm((eye - bp) @ bz @ (eye - bp)) <= 1e-10

    def test_fiber_freedom(self):
        p, q, z = self.setup_pair()
        rng = np.random.default_rng(9)
        for trial in range(10):
            lift = BlockOperator(
                2, random_projection_blocks(rng, 2, int(rng.integers(0, 4))), p
            )
            big = lift_geodesic(p, z, lift)
            assert abs(big.norm() - op_norm(z)) <= 1e-12

    def test_rejects_oversized_exponent(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        z = 2.0 * np.array([[0, -1], [1, 0]], dtype=complex)
        with pytest.raises(NormTooLarge):
            lift_geodesic(p, z, BlockOperator(2, (), p))

    def test_rejects_non_codiagonal(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        z = np.array([[1j, 0], [0, 0]], dtype=complex)
        with pytest.raises(NotCodiagonal):
            lift_geodesic(p, z, BlockOperator(2, (), p))

    def test_rejects_wrong_fiber(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        other = np.diag([0.0, 1.0]).astype(complex)
        z = np.zeros((2, 2), complex)
        with pytest.raises(NotAProjection):
            lift_geodesic(p, z, BlockOperator(2, (), other))

    def test_stack_equals_per_block_reference(self):
        for seed in range(40):
            p, q, z, lift_p = suites._block_geodesic_instance(seed, Tolerance())
            got = lift_geodesic(p, z, lift_p)
            want = per_block_lift(z, lift_p)
            assert len(lift_p.exceptional) >= 1
            assert len(got.exceptional) == len(want.exceptional)
            for x, y in zip((*got.exceptional, got.tail), (*want.exceptional, want.tail)):
                assert np.array_equal(x, y)

    def test_first_bad_block_named(self):
        p, q, z = self.setup_pair()
        good = np.diag([0.0, 1.0]).astype(complex)
        not_idempotent = np.diag([0.7, 0.0]).astype(complex)
        not_selfadjoint = np.array([[1.0, 1e-6], [0.0, 0.0]], dtype=complex)
        blocks = (good, p, not_idempotent, not_selfadjoint, good)
        with pytest.raises(NotAProjection) as alone:
            make_projection(not_idempotent)
        with pytest.raises(NotAProjection) as stacked:
            lift_geodesic(p, z, BlockOperator(2, blocks, p))
        assert str(stacked.value) == str(alone.value)

    def test_error_order(self):
        # p and the exceptional blocks (one stack), then z's skew, codiagonal
        # and norm checks, then the tail: each input holds two adjacent
        # faults and the earlier one wins, so a bad exceptional block wins
        # over every fault of z and of the tail
        p, q, z = self.setup_pair()
        good, bad = np.diag([0.0, 1.0]).astype(complex), np.diag([0.7, 0.0]).astype(complex)
        not_skew = 2.0 * np.array([[1j, 1.0], [0.0, 0.0]], dtype=complex)  # also diagonal
        diagonal = np.array([[2j, 0.0], [0.0, 0.0]], dtype=complex)  # |diagonal| = 2
        cases = [
            (not_skew, (good, bad), p, NotAProjection, "P\\^2"),
            (not_skew, (good,), p, NotCodiagonal, "not skew"),
            (diagonal, (good,), p, NotCodiagonal, "codiagonal"),
            (3.0 * z, (good,), np.eye(2, dtype=complex), NormTooLarge, "exceeds pi/2"),
        ]
        for exponent, blocks, tail, error, message in cases:
            with pytest.raises(error, match=message):
                lift_geodesic(p, exponent, BlockOperator(2, blocks, tail))


def assert_same_operator(got, want):
    """Field by field and bit for bit, the normal form included."""
    assert got.block_dim == want.block_dim
    assert len(got.exceptional) == len(want.exceptional)
    for x, y in zip((*got.exceptional, got.tail), (*want.exceptional, want.tail)):
        assert x.dtype == y.dtype == np.complex128
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


class TestOneDoor:
    # every operator, the model's own results included, is built by the one
    # constructor, from a tuple of blocks or from a (k, d, d) array

    def test_the_stack_is_the_only_field(self):
        e1, e2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        a = BlockOperator(2, (e2,), e1)
        assert [f.name for f in dataclasses.fields(BlockOperator)] == ["blocks"]
        assert a.blocks.dtype == np.complex128 and a.blocks.shape == (2, 2, 2)
        assert a.block_dim == 2
        for view in (a.exceptional, a.tail):
            assert np.shares_memory(view, a.blocks)
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.blocks = np.array([e1])

    def test_tuple_and_array_give_the_same_operator(self):
        e1, e2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        tail = random_projection(3, 1, 6)
        drawn = random_projection_blocks(np.random.default_rng(5), 3, 4)
        cases = [  # d, blocks, tail, exceptional blocks kept by the normal form
            (2, [e2, e1, e1], e1, 1),
            (2, [e1, e1], e1, 0),
            (2, [], e2, 0),
            (2, [e1, e2, 0.5 * e1], e1, 3),
            (3, [*drawn, tail, tail], tail, 4),
        ]
        for d, blocks, tail, k in cases:
            as_tuple = BlockOperator(d, tuple(blocks), tail)
            as_array = BlockOperator(d, np.array(blocks, complex).reshape(-1, d, d), tail)
            want = np.array([*blocks[:k], tail], complex)
            assert as_tuple.blocks.tobytes() == want.tobytes()
            assert_same_operator(as_tuple, as_array)
        # a zero exponent compresses every block to the tail: all absorbed
        zero = np.zeros((2, 2), complex)
        big_z = lift_geodesic(e1, zero, BlockOperator(2, (e2, e2), e1))
        assert len(big_z.exceptional) == 0
        assert_same_operator(big_z, BlockOperator(2, (zero, zero), zero))

    def test_errors_keep_their_type_text_and_order(self):
        # d, the cap, each block's shape, then one finiteness check of the
        # stack: an input with two faults raises the earlier one
        eye, wide, nan = np.eye(2), np.eye(3), np.full((2, 2), np.nan)
        positive, cap = "block_dim must be positive, got 0", "exceptional list longer than 64 blocks"
        shape, finite = "expected a 2x2 block, got {}", "matrix has non-finite entries"
        cases = [
            (0, (wide,) * 65, nan, DimMismatch, positive),
            (2, (wide,) * 65, nan, ValueError, cap),
            (2, np.zeros((65, 3, 3)), eye, ValueError, cap),
            (2, (nan, wide), eye, DimMismatch, shape.format((3, 3))),
            (2, (eye,), wide, DimMismatch, shape.format((3, 3))),
            (2, np.zeros((2, 3, 3)), nan, DimMismatch, shape.format((3, 3))),
            (2, (eye, [1.0, 0.0]), eye, DimMismatch, shape.format((2,))),
            (2, (nan, eye), eye, ValueError, finite),
            (2, (eye, nan), eye, ValueError, finite),
            (2, (eye,), nan, ValueError, finite),
            (2, np.array([eye, nan]), eye, ValueError, finite),
        ]
        for d, blocks, tail, error, message in cases:
            with pytest.raises(error) as raised:
                BlockOperator(d, blocks, tail)
            assert type(raised.value) is error and str(raised.value) == message

    def test_one_door_per_lift_and_no_block_conversion_per_point(self, monkeypatch):
        calls = {"make_projection": 0, "_as_block": 0}
        for name in calls:
            real = getattr(blockmodel, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(blockmodel, name, counted)
        for seed in range(11, 21):
            p, _, z, lift_p = suites._block_geodesic_instance(seed, Tolerance())
            calls.update(make_projection=0)
            big_z = lift_geodesic(p, z, lift_p)
            assert calls["make_projection"] == 1
            curve = evaluate_block_geodesic(lift_p, big_z)
            calls.update(_as_block=0)
            for t in (0.25, 0.5, 1.0):
                curve(t)
            assert calls["_as_block"] == 0

    def test_surgery_validates_each_block_it_reads_once(self, monkeypatch):
        shapes = []
        real = blockmodel.make_projection

        def measured(m):
            shapes.append(np.shape(m))
            return real(m)

        monkeypatch.setattr(blockmodel, "make_projection", measured)
        e1, e2 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
        # three pairs: P's three blocks, Q's one block and its tail, once
        lifts = (BlockOperator(2, (e1, e2, e2), e1), BlockOperator(2, (e2,), e1))
        witnesses = blockmodel.lifting_surgery(*lifts)
        assert shapes == [(5, 2, 2)]
        assert truncated_index_pairs(*witnesses, [3])[0] == (0, 0)
        for w, lift in zip(witnesses, lifts):
            assert w.tail.tobytes() == lift.tail.tobytes()


class TestExistenceDichotomy:
    def test_equal_pair_finite(self):
        p = random_projection(3, 1, 11)
        result = existence_dichotomy(p, p)
        assert result.exists and result.case is DichotomyCase.FINITE_FINITE

    def test_crossed_pair_infinite(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.diag([0.0, 1.0]).astype(complex)
        result = existence_dichotomy(p, q)
        assert result.exists and result.case is DichotomyCase.INFINITE_INFINITE

    def test_nested_pair_mixed(self):
        p = np.diag([1.0, 1.0, 0.0]).astype(complex)
        q = np.diag([1.0, 0.0, 0.0]).astype(complex)
        result = existence_dichotomy(p, q)
        assert not result.exists
        assert result.case is DichotomyCase.MIXED
        assert result.witnesses is None

    def test_rejects_non_projection(self):
        with pytest.raises(NotAProjection):
            existence_dichotomy(np.diag([0.5, 0.0]), np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize(
        "dims,case",
        [((1, 1, 0, 0, 0), DichotomyCase.FINITE_FINITE),
         ((0, 0, 1, 1, 0), DichotomyCase.INFINITE_INFINITE),
         ((0, 1, 1, 0, 0), DichotomyCase.MIXED)],
    )
    def test_rejects_a_bad_lift_in_every_case(self, dims, case, side):
        p, q = pair_with_dims(*dims, [], seed=4)
        assert existence_dichotomy(p, q).case is case
        good = random_projection(2, 1, 5)
        bad = np.diag([0.5, 0.0]).astype(complex)
        blocks = [(good,), (good,)]
        blocks[side] = (good, bad)
        lifts = (BlockOperator(2, blocks[0], p), BlockOperator(2, blocks[1], q))
        with pytest.raises(NotAProjection, match="P\\^2"):
            existence_dichotomy(p, q, lifts=lifts)

    def test_surgery_balances_witnesses(self):
        rng = np.random.default_rng(12)
        p = random_projection(4, 2, 13)
        q = random_projection(4, 2, 14)
        if index_pair(p, q) != (0, 0):
            pytest.skip("sampled pair is not generic")
        # exceptional blocks with mismatched crossed dimensions
        bad_p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        bad_q = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        lifts = (BlockOperator(4, (bad_p,), p), BlockOperator(4, (bad_q,), q))
        assert truncated_index_pairs(*lifts, [8])[0].d_plus != truncated_index_pairs(
            *lifts, [8]
        )[0].d_minus
        result = existence_dichotomy(p, q, lifts=lifts)
        assert result.case is DichotomyCase.FINITE_FINITE
        final = truncated_index_pairs(*result.witnesses, [8])[0]
        assert final.d_plus == final.d_minus
        # surgery must not move the class modulo the ideal
        assert np.array_equal(result.witnesses[0].tail, p)
        assert np.array_equal(result.witnesses[1].tail, q)

    def test_surgery_factors_only_crossed_block_pairs(self, monkeypatch):
        # of three block pairs only the middle one is crossed: one CS
        # decomposition and one QR, both for it
        calls = {"cs_decompose": 0, "qr": 0}
        real_cs, real_qr = projections.cs_decompose, np.linalg.qr

        def cs(*args):
            calls["cs_decompose"] += 1
            return real_cs(*args)

        def qr(*args):
            calls["qr"] += 1
            return real_qr(*args)

        monkeypatch.setattr(projections, "cs_decompose", cs)
        monkeypatch.setattr(np.linalg, "qr", qr)
        e1, e2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        lifts = (BlockOperator(2, (e1, e1, e2), e1), BlockOperator(2, (e1, e2, e2), e1))
        witnesses = blockmodel.lifting_surgery(*lifts)
        assert calls == {"cs_decompose": 1, "qr": 1}
        assert truncated_index_pairs(*witnesses, [3])[0] == (0, 0)
        assert np.array_equal(witnesses[0].exceptional[0], e1)
        assert np.array_equal(witnesses[1].exceptional[2], e2)

    def test_surgery_near_pi_half(self):
        # a plane within rank_rtol of pi/2 counts as crossed; the surgery
        # must still leave projections with balanced index
        p, q = random_projection(4, 2, 13), random_projection(4, 2, 14)
        tol = Tolerance(rank_rtol=1e-6)
        bad_p, bad_q = pair_with_dims(1, 0, 0, 1, 2, [np.arccos(1e-7)], seed=3)
        lifts = (BlockOperator(4, (bad_p,), p), BlockOperator(4, (bad_q,), q))
        result = existence_dichotomy(p, q, lifts=lifts, tol=tol)
        assert result.case is DichotomyCase.FINITE_FINITE
        witness_p, witness_q = (w.exceptional[0] for w in result.witnesses)
        assert truncated_index_pairs(*result.witnesses, [8], tol)[0] == (0, 0)
        for block in (witness_p, witness_q):
            assert op_norm(block @ block - block) <= 1e-14

    def test_truncation_oracle_agreement(self):
        rng = np.random.default_rng(15)
        cases = {
            (1, 1, 0, 0, 0): DichotomyCase.FINITE_FINITE,
            (0, 0, 1, 1, 0): DichotomyCase.INFINITE_INFINITE,
            (0, 1, 1, 0, 0): DichotomyCase.MIXED,
            (1, 0, 0, 2, 2): DichotomyCase.MIXED,
            (0, 0, 2, 1, 2): DichotomyCase.INFINITE_INFINITE,
        }
        for dims, expected in cases.items():
            d11, d00, d10, d01, g = dims
            angles = rng.uniform(0.3, 1.2, g // 2)
            p, q = pair_with_dims(d11, d00, d10, d01, g, angles, seed=17)
            result = existence_dichotomy(p, q)
            assert result.case is expected
            probe = result.witnesses or (
                BlockOperator(p.shape[0], (), p),
                BlockOperator(q.shape[0], (), q),
            )
            assert classify_by_truncation(*probe).case is expected


def dichotomy_and_oracle(p, q):
    """The dichotomy's case and the truncation oracle's on its probe."""
    result = existence_dichotomy(p, q)
    d = p.shape[0]
    probe = result.witnesses or (BlockOperator(d, (), p), BlockOperator(d, (), q))
    return result.case, classify_by_truncation(*probe).case


class TestTruncationOracleNearEdges:
    def test_generic_pair_near_pi_half(self):
        p, q = pair_with_dims(1, 1, 0, 0, 2, [np.pi / 2 - 1e-6], seed=3)
        assert dichotomy_and_oracle(p, q) == (DichotomyCase.FINITE_FINITE,) * 2

    @pytest.mark.parametrize("dims", [(1, 1, 0, 0, 2), (0, 0, 1, 1, 2), (1, 0, 0, 1, 2)])
    @pytest.mark.parametrize("theta", [1e-5, 1e-7, 1e-9])
    @pytest.mark.parametrize("edge", ["zero", "half_pi"])
    def test_oracle_agrees_with_dichotomy(self, dims, theta, edge):
        angle = theta if edge == "zero" else np.pi / 2 - theta
        p, q = pair_with_dims(*dims, [angle], seed=3)
        case, oracle = dichotomy_and_oracle(p, q)
        assert oracle is case


def dense_truncation(lift, n_blocks):
    d = lift.block_dim
    out = np.zeros((n_blocks * d, n_blocks * d), dtype=np.complex128)
    for i in range(n_blocks):
        out[i * d:(i + 1) * d, i * d:(i + 1) * d] = block_at(lift, i)
    return out


def dense_truncated_index_pairs(lift_p, lift_q, lengths):
    """Nullities of dense truncations, one SVD per length."""
    out = []
    for n_blocks in lengths:
        tp = dense_truncation(lift_p, n_blocks)
        tq = dense_truncation(lift_q, n_blocks)
        eye = np.eye(tp.shape[0])
        plus, minus = nullspace(np.array([tp - tq - eye, tp - tq + eye]))
        out.append(IndexPair(d_plus=plus.shape[1], d_minus=minus.shape[1]))
    return out


class TestTruncatedIndexPairs:
    def test_matches_dense_reference(self):
        lengths = list(range(15))
        seen = set()
        for seed in range(200):
            p, q = random_quotient_pair(seed)
            d = p.shape[0]
            rng = np.random.default_rng((seed, 5))
            lifts = (
                BlockOperator(d, random_projection_blocks(rng, d, int(rng.integers(0, 4))), p),
                BlockOperator(d, random_projection_blocks(rng, d, int(rng.integers(0, 4))), q),
            )
            got = truncated_index_pairs(*lifts, lengths)
            assert got == dense_truncated_index_pairs(*lifts, lengths)
            seen.add(max(len(lifts[0].exceptional), len(lifts[1].exceptional)))
        assert seen == {0, 1, 2, 3}

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        edge=st.sampled_from([None, "zero", "half_pi"]),
        exponents=st.lists(st.floats(-12.0, -3.0), min_size=1, max_size=2),
    )
    def test_matches_the_sign_count_near_the_edges(self, seed, edge, exponents):
        rtol = Tolerance().rank_rtol
        rng = np.random.default_rng(seed)
        offsets = 10.0 ** np.array(exponents)
        if edge is None:
            p, q = random_quotient_pair(seed)
        else:
            # at cos theta = rank_rtol, within roundoff, the two directions of
            # the plane can fall on both sides of the threshold
            assume(all(abs(e - math.log10(rtol)) > 1e-3 for e in exponents))
            angles = offsets if edge == "zero" else np.pi / 2 - offsets
            d11, d00, d10, d01 = rng.integers(0, [2, 2, 3, 3]).tolist()
            p, q = pair_with_dims(d11, d00, d10, d01, 2 * len(angles), angles, seed=rng)
        d = p.shape[0]
        lifts = tuple(
            BlockOperator(d, random_projection_blocks(rng, d, int(rng.integers(0, 4))), m)
            for m in (p, q)
        )
        lengths = list(range(10))
        got = truncated_index_pairs(*lifts, lengths)
        assert got == reference_truncated_index_pairs(*lifts, lengths)
        # the dense truncation decides a plane by 1 - sin theta, about
        # cos(theta)^2 / 2, so it counts it crossed for cos theta up to
        # sqrt(2 rank_rtol), not up to rank_rtol
        if edge != "half_pi" or not ((offsets > rtol / 2) & (offsets < 4e-5)).any():
            assert got == dense_truncated_index_pairs(*lifts, lengths)

    def test_runs_no_eigensolve(self, monkeypatch):
        calls = []
        real = np.linalg.eigh

        def eigh(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        lifts = []
        for seed in range(20):
            p, q = random_quotient_pair(seed)
            d = p.shape[0]
            rng = np.random.default_rng((seed, 5))
            lifts.append(tuple(
                BlockOperator(d, random_projection_blocks(rng, d, 2), m) for m in (p, q)
            ))
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        for lift_p, lift_q in lifts:
            truncated_index_pairs(lift_p, lift_q, [12])
        assert calls == []

    @pytest.mark.parametrize(
        "blocks_p, blocks_q, tail_p, tail_q, name",
        [
            # P + Q - 1 = 0.5 has no kernel, yet the ranks differ by one
            ((), (), [[1.0]], [[0.5]], "the tail"),
            # ranks 2 and 0, but P + Q - 1 = -0.8 has no kernel
            ((np.eye(2),), (0.2 * np.eye(2),), np.eye(2), np.eye(2), "exceptional block 0"),
            # nullity 1 and ranks 1, 1: the pair (0.1, 0) around the threshold
            # is a gap of 0.1, no plane split by roundoff
            ((), (), np.diag([1.0, 0.0]), np.diag([0.0, 0.9]), "the tail"),
            # P + Q - 1 = 0 has nullity 3, yet traces 1.5 round to ranks 2, 2:
            # there is no pair around the threshold to decide as one
            ((), (), 0.5 * np.eye(3), 0.5 * np.eye(3), "the tail"),
        ],
    )
    def test_blocks_that_are_no_projections_raise(self, blocks_p, blocks_q, tail_p,
                                                  tail_q, name):
        d = len(tail_p)
        lifts = (BlockOperator(d, blocks_p, tail_p), BlockOperator(d, blocks_q, tail_q))
        with pytest.raises(NotAProjection, match=f"^{name}: "):
            truncated_index_pairs(*lifts, [1])

    def test_a_plane_at_the_threshold_is_decided_as_one(self):
        # cos theta = sin(1e-10) sits on rank_rtol: roundoff puts the plane's
        # two singular values on either side of it, and their mean decides
        found = set()
        for seed in range(2000):
            p, q = pair_with_dims(0, 0, 0, 0, 2, [np.pi / 2 - 1e-10], seed=seed)
            lifts = (BlockOperator(2, (), p), BlockOperator(2, (), q))
            got = tuple(truncated_index_pairs(*lifts, [1])[0])
            mean = np.linalg.svd(p + q - np.eye(2), compute_uv=False).mean()
            assert got == ((1, 1) if mean <= Tolerance().rank_rtol else (0, 0))
            found.add(got)
        assert found == {(0, 0), (1, 1)}

    @pytest.mark.parametrize("offset", [1e-8, 1e-12])
    def test_planes_clear_of_the_threshold_match_index_pair(self, offset):
        for seed in range(500):
            p, q = pair_with_dims(0, 0, 0, 0, 2, [np.pi / 2 - offset], seed=seed)
            lifts = (BlockOperator(2, (), p), BlockOperator(2, (), q))
            assert truncated_index_pairs(*lifts, [1])[0] == index_pair(p, q)

    def test_reads_singular_values_only(self, monkeypatch):
        calls = []
        real = np.linalg.svd

        def svd(*args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return real(*args, **kwargs)

        p, q = random_quotient_pair(3)
        lifts = (BlockOperator(p.shape[0], (), p), BlockOperator(p.shape[0], (), q))
        monkeypatch.setattr(np.linalg, "svd", svd)
        truncated_index_pairs(*lifts, [4])
        assert calls == [False]

    def test_block_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            truncated_index_pairs(
                BlockOperator(2, (), np.eye(2)), BlockOperator(3, (), np.eye(3)), [4]
            )

    def test_negative_length(self):
        with pytest.raises(ValueError, match="non-negative"):
            truncated_index_pairs(
                BlockOperator(2, (), np.eye(2)), BlockOperator(2, (), np.zeros((2, 2))), [3, -1]
            )


class TestQuotientSuites:
    @pytest.mark.parametrize(
        "suite, digest",
        [
            ("existence", "1bb3d3eb8f23ea81caf8b8836c811ea520e609b51109207548cb722ff59e6b23"),
            ("normlift", "d2b7e0456649dd62c77f38c5d5e0235fc57a6f887abbf4219a0d6fd43ea50ad4"),
        ],
    )
    def test_report_bytes_pinned(self, suite, digest):
        # integer, string and pure-Python float records: no LAPACK bits
        text = dumps_canonical(run_suite(suite, 40, 11).to_json())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_oracle_catches_swapped_dichotomy(self, monkeypatch):
        swap = {
            DichotomyCase.FINITE_FINITE: DichotomyCase.INFINITE_INFINITE,
            DichotomyCase.INFINITE_INFINITE: DichotomyCase.FINITE_FINITE,
            DichotomyCase.MIXED: DichotomyCase.MIXED,
        }

        def swapped(*args, **kwargs):
            result = existence_dichotomy(*args, **kwargs)
            return dataclasses.replace(result, case=swap[result.case])

        assert run_suite("existence", 40, 11).failures == 0
        monkeypatch.setattr(suites, "existence_dichotomy", swapped)
        assert run_suite("existence", 40, 11).failures > 0


class TestQuotientGeodesic:
    def test_equal_pair(self):
        p = random_projection(3, 2, 19)
        result = quotient_geodesic(p, p)
        assert op_norm(result.segment.exponent) <= 1e-12
        assert result.case is DichotomyCase.FINITE_FINITE

    def test_generic_angle(self):
        theta = np.pi / 4
        p, q = pair_with_dims(0, 0, 0, 0, 2, [theta], seed=21)
        result = quotient_geodesic(p, q)
        assert abs(op_norm(result.segment.exponent) - theta) <= 1e-9
        assert result.unique

    def test_uniqueness_flag_from_gap(self):
        p, q = pair_with_dims(1, 1, 0, 0, 2, [0.8], seed=23)
        b1 = p + q - np.eye(p.shape[0])
        assert float(np.linalg.svd(b1, compute_uv=False)[-1]) >= 0.1
        assert quotient_geodesic(p, q).unique

    @pytest.mark.parametrize(
        "pair,index",
        [
            (pair_with_dims(1, 1, 0, 0, 2, [0.7], seed=3), (0, 0)),
            (pair_with_dims(1, 1, 0, 0, 2, [np.pi / 2 - 1e-6], seed=3), (0, 0)),
            ((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)), (1, 1)),
        ],
        ids=["angle-0.7", "near-half-pi", "crossed"],
    )
    def test_uniqueness_agrees_with_index(self, pair, index):
        # cos(pi/2 - 1e-6) = 1e-6 clears rank_rtol, so that pair is generic
        p, q = pair
        result = quotient_geodesic(p, q)
        finite = result.case is DichotomyCase.FINITE_FINITE
        assert index_pair(p, q) == index
        assert finite is (index == (0, 0))
        assert result.unique == unique_minimal_check(p, q).unique == finite

    def test_balanced_crossed_quotient(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.diag([0.0, 1.0]).astype(complex)
        result = quotient_geodesic(p, q)
        assert result.case is DichotomyCase.INFINITE_INFINITE
        assert not result.unique
        assert abs(op_norm(result.segment.exponent) - np.pi / 2) <= 1e-12

    def test_one_solve(self, monkeypatch):
        calls = []

        def counted(p, q, *args, **kwargs):
            calls.append((p, q))
            return halmos_decompose(p, q, *args, **kwargs)

        monkeypatch.setattr(blockmodel, "halmos_decompose", counted)
        p, q = pair_with_dims(1, 1, 0, 0, 2, [0.7], seed=3)
        result = quotient_geodesic(p, q)
        assert result.unique
        assert len(calls) == 1
        assert np.array_equal(result.segment.exponent, minimal_exponent(p, q).exponent)

    def test_mixed_raises(self):
        p = np.diag([1.0, 1.0, 0.0]).astype(complex)
        q = np.diag([1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(NoGeodesic):
            quotient_geodesic(p, q)

    def test_unbalanced_infinite_raises(self):
        # both crossed nullities positive but unequal: the dichotomy holds,
        # yet no block-periodic pairing exists
        p, q = pair_with_dims(0, 0, 2, 1, 0, [], seed=25)
        assert existence_dichotomy(p, q).exists
        with pytest.raises(NotPeriodic):
            quotient_geodesic(p, q)
