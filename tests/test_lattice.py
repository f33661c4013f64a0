import copy
import pickle
import random
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dtzero import (
    EpsilonSchedule,
    InadmissibleScheduleError,
    PointConfig,
    SetPartition,
    TruncatedSeries,
    alpha_factorial,
    classify_q_set,
    delta_transform,
    fiber_multiplicity_sum,
    in_discrepancy_set,
    multiplicative_delta_property,
    multiplicity,
    partitions,
    strict_diagonal_distance_sq,
)

from conftest import grid_configs, set_partitions
from test_lattice_oracles import oracle_classify


def P(n, *blocks):
    return SetPartition(n, blocks)


def config(*scalars):
    """1-D configurations embedded on the x-axis."""
    return PointConfig(tuple((Fraction(v), Fraction(0), Fraction(0)) for v in scalars))


def three_point_set():
    return (
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
    )


def all_configs(n, points):
    for combo in product(points, repeat=n):
        yield PointConfig(combo)


def bell_numbers(count):
    bells = [1]
    row = [1]
    for _ in range(count):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        bells.append(new[0])
        row = new
    return bells


class TestSetPartition:
    def test_canonical_form(self):
        assert P(3, {3}, {2, 1}) == P(3, {1, 2}, {3})
        assert P(3, {3}, {1, 2}).blocks[0] == frozenset({1, 2})

    def test_validation(self):
        with pytest.raises(ValueError, match="disjoint"):
            P(3, {1, 2}, {2, 3})
        with pytest.raises(ValueError, match="cover"):
            P(3, {1, 2})
        with pytest.raises(ValueError, match="non-empty"):
            SetPartition(2, ({1, 2}, frozenset()))

    @pytest.mark.parametrize("element", [1.5, 2.0, "1", True])
    def test_non_integer_elements_raise(self, element):
        with pytest.raises(ValueError, match="element must be an integer"):
            SetPartition(2, ({element, 2},))

    @pytest.mark.parametrize("n", [-1, 2.0, "2", True])
    def test_ground_set_size_must_be_a_non_negative_integer(self, n):
        # the bottom, the top and the whole lattice give the constructor's
        # error, before building a block
        for make in (lambda n: SetPartition(n, ()), SetPartition.singletons, SetPartition.whole, partitions):
            with pytest.raises(ValueError, match="non-negative integer"):
                make(n)

    def test_empty_ground_set(self):
        empty = partitions(0)[0]
        assert SetPartition.whole(0) == SetPartition.singletons(0) == empty
        assert empty.blocks == () and empty.labels() == () and empty.rank == 0

    def test_immutable_and_picklable(self):
        p = P(4, {1, 3}, {2}, {4})
        with pytest.raises(AttributeError):
            p.n = 5
        with pytest.raises(AttributeError):
            del p.blocks
        assert pickle.loads(pickle.dumps(p)) == p
        assert copy.deepcopy(p) == p and copy.copy(p) == p

    def test_distinguished_elements(self):
        assert SetPartition.singletons(3) == P(3, {1}, {2}, {3})
        assert SetPartition.whole(3) == P(3, {1, 2, 3})
        assert SetPartition.whole(3).rank == 2
        assert SetPartition.singletons(3).rank == 0

    def test_bell_counts(self):
        bells = bell_numbers(6)
        for n in range(7):
            assert len(partitions(n)) == bells[n]


class TestOrder:
    def test_bottom_below_everything(self):
        for beta in partitions(4):
            assert SetPartition.singletons(4) <= beta

    def test_top_above_everything(self):
        for beta in partitions(4):
            assert beta <= SetPartition.whole(4)

    def test_refinement_example(self):
        assert P(3, {1}, {2}, {3}) <= P(3, {1, 2}, {3})
        assert not P(3, {1, 2}, {3}) <= P(3, {1}, {2}, {3})

    def test_ground_set_mismatch(self):
        with pytest.raises(ValueError, match="ground sets differ"):
            SetPartition.whole(3) <= SetPartition.whole(4)

    def test_reflected_comparisons(self):
        # >= and > are Python's reflections of <= and <
        fine, coarse = P(3, {1}, {2}, {3}), P(3, {1, 2}, {3})
        assert coarse >= fine and coarse > fine and coarse >= coarse
        assert not fine >= coarse and not coarse > coarse
        for compare in (lambda a, b: a >= b, lambda a, b: a > b):
            with pytest.raises(ValueError, match="ground sets differ"):
                compare(SetPartition.whole(4), SetPartition.singletons(3))


class TestMeetJoin:
    def test_meet_idempotent(self):
        alpha = P(4, {1, 2}, {3, 4})
        assert alpha.meet(alpha) == alpha

    def test_top_is_meet_identity(self):
        for beta in partitions(4):
            assert SetPartition.whole(4).meet(beta) == beta

    def test_crossing_pairs_meet_to_bottom(self):
        got = P(4, {1, 2}, {3, 4}).meet(P(4, {1, 3}, {2, 4}))
        assert got == SetPartition.singletons(4)

    def test_bottom_is_join_identity(self):
        for beta in partitions(4):
            assert SetPartition.singletons(4).join(beta) == beta

    def test_join_chains(self):
        assert P(3, {1, 2}, {3}).join(P(3, {2, 3}, {1})) == SetPartition.whole(3)

    def test_lattice_axioms_exhaustive(self):
        for n in range(1, 6):
            ps = partitions(n)
            for a in ps:
                for b in ps:
                    assert a.meet(b) == b.meet(a)
                    assert a.join(b) == b.join(a)
                    assert a.meet(a.join(b)) == a
                    assert a.join(a.meet(b)) == a
                    assert a.meet(b) <= a and a.meet(b) <= b
                    assert a <= a.join(b) and b <= a.join(b)

    def test_meet_join_associative_n4(self):
        ps = partitions(4)
        for a in ps:
            for b in ps:
                for c in ps:
                    assert a.meet(b.meet(c)) == a.meet(b).meet(c)
                    assert a.join(b.join(c)) == a.join(b).join(c)

    @given(set_partitions(5), set_partitions(5), set_partitions(5))
    @settings(max_examples=150, deadline=None)
    def test_meet_join_associative_n5_sampled(self, a, b, c):
        assert a.meet(b.meet(c)) == a.meet(b).meet(c)
        assert a.join(b.join(c)) == a.join(b).join(c)

    def test_diagonal_intersection_is_join(self):
        # membership in both strict diagonals == membership in the join's
        two = (Fraction(0), Fraction(1))
        for x in all_configs(4, tuple((v, Fraction(0), Fraction(0)) for v in two)):
            for a in partitions(4):
                for b in partitions(4):
                    in_a = strict_diagonal_distance_sq(a, x) == 0
                    in_b = strict_diagonal_distance_sq(b, x) == 0
                    in_join = strict_diagonal_distance_sq(a.join(b), x) == 0
                    assert (in_a and in_b) == in_join


class TestAlphaFactorial:
    def test_singletons(self):
        assert alpha_factorial(SetPartition.singletons(5)) == 1

    def test_whole(self):
        assert alpha_factorial(SetPartition.whole(3)) == 6

    def test_product_of_block_factorials(self):
        assert alpha_factorial(P(5, {1, 2}, {3, 4, 5})) == 12


class TestMultiplicity:
    def test_top_fixing_doubled_point(self):
        assert multiplicity(SetPartition.whole(2), config(0, 0)) == 2

    def test_bottom_is_always_one(self):
        assert multiplicity(SetPartition.singletons(2), config(0, 0)) == 1
        assert multiplicity(SetPartition.singletons(4), config(0, 0, 1, 1)) == 1

    def test_top_with_distinct_points(self):
        assert multiplicity(SetPartition.whole(2), config(0, 1)) == 1

    def test_indexed_blocks_not_permuted(self):
        # the swap maps block {1} to block {2}; it must not count even
        # though it preserves the partition as a set of blocks
        assert multiplicity(P(2, {1}, {2}), config(0, 0)) == 1

    def test_ground_set_mismatch(self):
        with pytest.raises(ValueError):
            multiplicity(SetPartition.whole(3), config(0, 0))

    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(set_partitions(n), grid_configs(n, span=2))))
    @settings(max_examples=60, deadline=None)
    def test_against_full_symmetric_group_scan(self, case):
        # oracle: scan all of Sym(n) for permutations that preserve every
        # indexed block and fix the configuration
        alpha, x = case
        n = alpha.n
        count = 0
        for sigma in permutations(range(1, n + 1)):
            preserves = all(
                frozenset(sigma[e - 1] for e in b) == b for b in alpha.blocks
            )
            fixes = all(x.point(sigma[e - 1]) == x.point(e) for e in range(1, n + 1))
            if preserves and fixes:
                count += 1
        assert multiplicity(alpha, x) == count


class TestFiberMultiplicitySum:
    def test_doubled_point(self):
        assert fiber_multiplicity_sum(SetPartition.whole(2), config(0, 0)) == 2

    def test_distinct_points(self):
        assert fiber_multiplicity_sum(SetPartition.whole(2), config(0, 1)) == 2

    def test_bottom(self):
        assert fiber_multiplicity_sum(SetPartition.singletons(3), config(0, 1, 2)) == 1

    def test_exhaustive_small(self):
        # every partition, every configuration over a 2-point set, n <= 4
        two = tuple((v, Fraction(0), Fraction(0)) for v in (Fraction(0), Fraction(1)))
        for n in range(1, 5):
            for x in all_configs(n, two):
                for alpha in partitions(n):
                    assert fiber_multiplicity_sum(alpha, x) == alpha_factorial(alpha)


class TestDiscrepancySet:
    def test_coincident_pair(self):
        assert in_discrepancy_set(
            SetPartition.singletons(2), SetPartition.whole(2), config(0, 0)
        )

    def test_distinct_pair(self):
        assert not in_discrepancy_set(
            SetPartition.singletons(2), SetPartition.whole(2), config(0, 1)
        )

    def test_equal_partitions_never(self):
        for x in (config(0, 0), config(0, 1)):
            for alpha in partitions(2):
                assert not in_discrepancy_set(alpha, alpha, x)

    def test_symmetric(self):
        a, b = P(3, {1, 2}, {3}), P(3, {1, 3}, {2})
        x = config(0, 0, 1)
        assert in_discrepancy_set(a, b, x) == in_discrepancy_set(b, a, x)

    def test_incomparable_pair_routes_through_meet(self):
        a, b = P(3, {1, 2}, {3}), P(3, {1, 3}, {2})
        # meet is the bottom; 1~2 under a with x1 = x2 coinciding
        assert in_discrepancy_set(a, b, config(5, 5, 0))
        # no pair related by exactly one side coincides here
        assert not in_discrepancy_set(a, b, config(0, 1, 2))


class TestDiagonalDistance:
    def test_zero_on_diagonal(self):
        x = config(3, 3, 3)
        assert strict_diagonal_distance_sq(SetPartition.whole(3), x) == 0

    def test_bottom_distance_is_zero(self):
        assert strict_diagonal_distance_sq(SetPartition.singletons(3), config(0, 5, 9)) == 0

    def test_two_points(self):
        x = config(0, 2)
        assert strict_diagonal_distance_sq(SetPartition.whole(2), x) == 2

    def test_exact_rational(self):
        x = config(0, 1, 1)
        got = strict_diagonal_distance_sq(SetPartition.whole(3), x)
        assert got == Fraction(2, 3)


class TestEpsilonSchedule:
    def test_radii_below_bound_and_ratio(self):
        sched = EpsilonSchedule(c_sq=Fraction(1, 64), ratio_sq=Fraction(256))
        for a in partitions(4):
            assert 0 < sched.eps_sq(a) < sched.c_sq
            for b in partitions(4):
                if b < a:
                    assert sched.eps_sq(a) >= sched.ratio_sq * sched.eps_sq(b)

    def test_default_ties_c_to_min_gap(self):
        x = config(0, 8)
        sched = EpsilonSchedule.default_for(x)
        assert sched.c_sq == Fraction(64, 64)

    def test_coincident_configuration_gets_a_schedule(self):
        sched = EpsilonSchedule.default_for(config(1, 1, 1))
        assert sched.c_sq == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            EpsilonSchedule(c_sq=0, ratio_sq=4)
        with pytest.raises(ValueError):
            EpsilonSchedule(c_sq=1, ratio_sq=1)

    def test_radius_by_block_count_is_radius_by_rank(self):
        # the radius by rank, c^2 * R^(2*(rank - n)), is the oracle: rank - n = -|blocks|
        hand_built = [EpsilonSchedule(Fraction(1, 64), 256), EpsilonSchedule(Fraction(5, 3), Fraction(9, 4))]
        for n in range(7):
            spread, clustered = config(*range(0, 3 * n, 3)), config(*(k // 2 for k in range(n)))
            for sched in [EpsilonSchedule.default_for(spread), EpsilonSchedule.default_for(clustered), *hand_built]:
                for p in partitions(n):
                    assert sched.eps_sq(p) == sched.c_sq * sched.ratio_sq ** (p.rank - p.n)


class TestClassify:
    def test_far_apart_classifies_to_bottom(self):
        x = config(0, 100, 200)
        sched = EpsilonSchedule.default_for(x)
        assert classify_q_set(SetPartition.whole(3), x, sched) == SetPartition.singletons(3)

    def test_exact_diagonal_classifies_to_top(self):
        x = config(7, 7, 7)
        sched = EpsilonSchedule.default_for(x)
        assert classify_q_set(SetPartition.whole(3), x, sched) == SetPartition.whole(3)

    def test_near_pair_with_wide_schedule(self):
        # delta = 1/1024 below the pair radius 1/256; the third point far away
        sched = EpsilonSchedule(c_sq=Fraction(1), ratio_sq=Fraction(256))
        x = config(0, Fraction(1, 1024), 100)
        assert classify_q_set(SetPartition.whole(3), x, sched) == P(3, {1, 2}, {3})

    def test_alpha_restricts_candidates(self):
        x = config(0, 0, 0)
        sched = EpsilonSchedule.default_for(x)
        alpha = P(3, {1, 2}, {3})
        assert classify_q_set(alpha, x, sched) == alpha

    def test_loose_schedule_is_rejected(self):
        # two incomparable near-diagonals within radius but their join out of
        # reach: no unique deepest candidate
        sched = EpsilonSchedule(c_sq=Fraction(1), ratio_sq=Fraction(9, 4))
        x = config(0, Fraction(1, 2), 1)
        with pytest.raises(InadmissibleScheduleError, match="inadmissible"):
            classify_q_set(SetPartition.whole(3), x, sched)

    @pytest.mark.parametrize("points, expected", [
        # 12: distance and radius both 1/2, and a neighborhood is open
        ([(0, 0, 0), (1, 0, 0)], P(2, {1}, {2})),
        # 12|34: the deviations 1/8 + 1/8 reach the radius 1/4 exactly at the
        # last block, and 12|3|4, 1|2|34 sit on their radius 1/8
        ([(0, 0, 0), (Fraction(1, 2), 0, 0), (10, 0, 0), (Fraction(21, 2), 0, 0)], P(4, {1}, {2}, {3}, {4})),
        # 12|34: block 12 alone reaches the radius 1/4, before block 34
        ([(0, 0, 0), (Fraction(1, 2), Fraction(1, 2), 0), (10, 0, 0), (Fraction(41, 4), 0, 0)],
         P(4, {1}, {2}, {3, 4})),
    ])
    def test_distance_equal_to_radius_is_outside(self, points, expected):
        x, sched = PointConfig(points), EpsilonSchedule(c_sq=1, ratio_sq=2)
        top = SetPartition.whole(x.n)
        assert oracle_classify(top, x, sched) == [expected]
        assert classify_q_set(top, x, sched) == expected

    @given(st.integers(min_value=2, max_value=4).flatmap(
        lambda n: grid_configs(n)))
    @settings(max_examples=120, deadline=None)
    def test_partition_property_default_schedule(self, x):
        sched = EpsilonSchedule.default_for(x)
        top = SetPartition.whole(x.n)
        beta = classify_q_set(top, x, sched)
        # membership in any diagonal neighborhood forces beta above it
        for gamma in partitions(x.n):
            if strict_diagonal_distance_sq(gamma, x) < sched.eps_sq(gamma):
                assert gamma <= beta

    @given(st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.tuples(grid_configs(n),
                            st.sampled_from([4, 9, 16]),
                            st.integers(min_value=1, max_value=4))))
    @settings(max_examples=80, deadline=None)
    def test_partition_property_shrunk_schedules(self, case):
        # any admissible schedule at or below the default scale still
        # classifies uniquely
        x, ratio, shrink = case
        gap_sq = x.min_gap_sq()
        c_sq = (gap_sq if gap_sq is not None else Fraction(1)) / (64 * shrink)
        sched = EpsilonSchedule(c_sq=c_sq, ratio_sq=Fraction(ratio) ** 2)
        top = SetPartition.whole(x.n)
        beta = classify_q_set(top, x, sched)
        for gamma in partitions(x.n):
            if strict_diagonal_distance_sq(gamma, x) < sched.eps_sq(gamma):
                assert gamma <= beta


def recursive_moebius(a, b, universe):
    """mu(a, b) on the interval [a, b], straight from the defining recursion."""
    if a == b:
        return 1
    return -sum(
        recursive_moebius(a, c, universe) for c in universe if a <= c and c < b
    )


class TestDeltaTransform:
    def test_constant_on_two_elements(self):
        top = SetPartition.whole(2)
        values = {p: 7 for p in partitions(2)}
        deltas = delta_transform(top, values)
        assert deltas[SetPartition.singletons(2)] == 7
        assert deltas[top] == 0

    def test_zeta_on_three_elements(self):
        top = SetPartition.whole(3)
        deltas = delta_transform(top, {p: 1 for p in partitions(3)})
        assert deltas[top] == 0
        assert sum(deltas.values()) == 1

    def test_point_mass_extracts_moebius(self):
        for n in range(1, 7):
            bottom = SetPartition.singletons(n)
            point_mass = {p: (1 if p == bottom else 0) for p in partitions(n)}
            got = delta_transform(SetPartition.whole(n), point_mass)[SetPartition.whole(n)]
            assert got == (-1) ** (n - 1) * factorial(n - 1)

    def test_point_mass_matches_recursive_moebius(self):
        for n in range(1, 6):
            universe = partitions(n)
            bottom = SetPartition.singletons(n)
            point_mass = {p: (1 if p == bottom else 0) for p in universe}
            deltas = delta_transform(SetPartition.whole(n), point_mass)
            for beta in universe:
                assert deltas[beta] == recursive_moebius(bottom, beta, universe)

    def test_restricted_interval(self):
        alpha = P(4, {1, 2}, {3, 4})
        values = {p: 1 for p in partitions(4)}
        deltas = delta_transform(alpha, values)
        assert set(deltas) == {p for p in partitions(4) if p <= alpha}

    def test_missing_values_raise(self):
        top = SetPartition.whole(3)
        with pytest.raises(ValueError, match="not defined"):
            delta_transform(top, {top: 1})

    @given(st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_inverts_summation_integers(self, n, data):
        values = {
            p: data.draw(st.integers(min_value=-50, max_value=50))
            for p in partitions(n)
        }
        deltas = delta_transform(SetPartition.whole(n), values)
        for beta in partitions(n):
            assert sum(deltas[g] for g in partitions(n) if g <= beta) == values[beta]

    def test_inverts_summation_series_values(self):
        # the transform is generic over abelian groups; run it on series
        rng = random.Random(5)
        n = 4
        values = {
            p: TruncatedSeries([rng.randint(-9, 9) for _ in range(4)])
            for p in partitions(n)
        }
        deltas = delta_transform(SetPartition.whole(n), values)
        for beta in partitions(n):
            total = TruncatedSeries.zero(3)
            for g in partitions(n):
                if g <= beta:
                    total = total + deltas[g]
            assert total == values[beta]


class TestDeltaMultiplicativity:
    def test_two_elements_by_construction(self):
        t = {1: 3, 2: -4}
        assert multiplicative_delta_property(t, 2)

    def test_exhaustive_on_four_elements(self):
        rng = random.Random(11)
        for _ in range(5):
            t = {k: rng.randint(-9, 9) for k in range(1, 5)}
            assert multiplicative_delta_property(t, 4)

    def test_degenerate_vanishing(self):
        # t zero beyond singletons: delta vanishes off the bottom, so the
        # factorization is trivially exact
        t = {1: 2, 2: 0, 3: 0, 4: 0}
        assert multiplicative_delta_property(t, 4)

    @given(st.dictionaries(st.integers(min_value=1, max_value=4),
                           st.integers(min_value=-20, max_value=20),
                           min_size=4, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_random_values(self, t):
        assert multiplicative_delta_property(t, 4)

    def test_rational_values(self):
        t = {1: Fraction(1, 2), 2: Fraction(-3, 7), 3: Fraction(5, 3), 4: Fraction(0)}
        assert multiplicative_delta_property(t, 4)

    def test_missing_block_size_is_named(self):
        # the lookup would otherwise end in a bare KeyError: 2
        with pytest.raises(ValueError, match="t is not defined on block size 2"):
            multiplicative_delta_property({1: 1}, 3)
        with pytest.raises(ValueError, match="t is not defined on block size 4"):
            multiplicative_delta_property({1: 1, 2: 1, 3: 1}, 4)
