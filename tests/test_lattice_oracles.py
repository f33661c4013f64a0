"""SetPartition's restricted-growth representation, the down-set table,
delta_transform and classify_q_set against exhaustive oracles.

The oracles are the straightforward forms: order, meet, join and labels
computed from `.blocks` with frozenset operations alone; scan every
partition of {1..n} with `<=`, run the quadratic discrepancy recursion over
the scanned interval, and classify by computing the diagonal distance of
every partition from block means, where the library sums pair gaps.  They
are slow on purpose and share no code path with the table-driven library
functions beyond SetPartition itself.
"""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dtzero import (
    EpsilonSchedule,
    InadmissibleScheduleError,
    PointConfig,
    SetPartition,
    classify_q_set,
    delta_transform,
    in_discrepancy_set,
    partitions,
    strict_diagonal_distance_sq,
)
from dtzero.lattice import _down_sets


def oracle_refines(a, b):
    """Every block of a lies inside some block of b."""
    return all(any(x <= y for y in b.blocks) for x in a.blocks)


def oracle_meet(a, b):
    """The non-empty pairwise intersections of the blocks."""
    return frozenset(x & y for x in a.blocks for y in b.blocks if x & y)


def oracle_join(a, b):
    """Blocks of a, merged through each block of b that meets several."""
    groups = set(a.blocks)
    for y in b.blocks:
        touching = {g for g in groups if g & y}
        groups = (groups - touching) | {frozenset().union(*touching)}
    return frozenset(groups)


def oracle_labels(p):
    """Element i's block, numbered by the rank of the block's least element."""
    firsts = sorted(min(x) for x in p.blocks)
    return tuple(
        firsts.index(min(x)) for i in range(1, p.n + 1) for x in p.blocks if i in x
    )


def oracle_discrepancy(a, b, x):
    """The meet-routed definition: a pair related by a or by b, but not by
    their meet, whose points coincide."""
    if frozenset(a.blocks) == frozenset(b.blocks):
        return False
    common = oracle_meet(a, b)
    return any(
        x.point(i) == x.point(j) and not any({i, j} <= z for z in common)
        for p in (a, b)
        for block in p.blocks
        for i, j in combinations(sorted(block), 2)
    )


def oracle_interval(alpha):
    """Every partition below alpha, by a scan of the whole lattice."""
    return [b for b in partitions(alpha.n) if b <= alpha]


def oracle_delta_transform(alpha, fetch):
    """The quadratic recursion: every pair of the interval is compared."""
    interval = sorted(oracle_interval(alpha), key=lambda p: p.rank)
    delta = {}
    for beta in interval:
        acc = fetch(beta)
        for gamma in interval:
            if gamma < beta:
                acc = acc - delta[gamma]
        delta[beta] = acc
    return delta


def oracle_distance_sq(p, x):
    """Squared distance to the strict diagonal by projection: every point
    moved to its block's mean, the squared moves summed, with no pair gaps."""
    total = Fraction(0)
    for b in p.blocks:
        points = [x.point(e) for e in b]
        mean = [sum(axis, Fraction(0)) / len(points) for axis in zip(*points)]
        total += sum((u - m) ** 2 for point in points for u, m in zip(point, mean))
    return total


def oracle_classify(alpha, x, eps):
    """The maximal partitions below alpha whose neighborhood holds x."""
    candidates = [
        g for g in oracle_interval(alpha) if oracle_distance_sq(g, x) < eps.eps_sq(g)
    ]
    return [g for g in candidates if not any(g < h for h in candidates)]


def int_values(n):
    # a fixed, irregular integer F on every partition of {1..n}
    return {p: (7 * i * i - 13 * i + 5) % 101 - 50 for i, p in enumerate(partitions(n))}


class TestRepresentationOracle:
    @pytest.mark.parametrize("n", range(6))
    def test_every_pair(self, n):
        ps = partitions(n)
        for a in ps:
            assert a.labels() == oracle_labels(a)
            assert a.rank == n - len(a.blocks)
            assert [min(x) for x in a.blocks] == sorted(min(x) for x in a.blocks)
            for b in ps:
                same = frozenset(a.blocks) == frozenset(b.blocks)
                assert (a == b) == same
                assert not same or hash(a) == hash(b)
                assert (a <= b) == oracle_refines(a, b)
                assert frozenset(a.meet(b).blocks) == oracle_meet(a, b)
                assert frozenset(a.join(b).blocks) == oracle_join(a, b)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_discrepancy_every_two_site_configuration(self, n):
        sites = ((Fraction(0), Fraction(0), Fraction(0)), (Fraction(1), Fraction(0), Fraction(0)))
        ps = partitions(n)
        for x in map(PointConfig, product(sites, repeat=n)):
            for a in ps:
                for b in ps:
                    assert in_discrepancy_set(a, b, x) == oracle_discrepancy(a, b, x)


class TestDownSetTable:
    @pytest.mark.parametrize("n", range(7))
    def test_matches_scan(self, n):
        ps = partitions(n)
        index, down = _down_sets(n)
        for i, beta in enumerate(ps):
            assert index[beta.labels()] == i
            assert sorted(down[i]) == [j for j, g in enumerate(ps) if g < beta]

    @pytest.mark.parametrize("n", range(7))
    def test_rank_ordered(self, n):
        ps = partitions(n)
        _, down = _down_sets(n)
        for below in down:
            ranks = [ps[j].rank for j in below]
            assert ranks == sorted(ranks)

    def test_related_pair_counts(self):
        # A000258: pairs gamma <= beta in the partition lattice
        for n, pairs in ((5, 358), (6, 2471), (7, 19302)):
            _, down = _down_sets(n)
            assert sum(len(below) + 1 for below in down) == pairs

    def test_cached(self):
        assert _down_sets(5) is _down_sets(5)


class TestDeltaTransformOracle:
    def every_alpha(self, max_n=5):
        for n in range(max_n + 1):
            yield from partitions(n)

    def test_int_mapping_every_alpha(self):
        for alpha in self.every_alpha():
            values = int_values(alpha.n)
            assert delta_transform(alpha, values) == oracle_delta_transform(alpha, values.__getitem__)

    def test_callable_every_alpha(self):
        def f(p):
            return len(p.blocks) ** 3 - 4 * p.rank + sum(min(b) * len(b) for b in p.blocks)

        for alpha in self.every_alpha():
            assert delta_transform(alpha, f) == oracle_delta_transform(alpha, f)

    def test_fraction_values_every_alpha(self):
        for alpha in self.every_alpha():
            values = {p: Fraction(v, 1 + abs(v) % 7) for p, v in int_values(alpha.n).items()}
            got = delta_transform(alpha, values)
            assert got == oracle_delta_transform(alpha, values.__getitem__)
            assert all(isinstance(v, Fraction) for v in got.values())

    def test_whole_six(self):
        top = SetPartition.whole(6)
        values = int_values(6)
        got = delta_transform(top, values)
        assert got == oracle_delta_transform(top, values.__getitem__)
        assert list(got) == sorted(got, key=lambda p: p.rank)

    def test_missing_key_raises(self):
        alpha = SetPartition(4, ({1, 2}, {3, 4}))
        values = int_values(4)
        del values[SetPartition(4, ({1, 2}, {3}, {4}))]
        with pytest.raises(ValueError, match="not defined"):
            delta_transform(alpha, values)

    def test_key_outside_interval_not_needed(self):
        alpha = SetPartition(4, ({1, 2}, {3, 4}))
        values = {p: 1 for p in oracle_interval(alpha)}
        assert set(delta_transform(alpha, values)) == set(values)


@st.composite
def clustered_configs(draw, n):
    """n points on a few grid sites, or on an evenly spaced chain of sites;
    some sites sit a dyadic hair from another, so the configuration has
    coincident and near-coincident points."""
    site_count = draw(st.integers(min_value=1, max_value=n))
    if draw(st.booleans()):
        sites = [(Fraction(k, 2), Fraction(0), Fraction(0)) for k in range(site_count)]
    else:
        coord = st.integers(min_value=-2, max_value=2).map(lambda k: Fraction(k, 2))
        sites = [draw(st.tuples(coord, coord, coord)) for _ in range(site_count)]
    for s in range(1, site_count):
        if draw(st.booleans()):
            axis = draw(st.integers(min_value=0, max_value=2))
            near = list(sites[draw(st.integers(min_value=0, max_value=s - 1))])
            near[axis] += Fraction(draw(st.integers(min_value=1, max_value=8)), 1024)
            sites[s] = tuple(near)
    labels = draw(st.permutations([i % site_count for i in range(n)]))
    return PointConfig(tuple(sites[i] for i in labels))


@st.composite
def configs_with_schedules(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    x = draw(clustered_configs(n))
    if draw(st.booleans()):
        return x, EpsilonSchedule.default_for(x)
    # loose schedules too, so that the inadmissible branch is exercised
    c_sq = draw(st.sampled_from([Fraction(1), Fraction(1, 64), Fraction(4)]))
    ratio_sq = draw(st.sampled_from([Fraction(9, 4), Fraction(4), Fraction(256)]))
    return x, EpsilonSchedule(c_sq=c_sq, ratio_sq=ratio_sq)


def agree_below(alpha, x, eps):
    """Compare with the oracle below alpha; True when the schedule is inadmissible."""
    expected = oracle_classify(alpha, x, eps)
    if len(expected) == 1:
        assert classify_q_set(alpha, x, eps) == expected[0]
        return False
    with pytest.raises(InadmissibleScheduleError):
        classify_q_set(alpha, x, eps)
    return True


def agree_on_every_alpha(x, eps):
    """Compare with the oracle below every alpha; count the inadmissible cases."""
    return sum(agree_below(alpha, x, eps) for alpha in partitions(x.n))


class TestClassifyOracle:
    @given(configs_with_schedules())
    @settings(max_examples=60, deadline=None)
    def test_every_alpha(self, case):
        agree_on_every_alpha(*case)

    @given(configs_with_schedules(min_n=6, max_n=6))
    @settings(max_examples=20, deadline=None)
    def test_whole_six(self, case):
        # the benchmark's size: the top of the lattice of {1..6}
        x, eps = case
        agree_below(SetPartition.whole(6), x, eps)

    def test_every_chain_config_loose_schedule(self):
        # every placement of up to four points on three evenly spaced sites,
        # under a schedule loose enough that some answers are not unique
        sites = [(Fraction(k, 2), 0, 0) for k in range(3)]
        rejected = 0
        eps = EpsilonSchedule(c_sq=Fraction(1), ratio_sq=Fraction(9, 4))
        for n in range(1, 5):
            for x in map(PointConfig, product(sites, repeat=n)):
                rejected += agree_on_every_alpha(x, eps)
        assert rejected > 0

    @given(st.integers(min_value=1, max_value=6).flatmap(clustered_configs))
    @settings(max_examples=40, deadline=None)
    def test_distance_matches_block_mean_oracle(self, x):
        for p in partitions(x.n):
            assert strict_diagonal_distance_sq(p, x) == oracle_distance_sq(p, x)
