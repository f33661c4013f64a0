from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dtzero import (
    ChernNumbers,
    DTSeries,
    NonIntegralSpecError,
    SetPartition,
    ThreefoldSpec,
    TruncatedSeries,
    catalog,
    decompose,
    degrees,
    delta_transform,
    discrepancy_degrees,
    dt_rational_power,
    dt_series,
    macmahon_neg,
    multiplicativity_failures,
    partition_product_sum,
    reconstructed_coefficient,
    root_argument_failures,
    twist_exponent,
    universality_failures,
)

P3 = ThreefoldSpec.builtin("P3")
QUINTIC = ThreefoldSpec.builtin("quintic")
# twist exponent K = c3 - c1c2 = 1: its degrees are the universal lambda_k
K_ONE = ThreefoldSpec.explicit(ChernNumbers(0, 0, 1))


class TestDtSeries:
    def test_p3_head(self):
        d = dt_series(P3, 2)
        assert d.exponent == -20
        assert d.coefficients() == (1, 20, 150)

    def test_coefficients_are_the_checked_integers(self):
        d = DTSeries(TruncatedSeries([1, -3, 5]), 0)
        assert d.coefficients() == (1, -3, 5)
        assert all(type(c) is int for c in d.coefficients())

    def test_trivial_twist_gives_constant_series(self):
        spec = ThreefoldSpec.explicit(ChernNumbers(0, 0, 0))
        d = dt_series(spec, 5)
        assert d.exponent == 0
        assert d.coefficients() == (1, 0, 0, 0, 0, 0)

    def test_quintic_head(self):
        d = dt_series(QUINTIC, 1)
        assert d.exponent == -200
        assert d.coefficients() == (1, 200)

    def test_catalog_exponents(self):
        assert [dt_series(s, 0).exponent for s in catalog()] == [-20, -18, -16, -200]

    def test_integrality_through_order_twelve(self):
        for spec in catalog():
            d = dt_series(spec, 12)
            assert d.series.is_integral()
            assert d.series[0] == 1

    def test_calabi_yau_exponent_is_euler_characteristic(self):
        cy = ThreefoldSpec.explicit(ChernNumbers(0, 0, -200))
        d = dt_series(cy, 3)
        assert d.exponent == -200
        assert d.series == macmahon_neg(3) ** -200

    def test_non_integral_spec_rejected(self):
        third = ThreefoldSpec.scaled(Fraction(1, 3), P3)
        with pytest.raises(NonIntegralSpecError, match="not an honest threefold"):
            dt_series(third, 4)
        with pytest.raises(NonIntegralSpecError, match="not an honest threefold"):
            discrepancy_degrees(third, 3)

    @pytest.mark.parametrize("order", [2.0, True, -1])
    def test_order_must_be_a_non_negative_integer(self, order):
        with pytest.raises(ValueError, match="order must be a non-negative integer"):
            dt_series(P3, order)
        # discrepancy_degrees names its own argument, n_max
        with pytest.raises(ValueError, match="n_max must be a positive integer"):
            discrepancy_degrees(P3, order)


def sigma2_power(k, order):
    """The coefficients of M(-q)^k in integers, by n*b_n = k * sum_j (-1)^j sigma2(j) * b_(n-j)
    with sigma2(j) the sum of the squares of the divisors of j; an oracle for
    dt_series that shares no code with the series ring."""
    sigma2 = [0] + [sum(d * d for d in range(1, j + 1) if j % d == 0) for j in range(1, order + 1)]
    b = [1]
    for n in range(1, order + 1):
        total = k * sum((-1) ** j * sigma2[j] * b[n - j] for j in range(1, n + 1))
        assert total % n == 0
        b.append(total // n)
    return tuple(b)


class TestAgainstSigma2Recurrence:
    @pytest.mark.parametrize("spec", list(catalog()) + [ThreefoldSpec.hypersurface(d) for d in range(1, 10)],
                             ids=lambda spec: spec.label())
    def test_catalog_and_hypersurfaces_at_order_40(self, spec):
        d = dt_series(spec, 40)
        assert d.coefficients() == sigma2_power(d.exponent, 40)

    @pytest.mark.parametrize("k", [10**12, -10**12])
    def test_twist_exponent_cap_at_order_100(self, k):
        # K = c3 - c1c2 at the CLI's cap, each Chern number within its own
        spec = ThreefoldSpec.explicit(ChernNumbers(0, -k // 2, k // 2))
        d = dt_series(spec, 100)
        assert d.exponent == k
        assert d.coefficients() == sigma2_power(k, 100)


class TestRationalPower:
    def test_half_of_p3_squares_back(self):
        half = ThreefoldSpec.scaled(Fraction(1, 2), P3)
        series, exponent = dt_rational_power(half, 8)
        assert exponent == -10
        assert series == macmahon_neg(8) ** -10
        assert series ** 2 == dt_series(P3, 8).series

    def test_genuinely_fractional_exponent(self):
        third = ThreefoldSpec.scaled(Fraction(1, 3), P3)
        series, exponent = dt_rational_power(third, 6)
        assert exponent == Fraction(-20, 3)
        assert series ** 3 == dt_series(P3, 6).series


class TestMultiplicativity:
    def test_same_factor_twice(self):
        assert multiplicativity_failures(P3, P3, 10) == ()
        assert dt_series(ThreefoldSpec.disjoint_union([P3, P3]), 10).series == dt_series(P3, 10).series ** 2

    def test_mixed_factors(self):
        cube = ThreefoldSpec.builtin("P1xP1xP1")
        assert multiplicativity_failures(P3, cube, 10) == ()
        assert dt_series(ThreefoldSpec.disjoint_union([P3, cube]), 10).exponent == -36

    def test_a_wrong_union_names_the_pair(self, monkeypatch):
        specs = catalog()
        assert [multiplicativity_failures(a, b, 6) for a in specs for b in specs] == [()] * len(specs) ** 2
        # the union's series replaced by P3's: 20 at q^1, where the product has -K = 220
        real_dt_series = degrees.dt_series

        def wrong_union(spec, order):
            return real_dt_series(P3 if spec.kind == "disjoint_union" else spec, order)

        monkeypatch.setattr(degrees, "dt_series", wrong_union)
        assert multiplicativity_failures(P3, QUINTIC, 4) == ("P3 + quintic: q^1: union 20 vs product 220",)

    def test_empty_union_is_identity(self):
        empty = ThreefoldSpec.disjoint_union([])
        union = ThreefoldSpec.disjoint_union([P3])
        assert dt_series(union, 8).series == dt_series(P3, 8).series
        assert dt_series(empty, 8).coefficients() == (1,) + (0,) * 8

    def test_k_copies_is_kth_power(self):
        for k in (2, 3, 4):
            union = ThreefoldSpec.disjoint_union([P3] * k)
            assert dt_series(union, 8).series == dt_series(P3, 8).series ** k


class TestRootArgument:
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_catalog_roots(self, m):
        for spec in catalog():
            assert root_argument_failures(spec, m, 8) == ()

    def test_index_one(self):
        assert root_argument_failures(P3, 1, 6) == ()

    @pytest.mark.parametrize("m", [0, -3, 2.0, Fraction(1, 2), "2"])
    def test_bad_index_raises(self, m):
        # without the check, m = 0 would reach Fraction(1, 0)
        with pytest.raises(ValueError, match="positive integer"):
            root_argument_failures(P3, m, 4)

    def test_a_wrong_root_names_the_spec(self, monkeypatch):
        # every proper root half a unit off at q^2: not integral, and not the series
        real_pow = TruncatedSeries.__pow__

        def half_off_at_two(self, exponent):
            result = real_pow(self, exponent)
            if Fraction(exponent).denominator == 1:
                return result
            return TruncatedSeries(c + Fraction(k == 2, 2) for k, c in enumerate(result.coefficients))

        monkeypatch.setattr(TruncatedSeries, "__pow__", half_off_at_two)
        assert root_argument_failures(P3, 2, 4) == (
            "P3, m=2: the root is not integral: q^2: 301/2",
            "P3, m=2: the root is not the series: q^2: 301/2 vs 150",
        )
        assert root_argument_failures(P3, 1, 4) == ()

    def test_quintic_through_cobordism(self):
        # build the series from the generator powers of the decomposition
        # (m = 1), then compare against the direct computation
        dec = decompose(QUINTIC.resolve())
        assert dec.m == 1
        m1, m2, m3 = dec.integer_multiples()
        order = 8
        gens = [ThreefoldSpec.builtin(n) for n in ("P3", "P2xP1", "P1xP1xP1")]
        combined = (
            dt_series(gens[0], order).series ** m1
            * dt_series(gens[1], order).series ** m2
            * dt_series(gens[2], order).series ** m3
        )
        assert combined == dt_series(QUINTIC, order).series


class TestDiscrepancyDegrees:
    def test_p3_first_degrees(self):
        t = discrepancy_degrees(P3, 4)
        assert t[1] == 20
        assert t[2] == -100
        assert t[3] == 400
        assert t[4] == -2520

    def test_reconstruction_order_two(self):
        t = discrepancy_degrees(P3, 2)
        f2 = dt_series(P3, 2).series[2]
        assert factorial(2) * f2 == t[1] ** 2 + t[2]

    def test_partition_sum_matches_series(self):
        for spec in catalog():
            t = discrepancy_degrees(spec, 6)
            series = dt_series(spec, 6).series
            for n in range(1, 7):
                assert reconstructed_coefficient(t, n) == series[n]

    def test_partition_sum_explicit_n3(self):
        t = {1: 5, 2: -3, 3: 7}
        # partitions of [3]: bottom, three pairings, top
        assert partition_product_sum(t, 3) == 5 ** 3 + 3 * (-3 * 5) + 7

    def test_missing_block_size_is_named(self):
        # the lookup would otherwise end in a bare KeyError: 2
        with pytest.raises(ValueError, match="t is not defined on block size 2"):
            partition_product_sum({1: 1}, 2)
        with pytest.raises(ValueError, match="t is not defined on block size 3"):
            reconstructed_coefficient({1: 1, 2: 1, 4: 1}, 4)
        assert partition_product_sum({}, 0) == 1

    def test_degrees_via_delta_transform(self):
        # independent extraction: with F(beta) = prod over blocks of
        # (|b|! f_{|b|}), the top discrepancy on each lattice equals t_k
        for spec in (P3, QUINTIC):
            n_max = 5
            series = dt_series(spec, n_max).series
            t = discrepancy_degrees(spec, n_max)
            g = {k: factorial(k) * series[k] for k in range(1, n_max + 1)}

            def block_value(p):
                out = Fraction(1)
                for b in p.blocks:
                    out *= g[len(b)]
                return out

            for k in range(1, n_max + 1):
                top = SetPartition.whole(k)
                got = delta_transform(top, block_value)[top]
                assert got == t[k]

    def test_zero_exponent_gives_zero_degrees(self):
        spec = ThreefoldSpec.explicit(ChernNumbers(0, 0, 0))
        assert set(discrepancy_degrees(spec, 5).values()) == {0}


def series_log_degrees(spec, n_max):
    """t_k = k! [q^k] log DT_X(q) through the series ring: the oracle for the
    closed form in discrepancy_degrees."""
    logs = dt_series(spec, n_max).series.log1()
    return {k: factorial(k) * logs[k] for k in range(1, n_max + 1)}


class TestClosedFormAgainstSeriesLog:
    @pytest.mark.parametrize("spec", list(catalog()) + [ThreefoldSpec.hypersurface(d) for d in range(1, 10)],
                             ids=lambda spec: spec.label())
    def test_catalog_and_hypersurfaces_at_60(self, spec):
        assert discrepancy_degrees(spec, 60) == series_log_degrees(spec, 60)

    @pytest.mark.parametrize("k", [10**12, -10**12])
    def test_twist_exponent_cap_at_100(self, k):
        spec = ThreefoldSpec.explicit(ChernNumbers(0, -k // 2, k // 2))
        assert discrepancy_degrees(spec, 100) == series_log_degrees(spec, 100)

    @given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=1, max_value=20))
    @settings(max_examples=25, deadline=None)
    def test_drawn_exponents(self, k, n_max):
        spec = ThreefoldSpec.explicit(ChernNumbers(0, 0, k))
        assert discrepancy_degrees(spec, n_max) == series_log_degrees(spec, n_max)

    def test_no_series_is_built(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the closed form needs no series")

        monkeypatch.setattr(TruncatedSeries, "__pow__", unreachable)
        monkeypatch.setattr(TruncatedSeries, "log1", unreachable)
        assert discrepancy_degrees(ThreefoldSpec.builtin("P2xP1"), 4) == {1: 18, 2: -90, 3: 360, 4: -2268}


class TestUniversality:
    def test_catalog_proportionality(self):
        assert universality_failures(catalog(), 6) == ()
        assert discrepancy_degrees(K_ONE, 6) == {1: -1, 2: 5, 3: -20, 4: 126, 5: -624, 6: 6000}

    def test_degrees_scale_with_exponent(self):
        lambdas = discrepancy_degrees(K_ONE, 4)
        for spec in catalog():
            k_x = twist_exponent(spec.resolve())
            assert series_log_degrees(spec, 4) == {k: lam * k_x for k, lam in lambdas.items()}

    def test_single_spec(self):
        assert universality_failures([QUINTIC], 5) == ()
        assert dt_series(QUINTIC, 5).exponent == -200

    @given(st.integers(min_value=-30, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_synthetic_calabi_yau_family(self, chi):
        spec = ThreefoldSpec.explicit(ChernNumbers(0, 0, chi))
        assert universality_failures([spec], 4) == ()

    def test_a_wrong_series_names_the_spec(self, monkeypatch):
        # P3 given the quintic's series: each degree is ten times lambda_k * K(P3)
        real_dt_series = degrees.dt_series

        def quintic_series_for_p3(spec, order):
            d = real_dt_series(spec, order)
            return DTSeries(real_dt_series(QUINTIC, order).series, d.exponent) if spec == P3 else d

        monkeypatch.setattr(degrees, "dt_series", quintic_series_for_p3)
        assert universality_failures(catalog(), 3) == (
            "P3: t_1 = 200 but lambda_1*K = 20",
            "P3: t_2 = -1000 but lambda_2*K = -100",
            "P3: t_3 = 4000 but lambda_3*K = 400",
        )
