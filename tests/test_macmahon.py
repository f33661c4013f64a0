from fractions import Fraction

import pytest

from dtzero import (
    ORACLE_BOUND,
    PlanePartition,
    TruncatedSeries,
    count_plane_partitions,
    iter_plane_partitions,
    log_macmahon_neg_coeffs,
    macmahon_neg,
    macmahon_series,
    sigma2,
)

# A000219, confirmed below against the enumeration.
KNOWN_COUNTS = [1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500]


def product_oracle(order):
    """prod (1-q^n)^(-n) through the series ring's inverse and power: slow,
    and independent of the integer prefix sums in macmahon_series."""
    result = TruncatedSeries.one(order)
    for n in range(1, order + 1):
        factor = TruncatedSeries.one(order) - TruncatedSeries([0] * n + [1] + [0] * (order - n))
        result = result * factor ** (-n)
    return result


class TestOracle:
    def test_empty_partition(self):
        assert count_plane_partitions(0) == 1

    def test_single_box(self):
        assert count_plane_partitions(1) == 1

    def test_thirteen_of_four(self):
        assert count_plane_partitions(4) == 13

    def test_known_values(self):
        assert [count_plane_partitions(n) for n in range(11)] == KNOWN_COUNTS

    def test_count_agrees_with_materialized_enumeration(self):
        for n in range(9):
            pps = list(iter_plane_partitions(n))
            assert len(pps) == count_plane_partitions(n)
            assert len(set(pps)) == len(pps)
            assert all(pp.size() == n for pp in pps)

    def test_oracle_limit(self):
        assert count_plane_partitions(ORACLE_BOUND) == 696033  # A000219(25)
        with pytest.raises(ValueError, match="oracle limit exceeded"):
            count_plane_partitions(ORACLE_BOUND + 1)
        with pytest.raises(ValueError, match="oracle limit exceeded"):
            next(iter_plane_partitions(ORACLE_BOUND + 1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            count_plane_partitions(-1)


class TestPlanePartitionType:
    def test_heights_map(self):
        pp = PlanePartition(((3, 1), (1,)))
        assert pp.size() == 5
        assert pp.heights() == {(0, 0): 3, (0, 1): 1, (1, 0): 1}

    def test_row_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            PlanePartition(((1, 2),))

    def test_column_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            PlanePartition(((2, 2), (1, 2)))
        with pytest.raises(ValueError):
            PlanePartition(((1,), (1, 1)))

    def test_positive_heights(self):
        with pytest.raises(ValueError):
            PlanePartition(((1, 0),))


class TestSeries:
    def test_order_zero(self):
        assert macmahon_series(0) == TruncatedSeries.one(0)

    def test_matches_oracle(self):
        s = macmahon_series(10)
        assert [int(c) for c in s.coefficients] == KNOWN_COUNTS

    def test_q10_is_500(self):
        assert macmahon_series(10)[10] == 500

    def test_coefficients_positive(self):
        assert all(c > 0 for c in macmahon_series(12).coefficients)

    def test_matches_enumeration_to_oracle_bound(self):
        s = macmahon_series(ORACLE_BOUND)
        assert [s[n] for n in range(ORACLE_BOUND + 1)] == [
            count_plane_partitions(n) for n in range(ORACLE_BOUND + 1)
        ]

    @pytest.mark.parametrize("order", range(26))
    def test_matches_series_ring_product(self, order):
        assert macmahon_series(order) == product_oracle(order)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            macmahon_series(-1)

    @pytest.mark.parametrize("order", [2.0, "2", True, None])
    def test_non_integer_order_rejected(self, order):
        # the check of SetPartition's ground set size; True is not 1
        with pytest.raises(ValueError, match="order must be a non-negative integer"):
            macmahon_series(order)
        with pytest.raises(ValueError, match="order must be a non-negative integer"):
            macmahon_neg(order)

    def test_neg_signs(self):
        assert [int(c) for c in macmahon_neg(4).coefficients] == [1, -1, 3, -6, 13]

    def test_neg_constant_term(self):
        assert macmahon_neg(6)[0] == 1

    def test_neg_is_involution(self):
        assert macmahon_neg(8).negate_q() == macmahon_series(8)


class TestLogCoefficients:
    def test_first_three(self):
        ells = log_macmahon_neg_coeffs(3)
        assert ells[0] == -1
        assert ells[1] == Fraction(5, 2)
        assert ells[2] == Fraction(-10, 3)

    def test_closed_form_matches_series_log(self):
        # the closed form against its oracle, the series logarithm
        ells = log_macmahon_neg_coeffs(12)
        from_series = macmahon_neg(12).log1()
        assert all(from_series[k] == ells[k - 1] for k in range(1, 13))

    def test_closed_form_holds_to_order_40(self):
        ells = log_macmahon_neg_coeffs(40)
        assert len(ells) == 40 and ells[39] == Fraction(sigma2(40), 40)

    def test_sigma2(self):
        assert [sigma2(k) for k in range(1, 7)] == [1, 5, 10, 21, 26, 50]

    def test_requires_positive_order(self):
        with pytest.raises(ValueError):
            log_macmahon_neg_coeffs(0)


class TestRootIdentity:
    def test_cube_root_of_macmahon_power(self):
        # Extracting a cube root recovers M(-q)^K from M(-q)^(3K), K = -20.
        base = macmahon_neg(10)
        k = -20
        cube = base ** (3 * k)
        assert cube ** Fraction(1, 3) == base ** k
        assert (base ** Fraction(k, 3)) ** 3 == base ** k
