from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dtzero import OrderMismatchError, TruncatedSeries

from conftest import rationals, series, series_pair, series_triple


def S(*coeffs, order=None):
    """The series with these coefficients, zero-padded up to `order` when given."""
    return TruncatedSeries(coeffs + (0,) * (0 if order is None else order + 1 - len(coeffs)))


def exp0(a):
    """exp(a) for a series with constant term 0, as the Taylor sum of a^k/k!
    for k up to the order (a^k starts at q^k); an oracle for log1."""
    if a[0] != 0:
        raise ValueError("exp0 requires constant term 0")
    term = total = TruncatedSeries.one(a.order)
    for k in range(1, a.order + 1):
        term = term * a * Fraction(1, k)
        total = total + term
    return total


class TestConstruction:
    def test_orders(self):
        assert S(1, 2, 3).order == 2
        assert TruncatedSeries.one(5).order == 5
        assert TruncatedSeries.zero(0).coefficients == (Fraction(0),)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            TruncatedSeries([1.5, 0])

    def test_equality_requires_same_order(self):
        assert S(1, 0) != S(1, 0, 0)


class TestAdd:
    def test_cancellation(self):
        assert S(1, 1) + S(1, -1) == S(2, 0)

    def test_zero_identity(self):
        s = S(3, -2, Fraction(1, 2))
        assert TruncatedSeries.zero(2) + s == s

    def test_direct_sum(self):
        assert S(1, 0, 3) + S(0, 2, 1) == S(1, 2, 4)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            S(1, 0) + S(1, 0, 0)


class TestMul:
    def test_difference_of_squares(self):
        assert S(1, 1, order=2) * S(1, -1, order=2) == S(1, 0, -1)

    def test_one_identity(self):
        s = S(2, -5, Fraction(7, 3), 1)
        assert s * TruncatedSeries.one(3) == s

    def test_truncated_square(self):
        assert S(1, 1, 1) * S(1, 1, 1) == S(1, 2, 3)

    def test_scalar(self):
        assert 3 * S(1, -1) == S(3, -3)
        assert S(1, -1) * Fraction(1, 2) == S(Fraction(1, 2), Fraction(-1, 2))

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            S(1, 1) * S(1, 1, 1)


class TestInverse:
    def test_geometric(self):
        assert S(1, -1, order=5).inverse() == S(1, 1, 1, 1, 1, 1)

    def test_one(self):
        assert TruncatedSeries.one(4).inverse() == TruncatedSeries.one(4)

    def test_alternating(self):
        assert S(1, 1, order=4).inverse() == S(1, -1, 1, -1, 1)

    def test_non_unit(self):
        with pytest.raises(ValueError, match="not a unit"):
            S(0, 1).inverse()


class TestIntPow:
    def test_zeroth_power(self):
        assert S(1, 1, order=3) ** 0 == TruncatedSeries.one(3)

    def test_negative_geometric(self):
        assert S(1, -1, order=4) ** -1 == S(1, 1, 1, 1, 1)

    def test_binomial_cube(self):
        assert S(1, 1, order=3) ** 3 == S(1, 3, 3, 1)

    def test_negative_power_of_non_unit(self):
        with pytest.raises(ValueError, match="not a unit"):
            S(0, 1) ** -2

    def test_non_integer_exponent(self):
        # a Fraction is a valid exponent; a float or a string is not
        for exponent in (0.5, 2.0, "1/2"):
            with pytest.raises(TypeError):
                S(1, 1) ** exponent


def power_by_products(a, k):
    """a**k for k >= 0 as k products; an oracle for __pow__."""
    total = TruncatedSeries.one(a.order)
    for _ in range(k):
        total = total * a
    return total


def inverse_by_division(a):
    """1/a for a unit by long division, b_0 = 1/a_0 and
    b_m = -sum_{j=1..m} a_j*b_{m-j} / a_0; an oracle for inverse()."""
    b = [1 / a[0]]
    for m in range(1, a.order + 1):
        b.append(-sum(a[j] * b[m - j] for j in range(1, m + 1)) / a[0])
    return TruncatedSeries(b)


@st.composite
def units(draw, max_order=10):
    """Series whose constant term is neither 0 nor 1, so that a_0^K and the
    division by a_0 in the power recurrence are both exercised."""
    a = list(draw(series(max_order=max_order)).coefficients)
    a[0] = draw(rationals(bound=3, max_denominator=5).filter(lambda c: c not in (0, 1)))
    return TruncatedSeries(a)


class TestPowAgainstProducts:
    @given(units(), st.integers(min_value=0, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_non_negative_power_of_a_unit(self, a, k):
        assert a ** k == power_by_products(a, k)

    @given(units(), st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_negative_power_of_a_unit(self, a, k):
        assert a ** -k == power_by_products(inverse_by_division(a), k)

    @given(units(max_order=6))
    @settings(max_examples=40, deadline=None)
    def test_inverse_is_long_division(self, a):
        assert a.inverse() == inverse_by_division(a)

    @given(units(max_order=8), st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=8),
           st.integers(min_value=2, max_value=16))
    @settings(max_examples=80, deadline=None)
    def test_power_of_a_non_unit(self, u, v, k, order):
        # q^v * u, with v*k on either side of the order
        a = TruncatedSeries(([0] * v + list(u.coefficients) + [0] * order)[:order + 1])
        assert a ** k == power_by_products(a, k)

    @pytest.mark.parametrize("v, k, order", [(1, 5, 5), (2, 3, 6), (3, 2, 5), (1, 7, 6), (5, 1, 4)],
                             ids=["vk=N", "vk=N-even", "vk<N", "vk=N+1", "v>N"])
    def test_shift_at_the_order(self, v, k, order):
        a = S(*([0] * v + [2, -1, Fraction(1, 3)]))
        a = TruncatedSeries((list(a.coefficients) + [0] * order)[:order + 1])
        assert a ** k == power_by_products(a, k)
        assert (a ** k == TruncatedSeries.zero(order)) == (v * k > order)

    def test_zero_series(self):
        zero = TruncatedSeries.zero(4)
        assert zero ** 0 == TruncatedSeries.one(4)
        assert zero ** 1 == zero ** 3 == zero
        with pytest.raises(ValueError, match="not a unit"):
            zero ** -1

    def test_zero_order_series(self):
        assert S(Fraction(2, 3)) ** -3 == S(Fraction(27, 8))
        assert S(0) ** 2 == S(0) and S(0) ** 0 == S(1)
        assert S(1) ** Fraction(-5, 7) == S(1)

    @given(series(constant=1, max_order=8), st.integers(min_value=-6, max_value=6),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=80, deadline=None)
    def test_rational_power_of_a_one_series(self, a, p, m):
        # (a^(p/m))^m = a^p, both sides built from repeated products
        a_to_p = power_by_products(a if p >= 0 else inverse_by_division(a), abs(p))
        assert power_by_products(a ** Fraction(p, m), m) == a_to_p

    @given(units(max_order=8), st.integers(min_value=-6, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_integral_fraction_is_its_int(self, a, k):
        assert a ** Fraction(k) == a ** k == a ** Fraction(2 * k, 2)


class TestLogExp:
    def test_log_of_one(self):
        assert TruncatedSeries.one(4).log1() == TruncatedSeries.zero(4)

    def test_mercator(self):
        got = S(1, -1, order=4).log1()
        assert got == TruncatedSeries(
            [0, -1, Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 4)]
        )

    def test_exp_of_zero(self):
        assert exp0(TruncatedSeries.zero(4)) == TruncatedSeries.one(4)

    def test_exp_of_q(self):
        got = exp0(S(0, 1, order=4))
        assert got == TruncatedSeries(
            [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]
        )

    def test_log_requires_constant_one(self):
        with pytest.raises(ValueError):
            S(2, 1).log1()

    def test_exp_requires_constant_zero(self):
        with pytest.raises(ValueError):
            exp0(S(1, 1))


class TestRoot:
    def test_square_root_of_square(self):
        sq = S(1, 1, order=4) ** 2
        assert sq ** Fraction(1, 2) == S(1, 1, order=4)

    def test_index_one_is_identity(self):
        s = S(1, 4, -7, Fraction(2, 3))
        assert s ** Fraction(1, 1) == s

    def test_requires_constant_one(self):
        for base in (S(2, 1), S(0, 1), TruncatedSeries.zero(3)):
            with pytest.raises(ValueError, match="constant term 1"):
                base ** Fraction(1, 2)

    def test_rejects_bad_index(self):
        # p/1 is no root index but the int p: it needs no constant term 1,
        # and a negative one still needs a unit
        assert S(0, 2, 1, order=5) ** Fraction(4, 2) == S(0, 2, 1, order=5) ** 2
        with pytest.raises(ValueError, match="not a unit"):
            S(0, 1) ** Fraction(-2)


class TestIntegrality:
    def test_integral(self):
        assert S(1, -3, 5).is_integral()

    def test_not_integral(self):
        assert not S(1, Fraction(1, 2)).is_integral()

    def test_negate_q_is_involution(self):
        s = S(1, 2, 3, 4)
        assert s.negate_q() == S(1, -2, 3, -4)
        assert s.negate_q().negate_q() == s


class TestRingAxioms:
    @given(series_triple())
    @settings(max_examples=60, deadline=None)
    def test_add_mul_axioms(self, triple):
        a, b, c = triple
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(series(constant=1))
    @settings(max_examples=40, deadline=None)
    def test_inverse_is_inverse(self, a):
        assert a * a.inverse() == TruncatedSeries.one(a.order)

    @given(series(constant=1, max_order=8),
           st.integers(min_value=-4, max_value=4),
           st.integers(min_value=-4, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_pow_additivity(self, a, e1, e2):
        assert a ** (e1 + e2) == (a ** e1) * (a ** e2)

    @given(series(constant=1, max_order=8), st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_root_of_power(self, a, m):
        assert (a ** m) ** Fraction(1, m) == a

    @given(series(constant=1, max_order=12))
    @settings(max_examples=40, deadline=None)
    def test_exp_log_roundtrip(self, a):
        assert exp0(a.log1()) == a

    @given(series(constant=0, max_order=12))
    @settings(max_examples=40, deadline=None)
    def test_log_exp_roundtrip(self, a):
        assert exp0(a).log1() == a
