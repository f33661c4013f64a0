from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import dtzero.cobordism

from dtzero import (
    ChernNumbers,
    decompose,
    generator_chern_numbers,
    generator_determinant,
    generator_matrix,
    twist_exponent,
    verify_exponent_identity,
)

from conftest import chern_triples


class TestGenerators:
    def test_columns(self):
        assert tuple((g.c111, g.c12, g.c3) for g in generator_chern_numbers()) == (
            (64, 24, 4),
            (54, 24, 6),
            (48, 24, 8),
        )

    def test_matrix_layout(self):
        assert generator_matrix() == ((64, 54, 48), (24, 24, 24), (4, 6, 8))

    def test_determinant(self):
        assert generator_determinant() == 192

    def test_generator_twists(self):
        assert [twist_exponent(g) for g in generator_chern_numbers()] == [-20, -18, -16]


class TestDecompose:
    def test_generators_decompose_to_units(self):
        units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        for g, unit in zip(generator_chern_numbers(), units):
            dec = decompose(g)
            assert dec.coefficients == unit
            assert dec.m == 1

    def test_union_of_first_two_generators(self):
        dec = decompose(ChernNumbers(118, 48, 10))
        assert dec.coefficients == (1, 1, 0)
        assert dec.m == 1

    def test_union_of_all_generators(self):
        total = ChernNumbers(64 + 54 + 48, 72, 18)
        assert decompose(total).coefficients == (1, 1, 1)

    def test_quintic(self):
        dec = decompose(ChernNumbers(0, 0, -200))
        assert dec.coefficients == (-150, 400, -250)
        assert dec.m == 1
        assert dec.integer_multiples() == (-150, 400, -250)
        # cross-check the c3 row: 4*(-150) + 6*400 + 8*(-250) = -200
        assert 4 * -150 + 6 * 400 + 8 * -250 == -200

    def test_fractional_denominator(self):
        dec = decompose(ChernNumbers(1, 0, 0))
        assert dec.m > 1
        assert dec.reconstruct() == ChernNumbers(1, 0, 0)
        m1, m2, m3 = dec.integer_multiples()
        assert (m1, m2, m3) == tuple(dec.m * r for r in dec.coefficients)

    def test_singular_generator_matrix_is_refused(self, monkeypatch):
        monkeypatch.setattr(dtzero.cobordism, "generator_matrix", lambda: ((1, 2, 3), (2, 4, 6), (0, 1, 1)))
        with pytest.raises(ArithmeticError, match="generator matrix is singular"):
            decompose(ChernNumbers(1, 0, 0))

    @given(chern_triples())
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, c):
        assert decompose(c).reconstruct() == c

    @given(chern_triples(bound=200), chern_triples(bound=200))
    @settings(max_examples=80, deadline=None)
    def test_linearity(self, a, b):
        da, db = decompose(a), decompose(b)
        dsum = decompose(a + b)
        assert dsum.coefficients == tuple(
            x + y for x, y in zip(da.coefficients, db.coefficients)
        )


    @given(chern_triples(bound=200), st.fractions(max_denominator=60), st.fractions(max_denominator=60))
    @settings(max_examples=100, deadline=None)
    def test_m_is_derived_from_the_coefficients(self, c, r1, r3):
        # m follows the coefficients through _replace: it is the least common denominator
        dec = decompose(c)._replace(r1=r1, r3=r3)
        multiples = dec.integer_multiples()
        assert all(type(v) is int for v in multiples)
        assert all(dec.m * r == v for r, v in zip(dec.coefficients, multiples))
        assert gcd(dec.m, *multiples) == 1


class TestExponentIdentity:
    def test_quintic_arithmetic(self):
        report = verify_exponent_identity(ChernNumbers(0, 0, -200))
        assert report.ok
        assert report.lhs == -200
        # -150*(-20) + 400*(-18) - 250*(-16) = 3000 - 7200 + 4000
        assert report.rhs == 3000 - 7200 + 4000 == -200

    def test_generators_trivially_equal(self):
        for g in generator_chern_numbers():
            report = verify_exponent_identity(g)
            assert report.ok
            assert report.lhs == twist_exponent(g)

    @given(chern_triples())
    @settings(max_examples=200, deadline=None)
    def test_random_triples(self, c):
        assert verify_exponent_identity(c).ok

    def test_rational_input(self):
        report = verify_exponent_identity(ChernNumbers(Fraction(1, 3), 0, Fraction(5, 7)))
        assert report.ok
