"""Rational cobordism decomposition over the three generator threefolds.

Degree-six complex cobordism is spanned rationally by P^3, P^2xP^1 and
(P^1)^3; a threefold's class is recovered from its Chern numbers by
Cramer's rule, exactly.  The module also checks the exponent identity that
the decomposition must satisfy for the twisted tangent class.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .chern import ChernNumbers, chern_of_projective_space_product, twist_exponent
from ._values import Rational, _refuse_sequence_ops

# Y1 = P^3, Y2 = P^2 x P^1, Y3 = (P^1)^3
GENERATOR_DIMS: tuple[tuple[int, ...], ...] = ((3,), (2, 1), (1, 1, 1))


@lru_cache(maxsize=1)
def generator_chern_numbers() -> tuple[ChernNumbers, ...]:
    return tuple(chern_of_projective_space_product(d) for d in GENERATOR_DIMS)


def generator_matrix() -> tuple[tuple[int, int, int], ...]:
    """Rows are (c1^3, c1c2, c3); columns are the generators Y1, Y2, Y3."""
    return tuple(zip(*generator_chern_numbers()))


def _det3(matrix) -> Rational:
    """Determinant of a 3x3 matrix, by cofactor expansion."""
    (a, b, c), (d, e, f), (g, h, i) = matrix
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def generator_determinant() -> int:
    """Determinant of the generator matrix."""
    return _det3(generator_matrix())


class CobordismDecomposition(NamedTuple):
    """Rational coefficients (r1, r2, r3) over the generators; with m their
    least common denominator, m*X ~ m1*Y1 + m2*Y2 + m3*Y3."""

    r1: Fraction
    r2: Fraction
    r3: Fraction

    __add__ = __radd__ = __mul__ = __rmul__ = _refuse_sequence_ops

    @property
    def coefficients(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.r1, self.r2, self.r3)

    @property
    def m(self) -> int:
        return lcm(*(Fraction(r).denominator for r in self.coefficients))

    def integer_multiples(self) -> tuple[int, int, int]:
        """(m1, m2, m3) = m * (r1, r2, r3), always integers."""
        m = self.m
        return tuple(int(Fraction(r) * m) for r in self.coefficients)

    def reconstruct(self) -> ChernNumbers:
        """Chern numbers of r1*Y1 + r2*Y2 + r3*Y3."""
        rows = generator_matrix()
        return ChernNumbers(*(sum(Fraction(r) * v for r, v in zip(self.coefficients, row)) for row in rows))


def decompose(c: ChernNumbers) -> CobordismDecomposition:
    """Express a Chern triple over the generators, exactly, by Cramer's rule:
    r_j = det(M_j)/det(M), with column j of M replaced by the triple."""
    matrix = generator_matrix()
    det = _det3(matrix)
    if det == 0:
        raise ArithmeticError("generator matrix is singular")
    solution = [
        Fraction(_det3([row[:j] + (v,) + row[j + 1:] for row, v in zip(matrix, c)]), det) for j in range(3)
    ]
    return CobordismDecomposition(*solution)


class ExponentIdentityReport(NamedTuple):
    """Both sides of m*K(X) = sum_i m_i*K(Y_i) for the twist exponent K."""

    decomposition: CobordismDecomposition
    lhs: Fraction
    rhs: Fraction

    __add__ = __radd__ = __mul__ = __rmul__ = _refuse_sequence_ops

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def verify_exponent_identity(c: ChernNumbers) -> ExponentIdentityReport:
    """Check the exponent identity for the given Chern triple.

    A failure would be an implementation bug: the identity is forced by
    linearity of the twist exponent through the generator basis.
    """
    dec = decompose(c)
    lhs = dec.m * Fraction(twist_exponent(c))
    rhs = sum(mi * Fraction(twist_exponent(g)) for mi, g in zip(dec.integer_multiples(), generator_chern_numbers()))
    return ExponentIdentityReport(dec, lhs, rhs)
