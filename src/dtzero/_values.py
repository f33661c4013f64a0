"""Helpers shared by every module that holds exact values.

They live apart from `series` so that `lattice`, which needs only these,
does not compile the series ring on import.
"""

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def _exact(value) -> Fraction:
    """The exact rational `value`; floats are refused so no rounding enters."""
    if isinstance(value, float):
        raise TypeError("floating point values are not allowed in exact arithmetic")
    return Fraction(value)


def _non_negative_int(value, name: str) -> int:
    """`value` itself, once it is known to be a non-negative int (bool refused)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _json_number(value):
    """Exact rationals for JSON: plain ints stay ints, fractions become 'p/q'."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    return value


def _refuse_sequence_ops(self, other):
    """`+` and `*` for the package's NamedTuple records, which are values:
    without this, tuple concatenation and repetition would answer silently."""
    raise TypeError(
        f"unsupported operand for {type(self).__name__} and {type(other).__name__}: "
        "records do not concatenate or repeat"
    )
