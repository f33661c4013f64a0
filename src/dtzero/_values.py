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


_INTEGERS = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}


def _clip(text: str) -> str:
    """`text` cut to 60 characters, so that an error line that echoes a value
    or a key stays short however long that is."""
    return text if len(text) <= 60 else text[:60] + "..."


def _int(value, name: str, least: int | None = None) -> int:
    """`value` itself, once it is an int (not a bool) of at least `least`, which
    is None, 0 or 1; anything else is a ValueError naming `name`, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int) or (least is not None and value < least):
        raise ValueError(f"{name} must be {_INTEGERS[least]}, got {_clip(repr(value))}")
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
