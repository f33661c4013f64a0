"""Dimension-zero Donaldson-Thomas series from Chern data.

The series of a threefold is the sign-twisted MacMahon function raised to
the twist exponent.  This module is what `dtzero series` runs; rational
powers, per-size degrees and the checks around the formula live in
`degrees`.
"""

from functools import lru_cache
from typing import NamedTuple

from .chern import ThreefoldSpec, twist_exponent
from . import macmahon
from ._values import _clip, _make, _refuse_sequence_ops
from .series import TruncatedSeries

DEFAULT_ORDER = 20


class NonIntegralSpecError(ValueError):
    """The spec resolves to rational Chern numbers, so it is a formal
    cobordism combination rather than an honest threefold."""


class _DTSeriesFields(NamedTuple):
    series: TruncatedSeries
    exponent: int


class DTSeries(_DTSeriesFields):
    """The generating function of a threefold together with its exponent."""

    __slots__ = ()

    def __new__(cls, series: TruncatedSeries, exponent: int):
        if series[0] != 1:
            raise ValueError("a DT series must have constant coefficient 1")
        if not series.is_integral():
            raise ValueError("a DT series must have integer coefficients")
        return super().__new__(cls, series, exponent)

    _make = _make

    __add__ = __radd__ = __mul__ = __rmul__ = _refuse_sequence_ops

    def coefficients(self) -> tuple[int, ...]:
        return self.series.integer_coefficients()


@lru_cache(maxsize=None)
def _macmahon_neg_cached(order: int) -> TruncatedSeries:
    return macmahon.macmahon_neg(order)


def _honest_exponent(spec: ThreefoldSpec) -> int:
    """The twist exponent of a spec that resolves to integer Chern numbers;
    rational ones are a formal cobordism combination, not an honest threefold."""
    c = spec.resolve()
    if not c.is_integral():
        raise NonIntegralSpecError(f"{_clip(spec.label())} resolves to rational Chern numbers; "
                                   "not an honest threefold; use dt_rational_power")
    return twist_exponent(c)


def dt_series(spec: ThreefoldSpec, order: int = DEFAULT_ORDER) -> DTSeries:
    """M(-q) raised to the twist exponent of the spec's Chern numbers.

    Every coefficient is checked to be an integer; the constant term is 1.
    """
    exponent = _honest_exponent(spec)
    series = _macmahon_neg_cached(order) ** exponent
    return DTSeries(series=series, exponent=exponent)
