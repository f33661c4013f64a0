"""Dimension-zero Donaldson-Thomas series from Chern data.

The series of a threefold is the sign-twisted MacMahon function raised to
the twist exponent.  On top of that single formula the module checks the
structure around it: multiplicativity over disjoint unions, recovery of
the series from its m-th power, the per-size degrees extracted through
the series logarithm, and their universality across threefolds.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Mapping, NamedTuple, Sequence

from .chern import ThreefoldSpec, twist_exponent
from . import macmahon
from ._values import _refuse_sequence_ops
from .series import TruncatedSeries

__all__ = [
    "DEFAULT_ORDER",
    "DTSeries",
    "MultiplicativityReport",
    "NonIntegralSpecError",
    "RootArgumentReport",
    "UniversalityReport",
    "discrepancy_degrees",
    "dt_rational_power",
    "dt_series",
    "partition_product_sum",
    "reconstructed_coefficient",
    "verify_multiplicativity",
    "verify_root_argument",
    "verify_universality",
]

DEFAULT_ORDER = 20


class NonIntegralSpecError(ValueError):
    """The spec resolves to rational Chern numbers, so it is a formal
    cobordism combination rather than an honest threefold."""


class _DTSeriesFields(NamedTuple):
    series: TruncatedSeries
    exponent: int
    source: ThreefoldSpec


class DTSeries(_DTSeriesFields):
    """The generating function of a threefold together with its exponent."""

    __slots__ = ()

    def __new__(cls, series: TruncatedSeries, exponent: int, source: ThreefoldSpec):
        if series[0] != 1:
            raise ValueError("a DT series must have constant coefficient 1")
        if not series.is_integral():
            raise ValueError("a DT series must have integer coefficients")
        return super().__new__(cls, series, exponent, source)

    @classmethod
    def _make(cls, iterable) -> "DTSeries":
        # the NamedTuple default skips __new__, and _replace builds through it
        return cls(*iterable)

    __add__ = __radd__ = __mul__ = __rmul__ = _refuse_sequence_ops

    @property
    def order(self) -> int:
        return self.series.order

    def coefficients(self) -> tuple[int, ...]:
        return self.series.integer_coefficients()


@lru_cache(maxsize=None)
def _macmahon_neg_cached(order: int) -> TruncatedSeries:
    return macmahon.macmahon_neg(order)


def dt_series(spec: ThreefoldSpec, order: int = DEFAULT_ORDER) -> DTSeries:
    """M(-q) raised to the twist exponent of the spec's Chern numbers.

    Every coefficient is checked to be an integer; the constant term is 1.
    """
    c = spec.resolve()
    if not c.is_integral():
        raise NonIntegralSpecError(
            f"{spec.label()} resolves to rational Chern numbers {c}; "
            "not an honest threefold; use dt_rational_power"
        )
    exponent = twist_exponent(c)
    series = _macmahon_neg_cached(order) ** exponent
    return DTSeries(series=series, exponent=exponent, source=spec)


def dt_rational_power(spec: ThreefoldSpec, order: int = DEFAULT_ORDER) -> tuple[TruncatedSeries, Fraction]:
    """M(-q) raised to a rational twist exponent, for formal cobordism
    combinations.

    For exponent p/q the series is the unique q-th root with constant
    term 1 of M(-q)^p; coefficients may be non-integer rationals.
    Returns the series and the exponent.
    """
    c = spec.resolve()
    exponent = Fraction(twist_exponent(c))
    base = _macmahon_neg_cached(order)
    series = (base ** exponent.numerator).root_m(exponent.denominator)
    return series, exponent


class MultiplicativityReport(NamedTuple):
    union: DTSeries
    left: DTSeries
    right: DTSeries
    ok: bool

    __add__ = __radd__ = __mul__ = __rmul__ = _refuse_sequence_ops


def verify_multiplicativity(a: ThreefoldSpec, b: ThreefoldSpec, order: int = DEFAULT_ORDER) -> MultiplicativityReport:
    """The series of a disjoint union must equal the product of the series."""
    left = dt_series(a, order)
    right = dt_series(b, order)
    union = dt_series(ThreefoldSpec.disjoint_union([a, b]), order)
    ok = union.series == left.series * right.series
    return MultiplicativityReport(union=union, left=left, right=right, ok=ok)


class RootArgumentReport(NamedTuple):
    power: TruncatedSeries
    root: TruncatedSeries
    expected: DTSeries
    root_is_integral: bool
    ok: bool

    __add__ = __radd__ = __mul__ = __rmul__ = _refuse_sequence_ops


def verify_root_argument(spec: ThreefoldSpec, m: int, order: int = DEFAULT_ORDER) -> RootArgumentReport:
    """Raise the series to the m-th power, take the unique m-th root with
    constant term 1, and confirm it returns the series with integer
    coefficients.  This is the closing step of the main uniqueness
    argument, run as arithmetic."""
    expected = dt_series(spec, order)
    power = expected.series ** m
    root = power.root_m(m)
    integral = root.is_integral()
    return RootArgumentReport(
        power=power,
        root=root,
        expected=expected,
        root_is_integral=integral,
        ok=integral and root == expected.series,
    )


def discrepancy_degrees(spec: ThreefoldSpec, n_max: int = 10) -> dict[int, int]:
    """Per-size degrees t_1..t_{n_max} with n! * f_n = sum over partitions
    of [n] of prod t_{block size}.

    Extracted through the series logarithm, t_k = k! * [q^k] log(series),
    which is the O(N^2) route; the partition-sum form is checked against
    it in the test suites.  The values must come out integral.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    d = dt_series(spec, n_max)
    logs = d.series.log1()
    out: dict[int, int] = {}
    for k in range(1, n_max + 1):
        value = factorial(k) * logs[k]
        if value.denominator != 1:
            raise ArithmeticError(
                f"discrepancy degree t_{k} of {spec.label()} is not an integer: {value}"
            )
        out[k] = int(value)
    return out


def partition_product_sum(t: Mapping[int, int], n: int):
    """sum over all set partitions of [n] of prod over blocks of t[|block|]."""
    from .lattice import partitions  # only this function needs the lattice

    total = 0
    for alpha in partitions(n):
        term = 1
        for b in alpha.blocks:
            term *= t[len(b)]
        total += term
    return total


def reconstructed_coefficient(t: Mapping[int, int], n: int) -> Fraction:
    """f_n rebuilt from per-size degrees: the partition sum divided by n!.

    The 1/n! normalization between the labeled and unlabeled counts lives
    here, not in the lattice module.
    """
    return Fraction(partition_product_sum(t, n), factorial(n))


class UniversalityReport(NamedTuple):
    lambdas: dict[int, int]
    exponents: dict[str, int]
    degrees: dict[str, dict[int, int]]
    failures: tuple[str, ...]
    ok: bool

    __add__ = __radd__ = __mul__ = __rmul__ = _refuse_sequence_ops


def verify_universality(specs: Sequence[ThreefoldSpec], n_max: int = 7) -> UniversalityReport:
    """Check t_k = lambda_k * K across the given specs, with lambda_k
    independent of the threefold.

    lambda_k = k! * l_k comes from the logarithm of M(-q) alone, so the
    check pins every coefficient f_n to a universal polynomial in the one
    Chern number K."""
    ells = macmahon.log_macmahon_neg_coeffs(n_max)
    lambdas: dict[int, int] = {}
    for k in range(1, n_max + 1):
        lam = factorial(k) * ells[k - 1]
        if lam.denominator != 1:
            raise ArithmeticError(f"lambda_{k} is not an integer: {lam}")
        lambdas[k] = int(lam)
    exponents: dict[str, int] = {}
    degrees: dict[str, dict[int, int]] = {}
    failures: list[str] = []
    for spec in specs:
        label = spec.label()
        k_x = twist_exponent(spec.resolve())
        t = discrepancy_degrees(spec, n_max)
        exponents[label] = k_x
        degrees[label] = t
        for k in range(1, n_max + 1):
            if t[k] != lambdas[k] * k_x:
                failures.append(
                    f"{label}: t_{k} = {t[k]} but lambda_{k}*K = {lambdas[k] * k_x}"
                )
    return UniversalityReport(
        lambdas=lambdas,
        exponents=exponents,
        degrees=degrees,
        failures=tuple(failures),
        ok=not failures,
    )
