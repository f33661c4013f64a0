"""The DT series beyond its coefficients: rational powers, per-size degrees
and the checks around the formula.

Multiplicativity over disjoint unions, recovery of the series from its
m-th power, the per-size degrees extracted through the series logarithm,
and their universality across threefolds.  `dtzero series` never runs
these, so they live apart from `dt`: `discrepancy`, `verify` and library
callers load this module.
"""

from fractions import Fraction
from math import factorial
from typing import Mapping, NamedTuple, Sequence

from .chern import ThreefoldSpec, twist_exponent
from .dt import DEFAULT_ORDER, DTSeries, _macmahon_neg_cached, dt_series
from .macmahon import macmahon_neg, sigma2
from ._values import _refuse_sequence_ops
from .series import TruncatedSeries

__all__ = [
    "MultiplicativityReport",
    "RootArgumentReport",
    "UniversalityReport",
    "discrepancy_degrees",
    "dt_rational_power",
    "log_macmahon_neg_coeffs",
    "partition_product_sum",
    "reconstructed_coefficient",
    "verify_multiplicativity",
    "verify_root_argument",
    "verify_universality",
]


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


def log_macmahon_neg_coeffs(order: int) -> tuple[Fraction, ...]:
    """Coefficients l_1..l_order of log M(-q).

    Computed from the series logarithm and compared against the closed
    form (-1)^k sigma2(k)/k; a mismatch would mean a series bug, so it is
    an internal error, not a value.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    from_series = macmahon_neg(order).log1()
    closed = tuple(Fraction((-1) ** k * sigma2(k), k) for k in range(1, order + 1))
    for k, expected in enumerate(closed, start=1):
        if from_series[k] != expected:
            raise ArithmeticError(
                f"log M(-q) coefficient mismatch at q^{k}: series {from_series[k]}, closed form {expected}"
            )
    return closed


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
    ells = log_macmahon_neg_coeffs(n_max)
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
