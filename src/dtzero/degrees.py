"""The DT series beyond its coefficients: rational powers, per-size degrees
and the checks around the formula.

Multiplicativity over disjoint unions, recovery of the series from its
m-th power, the per-size degrees and their universality across threefolds.
Since log DT_X = K log M(-q), the degrees have the closed form
t_k = K * lambda_k with lambda_k = (-1)^k (k-1)! sigma2(k); the series
logarithm is kept as the evidence that checks it.  `dtzero series` never
runs these, so they live apart from `dt`: `discrepancy`, `verify` and
library callers load this module.
"""

from fractions import Fraction
from math import factorial
from typing import Mapping, NamedTuple, Sequence

from .chern import ThreefoldSpec, twist_exponent
from .dt import DEFAULT_ORDER, DTSeries, _honest_exponent, _macmahon_neg_cached, dt_series
from .macmahon import sigma2
from ._values import _int, _refuse_sequence_ops
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

    For exponent p/m the series is the one power M(-q)^(p/m): the unique
    series with constant term 1 whose m-th power is M(-q)^p; coefficients
    may be non-integer rationals.  Returns the series and the exponent.
    """
    exponent = Fraction(twist_exponent(spec.resolve()))
    return _macmahon_neg_cached(order) ** exponent, exponent


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
    """Raise the series to the m-th power, take the 1/m-th power of that,
    which is the unique m-th root with constant term 1, and confirm it
    returns the series with integer coefficients.  This is the closing step
    of the main uniqueness argument, run as arithmetic; m is a positive int."""
    _int(m, "m", 1)
    expected = dt_series(spec, order)
    power = expected.series ** m
    root = power ** Fraction(1, m)
    integral = root.is_integral()
    return RootArgumentReport(
        power=power,
        root=root,
        expected=expected,
        root_is_integral=integral,
        ok=integral and root == expected.series,
    )


def _lambdas(n_max: int) -> dict[int, int]:
    """lambda_k = k! [q^k] log M(-q) = (-1)^k (k-1)! sigma2(k) for k = 1..n_max:
    the per-size degrees of a threefold with twist exponent 1."""
    return {k: (-1) ** k * factorial(k - 1) * sigma2(k) for k in range(1, n_max + 1)}


def discrepancy_degrees(spec: ThreefoldSpec, n_max: int = 10) -> dict[int, int]:
    """Per-size degrees t_1..t_{n_max}, for a positive int n_max, with
    n! * f_n = sum over partitions of [n] of prod t_{block size}.

    In closed form, t_k = K * lambda_k, from log DT_X = K log M(-q); no
    series is built.  `verify_universality` checks it against the series
    logarithm, and the partition-sum form is checked in the test suites.
    """
    lambdas = _lambdas(_int(n_max, "n_max", 1))
    exponent = _honest_exponent(spec)
    return {k: exponent * lam for k, lam in lambdas.items()}


def partition_product_sum(t: Mapping[int, int], n: int):
    """sum over all set partitions of [n] of prod over blocks of t[|block|];
    t holds a value for every block size 1..n."""
    from .lattice import _require_sizes, partitions  # only this function needs the lattice

    _require_sizes(t, _int(n, "n", 0))
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
    """Coefficients l_1..l_order of log M(-q), in closed form:
    l_k = lambda_k / k! = (-1)^k sigma2(k) / k.  `order` is a positive int;
    `verify --suite macmahon` checks them against the series logarithm."""
    return tuple(Fraction(lam, factorial(k)) for k, lam in _lambdas(_int(order, "order", 1)).items())


class UniversalityReport(NamedTuple):
    lambdas: dict[int, int]
    exponents: dict[str, int]
    degrees: dict[str, dict[int, int]]
    failures: tuple[str, ...]
    ok: bool

    __add__ = __radd__ = __mul__ = __rmul__ = _refuse_sequence_ops


def verify_universality(specs: Sequence[ThreefoldSpec], n_max: int = 7) -> UniversalityReport:
    """Check the closed form t_k = lambda_k * K against k! [q^k] log(series)
    for every given spec; a non-integral value fails too.  lambda_k depends
    on k alone, so the check pins every coefficient f_n to a universal
    polynomial in the one Chern number K.  n_max is a positive int."""
    lambdas = _lambdas(_int(n_max, "n_max", 1))
    exponents: dict[str, int] = {}
    degrees: dict[str, dict[int, int]] = {}
    failures: list[str] = []
    for spec in specs:
        label = spec.label()
        d = dt_series(spec, n_max)
        logs = d.series.log1()
        t = {k: factorial(k) * logs[k] for k in lambdas}
        exponents[label] = d.exponent
        degrees[label] = {k: int(v) if v.denominator == 1 else v for k, v in t.items()}
        for k, lam in lambdas.items():
            if t[k] != lam * d.exponent:
                failures.append(f"{label}: t_{k} = {t[k]} but lambda_{k}*K = {lam * d.exponent}")
    return UniversalityReport(
        lambdas=lambdas,
        exponents=exponents,
        degrees=degrees,
        failures=tuple(failures),
        ok=not failures,
    )
