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
from typing import Mapping, Sequence

from .chern import ThreefoldSpec, twist_exponent
from .dt import DEFAULT_ORDER, _honest_exponent, _macmahon_neg_cached, dt_series
from .macmahon import sigma2
from ._values import _int
from .series import TruncatedSeries


def dt_rational_power(spec: ThreefoldSpec, order: int = DEFAULT_ORDER) -> tuple[TruncatedSeries, Fraction]:
    """M(-q) raised to a rational twist exponent, for formal cobordism
    combinations.

    For exponent p/m the series is the one power M(-q)^(p/m): the unique
    series with constant term 1 whose m-th power is M(-q)^p; coefficients
    may be non-integer rationals.  Returns the series and the exponent.
    """
    exponent = Fraction(twist_exponent(spec.resolve()))
    return _macmahon_neg_cached(order) ** exponent, exponent


def _first_difference(s: TruncatedSeries, t: TruncatedSeries) -> int:
    """The least k with s[k] != t[k], for two unequal series of one order."""
    return next(k for k, (x, y) in enumerate(zip(s.coefficients, t.coefficients)) if x != y)


def multiplicativity_failures(a: ThreefoldSpec, b: ThreefoldSpec, order: int) -> tuple[str, ...]:
    """The series of a disjoint union must equal the product of the series.
    Returns () when it does, else one line naming the pair and the first
    coefficient that differs."""
    product = dt_series(a, order).series * dt_series(b, order).series
    union = dt_series(ThreefoldSpec.disjoint_union([a, b]), order).series
    if union == product:
        return ()
    k = _first_difference(union, product)
    return (f"{a.label()} + {b.label()}: q^{k}: union {union[k]} vs product {product[k]}",)


def root_argument_failures(spec: ThreefoldSpec, m: int, order: int) -> tuple[str, ...]:
    """Raise the series to the m-th power, take the 1/m-th power of that,
    which is the unique m-th root with constant term 1, and confirm it
    returns the series with integer coefficients.  This is the closing step
    of the main uniqueness argument, run as arithmetic; m is a positive int.
    Returns () when it holds, else a line for a root that is not integral
    and a line for a root that is not the series."""
    _int(m, "m", 1)
    series = dt_series(spec, order).series
    root = (series ** m) ** Fraction(1, m)
    failures = []
    if not root.is_integral():
        k = next(k for k, c in enumerate(root.coefficients) if c.denominator != 1)
        failures.append(f"{spec.label()}, m={m}: the root is not integral: q^{k}: {root[k]}")
    if root != series:
        k = _first_difference(root, series)
        failures.append(f"{spec.label()}, m={m}: the root is not the series: q^{k}: {root[k]} vs {series[k]}")
    return tuple(failures)


def _lambdas(n_max: int) -> dict[int, int]:
    """lambda_k = k! [q^k] log M(-q) = (-1)^k (k-1)! sigma2(k) for k = 1..n_max:
    the per-size degrees of a threefold with twist exponent 1."""
    return {k: (-1) ** k * factorial(k - 1) * sigma2(k) for k in range(1, n_max + 1)}


def discrepancy_degrees(spec: ThreefoldSpec, n_max: int) -> dict[int, int]:
    """Per-size degrees t_1..t_{n_max}, for a positive int n_max, with
    n! * f_n = sum over partitions of [n] of prod t_{block size}.

    In closed form, t_k = K * lambda_k, from log DT_X = K log M(-q); no
    series is built.  `universality_failures` checks it against the series
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


def universality_failures(specs: Sequence[ThreefoldSpec], n_max: int) -> tuple[str, ...]:
    """Check the closed form t_k = lambda_k * K against k! [q^k] log(series)
    for every given spec; a non-integral value fails too.  lambda_k depends
    on k alone, so the check pins every coefficient f_n to a universal
    polynomial in the one Chern number K.  n_max is a positive int.
    Returns one line per degree that differs, () when none does."""
    lambdas = _lambdas(_int(n_max, "n_max", 1))
    failures = []
    for spec in specs:
        d = dt_series(spec, n_max)
        logs = d.series.log1()
        for k, lam in lambdas.items():
            t_k = factorial(k) * logs[k]
            if t_k != lam * d.exponent:
                failures.append(f"{spec.label()}: t_{k} = {t_k} but lambda_{k}*K = {lam * d.exponent}")
    return tuple(failures)
