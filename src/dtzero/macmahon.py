"""MacMahon's plane-partition generating function and its sign twist.

M(q) = prod_{n>=1} (1-q^n)^(-n) counts plane partitions by total weight.
The brute-force counting oracle that checks it lives in `plane_partitions`.
"""

from ._values import _int
from .series import TruncatedSeries

__all__ = [
    "macmahon_neg",
    "macmahon_series",
    "sigma2",
]


def macmahon_series(order: int) -> TruncatedSeries:
    """M(q) = prod_{n=1}^{order} (1-q^n)^(-n), truncated at the non-negative
    integer `order`.

    Dividing by (1-q^n) is the strided prefix sum a[k] += a[k-n]; the
    product applies it n times for each n, in integers.
    """
    a = [1] + [0] * _int(order, "order", 0)
    for n in range(1, order + 1):
        for _ in range(n):
            for k in range(n, order + 1):
                a[k] += a[k - n]
    return TruncatedSeries(a)


def macmahon_neg(order: int) -> TruncatedSeries:
    """M(-q): the sign-twisted MacMahon series, q -> -q."""
    return macmahon_series(order).negate_q()


def sigma2(k: int) -> int:
    """Sum of squared divisors of the positive integer k."""
    _int(k, "k", 1)
    return sum(d * d for d in range(1, k + 1) if k % d == 0)
