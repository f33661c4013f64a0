"""MacMahon's plane-partition generating function and its brute-force oracle.

M(q) = prod_{n>=1} (1-q^n)^(-n) counts plane partitions by total weight.
The counting oracle enumerates weakly-decreasing height arrays directly
and is deliberately independent of the product formula, so the two can
check each other.
"""

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from ._values import _refuse_sequence_ops
from .series import TruncatedSeries

__all__ = [
    "DEFAULT_ORACLE_BOUND",
    "PlanePartition",
    "count_plane_partitions",
    "iter_plane_partitions",
    "log_macmahon_neg_coeffs",
    "macmahon_neg",
    "macmahon_series",
    "sigma2",
]

# Exhaustive enumeration stays sub-second up to here; raise explicitly if
# a larger count is really wanted.
DEFAULT_ORACLE_BOUND = 20


class _PlanePartitionFields(NamedTuple):
    rows: tuple[tuple[int, ...], ...]


class PlanePartition(_PlanePartitionFields):
    """A finite stack of rows of positive heights, weakly decreasing along
    rows and down columns (a 3D Young diagram)."""

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        for row in rows:
            if not row:
                raise ValueError("rows must be non-empty")
            if any(v < 1 for v in row):
                raise ValueError("heights must be positive")
            if any(row[i] < row[i + 1] for i in range(len(row) - 1)):
                raise ValueError("heights must weakly decrease along rows")
        for upper, lower in zip(rows, rows[1:]):
            if len(lower) > len(upper):
                raise ValueError("row lengths must weakly decrease")
            if any(lower[j] > upper[j] for j in range(len(lower))):
                raise ValueError("heights must weakly decrease down columns")
        return super().__new__(cls, rows)

    @classmethod
    def _make(cls, iterable) -> "PlanePartition":
        # the NamedTuple default skips __new__, and _replace builds through it
        return cls(*iterable)

    __add__ = __radd__ = __mul__ = __rmul__ = _refuse_sequence_ops

    def size(self) -> int:
        return sum(sum(row) for row in self.rows)

    def heights(self) -> dict[tuple[int, int], int]:
        """Height function on first-quadrant cells (i, j) -> h(i, j)."""
        return {
            (i, j): v
            for i, row in enumerate(self.rows)
            for j, v in enumerate(row)
        }


def _rows_under(ceiling: tuple[int, ...], budget: int):
    """Yield non-empty weakly decreasing rows pointwise <= ceiling, sum <= budget."""
    limit = len(ceiling)
    row: list[int] = []

    def rec(i: int, prev: int, left: int):
        if i == limit:
            return
        top = min(prev, ceiling[i], left)
        for v in range(top, 0, -1):
            row.append(v)
            yield tuple(row)
            yield from rec(i + 1, v, left - v)
            row.pop()

    yield from rec(0, budget, budget)


def _stacked_count(ceiling: tuple[int, ...], weight: int) -> int:
    # Parts above the remaining weight act the same as parts equal to it,
    # and rows longer than the weight are unreachable: normalize the key.
    key = tuple(min(p, weight) for p in ceiling[:weight])
    return _stacked_count_cached(key, weight)


@lru_cache(maxsize=None)
def _stacked_count_cached(ceiling: tuple[int, ...], weight: int) -> int:
    if weight == 0:
        return 1
    total = 0
    for row in _rows_underneath_cache(ceiling, weight):
        total += _stacked_count(row, weight - sum(row))
    return total


@lru_cache(maxsize=None)
def _rows_underneath_cache(ceiling: tuple[int, ...], budget: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_rows_under(ceiling, budget))


def count_plane_partitions(n: int, bound: int = DEFAULT_ORACLE_BOUND) -> int:
    """Number of plane partitions of n, by exhaustive recursive enumeration.

    Enumerates monotone height arrays inside the n x n bounding box,
    pruned by the remaining weight.  No generating-function identity is
    used anywhere on this path.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > bound:
        raise ValueError(f"oracle limit exceeded: n={n} is beyond the enumeration bound {bound}")
    if n == 0:
        return 1
    return _stacked_count((n,) * n, n)


def iter_plane_partitions(n: int, bound: int = DEFAULT_ORACLE_BOUND):
    """Yield every plane partition of n, materialized row by row."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > bound:
        raise ValueError(f"oracle limit exceeded: n={n} is beyond the enumeration bound {bound}")
    acc: list[tuple[int, ...]] = []

    def rec(ceiling: tuple[int, ...], weight: int):
        if weight == 0:
            yield PlanePartition(tuple(acc))
            return
        for row in _rows_under(ceiling, weight):
            acc.append(row)
            yield from rec(row, weight - sum(row))
            acc.pop()

    yield from rec((n,) * n, n)


def macmahon_series(order: int) -> TruncatedSeries:
    """M(q) = prod_{n=1}^{order} (1-q^n)^(-n), truncated at the given order.

    Dividing by (1-q^n) is the strided prefix sum a[k] += a[k-n]; the
    product applies it n times for each n, in integers.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    a = [1] + [0] * order
    for n in range(1, order + 1):
        for _ in range(n):
            for k in range(n, order + 1):
                a[k] += a[k - n]
    return TruncatedSeries(a)


def macmahon_neg(order: int) -> TruncatedSeries:
    """M(-q): the sign-twisted MacMahon series, q -> -q."""
    return macmahon_series(order).negate_q()


def sigma2(k: int) -> int:
    """Sum of squared divisors of k."""
    if k < 1:
        raise ValueError("k must be positive")
    return sum(d * d for d in range(1, k + 1) if k % d == 0)


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
