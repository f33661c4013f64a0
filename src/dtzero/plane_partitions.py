"""The plane-partition oracle: counts and lists plane partitions by brute force.

It enumerates weakly-decreasing height arrays directly and is deliberately
independent of MacMahon's product formula in `macmahon`, so the two can
check each other.  Only `verify` and the tests load it.
"""

from functools import lru_cache
from typing import NamedTuple

from ._values import _int, _make, _refuse_sequence_ops

# Largest size the oracle enumerates, and the ceiling of `verify --suite
# macmahon`: count_plane_partitions(25) takes about 0.25 s (2-vCPU x86 host,
# Python 3.11).
ORACLE_BOUND = 25


class _PlanePartitionFields(NamedTuple):
    rows: tuple[tuple[int, ...], ...]


class PlanePartition(_PlanePartitionFields):
    """A finite stack of rows of positive int heights, weakly decreasing
    along rows and down columns (a 3D Young diagram)."""

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple(tuple(_int(v, "height", 1) for v in row) for row in rows)
        for row in rows:
            if not row:
                raise ValueError("rows must be non-empty")
            if any(row[i] < row[i + 1] for i in range(len(row) - 1)):
                raise ValueError("heights must weakly decrease along rows")
        for upper, lower in zip(rows, rows[1:]):
            if len(lower) > len(upper):
                raise ValueError("row lengths must weakly decrease")
            if any(lower[j] > upper[j] for j in range(len(lower))):
                raise ValueError("heights must weakly decrease down columns")
        return super().__new__(cls, rows)

    _make = _make

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


def _oracle_size(n: int) -> int:
    """`n` itself, once it is a non-negative int within ORACLE_BOUND."""
    if _int(n, "n", 0) > ORACLE_BOUND:
        raise ValueError(f"oracle limit exceeded: n={n} is beyond the enumeration bound {ORACLE_BOUND}")
    return n


def count_plane_partitions(n: int) -> int:
    """Number of plane partitions of an int n >= 0, by exhaustive enumeration.

    Enumerates monotone height arrays inside the n x n bounding box,
    pruned by the remaining weight.  No generating-function identity is
    used anywhere on this path.
    """
    if _oracle_size(n) == 0:
        return 1
    return _stacked_count((n,) * n, n)


def iter_plane_partitions(n: int):
    """Yield every plane partition of an int n >= 0, materialized row by row."""
    _oracle_size(n)
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
