"""The set-partition lattice and its diagonal geometry.

Partitions of {1..n} ordered by refinement, with meet/join, block
multiplicities of labeled point configurations, discrepancy-set
predicates, the epsilon-neighborhood classifier for strict diagonals,
and the discrepancy recursion (lattice Moebius inversion) over any
abelian-group values.

All geometry is done on point configurations with exact rational
coordinates; distances are kept in squared form so no square roots ever
appear.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Callable, Iterable, Mapping, NamedTuple, Union

from ._values import Rational, _exact, _int, _make, _refuse_sequence_ops


class InadmissibleScheduleError(ValueError):
    """The epsilon schedule is too loose for the configuration: the deepest
    diagonal neighborhood containing the point is not unique."""


# ---------------------------------------------------------------------------
# set partitions
# ---------------------------------------------------------------------------


def _canonical(keys: Iterable) -> tuple[int, ...]:
    """The restricted-growth string of `keys`: each key numbered by its first
    occurrence, so that equal key sequences up to renaming give one string."""
    first: dict = {}
    return tuple(first.setdefault(k, len(first)) for k in keys)


class SetPartition:
    """An indexed partition of the ground set {1..n}, n a non-negative int.

    Stored as its restricted-growth string: labels()[i-1] is the block of
    element i, blocks numbered by their least element.  Equality and hashing
    are those of the string, so equality is equality of the underlying
    equivalence relation.  `blocks` lists the blocks as frozensets in that
    order.  Immutable; `<=` is refinement, not tuple order.
    """

    __slots__ = ("n", "blocks", "_labels")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        owner: list = [None] * _int(n, "n", 0)
        for tag, block in enumerate(blocks):
            block = frozenset(block)
            if not block:
                raise ValueError("blocks must be non-empty")
            for e in block:
                if not 1 <= _int(e, "element") <= n:
                    raise ValueError(f"blocks must cover exactly {{1..{n}}}")
                if owner[e - 1] is not None:
                    raise ValueError("blocks must be pairwise disjoint")
                owner[e - 1] = tag
        if None in owner:
            raise ValueError(f"blocks must cover exactly {{1..{n}}}")
        self._assign(owner)

    def _assign(self, keys: Iterable) -> None:
        labels = _canonical(keys)
        blocks: list[list[int]] = [[] for _ in range(max(labels, default=-1) + 1)]
        for e, label in enumerate(labels, start=1):
            blocks[label].append(e)
        object.__setattr__(self, "n", len(labels))
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "blocks", tuple(map(frozenset, blocks)))

    @classmethod
    def _of(cls, keys: Iterable) -> "SetPartition":
        """The partition of {1..len(keys)} that puts i and j together iff
        keys[i-1] == keys[j-1]."""
        self = object.__new__(cls)
        self._assign(keys)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    def __delattr__(self, name):
        raise AttributeError("SetPartition is immutable")

    def __reduce__(self):
        return SetPartition, (self.n, self.blocks)

    @classmethod
    def singletons(cls, n: int) -> "SetPartition":
        """The bottom element: every element alone."""
        return cls._of(range(_int(n, "n", 0)))

    @classmethod
    def whole(cls, n: int) -> "SetPartition":
        """The top element: one block (none when n = 0)."""
        return cls._of([0] * _int(n, "n", 0))

    @property
    def rank(self) -> int:
        return self.n - len(self.blocks)

    def labels(self) -> tuple[int, ...]:
        """labels()[i-1] is the index of the block containing element i."""
        return self._labels

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self._labels == other._labels

    def __hash__(self) -> int:
        return hash(self._labels)

    def _same_ground_set(self, other: "SetPartition") -> None:
        if not isinstance(other, SetPartition):
            raise TypeError("expected a SetPartition")
        if self.n != other.n:
            raise ValueError(f"ground sets differ: {self.n} vs {other.n}")

    def __le__(self, other: "SetPartition") -> bool:
        """self <= other iff self refines other: each block of self meets
        exactly one block of other."""
        self._same_ground_set(other)
        return len(set(zip(self._labels, other._labels))) == len(self.blocks)

    def __lt__(self, other: "SetPartition") -> bool:
        return self != other and self <= other

    def meet(self, other: "SetPartition") -> "SetPartition":
        """Common refinement: i and j together iff both partitions put them
        together."""
        self._same_ground_set(other)
        return SetPartition._of(zip(self._labels, other._labels))

    def join(self, other: "SetPartition") -> "SetPartition":
        """Transitive closure of the union of the two equivalence relations:
        the blocks of self, merged wherever a block of other meets two."""
        self._same_ground_set(other)
        parent = list(range(len(self.blocks)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        anchor: dict[int, int] = {}
        for mine, theirs in zip(self._labels, other._labels):
            parent[find(mine)] = find(anchor.setdefault(theirs, mine))
        return SetPartition._of(find(label) for label in self._labels)

    def __repr__(self) -> str:
        body = "|".join("".join(str(e) for e in sorted(b)) for b in self.blocks)
        return f"SetPartition({self.n}, {body})"


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[SetPartition, ...]:
    """All partitions of {1..n}, for a non-negative int n, in lexicographic
    order of their restricted-growth strings."""
    _int(n, "n", 0)
    strings: list[tuple[int, ...]] = [()]
    for _ in range(n):  # each string grows by an old block or one new block
        strings = [s + (v,) for s in strings for v in range(max(s, default=-1) + 2)]
    return tuple(map(SetPartition._of, strings))


@lru_cache(maxsize=None)
def _down_sets(n: int) -> tuple[dict[tuple[int, ...], int], tuple[tuple[int, ...], ...]]:
    """The down-set table of partitions(n), built on first use.

    Returns the index in partitions(n) of each partition's restricted-growth
    string and, for each index, the indices of its strict refinements in rank
    order (ties broken by index), so that every down-set lists each gamma
    after all of gamma's own refinements.

    The interval [0, beta] is the product of the lattices Pi_{|b|} over the
    blocks b of beta (Rota 1964; Stanley, EC1 3.10), so each down-set is
    enumerated blockwise from partitions(|b|), never by a pairwise scan: an
    element keyed by its block of beta and its label in that block's
    sub-partition.  The table holds one entry per related pair gamma <= beta:
    2 471 at n = 6, 19 302 at n = 7 and 167 894 at n = 8.
    """
    ps = partitions(n)
    index = {p.labels(): i for i, p in enumerate(ps)}
    down = []
    for i, beta in enumerate(ps):
        # each element as (its block, its position within the block)
        seen = [0] * len(beta.blocks)
        places = []
        for label in beta.labels():
            places.append((label, seen[label]))
            seen[label] += 1
        choices = [[q.labels() for q in partitions(size)] for size in seen]
        below = []
        for combo in product(*choices):
            j = index[_canonical((label, combo[label][at]) for label, at in places)]
            if j != i:
                below.append((ps[j].rank, j))
        down.append(tuple(j for _, j in sorted(below)))
    return index, tuple(down)


def alpha_factorial(p: SetPartition) -> int:
    """Product of the factorials of the block sizes."""
    out = 1
    for b in p.blocks:
        for k in range(2, len(b) + 1):
            out *= k
    return out


# ---------------------------------------------------------------------------
# labeled point configurations
# ---------------------------------------------------------------------------


class _PointConfigFields(NamedTuple):
    points: tuple[tuple[Fraction, Fraction, Fraction], ...]


class PointConfig(_PointConfigFields):
    """A labeled tuple of points in rational 3-space; coordinates exact."""

    __slots__ = ()

    def __new__(cls, points: Iterable[Iterable[Rational]]):
        pts = []
        for p in points:
            p = tuple(_exact(v) for v in p)
            if len(p) != 3:
                raise ValueError("points must have exactly three coordinates")
            pts.append(p)
        return super().__new__(cls, tuple(pts))

    _make = _make
    __add__ = __radd__ = __mul__ = __rmul__ = _refuse_sequence_ops

    @property
    def n(self) -> int:
        return len(self.points)

    def point(self, element: int) -> tuple[Fraction, Fraction, Fraction]:
        """Coordinate of the element labeled 1..n."""
        return self.points[element - 1]

    def min_gap_sq(self) -> Fraction | None:
        """Smallest squared distance between distinct points; None if all coincide."""
        gaps = _pair_gaps_sq(self, [range(1, self.n + 1)]).values()
        return min((d for d in gaps if d != 0), default=None)


def _dist_sq(p, q) -> Fraction:
    total = 0
    for a, b in zip(p, q):
        d = a - b
        total += d * d
    return total


def _pair_gaps_sq(x: PointConfig, blocks: Iterable[Iterable[int]]) -> dict[tuple[int, int], Fraction]:
    """The squared distance between each pair of points that share one of
    `blocks`, keyed by their labels (i, j) with i < j."""
    pts = x.points
    return {
        (i, j): _dist_sq(pts[i - 1], pts[j - 1])
        for b in blocks
        for i, j in combinations(sorted(b), 2)
    }


def _check_config(p: SetPartition, x: PointConfig) -> None:
    if p.n != x.n:
        raise ValueError(f"ground set size {p.n} does not match configuration size {x.n}")


# ---------------------------------------------------------------------------
# multiplicities of the blockwise symmetrization map
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _block_stabilizer_size(values: tuple) -> int:
    """Permutations of the positions of `values` that fix the tuple, counted
    by exhaustive enumeration."""
    k = len(values)
    count = 0
    for sigma in permutations(range(k)):
        if all(values[sigma[i]] == values[i] for i in range(k)):
            count += 1
    return count


@lru_cache(maxsize=None)
def _block_arrangements(values: tuple) -> tuple[tuple, ...]:
    """Distinct reorderings of a value tuple, deduplicated as tuples."""
    return tuple(sorted(set(permutations(values))))


def multiplicity(p: SetPartition, x: PointConfig) -> int:
    """Number of permutations of {1..n} fixing x and preserving every
    indexed block setwise.

    Such permutations factor over the blocks, so the count is the product
    of per-block stabilizer sizes; each factor is still obtained by
    exhaustive enumeration of the block's permutations.
    """
    _check_config(p, x)
    out = 1
    for b in p.blocks:
        values = tuple(x.point(e) for e in sorted(b))
        out *= _block_stabilizer_size(values)
    return out


def fiber_multiplicity_sum(p: SetPartition, x: PointConfig) -> int:
    """Sum of multiplicities over the fiber of the blockwise symmetrization
    map through x.

    The fiber consists of every configuration obtained by permuting
    coordinates within blocks, deduplicated as tuples.  The sum always
    equals alpha_factorial(p); computing it the long way is the point.
    """
    _check_config(p, x)
    block_elements = [tuple(sorted(b)) for b in p.blocks]
    choices = [
        _block_arrangements(tuple(x.point(e) for e in elems)) for elems in block_elements
    ]
    total = 0
    for combo in product(*choices):
        coords = list(x.points)
        for elems, arrangement in zip(block_elements, combo):
            for e, value in zip(elems, arrangement):
                coords[e - 1] = value
        total += multiplicity(p, PointConfig(tuple(coords)))
    return total


# ---------------------------------------------------------------------------
# discrepancy sets and strict diagonals
# ---------------------------------------------------------------------------


def in_discrepancy_set(a: SetPartition, b: SetPartition, x: PointConfig) -> bool:
    """Membership in the discrepancy set of the pair (a, b): some pair of
    labels that exactly one of a and b relates coincides in x."""
    a._same_ground_set(b)
    _check_config(a, x)
    la, lb, pts = a.labels(), b.labels(), x.points
    return any(
        (la[i] == la[j]) != (lb[i] == lb[j]) and pts[i] == pts[j]
        for i, j in combinations(range(a.n), 2)
    )


def _block_deviation_sq(block: frozenset[int], gaps: Mapping[tuple[int, int], Fraction]) -> Fraction:
    """Sum of squared deviations of a block's points from their mean, read
    from the pair gaps by Lagrange's identity
    sum_{e in b} |x_e - mean_b|^2 = (1/|b|) sum_{i<j in b} |x_i - x_j|^2."""
    return sum((gaps[pair] for pair in combinations(sorted(block), 2)), Fraction(0)) / len(block)


def _within_radius(p: SetPartition, gaps: Mapping, memo: dict, radius_sq: Fraction) -> bool:
    """Whether strict_diagonal_distance_sq(p, x) < radius_sq, from the pair
    gaps of x, with per-block values kept in `memo`.

    Only blocks of two or more points are summed, since a lone point is its
    own mean.  Block deviations are non-negative, so the sum stops as soon as
    it reaches `radius_sq`: the blocks after that one are not read, and a
    block that no partition reaches is never computed.
    """
    total = Fraction(0)
    for b in p.blocks:
        if len(b) > 1:
            if b not in memo:
                memo[b] = _block_deviation_sq(b, gaps)
            total += memo[b]
            if total >= radius_sq:
                return False
    return True


def strict_diagonal_distance_sq(p: SetPartition, x: PointConfig) -> Fraction:
    """Squared Euclidean distance from x to the strict diagonal of p.

    The orthogonal projection replaces each block's points by their mean,
    so the squared distance is the sum over blocks b of the squared
    deviations from the block mean.  By Lagrange's identity that is
    sum_b (1/|b|) sum_{i<j in b} |x_i - x_j|^2, which is how it is
    computed: from the squared pair gaps, with no block means.  Exact, and
    square-root free.
    """
    _check_config(p, x)
    gaps = _pair_gaps_sq(x, p.blocks)
    return sum((_block_deviation_sq(b, gaps) for b in p.blocks if len(b) > 1), Fraction(0))


# ---------------------------------------------------------------------------
# epsilon schedules and Q-set classification
# ---------------------------------------------------------------------------


class _EpsilonScheduleFields(NamedTuple):
    c_sq: Fraction
    ratio_sq: Fraction


class EpsilonSchedule(_EpsilonScheduleFields):
    """Geometrically decreasing diagonal-neighborhood radii.

    Stores squared values only.  eps_sq(p) = c^2 / ratio^(2*|blocks of p|),
    so every radius is strictly below c, the radius depends on the partition
    only through its number of blocks, and consecutive ranks are separated
    by the factor `ratio`.  The classifier is guaranteed a unique answer
    only when c is small against the configuration's point gaps; the
    default constructor ties c to 1/8 of the minimum gap.
    """

    __slots__ = ()

    def __new__(cls, c_sq: Rational, ratio_sq: Rational):
        c_sq, ratio_sq = _exact(c_sq), _exact(ratio_sq)
        if c_sq <= 0:
            raise ValueError("the bound c must be positive")
        if ratio_sq <= 1:
            raise ValueError("the ratio R must exceed 1")
        return super().__new__(cls, c_sq, ratio_sq)

    _make = _make
    __add__ = __radd__ = __mul__ = __rmul__ = _refuse_sequence_ops

    @classmethod
    def default_for(cls, x: PointConfig) -> "EpsilonSchedule":
        """Schedule with c = (minimum pairwise gap)/8 and ratio 16."""
        gap_sq = x.min_gap_sq()
        c_sq = Fraction(1) if gap_sq is None else gap_sq / 64
        return cls(c_sq=c_sq, ratio_sq=256)

    def eps_sq(self, p: SetPartition) -> Fraction:
        return self.c_sq / self.ratio_sq ** len(p.blocks)


def classify_q_set(alpha: SetPartition, x: PointConfig, eps: EpsilonSchedule) -> SetPartition:
    """The unique beta <= alpha whose Q-set contains x.

    Candidates are the gamma in [0, alpha], read from the down-set table,
    whose diagonal neighborhood contains x (the bottom partition always
    qualifies); the answer is the unique maximal candidate.  The squared
    gaps |x_i - x_j|^2 of the pairs inside alpha's blocks are computed once
    per call.  Each block's squared deviation from its mean is, by
    Lagrange's identity, (1/|b|) sum_{i<j in b} |x_i - x_j|^2: it is summed
    from those gaps at most once per call, and each radius is computed once
    per block count.  A gamma's distance sums only its blocks of two or more
    points, and stops at the first block that brings it to gamma's radius:
    deviations are non-negative, so gamma is then no candidate.  Several
    maximal candidates mean the schedule is too loose for this
    configuration, which is an error, not a choice.
    """
    _check_config(alpha, x)
    ps = partitions(alpha.n)
    index, down = _down_sets(alpha.n)
    a = index[alpha.labels()]
    gaps = _pair_gaps_sq(x, alpha.blocks)  # every gamma <= alpha pairs only these
    deviations: dict[frozenset[int], Fraction] = {}
    radii: dict[int, Fraction] = {}
    candidates = []
    for i in down[a] + (a,):
        gamma = ps[i]
        count = len(gamma.blocks)
        if count not in radii:
            radii[count] = eps.eps_sq(gamma)
        if _within_radius(gamma, gaps, deviations, radii[count]):
            candidates.append(i)
    covered = {j for i in candidates for j in down[i]}
    maximal = sorted(i for i in candidates if i not in covered)
    if len(maximal) != 1:
        found = ", ".join(repr(ps[i]) for i in maximal)
        raise InadmissibleScheduleError(
            f"inadmissible schedule for this configuration: maximal candidates {found}"
        )
    return ps[maximal[0]]


# ---------------------------------------------------------------------------
# the discrepancy recursion
# ---------------------------------------------------------------------------


def delta_transform(alpha: SetPartition, values: Union[Mapping, Callable]) -> dict[SetPartition, object]:
    """Solve delta_beta = F(beta) - sum_{gamma < beta} delta_gamma on the
    interval below alpha.

    F may be a mapping or a callable defined on every beta <= alpha; the
    values may live in any abelian group, since the recursion only
    subtracts.  The interval [0, alpha] and each beta's strict refinements
    come from the down-set table, in rank order.  By construction the
    inverse relation F(beta) = sum_{gamma <= beta} delta_gamma holds
    exactly.
    """
    if isinstance(values, Mapping):
        def fetch(p):
            try:
                return values[p]
            except KeyError:
                raise ValueError(f"F is not defined on {p!r}") from None
    else:
        fetch = values
    ps = partitions(alpha.n)
    index, down = _down_sets(alpha.n)
    a = index[alpha.labels()]
    delta: dict[int, object] = {}
    for i in down[a] + (a,):
        acc = fetch(ps[i])
        for j in down[i]:
            acc = acc - delta[j]
        delta[i] = acc
    return {ps[i]: value for i, value in delta.items()}


def _require_sizes(t: Mapping[int, object], n: int) -> None:
    """Refuse per-size values t that miss a block size 1..n, naming it."""
    missing = next((k for k in range(1, n + 1) if k not in t), None)
    if missing is not None:
        raise ValueError(f"t is not defined on block size {missing}")


def _ring_product(factors) -> object:
    it = iter(factors)
    out = next(it)
    for f in it:
        out = out * f
    return out


def multiplicative_delta_property(t: Mapping[int, object], n: int) -> bool:
    """Check that block-multiplicative F forces block-multiplicative delta.

    Given per-size values t, set F(beta) = prod_i t[|beta_i|] on every
    lattice below the top; the discrepancy of alpha must factor as the
    product of the top discrepancies of its blocks, for every alpha.  n is a
    positive int, and t holds a value for every block size 1..n.
    """
    _require_sizes(t, _int(n, "n", 1))

    def block_product(p: SetPartition):
        return _ring_product(t[len(b)] for b in p.blocks)

    top_delta = {
        k: delta_transform(SetPartition.whole(k), block_product)[SetPartition.whole(k)]
        for k in range(1, n + 1)
    }
    deltas = delta_transform(SetPartition.whole(n), block_product)
    for alpha in partitions(n):
        expected = _ring_product(top_delta[len(b)] for b in alpha.blocks)
        if deltas[alpha] != expected:
            return False
    return True
