"""Self-check suites behind the `verify` CLI subcommand.

Each suite re-runs a family of cross-checks (oracle against formula,
identity against enumeration) and reports one result per property with
the first counterexample on failure.  Everything is deterministic: the
randomized checks use a fixed seed.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial
from typing import Iterable, NamedTuple

from . import macmahon, plane_partitions
from ._values import _int, _refuse_sequence_ops, _show
from .chern import ChernNumbers, catalog
from .cobordism import decompose, generator_chern_numbers, generator_determinant, verify_exponent_identity
from .degrees import (
    discrepancy_degrees,
    log_macmahon_neg_coeffs,
    multiplicativity_failures,
    reconstructed_coefficient,
    universality_failures,
)
from .dt import dt_series
from .lattice import (
    PointConfig,
    SetPartition,
    alpha_factorial,
    delta_transform,
    fiber_multiplicity_sum,
    multiplicative_delta_property,
    partitions,
)

__all__ = ["Check", "MAX_N", "SUITES", "max_n_limit", "run_suite"]

_SEED = 20080613


class Check(NamedTuple):
    """One property's result.  `status` is PASS, FAIL or SKIP; `cases` counts
    the cases the property covers, whatever the status, and `detail` is a
    failing check's first counterexample."""

    name: str
    status: str
    cases: int
    detail: str = ""

    __add__ = __radd__ = __mul__ = __rmul__ = _refuse_sequence_ops


def _check(name: str, cases: int, counterexamples: Iterable[str]) -> Check:
    """Run one property up to its first counterexample, if it has one.  A
    property with no cases proves nothing: it is skipped, whatever it yields."""
    if cases == 0:
        return Check(name, "SKIP", 0)
    bad = next(iter(counterexamples), None)
    return Check(name, "PASS" if bad is None else "FAIL", cases, bad or "")


def _bell_numbers(count: int) -> list[int]:
    # Bell triangle; independent of the partition enumerator.
    bells = [1]
    row = [1]
    for _ in range(count):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        bells.append(new[0])
        row = new
    return bells


def _oracle_failures(series, limit: int):
    for k in range(limit + 1):
        counted = plane_partitions.count_plane_partitions(k)
        if series[k] != counted:
            yield f"q^{k}: product formula {series[k]} vs enumeration {counted}"


def _log_closed_form_failures(limit: int):
    from_series = macmahon.macmahon_neg(limit).log1()
    for k, closed in enumerate(log_macmahon_neg_coeffs(limit), start=1):
        if from_series[k] != closed:
            yield f"q^{k}: series log {from_series[k]} vs closed form {closed}"


def suite_macmahon(max_n: int) -> list[Check]:
    # the knob never exceeds the largest size the enumeration oracle takes
    limit = min(max_n, plane_partitions.ORACLE_BOUND)
    series = macmahon.macmahon_series(limit)
    twisted = macmahon.macmahon_neg(limit)
    return [
        _check("macmahon/oracle-equivalence", limit + 1, _oracle_failures(series, limit)),
        _check("macmahon/sign-twist", limit + 1, (
            f"q^{k}: M(-q) coefficient {twisted[k]} vs {(-1) ** k * series[k]}"
            for k in range(limit + 1) if twisted[k] != (-1) ** k * series[k])),
        _check("macmahon/log-closed-form", limit, _log_closed_form_failures(limit)),
    ]


def _meet_join_failures(sizes: range):
    for n in sizes:
        ps = partitions(n)
        for a, b in product(ps, repeat=2):
            if a.meet(b) != b.meet(a) or a.join(b) != b.join(a):
                yield f"n={n}: meet/join not commutative on {a!r}, {b!r}"
            if a.meet(a.join(b)) != a or a.join(a.meet(b)) != a:
                yield f"n={n}: absorption fails on {a!r}, {b!r}"
        for a, b, c in product(ps, repeat=3):
            if a.meet(b.meet(c)) != a.meet(b).meet(c):
                yield f"n={n}: meet not associative on {a!r}, {b!r}, {c!r}"
            if a.join(b.join(c)) != a.join(b).join(c):
                yield f"n={n}: join not associative on {a!r}, {b!r}, {c!r}"


_TWO_POINTS = ((Fraction(0), Fraction(0), Fraction(0)), (Fraction(1), Fraction(0), Fraction(0)))


def _fiber_sum_failures(sizes: range):
    # every configuration of n labeled points on two sites
    for n in sizes:
        for points in product(_TWO_POINTS, repeat=n):
            x = PointConfig(points)
            for alpha in partitions(n):
                got, expected = fiber_multiplicity_sum(alpha, x), alpha_factorial(alpha)
                if got != expected:
                    yield f"n={n}, alpha={alpha!r}, x={x.points}: fiber sum {got} vs alpha! = {expected}"


def _moebius_top_failures(sizes: range):
    for n in sizes:
        bottom, top = SetPartition.singletons(n), SetPartition.whole(n)
        point_mass = {p: (1 if p == bottom else 0) for p in partitions(n)}
        mu_top = delta_transform(top, point_mass)[top]
        expected = (-1) ** (n - 1) * factorial(n - 1)
        if mu_top != expected:
            yield f"n={n}: Moebius value {mu_top} vs {expected}"


def _delta_inversion_failures(sizes: range, rng: random.Random):
    for n in sizes:
        values = {p: rng.randint(-9, 9) for p in partitions(n)}
        deltas = delta_transform(SetPartition.whole(n), values)
        for beta in partitions(n):
            total = sum(deltas[g] for g in partitions(n) if g <= beta)
            if total != values[beta]:
                yield f"n={n}: summing deltas below {beta!r} gives {total}, F says {values[beta]}"


def _delta_multiplicativity_failures(size: int, trials: int, rng: random.Random):
    for _ in range(trials):
        t = {k: rng.randint(-9, 9) for k in range(1, 5)}
        if not multiplicative_delta_property(t, size):
            yield f"t = {t}"


def suite_lattice(limit: int) -> list[Check]:
    # every check here is exponential in n; each piece caps the knob at the
    # largest size that stays interactive
    rng = random.Random(_SEED)  # drawn by delta-inverts-summation, then delta-multiplicativity
    bell_limit = min(limit, 8)
    bells = _bell_numbers(bell_limit)
    axiom_sizes = range(1, min(limit, 4) + 1)
    fiber_sizes = range(1, min(limit, 6) + 1)
    inversion_sizes = range(1, min(limit, 5) + 1)
    product_size = min(limit, 4)
    trials = 3 if product_size >= 1 else 0
    return [
        _check("lattice/bell-counts", bell_limit + 1, (
            f"n={n}: enumerated {len(partitions(n))} partitions, Bell triangle says {bells[n]}"
            for n in range(bell_limit + 1) if len(partitions(n)) != bells[n])),
        _check("lattice/meet-join-axioms", sum(len(partitions(n)) ** 3 for n in axiom_sizes),
               _meet_join_failures(axiom_sizes)),
        _check("lattice/fiber-multiplicity-sum", sum(2 ** n * len(partitions(n)) for n in fiber_sizes),
               _fiber_sum_failures(fiber_sizes)),
        _check("lattice/moebius-top-value", len(fiber_sizes), _moebius_top_failures(fiber_sizes)),
        _check("lattice/delta-inverts-summation", sum(len(partitions(n)) for n in inversion_sizes),
               _delta_inversion_failures(inversion_sizes, rng)),
        _check("lattice/delta-multiplicativity", trials, _delta_multiplicativity_failures(product_size, trials, rng)),
    ]


def _exponent_identity_failures(trials: int, rng: random.Random):
    for _ in range(trials):
        c = ChernNumbers(rng.randint(-400, 400), rng.randint(-400, 400), rng.randint(-400, 400))
        if decompose(c).reconstruct() != c:
            yield f"round trip failed on {c}"
        report = verify_exponent_identity(c)
        if not report.ok:
            yield f"exponent identity failed on {c}: {report.lhs} vs {report.rhs}"


def suite_cobordism(trials: int) -> list[Check]:
    gens = generator_chern_numbers()
    det = generator_determinant()
    dec = decompose(ChernNumbers(0, 0, -200))  # the quintic
    quintic_ok = dec.coefficients == (Fraction(-150), Fraction(400), Fraction(-250)) and dec.m == 1
    return [
        _check("cobordism/generator-columns", 1,
               [f"got {gens}"] if gens != ((64, 24, 4), (54, 24, 6), (48, 24, 8)) else []),
        _check("cobordism/determinant", 1, [f"det = {det}"] if det != 192 else []),
        _check("cobordism/quintic-decomposition", 1, [f"got {dec}"] if not quintic_ok else []),
        _check("cobordism/exponent-identity", trials, _exponent_identity_failures(trials, random.Random(_SEED))),
    ]


def _reconstruction_failures(specs, order: int):
    for spec in specs:
        series = dt_series(spec, order)
        t = discrepancy_degrees(spec, order)
        for n in range(1, order + 1):
            rebuilt = reconstructed_coefficient(t, n)
            if rebuilt != series.series[n]:
                yield f"{spec.label()}: partition sum gives f_{n} = {rebuilt}, series says {series.series[n]}"


def suite_universality(limit: int) -> list[Check]:
    specs = catalog()
    # the reconstruction enumerates whole partition lattices, so cap its size
    rebuild_limit = min(limit, 8)
    pairs = tuple(combinations_with_replacement(specs, 2))
    return [
        _check("universality/proportional-degrees", len(specs) * max(limit, 0),
               universality_failures(specs, limit) if limit >= 1 else ()),
        _check("universality/exponential-reconstruction", len(specs) * max(rebuild_limit, 0),
               _reconstruction_failures(specs, rebuild_limit)),
        _check("universality/disjoint-union-multiplicativity", len(pairs), (
            line for a, b in pairs for line in multiplicativity_failures(a, b, 10))),
    ]


SUITES = {
    "macmahon": suite_macmahon,
    "lattice": suite_lattice,
    "cobordism": suite_cobordism,
    "universality": suite_universality,
}


# Each suite's size when --max-n is not given, and the largest --max-n it
# accepts.  The macmahon and lattice suites clamp their exponential pieces
# themselves; cobordism runs one random trial per unit (about 0.6 ms each)
# and universality extracts degrees up to the knob for every catalog
# threefold (about 4 s at 200).
_DEFAULT_N = {"macmahon": 12, "lattice": 5, "cobordism": 1000, "universality": 7}
MAX_N = {"macmahon": 10_000, "lattice": 10_000, "cobordism": 10_000, "universality": 200}


def max_n_limit(name: str) -> int:
    """The largest --max-n accepted by one suite, or by every suite for "all"."""
    if name == "all":
        return min(MAX_N.values())
    if not isinstance(name, str) or name not in MAX_N:
        raise ValueError(f"unknown suite {_show(name)}; known suites: {', '.join(SUITES)}, all")
    return MAX_N[name]


def run_suite(name: str, max_n: int | None = None) -> list[Check]:
    """Run one named suite, or every suite for "all".  `max_n` is None, for
    each suite's default size, or a non-negative int up to max_n_limit(name)."""
    limit = max_n_limit(name)
    if max_n is not None and _int(max_n, "max_n", 0) > limit:
        raise ValueError(f"max_n must be at most {limit} for suite {name}, got {_show(max_n)}")
    names = SUITES if name == "all" else (name,)
    return [check for suite in names for check in SUITES[suite](_DEFAULT_N[suite] if max_n is None else max_n)]
