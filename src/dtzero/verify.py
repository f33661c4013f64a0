"""Self-check suites behind the `verify` CLI subcommand.

Each suite re-runs a family of cross-checks (oracle against formula,
identity against enumeration) and reports one result per property with
the first counterexample on failure.  Everything is deterministic: the
randomized checks use a fixed seed.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import macmahon
from .chern import ChernNumbers, catalog, twist_exponent
from .cobordism import decompose, generator_chern_numbers, generator_determinant, verify_exponent_identity
from .dt import discrepancy_degrees, dt_series, reconstructed_coefficient, verify_multiplicativity, verify_universality
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


@dataclass(frozen=True)
class Check:
    """One property's result.  `cases` counts the cases the property covers
    (a failing check stops at its first counterexample); a check with no
    cases proves nothing and is reported as skipped."""

    name: str
    ok: bool
    cases: int
    detail: str = ""


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


def suite_macmahon(max_n: int | None = None) -> list[Check]:
    # the enumeration oracle is practical to ~25; the knob never exceeds that
    limit = 12 if max_n is None else min(max_n, 25)
    checks = []

    bad = ""
    series = macmahon.macmahon_series(limit)
    for k in range(limit + 1):
        counted = macmahon.count_plane_partitions(k, bound=max(limit, macmahon.DEFAULT_ORACLE_BOUND))
        if series[k] != counted:
            bad = f"q^{k}: product formula {series[k]} vs enumeration {counted}"
            break
    checks.append(Check("macmahon/oracle-equivalence", not bad, limit + 1, bad))

    bad = ""
    twisted = macmahon.macmahon_neg(limit)
    for k in range(limit + 1):
        expected = (-1) ** k * series[k]
        if twisted[k] != expected:
            bad = f"q^{k}: M(-q) coefficient {twisted[k]} vs {expected}"
            break
    checks.append(Check("macmahon/sign-twist", not bad, limit + 1, bad))

    bad = ""
    if limit >= 1:
        try:
            macmahon.log_macmahon_neg_coeffs(limit)
        except ArithmeticError as exc:
            bad = str(exc)
    checks.append(Check("macmahon/log-closed-form", not bad, limit, bad))
    return checks


def _two_point_configs(n: int):
    p = (Fraction(0), Fraction(0), Fraction(0))
    q = (Fraction(1), Fraction(0), Fraction(0))
    def rec(i, acc):
        if i == n:
            yield PointConfig(tuple(acc))
            return
        for point in (p, q):
            acc.append(point)
            yield from rec(i + 1, acc)
            acc.pop()
    yield from rec(0, [])


def suite_lattice(max_n: int | None = None) -> list[Check]:
    # every check here is exponential in n; each piece caps the knob at the
    # largest size that stays interactive
    limit = 5 if max_n is None else max_n
    rng = random.Random(_SEED)
    checks = []

    bell_limit = min(limit, 8)
    bells = _bell_numbers(max(bell_limit, 6))
    bad = ""
    for n in range(bell_limit + 1):
        if len(partitions(n)) != bells[n]:
            bad = f"n={n}: enumerated {len(partitions(n))} partitions, Bell triangle says {bells[n]}"
            break
    checks.append(Check("lattice/bell-counts", not bad, bell_limit + 1, bad))

    bad = ""
    cases = 0
    for n in range(1, min(limit, 4) + 1):
        ps = partitions(n)
        cases += len(ps) ** 3
        for a in ps:
            for b in ps:
                if a.meet(b) != b.meet(a) or a.join(b) != b.join(a):
                    bad = f"n={n}: meet/join not commutative on {a!r}, {b!r}"
                    break
                if a.meet(a.join(b)) != a or a.join(a.meet(b)) != a:
                    bad = f"n={n}: absorption fails on {a!r}, {b!r}"
                    break
            if bad:
                break
        for a in ps:
            for b in ps:
                for c in ps:
                    if a.meet(b.meet(c)) != a.meet(b).meet(c):
                        bad = f"n={n}: meet not associative on {a!r}, {b!r}, {c!r}"
                        break
                    if a.join(b.join(c)) != a.join(b).join(c):
                        bad = f"n={n}: join not associative on {a!r}, {b!r}, {c!r}"
                        break
                if bad:
                    break
            if bad:
                break
        if bad:
            break
    checks.append(Check("lattice/meet-join-axioms", not bad, cases, bad))

    bad = ""
    cases = 0
    for n in range(1, min(limit, 6) + 1):
        for x in _two_point_configs(n):
            for alpha in partitions(n):
                cases += 1
                got = fiber_multiplicity_sum(alpha, x)
                expected = alpha_factorial(alpha)
                if got != expected:
                    bad = f"n={n}, alpha={alpha!r}, x={x.points}: fiber sum {got} vs alpha! = {expected}"
                    break
            if bad:
                break
        if bad:
            break
    checks.append(Check("lattice/fiber-multiplicity-sum", not bad, cases, bad))

    bad = ""
    cases = 0
    for n in range(1, min(limit, 6) + 1):
        cases += 1
        bottom = SetPartition.singletons(n)
        point_mass = {p: (1 if p == bottom else 0) for p in partitions(n)}
        mu_top = delta_transform(SetPartition.whole(n), point_mass)[SetPartition.whole(n)]
        expected = (-1) ** (n - 1) * factorial(n - 1)
        if mu_top != expected:
            bad = f"n={n}: Moebius value {mu_top} vs {expected}"
            break
    checks.append(Check("lattice/moebius-top-value", not bad, cases, bad))

    bad = ""
    cases = 0
    for n in range(1, min(limit, 5) + 1):
        top = SetPartition.whole(n)
        values = {p: rng.randint(-9, 9) for p in partitions(n)}
        deltas = delta_transform(top, values)
        for beta in partitions(n):
            cases += 1
            total = sum(deltas[g] for g in partitions(n) if g <= beta)
            if total != values[beta]:
                bad = f"n={n}: summing deltas below {beta!r} gives {total}, F says {values[beta]}"
                break
        if bad:
            break
    checks.append(Check("lattice/delta-inverts-summation", not bad, cases, bad))

    bad = ""
    size = min(limit, 4)
    trials = 3 if size >= 1 else 0
    for _ in range(trials):
        t = {k: rng.randint(-9, 9) for k in range(1, 5)}
        if not multiplicative_delta_property(t, size):
            bad = f"t = {t}"
            break
    checks.append(Check("lattice/delta-multiplicativity", not bad, trials, bad))
    return checks


def suite_cobordism(max_n: int | None = None) -> list[Check]:
    trials = 1000 if max_n is None else max_n
    rng = random.Random(_SEED)
    checks = []

    gens = generator_chern_numbers()
    expected_cols = ((64, 24, 4), (54, 24, 6), (48, 24, 8))
    ok = tuple((g.c111, g.c12, g.c3) for g in gens) == expected_cols
    checks.append(Check("cobordism/generator-columns", ok, 1, "" if ok else f"got {gens}"))

    det = generator_determinant()
    checks.append(Check("cobordism/determinant", det == 192, 1, "" if det == 192 else f"det = {det}"))

    quintic = ChernNumbers(0, 0, -200)
    dec = decompose(quintic)
    ok = dec.coefficients == (Fraction(-150), Fraction(400), Fraction(-250)) and dec.m == 1
    checks.append(Check("cobordism/quintic-decomposition", ok, 1, "" if ok else f"got {dec}"))

    bad = ""
    for _ in range(trials):
        c = ChernNumbers(rng.randint(-400, 400), rng.randint(-400, 400), rng.randint(-400, 400))
        dec = decompose(c)
        if dec.reconstruct() != c:
            bad = f"round trip failed on {c}"
            break
        report = verify_exponent_identity(c)
        if not report.ok:
            bad = f"exponent identity failed on {c}: {report.lhs} vs {report.rhs}"
            break
    checks.append(Check("cobordism/exponent-identity", not bad, trials, bad))
    return checks


def suite_universality(max_n: int | None = None) -> list[Check]:
    limit = 7 if max_n is None else max_n
    specs = catalog()
    checks = []

    ok, detail = True, ""
    if limit >= 1:
        report = verify_universality(specs, limit)
        ok, detail = report.ok, "" if report.ok else report.failures[0]
    checks.append(Check("universality/proportional-degrees", ok, len(specs) * max(limit, 0), detail))

    # the reconstruction enumerates whole partition lattices, so cap its size
    rebuild_limit = min(limit, 8)
    bad = ""
    for spec in specs if rebuild_limit >= 1 else ():
        series = dt_series(spec, rebuild_limit)
        t = discrepancy_degrees(spec, rebuild_limit)
        for n in range(1, rebuild_limit + 1):
            rebuilt = reconstructed_coefficient(t, n)
            if rebuilt != series.series[n]:
                bad = f"{spec.label()}: partition sum gives f_{n} = {rebuilt}, series says {series.series[n]}"
                break
        if bad:
            break
    checks.append(Check("universality/exponential-reconstruction", not bad, len(specs) * max(rebuild_limit, 0), bad))

    bad = ""
    cases = 0
    for i, a in enumerate(specs):
        for b in specs[i:]:
            cases += 1
            result = verify_multiplicativity(a, b, order=10)
            if not result.ok:
                bad = f"{a.label()} + {b.label()}"
                break
        if bad:
            break
    checks.append(Check("universality/disjoint-union-multiplicativity", not bad, cases, bad))
    return checks


SUITES = {
    "macmahon": suite_macmahon,
    "lattice": suite_lattice,
    "cobordism": suite_cobordism,
    "universality": suite_universality,
}


# Largest --max-n each suite accepts.  The macmahon and lattice suites clamp
# their exponential pieces themselves; cobordism runs one random trial per
# unit (about 0.6 ms each) and universality extracts degrees up to the knob
# for every catalog threefold (about 4 s at 200).
MAX_N = {"macmahon": 10_000, "lattice": 10_000, "cobordism": 10_000, "universality": 200}


def max_n_limit(name: str) -> int:
    """The largest --max-n accepted by one suite, or by every suite for "all"."""
    return min(MAX_N.values()) if name == "all" else MAX_N[name]


def run_suite(name: str, max_n: int | None = None) -> list[Check]:
    """Run one named suite, or every suite for "all"."""
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite(max_n))
        return out
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](max_n)
