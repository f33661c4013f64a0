"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product
from math import factorial

from dtzero import (
    ChernNumbers,
    EpsilonSchedule,
    SetPartition,
    ThreefoldSpec,
    alpha_factorial,
    catalog,
    classify_q_set,
    count_plane_partitions,
    decompose,
    delta_transform,
    discrepancy_degrees,
    dt_series,
    fiber_multiplicity_sum,
    generator_determinant,
    macmahon_series,
    multiplicative_delta_property,
    multiplicativity_failures,
    partitions,
    PointConfig,
    reconstructed_coefficient,
    root_argument_failures,
    strict_diagonal_distance_sq,
    twist_exponent,
    universality_failures,
    verify_exponent_identity,
)


@contextmanager
def timed(label, budget_seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"{label} took {elapsed:.2f}s, budget {budget_seconds}s"
    print(f"PASS  {label} ({elapsed:.2f}s)")


def test_criterion_1_macmahon_oracle_equivalence():
    with timed("criterion 1: MacMahon oracle equivalence to n=15", 10):
        series = macmahon_series(15)
        for n in range(16):
            assert series[n] == count_plane_partitions(n), f"mismatch at q^{n}"


def test_criterion_2_catalog_integrality_and_multiplicativity():
    with timed("criterion 2: catalog series integral and multiplicative at order 20", 5):
        specs = catalog()
        for spec in specs:
            d = dt_series(spec, 20)
            assert d.series.is_integral()
            assert d.series[0] == 1
        for a, b in combinations(specs, 2):
            assert multiplicativity_failures(a, b, 20) == ()


def test_criterion_3_cobordism_solver():
    with timed("criterion 3: cobordism solver", 1):
        assert generator_determinant() == 192
        dec = decompose(ChernNumbers(0, 0, -200))
        assert dec.coefficients == (-150, 400, -250)
        assert dec.m == 1
        rng = random.Random(3)
        for _ in range(1000):
            c = ChernNumbers(rng.randint(-500, 500), rng.randint(-500, 500),
                             rng.randint(-500, 500))
            assert verify_exponent_identity(c).ok


def test_criterion_4_root_integrality():
    with timed("criterion 4: m-th roots of catalog powers at order 15", 5):
        for m in (2, 3, 5):
            for spec in catalog():
                assert root_argument_failures(spec, m, 15) == ()


def test_criterion_5_splitting_principle():
    with timed("criterion 5: symbolic twist class equals c3 - c1c2", 1):
        from dtzero import twist_class_monomials

        assert dict(twist_class_monomials()) == {(0, 0, 1): 1, (1, 1, 0): -1}


def test_criterion_6_fiber_multiplicity_sums():
    with timed("criterion 6: fiber multiplicity sums over 3-point configs, n<=5", 30):
        points = (
            (Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
        )
        for n in range(1, 6):
            for combo in product(points, repeat=n):
                x = PointConfig(combo)
                for alpha in partitions(n):
                    assert fiber_multiplicity_sum(alpha, x) == alpha_factorial(alpha)


def test_criterion_7_discrepancy_recursion():
    with timed("criterion 7: discrepancy recursion, Moebius values, delta multiplicativity", 10):
        rng = random.Random(7)
        for n in range(1, 7):
            top = SetPartition.whole(n)
            values = {p: rng.randint(-99, 99) for p in partitions(n)}
            deltas = delta_transform(top, values)
            for beta in partitions(n):
                total = sum(deltas[g] for g in partitions(n) if g <= beta)
                assert total == values[beta]
            bottom = SetPartition.singletons(n)
            point_mass = {p: (1 if p == bottom else 0) for p in partitions(n)}
            mu = delta_transform(top, point_mass)[top]
            assert mu == (-1) ** (n - 1) * factorial(n - 1)
        for _ in range(5):
            t = {k: rng.randint(-9, 9) for k in range(1, 5)}
            assert multiplicative_delta_property(t, 4)


def test_criterion_8_exponential_formula_universality():
    with timed("criterion 8: universal degrees and partition-sum reconstruction, n<=7", 10):
        assert universality_failures(catalog(), 7) == ()
        lambdas = discrepancy_degrees(ThreefoldSpec.explicit(ChernNumbers(0, 0, 1)), 7)
        for spec in catalog():
            t = discrepancy_degrees(spec, 7)
            k_x = twist_exponent(spec.resolve())
            for k in range(1, 8):
                assert t[k] == lambdas[k] * k_x
            series = dt_series(spec, 7).series
            for n in range(1, 8):
                assert reconstructed_coefficient(t, n) == series[n]


def test_criterion_9_q_set_classification():
    with timed("criterion 9: Q-set classification on 500 random configurations", 10):
        rng = random.Random(9)
        for _ in range(500):
            n = rng.randint(2, 4)
            x = PointConfig(tuple(
                (Fraction(rng.randint(0, 8), 2), Fraction(rng.randint(0, 8), 2),
                 Fraction(rng.randint(0, 8), 2))
                for _ in range(n)
            ))
            sched = EpsilonSchedule.default_for(x)
            top = SetPartition.whole(n)
            beta = classify_q_set(top, x, sched)  # raises on any ambiguity
            for gamma in partitions(n):
                if strict_diagonal_distance_sq(gamma, x) < sched.eps_sq(gamma):
                    assert gamma <= beta
