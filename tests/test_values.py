"""Every integer argument of the package goes through `_values._int`: a bool,
a float, a string or a Fraction is refused with a ValueError that names the
argument, never truncated, and so is an int below the argument's least value.
Every rational argument goes through `_values._exact`, which takes ints and
Fractions only."""

import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from dtzero import (
    ChernNumbers,
    EpsilonSchedule,
    PlanePartition,
    PointConfig,
    SetPartition,
    SpecDocumentError,
    ThreefoldSpec,
    TruncatedSeries,
    chern_of_hypersurface,
    chern_of_projective_space_product,
    chern_scale,
    count_plane_partitions,
    discrepancy_degrees,
    dt_series,
    iter_plane_partitions,
    log_macmahon_neg_coeffs,
    macmahon_series,
    multiplicative_delta_property,
    parse_spec_document,
    partitions,
    root_argument_failures,
    sigma2,
    universality_failures,
)
from dtzero.verify import max_n_limit, run_suite

P3 = ThreefoldSpec.builtin("P3")

# (row id, call with the value in the checked slot, the argument's name in
# the message, least value: None, 0 or 1)
ROWS = [
    ("macmahon_series", macmahon_series, "order", 0),
    ("sigma2", sigma2, "k", 1),
    ("log_macmahon_neg_coeffs", log_macmahon_neg_coeffs, "order", 1),
    ("dt_series", lambda v: dt_series(P3, v), "order", 0),
    ("discrepancy_degrees", lambda v: discrepancy_degrees(P3, v), "n_max", 1),
    ("universality_failures", lambda v: universality_failures([P3], v), "n_max", 1),
    ("root_argument_failures", lambda v: root_argument_failures(P3, v, 2), "m", 1),
    ("SetPartition.n", lambda v: SetPartition(v, ()), "n", 0),
    ("SetPartition.element", lambda v: SetPartition(2, ({1}, {v})), "element", None),
    ("partitions", partitions, "n", 0),
    ("SetPartition.singletons", SetPartition.singletons, "n", 0),
    ("SetPartition.whole", SetPartition.whole, "n", 0),
    ("multiplicative_delta_property", lambda v: multiplicative_delta_property({1: 1, 2: 1}, v), "n", 1),
    ("count_plane_partitions", count_plane_partitions, "n", 0),
    ("iter_plane_partitions", lambda v: list(iter_plane_partitions(v)), "n", 0),
    ("PlanePartition", lambda v: PlanePartition([[v]]), "height", 1),
    ("TruncatedSeries.zero", TruncatedSeries.zero, "order", 0),
    ("TruncatedSeries.one", TruncatedSeries.one, "order", 0),
    ("chern_of_hypersurface", chern_of_hypersurface, "degree", 1),
    ("chern_of_projective_space_product", lambda v: chern_of_projective_space_product([v]), "dims[0]", 1),
    ("ThreefoldSpec.hypersurface", ThreefoldSpec.hypersurface, "degree", 1),
    ("ThreefoldSpec.product", lambda v: ThreefoldSpec.product([1, v]), "dims[1]", 1),
    ("document.chern", lambda v: parse_spec_document({"chern": {"c111": v, "c12": 0, "c3": 0}}),
     "spec.chern.c111", None),
    ("document.hypersurface", lambda v: parse_spec_document({"hypersurface": {"degree": v}}),
     "spec.hypersurface.degree", 1),
    ("document.product", lambda v: parse_spec_document({"product": [v]}), "spec.product[0]", 1),
    *[(f"run_suite.{suite}", lambda v, suite=suite: run_suite(suite, v), "max_n", 0)
      for suite in ("macmahon", "lattice", "cobordism", "universality", "all")],
]
IDS = [row[0] for row in ROWS]


def refuses(call, name: str, value) -> None:
    """`call(value)` raises a ValueError whose message begins with `name`;
    a SpecDocumentError when the name is a path in a spec document."""
    expected = SpecDocumentError if name.startswith("spec.") else ValueError
    with pytest.raises(expected, match="^" + re.escape(name) + " must be an? "):
        call(value)


@pytest.mark.parametrize("row_id, call, name, least", ROWS, ids=IDS)
@pytest.mark.parametrize("value", [2.0, True, "2", Fraction(2)], ids=repr)
def test_non_integers_are_refused(row_id, call, name, least, value):
    refuses(call, name, value)


@pytest.mark.parametrize("row_id, call, name, least", [row for row in ROWS if row[3] is not None],
                         ids=[row[0] for row in ROWS if row[3] is not None])
def test_values_below_the_least_are_refused(row_id, call, name, least):
    kind = "a positive integer" if least == 1 else "a non-negative integer"
    with pytest.raises(ValueError, match=re.escape(f"{name} must be {kind}, got {least - 1}")):
        call(least - 1)


@pytest.mark.parametrize("row_id, call, name, least", ROWS, ids=IDS)
@given(value=st.one_of(st.floats(), st.booleans(), st.text(), st.fractions()))
def test_drawn_non_integers_are_refused(row_id, call, name, least, value):
    refuses(call, name, value)


@pytest.mark.parametrize("suite", ["macmahon", "lattice", "cobordism", "universality", "all"])
def test_run_suite_caps_max_n(suite):
    # refused before any check runs: universality at 10**6 would run for minutes
    with pytest.raises(ValueError, match=f"^max_n must be at most {max_n_limit(suite)} for suite {suite}, "):
        run_suite(suite, max_n_limit(suite) + 1)
    with pytest.raises(ValueError, match="^max_n must be at most 200 for suite universality, got 1000000$"):
        run_suite("universality", 10**6)


@pytest.mark.parametrize("call", [run_suite, max_n_limit], ids=["run_suite", "max_n_limit"])
@pytest.mark.parametrize("name", ["nope", True, ["all"]], ids=repr)
def test_unknown_suites_are_refused(call, name):
    known = "known suites: macmahon, lattice, cobordism, universality, all"
    with pytest.raises(ValueError, match=f"^unknown suite {re.escape(repr(name))}; {known}$"):
        call(name)


def test_long_values_are_clipped():
    with pytest.raises(ValueError, match=r"got 'x{59}\.\.\.$"):
        sigma2("x" * 10**6)


def test_plane_partition_heights_are_not_truncated():
    with pytest.raises(ValueError, match="height must be a positive integer, got 2.5"):
        PlanePartition([[2.5]])


HUGE = 10**5000  # past Python's 4 300-digit limit for writing an int in decimal


@pytest.mark.parametrize("row_id, call, name, least", [row for row in ROWS if row[3] is not None],
                         ids=[row[0] for row in ROWS if row[3] is not None])
def test_ints_past_the_digit_limit_are_named(row_id, call, name, least):
    kind = "a positive integer" if least == 1 else "a non-negative integer"
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be {kind}, got an int of about 5001 digits$"):
        call(-HUGE)


@pytest.mark.parametrize("suite", ["macmahon", "lattice", "cobordism", "universality", "all"])
def test_caps_name_ints_past_the_digit_limit(suite):
    with pytest.raises(ValueError, match=f"^max_n must be at most {max_n_limit(suite)} for suite {suite}, "
                                         "got an int of about 5001 digits$"):
        run_suite(suite, HUGE)
    with pytest.raises(ValueError, match="^dims must sum to 3, got a list holding an int too long to write$"):
        ThreefoldSpec.product([1, HUGE])


@pytest.mark.parametrize("call, valid, refused, name", [
    (chern_of_hypersurface, 1, True, "degree"),
    (chern_of_hypersurface, 5, 5.0, "degree"),
    (lambda v: chern_of_projective_space_product([v, 1, 1]), 1, True, "dims[0]"),
    (lambda v: chern_of_projective_space_product([v]), 3, 3.0, "dims[0]"),
], ids=["hypersurface-True", "hypersurface-5.0", "product-True", "product-3.0"])
def test_family_caches_sit_behind_the_checks(call, valid, refused, name):
    # a cache key takes True for 1 and 5.0 for 5, so a filled cache must not answer first
    call(valid)
    refuses(call, name, refused)


# (row id, call with the value in the checked rational slot); 3 and 5/2 are
# accepted in every slot
RATIONAL_ROWS = [
    ("ChernNumbers.c111", lambda v: ChernNumbers(v, 0, 0)),
    ("ChernNumbers.c12", lambda v: ChernNumbers(0, v, 0)),
    ("ChernNumbers.c3", lambda v: ChernNumbers(0, 0, v)),
    ("chern_scale", lambda v: chern_scale(v, ChernNumbers(64, 24, 4))),
    ("ThreefoldSpec.scaled", lambda v: ThreefoldSpec.scaled(v, P3)),
    ("PointConfig", lambda v: PointConfig([(0, v, 0)])),
    ("EpsilonSchedule.c_sq", lambda v: EpsilonSchedule(c_sq=v, ratio_sq=4)),
    ("EpsilonSchedule.ratio_sq", lambda v: EpsilonSchedule(c_sq=1, ratio_sq=v)),
    ("TruncatedSeries", lambda v: TruncatedSeries([1, v])),
]
RATIONAL_IDS = [row[0] for row in RATIONAL_ROWS]


def refuses_inexact(call, value) -> None:
    with pytest.raises(TypeError, match="^exact values are ints or Fractions, not floating point or other types, got "):
        call(value)


@pytest.mark.parametrize("row_id, call", RATIONAL_ROWS, ids=RATIONAL_IDS)
@pytest.mark.parametrize("value", [True, False, 2.5, "0.1", "2", "1e1000000", Decimal("0.25"), None], ids=repr)
def test_inexact_values_are_refused(row_id, call, value):
    refuses_inexact(call, value)


@pytest.mark.parametrize("row_id, call", RATIONAL_ROWS, ids=RATIONAL_IDS)
def test_ints_and_fractions_are_accepted(row_id, call):
    call(3)
    call(Fraction(5, 2))


@pytest.mark.parametrize("row_id, call", RATIONAL_ROWS, ids=RATIONAL_IDS)
@given(value=st.one_of(st.floats(), st.booleans(), st.text(), st.decimals()))
def test_drawn_inexact_values_are_refused(row_id, call, value):
    refuses_inexact(call, value)
