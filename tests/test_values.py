"""Every integer argument of the package goes through `_values._int`: a bool,
a float, a string or a Fraction is refused with a ValueError that names the
argument, never truncated, and so is an int below the argument's least value."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from dtzero import (
    EpsilonSchedule,
    PlanePartition,
    SetPartition,
    SpecDocumentError,
    ThreefoldSpec,
    TruncatedSeries,
    chern_of_hypersurface,
    chern_of_projective_space_product,
    count_plane_partitions,
    discrepancy_degrees,
    dt_series,
    iter_plane_partitions,
    log_macmahon_neg_coeffs,
    macmahon_series,
    multiplicative_delta_property,
    parse_spec_document,
    partitions,
    sigma2,
    verify_root_argument,
    verify_universality,
)

P3 = ThreefoldSpec.builtin("P3")

# (row id, call with the value in the checked slot, the argument's name in
# the message, least value: None, 0 or 1)
ROWS = [
    ("macmahon_series", macmahon_series, "order", 0),
    ("sigma2", sigma2, "k", 1),
    ("log_macmahon_neg_coeffs", log_macmahon_neg_coeffs, "order", 1),
    ("dt_series", lambda v: dt_series(P3, v), "order", 0),
    ("discrepancy_degrees", lambda v: discrepancy_degrees(P3, v), "n_max", 1),
    ("verify_universality", lambda v: verify_universality([P3], v), "n_max", 1),
    ("verify_root_argument", lambda v: verify_root_argument(P3, v, 2), "m", 1),
    ("SetPartition.n", lambda v: SetPartition(v, ()), "n", 0),
    ("SetPartition.element", lambda v: SetPartition(2, ({1}, {v})), "element", None),
    ("partitions", partitions, "n", 0),
    ("SetPartition.singletons", SetPartition.singletons, "n", 0),
    ("SetPartition.whole", SetPartition.whole, "n", 0),
    ("multiplicative_delta_property", lambda v: multiplicative_delta_property({1: 1, 2: 1}, v), "n", 1),
    ("EpsilonSchedule.n", lambda v: EpsilonSchedule(n=v, c_sq=1, ratio_sq=4), "n", 0),
    ("count_plane_partitions", count_plane_partitions, "n", 0),
    ("iter_plane_partitions", lambda v: list(iter_plane_partitions(v)), "n", 0),
    ("PlanePartition", lambda v: PlanePartition([[v]]), "height", 1),
    ("TruncatedSeries.from_coefficients", lambda v: TruncatedSeries.from_coefficients([1], v), "order", 0),
    ("TruncatedSeries.one", TruncatedSeries.one, "order", 0),
    ("TruncatedSeries.monomial.power", lambda v: TruncatedSeries.monomial(1, v, 3), "power", 0),
    ("TruncatedSeries.monomial.order", lambda v: TruncatedSeries.monomial(1, 0, v), "order", 0),
    ("chern_of_hypersurface", chern_of_hypersurface, "degree", 1),
    ("chern_of_projective_space_product", lambda v: chern_of_projective_space_product([v]), "dims[0]", 1),
    ("ThreefoldSpec.hypersurface", ThreefoldSpec.hypersurface, "degree", 1),
    ("ThreefoldSpec.product", lambda v: ThreefoldSpec.product([1, v]), "dims[1]", 1),
    ("document.chern", lambda v: parse_spec_document({"chern": {"c111": v, "c12": 0, "c3": 0}}),
     "spec.chern.c111", None),
    ("document.hypersurface", lambda v: parse_spec_document({"hypersurface": {"degree": v}}),
     "spec.hypersurface.degree", 1),
    ("document.product", lambda v: parse_spec_document({"product": [v]}), "spec.product[0]", 1),
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


def test_long_values_are_clipped():
    with pytest.raises(ValueError, match=r"got 'x{59}\.\.\.$"):
        sigma2("x" * 10**6)


def test_plane_partition_heights_are_not_truncated():
    with pytest.raises(ValueError, match="height must be a positive integer, got 2.5"):
        PlanePartition([[2.5]])
