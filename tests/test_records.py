"""Value semantics of the NamedTuple records.

ChernNumbers, ThreefoldSpec, DTSeries, CobordismDecomposition,
PlanePartition, PointConfig, EpsilonSchedule and verify.Check are
NamedTuples: their repr, immutability, equality, hash and validation are
those of the frozen records they replace, and `+` and `*` never fall
through to tuple concatenation or repetition.
"""

import pickle
from fractions import Fraction

import pytest

from dtzero.chern import ChernNumbers, ThreefoldSpec
from dtzero.cobordism import CobordismDecomposition, ExponentIdentityReport, decompose
from dtzero.dt import DTSeries, dt_series
from dtzero.lattice import EpsilonSchedule, PointConfig
from dtzero.plane_partitions import PlanePartition
from dtzero.series import TruncatedSeries
from dtzero.verify import Check

P3 = ThreefoldSpec.builtin("P3")


def examples():
    """Two equal instances and one different instance of each record type."""
    return [
        (ChernNumbers(64, 24, 4), ChernNumbers(Fraction(128, 2), 24, 4), ChernNumbers(0, 0, -200)),
        (ThreefoldSpec.builtin("P3"), P3, ThreefoldSpec.hypersurface(5)),
        (dt_series(P3, 2), dt_series(P3, 2), dt_series(P3, 3)),
        (decompose(ChernNumbers(64, 24, 4)), decompose(ChernNumbers(64, 24, 4)), decompose(ChernNumbers(0, 0, -200))),
        (PlanePartition(((2, 1), (1,))), PlanePartition([[2, 1], [1]]), PlanePartition(((1,),))),
        (PointConfig([(0, 1, 0)]), PointConfig(points=((Fraction(0), 1, Fraction(0, 2)),)), PointConfig([(1, 1, 0)])),
        (EpsilonSchedule(1, 4), EpsilonSchedule(c_sq=Fraction(2, 2), ratio_sq=4), EpsilonSchedule(1, 9)),
        (Check("lattice/bell-counts", "PASS", 6), Check("lattice/bell-counts", "PASS", 6, ""), Check("x", "FAIL", 1, "q^1")),
    ]


def test_repr_text():
    assert repr(ChernNumbers(64, 24, 4)) == "ChernNumbers(c111=64, c12=24, c3=4)"
    assert repr(ChernNumbers(Fraction(1, 2), 0, 0)) == "ChernNumbers(c111=Fraction(1, 2), c12=0, c3=0)"
    spec_text = "ThreefoldSpec(kind='builtin', value='P3')"
    assert repr(P3) == spec_text
    assert repr(dt_series(P3, 1)) == "DTSeries(series=TruncatedSeries([1, 20]), exponent=-20)"
    assert repr(decompose(ChernNumbers(64, 24, 4))) == (
        "CobordismDecomposition(r1=Fraction(1, 1), r2=Fraction(0, 1), r3=Fraction(0, 1))"
    )
    assert repr(PlanePartition([[2, 1], [1]])) == "PlanePartition(rows=((2, 1), (1,)))"
    assert repr(PointConfig([(0, 1, 0)])) == "PointConfig(points=((Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)),))"
    assert repr(EpsilonSchedule(1, 4)) == "EpsilonSchedule(c_sq=Fraction(1, 1), ratio_sq=Fraction(4, 1))"
    assert repr(Check("x", "PASS", 1)) == "Check(name='x', status='PASS', cases=1, detail='')"


@pytest.mark.parametrize("value", [group[0] for group in examples()], ids=lambda v: type(v).__name__)
def test_assignment_raises_attribute_error(value):
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize("group", examples(), ids=lambda g: type(g[0]).__name__)
def test_same_type_equality_and_hash(group):
    first, equal, other = group
    assert first == equal and hash(first) == hash(equal)
    assert first != other
    assert len({first, equal, other}) == 2
    assert pickle.loads(pickle.dumps(first)) == first


@pytest.mark.parametrize("value", [group[0] for group in examples()], ids=lambda v: type(v).__name__)
def test_star_and_plus_never_repeat_or_concatenate(value):
    for result in (lambda: 2 * value, lambda: value * 2, lambda: value * value,
                   lambda: (1,) + value, lambda: value + (1,)):
        with pytest.raises(TypeError):
            result()
    if not isinstance(value, ChernNumbers):
        with pytest.raises(TypeError):
            value + value


def test_chern_numbers_still_add_as_disjoint_union():
    assert ChernNumbers(64, 24, 4) + ChernNumbers(0, 0, -200) == ChernNumbers(64, 24, -196)


def test_fields_are_normalised():
    c = ChernNumbers(Fraction(128, 2), 24, 4)
    assert type(c.c111) is int and c.c111 == 64
    assert PlanePartition([[2, 1], [1]]).rows == ((2, 1), (1,))


def test_validation_errors_are_unchanged():
    with pytest.raises(TypeError, match="floating point"):
        ChernNumbers(1.5, 0, 0)
    with pytest.raises(ValueError, match="unknown builtin"):
        ThreefoldSpec.builtin("P9")
    with pytest.raises(ValueError, match="constant coefficient 1"):
        DTSeries(TruncatedSeries([2, 0]), 0)
    with pytest.raises(ValueError, match="integer coefficients"):
        DTSeries(TruncatedSeries([1, Fraction(1, 2)]), 0)
    for rows, message in [
        (((),), "rows must be non-empty"),
        (((0,),), "height must be a positive integer"),
        (((1, 2),), "weakly decrease along rows"),
        (((1,), (1, 1)), "row lengths must weakly decrease"),
        (((1,), (2,)), "weakly decrease down columns"),
    ]:
        with pytest.raises(ValueError, match=message):
            PlanePartition(rows)


def test_replace_validates_like_the_constructor():
    assert ChernNumbers(1, 2, 3)._replace(c3=Fraction(8, 2)) == ChernNumbers(1, 2, 4)
    assert type(ChernNumbers(1, 2, 3)._replace(c3=Fraction(8, 2)).c3) is int
    with pytest.raises(TypeError, match="floating point"):
        ChernNumbers(1, 2, 3)._replace(c111=1.5)
    with pytest.raises(ValueError, match="constant coefficient 1"):
        dt_series(P3, 1)._replace(series=TruncatedSeries([2, 0]))
    with pytest.raises(ValueError, match="weakly decrease along rows"):
        PlanePartition(((1,),))._replace(rows=((1, 2),))
    assert PointConfig([(0, 0, 0)])._replace(points=[(1, 2, 3)]) == PointConfig([(1, 2, 3)])
    with pytest.raises(ValueError, match="exactly three coordinates"):
        PointConfig([(0, 0, 0)])._replace(points=[(1, 2)])
    schedule = EpsilonSchedule(1, 4)
    assert type(schedule._replace(c_sq=2).c_sq) is Fraction
    with pytest.raises(ValueError, match="the bound c must be positive"):
        schedule._replace(c_sq=0)
    with pytest.raises(ValueError, match="the ratio R must exceed 1"):
        schedule._replace(ratio_sq=1)
    assert Check("x", "PASS", 1)._replace(status="FAIL", detail="q^1") == Check("x", "FAIL", 1, "q^1")


def test_schedule_checks_fire_in_order():
    # c_sq, then ratio_sq are each checked for type before either bound
    with pytest.raises(TypeError, match="got 2.5"):
        EpsilonSchedule(2.5, 0)
    with pytest.raises(TypeError, match="got 0.5"):
        EpsilonSchedule(0, 0.5)
    with pytest.raises(ValueError, match="the bound c must be positive"):
        EpsilonSchedule(0, 0)


def test_records_are_tuples_of_their_fields():
    # the one new behaviour: unpacking works and a plain tuple compares equal
    c111, c12, c3 = ChernNumbers(64, 24, 4)
    assert (c111, c12, c3) == (64, 24, 4)
    assert ChernNumbers(64, 24, 4) == (64, 24, 4)
    assert decompose(ChernNumbers(0, 0, -200)) == (-150, 400, -250)
    assert isinstance(CobordismDecomposition(1, 0, 0), tuple)


def test_derived_facts_are_not_fields():
    # each fact is stored once: what the other fields fix is a property
    assert EpsilonSchedule._fields == ("c_sq", "ratio_sq")
    assert CobordismDecomposition._fields == ("r1", "r2", "r3")
    assert ExponentIdentityReport._fields == ("decomposition", "lhs", "rhs")
    assert Check._fields == ("name", "status", "cases", "detail")
