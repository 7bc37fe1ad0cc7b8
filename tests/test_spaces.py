"""Measurable-set algebra and exact measures."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from exactintegral import (
    DiscreteSet,
    DiscreteSpace,
    IntervalMeasure,
    IntervalSet,
    OutsideDomainError,
    SpaceMismatchError,
    UNIT_INTERVAL,
)

from oracles import measure_oracle


def iv(*pairs):
    return IntervalSet([(F(a), F(b)) for a, b in pairs])


LEBESGUE = IntervalMeasure.lebesgue()


# --- construction and normalization ------------------------------------------


def test_interval_set_is_normalized():
    messy = iv(("1/2", "3/4"), (0, "1/4"), ("1/4", "1/2"))
    assert messy == iv((0, "3/4"))
    assert hash(messy) == hash(iv((0, "3/4")))
    assert messy.intervals == ((F(0), F(3, 4)),)


def test_interval_set_rejects_bad_bounds():
    with pytest.raises(ValueError):
        iv((0, 2))
    with pytest.raises(ValueError):
        iv(("1/2", "1/4"))


@pytest.mark.parametrize(
    "lo, hi",
    [
        (0, 10**400),  # beyond the largest float
        (-(10**400), F(1, 2)),
        (-F(1, 10**400), F(1, 2)),  # its float is -0.0
        (F(1, 2), 1 + F(1, 10**400)),  # its float is 1.0
        (F(1, 2) + F(1, 10**30), F(1, 2)),  # swapped ends with one float
    ],
)
def test_interval_set_rejects_bad_bounds_exactly(lo, hi):
    with pytest.raises(ValueError) as caught:
        IntervalSet([(F(1, 4), F(1, 3)), (lo, hi)])
    assert str(caught.value) == f"interval [{F(lo)}, {F(hi)}) not inside [0, 1)"


def test_interval_ends_with_one_float_stay_apart():
    a, b = F(1, 2) + F(1, 10**30), F(1, 2) + F(2, 10**30)
    assert float(a) == float(b) == 0.5
    assert IntervalSet([(a, b)]).intervals == ((a, b),)
    assert IntervalSet([(b, F(1)), (F(1, 2), a)]).intervals == ((F(1, 2), a), (b, F(1)))
    assert IntervalSet([(F(1, 2), b), (a, F(1))]).intervals == ((F(1, 2), F(1)),)


def test_degenerate_intervals_drop():
    assert iv(("1/3", "1/3")).is_empty


def test_discrete_set_sorted_unique():
    space = DiscreteSpace((F(1), F(1), F(1)))
    assert DiscreteSet(space, [2, 0, 2]).indices == (0, 2)
    assert DiscreteSet(space, [2, 0, 2]) == DiscreteSet(space, [0, 2])
    assert hash(DiscreteSet(space, [2, 0, 2])) == hash(DiscreteSet(space, [0, 2]))
    with pytest.raises(ValueError):
        DiscreteSet(space, [3])


@pytest.mark.parametrize(
    "indices, named",
    [
        ([5, -2, 1, -1], "-2"),  # the smallest negative index
        ([0, 4, 3, 1], "3"),  # else the smallest index past the end
        ([-1, F(1, 2)], "-1"),
        ([0, 5, 1.5], "1.5"),
        ([2, True], "True"),
        ([0, 2.0], "2.0"),
        ([F(1)], "Fraction(1, 1)"),
        (["a"], "'a'"),
    ],
)
def test_discrete_set_names_the_first_offending_index(indices, named):
    space = DiscreteSpace((F(1),) * 3)
    with pytest.raises(ValueError) as caught:
        DiscreteSet(space, indices)
    assert str(caught.value) == f"index {named} outside the space of size 3"


def test_discrete_space_coerces_weights_exactly():
    space = DiscreteSpace((1, F(1, 3), F(2, 5), 0))
    assert space.weights == (F(1), F(1, 3), F(2, 5), F(0))
    assert all(type(w) is F for w in space.weights)
    assert space.total_mass == F(26, 15)
    assert type(space.total_mass) is F
    assert space.measure_of(DiscreteSet(space, [1, 2])) == F(11, 15)
    for bad in ((1, F(-1, 3)), (F(-1, 10**30),), (-1,)):
        with pytest.raises(ValueError, match="^weights must be nonnegative$"):
            DiscreteSpace(bad)
    with pytest.raises(ValueError, match="needs at least one point"):
        DiscreteSpace(())


# --- spec examples ------------------------------------------------------------


def test_adjacent_union_merges():
    assert iv((0, "1/2")).union(iv(("1/2", 1))) == iv((0, 1))


def test_union_with_empty_is_identity():
    a = iv(("1/8", "1/3"))
    assert a.union(iv()) == a


def test_overlapping_union():
    assert iv((0, "1/4")).union(iv(("1/8", "1/2"))) == iv((0, "1/2"))


def test_complement_of_full_is_empty():
    assert iv((0, 1)).complement().is_empty


def test_intersection_example():
    assert iv((0, "1/2")).intersection(iv(("1/4", 1))) == iv(("1/4", "1/2"))


def test_set_meets_own_complement_nowhere():
    a = iv(("1/8", "1/4"), ("1/2", "2/3"))
    assert a.intersection(a.complement()).is_empty


def test_lebesgue_half():
    assert LEBESGUE.measure_of(iv((0, "1/2"))) == F(1, 2)


def test_discrete_measure_example():
    space = DiscreteSpace((F(1, 4),) * 4)
    assert space.measure_of(DiscreteSet(space, [0, 2])) == F(1, 2)


def test_step_density_measure_example():
    measure = IntervalMeasure((F(0), F(1, 2), F(1)), (F(2), F(0)))
    assert measure.measure_of(iv(("1/4", "3/4"))) == F(1, 2)


# --- error paths --------------------------------------------------------------


def test_cross_kind_operations_fail():
    space = DiscreteSpace((F(1),))
    with pytest.raises(SpaceMismatchError):
        DiscreteSet(space, [0]).union(iv((0, 1)))
    with pytest.raises(SpaceMismatchError):
        iv((0, 1)).intersection(DiscreteSet(space, [0]))


def test_cross_space_discrete_fails():
    a = DiscreteSpace((F(1), F(2)))
    b = DiscreteSpace((F(1), F(1)))
    with pytest.raises(SpaceMismatchError):
        DiscreteSet(a, [0]).union(DiscreteSet(b, [1]))


def test_measure_of_foreign_set_fails():
    space = DiscreteSpace((F(1),))
    with pytest.raises(SpaceMismatchError):
        LEBESGUE.measure_of(DiscreteSet(space, [0]))


def test_contains_outside_domain():
    with pytest.raises(OutsideDomainError):
        iv((0, 1)).contains(F(3, 2))
    space = DiscreteSpace((F(1), F(1)))
    with pytest.raises(OutsideDomainError):
        DiscreteSet(space, [0]).contains(5)


# --- properties ---------------------------------------------------------------

endpoints = st.fractions(min_value=0, max_value=1, max_denominator=64)


@st.composite
def interval_sets(draw):
    points = sorted(draw(st.lists(endpoints, min_size=0, max_size=8)))
    pairs = []
    for lo, hi in zip(points[::2], points[1::2]):
        if lo < hi:
            pairs.append((lo, hi))
    return IntervalSet(pairs)


@st.composite
def step_measures(draw):
    cuts = sorted(draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=32), max_size=3)))
    interior = [c for c in cuts if 0 < c < 1]
    breakpoints = [F(0), *dict.fromkeys(interior), F(1)]
    densities = draw(
        st.lists(
            st.fractions(min_value=0, max_value=4, max_denominator=32),
            min_size=len(breakpoints) - 1,
            max_size=len(breakpoints) - 1,
        )
    )
    return IntervalMeasure(tuple(breakpoints), tuple(densities))


@given(interval_sets(), interval_sets())
def test_de_morgan(a, b):
    assert a.union(b).complement() == a.complement().intersection(b.complement())
    assert a.intersection(b).complement() == a.complement().union(b.complement())


@given(interval_sets(), interval_sets())
def test_union_commutative_idempotent(a, b):
    assert a.union(b) == b.union(a)
    assert a.union(a) == a
    assert a.intersection(a) == a


@given(interval_sets(), interval_sets(), step_measures())
def test_measure_additive_on_disjoint(a, b, measure):
    disjoint_b = b.difference(a)
    union = a.union(disjoint_b)
    assert measure.measure_of(union) == measure.measure_of(a) + measure.measure_of(disjoint_b)


@given(interval_sets(), interval_sets(), step_measures())
def test_measure_monotone(a, b, measure):
    inside = a.intersection(b)
    assert measure.measure_of(inside) <= measure.measure_of(b)


@given(interval_sets(), step_measures())
def test_measure_matches_indicator_oracle(a, measure):
    assert measure.measure_of(a) == measure_oracle(measure, a)


@given(step_measures())
def test_total_mass_is_full_set_measure(measure):
    assert measure.total_mass == measure.measure_of(UNIT_INTERVAL.full_set())
    assert type(measure.total_mass) is F
    assert measure.total_mass >= 0


def test_lebesgue_recovered_by_unit_density():
    assert LEBESGUE.total_mass == 1
    assert LEBESGUE.measure_of(iv(("1/3", "2/3"))) == F(1, 3)


def test_measures_compare_equal_after_merging_equal_density_cells():
    split = IntervalMeasure((F(0), F(1, 2), F(1)), (F(1), F(1)))
    assert split == LEBESGUE
    assert hash(split) == hash(LEBESGUE)
    assert split.breakpoints == (F(0), F(1, 2), F(1))  # the cells are kept as given
    assert repr(split) == (
        "IntervalMeasure(breakpoints=(Fraction(0, 1), Fraction(1, 2), Fraction(1, 1)), "
        "densities=(Fraction(1, 1), Fraction(1, 1)))"
    )
    zeros = IntervalMeasure((F(0), F(1, 4), F(1, 2), F(1)), (F(0), F(0), F(3)))
    assert zeros == IntervalMeasure((F(0), F(1, 2), F(1)), (F(0), F(3)))
    # A breakpoint merged away leaves no trace of its denominator.
    thirds = IntervalMeasure((F(0), F(1, 3), F(1)), (F(1, 2), F(1, 2)))
    assert thirds == IntervalMeasure((F(0), F(1)), (F(1, 2),))
    assert hash(thirds) == hash(IntervalMeasure((F(0), F(1)), (F(1, 2),)))
    assert IntervalMeasure((F(0), F(1, 2), F(1)), (F(1), F(2))) != LEBESGUE
    assert IntervalMeasure((F(0), F(1, 3), F(1)), (F(0), F(1))) != IntervalMeasure(
        (F(0), F(1, 2), F(1)), (F(0), F(1))
    )


@given(step_measures(), st.fractions(min_value=0, max_value=1, max_denominator=32))
def test_splitting_a_cell_keeps_the_measure_equal(measure, cut):
    if not 0 < cut < 1 or cut in measure.breakpoints:
        return
    k = sum(1 for t in measure.breakpoints if t < cut) - 1
    split = IntervalMeasure(
        (*measure.breakpoints[: k + 1], cut, *measure.breakpoints[k + 1 :]),
        (*measure.densities[: k + 1], *measure.densities[k:]),
    )
    assert split == measure
    assert hash(split) == hash(measure)
    assert split.total_mass == measure.total_mass


def test_contains_bisects_to_the_right_interval():
    part = iv((0, "1/4"), ("1/2", "3/4"))
    assert [part.contains(F(k, 8)) for k in range(8)] == [
        True, True, False, False, True, True, False, False,
    ]
    space = DiscreteSpace((F(1),) * 5)
    assert [DiscreteSet(space, [1, 3]).contains(p) for p in range(5)] == [
        False, True, False, True, False,
    ]
    # A bool is refused as a point, not reported as outside the space.
    with pytest.raises(ValueError, match="point True is not an int") as info:
        DiscreteSet(space, [1]).contains(True)
    assert not isinstance(info.value, OutsideDomainError)
