"""Refusals across the package: each call raises one exception type with one
exact message, on inputs that no other test hands to that check.  Beside
them, the shortcuts that let the constructors skip a check on shared
objects are shown to accept exactly what the full checks accept."""

import operator
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from exactintegral import (
    UNIT_INTERVAL,
    DiscreteSet,
    DiscreteSpace,
    DyadicApproximation,
    FiniteSeries,
    IntervalMeasure,
    IntervalSet,
    OutsideDomainError,
    PiecewiseLinear,
    SimpleFunction,
    SpaceMismatchError,
    Vec,
    bochner_integrate,
    integrate_over,
    integrate_simple,
    lebesgue_integral,
    series_from_integrand,
    space_of,
)
from exactintegral.tasks import TaskSpecError, approx_table_rows, function_fragment, load_task

LEBESGUE = IntervalMeasure.lebesgue()
POINTS = DiscreteSpace((F(1), F(2)))
HALF = IntervalSet([(F(0), F(1, 2))])
SCALAR = SimpleFunction(UNIT_INTERVAL, [(F(3, 4), HALF)])
VECTOR = SimpleFunction(UNIT_INTERVAL, [(Vec((F(1), F(2))), HALF)])
ON_POINTS = SimpleFunction(POINTS, [(F(1), DiscreteSet(POINTS, [0]))])
RAMP = PiecewiseLinear.linear(F(1), F(-1, 3))
DIGIT_LIMIT = sys.get_int_max_str_digits()


def _written(name: str, text: str) -> str:
    """Write `text` to the file `name` in the working directory; return the name."""
    Path(name).write_text(text, encoding="utf-8")
    return name


REFUSALS = {
    "finite_series_point_outside": (
        lambda: FiniteSeries(LEBESGUE, [SCALAR]).partial_value_at(F(2), 1),
        OutsideDomainError,
        "point Fraction(2, 1) outside the space",
    ),
    "telescope_series_point_outside": (
        lambda: series_from_integrand(RAMP, LEBESGUE).series.partial_value_at(F(1), 3),
        OutsideDomainError,
        "point Fraction(1, 1) outside the space",
    ),
    "finite_series_term_on_another_space": (
        lambda: FiniteSeries(LEBESGUE, [ON_POINTS]),
        SpaceMismatchError,
        "series term lives on another space",
    ),
    "bochner_integrate_of_a_number": (
        lambda: bochner_integrate(3),
        TypeError,
        "expected a FunctionSeries or BochnerRepresentation",
    ),
    "series_depth_zero": (
        lambda: series_from_integrand(RAMP, LEBESGUE, depth=0),
        ValueError,
        "depth must be >= 1",
    ),
    "materialize_cell_limit": (
        lambda: DyadicApproximation(PiecewiseLinear.linear(16)).level(19),
        ValueError,
        "level 19 would materialize about 8388606 cells; use value_at/integral instead",
    ),
    "level_below_zero": (
        lambda: DyadicApproximation(SCALAR).level(-1),
        ValueError,
        "level must be >= 0",
    ),
    "increment_at_zero": (
        lambda: DyadicApproximation(SCALAR).increment(0),
        ValueError,
        "increments start at level 1",
    ),
    "vector_without_components": (
        lambda: Vec(()),
        ValueError,
        "a vector needs at least one component",
    ),
    "vectors_of_two_dimensions": (
        lambda: Vec((F(1), F(2))) + Vec((F(1),)),
        ValueError,
        "vector dimensions differ",
    ),
    "declared_dimension_on_scalars": (
        lambda: SimpleFunction(UNIT_INTERVAL, [(F(1), HALF)], dim=2),
        ValueError,
        "declared a vector dimension but the values are scalar",
    ),
    "declared_dimension_contradicted": (
        lambda: SimpleFunction(UNIT_INTERVAL, [(Vec((F(1), F(2))), HALF)], dim=3),
        ValueError,
        "declared dimension disagrees with the values",
    ),
    "sum_across_spaces": (
        lambda: SCALAR + ON_POINTS,
        SpaceMismatchError,
        "functions live on different spaces",
    ),
    "sum_across_dimensions": (
        lambda: SCALAR + VECTOR,
        ValueError,
        "functions have different value dimensions",
    ),
    "component_of_a_scalar_function": (
        lambda: SCALAR.component(0),
        ValueError,
        "component() needs vector values",
    ),
    "interval_union_of_a_discrete_set": (
        lambda: UNIT_INTERVAL.union_of([DiscreteSet(POINTS, [1])]),
        SpaceMismatchError,
        "sets belong to different spaces",
    ),
    "discrete_set_and_interval_set": (
        lambda: DiscreteSet(POINTS, [1]) & HALF,
        SpaceMismatchError,
        "sets belong to different spaces",
    ),
    "breakpoints_not_increasing": (
        lambda: PiecewiseLinear((F(0), F(1, 2), F(1, 2), F(1)), [(F(0), F(1))] * 3),
        ValueError,
        "breakpoints must be strictly increasing",
    ),
    "negative_density": (
        lambda: IntervalMeasure((F(0), F(1, 2), F(1)), (F(1), F(-1, 3))),
        ValueError,
        "densities must be nonnegative",
    ),
    # The measure constructor's checks, in their order: the breakpoint
    # gate, the grid's ends, its strict increase, the density gate, the
    # density count, the density signs.  Each row of two faults pins which
    # check comes first.
    "measure_breakpoint_not_rational": (
        lambda: IntervalMeasure((0, 0.5, 1), (1, 1)),
        ValueError,
        "breakpoint 0.5 is not an int or a Fraction",
    ),
    "measure_grid_not_from_zero": (
        lambda: IntervalMeasure((F(1, 4), F(1)), (F(1),)),
        ValueError,
        "breakpoints must run from 0 to 1",
    ),
    "measure_grid_not_to_one": (
        lambda: IntervalMeasure((F(0), F(3, 4)), (F(1),)),
        ValueError,
        "breakpoints must run from 0 to 1",
    ),
    "measure_grid_of_one_breakpoint": (
        lambda: IntervalMeasure((F(0),), ()),
        ValueError,
        "breakpoints must run from 0 to 1",
    ),
    "measure_breakpoints_decreasing": (
        lambda: IntervalMeasure((F(0), F(2, 3), F(1, 3), F(1)), (F(1),) * 3),
        ValueError,
        "breakpoints must be strictly increasing",
    ),
    "measure_breakpoint_repeated": (
        lambda: IntervalMeasure((F(0), F(1, 2), F(2, 4), F(1)), (F(1),) * 3),
        ValueError,
        "breakpoints must be strictly increasing",
    ),
    "density_not_rational": (
        lambda: IntervalMeasure((F(0), F(1)), (0.5,)),
        ValueError,
        "density 0.5 is not an int or a Fraction",
    ),
    "density_a_bool": (
        lambda: IntervalMeasure((F(0), F(1)), (True,)),
        ValueError,
        "density True is not an int or a Fraction",
    ),
    "density_count_wrong": (
        lambda: IntervalMeasure((F(0), F(1, 2), F(1)), (F(1),)),
        ValueError,
        "need one density per breakpoint cell",
    ),
    "negative_int_density": (
        lambda: IntervalMeasure((0, 1), (-1,)),
        ValueError,
        "densities must be nonnegative",
    ),
    "breakpoint_not_rational_before_the_ends": (
        lambda: IntervalMeasure((0.25, F(1)), (F(1),)),
        ValueError,
        "breakpoint 0.25 is not an int or a Fraction",
    ),
    "grid_ends_before_its_order": (
        lambda: IntervalMeasure((F(1, 2), F(1, 4), F(1)), (F(1), F(1))),
        ValueError,
        "breakpoints must run from 0 to 1",
    ),
    "grid_order_before_the_density_gate": (
        lambda: IntervalMeasure((F(0), F(2, 3), F(1, 3), F(1)), (0.5, F(1), F(1))),
        ValueError,
        "breakpoints must be strictly increasing",
    ),
    "density_gate_before_the_count": (
        lambda: IntervalMeasure((F(0), F(1)), (0.5, F(1))),
        ValueError,
        "density 0.5 is not an int or a Fraction",
    ),
    "density_count_before_the_signs": (
        lambda: IntervalMeasure((F(0), F(1)), (F(-1), F(1))),
        ValueError,
        "need one density per breakpoint cell",
    ),
    "density_gate_before_the_signs": (
        lambda: IntervalMeasure((F(0), F(1, 2), F(1)), (F(-1), 0.5)),
        ValueError,
        "density 0.5 is not an int or a Fraction",
    ),
    # `PiecewiseLinear` shares the breakpoint checks.
    "piecewise_breakpoint_not_rational": (
        lambda: PiecewiseLinear((0, "1/2", 1), [(F(0), F(1))] * 2),
        ValueError,
        "breakpoint '1/2' is not an int or a Fraction",
    ),
    "piecewise_grid_not_to_one": (
        lambda: PiecewiseLinear((F(0), F(1, 2)), [(F(0), F(1))]),
        ValueError,
        "breakpoints must run from 0 to 1",
    ),
    "space_of_a_number": (
        lambda: space_of(3),
        TypeError,
        "not a measure: 3",
    ),
    "piecewise_plus_simple": (
        lambda: RAMP + SCALAR,
        TypeError,
        "expected another piecewise-linear function",
    ),
    # Both live on [0, 1), yet mixed-class arithmetic is refused, in either
    # order, as a call with the wrong class.
    "simple_plus_piecewise": (
        lambda: SCALAR + RAMP,
        TypeError,
        "expected another simple function",
    ),
    "simple_minus_piecewise": (
        lambda: SCALAR - RAMP,
        TypeError,
        "expected another simple function",
    ),
    "simple_max_with_piecewise": (
        lambda: SCALAR.pointwise_max(RAMP),
        TypeError,
        "expected another simple function",
    ),
    # A vector integrand is refused before a region or a measure of another
    # space, and a region of another space before a measure of another space.
    "integrate_over_of_a_vector": (
        lambda: integrate_over(DiscreteSet(POINTS, [0]), VECTOR, POINTS),
        ValueError,
        "a scalar integrand is required",
    ),
    "integrate_over_a_region_of_another_space": (
        lambda: integrate_over(DiscreteSet(POINTS, [0]), RAMP, POINTS),
        SpaceMismatchError,
        "region belongs to another space",
    ),
    "integrate_over_against_a_measure_of_another_space": (
        lambda: integrate_over(HALF, SCALAR, POINTS),
        SpaceMismatchError,
        "integrand and measure live on different spaces",
    ),
    "integrate_simple_against_a_measure_of_another_space": (
        lambda: integrate_simple(ON_POINTS, LEBESGUE),
        SpaceMismatchError,
        "integrand and measure live on different spaces",
    ),
    "table_past_the_level_cap": (
        lambda: approx_table_rows(SCALAR, LEBESGUE, 31),
        ValueError,
        "max_level capped at 30",
    ),
    "fragment_of_a_telescoped_series": (
        lambda: function_fragment(series_from_integrand(RAMP, LEBESGUE).series),
        TypeError,
        "no task-file form for TelescopeSeries",
    ),
    "task_file_integer_past_the_digit_limit": (
        lambda: load_task(_written("long.json", '{"depth": ' + "9" * (DIGIT_LIMIT + 1) + "}")),
        TaskSpecError,
        f"<file>: long.json holds an integer longer than the {DIGIT_LIMIT}-digit limit"
        " for integer strings",
    ),
}


# Each binary set operation refuses, with one message, a set of the other
# kind in either order, a set of another discrete space, and a non-set.
OTHER_POINTS = DiscreteSpace((F(1), F(2), F(3)))
SET_OPERANDS = {
    "discrete_with_interval": (DiscreteSet(POINTS, [1]), HALF),
    "interval_with_discrete": (HALF, DiscreteSet(POINTS, [1])),
    "discrete_sets_of_two_spaces": (DiscreteSet(POINTS, [1]), DiscreteSet(OTHER_POINTS, [1])),
    "discrete_with_none": (DiscreteSet(POINTS, [1]), None),
    "interval_with_none": (HALF, None),
    "discrete_with_one": (DiscreteSet(POINTS, [1]), 1),
    "interval_with_one": (HALF, 1),
}
SET_OPERATIONS = {"union": operator.or_, "intersection": operator.and_, "difference": operator.sub}
REFUSALS.update(
    {
        f"set_{operation}_{operands}": (
            lambda op=op, a=a, b=b: op(a, b),
            SpaceMismatchError,
            "sets belong to different spaces",
        )
        for operation, op in SET_OPERATIONS.items()
        for operands, (a, b) in SET_OPERANDS.items()
    }
)


@pytest.mark.parametrize("call, kind, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, kind, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # an empty directory for the rows that write a file
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


# The seven point checks on each space kind they serve.  A point outside the
# space is refused with one message; a point of a type the space does not
# take fails the space's own type gate first, with a plain `ValueError`.
INTERVAL_POINT_CHECKS = {
    "interval_set_contains": HALF.contains,
    "simple_evaluate": SCALAR.evaluate,
    "piecewise_evaluate": RAMP.evaluate,
    "staircase_value_at": lambda point: DyadicApproximation(SCALAR).value_at(1, point),
    "finite_series_partial_value_at": (
        lambda point: FiniteSeries(LEBESGUE, [SCALAR]).partial_value_at(point, 1)
    ),
    "telescope_series_partial_value_at": (
        lambda point: series_from_integrand(RAMP, LEBESGUE).series.partial_value_at(point, 3)
    ),
}
DISCRETE_POINT_CHECKS = {
    "discrete_set_contains": DiscreteSet(POINTS, [0]).contains,
    "simple_evaluate": ON_POINTS.evaluate,
    "staircase_value_at": lambda point: DyadicApproximation(ON_POINTS).value_at(1, point),
    "finite_series_partial_value_at": (
        lambda point: FiniteSeries(POINTS, [ON_POINTS]).partial_value_at(point, 1)
    ),
    "telescope_series_partial_value_at": (
        lambda point: series_from_integrand(ON_POINTS, POINTS).series.partial_value_at(point, 3)
    ),
}
POINT_CHECKS = [
    pytest.param(check, outside, id=f"{kind}-{name}")
    for kind, checks, outside in (
        ("interval", INTERVAL_POINT_CHECKS, (F(3, 2), F(-1, 4), 1)),
        ("discrete", DISCRETE_POINT_CHECKS, (2, -1)),
    )
    for name, check in checks.items()
]


@pytest.mark.parametrize("check, outside", POINT_CHECKS)
def test_every_point_check_refuses_with_one_message_after_the_type_gate(check, outside):
    for point in outside:
        with pytest.raises(OutsideDomainError) as info:
            check(point)
        assert str(info.value) == f"point {point!r} outside the space"
    for point in (0.5, True):
        with pytest.raises(ValueError) as info:
            check(point)
        assert type(info.value) is ValueError
        assert str(info.value) == f"point {point!r} is not an int or a Fraction"


def test_shared_endpoint_and_space_objects_give_the_tables_of_equal_copies():
    """`_tabulate` makes no compare where an interval starts at the endpoint
    object the one before it ended at, and the constructors take the very
    space object without the dataclass equality: a function built that way
    and one built from equal but distinct objects have the same table, the
    same values and the same integrals."""
    # 1/3 and 1/3 + 10^-30 have one float; the cell between them is a gap.
    cuts = [F(0), F(1, 3), F(1, 3) + F(1, 10**30), F(2, 3), F(1)]
    copies = [F(c.numerator, c.denominator) for c in cuts]
    values = [F(-2), None, F(5, 7), F(1, 3)]

    def build(lower, upper):
        return SimpleFunction(
            UNIT_INTERVAL,
            [(v, IntervalSet([cell])) for v, *cell in zip(values, lower, upper) if v is not None],
        )

    shared = build(cuts, cuts[1:])
    distinct = build(cuts, copies[1:])
    assert all(a is not b for a, b in zip(cuts[1:], copies[1:]))
    measure = IntervalMeasure(cuts, (F(1), F(2), F(3), F(4)))
    pairs = [
        (shared, distinct),
        (shared.canonical(), distinct.canonical()),
        (shared + shared, distinct + distinct),
    ]
    for fn, other in pairs:
        assert (fn._table, fn._values) == (other._table, other._values)
        assert integrate_simple(fn, measure) == integrate_simple(other, measure)
        assert lebesgue_integral(fn, measure) == lebesgue_integral(other, measure)
    middle = F(5, 7) * 3 * (F(1, 3) - F(1, 10**30))
    assert integrate_simple(shared, measure) == F(-2, 3) + middle + F(4, 9)

    space = DiscreteSpace((F(1), F(2), F(0), F(1, 2)))
    twin = DiscreteSpace((F(1), F(2), F(0), F(1, 2)))
    terms = [(F(3), [0, 2]), (F(-1), [3])]
    same = SimpleFunction(space, [(v, DiscreteSet(space, i)) for v, i in terms])
    equal = SimpleFunction(space, [(v, DiscreteSet(twin, i)) for v, i in terms])
    assert (same._table, same._values) == (equal._table, equal._values)
    assert integrate_simple(same, space) == integrate_simple(equal, twin) == F(5, 2)
