"""Refusals across the package: each call raises one exception type with one
exact message, on inputs that no other test hands to that check."""

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


@pytest.mark.parametrize("call, kind, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, kind, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # an empty directory for the rows that write a file
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message
