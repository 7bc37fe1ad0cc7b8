"""The staircase approximation: monotone, below the target, exactly integrable.

The frozen expected values for f(x) = x come from the closed-form sum
over grid steps: at level n the staircase integral is
sum(k / 2^n * 1 / 2^n for k < 2^n) = (2^n - 1) / 2^(n+1).
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from exactintegral import (
    DiscreteSet,
    DiscreteSpace,
    DyadicApproximation,
    IntervalMeasure,
    IntervalSet,
    NegativeIntegrandError,
    PiecewiseLinear,
    SimpleFunction,
    SpaceMismatchError,
    UNIT_INTERVAL,
    integrate_nonneg,
    integrate_nonneg_at_level,
    integrate_simple,
)
from exactintegral.generators import (
    random_measure,
    random_piecewise_linear,
    random_simple_function,
    sample_points,
)
from oracles import integral_oracle, staircase_integral_oracle


def iv(*pairs):
    return IntervalSet([(F(a), F(b)) for a, b in pairs])


LEBESGUE = IntervalMeasure.lebesgue()
IDENTITY = PiecewiseLinear.linear(F(1))


def closed_form_identity_level(n):
    return F((1 << n) - 1, 1 << (n + 1))


def test_identity_level_one_shape():
    level = DyadicApproximation(IDENTITY).level(1)
    assert level.canonical().terms == (
        (F(0), iv((0, "1/2"))),
        (F(1, 2), iv(("1/2", 1))),
    )
    assert integrate_simple(level, LEBESGUE) == F(1, 4)


def test_identity_levels_match_closed_form():
    approx = DyadicApproximation(IDENTITY)
    assert approx.integral(2, LEBESGUE) == F(3, 8)
    for n in range(1, 21):
        assert approx.integral(n, LEBESGUE) == closed_form_identity_level(n)


def test_grid_aligned_constant_is_hit_exactly():
    c = SimpleFunction.indicator(F(3, 4), iv((0, 1)))
    approx = DyadicApproximation(c)
    assert approx.level(2) == c
    assert approx.termination_level() == 2  # 3/4 needs level 2; cap needs ceil(3/4) = 1


def test_negative_integrand_rejected():
    with pytest.raises(NegativeIntegrandError):
        DyadicApproximation(IDENTITY + PiecewiseLinear.constant(F(-1, 2)))
    with pytest.raises(NegativeIntegrandError):
        DyadicApproximation(SimpleFunction.indicator(F(-1), iv((0, "1/2"))))


def test_termination_levels():
    assert DyadicApproximation(SimpleFunction.zero(UNIT_INTERVAL)).termination_level() == 0
    third = SimpleFunction.indicator(F(1, 3), iv((0, "1/2")))
    assert DyadicApproximation(third).termination_level() is None
    assert DyadicApproximation(IDENTITY).termination_level() is None
    five = SimpleFunction.indicator(F(5), iv((0, "1/2")))
    assert DyadicApproximation(five).termination_level() == 5  # cap must clear the value
    steps = PiecewiseLinear((F(0), F(1, 2), F(1)), ((F(0), F(1, 4)), (F(0), F(3))))
    assert DyadicApproximation(steps).termination_level() == 3


def _bad_points(fn, max_level=4):
    """Points where the integrand decreases through a grid value exactly."""
    points = []
    for u, w, a, b in fn.cells():
        if a >= 0:
            continue
        for n in range(1, max_level + 1):
            for k in range(1, n * (1 << n) + 1):
                x = (F(k, 1 << n) - b) / a
                if u <= x < w:
                    points.append(x)
    return points


def test_monotone_below_target_at_points():
    rng = random.Random(11)
    for _ in range(25):
        fn = random_piecewise_linear(rng, nonneg=True)
        approx = DyadicApproximation(fn)
        points = sample_points(rng, LEBESGUE, 30) + _bad_points(fn)
        for x in points:
            previous = F(0)
            target = fn.evaluate(x)
            for n in range(1, 9):
                value = approx.value_at(n, x)
                assert previous <= value <= target, (x, n)
                previous = value


def test_simple_targets_monotone_and_terminating():
    rng = random.Random(23)
    for _ in range(25):
        measure = random_measure(rng)
        fn = random_simple_function(
            rng, measure, max_terms=5, max_denominator=64, values="dyadic_nonneg"
        )
        approx = DyadicApproximation(fn)
        terminal = approx.termination_level()
        assert terminal is not None  # dyadic values always terminate
        assert approx.level(terminal) == fn.canonical()
        for point in sample_points(rng, measure, 20):
            previous = F(0)
            for n in range(1, terminal + 2):
                value = approx.value_at(n, point)
                assert previous <= value <= fn.evaluate(point)
                previous = value


def test_materialized_agrees_with_lazy_everywhere():
    rng = random.Random(4)
    for _ in range(15):
        fn = random_piecewise_linear(rng, nonneg=True)
        approx = DyadicApproximation(fn)
        points = sample_points(rng, LEBESGUE, 25) + _bad_points(fn)
        for n in (1, 2, 3, 5):
            level = approx.level(n)
            increment = approx.increment(n)
            previous = approx.level(n - 1)
            for x in points:
                assert level.evaluate(x) == approx.value_at(n, x)
                assert increment.evaluate(x) == level.evaluate(x) - previous.evaluate(x)


def test_closed_form_integral_agrees_with_materialized():
    rng = random.Random(6)
    for _ in range(15):
        fn = random_piecewise_linear(rng, nonneg=True)
        measure = random_measure(rng, kind="interval")
        approx = DyadicApproximation(fn)
        for n in (1, 2, 4, 6):
            assert integrate_simple(approx.level(n), measure) == approx.integral(n, measure)


def test_certified_level_bound():
    rng = random.Random(19)
    for _ in range(20):
        fn = random_piecewise_linear(rng, nonneg=True)
        measure = random_measure(rng, kind="interval")
        exact = integrate_nonneg(fn, measure)
        approx = DyadicApproximation(fn)
        for n in range(approx.cap_level, approx.cap_level + 4):
            if n < 1 or n > 24:
                continue
            value, bound = integrate_nonneg_at_level(fn, measure, n)
            assert bound is not None
            assert exact - value <= bound
            assert value <= exact


def test_bound_not_certified_below_cap():
    tall = SimpleFunction.indicator(F(5), iv((0, 1)))
    value, bound = integrate_nonneg_at_level(tall, LEBESGUE, 2)
    assert bound is None
    assert value == 2  # capped at the level


def test_staircase_integrals_nondecreasing():
    rng = random.Random(29)
    for _ in range(10):
        fn = random_piecewise_linear(rng, nonneg=True)
        measure = random_measure(rng, kind="interval")
        approx = DyadicApproximation(fn)
        values = [approx.integral(n, measure) for n in range(0, 15)]
        assert all(a <= b for a, b in zip(values, values[1:]))


# Values up to 12 keep the level-n cap min(n, .) active on the low levels.
stair_values = st.fractions(min_value=0, max_value=12, max_denominator=16)
weights = st.fractions(min_value=0, max_value=4, max_denominator=8)


@st.composite
def unit_grids(draw, max_cuts=4):
    cuts = draw(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=32).filter(
                lambda t: 0 < t < 1
            ),
            unique=True,
            max_size=max_cuts,
        )
    )
    return [F(0), *sorted(cuts), F(1)]


@st.composite
def step_measures(draw):
    grid = draw(unit_grids())
    densities = draw(st.lists(weights, min_size=len(grid) - 1, max_size=len(grid) - 1))
    return IntervalMeasure(tuple(grid), tuple(densities))


@st.composite
def nonneg_piecewise(draw):
    """Each cell joins two drawn nonnegative end values, so f >= 0 by construction."""
    grid = draw(unit_grids())
    pieces = []
    for u, w in zip(grid, grid[1:]):
        left, right = draw(stair_values), draw(stair_values)
        slope = (right - left) / (w - u)
        pieces.append((slope, left - slope * u))
    return PiecewiseLinear(grid, pieces)


@st.composite
def interval_simple(draw):
    grid = draw(unit_grids())
    terms = [
        (draw(stair_values), iv((u, w)))
        for u, w in zip(grid, grid[1:])
        if draw(st.booleans())
    ]
    return SimpleFunction(UNIT_INTERVAL, terms)


@st.composite
def discrete_case(draw):
    space = DiscreteSpace(tuple(draw(st.lists(weights, min_size=1, max_size=6))))
    labels = draw(
        st.lists(st.integers(0, 3), min_size=space.size, max_size=space.size)
    )
    terms = [
        (draw(stair_values), DiscreteSet(space, [i for i, g in enumerate(labels) if g == label]))
        for label in sorted(set(labels))
    ]
    return SimpleFunction(space, terms), space


integrand_cases = st.one_of(
    st.tuples(nonneg_piecewise(), step_measures()),
    st.tuples(interval_simple(), step_measures()),
    discrete_case(),
)


@settings(max_examples=60, deadline=None)
@given(integrand_cases)
def test_staircase_table_matches_per_cell_reference(case):
    fn, measure = case
    approx = DyadicApproximation(fn)
    for n in range(0, 31):
        assert approx.integral(n, measure) == staircase_integral_oracle(fn, measure, n), n
    for n in range(0, 7):
        assert approx.integral(n, measure) == integral_oracle(approx.level(n), measure), n


def test_table_answers_any_measure_and_level_order():
    rng = random.Random(37)
    for _ in range(8):
        first = random_measure(rng, kind="interval")
        second = random_measure(rng, kind="interval")
        twin = IntervalMeasure(first.breakpoints, first.densities)
        assert twin == first and twin is not first
        for fn in (
            random_piecewise_linear(rng, nonneg=True),
            random_simple_function(rng, first, values="nonneg"),
        ):
            shared = DyadicApproximation(fn)
            for level, measure in (
                (30, first),
                (5, second),
                (0, first),
                (5, twin),
                (30, second),
                (12, twin),
                (3, first),
            ):
                fresh = DyadicApproximation(fn).integral(level, measure)
                assert shared.integral(level, measure) == fresh, (level, measure)


def test_errors_on_first_use_leave_the_approximation_usable():
    approx = DyadicApproximation(IDENTITY)
    with pytest.raises(SpaceMismatchError):
        approx.integral(3, DiscreteSpace((F(1), F(1))))
    with pytest.raises(ValueError):
        approx.integral(-1, LEBESGUE)
    assert approx.integral(3, LEBESGUE) == closed_form_identity_level(3)

    pair = DiscreteSpace((F(1), F(1)))
    on_pair = DyadicApproximation(SimpleFunction.indicator(F(3, 2), DiscreteSet(pair, [0])))
    with pytest.raises(SpaceMismatchError):
        on_pair.integral(2, DiscreteSpace((F(1), F(3))))
    with pytest.raises(SpaceMismatchError):
        on_pair.integral(2, LEBESGUE)
    assert on_pair.integral(2, pair) == F(3, 2)

    step = DyadicApproximation(SimpleFunction.indicator(F(1), iv((0, "1/2"))))
    with pytest.raises(SpaceMismatchError):
        step.integral(1, pair)
    assert step.integral(1, LEBESGUE) == F(1, 2)

    with pytest.raises(NegativeIntegrandError):
        integrate_nonneg_at_level(IDENTITY - PiecewiseLinear.constant(F(1, 2)), LEBESGUE, 4)
