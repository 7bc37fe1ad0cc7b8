"""Exact counts of the `Fraction` operations that the construction path
makes (building a measure, a function's canonical form and `f ± g`) and
that the integrals and the compare report make.

The calls into `fractions.py` are counted with `sys.setprofile`, so the
counts are exact and do not depend on timing.  A construction is a call of
`Fraction.__new__`; a comparison is a call of one of the rich comparison
methods (`__eq__`, `__lt__`, `__le__`, `__gt__`, `__ge__`).

Counts at the parent of the change that reads every rational once as an
integer pair, on the same inputs as below:

* the 64-cell `IntervalMeasure` made 193 comparisons (2 for the grid's
  ends, 64 for its strict increase, 64 for the density signs and 63 for
  the equal-density merge) and no construction;
* `canonical()` of the 100-value function made 100 constructions, one per
  distinct value in the sort key, and no comparison;
* `f + g` then `f - g` on two fresh 50-term functions made 55
  constructions (one per distinct value of each canonical form) and 129
  comparisons (`_paired` on the cuts k/50 that both tables hold as
  distinct objects);
* building a 41-term function whose intervals meet at shared endpoint
  objects read `numerator` or `denominator` 328 times (4 per interval in
  the keyed sort, 4 per meeting point in `_tabulate`'s exact compare) and
  made 1 comparison (the last end against 1).

Counts at the parent of the change that keeps the integral sums and the
compare certificate on integer pairs:

* one `equivalence_report` of a `grid_exact`-like integrand (seed-1
  benchmark cases, per compare) made 18 constructions, 11 arithmetic
  operator calls (10 `forward`, 1 `reverse`), 5 comparisons, 1 `abs` and
  2 `__ceil__`; a `pwl_deep`-like one 20 constructions and the same
  operators, 4 comparisons, 1 `abs` and 2 `__ceil__`;
* `lebesgue_integral` of the 64-cell function made 4 constructions, one
  negation and one subtraction.

An arithmetic operator is counted by family, as the `forward` and
`reverse` functions that `Fraction` builds for every binary operator, and
`__abs__` and `__neg__`, so the counts hold on every supported Python.
"""

import fractions
import random
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from exactintegral import (
    UNIT_INTERVAL,
    IntervalMeasure,
    IntervalSet,
    SimpleFunction,
    equivalence_report,
    integrate_simple,
    lebesgue_integral,
)
from exactintegral.generators import (
    random_measure,
    random_piecewise_linear,
    random_simple_function,
)

FRACTIONS_FILE = fractions.__file__
COMPARISONS = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")
OPERATORS = ("forward", "reverse", "__abs__", "__neg__")


def _fraction_calls(call) -> Counter:
    """The number of calls of each function of `fractions.py` during call()."""
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == FRACTIONS_FILE:
            counts[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return counts


def _comparisons(counts: Counter) -> int:
    return sum(counts[name] for name in COMPARISONS)


def _function(values: list) -> SimpleFunction:
    """One term [k/n, (k+1)/n) per value, n the number of values."""
    n = len(values)
    terms = [(v, IntervalSet([(F(k, n), F(k + 1, n))])) for k, v in enumerate(values)]
    return SimpleFunction(UNIT_INTERVAL, terms)


def test_a_64_cell_measure_makes_no_fraction_comparison():
    breakpoints = [F(0), *(F(k, 64) + F(1, 64 * (2 * k + 1)) for k in range(1, 64)), F(1)]
    # Pairs of equal adjacent densities, so the merge has cells to join.
    densities = [F((k // 2) % 5, 7) for k in range(64)]
    measure = None

    def build():
        nonlocal measure
        measure = IntervalMeasure(breakpoints, densities)

    counts = _fraction_calls(build)
    assert _comparisons(counts) == 0
    assert counts["__new__"] == 0
    assert len(measure._table[1]) == 33  # 32 merged cells
    assert measure == IntervalMeasure(measure.breakpoints[::2], measure.densities[::2])


def test_canonical_form_of_100_values_without_float_ties_makes_no_fraction():
    fn = _function([F(37 * k % 101 - 50, 13) for k in range(100)])
    assert len({v for v, _ in fn.terms}) == 100
    counts = _fraction_calls(fn.canonical)
    assert counts["__new__"] == 0
    assert _comparisons(counts) == 0
    values = [F(*pair) for pair in fn.canonical()._values]
    assert values == sorted(values)


def test_sum_and_difference_make_no_fraction():
    f = _function([F(k % 9 - 4, 1 + k % 5) for k in range(50)])
    g = _function([F(k % 11 - 3, 2 + k % 3) for k in range(50)][::-1])
    counts = _fraction_calls(lambda: (f + g, f - g))
    assert counts["__new__"] == 0
    assert _comparisons(counts) == 0


def test_intervals_meeting_at_shared_endpoints_are_read_once_each():
    edges = [F(k, 41) for k in range(41)] + [F(1)]
    terms = [(F(k % 3), IntervalSet([cell])) for k, cell in enumerate(zip(edges, edges[1:]))]
    counts = _fraction_calls(lambda: SimpleFunction(UNIT_INTERVAL, terms))
    # 4 per interval in the keyed sort, 4 for the first lower end, a
    # `Fraction(0)` that is not the object the sweep starts from, and 2 for
    # the last upper end, whose float is 1.0.
    assert counts["numerator"] + counts["denominator"] == 4 * 41 + 4 + 2
    assert _comparisons(counts) == 0


def test_interval_sets_at_the_unit_ends_and_at_a_shared_value_make_no_fraction_comparison():
    half, other_half = F(1, 2), F(1, 2)
    assert half is not other_half

    def build():
        IntervalSet([(F(0), F(1, 3))])
        IntervalSet([(F(2, 3), F(1))])
        IntervalSet([(F(0), F(1))])
        return IntervalSet([(F(1, 3), half), (other_half, F(3, 4))])

    counts = _fraction_calls(build)
    # The range check and the empty-interval test compare floats, and the
    # merge of [1/3, 1/2) with [1/2, 3/4) compares integer cross-products.
    # Range-checked by tuples of (float, Fraction), these made 5 comparisons.
    assert _comparisons(counts) == 0
    assert build().intervals == ((F(1, 3), F(3, 4)),)


def _operators(counts: Counter) -> int:
    return sum(counts[name] for name in OPERATORS)


def _grid_exact_like(rng):
    """A dyadic simple function of up to 8 terms on a measure of up to 16
    cells, compared at depth 12, as the `grid_exact` workload draws it."""
    measure = random_measure(rng, kind=rng.choice(("discrete", "interval")), max_size=16)
    fn = random_simple_function(rng, measure, max_terms=8, max_denominator=256, values="dyadic")
    return fn, measure, 12


def _pwl_deep_like(rng):
    """A piecewise-linear function on an interval measure, compared at
    depth 30, as the `pwl_deep` workload draws it."""
    return random_piecewise_linear(rng), random_measure(rng, kind="interval"), 30


@pytest.mark.parametrize("draw", [_grid_exact_like, _pwl_deep_like], ids=["grid_exact", "pwl_deep"])
@pytest.mark.parametrize("seed", [2, 5, 9])  # grid_exact: a discrete space, then two interval measures
def test_a_compare_report_makes_no_fraction_operator_comparison_or_ceiling(draw, seed):
    fn, measure, depth = draw(random.Random(seed))
    counts = _fraction_calls(lambda: equivalence_report(fn, measure, depth=depth))
    assert _operators(counts) == 0, counts
    assert _comparisons(counts) == 0, counts
    assert counts["__ceil__"] == 0
    # At most one construction each for the two part limits and the two
    # level integrals, the two partial sums, the tail bound, the absolute
    # integral, the direct value, the difference, its bound and the total
    # mass; the parts of a dyadic simple function terminate, and their
    # level integrals are their limits.
    assert counts["__new__"] <= 12, counts


def test_the_integrals_of_a_64_cell_function_make_one_fraction_per_value():
    fn = _function([F((k * 37) % 29 - 14, 1 + k % 7) for k in range(64)])
    measure = IntervalMeasure([F(0), F(1, 3), F(1)], [F(2), F(1, 2)])
    integral = integrate_simple(fn, measure)
    counts = _fraction_calls(lambda: integrate_simple(fn, measure))
    assert counts["__new__"] == 1
    assert _operators(counts) == _comparisons(counts) == 0
    counts = _fraction_calls(lambda: lebesgue_integral(fn, measure))
    assert counts["__new__"] == 3
    assert _operators(counts) == _comparisons(counts) == 0
    result = lebesgue_integral(fn, measure)
    assert result.value == integral == result.positive_part - result.negative_part
