"""Exact counts of the `Fraction` operations that the construction path
makes: building a measure, a function's canonical form and `f ± g`.

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
"""

import fractions
import sys
from collections import Counter
from fractions import Fraction as F

from exactintegral import UNIT_INTERVAL, IntervalMeasure, IntervalSet, SimpleFunction

FRACTIONS_FILE = fractions.__file__
COMPARISONS = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")


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
