"""The atom sums and the certificate on integer pairs, against their
`Fraction` forms.

`equivalence_report` reads its part limits, level integrals, series
integral, error bound and total mass as integer pairs and makes each
reported value from their cross-products; the signed integral and the
staircase table sum the atoms of one batch read in one grouped pass.
Every exact entry of the report, both part integrals of the signed
integral and the part staircase integrals are checked here against
`oracles.equivalence_reference`, `mean_reference` and `level_reference`,
which add one `Fraction` per row and compare `Fraction`s.  The fixed
cases put the checks on their edges: exact ties of each `<=`, a
positive eta, a zero part and a term count past the depth.
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
    PiecewiseLinear,
    SimpleFunction,
    UNIT_INTERVAL,
    equivalence_report,
    integrate_simple,
    lebesgue_integral,
)
from exactintegral import lebesgue
from exactintegral.generators import (
    random_measure,
    random_piecewise_linear,
    random_simple_function,
)

from oracles import (
    equivalence_reference,
    level_reference,
    mean_reference,
    rows_reference,
)

LEBESGUE = IntervalMeasure.lebesgue()


def _rows(lowered, measure) -> list:
    return rows_reference(*lebesgue._value_distribution(lowered, measure))


def check_against_references(fn, measure, eta, depth) -> dict:
    """Compare the report, the signed integral and the part staircase
    integrals with their `Fraction` forms; return the report."""
    parts = [(part, _rows(part._part, measure)) for part in DyadicApproximation.parts(fn)]
    report = equivalence_report(fn, measure, eta=eta, depth=depth)
    expected = equivalence_reference(parts, measure, eta, depth)
    assert report == expected
    for key, value in expected.items():
        assert type(report[key]) is type(value), key

    rows = _rows(lebesgue._lowered(fn), measure)
    result = lebesgue_integral(fn, measure)
    positive = mean_reference([row for row in rows if row[0] > 0])
    negative = -mean_reference([row for row in rows if row[0] < 0])
    assert (result.positive_part, result.negative_part) == (positive, negative)
    assert result.value == positive - negative
    assert all(type(v) is F for v in (result.value, result.positive_part, result.negative_part))
    if isinstance(fn, SimpleFunction):
        assert integrate_simple(fn, measure) == result.value

    for part, part_rows in parts:
        for level in sorted({0, 1, depth // 2, depth}):
            assert part.integral(level, measure) == level_reference(part_rows, level)
        assert part.limit(measure) == mean_reference(part_rows)
    return report


@st.composite
def report_cases(draw):
    """(fn, measure, eta, depth): simple functions on either space kind,
    piecewise-linear functions, and the unreduced pairs of f + g and f - g."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("simple", "piecewise", "sum", "difference")))
    if kind == "piecewise":
        measure = random_measure(rng, kind="interval")
        fn = random_piecewise_linear(rng)
        # Flat pieces too, so that atoms and ramp rows meet in one sum.
        flat = draw(st.lists(st.booleans(), min_size=len(fn.pieces), max_size=len(fn.pieces)))
        pieces = [(F(0) if f else a, b) for f, (a, b) in zip(flat, fn.pieces)]
        fn = PiecewiseLinear(fn.breakpoints, pieces)
    else:
        measure = random_measure(rng, kind=draw(st.sampled_from(("discrete", "interval"))))
        values = draw(st.sampled_from(("signed", "dyadic")))
        fn = random_simple_function(rng, measure, max_terms=6, max_denominator=64, values=values)
        if kind != "simple":
            g = random_simple_function(rng, measure, max_terms=6, max_denominator=64, values=values)
            fn = fn + g if kind == "sum" else fn - g
    eta = draw(st.one_of(st.just(F(0)), st.builds(F, st.integers(1, 9), st.integers(1, 64))))
    depth = draw(st.one_of(st.integers(1, 12), st.just(30)))
    return fn, measure, eta, depth


@settings(max_examples=150, deadline=None)
@given(report_cases())
def test_every_exact_report_entry_equals_its_fraction_form(case):
    check_against_references(*case)


def iv(lo, hi):
    return IntervalSet([(F(lo), F(hi))])


def sf(*terms):
    return SimpleFunction(UNIT_INTERVAL, [(F(v), iv(lo, hi)) for v, lo, hi in terms])


# Weights 3/4 and 1/4, values 1/3 and 4: at depth 1 the staircase misses
# 3/4 * 1/3 + 1/4 * 3 = 1, which is both the difference bound
# 2 * 2^-1 * 1 and, the negative part being zero, the tail bound.
TWO_POINTS = DiscreteSpace((F(3, 4), F(1, 4)))
TIED_DIFFERENCE = SimpleFunction(
    TWO_POINTS,
    [(F(1, 3), DiscreteSet(TWO_POINTS, [0])), (F(4), DiscreteSet(TWO_POINTS, [1]))],
)
TERMINATING = sf(("3/4", 0, "1/4"), ("-5/2", "1/2", 1))
PIECEWISE = PiecewiseLinear([F(0), F(1, 3), F(1)], [(F(3), F(-1, 2)), (F(-1), F(2))])


def test_difference_equal_to_both_bounds_is_within_them():
    report = check_against_references(TIED_DIFFERENCE, TWO_POINTS, F(0), 1)
    assert report["difference"] == report["difference_bound"] == 1
    assert report["series_integral_error_bound"] == report["difference"]
    assert report["difference_within_bound"] and report["recovered_matches_target"]
    assert report["negative_part_integral"] == 0


@pytest.mark.parametrize("eta", [F(0), F(1, 7)], ids=["eta_zero", "eta_positive"])
def test_a_terminated_certificate_ties_at_eta_zero(eta):
    report = check_against_references(TERMINATING, LEBESGUE, eta, 30)
    assert report["series_terminates"] and report["exact_equal"]
    tie = report["summability_partial"] == report["absolute_integral"] + report["eta"]
    assert tie == (eta == 0)
    assert report["summability_certified"]


@pytest.mark.parametrize(
    "fn, measure, eta, depth",
    [
        (PIECEWISE, LEBESGUE, F(2, 3), 30),
        (PIECEWISE, IntervalMeasure([F(0), F(1, 2), F(1)], [F(1, 3), F(5)]), F(1, 9), 7),
        (PiecewiseLinear.linear(F(1)), LEBESGUE, F(0), 9),
        (sf((0, 0, 1)), LEBESGUE, F(1, 2), 4),
        (sf(("-1/3", 0, "1/2")), IntervalMeasure([F(0), F(1)], [F(2, 5)]), F(0), 5),
        (sf((40, 0, "1/2"), ("-3/8", "1/2", 1)), LEBESGUE, F(0), 30),
    ],
    ids=[
        "piecewise_eta_positive",
        "piecewise_stepped_measure",
        "zero_negative_part",
        "zero_function",
        "zero_positive_part",
        "terminating_past_depth",
    ],
)
def test_edge_cases_equal_their_fraction_forms(fn, measure, eta, depth):
    report = check_against_references(fn, measure, eta, depth)
    if report["series_term_count"] is not None:
        assert report["series_integral"] == report["integral_value"]
