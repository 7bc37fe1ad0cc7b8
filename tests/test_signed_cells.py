"""The signed lowering: f+ and f− read off the sign-constant cells of f.

`DyadicApproximation.parts(f)` must give the same staircases as the
approximations of the part functions `f.pos_part()` and `f.neg_part()`,
and the signed integral, `integrate_over` and `l1_norm` must equal the
oracle integrals of those part functions.  The integrands have roots
inside pieces, roots at breakpoints, dyadic roots, values on the dyadic
grid and zero pieces.  None of the signed paths builds a part function,
and none builds a set for a cell of a derived simple function.
"""

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
    OutsideDomainError,
    PiecewiseLinear,
    SimpleFunction,
    UNIT_INTERVAL,
    UnitIntervalSpace,
    equivalence_report,
    integrate_simple,
    integrate_over,
    l1_norm,
    lebesgue_integral,
    series_from_integrand,
)

from oracles import integral_oracle, restrict, staircase_integral_oracle, term_points

# Large pairwise-coprime denominators beside the small ones drawn below, so
# that the rows of one staircase table fall into many denominator groups.
WIDE_DENOMINATORS = (3, 7, 1000003, 998244353, 2**61 - 1, 2**89 - 1)


def wide_fractions(lo: int, hi: int):
    """Rationals in [lo, hi] over one of WIDE_DENOMINATORS."""
    return st.sampled_from(WIDE_DENOMINATORS).flatmap(
        lambda d: st.integers(lo * d, hi * d).map(lambda k: F(k, d))
    )


# Quarter-grid values put piece ends and flat values on the staircase grid;
# the other values mostly fall between grid points.
values = st.one_of(
    st.integers(-24, 24).map(lambda k: F(k, 4)),
    st.fractions(min_value=-12, max_value=12, max_denominator=16),
    wide_fractions(-12, 12),
)
weights = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=0, max_value=4, max_denominator=8),
    wide_fractions(0, 4),
)
positive_weights = st.one_of(
    st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8),
    wide_fractions(0, 4).filter(bool),
)


@st.composite
def unit_grids(draw, max_cuts=4):
    cuts = draw(
        st.lists(
            st.one_of(
                st.fractions(min_value=0, max_value=1, max_denominator=32), wide_fractions(0, 1)
            ).filter(lambda t: 0 < t < 1),
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
def signed_piecewise(draw):
    """Zero pieces, flat pieces, pieces joining two drawn end values (a root
    inside when their signs differ, at a breakpoint when one of them is
    zero) and pieces through a dyadic root inside the piece."""
    grid = draw(unit_grids())
    pieces = []
    for u, w in zip(grid, grid[1:]):
        kind = draw(st.sampled_from(("zero", "flat", "ends", "dyadic_root")))
        if kind == "zero":
            pieces.append((F(0), F(0)))
        elif kind == "flat":
            pieces.append((F(0), draw(values)))
        elif kind == "ends":
            left, right = draw(values), draw(values)
            slope = (right - left) / (w - u)
            pieces.append((slope, left - slope * u))
        else:
            inside = [F(k, 64) for k in range(1, 64) if u < F(k, 64) < w]
            root = draw(st.sampled_from(inside)) if inside else (u + w) / 2
            slope = draw(values.filter(bool))
            pieces.append((slope, -slope * root))
    return PiecewiseLinear(grid, pieces)


@st.composite
def interval_regions(draw):
    ends = sorted(draw(st.lists(st.fractions(0, 1, max_denominator=24), max_size=6)))
    return IntervalSet(list(zip(ends[::2], ends[1::2])))


@st.composite
def piecewise_cases(draw):
    return draw(signed_piecewise()), draw(step_measures()), draw(interval_regions())


@st.composite
def interval_simple_cases(draw):
    grid = draw(unit_grids())
    terms = [(draw(values), IntervalSet([(u, w)])) for u, w in zip(grid, grid[1:]) if draw(st.booleans())]
    terms.append((draw(values), IntervalSet([])))  # a value held on no point
    return SimpleFunction(UNIT_INTERVAL, terms), draw(step_measures()), draw(interval_regions())


@st.composite
def discrete_simple_cases(draw):
    space = DiscreteSpace(tuple(draw(st.lists(weights, min_size=1, max_size=6))))
    labels = draw(st.lists(st.integers(-1, 3), min_size=space.size, max_size=space.size))
    terms = [
        (draw(values), DiscreteSet(space, [i for i, g in enumerate(labels) if g == label]))
        for label in range(4)
    ]
    region = DiscreteSet(space, [i for i in range(space.size) if draw(st.booleans())])
    return SimpleFunction(space, terms), space, region


cases = st.one_of(piecewise_cases(), interval_simple_cases(), discrete_simple_cases())


def probe_points(fn) -> list:
    """Piece ends and midpoints of a piecewise-linear function, and where a
    piece crosses a value k/2 with |k| <= 4, its root included; every term
    end and midpoint, or every point, of a simple function."""
    if isinstance(fn, SimpleFunction):
        return term_points(fn.space, (fn,))
    points = set()
    for u, w, a, b in fn.cells():
        points.update((u, (u + w) / 2))
        if a:
            crossings = ((F(k, 2) - b) / a for k in range(-4, 5))
            points.update(x for x in crossings if u <= x < w)
    return sorted(points)


def restricted(fn, region):
    if isinstance(fn, PiecewiseLinear):
        return restrict(fn, region)
    return SimpleFunction(fn.space, [(v, part.intersection(region)) for v, part in fn.terms])


@settings(max_examples=80, deadline=None)
@given(cases)
def test_parts_equal_the_approximations_of_the_part_functions(case):
    fn, measure, _ = case
    references = DyadicApproximation(fn.pos_part()), DyadicApproximation(fn.neg_part())
    points = probe_points(fn)
    for lowered, reference in zip(DyadicApproximation.parts(fn), references):
        assert lowered.limit(measure) == reference.limit(measure)
        termination = reference.termination_level()
        assert lowered.termination_level() == termination
        assert lowered.upper_bound == reference.upper_bound
        assert lowered.cap_level == reference.cap_level
        for n in range(31):
            assert lowered.integral(n, measure) == reference.integral(n, measure), n
        levels = [*range(7), *([termination] if termination is not None else [])]
        for x in points:
            for n in levels:
                assert lowered.value_at(n, x) == reference.value_at(n, x), (x, n)
        for n in range(5):
            level = reference.level(n)
            assert lowered.level(n) == level, n
            for x in points:
                assert lowered.value_at(n, x) == level.evaluate(x), (x, n)
    # The constructor reads the same sign split: it refuses f exactly when
    # f− is not zero off a null set, and otherwise is the f+ approximation.
    positive, negative = DyadicApproximation.parts(fn)
    if negative.upper_bound > 0:
        kind = "simple integrand" if isinstance(fn, SimpleFunction) else "integrand"
        with pytest.raises(NegativeIntegrandError, match=f"^{kind} takes negative values$"):
            DyadicApproximation(fn)
    else:
        approx = DyadicApproximation(fn)
        assert approx.limit(measure) == positive.limit(measure)
        for n in range(1, 5):
            assert approx.level(n) == positive.level(n), n


@settings(max_examples=80, deadline=None)
@given(cases)
def test_signed_integrals_equal_the_oracle_integrals_of_the_parts(case):
    fn, measure, region = case
    positive, negative = fn.pos_part(), fn.neg_part()
    result = lebesgue_integral(fn, measure)
    assert result.positive_part == integral_oracle(positive, measure)
    assert result.negative_part == integral_oracle(negative, measure)
    assert result.value == result.positive_part - result.negative_part
    assert l1_norm(fn, measure) == result.positive_part + result.negative_part
    assert integrate_over(region, fn, measure) == integral_oracle(
        restricted(positive, region), measure
    ) - integral_oracle(restricted(negative, region), measure)


def roots_and_ends(fn) -> list:
    """Interior points where a piecewise-linear function is zero or a piece
    ends, or where a term of a simple function starts or ends."""
    if isinstance(fn, SimpleFunction):
        points = {x for _, part in fn.terms for x in part.endpoints()}
    else:
        points = set(fn.breakpoints)
        points.update(-b / a for _, _, a, b in fn.cells() if a)
    return sorted(x for x in points if 0 < x < 1)


@st.composite
def measures_on_roots(draw, fn):
    """Step measures whose grid holds some of the integrand's roots and ends
    beside drawn cuts, with one or two zero-density cells; the other cells
    have positive density, so that every cell's contribution shows."""
    candidates = roots_and_ends(fn)
    chosen = draw(st.lists(st.sampled_from(candidates), max_size=4)) if candidates else []
    grid = sorted({*draw(unit_grids(max_cuts=3)), *chosen})
    cells = len(grid) - 1
    densities = draw(st.lists(positive_weights, min_size=cells, max_size=cells))
    for k in draw(st.lists(st.integers(0, cells - 1), min_size=1, max_size=2)):
        densities[k] = F(0)
    return IntervalMeasure(tuple(grid), tuple(densities))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_part_tables_equal_the_per_cell_oracles(data):
    """Every level of the f+ and f− tables, and their limits, against the
    per-cell formulas for the part functions: the tables read their rows
    off one value distribution of f, the oracles read each part function
    cell by cell over the merged function/measure grid."""
    fn = data.draw(st.one_of(signed_piecewise(), interval_simple_cases().map(lambda c: c[0])))
    measure = data.draw(measures_on_roots(fn))
    parts = fn.pos_part(), fn.neg_part()
    for approximation, part in zip(DyadicApproximation.parts(fn), parts):
        assert approximation.limit(measure) == integral_oracle(part, measure)
        for n in range(31):
            assert approximation.integral(n, measure) == staircase_integral_oracle(
                part, measure, n
            ), n


@st.composite
def regions_over(draw, fn):
    """The empty or the full region, or a union of cells of a grid that
    holds the integrand's roots and ends beside drawn points.  On a sloped
    piece cut into eighths the cells alternate in and out, so the region
    and its complement each hold several intervals inside that piece."""
    shape = draw(st.sampled_from(("cells", "empty", "cells", "full")))
    if shape != "cells":
        full = fn.space.full_set()
        return full if shape == "full" else full.complement()
    if isinstance(fn.space, DiscreteSpace):
        return DiscreteSet(fn.space, [i for i in range(fn.space.size) if draw(st.booleans())])
    drawn = st.fractions(0, 1, max_denominator=24).filter(lambda t: 0 < t < 1)
    points = {F(0), F(1), *roots_and_ends(fn), *draw(st.lists(drawn, max_size=3))}
    sloped = [(u, w) for u, w, a, _ in fn.cells() if a] if isinstance(fn, PiecewiseLinear) else []
    u, w = draw(st.sampled_from(sloped)) if sloped else (F(1), F(1))
    points.update(u + (w - u) * k / 8 for k in range(1, 8))
    grid = sorted(points)
    intervals, alternate = [], False
    for lo, hi in zip(grid, grid[1:]):
        if u <= lo < w:
            alternate = keep = not alternate
        else:
            keep = draw(st.booleans())
        if keep:
            intervals.append((lo, hi))
    return IntervalSet(intervals)


@st.composite
def over_cases(draw):
    kind = draw(st.sampled_from((piecewise_cases, interval_simple_cases, discrete_simple_cases)))
    fn, measure, _ = draw(kind())
    if isinstance(fn, PiecewiseLinear):
        measure = draw(measures_on_roots(fn))
    return fn, measure, draw(regions_over(fn))


@settings(max_examples=120, deadline=None)
@given(over_cases())
def test_integrate_over_is_the_integral_of_the_restriction(case):
    """`integrate_over(R, f, m)` against the oracle integral of f·1_R, both
    integrand classes on both space kinds, and the integrals over R and ~R
    add up to the signed integral of f."""
    fn, measure, region = case
    over = integrate_over(region, fn, measure)
    assert over == integral_oracle(restricted(fn, region), measure)
    complement = integrate_over(region.complement(), fn, measure)
    assert over + complement == lebesgue_integral(fn, measure).value


PAIR = DiscreteSpace((F(1), F(2)))


@pytest.mark.parametrize(
    "fn, outside",
    [
        (PiecewiseLinear.linear(F(1), F(-1, 2)), F(3, 2)),
        (SimpleFunction(PAIR, [(F(1), DiscreteSet(PAIR, [0])), (F(-2), DiscreteSet(PAIR, [1]))]), 2),
    ],
)
def test_value_at_checks_the_level_before_the_point(fn, outside):
    for approximation in DyadicApproximation.parts(fn):
        with pytest.raises(ValueError) as info:
            approximation.value_at(-1, outside)
        assert type(info.value) is ValueError
        with pytest.raises(OutsideDomainError) as info:
            approximation.value_at(1, outside)
        assert str(info.value) == f"point {outside!r} outside the space"


PART_FUNCTIONS = ("pos_part", "neg_part", "absolute", "__abs__", "restrict", "split_at_roots")
LEBESGUE = IntervalMeasure.lebesgue()
STEP = IntervalMeasure((F(0), F(1, 3), F(1)), (F(2), F(1, 5)))
SIGNED_SIMPLE = SimpleFunction(
    UNIT_INTERVAL,
    [
        (F(3, 4), IntervalSet([(F(0), F(1, 4))])),
        (F(-5, 3), IntervalSet([(F(1, 4), F(1, 2))])),
        (F(1, 7), IntervalSet([(F(3, 4), F(1))])),
    ],
)
SIGNED_PIECEWISE = PiecewiseLinear(
    (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)),
    ((F(2), F(-1, 3)), (F(0), F(0)), (F(0), F(-3, 2)), (F(-4), F(7, 2))),
)
REGION = IntervalSet([(F(1, 8), F(5, 8)), (F(7, 8), F(1))])


def _signed_paths():
    return [
        (
            equivalence_report(fn, measure, depth=12),
            lebesgue_integral(fn, measure),
            integrate_over(REGION, fn, measure),
            l1_norm(fn, measure),
        )
        for fn in (SIGNED_SIMPLE, SIGNED_PIECEWISE)
        for measure in (LEBESGUE, STEP)
    ]


def test_signed_paths_build_no_part_function(monkeypatch):
    expected = _signed_paths()

    def refuse(*args, **kwargs):
        raise AssertionError("a signed path built a part function")

    for owner in (SimpleFunction, PiecewiseLinear):
        for name in PART_FUNCTIONS:
            monkeypatch.setattr(owner, name, refuse, raising=False)
    with pytest.raises(AssertionError):
        SIGNED_PIECEWISE.pos_part()
    assert _signed_paths() == expected


DISCRETE = DiscreteSpace(tuple(F(k % 5, 3) for k in range(12)))
DERIVED_CASES = [
    (
        STEP,
        SimpleFunction(
            UNIT_INTERVAL,
            [(F(k - 3, 4), IntervalSet([(F(k, 8), F(k + 1, 8))])) for k in range(0, 8, 2)],
        ),
        SimpleFunction(
            UNIT_INTERVAL,
            [(F(2 - k, 3), IntervalSet([(F(k, 6), F(k + 1, 6))])) for k in range(1, 6, 2)],
        ),
        REGION,
        (F(1, 16), F(3, 8), F(13, 16)),
    ),
    (
        DISCRETE,
        SimpleFunction(DISCRETE, [(F(k - 2, 3), DiscreteSet(DISCRETE, [k, k + 6])) for k in range(5)]),
        SimpleFunction(DISCRETE, [(F(k, 5), DiscreteSet(DISCRETE, [2 * k + 1])) for k in range(5)]),
        DiscreteSet(DISCRETE, range(0, 12, 3)),
        (0, 3, 11),
    ),
]


def _derived_paths(measure, f, g, region, points):
    difference = f - g
    positive, negative = DyadicApproximation.parts(difference)
    level = positive.level(2)
    return (
        positive.limit(measure),
        negative.limit(measure),
        positive.integral(3, measure),
        level,
        integrate_simple(level, measure),
        [(positive.value_at(2, x), negative.value_at(5, x)) for x in points],
        integrate_over(region, difference, measure),
        [difference.evaluate(x) for x in points],
    )


@pytest.mark.parametrize("measure, f, g, region, points", DERIVED_CASES, ids=["interval", "discrete"])
def test_staircase_of_a_derived_function_builds_no_set(monkeypatch, measure, f, g, region, points):
    """`f - g` is only its cell table: its staircases, the terms of its
    telescoped series, `integrate_over` and `evaluate` read the table and
    build no set of any cell."""
    expected = _derived_paths(measure, f, g, region, points)
    pos_limit, neg_limit, _, level, level_integral, values, over, evaluated = expected
    assert pos_limit - neg_limit == integrate_simple(f, measure) - integrate_simple(g, measure)
    assert level_integral == DyadicApproximation.parts(f - g)[0].integral(2, measure)
    assert over == integrate_simple(
        SimpleFunction(f.space, [(v, part & region) for v, part in (f - g).terms]), measure
    )
    assert evaluated == [f.evaluate(x) - g.evaluate(x) for x in points]
    series = series_from_integrand(f - g, measure, depth=6).series
    P, N = series.positive, series.negative

    def refuse(self, table):
        raise AssertionError("a set was built for a cell")

    for space in (UnitIntervalSpace, DiscreteSpace):
        monkeypatch.setattr(space, "_cell_sets", refuse)
    with pytest.raises(AssertionError):
        (f - g).terms
    assert _derived_paths(measure, f, g, region, points) == expected
    for n in (1, 2, 3):
        # h_n pairs the two part increments without a set of any cell.
        assert series.term(n) == (P.level(n) - P.level(n - 1)) - (N.level(n) - N.level(n - 1))
