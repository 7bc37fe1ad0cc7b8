"""Piecewise-linear integrands: evaluation, level sets, sign decomposition."""

import operator
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from exactintegral import (
    UNIT_INTERVAL,
    DiscreteSet,
    DiscreteSpace,
    IntervalMeasure,
    IntervalSet,
    OutsideDomainError,
    PiecewiseLinear,
    SimpleFunction,
    Vec,
    integrate_nonneg,
    integrate_over,
    lebesgue_integral,
)
from exactintegral.generators import random_measure, random_piecewise_linear, sample_points

from oracles import (
    _pointwise,
    by_sign_reference,
    combined_reference,
    integral_oracle,
    is_nonnegative,
    level_set,
    lower_bound,
    primes_from,
    refined_reference,
    restrict,
    slope_at,
    split_at_roots_reference,
    upper_bound,
)


def iv(*pairs):
    return IntervalSet([(F(a), F(b)) for a, b in pairs])


LEBESGUE = IntervalMeasure.lebesgue()
IDENTITY = PiecewiseLinear.linear(F(1))
TENT = PiecewiseLinear((F(0), F(1, 2), F(1)), ((F(2), F(0)), (F(-2), F(2))))


def test_construction_validates_grid():
    with pytest.raises(ValueError):
        PiecewiseLinear((F(0), F(1, 2)), ((F(1), F(0)),))
    with pytest.raises(ValueError):
        PiecewiseLinear((F(0), F(1, 2), F(1)), ((F(1), F(0)),))


def test_evaluate_picks_half_open_cell():
    assert TENT.evaluate(F(0)) == 0
    assert TENT.evaluate(F(1, 4)) == F(1, 2)
    assert TENT.evaluate(F(1, 2)) == 1  # boundary belongs to the right cell
    assert TENT.evaluate(F(3, 4)) == F(1, 2)
    with pytest.raises(OutsideDomainError):
        TENT.evaluate(F(1))


def test_algebra_on_merged_grids():
    combined = IDENTITY + TENT.scale(F(1, 2))
    x = F(1, 3)
    assert combined.evaluate(x) == IDENTITY.evaluate(x) + TENT.evaluate(x) / 2
    assert (combined - IDENTITY).scale(2) == TENT


def test_restrict_zeroes_outside_region():
    restricted = restrict(IDENTITY, iv(("1/4", "1/2")))
    assert restricted.evaluate(F(1, 3)) == F(1, 3)
    assert restricted.evaluate(F(1, 8)) == 0
    assert restricted.evaluate(F(3, 4)) == 0


def test_negation_and_repr():
    assert (-TENT).pieces == ((F(-2), F(0)), (F(2), F(-2)))
    assert -TENT == TENT.scale(-1)
    assert repr(TENT) == "PiecewiseLinear([0,1/2): 2*x+0, [1/2,1): -2*x+2)"


def test_parts_of_shifted_identity():
    f = IDENTITY + PiecewiseLinear.constant(F(-1, 2))  # x - 1/2
    pos, neg = f.pos_part(), f.neg_part()
    assert pos.evaluate(F(3, 4)) == F(1, 4)
    assert pos.evaluate(F(1, 4)) == 0
    assert neg.evaluate(F(1, 4)) == F(1, 4)
    assert neg.evaluate(F(3, 4)) == 0
    assert pos - neg == f
    assert pos + neg == f.absolute()


def test_bounds_and_nonnegativity():
    assert upper_bound(TENT) == 1
    assert lower_bound(TENT) == 0
    assert is_nonnegative(TENT)
    f = IDENTITY + PiecewiseLinear.constant(F(-1, 2))
    assert not is_nonnegative(f)


def test_level_set_increasing_piece():
    # x in [1/4, 1/2) iff 1/4 <= f < 1/2 for f(x) = x
    assert level_set(IDENTITY, F(1, 4), F(1, 2)) == iv(("1/4", "1/2"))


def test_level_set_tent_two_pieces():
    # {1/2 <= tent < 3/2} hits both slopes: [1/4, 3/4) up to null endpoints
    assert level_set(TENT, F(1, 2), F(3, 2)) == iv(("1/4", "3/4"))


def test_level_set_constant_piece():
    c = PiecewiseLinear.constant(F(1, 3))
    assert level_set(c, F(1, 4), F(1, 2)) == iv((0, 1))
    assert level_set(c, F(1, 2), F(1)).is_empty


def test_level_set_measures_match_oracle():
    rng = random.Random(40)
    for _ in range(25):
        f = random_piecewise_linear(rng).pos_part()
        measure = random_measure(rng, kind="interval")
        lo = F(rng.randint(0, 3), 4)
        hi = lo + F(rng.randint(1, 4), 4)
        level = level_set(f, lo, hi)
        # the level set differs from the true preimage only on a null set,
        # so sampled interior points of the set must satisfy the inequality
        for interval_lo, interval_hi in level.intervals:
            mid = (interval_lo + interval_hi) / 2
            assert lo <= f.evaluate(mid) < hi
        assert measure.measure_of(level) >= 0


def test_exact_integral_anchors():
    assert integrate_nonneg(IDENTITY, LEBESGUE) == F(1, 2)
    assert integrate_nonneg(TENT, LEBESGUE) == F(1, 2)
    assert integrate_nonneg(PiecewiseLinear.constant(F(0)), LEBESGUE) == 0


def test_exact_integral_matches_quadrature_oracle():
    rng = random.Random(17)
    for _ in range(60):
        f = random_piecewise_linear(rng)
        measure = random_measure(rng, kind="interval")
        assert lebesgue_integral(f, measure).value == integral_oracle(f, measure)


def test_refinement_preserves_function():
    rng = random.Random(3)
    for _ in range(30):
        f = random_piecewise_linear(rng)
        cuts = [F(rng.randint(1, 15), 16) for _ in range(3)]
        g = f.refined(cuts)
        assert g == f
        for x in sample_points(rng, LEBESGUE, 15):
            assert g.evaluate(x) == f.evaluate(x)


# Breakpoints come from one pool, so two functions often share some; 1/3 and
# 1/3 + 2^-80, and 2/3 - 2^-81 and 2/3, are two distinct points with one
# float each, which only the exact tie-break of the sweep tells apart.
POOL = sorted(
    {F(k, 12) for k in range(1, 12)} | {F(1, 3) + F(1, 2**80), F(2, 3) - F(1, 2**81), F(1, 7)}
)
# Cuts besides the pool: 0 and 1 and points outside [0, 1], as ints and
# as `Fraction`s, all of which `refined` drops.
OUTSIDE = [0, 1, F(0), F(1), -1, 2, F(-1, 2), F(3, 2)]
CUTS = st.one_of(st.sampled_from(POOL), st.sampled_from(OUTSIDE))
COEFFICIENTS = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def piecewise_functions(draw, slopes=COEFFICIENTS):
    """Up to seven pieces on a grid cut at points of the pool; zero slopes
    and intercepts, and so flat, zero and root-crossing pieces, are common."""
    grid = [F(0), *sorted(draw(st.sets(st.sampled_from(POOL), max_size=6))), F(1)]
    cells = len(grid) - 1
    pieces = draw(st.lists(st.tuples(slopes, COEFFICIENTS), min_size=cells, max_size=cells))
    return PiecewiseLinear(grid, pieces)


@settings(max_examples=300, deadline=None)
@given(piecewise_functions(), piecewise_functions(), st.lists(CUTS, max_size=6))
def test_grid_operations_match_the_retired_algorithms(f, g, cuts):
    """`+`, `-`, `refined` and the root split give exactly the breakpoints
    and pieces of the set-union, sort and bisect refinement and of the root
    split through it, and `==` agrees with them."""
    results = {
        "add": (f + g, combined_reference(f, g, operator.add)),
        "sub": (f - g, combined_reference(f, g, operator.sub)),
        "refined": (f.refined(cuts), refined_reference(f, cuts)),
        "split_at_roots": (f.split_at_roots(), split_at_roots_reference(f)),
        "pos_part": (f.pos_part(), by_sign_reference(f, 1, 0)),
        "neg_part": (f.neg_part(), by_sign_reference(f, 0, -1)),
        "absolute": (f.absolute(), by_sign_reference(f, 1, -1)),
    }
    for name, (result, reference) in results.items():
        assert result.breakpoints == reference.breakpoints, name
        assert result.pieces == reference.pieces, name
    for p, q in ((f, g), (f, f.refined(cuts)), (f + (g - g), f)):
        on_both_grids = refined_reference(p, q.breakpoints), refined_reference(q, p.breakpoints)
        assert (p == q) == (on_both_grids[0].pieces == on_both_grids[1].pieces)


@settings(max_examples=200, deadline=None)
@given(piecewise_functions(), piecewise_functions(), st.lists(CUTS, max_size=6), COEFFICIENTS)
def test_derived_results_pass_the_public_checks(f, g, cuts, factor):
    """The derived results skip the public constructor's checks; each is
    exactly what that constructor makes of its breakpoints and pieces."""
    results = [
        f + g, f - g, -f, f.scale(factor), f.refined(cuts),
        f.split_at_roots(), f.pos_part(), f.neg_part(), f.absolute(),
    ]
    for result in results:
        rebuilt = PiecewiseLinear(result.breakpoints, result.pieces)
        assert type(result.breakpoints) is type(result.pieces) is tuple
        assert result.breakpoints == rebuilt.breakpoints
        assert result.pieces == rebuilt.pieces
        assert all(type(x) is F for x in (*result.breakpoints, *sum(result.pieces, ())))


def test_eight_thousand_prime_denominator_pieces_add_and_compare_fast():
    """Two 8000-piece functions whose breakpoints k/n + 1/p have distinct
    ~21-bit prime denominators: `f + g`, `f - g` and `f == g` must finish
    within 1.5 s together.  The shared sweep takes about 0.23 s for the
    three on a shared 2-vCPU x86-64 host, and 0.39 s there in Python's
    development mode (`PYTHONDEVMODE=1`, as CI runs the tests), so the
    bound leaves at least 3.8x headroom; the `set` union of the two grids,
    its exact sort and one bisection per cell took 1.1 to 1.6 s per
    operation (4.2 s for the three) on the same host."""
    n = 8000
    primes = primes_from(1 << 20, 2 * (n - 1))

    def spread(denominators, shift):
        cuts = [F(k, n) + F(1, p) for k, p in enumerate(denominators, start=1)]
        pieces = [(F(k % 5 - 2 + shift, 3), F(k % 7 - 3, 5)) for k in range(n)]
        return PiecewiseLinear([F(0), *cuts, F(1)], pieces)

    f, g = spread(primes[: n - 1], 0), spread(primes[n - 1 :], 1)
    started = time.perf_counter()
    total, difference, equal = f + g, f - g, f == g
    elapsed = time.perf_counter() - started
    assert len(total.breakpoints) == len(difference.breakpoints) == 2 * n
    assert not equal
    x = F(1, 3)
    assert total.evaluate(x) == f.evaluate(x) + g.evaluate(x)
    assert difference.evaluate(x) == f.evaluate(x) - g.evaluate(x)
    assert elapsed < 1.5


@st.composite
def function_twins(draw, flat: bool):
    """(f, s): a piecewise-linear function f and a scalar simple function s
    on [0, 1) built from the pieces of f.  A flat piece gives its value to
    its cell, a sloped one (only without `flat`) a drawn value; some cells
    are split at a pool point inside them, a zero value is often left to
    the padding of the canonical form, and (only without `flat`) one value
    is sometimes moved.  With `flat` the two are the same function;
    without it both the equal and the unequal case are common."""
    slopes = st.just(F(0)) if flat else st.sampled_from([F(0), F(0), F(0), F(1, 2), F(-3)])
    f = draw(piecewise_functions(slopes))
    terms = []
    for u, w, a, b in f.cells():
        value = draw(COEFFICIENTS) if a else b
        cut = draw(st.sampled_from([None, *(p for p in POOL if u < p < w)]))
        for cell in [(u, w)] if cut is None else [(u, cut), (cut, w)]:
            if value or draw(st.booleans()):
                terms.append([value, cell])
    if terms and not flat and draw(st.booleans()):
        terms[draw(st.integers(0, len(terms) - 1))][0] += 1
    return f, SimpleFunction(UNIT_INTERVAL, [(v, IntervalSet([cell])) for v, cell in terms])


@settings(max_examples=300, deadline=None)
@given(function_twins(flat=False))
def test_a_simple_function_equals_a_piecewise_linear_one_where_they_agree(twins):
    """`==` across the two classes, in both orders, is agreement at the
    midpoint of every cell of the common refinement, where f must also be
    flat; a simple function of vector values or on a discrete space is
    never equal, and `!=` is the negation of `==` throughout."""
    f, s = twins
    grid = sorted({*f.breakpoints, *(x for _, part in s.terms for x in part.endpoints())})
    value_at = _pointwise(s)
    agree = all(
        slope_at(f, m) == 0 and f.evaluate(m) == value_at(m)
        for m in ((u + w) / 2 for u, w in zip(grid, grid[1:]))
    )
    assert (f == s) is (s == f) is agree
    assert (f != s) is (s != f) is (not agree)
    points = DiscreteSpace((F(1),) * len(f.pieces))
    on_points = [(b, DiscreteSet(points, [k])) for k, (_, b) in enumerate(f.pieces)]
    unequal = [
        SimpleFunction(UNIT_INTERVAL, [(Vec((v,)), part) for v, part in s.terms], dim=1),
        SimpleFunction(points, on_points),
    ]
    for other in unequal:
        assert (f == other) is (other == f) is False
        assert (f != other) is (other != f) is True


REGIONS = st.lists(
    st.tuples(st.sampled_from([F(0), *POOL]), st.sampled_from([*POOL, F(1)])), max_size=4
).map(lambda cells: IntervalSet([(lo, hi) for lo, hi in cells if lo < hi]))


@st.composite
def interval_measures(draw):
    """A step density on a grid cut at points of the pool; zero densities
    are common."""
    grid = [F(0), *sorted(draw(st.sets(st.sampled_from(POOL), max_size=4))), F(1)]
    cells = len(grid) - 1
    density = st.builds(F, st.integers(0, 4), st.integers(1, 3))
    return IntervalMeasure(grid, draw(st.lists(density, min_size=cells, max_size=cells)))


@settings(max_examples=200, deadline=None)
@given(function_twins(flat=True), REGIONS, interval_measures())
def test_equal_functions_of_both_classes_restrict_alike(twins, region, measure):
    """`integrate_over` takes one path for both classes: a piecewise-linear
    function of flat pieces and its equal simple function give the same
    integral over a region, the integral of the restriction by the
    oracles."""
    f, s = twins
    assert f == s
    expected = integral_oracle(restrict(f, region), measure)
    assert integrate_over(region, f, measure) == integrate_over(region, s, measure) == expected
