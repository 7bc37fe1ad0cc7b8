"""The integer-pair lowering against the `Fraction` code it replaced.

The root-split walk of a piecewise-linear function, the ramp rows of its
value distribution, and the upper bound, cap level and termination level
of every staircase part must equal those of `split_cells_reference`,
`ramps_reference` and `termination_level_reference`: on pieces with roots
inside or at an end, with negative slopes, on flat-only functions, under
measures whose breakpoints fall inside pieces and whose adjacent cells
may share a density (a zero step) or have density zero, and on the parts
of derived simple functions, whose cell values are unreduced pairs.
"""

import math
from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from exactintegral import (
    UNIT_INTERVAL,
    DyadicApproximation,
    IntervalMeasure,
    IntervalSet,
    PiecewiseLinear,
    SimpleFunction,
)
from exactintegral import lebesgue

from oracles import ramps_reference, split_cells_reference, termination_level_reference

DENOMINATORS = (1, 2, 3, 4, 7, 8, 12, 1000003)
DENSITIES = (F(0), F(1, 3), F(2), F(5, 7), F(1))


@st.composite
def rationals(draw, bound=6, denominators=DENOMINATORS):
    den = draw(st.sampled_from(denominators))
    return F(draw(st.integers(-bound * den, bound * den)), den)


@st.composite
def nonzero_rationals(draw):
    value = draw(rationals())
    return value or F(draw(st.sampled_from((-3, 1, 5))), 2)


@st.composite
def grids(draw, max_cells):
    """A strictly increasing grid from 0 to 1 of at most `max_cells` cells."""
    points = set()
    for _ in range(draw(st.integers(0, max_cells - 1))):
        den = draw(st.sampled_from(DENOMINATORS[1:]))
        points.add(F(draw(st.integers(1, den - 1)), den))
    return (F(0), *sorted(points), F(1))


@st.composite
def piecewise_linear(draw):
    """Flat, zero and sloped pieces, a sloped one often with its root inside
    its cell or at one of its ends; one function in four is flat only."""
    grid = draw(grids(8))
    flat_only = draw(st.integers(0, 3)) == 0
    kinds = ("flat", "zero") if flat_only else ("flat", "zero", "sloped", "root")
    pieces = []
    for u, w in zip(grid, grid[1:]):
        kind = draw(st.sampled_from(kinds))
        if kind == "flat":
            pieces.append((F(0), draw(rationals())))
        elif kind == "zero":
            pieces.append((F(0), F(0)))
        elif kind == "sloped":
            pieces.append((draw(nonzero_rationals()), draw(rationals())))
        else:
            a = draw(nonzero_rationals())
            root = draw(st.sampled_from((u, w, (u + w) / 2, u + (w - u) / 3)))
            pieces.append((a, -a * root))
    return PiecewiseLinear(grid, pieces)


@st.composite
def measures(draw, fn):
    """Breakpoints of the function's own grid and new ones inside its
    pieces; a density repeats the one before it (a zero step) half the time."""
    inside = fn.breakpoints[1:-1]
    shared = draw(st.sets(st.sampled_from(inside))) if inside else set()
    grid = sorted({*draw(grids(5)), *shared})
    density = st.sampled_from(DENSITIES)
    densities = [draw(density)]
    for _ in grid[2:]:
        densities.append(densities[-1] if draw(st.booleans()) else draw(density))
    return IntervalMeasure(grid, densities)


def _fractions(cells) -> list:
    """Cells of `_split_cells`, each integer pair as a `Fraction`."""
    return [(u, w, F(*a), F(*b), (F(*y), F(*z))) for u, w, a, b, (y, z) in cells]


def _check_part(part, held, sloped) -> None:
    """The bound, cap level and termination level of a part with these
    nonzero held `Fraction` values and sloped pieces (ends as `Fraction`s)."""
    bound = max([*held, *(y for *_, ends in sloped for y in ends)], default=F(0))
    assert type(part.upper_bound) is F and part.upper_bound == bound
    assert part.cap_level == max(0, math.ceil(bound))
    expected = None if sloped else termination_level_reference(held)
    assert part.termination_level() == expected


@settings(max_examples=200, deadline=None)
@given(piecewise_linear(), st.data())
def test_piecewise_linear_lowering_matches_the_fraction_forms(fn, data):
    measure = data.draw(measures(fn))
    cells = list(fn._split_cells())
    for _, _, a, b, ends in cells:
        for p, q in (a, b, *ends):
            assert q > 0 and math.gcd(p, q) == 1
    reference = list(split_cells_reference(fn))
    assert _fractions(cells) == reference

    table, _, sloped = lebesgue._lowered(fn)
    assert table.cuts == (*(u for u, *_ in reference), 1)
    reference_sloped = [cell for cell in reference if cell[2]]
    assert _fractions(sloped.values()) == reference_sloped
    assert lebesgue._ramps(sloped.values(), measure) == ramps_reference(reference_sloped, measure)

    for part, sign in zip(DyadicApproximation.parts(fn), (1, -1)):
        # A piece without a root inside has the sign of either nonzero end.
        own = [
            (u, w, sign * a, sign * b, (sign * y, sign * z))
            for u, w, a, b, (y, z) in reference_sloped
            if (y > 0 or z > 0) == (sign > 0)
        ]
        part_sloped = part._part[2].values()
        assert _fractions(part_sloped) == own
        assert lebesgue._ramps(part_sloped, measure) == ramps_reference(own, measure)
        held = [sign * b for _, _, a, b, _ in reference if not a and sign * b > 0]
        _check_part(part, held, own)
        assert part.limit(measure) == lebesgue.integrate_nonneg(
            fn.pos_part() if sign > 0 else fn.neg_part(), measure
        )


@st.composite
def simple_functions(draw):
    """A simple function on [0, 1) with one term per cell of a grid, some
    cells left out; the values dyadic half the time, so that some parts
    terminate."""
    grid = draw(grids(6))
    denominators = (1, 2, 4, 8) if draw(st.booleans()) else DENOMINATORS
    terms = [
        (draw(rationals(denominators=denominators)), IntervalSet([(u, w)]))
        for u, w in zip(grid, grid[1:])
        if draw(st.integers(0, 4))
    ]
    return SimpleFunction(UNIT_INTERVAL, terms)


def _sf(*terms):
    return SimpleFunction(UNIT_INTERVAL, [(v, IntervalSet([(F(u), F(w))])) for v, u, w in terms])


@settings(max_examples=200, deadline=None)
@given(simple_functions(), simple_functions(), st.booleans())
# 3/8 + 1/8 on [0, 1/2) is kept as the pair (32, 64); read unreduced, its
# denominator would raise the termination level from 3 to 6.
@example(_sf((F(3, 8), 0, F(1, 2))), _sf((F(1, 8), 0, 1)), True)
def test_parts_of_derived_simple_functions_match_the_fraction_forms(f, g, add):
    h = f + g if add else f - g
    held = [F(*h._values[k]) for k in set(h._table.owners) if k >= 0]
    for part, sign in zip(DyadicApproximation.parts(h), (1, -1)):
        _check_part(part, [sign * v for v in held if sign * v > 0], [])
    _check_part(DyadicApproximation(abs(h)), [abs(v) for v in held if v], [])
