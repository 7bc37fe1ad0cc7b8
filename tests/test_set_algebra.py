"""The near-linear set algebra against the quadratic reference algorithms.

Every property compares `terms` tuples (or sets) for identity with the
reference in `oracles.py`, not merely for equality as functions, so the
order of the cells and the values they carry are pinned too.
"""

import operator
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from exactintegral import (
    DiscreteSet,
    DiscreteSpace,
    DyadicApproximation,
    IntervalMeasure,
    IntervalSet,
    NormKind,
    SimpleFunction,
    UNIT_INTERVAL,
    Vec,
    integrate_over,
    integrate_simple,
    lebesgue_integral,
)

from oracles import (
    canonical_terms_reference,
    combine_terms_reference,
    integral_oracle,
    measure_of_reference,
    merged_intervals_reference,
    pairwise_disjoint_reference,
    primes_from,
    support_reference,
    union_reference,
)

GRID = 12  # endpoints on the 1/12 grid, so touching and shared ends are common
# Besides small values: two that share one float (so only the exact
# tie-break orders them), large coprime denominators, and values beyond the
# range of the floats.
VALUES = [
    F(0), F(1), F(1), F(-1), F(2), F(1, 2), F(-3, 2),
    F(1, 3), F(1, 3) + F(1, 10**30), F(-5, 2**61 - 1), F(2**31, 2**31 - 1),
    F(10**400), F(-(10**400), 7),
]


@st.composite
def interval_sets(draw):
    """Any interval set: overlapping, touching, degenerate and empty input pairs."""
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, GRID), st.integers(0, GRID)).map(sorted),
            max_size=4,
        )
    )
    return IntervalSet([(F(lo, GRID), F(hi, GRID)) for lo, hi in pairs])


@st.composite
def discrete_spaces(draw):
    size = draw(st.integers(1, 12))
    return DiscreteSpace((F(1),) * size)


@st.composite
def discrete_sets(draw, space):
    return DiscreteSet(space, draw(st.lists(st.integers(0, space.size - 1), max_size=6)))


@st.composite
def disjoint_parts(draw, space):
    """Pairwise-disjoint sets, some empty, built from cells of a grid.

    Interval cells of one set may touch, which merges them into one run;
    cells owned by no set leave the function's implicit zero uncovered.
    """
    count = draw(st.integers(0, 6))

    def owners(cells):  # -1: owned by no set
        return draw(st.lists(st.integers(-1, count - 1), min_size=cells, max_size=cells))

    if isinstance(space, DiscreteSpace):
        owner = owners(space.size)
        return [
            DiscreteSet(space, [p for p, o in enumerate(owner) if o == k]) for k in range(count)
        ]
    cuts = sorted(draw(st.sets(st.integers(1, GRID - 1), max_size=7)))
    edges = [0, *cuts, GRID]
    owner = owners(len(edges) - 1)
    return [
        IntervalSet(
            [(F(edges[c], GRID), F(edges[c + 1], GRID)) for c, o in enumerate(owner) if o == k]
        )
        for k in range(count)
    ]


@st.composite
def simple_functions(draw, space, dim=None):
    parts = draw(disjoint_parts(space))
    values = [draw(st.sampled_from(VALUES)) for _ in parts]
    if dim is not None:
        values = [Vec((v, draw(st.sampled_from(VALUES)))) for v in values]
    return SimpleFunction(space, list(zip(values, parts)), dim)


spaces = st.one_of(st.just(UNIT_INTERVAL), discrete_spaces())


@st.composite
def function_pairs(draw, dim=None):
    space = draw(spaces)
    return draw(simple_functions(space, dim)), draw(simple_functions(space, dim))


# --- constructor ------------------------------------------------------------------


@st.composite
def term_set_lists(draw):
    space = draw(spaces)
    if space is UNIT_INTERVAL:
        return space, draw(st.lists(interval_sets(), max_size=5))
    return space, draw(st.lists(discrete_sets(space), max_size=5))


@given(term_set_lists())
def test_constructor_rejects_exactly_the_overlapping_term_sets(drawn):
    space, parts = drawn
    terms = [(F(k + 1), part) for k, part in enumerate(parts)]
    if pairwise_disjoint_reference(parts):
        assert SimpleFunction(space, terms).terms == tuple(terms)
    else:
        with pytest.raises(ValueError, match="term sets must be pairwise disjoint"):
            SimpleFunction(space, terms)


def test_touching_and_empty_term_sets_are_disjoint():
    touching = [IntervalSet([(0, F(1, 3))]), IntervalSet([(F(1, 3), F(2, 3))]), IntervalSet([])]
    assert SimpleFunction(UNIT_INTERVAL, [(F(1), s) for s in touching]).terms
    shared_start = [IntervalSet([(F(1, 3), F(1, 2))]), IntervalSet([(F(1, 3), F(2, 3))])]
    with pytest.raises(ValueError, match="term sets must be pairwise disjoint"):
        SimpleFunction(UNIT_INTERVAL, [(F(1), s) for s in shared_start])


# --- canonical form, support and the binary operations ------------------------------


@given(function_pairs())
def test_canonical_and_support_match_sequential_unions(pair):
    for fn in pair:
        assert fn.canonical().terms == canonical_terms_reference(fn)
        assert fn.support() == support_reference(fn)
        # The constructor's terms are a cache of its table: one cell per
        # term, zero values and empty sets included.
        assert SimpleFunction._trusted(fn.space, fn.dim, fn._table, fn._values).terms == fn.terms


@given(function_pairs())
def test_binary_operations_match_every_pair_intersections(pair):
    f, g = pair
    assert (f + g).terms == combine_terms_reference(f, g, operator.add)
    assert (f - g).terms == combine_terms_reference(f, g, operator.sub)
    assert f.pointwise_max(g).terms == combine_terms_reference(f, g, max)
    assert f.pointwise_min(g).terms == combine_terms_reference(f, g, min)


@given(function_pairs(dim=2))
def test_vector_canonical_and_sum_match_the_references(pair):
    f, g = pair
    assert f.canonical().terms == canonical_terms_reference(f)
    assert (f + g).terms == combine_terms_reference(f, g, operator.add)
    assert (f - g).terms == combine_terms_reference(f, g, operator.sub)


# --- measure_of -----------------------------------------------------------------------


@st.composite
def step_measures_with_zeros(draw):
    """Step measures whose breakpoints lie on the set grid; zero and repeated
    densities are common, so adjacent cells often carry the same density."""
    cuts = sorted(draw(st.sets(st.integers(1, GRID - 1), max_size=6)))
    breakpoints = [F(0), *(F(c, GRID) for c in cuts), F(1)]
    densities = draw(
        st.lists(
            st.sampled_from([F(0), F(0), F(1), F(2, 3), F(5)]),
            min_size=len(breakpoints) - 1,
            max_size=len(breakpoints) - 1,
        )
    )
    return IntervalMeasure(tuple(breakpoints), tuple(densities))


@given(interval_sets(), step_measures_with_zeros())
def test_measure_of_matches_per_cell_reference(part, measure):
    assert measure.measure_of(part) == measure_of_reference(measure, part)
    assert measure.total_mass == measure_of_reference(measure, UNIT_INTERVAL.full_set())


# Each operation by name: the library call and the reference on the values.
OPERATIONS = {
    "+": (SimpleFunction.__add__, operator.add),
    "-": (SimpleFunction.__sub__, operator.sub),
    "max": (SimpleFunction.pointwise_max, max),
    "min": (SimpleFunction.pointwise_min, min),
}


# Each unary map by value dimension and name: the library call and the
# same map on one value.
UNARY_MAPS = {
    None: {
        "neg": (operator.neg, operator.neg),
        "abs": (abs, abs),
        "scale": (lambda h: h.scale(F(-2, 3)), lambda v: v * F(-2, 3)),
        "pos_part": (SimpleFunction.pos_part, lambda v: max(v, F(0))),
        "neg_part": (SimpleFunction.neg_part, lambda v: max(-v, F(0))),
        "norm_function": (SimpleFunction.norm_function, abs),
    },
    2: {
        "neg": (operator.neg, operator.neg),
        "scale": (lambda h: h.scale(F(-2, 3)), lambda v: v.scale(F(-2, 3))),
        **{
            f"norm_function {kind.value}": (
                lambda h, kind=kind: h.norm_function(kind),
                lambda v, kind=kind: v.norm(kind),
            )
            for kind in NormKind
        },
        **{
            f"component {k}": (lambda h, k=k: h.component(k), lambda v, k=k: v.components[k])
            for k in range(2)
        },
    },
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([None, 2]), st.data())
def test_combined_functions_match_the_reference_refinement(dim, data):
    """Every read of f op g against the every-pair refinement: first the
    integrals and `==`, which need no sets, then the lazily built `repr`
    and `terms`.  Each unary map of f op g keeps its table, so mapping
    builds no set, and the mapped terms are the map of its terms."""
    f, g = data.draw(function_pairs(dim))
    if isinstance(f.space, DiscreteSpace):
        measure = f.space
    else:
        measure = data.draw(step_measures_with_zeros())
    for name in ("+", "-") if dim else OPERATIONS:
        operation, on_values = OPERATIONS[name]
        combined = operation(f, g)
        reference = SimpleFunction(f.space, combine_terms_reference(f, g, on_values), f.dim)
        assert integrate_simple(combined, measure) == integral_oracle(reference, measure), name
        if dim is None:
            signed = lebesgue_integral(combined, measure)
            assert signed.value == integral_oracle(reference, measure), name
            assert signed.positive_part == integral_oracle(reference.pos_part(), measure), name
            assert signed.negative_part == integral_oracle(reference.neg_part(), measure), name
        assert combined == reference, name
        assert combined.canonical().terms == canonical_terms_reference(reference), name
        mapped = {key: call(combined) for key, (call, _) in UNARY_MAPS[dim].items()}
        assert combined._terms is None, name  # no read so far needed its sets
        assert repr(combined) == repr(reference), name
        assert combined.terms == reference.terms, name
        for key, (_, on_value) in UNARY_MAPS[dim].items():
            expected = tuple((on_value(v), part) for v, part in combined.terms)
            assert mapped[key].terms == expected, (name, key)
            assert repr(mapped[key]) == repr(SimpleFunction(f.space, expected)), (name, key)


@given(discrete_spaces(), st.data())
def test_discrete_set_operations_stay_sorted_and_unique(space, data):
    a = data.draw(discrete_sets(space))
    b = data.draw(discrete_sets(space))
    members_a, members_b = set(a.indices), set(b.indices)
    assert a.union(b).indices == tuple(sorted(members_a | members_b))
    assert a.intersection(b).indices == tuple(sorted(members_a & members_b))
    assert a.difference(b).indices == tuple(sorted(members_a - members_b))
    assert a.complement().indices == tuple(sorted(set(range(space.size)) - members_a))
    for point in range(space.size):
        assert a.contains(point) == (point in members_a)


@given(interval_sets(), st.integers(0, 2 * GRID - 1))
def test_interval_contains_matches_a_scan(part, tick):
    point = F(tick, 2 * GRID)
    assert part.contains(point) == any(lo <= point < hi for lo, hi in part.intervals)


# --- exact order where the floats collide ------------------------------------------

# Bases on the 1/12 grid or over large coprime denominators, each shifted by
# at most 2/10**30: a shifted point has the float of its base, so the set
# algebra must fall back to the exact compare to order them.
BIG_PRIMES = (1_000_003, 1_048_573, 2**31 - 1, 2**61 - 1)
SHIFTS = tuple(F(k, 10**30) for k in (-2, -1, 0, 0, 1, 2))


@st.composite
def colliding_pools(draw):
    """Two to six points of [0, 1]; many share one float."""
    base = st.one_of(
        st.integers(0, GRID).map(lambda k: F(k, GRID)),
        st.sampled_from(BIG_PRIMES).flatmap(
            lambda p: st.integers(0, p).map(lambda k: F(k, p))
        ),
    )
    points = draw(st.lists(st.tuples(base, st.sampled_from(SHIFTS)), min_size=2, max_size=6))
    return [min(F(1), max(F(0), b + shift)) for b, shift in points]


@st.composite
def colliding_pairs(draw, pool):
    """Up to four [lo, hi) pairs with ends from `pool`: shared, adjacent,
    degenerate and one-float ends are common."""
    ends = st.sampled_from(pool)
    return draw(st.lists(st.tuples(ends, ends).map(sorted), max_size=4))


@st.composite
def colliding_functions(draw, pool):
    """A function on the cells cut at points of `pool`, up to four terms."""
    cuts = sorted(set(draw(st.lists(st.sampled_from(pool), max_size=6))) - {F(0), F(1)})
    edges = [F(0), *cuts, F(1)]
    owner = draw(st.lists(st.integers(-1, 3), min_size=len(edges) - 1, max_size=len(edges) - 1))
    parts = [
        IntervalSet([(edges[c], edges[c + 1]) for c, o in enumerate(owner) if o == k])
        for k in range(4)
    ]
    values = [draw(st.sampled_from(VALUES)) for _ in parts]
    return SimpleFunction(UNIT_INTERVAL, list(zip(values, parts)))


@given(colliding_pools(), st.data())
def test_set_algebra_orders_one_float_ends_exactly(pool, data):
    pair_lists = [data.draw(colliding_pairs(pool)) for _ in range(3)]
    sets = [IntervalSet(pairs) for pairs in pair_lists]
    for pairs, part in zip(pair_lists, sets):
        assert part.intervals == merged_intervals_reference(pairs)
    assert UNIT_INTERVAL.union_of(sets) == union_reference(UNIT_INTERVAL, sets)
    tabulated = UNIT_INTERVAL._tabulate(sets, [*range(len(sets)), -1])
    assert (tabulated is not None) == pairwise_disjoint_reference(sets)


@given(colliding_pools(), st.data())
def test_canonical_and_sum_order_one_float_ends_exactly(pool, data):
    f = data.draw(colliding_functions(pool))
    g = data.draw(colliding_functions(pool))
    assert f.canonical().terms == canonical_terms_reference(f)
    assert (f + g).terms == combine_terms_reference(f, g, operator.add)
    assert (f - f).terms == combine_terms_reference(f, f, operator.sub)


# --- scale ----------------------------------------------------------------------------


def test_four_thousand_prime_denominators_stay_fast():
    """4000 intervals whose ends have distinct ~20-bit prime denominators:
    endpoint keys scaled to one common denominator would each carry about
    80000 bits, making every sort and sweep quadratic in the count."""
    n = 4000
    primes = primes_from(1 << 19, n - 1)
    cuts = [F(k * p // n + 1, p) for k, p in enumerate(primes, start=1)]
    edges = [F(0), *cuts, F(1)]
    cells = [IntervalSet([(edges[k], edges[k + 1])]) for k in range(n)]
    started = time.perf_counter()
    f = SimpleFunction(UNIT_INTERVAL, [(F(k % 5), cell) for k, cell in enumerate(cells)])
    every_other = UNIT_INTERVAL.union_of(reversed(cells[::2]))
    total = f + f
    elapsed = time.perf_counter() - started
    assert every_other.intervals == tuple(cell.intervals[0] for cell in cells[::2])
    assert total.terms == tuple((v + v, part) for v, part in f.canonical().terms)
    assert len(total.terms) == 5
    assert elapsed < 2



def _dealt(rng, members, values, n):
    """Sets dealt round-robin from the shuffled members, a tenth left out,
    each with a value from a pool of 2n/3, as `wide_simple` deals them."""
    rng.shuffle(members)
    kept = members[: len(members) - len(members) // 10]
    pool = [values() for _ in range(2 * n // 3)]
    return [(pool[k % len(pool)], kept[k::n]) for k in range(n)]


def _growth_cases(n):
    """(measure, space, f terms, g terms): n single-interval terms on grids
    of 1/n and 1/2n, then n terms each drawn like `wide_simple` on [0, 1)
    and on a discrete space of 10n points (interval ends over denominators
    up to 1024, values and weights over denominators up to 64)."""
    grid = (
        IntervalMeasure((F(0), F(1, 3), F(1, 2), F(1)), (F(2), F(0), F(3, 2))),
        UNIT_INTERVAL,
        [(F(k % 5), IntervalSet([(F(k, n), F(k + 1, n))])) for k in range(n)],
        [
            (F(k % 7, 3), IntervalSet([(F(2 * k + 1, 2 * n), F(2 * k + 2, 2 * n))]))
            for k in range(n)
        ],
    )
    rng = random.Random(1)

    def rational(lo, hi, max_den):
        den = rng.randint(1, max_den)
        return F(rng.randint(lo * den, hi * den), den)

    def cuts(count):
        points = set()
        while len(points) < count:
            den = rng.randint(2, 1024)
            points.add(F(rng.randint(1, den - 1), den))
        return [F(0), *sorted(points), F(1)]

    edges = cuts(63)
    measure = IntervalMeasure(tuple(edges), tuple(rational(0, 4, 64) for _ in range(64)))
    cases = []
    for _ in range(2):
        ends = cuts(2 * n - 1)
        cells = [(ends[k], ends[k + 1]) for k in range(2 * n)]
        dealt = _dealt(rng, cells, lambda: rational(-8, 8, 64), n)
        cases.append([(v, IntervalSet(hand)) for v, hand in dealt])
    weights = [F(0) if rng.random() < 0.15 else rational(0, 4, 64) for _ in range(10 * n)]
    points = DiscreteSpace(tuple(weights))
    discrete = []
    for _ in range(2):
        dealt = _dealt(rng, list(range(10 * n)), lambda: rational(-8, 8, 64), n)
        discrete.append([(v, DiscreteSet(points, hand)) for v, hand in dealt])
    return [grid, (measure, UNIT_INTERVAL, *cases), (points, points, *discrete)]


def test_two_thousand_term_functions_stay_fast_and_exact():
    """Two functions of 2000 terms each, on grids and drawn like
    `wide_simple` on [0, 1) and on a discrete space of 20000 points:
    construction, canonical(), f + g, f - g, the integral of f + g, the
    signed integral of f - g, the staircase limits of its two parts and its
    integrals over a region and its complement take less than 5 s per
    input, and every integral equals the sums of the parts'.  Quadratic set
    algebra took more than 11 s to construct one such function on [0, 1)."""
    for measure, space, f_terms, g_terms in _growth_cases(2000):
        region = f_terms[0][1]
        started = time.perf_counter()
        f = SimpleFunction(space, f_terms)
        g = SimpleFunction(space, g_terms)
        canonical = f.canonical()
        total, difference = f + g, f - g
        total_integral = integrate_simple(total, measure)
        signed = lebesgue_integral(difference, measure)
        limits = [part.limit(measure) for part in DyadicApproximation.parts(difference)]
        over = [integrate_over(r, difference, measure) for r in (region, region.complement())]
        elapsed = time.perf_counter() - started
        f_integral, g_integral = integrate_simple(f, measure), integrate_simple(g, measure)
        assert len(canonical.terms) == len({v for v, _ in f_terms} | {F(0)})
        assert integrate_simple(canonical, measure) == f_integral
        assert total_integral == f_integral + g_integral
        assert integrate_simple(difference, measure) == f_integral - g_integral
        assert signed.value == f_integral - g_integral
        assert signed.positive_part - signed.negative_part == signed.value
        assert limits == [signed.positive_part, signed.negative_part]
        assert over[0] + over[1] == signed.value
        g_inside = SimpleFunction(space, [(v, part & region) for v, part in g_terms])
        assert over[0] == f_terms[0][0] * measure.measure_of(region) - integrate_simple(
            g_inside, measure
        )
        assert elapsed < 5, type(space).__name__
