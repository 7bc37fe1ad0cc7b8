"""Batch mass reads: `measure_of`, `integrate_simple` and the signed simple
integral against the enumeration/quadrature oracle, their space checks, and
one batch read per integral, `integrate_over` and piecewise-linear
integrands included."""

import gc
import weakref
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
    SpaceMismatchError,
    UNIT_INTERVAL,
    Vec,
    integrate_nonneg,
    integrate_over,
    integrate_simple,
    lebesgue_integral,
    series_from_integrand,
)

from oracles import integral_oracle, measure_oracle

# Small denominators beside large pairwise co-prime ones, so common
# denominators range from 1 to products of several hundred bits.
DENOMINATORS = (1, 2, 3, 7, 64, 1000003, 998244353, 2**61 - 1, 2**89 - 1, 2**107 - 1)


@st.composite
def rationals(draw, lo=-8, hi=8):
    den = draw(st.sampled_from(DENOMINATORS))
    return F(draw(st.integers(lo * den, hi * den)), den)


@st.composite
def unit_points(draw, count):
    """`count` distinct points strictly inside (0, 1), sorted."""
    points = set()
    for _ in range(count):
        den = draw(st.sampled_from(DENOMINATORS[1:]))
        points.add(F(draw(st.integers(1, den - 1)), den))
    return sorted(points)


@st.composite
def measures(draw):
    if draw(st.booleans()):
        size = draw(st.integers(1, 12))
        weights = [
            draw(st.one_of(st.just(F(0)), rationals(lo=0, hi=4))) for _ in range(size)
        ]
        return DiscreteSpace(tuple(weights))
    inner = draw(unit_points(draw(st.integers(0, 6))))
    breakpoints = (F(0), *inner, F(1))
    densities = tuple(
        draw(st.one_of(st.just(F(0)), rationals(lo=0, hi=4)))
        for _ in range(len(breakpoints) - 1)
    )
    return IntervalMeasure(breakpoints, densities)


@st.composite
def partitions(draw, space):
    """Pairwise-disjoint sets of the space, some of them empty, not
    necessarily covering it."""
    count = draw(st.integers(1, 6))
    if isinstance(space, DiscreteSpace):
        owners = [draw(st.integers(-1, count - 1)) for _ in range(space.size)]
        return [
            DiscreteSet(space, [i for i, owner in enumerate(owners) if owner == k])
            for k in range(count)
        ]
    edges = [F(0), *draw(unit_points(draw(st.integers(0, 8)))), F(1)]
    owners = [draw(st.integers(-1, count - 1)) for _ in range(len(edges) - 1)]
    return [
        IntervalSet(
            [(edges[i], edges[i + 1]) for i, owner in enumerate(owners) if owner == k]
        )
        for k in range(count)
    ]


@st.composite
def cases(draw, dim=None):
    measure = draw(measures())
    space = measure if isinstance(measure, DiscreteSpace) else UNIT_INTERVAL
    parts = draw(partitions(space))
    values = st.one_of(st.just(F(0)), rationals())
    if dim is not None:
        values = st.builds(Vec, st.tuples(*([values] * dim)))
    terms = [(draw(values), part) for part in parts]
    return measure, parts, SimpleFunction(space, terms, dim)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_scalar_reads_match_the_oracle(case):
    measure, parts, fn = case
    for part in parts:
        assert measure.measure_of(part) == measure_oracle(measure, part)
    assert measure.total_mass == measure_oracle(measure, fn.space.full_set())
    assert integrate_simple(fn, measure) == integral_oracle(fn, measure)
    result = lebesgue_integral(fn, measure)
    assert result.value == integral_oracle(fn, measure)
    assert result.positive_part == integral_oracle(fn.pos_part(), measure)
    assert result.negative_part == integral_oracle(fn.neg_part(), measure)
    assert integrate_nonneg(abs(fn), measure) == integral_oracle(abs(fn), measure)


@settings(max_examples=60, deadline=None)
@given(cases(dim=2))
def test_vector_integral_matches_the_oracle(case):
    measure, _, fn = case
    integral = integrate_simple(fn, measure)
    assert isinstance(integral, Vec)
    assert integral == integral_oracle(fn, measure)


# --- space checks ----------------------------------------------------------------

UNIFORM = DiscreteSpace((F(1), F(1)))
WEIGHTED = DiscreteSpace((F(1), F(3)))
LEBESGUE = IntervalMeasure.lebesgue()
ON_WEIGHTED = SimpleFunction.indicator(F(2), DiscreteSet(WEIGHTED, [1]))
ON_INTERVAL = SimpleFunction.indicator(F(-2), IntervalSet([(F(0), F(1, 2))]))
ON_UNIFORM = SimpleFunction.indicator(F(5), DiscreteSet(UNIFORM, [0]))

MISMATCHES = [
    (UNIFORM, ON_WEIGHTED),  # a set from another discrete space
    (UNIFORM, ON_INTERVAL),  # an interval set on a discrete space
    (LEBESGUE, ON_UNIFORM),  # an index set on the interval
]


@pytest.mark.parametrize("measure, fn", MISMATCHES)
def test_every_entry_point_refuses_a_foreign_set(measure, fn):
    (_, part), = fn.terms
    with pytest.raises(SpaceMismatchError):
        measure.measure_of(part)
    with pytest.raises(SpaceMismatchError):
        integrate_simple(fn, measure)
    with pytest.raises(SpaceMismatchError):
        lebesgue_integral(fn, measure)


def test_signed_integral_checks_scalar_values_before_the_space():
    vector = SimpleFunction.indicator(Vec((F(1), F(-1))), DiscreteSet(WEIGHTED, [0]))
    with pytest.raises(ValueError) as info:
        lebesgue_integral(vector, UNIFORM)
    assert type(info.value) is ValueError


# --- one batch read per integral ---------------------------------------------------


def _count_reads(monkeypatch, measure_class):
    counts = {"batch": 0, "measure_of": 0}
    batch = getattr(measure_class, "_masses", None)
    single = measure_class.measure_of

    def counted_batch(self, parts):
        counts["batch"] += 1
        return batch(self, parts)

    def counted_single(self, subset):
        counts["measure_of"] += 1
        return single(self, subset)

    monkeypatch.setattr(measure_class, "_masses", counted_batch, raising=False)
    monkeypatch.setattr(measure_class, "measure_of", counted_single)
    return counts


def _wide_function(space, n):
    if isinstance(space, DiscreteSpace):
        parts = [DiscreteSet(space, [k]) for k in range(n)]
    else:
        parts = [IntervalSet([(F(k, n), F(k + 1, n))]) for k in range(n)]
    return SimpleFunction(space, [(F(k - n // 2, k + 1), part) for k, part in enumerate(parts)])


def _wide_piecewise(n, flat=True):
    """n pieces on [0, 1): sloped ones, each crossing zero inside, with
    `flat` between flat ones (one of them zero)."""
    pieces = []
    for k in range(n):
        if k % 2 or not flat:
            slope = F(k - n // 2 or 1)
            pieces.append((slope, -slope * F(2 * k + 1, 2 * n)))
        else:
            pieces.append((F(0), F(k - n // 2, k + 1)))
    return PiecewiseLinear([F(k, n) for k in range(n + 1)], pieces)


@pytest.mark.parametrize(
    "measure",
    [
        DiscreteSpace(tuple(F(k % 5, 7) for k in range(16))),
        IntervalMeasure((F(0), F(1, 3), F(1)), (F(2), F(1, 5))),
    ],
)
def test_an_integral_of_n_terms_makes_one_batch_read(monkeypatch, measure):
    space = measure if isinstance(measure, DiscreteSpace) else UNIT_INTERVAL
    fn = _wide_function(space, 16)
    region = space.union_of(part for _, part in fn.terms[::3])
    other = _wide_function(space, 5)
    total, difference = fn + other, fn - other
    integrands = [(fn, 1), (total, 1), (difference, 1)]
    if space is UNIT_INTERVAL:
        # Without a flat piece there is no mass to read.
        integrands += [(_wide_piecewise(16), 1), (_wide_piecewise(16, flat=False), 0)]
    calls = [
        ("integrate_simple", lambda: integrate_simple(fn, measure), 1),
        ("integrate_simple of f + g", lambda: integrate_simple(total, measure), 1),
        ("integrate_simple of f - g", lambda: integrate_simple(difference, measure), 1),
        ("integrate_nonneg", lambda: integrate_nonneg(abs(fn), measure), 1),
    ]
    for k, (g, batches) in enumerate(integrands):
        kind = f"{type(g).__name__} {k}"
        calls += [
            (f"lebesgue_integral of a {kind}", lambda g=g: lebesgue_integral(g, measure), batches),
            (
                f"integrate_over of a {kind}",
                lambda g=g: integrate_over(region, g, measure),
                batches,
            ),
        ]
    counts = _count_reads(monkeypatch, type(measure))
    for name, integrate, batches in calls:
        counts.update(batch=0, measure_of=0)
        integrate()
        assert counts == {"batch": batches, "measure_of": 0}, name


def _recorded_reads(monkeypatch, measure_class) -> list:
    """The tables of every `_read_masses` call from now on, in call order."""
    tables = []
    read = measure_class._read_masses
    monkeypatch.setattr(
        measure_class, "_read_masses", lambda self, table: tables.append(table) or read(self, table)
    )
    return tables


def test_a_piecewise_linear_read_walks_no_root(monkeypatch):
    """The mass read of a piecewise-linear integrand leaves its sloped cells
    out, and with them the roots that split them, whose denominators would
    only lengthen the read's common denominator.  The read of a staircase
    part also leaves out the flat cells of the other sign, and so does the
    read of a part with no sloped piece of its own."""
    fn = _wide_piecewise(16)  # every sloped piece crosses zero inside its cell
    roots = {-b / a for _, _, a, b in fn.cells() if a}
    measure = IntervalMeasure((F(0), F(1, 3), F(1)), (F(2), F(1, 5)))
    tables = _recorded_reads(monkeypatch, IntervalMeasure)
    assert lebesgue_integral(fn, measure).value == integral_oracle(fn, measure)
    (table,) = tables
    assert roots.isdisjoint(table.cuts)
    assert set(table.cuts) <= set(fn.breakpoints)

    # Every sloped piece of the second function is positive, so its f- has
    # no sloped piece of its own: its read keeps its two negative flat
    # pieces alone, not the whole table of f.
    rising = [(F(1), F(1)), (F(0), F(-2)), (F(2), F(0)), (F(0), F(3))]
    falling = [(F(-1), F(2)), (F(0), F(-1, 3)), (F(4), F(1)), (F(0), F(5))]
    positive_slopes = PiecewiseLinear([F(k, 8) for k in range(9)], rising + falling)
    for fn in (fn, positive_slopes):
        tables.clear()
        positive, negative = DyadicApproximation.parts(fn)
        assert positive.limit(measure) == integral_oracle(fn.pos_part(), measure)
        assert negative.limit(measure) == integral_oracle(fn.neg_part(), measure)
        assert len(tables) == 2
        for table, sign in zip(tables, (1, -1)):
            # The ends of the flat pieces of this sign, with 0 and 1.
            ends = {F(0), F(1)}
            for u, w, a, b in fn.cells():
                if not a and b * sign > 0:
                    ends |= {u, w}
            assert roots.isdisjoint(table.cuts)
            assert set(table.cuts) <= ends
    assert tables[1].cuts == (F(0), F(1, 8), F(1, 4), F(5, 8), F(3, 4), F(1))


@pytest.mark.parametrize(
    "measure",
    [
        DiscreteSpace(tuple(F(k % 5, 7) for k in range(16))),
        IntervalMeasure((F(0), F(1, 3), F(1)), (F(2), F(1, 5))),
    ],
)
def test_a_signed_simple_series_reads_the_masses_once(monkeypatch, measure):
    """The two staircase parts of a simple function keep its table, so the
    second part's read finds the first's in the measure's memo slot."""
    space = measure if isinstance(measure, DiscreteSpace) else UNIT_INTERVAL
    fn = _wide_function(space, 16)  # values of both signs
    tables = _recorded_reads(monkeypatch, type(measure))
    representation = series_from_integrand(fn, measure, depth=12)
    assert tables == [fn._table]
    series = representation.series
    assert series.positive_limit == integral_oracle(fn.pos_part(), measure)
    assert series.negative_limit == integral_oracle(fn.neg_part(), measure)
    series_from_integrand(fn, _rebuilt_measure(measure), depth=12)  # another measure
    assert tables == [fn._table] * 2


# --- the memo slots: one pairing per left canonical function, one mass read per measure


def _rebuilt(fn):
    """A copy of `fn` that shares no table or memo with it."""
    return SimpleFunction(fn.space, fn.terms, fn.dim)


def _rebuilt_measure(measure):
    if isinstance(measure, DiscreteSpace):
        return DiscreteSpace(measure.weights)
    return IntervalMeasure(measure.breakpoints, measure.densities)


def _count(monkeypatch, owner, name):
    calls = [0]
    original = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


SPACES = [DiscreteSpace(tuple(F(k % 5, 7) for k in range(16))), UNIT_INTERVAL]


@pytest.mark.parametrize("space", SPACES)
def test_f_plus_g_and_f_minus_g_pair_once(monkeypatch, space):
    f, g = _wide_function(space, 16), _wide_function(space, 5)
    h = _rebuilt(g)  # equal to g, but another function
    paired = _count(monkeypatch, type(space), "_paired")
    total, difference = f + g, f - g
    assert paired[0] == 1
    assert total._table is difference._table
    paired[0] = 0
    f = _rebuilt(f)
    f + g, f + h, f - g  # one slot: h takes the place of g, and g that of h
    assert paired[0] == 3
    paired[0] = 0
    f + f, f - f  # a pairing with itself is not kept: it would hold its owner
    assert paired[0] == 2


@pytest.mark.parametrize("space", SPACES)
def test_the_sum_and_the_difference_read_the_masses_once(monkeypatch, space):
    measure = space if isinstance(space, DiscreteSpace) else IntervalMeasure.lebesgue()
    f, g = _wide_function(space, 16), _wide_function(space, 5)
    reads = _count(monkeypatch, type(measure), "_read_masses")
    integrate_simple(f + g, measure)
    lebesgue_integral(f - g, measure)
    assert reads[0] == 1
    lebesgue_integral(f - g, _rebuilt_measure(measure))  # another measure reads again
    assert reads[0] == 2
    numerators, _ = measure._masses((f + g)._table)
    assert isinstance(numerators, tuple)  # a kept read cannot be changed by a caller


def test_a_canonical_function_is_freed_by_reference_counting():
    f = _wide_function(UNIT_INTERVAL, 16)
    g = _wide_function(UNIT_INTERVAL, 5)
    canonical = f.canonical()
    assert canonical.canonical() is canonical
    f + g, f - g  # the left canonical function keeps its pairing with g's
    alive = [weakref.ref(fn) for fn in (f, g, canonical, g.canonical())]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del f, g, canonical
        assert [ref() for ref in alive] == [None] * len(alive)
    finally:
        if enabled:
            gc.enable()


@st.composite
def operand_triples(draw):
    """(measure, f, g, h) on one space: h equal to g but another function;
    scalar or vector values."""
    measure = draw(measures())
    space = measure if isinstance(measure, DiscreteSpace) else UNIT_INTERVAL
    dim = draw(st.sampled_from([None, None, 2]))
    values = st.one_of(st.just(F(0)), rationals())
    if dim is not None:
        values = st.builds(Vec, st.tuples(*([values] * dim)))
    f, g = (
        SimpleFunction(space, [(draw(values), part) for part in draw(partitions(space))], dim)
        for _ in range(2)
    )
    return measure, f, g, _rebuilt(g)


@settings(max_examples=100, deadline=None)
@given(operand_triples())
def test_memoized_results_equal_memo_free_ones(triple):
    """Every `+`, `-`, max/min and integral on functions and a measure that
    keep their memos equals the one on copies rebuilt from their terms."""
    measure, f, g, h = triple
    operations = ["+", "-"] if f.dim is not None else ["+", "-", "max", "min"]
    combine = {
        "+": lambda x, y: x + y,
        "-": lambda x, y: x - y,
        "max": SimpleFunction.pointwise_max,
        "min": SimpleFunction.pointwise_min,
    }
    for right in (g, h, g, f):
        for op in operations:
            kept = combine[op](f, right)
            fresh = combine[op](_rebuilt(f), _rebuilt(right))
            assert kept == fresh
            fresh_measure = _rebuilt_measure(measure)
            assert integrate_simple(kept, measure) == integrate_simple(fresh, fresh_measure)
            if f.dim is None:
                assert lebesgue_integral(kept, measure) == lebesgue_integral(
                    fresh, fresh_measure
                )
