"""Batch mass reads: `measure_of`, `integrate_simple` and the signed simple
integral against the enumeration/quadrature oracle, their space checks, and
one batch read per integral, `integrate_over` and piecewise-linear
integrands included."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from exactintegral import (
    DiscreteSet,
    DiscreteSpace,
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
