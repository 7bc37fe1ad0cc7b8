"""Seeded random generators for spaces, sets, functions and series.

Everything is drawn from `random.Random` (the Mersenne Twister) through a
fixed call sequence, so one seed and configuration produce identical
objects on every platform and run.  Outputs always satisfy the module
invariants: term sets pairwise disjoint, densities and weights
nonnegative, series carrying usable certificates.

The drawing order per family is part of the generator contract; changing
it is a breaking change for anything that records seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

from .bochner import FiniteSeries, FunctionSeries, GeometricIndicatorSeries
from .piecewise import PiecewiseLinear
from .rationals import ONE, ZERO
from .simple import SimpleFunction, Vec, _zero_of
from .spaces import (
    DiscreteSet,
    DiscreteSpace,
    IntervalMeasure,
    IntervalSet,
    Measure,
    MeasurableSet,
    space_of,
)

__all__ = [
    "FAMILIES",
    "GeneratorConfig",
    "GeneratedCase",
    "generate",
    "generate_stream",
    "random_measure",
    "random_simple_function",
    "random_piecewise_linear",
    "random_series",
    "split_representation",
    "sample_points",
]

FAMILIES = ("simple", "piecewise_linear", "vector_simple", "series")

# Hard desk-scale caps; configs beyond them are rejected.
MAX_TERMS = 16
MAX_DENOMINATOR = 4096
MAX_DIM = 4
# The size of a drawn piecewise-linear function: at most this many pieces,
# slopes and intercepts in [-bound, bound].
_MAX_PIECES = 6
_COEFFICIENT_BOUND = 8


@dataclass(frozen=True)
class GeneratorConfig:
    """What to draw and how large it may get."""

    seed: int
    family: str
    max_terms: int = MAX_TERMS
    max_denominator: int = MAX_DENOMINATOR
    max_dim: int = MAX_DIM

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an integer in [0, 2^64)")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick one of {FAMILIES}")
        if not 1 <= self.max_terms <= MAX_TERMS:
            raise ValueError(f"max_terms must be in [1, {MAX_TERMS}]")
        if not 2 <= self.max_denominator <= MAX_DENOMINATOR:
            raise ValueError(f"max_denominator must be in [2, {MAX_DENOMINATOR}]")
        if not 1 <= self.max_dim <= MAX_DIM:
            raise ValueError(f"max_dim must be in [1, {MAX_DIM}]")


@dataclass(frozen=True)
class GeneratedCase:
    """One drawn object together with the measure it lives against."""

    family: str
    measure: Measure
    function: Union[SimpleFunction, PiecewiseLinear, FunctionSeries]


def _fraction_between(
    rng: random.Random, lo: int, hi: int, max_denominator: int
) -> Fraction:
    """A rational in [lo, hi] with denominator at most max_denominator."""
    den = rng.randint(1, max_denominator)
    return Fraction(rng.randint(lo * den, hi * den), den)


def _dyadic_value(rng: random.Random, max_level: int, bound: int) -> Fraction:
    """k / 2^j with j <= max_level and value in [0, bound]."""
    level = rng.randint(0, max_level)
    return Fraction(rng.randint(0, bound << level), 1 << level)


def _interior_cuts(rng: random.Random, count: int, max_denominator: int) -> list[Fraction]:
    cuts = set()
    for _ in range(count):
        den = rng.randint(2, max_denominator)
        num = rng.randint(1, den - 1)
        cuts.add(Fraction(num, den))
    return sorted(cuts)


def _masses(rng: random.Random, count: int, max_denominator: int) -> tuple[Fraction, ...]:
    """`count` masses, each zero with probability 0.15, else a rational in [0, 4]."""
    return tuple(
        ZERO if rng.random() < 0.15 else _fraction_between(rng, 0, 4, max_denominator)
        for _ in range(count)
    )


def random_measure(
    rng: random.Random,
    kind: Optional[str] = None,
    max_size: int = 16,
    max_denominator: int = 64,
) -> Measure:
    """A discrete space or an interval step measure (possibly Lebesgue)."""
    if kind is None:
        kind = rng.choice(("discrete", "interval"))
    if kind == "discrete":
        return DiscreteSpace(_masses(rng, rng.randint(1, max_size), max_denominator))
    if rng.random() < 0.25:
        return IntervalMeasure.lebesgue()
    cuts = _interior_cuts(rng, rng.randint(0, 3), max_denominator)
    return IntervalMeasure((ZERO, *cuts, ONE), _masses(rng, len(cuts) + 1, max_denominator))


def _deal(rng: random.Random, items, count: int) -> list[list]:
    """Shuffle `items`, then deal them round-robin into min(count, len) buckets."""
    items = list(items)
    rng.shuffle(items)
    buckets: list[list] = [[] for _ in range(min(count, len(items)))]
    for position, item in enumerate(items):
        buckets[position % len(buckets)].append(item)
    return buckets


def _random_partition(
    rng: random.Random, measure: Measure, parts: int, max_denominator: int
) -> list[MeasurableSet]:
    """Partition of the space into at most `parts` nonoverlapping sets."""
    space = space_of(measure)
    if isinstance(space, DiscreteSpace):
        return [DiscreteSet(space, b) for b in _deal(rng, range(space.size), parts)]
    cuts = _interior_cuts(rng, parts - 1, max_denominator)
    edges = [ZERO, *cuts, ONE]
    cells = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    return [IntervalSet(bucket) for bucket in _deal(rng, cells, parts)]


def _random_value(
    rng: random.Random,
    values: str,
    max_denominator: int,
    dim: Optional[int],
):
    def scalar() -> Fraction:
        if values == "dyadic":
            magnitude = _dyadic_value(rng, max_level=8, bound=8)
            return magnitude if rng.random() < 0.5 else -magnitude
        if values == "dyadic_nonneg":
            return _dyadic_value(rng, max_level=8, bound=8)
        if values == "nonneg":
            return _fraction_between(rng, 0, 8, max_denominator)
        return _fraction_between(rng, -8, 8, max_denominator)

    if dim is None:
        return scalar()
    return Vec(tuple(scalar() for _ in range(dim)))


def random_simple_function(
    rng: random.Random,
    measure: Measure,
    max_terms: int = MAX_TERMS,
    max_denominator: int = MAX_DENOMINATOR,
    values: str = "signed",
    dim: Optional[int] = None,
) -> SimpleFunction:
    """A simple function over `measure`'s space.

    `values` selects the value population: "signed", "nonneg", "dyadic"
    (signed, on the 2^-8 grid, bounded by 8) or "dyadic_nonneg".  Some
    cells keep the value zero, so representations routinely carry explicit
    zero terms.
    """
    parts = _random_partition(rng, measure, rng.randint(1, max_terms), max_denominator)
    terms = []
    for part in parts:
        if part.is_empty:
            continue
        if rng.random() < 0.2:
            if rng.random() < 0.5:
                continue  # leave the cell implicit
            value = _zero_of(dim)
        else:
            value = _random_value(rng, values, max_denominator, dim)
        terms.append((value, part))
    if not terms:
        terms.append((_random_value(rng, values, max_denominator, dim), parts[0]))
    return SimpleFunction(space_of(measure), terms, dim)


def random_piecewise_linear(rng: random.Random, max_denominator: int = 64) -> PiecewiseLinear:
    """A piecewise-linear function on [0, 1) with |f| <= 2 * _COEFFICIENT_BOUND."""
    bound = _COEFFICIENT_BOUND
    cuts = _interior_cuts(rng, rng.randint(0, _MAX_PIECES - 1), max_denominator)
    breakpoints = [ZERO, *cuts, ONE]
    pieces = []
    for _ in range(len(breakpoints) - 1):
        slope = _fraction_between(rng, -bound, bound, max_denominator)
        intercept = _fraction_between(rng, -bound, bound, max_denominator)
        pieces.append((slope, intercept))
    return PiecewiseLinear(breakpoints, pieces)


def random_series(
    rng: random.Random,
    measure: Measure,
    max_terms: int = 6,
    max_denominator: int = MAX_DENOMINATOR,
) -> FunctionSeries:
    """A finite series of simple terms, or a geometric indicator rule."""
    if rng.random() < 0.3:
        den = rng.randint(2, 8)
        return GeometricIndicatorSeries(measure, Fraction(rng.randint(1, den - 1), den))
    terms = [
        random_simple_function(rng, measure, max_terms=4, max_denominator=max_denominator)
        for _ in range(rng.randint(1, max_terms))
    ]
    return FiniteSeries(measure, terms)


def split_representation(rng: random.Random, fn: SimpleFunction) -> SimpleFunction:
    """A different pairwise-disjoint representation of the same function.

    Splits every term set into up to three pieces and sometimes adds an
    explicit zero term over part of the uncovered remainder; evaluates and
    integrates identically to `fn` (the coherence property).
    """
    terms = []
    for value, part in fn.terms:
        for piece in _split_set(rng, part):
            if not piece.is_empty:
                terms.append((value, piece))
    rest = fn.space.union_of(part for _, part in fn.terms).complement()
    if not rest.is_empty and rng.random() < 0.5:
        terms.append((_zero_of(fn.dim), _split_set(rng, rest)[0]))
    return SimpleFunction(fn.space, terms, fn.dim)


def _split_set(rng: random.Random, part: MeasurableSet) -> list[MeasurableSet]:
    pieces = rng.randint(1, 3)
    if isinstance(part, DiscreteSet):
        if not part.indices:
            return [part]
        return [DiscreteSet(part.space, b) for b in _deal(rng, part.indices, pieces)]
    if part.is_empty:
        return [part]
    cuts = []
    for lo, hi in part.intervals:
        mid_den = rng.randint(2, 16)
        mid = lo + (hi - lo) * Fraction(rng.randint(1, mid_den - 1), mid_den)
        cuts.append(mid)
    edges = sorted({*part.endpoints(), *cuts})
    cells = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    cells = [c for c in cells if not part.intersection(IntervalSet([c])).is_empty]
    return [part.intersection(IntervalSet(bucket)) for bucket in _deal(rng, cells, pieces)]


def sample_points(rng: random.Random, measure: Measure, count: int) -> list:
    """Deterministic sample of points: a dyadic grid slice plus random rationals."""
    space = space_of(measure)
    if isinstance(space, DiscreteSpace):
        return [rng.randrange(space.size) for _ in range(count)]
    points = set()
    grid_level = 5
    for k in range(min(count // 2, 1 << grid_level)):
        points.add(Fraction(k, 1 << grid_level))
    while len(points) < count:
        den = rng.randint(1, 512)
        points.add(Fraction(rng.randint(0, den - 1), den))
    return sorted(points)[:count]


def generate(config: GeneratorConfig) -> GeneratedCase:
    """Draw one case for the configured family, deterministically per seed."""
    return next(generate_stream(config, 1))


def generate_stream(config: GeneratorConfig, count: int) -> Iterator[GeneratedCase]:
    """Draw `count` cases from one seeded stream."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(config.seed)
    family = config.family
    for _ in range(count):
        # One measure draw per case, then the family's function.
        measure = random_measure(rng, kind="interval" if family == "piecewise_linear" else None)
        if family == "piecewise_linear":
            fn = random_piecewise_linear(rng, max_denominator=min(config.max_denominator, 64))
        elif family == "series":
            fn = random_series(rng, measure, max_denominator=config.max_denominator)
        else:
            dim = rng.randint(1, config.max_dim) if family == "vector_simple" else None
            fn = random_simple_function(
                rng, measure, config.max_terms, config.max_denominator, dim=dim
            )
        yield GeneratedCase(family, measure, fn)
