"""The three-stage integral, exact at every stage.

Stage one integrates simple functions term by term.  Stage two extends to
nonnegative integrands as the limit of a fixed nondecreasing staircase
sequence: level n rounds the integrand down to the grid {k/2^n} and caps
it at n.  Stage three splits a signed integrand into its positive and
negative parts.  Supported integrands are simple functions (either space
kind) and piecewise-linear functions on [0, 1); for both, the limit
integral has a closed form, and the staircase integral of a
piecewise-linear integrand has one too (an arithmetic-series formula), so
stage-two convergence is checkable exactly at any level without
materializing the staircase.

`DyadicApproximation.integral` keeps one table per (approximation,
measure).  On first use against a measure it builds the cells once and
brings every level-independent coefficient to one common integer
denominator L; level n is then an integer numerator over L * 4^n, and
each level costs one `Fraction`, made once and kept.  Simple and
piecewise-linear integrands go through the same sweep: a value held on a
mass is the slope-free case of an affine cell.

Where an integrand decreases through a grid value exactly, the staircase
level sets are half-open like every other set in the package, which puts
those finitely many points one grid step below the pointwise floor
formula.  `DyadicApproximation.value_at` reproduces that convention, so
the lazy and the materialized staircases agree at every single point; the
sequence stays nondecreasing in the level and below the integrand
pointwise, and no integral moves, the affected sets being null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Union

from .piecewise import PiecewiseLinear
from .rationals import ZERO, floor_to_grid, is_on_grid, power_of_two_level
from .simple import SimpleFunction, integrate_simple
from .spaces import (
    IntervalMeasure,
    IntervalSet,
    Measure,
    MeasurableSet,
    SpaceMismatchError,
    UNIT_INTERVAL,
    space_of,
)

__all__ = [
    "NegativeIntegrandError",
    "IntegrabilityClass",
    "Integrand",
    "IntegralResult",
    "DyadicApproximation",
    "pos_neg_parts",
    "absolute_integrand",
    "integrate_nonneg",
    "integrate_nonneg_at_level",
    "lebesgue_integral",
    "integrate_over",
]

Integrand = Union[SimpleFunction, PiecewiseLinear]

# Materializing a staircase with more cells than this is refused; the lazy
# value/integral accessors cover the deep levels.
_MATERIALIZE_CELL_LIMIT = 1 << 22


class NegativeIntegrandError(ValueError):
    """A nonnegative integrand was required."""


class IntegrabilityClass(Enum):
    """Finiteness pattern of the two part integrals.

    PLUS means only the positive part diverges (integral +oo), MINUS only
    the negative part (integral -oo).  With the finite measures and bounded
    integrands constructible here the computed class is always INTEGRABLE,
    but it is computed, never assumed.
    """

    INTEGRABLE = "integrable"
    QUASI_INTEGRABLE_PLUS = "quasi-integrable-plus"
    QUASI_INTEGRABLE_MINUS = "quasi-integrable-minus"
    NOT_QUASI_INTEGRABLE = "not-quasi-integrable"


def _require_scalar_integrand(fn: Integrand) -> None:
    if isinstance(fn, SimpleFunction) and fn.is_vector:
        raise ValueError("a scalar integrand is required")


def check_integrand_measure(fn: Integrand, measure: Measure) -> None:
    if fn.space != space_of(measure):
        raise SpaceMismatchError("integrand and measure live on different spaces")


def pos_neg_parts(fn: Integrand) -> tuple[Integrand, Integrand]:
    """(max(0, f), max(0, -f)); both in the same integrand class as f."""
    _require_scalar_integrand(fn)
    return fn.pos_part(), fn.neg_part()


def absolute_integrand(fn: Integrand) -> Integrand:
    _require_scalar_integrand(fn)
    return abs(fn) if isinstance(fn, SimpleFunction) else fn.absolute()


def _staircase_value(value: Fraction, level: int) -> Fraction:
    """Nonnegative value rounded down to the 2^-level grid and capped at level."""
    return min(Fraction(level), floor_to_grid(value, level))


def _measure_cells(
    fn: PiecewiseLinear, measure: Measure
) -> Iterator[tuple[Fraction, Fraction, Fraction, Fraction, Fraction]]:
    """Cells of the merged function/measure grid: (u, w, slope, intercept, density)."""
    if not isinstance(measure, IntervalMeasure):
        raise SpaceMismatchError("piecewise-linear integrands need an interval measure")
    grid = sorted(set(fn.breakpoints) | set(measure.breakpoints))
    refined = fn.refined(grid)
    densities = dict(
        (lo, d) for lo, _, d in measure.density_cells()
    )
    current = None
    for u, w, a, b in refined.cells():
        if u in densities:
            current = densities[u]
        yield u, w, a, b, current


def integrate_nonneg(fn: Integrand, measure: Measure) -> Fraction:
    """Exact limit integral of a nonnegative integrand (closed form)."""
    check_integrand_measure(fn, measure)
    if isinstance(fn, SimpleFunction):
        _require_scalar_integrand(fn)
        if any(v < 0 for v, _ in fn.canonical().terms):
            raise NegativeIntegrandError("simple integrand takes negative values")
        return integrate_simple(fn, measure)
    if not fn.is_nonnegative():
        raise NegativeIntegrandError("integrand takes negative values")
    total = ZERO
    for u, w, a, b, d in _measure_cells(fn, measure):
        if d != 0:
            total += d * (a * (w * w - u * u) / 2 + b * (w - u))
    return total


class DyadicApproximation:
    """The staircase sequence of one nonnegative integrand.

    `value_at(n, x)` and `integral(n, m)` work at any level without
    materializing anything; `level(n)` and `increment(n)` build the level-n
    simple function and the difference to level n-1 for desk-scale levels.
    """

    def __init__(self, target: Integrand):
        self.target = target
        if isinstance(target, SimpleFunction):
            _require_scalar_integrand(target)
            self._terms = target.canonical().terms
            if any(v < 0 for v, _ in self._terms):
                raise NegativeIntegrandError("simple integrand takes negative values")
            self._bound = max(v for v, _ in self._terms)
        else:
            if not target.is_nonnegative():
                raise NegativeIntegrandError("integrand takes negative values")
            self._terms = None
            self._bound = target.upper_bound()
        self._tables: list = []  # (measure, _StaircaseTable) pairs

    @property
    def space(self):
        return self.target.space

    @property
    def upper_bound(self) -> Fraction:
        """A bound >= sup of the target (the sup itself may be unattained)."""
        return self._bound

    @property
    def cap_level(self) -> int:
        """Smallest level from which the staircase cap is inactive."""
        return max(0, math.ceil(self._bound))

    def termination_level(self) -> Optional[int]:
        """Level from which the staircase equals the target, if any.

        Finite exactly when the target is piecewise constant with values on
        a dyadic grid; None otherwise (the sequence then only converges).
        """
        if self._terms is not None:
            values = [v for v, _ in self._terms]
        else:
            if any(a != 0 for _, _, a, _ in self.target.cells()):
                return None
            values = [b for _, _, _, b in self.target.cells()]
        level = 0
        for v in values:
            if v == 0:
                continue
            grid = power_of_two_level(v)
            if grid is None:
                return None
            level = max(level, grid, math.ceil(v))
        return level

    def value_at(self, level: int, point) -> Fraction:
        """Evaluate the level-n staircase at a point, matching `level(n)` exactly."""
        if level < 0:
            raise ValueError("level must be >= 0")
        value = self.target.evaluate(point)
        if level == 0:
            return ZERO
        if (
            self._terms is None
            and value > 0
            and value <= level
            and self.target.slope_at(point) < 0
            and is_on_grid(value, level)
        ):
            # Decreasing through a grid value exactly: the half-open level
            # sets put this point in the cell just below.
            return value - Fraction(1, 1 << level)
        return _staircase_value(value, level)

    def _pwl_sweep(self, level: int, lower_level: Optional[int]) -> list:
        """Cells (u, w, value) of the level-n staircase, or of the increment
        from `lower_level` when given.  Crossing points of every grid value
        up to the cap are cell boundaries, so each open cell maps into one
        grid step and the midpoint determines the cell value."""
        scale = 1 << level
        cap_index = level * scale
        cells = []
        for u, w, a, b in self.target.cells():
            if a == 0:
                value = _staircase_value(b, level)
                if lower_level is not None:
                    value -= _staircase_value(b, lower_level)
                cells.append((u, w, value))
                continue
            y_u, y_w = a * u + b, a * w + b
            lo, hi = (y_u, y_w) if y_u <= y_w else (y_w, y_u)
            k_min = max(1, (lo.numerator * scale) // lo.denominator + 1)
            k_max = min(cap_index, -((-hi.numerator * scale) // hi.denominator) - 1)
            if k_max - k_min > _MATERIALIZE_CELL_LIMIT:
                raise ValueError(
                    f"level {level} would materialize about {k_max - k_min} cells; "
                    "use value_at/integral instead"
                )
            cuts = [u]
            for k in range(k_min, k_max + 1):
                x = (Fraction(k, scale) - b) / a
                if u < x < w:
                    cuts.append(x)
            cuts.append(w)
            cuts.sort()
            for p, q in zip(cuts, cuts[1:]):
                if p == q:
                    continue
                mid_value = a * (p + q) / 2 + b
                value = _staircase_value(mid_value, level)
                if lower_level is not None:
                    value -= _staircase_value(mid_value, lower_level)
                cells.append((p, q, value))
        return cells

    def _from_cells(self, cells) -> SimpleFunction:
        groups: dict = {}
        for u, w, value in cells:
            groups.setdefault(value, []).append((u, w))
        terms = [
            (value, IntervalSet(groups[value])) for value in sorted(groups)
        ]
        return SimpleFunction._trusted(UNIT_INTERVAL, terms, None)

    def level(self, level: int) -> SimpleFunction:
        """The level-n staircase as a simple function."""
        if level < 0:
            raise ValueError("level must be >= 0")
        if self._terms is not None:
            terms = [(_staircase_value(v, level), s) for v, s in self._terms]
            return SimpleFunction._trusted(self.space, terms, None)
        return self._from_cells(self._pwl_sweep(level, None))

    def increment(self, level: int) -> SimpleFunction:
        """level(n) - level(n-1), built in a single sweep; nonnegative."""
        if level < 1:
            raise ValueError("increments start at level 1")
        if self._terms is not None:
            terms = [
                (_staircase_value(v, level) - _staircase_value(v, level - 1), s)
                for v, s in self._terms
            ]
            return SimpleFunction._trusted(self.space, terms, None)
        # Level-(n-1) discontinuities sit on the level-n crossing grid, so
        # one sweep at level n refines both staircases.
        return self._from_cells(self._pwl_sweep(level, level - 1))

    def integral(self, level: int, measure: Measure) -> Fraction:
        """Integral of the level-n staircase, closed form, any level."""
        if level < 0:
            raise ValueError("level must be >= 0")
        for known, table in self._tables:
            if known is measure:
                return table.at(level)
        for known, table in self._tables:
            if known == measure:
                return table.at(level)
        check_integrand_measure(self.target, measure)
        table = _StaircaseTable(self._staircase_entries(measure))
        self._tables.append((measure, table))
        return table.at(level)

    def _staircase_entries(self, measure: Measure) -> dict:
        """{y: [e, c]} such that the level-n staircase integral is
        4^-n * sum(e * k * 2^n - c * k(k+1)/2), with k = min(n*2^n, floor(2^n y)).

        A value y held on mass m contributes m * k / 2^n: e = m, c = 0.  An
        affine cell of slope a and density d contributes d/a times the
        difference of F(y) = k*2^n*y - k(k+1)/2, the antiderivative of the
        scaled staircase t -> min(n*2^n, floor(t)) at t = 2^n*y, between its
        endpoint values, so each endpoint adds +-(d/a * y, d/a).
        """
        entries: dict = {}

        def add(y: Fraction, e: Fraction, c: Fraction = ZERO) -> None:
            entry = entries.setdefault(y, [ZERO, ZERO])
            entry[0] += e
            entry[1] += c

        if self._terms is not None:
            for v, part in self._terms:
                if v != 0:
                    add(v, measure.measure_of(part))
            return entries
        for u, w, a, b, d in _measure_cells(self.target, measure):
            if d == 0:
                continue
            if a == 0:
                add(b, d * (w - u))
                continue
            ratio = d / a
            y_u, y_w = a * u + b, a * w + b
            add(y_w, ratio * y_w, ratio)
            add(y_u, -ratio * y_u, -ratio)
        return entries


class _StaircaseTable:
    """Staircase integrals of one approximation against one measure, by level.

    The level-independent coefficients are brought to one common integer
    denominator L once; level n is then an integer numerator over L * 4^n,
    turned into a single `Fraction` and kept.  Missing levels are filled
    in one sweep up to the level asked for.
    """

    def __init__(self, entries: dict):
        rows = [
            (y, e, c)
            for y, (e, c) in entries.items()
            if y != 0 and (e != 0 or c != 0)
        ]
        self._denominator = math.lcm(
            *(e.denominator for _, e, _ in rows), *(c.denominator for _, _, c in rows)
        )
        scale = self._denominator
        self._rows = tuple(
            (
                y.numerator,
                y.denominator,
                e.numerator * (scale // e.denominator),
                c.numerator * (scale // c.denominator),
            )
            for y, e, c in rows
        )
        self._values: list[Fraction] = []

    def at(self, level: int) -> Fraction:
        values = self._values
        while len(values) <= level:
            values.append(self._level(len(values)))
        return values[level]

    def _level(self, n: int) -> Fraction:
        cap = n << n
        linear = quadratic = 0
        for p, q, e, c in self._rows:
            k = min(cap, (p << n) // q)
            linear += e * k
            quadratic += c * (k * (k + 1) >> 1)
        return Fraction((linear << n) - quadratic, self._denominator << (2 * n))


def integrate_nonneg_at_level(
    fn: Integrand, measure: Measure, level: int
) -> tuple[Fraction, Optional[Fraction]]:
    """(integral of the level-n staircase, certified error bound).

    The bound 2^-n * m(space) covers `exact - value` whenever the cap is
    inactive (n >= sup f); below that level it is None.
    """
    approx = DyadicApproximation(fn)
    value = approx.integral(level, measure)
    if level >= approx.cap_level:
        bound = Fraction(1, 1 << level) * measure.total_mass
    else:
        bound = None
    return value, bound


def _classify(pos_finite: bool, neg_finite: bool) -> IntegrabilityClass:
    if pos_finite and neg_finite:
        return IntegrabilityClass.INTEGRABLE
    if neg_finite:
        return IntegrabilityClass.QUASI_INTEGRABLE_PLUS
    if pos_finite:
        return IntegrabilityClass.QUASI_INTEGRABLE_MINUS
    return IntegrabilityClass.NOT_QUASI_INTEGRABLE


@dataclass(frozen=True)
class IntegralResult:
    """Outcome of the signed integral: class, value and the two part integrals."""

    classification: IntegrabilityClass
    value: Optional[Fraction]
    positive_part: Fraction
    negative_part: Fraction


def _result_from_parts(pos_value: Fraction, neg_value: Fraction) -> IntegralResult:
    """The signed integral from the integrals of the two parts."""
    classification = _classify(
        isinstance(pos_value, Fraction), isinstance(neg_value, Fraction)
    )
    value = None
    if classification is IntegrabilityClass.INTEGRABLE:
        value = pos_value - neg_value
    return IntegralResult(classification, value, pos_value, neg_value)


def lebesgue_integral(fn: Integrand, measure: Measure) -> IntegralResult:
    """Signed integral via the positive/negative decomposition."""
    positive, negative = pos_neg_parts(fn)
    return _result_from_parts(
        integrate_nonneg(positive, measure), integrate_nonneg(negative, measure)
    )


def integrate_over(
    region: MeasurableSet, fn: Integrand, measure: Measure
) -> Fraction:
    """Integral of 1_region * f; additive over disjoint regions."""
    _require_scalar_integrand(fn)
    if isinstance(fn, SimpleFunction):
        if region.space != fn.space:
            raise SpaceMismatchError("region belongs to another space")
        restricted = SimpleFunction(
            fn.space, [(v, s.intersection(region)) for v, s in fn.terms], fn.dim
        )
    else:
        if not isinstance(region, IntervalSet):
            raise SpaceMismatchError("region belongs to another space")
        restricted = fn.restrict(region)
    return lebesgue_integral(restricted, measure).value
