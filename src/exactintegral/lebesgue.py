"""The three-stage integral, exact at every stage.

Stage one integrates simple functions cell by cell, reading the masses
of all the cells of their cell table in one batch from the measure.
Stage two extends to nonnegative integrands as the limit of a fixed
nondecreasing staircase sequence: level n rounds the integrand down to
the grid {k/2^n} and caps it at n.  Stage three is the signed integral
∫f+ dm − ∫f− dm.  Supported integrands are simple functions (either
space kind) and piecewise-linear functions on [0, 1).

No stage builds a part function.  Every integrand is lowered once to
sign-constant spatial cells (part, slope, intercept, ends): a simple term
with a nonzero value on a nonempty set is a slope-0 cell on that set
(the function is zero off its cells), and a piecewise-linear piece is a
cell on its half-open interval, split at a root inside it, zero pieces
dropped.  A sloped cell is one interval, and `ends` holds its values at
the two ends, computed once; a slope-0 cell of value v has ends (v, v).
The positive cells of f are the cells of f+, and the negative ones,
negated, are the cells of f−.

A nonnegative integrand f enters stage two only through the distribution
m∘f⁻¹ of its values: the limit is the mean of that distribution, and each
staircase level is `∫ s_n(f) dm = ∫ s_n(y) d(m∘f⁻¹)(y)`.  For both
integrand classes the distribution is finite and is read as integer rows
(p, q, e, c, L), each over its own denominator L.  A value y = p/q held
on a set (a slope-0 cell) is an atom: its row is (mass, 0) over the
denominator of the one batch read that gives every atom mass.  A simple
integrand's atoms are the cells of its cell table, with the integer
pairs the cells keep as their values (p, q), which may be unreduced.
A sloped cell spreads its mass over its values with the value density
r = d/|a| of each density cell d it crosses; each end of such a uniform
piece adds +-(r*y, r), and one sweep of the sloped cells along the
density grid merges the two ends that meet at a density breakpoint into
one row, over the denominator of its r-step times q.  The level-n
staircase integral is 4^-n * sum((e*k*2^n - c*k(k+1)/2) / L) with
k = min(n*2^n, floor(2^n*y)) (an atom contributes mass * s_n(y), a
uniform piece an arithmetic series), and the limit is
sum((2*e*p*q - c*p^2) / (2*q^2*L)).
Both sums go through `rationals.exact_sum`, which adds the terms per
denominator and then pairwise, so no row is scaled to a denominator
common to all rows, and each makes one `Fraction`.  So stage-two
convergence is checkable exactly at any level without materializing the
staircase, and neither the integral nor the staircase branches on the
integrand class.

The signed integral, `integrate_over` (the cells intersected with the
region) and the L1 norm read one distribution of the signed cells and
split it at zero: no cell changes sign, so no row does either, and the
rows at positive values give ∫f+, those at negative values −∫f−.

`DyadicApproximation` keeps the cells of one nonnegative integrand, and
`DyadicApproximation.parts(f)` builds the approximations of f+ and f−
from the signed cells of f.  On first use against a measure the two
read one value distribution of the signed cells, split it at zero (a row
(p, q, e, c, L) of f at a value below zero is the row (-p, q, e, -c, L)
of f− at the mirrored value), and each keeps its rows with their limit
in one table; level n is then one exact sum of
integer terms over the rows' denominators, and each level costs one
`Fraction`, made once and kept.
Levels are kept sparsely, by level: asking for level n computes level n
alone, so a caller that reads levels 0 and d pays for two levels, not for
d + 1.  From the termination level of a terminating staircase on, every
level integral is the limit itself, so no level past it is ever computed.

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
from fractions import Fraction
from typing import Optional, Union

from .piecewise import PiecewiseLinear
from .rationals import (
    ZERO,
    exact_sum,
    floor_to_grid,
    is_on_grid,
    power_of_two_level,
)
from .simple import SimpleFunction
from .spaces import (
    IntervalSet,
    Measure,
    MeasurableSet,
    OutsideDomainError,
    SpaceMismatchError,
    space_of,
)

__all__ = [
    "NegativeIntegrandError",
    "Integrand",
    "IntegralResult",
    "DyadicApproximation",
    "integrate_nonneg",
    "lebesgue_integral",
    "integrate_over",
]

Integrand = Union[SimpleFunction, PiecewiseLinear]

# Finite measures and bounded integrands make every integrand here
# integrable; the reports still state the class.
INTEGRAL_CLASS = "integrable"

# Materializing a staircase with more cells than this is refused; the lazy
# value/integral accessors cover the deep levels.
_MATERIALIZE_CELL_LIMIT = 1 << 22


class NegativeIntegrandError(ValueError):
    """A nonnegative integrand was required."""


def check_integrand_measure(fn: Integrand, measure: Measure) -> None:
    if fn.space != space_of(measure):
        raise SpaceMismatchError("integrand and measure live on different spaces")


def _staircase_value(value: Fraction, level: int) -> Fraction:
    """Nonnegative value rounded down to the 2^-level grid and capped at level."""
    return min(Fraction(level), floor_to_grid(value, level))


def _signed_cells(fn: Integrand) -> list:
    """Sign-constant spatial cells (part, slope, intercept, ends) of a scalar
    integrand, in increasing order for a piecewise-linear one.

    A simple term with a nonzero value v on a nonempty set is a slope-0 cell
    on that set with ends (v, v); a piecewise-linear piece is a cell on its
    half-open interval with its end values, split at a root inside it (the
    ends have strictly opposite signs), and a zero piece is dropped.
    """
    if isinstance(fn, SimpleFunction):
        if fn.is_vector:
            raise ValueError("a scalar integrand is required")
        return [(part, ZERO, v, (v, v)) for v, part in fn.terms if v and not part.is_empty]
    cells = []
    for u, w, a, b in fn.cells():
        if not a:
            if b:
                cells.append((IntervalSet._canonical(((u, w),)), a, b, (b, b)))
            continue
        y_u, y_w = a * u + b, a * w + b
        if y_u.numerator * y_w.numerator < 0:
            root = -b / a
            cells.append((IntervalSet._canonical(((u, root),)), a, b, (y_u, ZERO)))
            u, y_u = root, ZERO
        cells.append((IntervalSet._canonical(((u, w),)), a, b, (y_u, y_w)))
    return cells


def _split_at_zero(cells: list) -> tuple[list, list]:
    """(cells of f+, cells of f−) from the signed cells of f, a negative cell
    (part, a, b, (y, z)) becoming (part, -a, -b, (-y, -z)).  No cell has a
    root inside, so one of its ends is nonzero and has the cell's sign."""
    positive, negative = [], []
    for part, a, b, (y_u, y_w) in cells:
        if y_u.numerator > 0 or y_w.numerator > 0:
            positive.append((part, a, b, (y_u, y_w)))
        else:
            negative.append((part, -a, -b, (-y_u, -y_w)))
    return positive, negative


def _nonneg_cells(fn: Integrand) -> list:
    positive, negative = _split_at_zero(_signed_cells(fn))
    if negative:
        kind = "simple integrand" if isinstance(fn, SimpleFunction) else "integrand"
        raise NegativeIntegrandError(f"{kind} takes negative values")
    return positive


def _upper_bound(cells: list) -> Fraction:
    """The largest closure value of nonnegative cells, the largest of their
    ends: >= their sup, which may be unattained."""
    return max((y for *_, ends in cells for y in ends), default=ZERO)


def _termination_level(cells: list) -> Optional[int]:
    """First level whose staircase equals the cells' function, or None."""
    if any(a != 0 for _, a, _, _ in cells):
        return None
    level = 0
    for _, _, v, _ in cells:
        grid = power_of_two_level(v)
        if grid is None:
            return None
        level = max(level, grid, math.ceil(v))
    return level


def _value_distribution(cells: list, measure: Measure) -> list:
    """The distribution of the cells' values under the measure, as integer
    rows (p, q, e, c, L), each over its own denominator L: the coefficients
    e/L and c/L of `_StaircaseTable` at the value y = p/q.

    A slope-0 cell of value y on a set of mass m is an atom, the row
    (m, 0) over the denominator of the batch read that gives all atom
    masses.  A sloped cell y = a*x + b under density d spreads mass over
    its values with density r = d/|a|, whose ends add +-(r*y, r); where the
    density steps from d to d' at x, the two ends meeting there make one
    row ((d - d')/a * y, (d - d')/a) at y = a*x + b, over the denominator
    of (d - d')/a times q.  The sloped cells are swept against the density
    grid in one pass.  Null masses contribute to no integral and are left
    out, and without a flat cell no mass is read.
    """
    flat = [(b, part) for part, a, b, _ in cells if not a]
    sloped = [cell for cell in cells if cell[1]]
    rows = []
    if flat:  # a piecewise-linear integrand often has no flat cell to read
        table = space_of(measure)._tabulate([part for _, part in flat], [*range(len(flat)), -1])
        numerators, denominator = measure._masses(table)
        rows = [
            (y.numerator, y.denominator, n, 0, denominator)
            for (y, _), n in zip(flat, numerators)
            if n
        ]
    return rows + _ramps(sloped, measure) if sloped else rows


def _ramps(sloped: list, measure: Measure) -> list:
    """Integer rows (p, q, e, c, L) of sloped cells, which come in
    increasing order, from one sweep along the measure's merged density
    grid."""
    grid = measure._merged[0]
    _, _, densities, _, density_den = measure._table
    rows = []
    k = 0
    for part, a, b, (y_u, y_w) in sloped:
        ((u, w),) = part.intervals
        while grid[k + 1] <= u:
            k += 1
        steps = [(y_u, -densities[k])]
        while grid[k + 1] < w:
            k += 1
            steps.append((a * grid[k] + b, densities[k - 1] - densities[k]))
        steps.append((y_w, densities[k]))
        for y, step in steps:
            if step:
                c = Fraction(step * a.denominator, density_den * a.numerator)
                p, q = y.numerator, y.denominator
                rows.append((p, q, c.numerator * p, c.numerator * q, c.denominator * q))
    return rows


def _mean(rows: list) -> Fraction:
    """The mean of a value distribution: the sum of (e*y - c*y^2/2) / L over
    its rows, the limit of the level-n staircase integrals, as one
    `Fraction`.  Twice a row's term is 2*e*p/(q*L) for an atom and
    (2*e*p*q - c*p^2)/(q^2*L) otherwise; `exact_sum` adds them."""
    total, denominator = exact_sum(
        (2 * e * p * q - c * p * p, q * q * L) if c else (2 * e * p, q * L)
        for p, q, e, c, L in rows
    )
    return Fraction(total, 2 * denominator)


def _atoms(fn: SimpleFunction, measure: Measure, nonneg: bool) -> list:
    """The value distribution of a scalar simple function: one atom row
    (p, q, mass, 0, L) per cell of nonzero value and mass, p/q the cell's
    value as the integer pair it keeps, from one mass read of its cell
    table.  With `nonneg`, a negative value on a cell that holds a point is
    refused."""
    if fn.is_vector:
        raise ValueError("a scalar integrand is required")
    check_integrand_measure(fn, measure)
    table, values = fn._table, fn._values
    if nonneg and not {k for k, (p, _) in enumerate(values) if p < 0}.isdisjoint(table.owners):
        raise NegativeIntegrandError("simple integrand takes negative values")
    numerators, denominator = measure._masses(table)
    return [(p, q, n, 0, denominator) for (p, q), n in zip(values, numerators) if p and n]


def integrate_nonneg(fn: Integrand, measure: Measure) -> Fraction:
    """Exact limit integral of a nonnegative integrand: the mean of its values."""
    check_integrand_measure(fn, measure)
    if isinstance(fn, SimpleFunction):
        return _mean(_atoms(fn, measure, True))
    return _mean(_value_distribution(_nonneg_cells(fn), measure))


class DyadicApproximation:
    """The staircase sequence of one nonnegative integrand.

    `value_at(n, x)` and `integral(n, m)` work at any level without
    materializing anything; `level(n)` and `increment(n)` build the level-n
    simple function and the difference to level n-1 for desk-scale levels.
    `DyadicApproximation.parts(f)` gives the sequences of f+ and f− of a
    signed f.
    """

    def __init__(self, target: Integrand):
        cells = _nonneg_cells(target)
        self._start(target, cells, 1, (cells, []))

    @classmethod
    def parts(cls, fn: Integrand) -> tuple["DyadicApproximation", "DyadicApproximation"]:
        """The approximations of f+ = max(0, f) and f− = max(0, −f), built
        from the signed cells of f without building either part function.
        Both read one value distribution of the signed cells per measure."""
        signed = _signed_cells(fn)
        shared = (signed, [])
        pair = cls.__new__(cls), cls.__new__(cls)
        for approximation, cells, sign in zip(pair, _split_at_zero(signed), (1, -1)):
            approximation._start(fn, cells, sign, shared)
        return pair

    def _start(self, target: Integrand, cells: list, sign: int, shared: tuple) -> None:
        self.space = target.space
        self._cells = cells
        self._bound = _upper_bound(cells)
        self._termination = _termination_level(cells)
        # The part this approximation follows (1: f+, -1: f−), and what the
        # parts of one target share: its signed cells and the
        # (measure, {sign: _StaircaseTable}) pairs read so far.
        self._target, self._sign, (self._signed, self._tables) = target, sign, shared

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
        return self._termination

    def value_at(self, level: int, point) -> Fraction:
        """Evaluate the level-n staircase at a point, matching `level(n)` exactly."""
        if level < 0:
            raise ValueError("level must be >= 0")
        if not self.space.contains(point):
            raise OutsideDomainError(f"point {point!r} outside the space")
        value = slope = ZERO
        for part, a, b, _ in self._cells:
            if part.contains(point):
                value, slope = a * point + b, a
                break
        if level == 0:
            return ZERO
        if self._termination is not None and level >= self._termination:
            # From the termination level on the staircase is the target.
            return value
        if 0 < value <= level and is_on_grid(value, level) and slope < 0:
            # Decreasing through a grid value exactly: the half-open level
            # sets put this point in the cell just below.
            return value - Fraction(1, 1 << level)
        return _staircase_value(value, level)

    def _sweep(self, level: int, lower_level: Optional[int]) -> list:
        """Cells (part, value) of the level-n staircase, or of the increment
        from `lower_level` when given.  Crossing points of every grid value
        up to the cap are cell boundaries, so each open cell maps into one
        grid step and the midpoint determines the cell value."""
        scale = 1 << level
        cap_index = level * scale
        cells = []
        for part, a, b, ends in self._cells:
            if a == 0:
                value = _staircase_value(b, level)
                if lower_level is not None:
                    value -= _staircase_value(b, lower_level)
                cells.append((part, value))
                continue
            ((u, w),) = part.intervals
            lo, hi = sorted(ends)
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
                cells.append((IntervalSet._canonical(((p, q),)), value))
        return cells

    def _from_cells(self, cells) -> SimpleFunction:
        # One cell per distinct value; the points of no cell join the zero cell.
        table = self.space._tabulate([part for part, _ in cells], [*range(len(cells)), -1])
        values = [(value.numerator, value.denominator) for _, value in cells]
        return SimpleFunction._grouped(self.space, table, values, None)

    def level(self, level: int) -> SimpleFunction:
        """The level-n staircase as a simple function."""
        if level < 0:
            raise ValueError("level must be >= 0")
        return self._from_cells(self._sweep(level, None))

    def increment(self, level: int) -> SimpleFunction:
        """level(n) - level(n-1), built in a single sweep; nonnegative."""
        if level < 1:
            raise ValueError("increments start at level 1")
        # Level-(n-1) discontinuities sit on the level-n crossing grid, so
        # one sweep at level n refines both staircases.
        return self._from_cells(self._sweep(level, level - 1))

    def integral(self, level: int, measure: Measure) -> Fraction:
        """Integral of the level-n staircase, closed form, any level."""
        if level < 0:
            raise ValueError("level must be >= 0")
        table = self._table(measure)
        if self._termination is not None and level >= self._termination:
            return table.limit
        return table.at(level)

    def limit(self, measure: Measure) -> Fraction:
        """The limit of the staircase integrals: the integral of the target."""
        return self._table(measure).limit

    def _table(self, measure: Measure) -> "_StaircaseTable":
        for known, tables in self._tables:
            if known is measure:
                return tables[self._sign]
        for known, tables in self._tables:
            if known == measure:
                return tables[self._sign]
        check_integrand_measure(self, measure)
        # One read of the signed distribution, split at zero: a row of f at
        # a value y < 0 is the row (-p, q, e, -c, L) of f− at -y.  A simple
        # target reads its atoms off its own cell table.
        if isinstance(self._target, SimpleFunction):
            rows = _atoms(self._target, measure, False)
        else:
            rows = _value_distribution(self._signed, measure)
        tables = {
            1: _StaircaseTable([row for row in rows if row[0] > 0]),
            -1: _StaircaseTable([(-p, q, e, -c, L) for p, q, e, c, L in rows if p < 0]),
        }
        self._tables.append((measure, tables))
        return tables[self._sign]


class _StaircaseTable:
    """Staircase integrals of one approximation against one measure, by level,
    and their limit.

    It keeps the integer rows (p, q, e, c, L) of `_value_distribution`,
    each over its own denominator L: level n is 4^-n times the sum of
    (e*k*2^n - c*k(k+1)/2) / L, k = min(n*2^n, floor(2^n*p/q)), over the
    rows, one `exact_sum` turned into a single `Fraction` and kept by
    level, so each level asked for is computed alone.  The limit is the
    mean of the same rows.
    """

    def __init__(self, rows: list):
        self._rows = rows
        self.limit = _mean(rows)
        self._values: dict[int, Fraction] = {}

    def at(self, level: int) -> Fraction:
        value = self._values.get(level)
        if value is None:
            value = self._values[level] = self._level(level)
        return value

    def _level(self, n: int) -> Fraction:
        cap = n << n
        terms = []
        for p, q, e, c, L in self._rows:
            k = min(cap, (p << n) // q)
            terms.append(((e * k << n) - c * (k * (k + 1) >> 1), L))
        total, denominator = exact_sum(terms)
        return Fraction(total, denominator << (2 * n))


@dataclass(frozen=True)
class IntegralResult:
    """Outcome of the signed integral: the value and the two part integrals."""

    value: Fraction
    positive_part: Fraction
    negative_part: Fraction


def _signed_integral(rows: list) -> IntegralResult:
    """∫f+ and ∫f− from one value distribution of the signed cells of f,
    split at zero: no cell changes sign, so no row does either."""
    pos_value = _mean([row for row in rows if row[0] > 0])
    neg_value = -_mean([row for row in rows if row[0] < 0])
    return IntegralResult(pos_value - neg_value, pos_value, neg_value)


def lebesgue_integral(fn: Integrand, measure: Measure) -> IntegralResult:
    """Signed integral ∫f+ dm − ∫f− dm, with both part integrals, from one
    batch read of the masses whatever the integrand class."""
    if isinstance(fn, SimpleFunction):
        return _signed_integral(_atoms(fn, measure, False))
    cells = _signed_cells(fn)
    check_integrand_measure(fn, measure)
    return _signed_integral(_value_distribution(cells, measure))


def integrate_over(
    region: MeasurableSet, fn: Integrand, measure: Measure
) -> Fraction:
    """Integral of 1_region * f; additive over disjoint regions."""
    cells = _signed_cells(fn)
    if region.space != fn.space:
        raise SpaceMismatchError("region belongs to another space")
    check_integrand_measure(fn, measure)
    restricted = []
    for part, a, b, ends in cells:
        part = part.intersection(region)
        if not a:
            restricted.append((part, a, b, ends))
            continue
        # A sloped cell is one interval, so each piece left is a cell.
        restricted += [
            (IntervalSet._canonical(((u, w),)), a, b, (a * u + b, a * w + b))
            for u, w in part.intervals
        ]
    return _signed_integral(_value_distribution(restricted, measure)).value
