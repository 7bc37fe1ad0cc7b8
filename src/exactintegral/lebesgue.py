"""The three-stage integral, exact at every stage.

Stage one integrates simple functions cell by cell, reading the masses
of all the cells of their cell table in one batch from the measure.
Stage two extends to nonnegative integrands as the limit of a fixed
nondecreasing staircase sequence: level n rounds the integrand down to
the grid {k/2^n} and caps it at n.  Stage three is the signed integral
∫f+ dm − ∫f− dm.  Supported integrands are simple functions (either
space kind) and piecewise-linear functions on [0, 1).

No stage builds a part function, and no stage builds a set.  Every
integrand is lowered once to (table, values, sloped): a cell table
(`spaces.CellTable`) of its constant pieces with one integer pair (p, q)
per cell, the value p/q, and a list of sloped pieces (u, w, a, b, ends).
A simple function is its own table and values, the pairs as it keeps
them (possibly unreduced), with no sloped piece.  A piecewise-linear
function gets a table over its breakpoints with one cell per nonzero flat
piece; each sloped piece a*x + b on [u, w) is split at a root inside it,
keeps its two end values `ends`, computed once, and lies, in increasing
order, where the table has no cell.  The function is zero on the points
of no cell and no sloped piece.  No cell and no sloped piece changes
sign, so f+ keeps the positive cell values and sloped pieces of f, and f−
the negative ones, negated.

A nonnegative integrand f enters stage two only through the distribution
m∘f⁻¹ of its values: the limit is the mean of that distribution, and each
staircase level is `∫ s_n(f) dm = ∫ s_n(y) d(m∘f⁻¹)(y)`.  For both
integrand classes the distribution is finite and is read as integer rows
(p, q, e, c, L), each over its own denominator L.  A cell of nonzero
value y = p/q is an atom: its row is (mass, 0) over the denominator of
the one batch read of the table that gives every cell mass (no mass is
read when no cell value is nonzero).  A sloped piece spreads its mass
over its values with the value density r = d/|a| of each density cell d
it crosses; each end of such a uniform piece adds +-(r*y, r), and one
sweep of the sloped pieces along the density grid merges the two ends
that meet at a density breakpoint into one row, over the denominator of
its r-step times q.  The level-n staircase integral is
4^-n * sum((e*k*2^n - c*k(k+1)/2) / L) with k = min(n*2^n, floor(2^n*y))
(an atom contributes mass * s_n(y), a uniform piece an arithmetic
series), and the limit is sum((2*e*p*q - c*p^2) / (2*q^2*L)).
Both sums go through `rationals.exact_sum`, which adds the terms per
denominator and then pairwise, so no row is scaled to a denominator
common to all rows, and each makes one `Fraction`.  So stage-two
convergence is checkable exactly at any level without materializing the
staircase, and neither the integral nor the staircase branches on the
integrand class.

The signed integral and the L1 norm read one distribution of f and split
it at zero: the rows at positive values give ∫f+, those at negative
values −∫f−.  `integrate_over` reads the same distribution of f on the
region: the table is refined by the region's own table, a cell inside
the region keeping its value and every other cell zero, and only the
sloped pieces are intersected with the region's intervals.

`DyadicApproximation` keeps the lowered form of one nonnegative
integrand, and `DyadicApproximation.parts(f)` builds the approximations
of f+ and f− from the lowered form of f.  On first use against a measure
the two read one value distribution of f, split it at zero (a row
(p, q, e, c, L) of f at a value below zero is the row (-p, q, e, -c, L)
of f− at the mirrored value), and each keeps its rows with their limit
in one table; level n is then one exact sum of
integer terms over the rows' denominators, and each level costs one
`Fraction`, made once and kept.
`value_at` finds the cell of its point in the table (or bisects the
sloped pieces), and `level`/`increment` round the cell values, cut each
sloped piece at its grid crossings in one walk of the table's pieces,
and group the rounded cells into a canonical simple function.
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
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .piecewise import PiecewiseLinear
from .rationals import (
    ONE,
    ZERO,
    exact_sum,
    floor_to_grid,
    is_on_grid,
    power_of_two_level,
)
from .simple import SimpleFunction
from .spaces import (
    CellTable,
    Measure,
    MeasurableSet,
    OutsideDomainError,
    SpaceMismatchError,
    _lower_end,
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


def _lowered(fn: Integrand) -> tuple:
    """(table, values, sloped): a scalar integrand as a cell table of its
    flat pieces with one integer pair (p, q) per cell, the value p/q, and
    its sloped pieces (u, w, a, b, ends), which lie in increasing order
    where the table has no cell.

    A simple function is its own table and values, the pairs as kept, and
    has no sloped piece.  A piecewise-linear function gets a table over its
    breakpoints with one cell per nonzero flat piece; a sloped piece
    a*x + b on [u, w) whose end values have strictly opposite signs is
    split at its root, and `ends` holds a piece's values at its two ends,
    computed once.  The function is zero on the points of no cell and no
    sloped piece.
    """
    if isinstance(fn, SimpleFunction):
        if fn.is_vector:
            raise ValueError("a scalar integrand is required")
        return fn._table, fn._values, []
    owners, values, sloped = [], [], []
    for u, w, a, b in fn.cells():
        owners.append(len(values) if b and not a else -1)
        if not a:
            if b:
                values.append((b.numerator, b.denominator))
            continue
        y_u, y_w = a * u + b, a * w + b
        if y_u.numerator * y_w.numerator < 0:
            root = -b / a
            sloped.append((u, root, a, b, (y_u, ZERO)))
            u, y_u = root, ZERO
        sloped.append((u, w, a, b, (y_u, y_w)))
    return CellTable(owners, len(values), fn.breakpoints), values, sloped


def _lowered_nonneg(fn: Integrand) -> tuple:
    """The lowered form of a nonnegative integrand: a negative value on a
    cell that holds a point, or a negative sloped piece, is refused."""
    table, values, sloped = lowered = _lowered(fn)
    negative = {k for k, (p, _) in enumerate(values) if p < 0}
    if not negative.isdisjoint(table.owners) or any(
        y.numerator < 0 or z.numerator < 0 for *_, (y, z) in sloped
    ):
        kind = "simple integrand" if isinstance(fn, SimpleFunction) else "integrand"
        raise NegativeIntegrandError(f"{kind} takes negative values")
    return lowered


def _termination_level(values: list) -> Optional[int]:
    """First level whose staircase equals a piecewise-constant function
    with these nonzero values, or None."""
    level = 0
    for v in values:
        grid = power_of_two_level(v)
        if grid is None:
            return None
        level = max(level, grid, math.ceil(v))
    return level


def _value_distribution(lowered: tuple, measure: Measure) -> list:
    """The distribution of a lowered integrand's values under the measure,
    as integer rows (p, q, e, c, L), each over its own denominator L: the
    coefficients e/L and c/L of `_StaircaseTable` at the value y = p/q.

    A cell of nonzero value y and mass m is an atom, the row (m, 0) over
    the denominator of the one batch read of the table that gives every
    cell mass; without a nonzero cell value no mass is read.  The sloped
    pieces give the rows of `_ramps`.  Null masses contribute to no
    integral and are left out.
    """
    table, values, sloped = lowered
    rows = []
    if any(p for p, _ in values):  # a piecewise-linear integrand often has no flat cell
        numerators, denominator = measure._masses(table)
        rows = [(p, q, n, 0, denominator) for (p, q), n in zip(values, numerators) if p and n]
    return rows + _ramps(sloped, measure) if sloped else rows


def _ramps(sloped: list, measure: Measure) -> list:
    """Integer rows (p, q, e, c, L) of sloped pieces, which come in
    increasing order, from one sweep along the measure's merged density
    grid.  A piece y = a*x + b under density d spreads mass over its values
    with density r = d/|a|, whose ends add +-(r*y, r); where the density
    steps from d to d' at x, the two ends meeting there make one row
    ((d - d')/a * y, (d - d')/a) at y = a*x + b, over the denominator of
    (d - d')/a times q."""
    grid = measure._merged[0]
    _, _, densities, _, density_den = measure._table
    rows = []
    k = 0
    for u, w, a, b, (y_u, y_w) in sloped:
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


def integrate_nonneg(fn: Integrand, measure: Measure) -> Fraction:
    """Exact limit integral of a nonnegative integrand: the mean of its values."""
    check_integrand_measure(fn, measure)
    return _mean(_value_distribution(_lowered_nonneg(fn), measure))


class DyadicApproximation:
    """The staircase sequence of one nonnegative integrand.

    `value_at(n, x)` and `integral(n, m)` work at any level without
    materializing anything; `level(n)` and `increment(n)` build the level-n
    simple function and the difference to level n-1 for desk-scale levels.
    `DyadicApproximation.parts(f)` gives the sequences of f+ and f− of a
    signed f.
    """

    def __init__(self, target: Integrand):
        lowered = _lowered_nonneg(target)
        self._start(target, lowered, 1, (lowered, []))

    @classmethod
    def parts(cls, fn: Integrand) -> tuple["DyadicApproximation", "DyadicApproximation"]:
        """The approximations of f+ = max(0, f) and f− = max(0, −f), built
        from the lowered form of f without building either part function:
        each part maps the cell values and keeps the sloped pieces of its
        sign, negated for f−.  Both read one value distribution of f per
        measure."""
        table, values, sloped = signed = _lowered(fn)
        positive = [v if v[0] > 0 else (0, 1) for v in values]
        negative = [(-p, q) if p < 0 else (0, 1) for p, q in values]
        above, below = [], []
        for u, w, a, b, (y_u, y_w) in sloped:
            # No piece has a root inside, so a nonzero end gives its sign.
            if y_u.numerator > 0 or y_w.numerator > 0:
                above.append((u, w, a, b, (y_u, y_w)))
            else:
                below.append((u, w, -a, -b, (-y_u, -y_w)))
        shared = (signed, [])
        pair = cls.__new__(cls), cls.__new__(cls)
        pair[0]._start(fn, (table, positive, above), 1, shared)
        pair[1]._start(fn, (table, negative, below), -1, shared)
        return pair

    def _start(self, target: Integrand, part: tuple, sign: int, shared: tuple) -> None:
        self.space = target.space
        table, values, sloped = self._part = part
        # The nonzero values of the cells that hold a point.
        held = [Fraction(*values[k]) for k in set(table.owners) if k >= 0 and values[k][0]]
        # A bound >= sup: the largest held value or end of a sloped piece.
        self._bound = max((*held, *(y for *_, ends in sloped for y in ends)), default=ZERO)
        self._termination = None if sloped else _termination_level(held)
        # The part this approximation follows (1: f+, -1: f−), and what the
        # parts of one target share: its lowered form and the
        # (measure, {sign: _StaircaseTable}) pairs read so far.
        self._sign, (self._signed, self._tables) = sign, shared

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
        table, values, sloped = self._part
        owner = self.space._owner_at(table, point)
        value = slope = ZERO
        if owner >= 0:
            value = Fraction(*values[owner])
        elif sloped:
            u, w, a, b, _ = sloped[max(0, bisect_right(sloped, point, key=_lower_end) - 1)]
            if u <= point < w:
                value, slope = a * point + b, a
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

    def _staircase(self, n: int, increment: bool) -> SimpleFunction:
        """The level-n staircase, or its increment over level n - 1, as a
        canonical function.  Every cell keeps its value rounded.  The
        crossing points of every grid value up to the cap cut each sloped
        piece, spliced into the table's pieces in one walk, so each open
        piece maps into one grid step and its midpoint determines its
        value."""

        def rounded(p: int, q: int) -> tuple[int, int]:
            k = min(n << n, (p << n) // q)
            if increment:
                k -= 2 * min((n - 1) << (n - 1), (p << (n - 1)) // q)
            return k, 1 << n

        table, values, sloped = self._part
        values = [rounded(p, q) for p, q in values]
        if sloped:
            scale, cuts, owners, j = 1 << n, [], [], 0
            for lo, hi, owner in zip(table.cuts, table.cuts[1:], table.owners):
                while j < len(sloped) and sloped[j][0] < hi:
                    u, w, a, b, ends = sloped[j]
                    if lo < u:
                        cuts.append(lo)
                        owners.append(owner)
                    y_lo, y_hi = sorted(ends)
                    k_min = max(1, (y_lo.numerator * scale) // y_lo.denominator + 1)
                    k_max = min(n * scale, -((-y_hi.numerator * scale) // y_hi.denominator) - 1)
                    if k_max - k_min > _MATERIALIZE_CELL_LIMIT:
                        raise ValueError(
                            f"level {n} would materialize about {k_max - k_min} cells; "
                            "use value_at/integral instead"
                        )
                    # Every crossing lies strictly inside the piece.
                    crossings = [(Fraction(k, scale) - b) / a for k in range(k_min, k_max + 1)]
                    points = [u, *(crossings if a > 0 else reversed(crossings)), w]
                    for x, y in zip(points, points[1:]):
                        cuts.append(x)
                        owners.append(len(values))
                        mid = a * (x + y) / 2 + b
                        values.append(rounded(mid.numerator, mid.denominator))
                    lo, j = w, j + 1
                if lo < hi:
                    cuts.append(lo)
                    owners.append(owner)
            table = CellTable(owners, len(values), (*cuts, ONE))
        return SimpleFunction._grouped(self.space, table, values, None)

    def level(self, level: int) -> SimpleFunction:
        """The level-n staircase as a simple function."""
        if level < 0:
            raise ValueError("level must be >= 0")
        return self._staircase(level, False)

    def increment(self, level: int) -> SimpleFunction:
        """level(n) - level(n-1), built in a single walk; nonnegative."""
        if level < 1:
            raise ValueError("increments start at level 1")
        # Level-(n-1) discontinuities sit on the level-n crossing grid, so
        # one walk at level n refines both staircases.
        return self._staircase(level, True)

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
        # a value y < 0 is the row (-p, q, e, -c, L) of f− at -y.
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
    """∫f+ and ∫f− from one value distribution of f, split at zero: no
    cell or sloped piece changes sign, so no row does either."""
    pos_value = _mean([row for row in rows if row[0] > 0])
    neg_value = -_mean([row for row in rows if row[0] < 0])
    return IntegralResult(pos_value - neg_value, pos_value, neg_value)


def lebesgue_integral(fn: Integrand, measure: Measure) -> IntegralResult:
    """Signed integral ∫f+ dm − ∫f− dm, with both part integrals, from one
    batch read of the masses whatever the integrand class."""
    lowered = _lowered(fn)
    check_integrand_measure(fn, measure)
    return _signed_integral(_value_distribution(lowered, measure))


def integrate_over(
    region: MeasurableSet, fn: Integrand, measure: Measure
) -> Fraction:
    """Integral of 1_region * f; additive over disjoint regions."""
    table, values, sloped = _lowered(fn)
    if region.space != fn.space:
        raise SpaceMismatchError("region belongs to another space")
    check_integrand_measure(fn, measure)
    # The refinement by the region's table (cell 0: the region): a cell
    # (i, 0) keeps the value of cell i, every other cell is zero.
    space = fn.space
    paired, pairs = space._paired(table, space._tabulate((region,), [0, 1]))
    values = [*values, (0, 1)]  # values[-1]: the points of no cell
    inside = [(0, 1) if j else values[i] for i, j in pairs]
    clipped = []
    for u, w, a, b, _ in sloped:  # only on [0, 1), where the region has intervals
        intervals = region.intervals
        k = max(0, bisect_right(intervals, u, key=_lower_end) - 1)
        while k < len(intervals) and intervals[k][0] < w:
            lo, hi = max(u, intervals[k][0]), min(w, intervals[k][1])
            if lo < hi:
                clipped.append((lo, hi, a, b, (a * lo + b, a * hi + b)))
            k += 1
    return _signed_integral(_value_distribution((paired, inside, clipped), measure)).value
