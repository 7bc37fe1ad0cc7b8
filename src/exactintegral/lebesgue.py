"""The three-stage integral, exact at every stage.

Stage one integrates simple functions cell by cell, reading the masses
of all the cells of their cell table in one batch from the measure.
Stage two extends to nonnegative integrands as the limit of a fixed
nondecreasing staircase sequence: level n rounds the integrand down to
the grid {k/2^n} and caps it at n.  Stage three is the signed integral
∫f+ dm − ∫f− dm.  Supported integrands are simple functions (either
space kind) and piecewise-linear functions on [0, 1).

No stage builds a part function, and no stage builds a set.  Every
integrand is lowered once to (table, values, sloped): one cell table
(`spaces.CellTable`) with one integer pair (p, q) per cell, the value
p/q, and the sloped pieces (u, w, a, b, ends) by the owner of their cell.
A simple function is its own table and values, the pairs as it keeps
them (possibly unreduced), with no sloped piece.  A piecewise-linear
function gets a table over the cells of its one root-split walk
(`PiecewiseLinear._split_cells`), which splits a sloped piece at a root
inside it: one cell per nonzero flat piece, with its value, and one cell
per sloped piece a*x + b on [u, w), holding (0, 1), whose piece keeps
its two end values `ends`, computed once; `sloped` lists those pieces in
increasing order.  The cuts u and w are `Fraction`s; the slope a, the
intercept b and the end values are reduced integer pairs (p, q) with
q > 0, so every value that is only compared, negated or put into an
integer row is read from integers, and a `Fraction` is made only where a
cut or a public value needs one.  The function is zero on the points of
no cell.  No cell changes sign, so f+ keeps the positive cell values and
sloped pieces of f, and f− the negative ones, negated pair by pair.

A nonnegative integrand f enters stage two only through the distribution
m∘f⁻¹ of its values: the limit is the mean of that distribution, and each
staircase level is `∫ s_n(f) dm = ∫ s_n(y) d(m∘f⁻¹)(y)`.  For both
integrand classes the distribution is finite and comes in two parts.  The
atoms are the one batch read of the table as it came: the cell values
(p, q), the mass numerators m and their one denominator D; no mass is read
when no cell value is nonzero, and the cells of value zero are left out
of the read when there are sloped cells.  A sloped piece spreads its mass
over its values with the value density r = d/|a| of each density cell d
it crosses; each end of such a uniform piece adds +-(r*y, r), and one
sweep of the sloped pieces along the measure's public density cells, read
as integer pairs, merges the two ends that meet at a density breakpoint
into one ramp row (p, q, e, c, L), over the denominator of its r-step
times q.  The level-n staircase integral is
4^-n * sum((e*k*2^n - c*k(k+1)/2) / L) over the rows, with
k = min(n*2^n, floor(2^n*y)), the grid index of y that `_grid_index`
computes, plus 2^-n * sum(m*k) / D over the atoms, one integer sum over
the batch's one denominator; the limit is
sum((2*e*p*q - c*p^2) / (2*q^2*L)) over the rows plus sum(p*m / q) / D.
The atoms are summed in one loop that groups p*m by q
(`rationals._add_products`, split by sign where the signed integral needs
it); a sum with ramp rows goes through `rationals.exact_sum`, and every
sum ends in its lcm-or-tree finish (`rationals._sum_groups`), shared by
the atom sums: the groups are added over their lcm while it stays short,
pairwise otherwise, so no term is scaled to a long denominator common to
all, and each sum makes one `Fraction`.  So stage-two convergence is
checkable exactly at any level without materializing the staircase, and
neither the integral nor the staircase branches on the integrand class.

The signed integral and the L1 norm read one distribution of f and split
it at zero: the atoms and ramp rows at positive values give ∫f+, those at
negative values −∫f−, and the three results are made from the two integer
pairs, one `Fraction` each.  `integrate_over` is the signed integral of
the restriction f·1_R, built from one refinement of the cell table f
keeps by the region's own table, the same path for both classes: a
simple function keeps one value per cell, a piecewise-linear function a
gapless table with one (slope, intercept) pair per cell.  A cell inside
the region keeps its value or piece and every other cell is zero; it
clips no piece itself.  The batch read of a table goes through the
measure's one-slot memo, so the signed integral of `f - g` after the
integral of `f + g`, which share their table, reads no mass again.

`DyadicApproximation` keeps the lowered form of one nonnegative
integrand.  Both of its constructors read one sign split,
`_signed_parts`, which builds the lowered forms of f+ and f− from the
lowered form of f, without building either part function; a part with no
sloped piece of its own, of a function that has some, gets the table
regrouped to its own nonzero cells, so its read walks no cut of the other
part.  `DyadicApproximation.parts(f)` starts one approximation from each
form; `DyadicApproximation(f)` starts from the f+ form, and refuses f
when its f− form has a sloped piece or a nonzero value on a cell that
holds a point.  An approximation's upper bound is the largest held
value or end, found by integer cross-products and kept as its pair, so
`cap_level` is the pair's integer ceiling.
On first use against a measure each approximation reads the value
distribution of its own part and keeps its atoms and ramp rows with their
limit in one table; level n is then one exact sum of integer terms, and
each level costs one `Fraction`, made once and kept.  `integrate_nonneg`
is the limit of its integrand's own approximation.
The two parts of a simple function keep its own cell table, so the
second part's read finds the first's in the measure's memo slot and a
compare reads the masses once.
`value_at` finds the cell of its point in the table, evaluates the
sloped piece of that cell if it has one, and rounds the integer pair
(p, q) of the value there to its grid index k (`_grid_index`);
`level`/`increment` round the cell values the same way, cut the cell of
each sloped piece at its grid crossings in one walk of the table's
pieces, and group the rounded cells into a canonical simple function.
Levels are kept sparsely, by level: asking for level n computes level n
alone, so a caller that reads one level d, as the telescoped series
does, pays for one level, not for d + 1.  From the termination level of
a terminating staircase on, every level integral is the limit itself,
so no level past it is ever computed.

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
from functools import partial
from itertools import chain
from typing import Optional, Union

from .piecewise import PiecewiseLinear, _affine_pair
from .rationals import ONE, ZERO, _add_products, _sum_groups, exact_sum
from .simple import SimpleFunction
from .spaces import (
    CellTable,
    Measure,
    MeasurableSet,
    SpaceMismatchError,
    _regrouped,
    _require_point,
    check_integrand_measure,
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


def _lowered(fn: Integrand) -> tuple:
    """(table, values, sloped): a scalar integrand as one cell table with
    one integer pair (p, q) per cell, the value p/q, and its sloped pieces
    (u, w, a, b, ends) by the owner of their cell, in increasing order.

    A simple function is its own table and values, the pairs as kept, and
    has no sloped piece.  A piecewise-linear function gets a table over the
    cells of `PiecewiseLinear._split_cells`, in which a sloped cell whose
    end values have strictly opposite signs is split at its root: one cell
    per nonzero flat piece, and one cell per sloped piece a*x + b on
    [u, w), holding (0, 1), whose `ends` are its values at its two ends,
    computed once.  The slope, the intercept, the ends and the flat values
    are the walk's reduced integer pairs.  The function is zero on the
    points of no cell.
    """
    if isinstance(fn, SimpleFunction):
        if fn.dim is not None:
            raise ValueError("a scalar integrand is required")
        return fn._table, fn._values, {}
    cuts, owners, values, sloped = [], [], [], {}
    for cell in fn._split_cells():
        u, _, (a, _), _, (y, _) = cell
        cuts.append(u)
        owners.append(len(values) if a or y[0] else -1)
        if a:
            sloped[len(values)] = cell
            values.append((0, 1))
        elif y[0]:
            values.append(y)
    return CellTable(owners, len(values), (*cuts, ONE)), values, sloped


def _signed_parts(fn: Integrand) -> tuple[tuple, tuple]:
    """The lowered forms of f+ = max(0, f) and f− = max(0, −f), made from
    the lowered form of f without building either part function: each part
    maps the cell values and keeps the sloped pieces of its sign, negated
    for f− pair by pair, on the table of f, or, when it has no sloped piece
    of its own but f has some, on that table regrouped to its own nonzero
    cells."""
    table, values, sloped = _lowered(fn)
    positive = [v if v[0] > 0 else (0, 1) for v in values]
    negative = [(-p, q) if p < 0 else (0, 1) for p, q in values]
    above, below = {}, {}
    for owner, piece in sloped.items():
        u, w, (an, ad), (bn, bd), ((p_u, q_u), (p_w, q_w)) = piece
        # No piece has a root inside, so a nonzero end gives its sign.
        if p_u > 0 or p_w > 0:
            above[owner] = piece
        else:
            below[owner] = (u, w, (-an, ad), (-bn, bd), ((-p_u, q_u), (-p_w, q_w)))
    forms = []
    for part_values, part_sloped in ((positive, above), (negative, below)):
        part_table = table
        if sloped and not part_sloped:
            part_table = _nonzero_cells(table, part_values)
        forms.append((part_table, part_values, part_sloped))
    return forms[0], forms[1]


def _termination_level(values: list) -> Optional[int]:
    """First level whose staircase equals a piecewise-constant function
    with these nonzero values, integer pairs (p, q) with q > 0 that may be
    unreduced, as a derived simple function keeps them; or None."""
    level = 0
    for p, q in values:
        den = q // math.gcd(p, q)
        if den & (den - 1):  # not a power of two: off every dyadic grid
            return None
        level = max(level, den.bit_length() - 1, -(-p // q))
    return level


def _grid_index(p: int, q: int, n: int) -> int:
    """The level-n grid index of the value p/q >= 0: floor(2^n*p/q), capped
    at n*2^n, so the level-n staircase takes the value k/2^n there."""
    return min(n << n, (p << n) // q)


def _value_distribution(lowered: tuple, measure: Measure) -> tuple:
    """The distribution of a lowered integrand's values under the measure,
    as (atoms, ramps).

    The atoms are the batch read of the table as it came, (values,
    numerators, denominator): the cell of value y = p/q, values[k] = (p, q),
    has mass numerators[k] / denominator.  Without a nonzero cell value no
    mass is read and the batch is empty.  With sloped pieces the read keeps
    only the cells of nonzero value: it leaves the sloped cells out, and
    with them the root cuts of split pieces, which would only lengthen its
    common denominator, and on the table of a part the flat cells of the
    other sign too (a part without sloped pieces comes with its table so
    regrouped by `parts`).  The ramps are the integer rows (p, q, e, c, L)
    of the sloped pieces (`_ramps`), each over its own denominator L: the
    coefficients e/L and c/L of `_StaircaseTable` at the value y = p/q.
    """
    table, values, sloped = lowered
    atoms = _NO_ATOMS
    if any(p for p, _ in values):  # a piecewise-linear integrand often has no flat cell
        if sloped:
            table = _nonzero_cells(table, values)
        atoms = (values, *measure._masses(table))
    return atoms, _ramps(sloped.values(), measure) if sloped else []


# The atoms of an integrand without a nonzero cell value: no mass is read.
_NO_ATOMS = ((), (), 1)


def _nonzero_cells(table: CellTable, values: list) -> CellTable:
    """The table with its cells of value zero joined to the points of no cell."""
    keep = [k if p else -1 for k, (p, _) in enumerate(values)]
    return _regrouped(table, [*keep, -1], table.count)


def _ramps(sloped, measure: Measure) -> list:
    """Integer rows (p, q, e, c, L) of sloped pieces, which come in
    increasing order, from one sweep along the measure's density cells as
    given.  A piece y = a*x + b under density d spreads mass over its values
    with density r = d/|a|, whose ends add +-(r*y, r); where the density
    steps from d to d' at x, the two ends meeting there make one row
    (c*y, c) at y = a*x + b, c = (d - d')/a, over the denominator of c
    times q.  A step of zero makes no row.  The breakpoints and densities
    are read once as integer pairs: the sweep compares by cross-products,
    each value y is a pair, each step d - d' a cross-difference and
    c = step/a is reduced by one gcd, so no `Fraction` is made."""
    grid = [t.as_integer_ratio() for t in measure.breakpoints]
    densities = [d.as_integer_ratio() for d in measure.densities]
    rows = []
    k = 0
    for u, w, a, b, (y_u, y_w) in sloped:
        un, ud = u.as_integer_ratio()
        wn, wd = w.as_integer_ratio()
        while grid[k + 1][0] * ud <= un * grid[k + 1][1]:
            k += 1
        n, m = densities[k]
        steps = [(y_u, -n, m)]
        while grid[k + 1][0] * wd < wn * grid[k + 1][1]:
            k += 1
            (n0, m0), (n, m) = densities[k - 1], densities[k]
            steps.append((_affine_pair(a, b, *grid[k]), n0 * m - n * m0, m0 * m))
        steps.append((y_w, n, m))
        an, ad = a
        for (p, q), num, den in steps:
            if num:
                cn, cd = num * ad, den * an
                g = math.gcd(cn, cd) if an > 0 else -math.gcd(cn, cd)
                cn, cd = cn // g, cd // g
                rows.append((p, q, cn * p, cn * q, cd * q))
    return rows


def _mean(groups: dict, denominator: int, ramps: list) -> tuple[int, int]:
    """The mean of a value distribution, the limit of the level-n staircase
    integrals, as one unreduced integer pair: sum(groups[q] / q) / denominator
    for the atoms, their sums of p * mass numerator grouped by q
    (`rationals._add_products`), plus the sum of (e*y - c*y^2/2) / L over the
    ramp rows.  Without ramps the groups are added and the denominator is
    applied once, to the sum; with them twice each atom group is put over
    q * denominator, twice a ramp row's term is (2*e*p*q - c*p^2)/(q^2*L),
    and `exact_sum` adds them all."""
    if not ramps:
        total, common = _sum_groups(groups)
        return total, common * denominator
    total, common = exact_sum(
        chain(
            ((2 * n, q * denominator) for q, n in groups.items()),
            ((2 * e * p * q - c * p * p, q * q * L) for p, q, e, c, L in ramps),
        )
    )
    return total, 2 * common


def integrate_nonneg(fn: Integrand, measure: Measure) -> Fraction:
    """Exact limit integral of a nonnegative integrand: the limit of its
    staircase integrals, the mean of its values."""
    check_integrand_measure(fn, measure)
    return DyadicApproximation(fn).limit(measure)


class DyadicApproximation:
    """The staircase sequence of one nonnegative integrand.

    `value_at(n, x)` and `integral(n, m)` work at any level without
    materializing anything; `level(n)` and `increment(n)` build the level-n
    simple function and the difference to level n-1 for desk-scale levels.
    `DyadicApproximation.parts(f)` gives the sequences of f+ and f− of a
    signed f.
    """

    def __init__(self, target: Integrand):
        """The approximation of f+ of the one sign split, after checking
        that f− holds no sloped piece and no nonzero value on a cell that
        holds a point."""
        positive, (table, values, sloped) = _signed_parts(target)
        if sloped or any(values[k][0] for k in set(table.owners) if k >= 0):
            kind = "simple integrand" if isinstance(target, SimpleFunction) else "integrand"
            raise NegativeIntegrandError(f"{kind} takes negative values")
        self._start(target, positive)

    @classmethod
    def parts(cls, fn: Integrand) -> tuple["DyadicApproximation", "DyadicApproximation"]:
        """The approximations of f+ = max(0, f) and f− = max(0, −f), one
        started from each lowered form of the one sign split
        (`_signed_parts`), which the constructor reads too.  Each reads its
        own value distribution; a simple function's two parts share its
        table, so its masses are read once per measure."""
        pair = []
        for part in _signed_parts(fn):
            approx = cls.__new__(cls)
            approx._start(fn, part)
            pair.append(approx)
        return pair[0], pair[1]

    def _start(self, target: Integrand, part: tuple) -> None:
        self.space = target.space
        table, values, sloped = self._part = part
        # The nonzero values of the cells that hold a point.
        held = [values[k] for k in set(table.owners) if k >= 0 and values[k][0]]
        # A bound >= sup: the largest held value or end of a sloped piece,
        # found by integer cross-products and kept as its pair.
        p, q = 0, 1
        for y in chain(held, *(ends for *_, ends in sloped.values())):
            if y[0] * q > p * y[1]:
                p, q = y
        self._bound = p, q
        self._termination = None if sloped else _termination_level(held)
        # The (measure, _StaircaseTable) pairs read so far.
        self._tables: list = []

    @property
    def upper_bound(self) -> Fraction:
        """A bound >= sup of the target (the sup itself may be unattained)."""
        return Fraction(*self._bound)

    @property
    def cap_level(self) -> int:
        """Smallest level from which the staircase cap is inactive: the
        integer ceiling of the bound's pair."""
        p, q = self._bound
        return -(-p // q)

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
        _require_point(self.space, point)
        table, values, sloped = self._part
        owner = self.space._owner_at(table, point)
        p, q, falling = 0, 1, False
        if owner in sloped:
            _, _, a, b, _ = sloped[owner]
            p, q = _affine_pair(a, b, *point.as_integer_ratio())
            falling = a[0] < 0
        elif owner >= 0:
            p, q = values[owner]
        if level == 0:
            return ZERO
        if self._termination is not None and level >= self._termination:
            # From the termination level on the staircase is the target.
            return Fraction(p, q)
        k = _grid_index(p, q, level)
        if falling and 0 < k and k * q == p << level:
            # Decreasing through the grid value k/2^n exactly: the half-open
            # level sets put this point in the cell just below.
            k -= 1
        return Fraction(k, 1 << level)

    def _staircase(self, n: int, increment: bool) -> SimpleFunction:
        """The level-n staircase, or its increment over level n - 1, as a
        canonical function.  Every cell keeps its value rounded.  In one
        walk of the table's pieces, the crossing points of every grid value
        up to the cap cut the cell of each sloped piece, so each open piece
        maps into one grid step and its midpoint determines its value."""

        def rounded(p: int, q: int) -> tuple[int, int]:
            k = _grid_index(p, q, n)
            if increment:
                k -= 2 * _grid_index(p, q, n - 1)
            return k, 1 << n

        table, values, sloped = self._part
        values = [rounded(p, q) for p, q in values]
        if sloped:
            scale, cuts, owners = 1 << n, [], []
            for lo, owner in zip(table.cuts, table.owners):
                if owner not in sloped:
                    cuts.append(lo)
                    owners.append(owner)
                    continue
                u, w, a, b, ends = sloped[owner]
                (an, ad), (bn, bd) = a, b
                # The piece is strictly monotone: its slope orders its ends.
                (p_lo, q_lo), (p_hi, q_hi) = ends if an > 0 else ends[::-1]
                k_min = max(1, (p_lo * scale) // q_lo + 1)
                k_max = min(n * scale, -((-p_hi * scale) // q_hi) - 1)
                if k_max - k_min > _MATERIALIZE_CELL_LIMIT:
                    raise ValueError(
                        f"level {n} would materialize about {k_max - k_min} cells; "
                        "use value_at/integral instead"
                    )
                # Every crossing (k/2^n - b)/a lies strictly inside the piece.
                crossings = [
                    Fraction((k * bd - bn * scale) * ad, scale * bd * an)
                    for k in range(k_min, k_max + 1)
                ]
                points = [u, *(crossings if an > 0 else reversed(crossings)), w]
                for x, y in zip(points, points[1:]):
                    cuts.append(x)
                    owners.append(len(values))
                    mid = (x + y) / 2
                    values.append(rounded(*_affine_pair(a, b, *mid.as_integer_ratio())))
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
        for known, table in self._tables:
            if known is measure or known == measure:
                return table
        check_integrand_measure(self, measure)
        table = _StaircaseTable(*_value_distribution(self._part, measure))
        self._tables.append((measure, table))
        return table


class _StaircaseTable:
    """Staircase integrals of one approximation against one measure, by level,
    and their limit.

    It keeps the atoms and the ramp rows (p, q, e, c, L) of
    `_value_distribution`.  Level n is 4^-n times the sum of
    (e*k*2^n - c*k(k+1)/2) / L, k = `_grid_index(p, q, n)`, over the ramp
    rows, each over its own denominator L, plus the atoms' one integer sum
    of m*k, m the mass numerators, over their one denominator D, which
    enters as (2^n * that sum, D): one `exact_sum` adds them all, and the
    sum becomes a single `Fraction`, kept by level, so each level asked
    for is computed alone.  The limit is the mean of the same atoms and
    rows.
    """

    def __init__(self, atoms: tuple, ramps: list):
        self._atoms = atoms
        self._ramps = ramps
        groups: dict = {}  # the atoms' sums p * mass numerator grouped by q
        _add_products(atoms[0], atoms[1], groups, groups)
        self.limit = Fraction(*_mean(groups, atoms[2], ramps))
        self._values: dict[int, Fraction] = {}

    def at(self, level: int) -> Fraction:
        value = self._values.get(level)
        if value is None:
            value = self._values[level] = self._level(level)
        return value

    def _level(self, n: int) -> Fraction:
        values, numerators, denominator = self._atoms
        atoms = sum(m * _grid_index(p, q, n) for (p, q), m in zip(values, numerators) if m)
        terms = [(atoms << n, denominator)]
        for p, q, e, c, L in self._ramps:
            k = _grid_index(p, q, n)
            terms.append(((e * k << n) - c * (k * (k + 1) >> 1), L))
        total, common = exact_sum(terms)
        return Fraction(total, common << (2 * n))


@dataclass(frozen=True)
class IntegralResult:
    """Outcome of the signed integral: the value and the two part integrals."""

    value: Fraction
    positive_part: Fraction
    negative_part: Fraction


def lebesgue_integral(fn: Integrand, measure: Measure) -> IntegralResult:
    """Signed integral ∫f+ dm − ∫f− dm, with both part integrals, from one
    batch read of the masses whatever the integrand class: no cell or
    sloped piece changes sign, so no atom or ramp row of the value
    distribution of f does either.  One loop over the atoms groups their
    products by denominator and by sign; the atoms and ramp rows at
    positive values give ∫f+ as one integer pair, those at negative values
    −∫f−, and the value and both parts are one `Fraction` each."""
    lowered = _lowered(fn)
    check_integrand_measure(fn, measure)
    (values, numerators, denominator), ramps = _value_distribution(lowered, measure)
    positive: dict = {}
    negative: dict = {}
    _add_products(values, numerators, positive, negative)
    pn, pd = _mean(positive, denominator, [row for row in ramps if row[0] > 0])
    nn, nd = _mean(negative, denominator, [row for row in ramps if row[0] < 0])
    # nn/nd is the mean of the negative values: ∫f− = -nn/nd.
    return IntegralResult(Fraction(pn * nd + nn * pd, pd * nd), Fraction(pn, pd), Fraction(-nn, nd))


def integrate_over(
    region: MeasurableSet, fn: Integrand, measure: Measure
) -> Fraction:
    """Integral of 1_region * f, the signed integral of the restriction;
    additive over disjoint regions.

    The restriction comes from one refinement of the table f keeps by the
    region's table (cell 0: the region), in which a cell (i, 0) keeps the
    value of cell i and every other cell, and a piece of no cell, is zero.
    Both integrand classes keep a cell table and one value per cell: an
    integer pair (p, q) of a simple function, a (slope, intercept) pair of
    `Fraction`s of a piecewise-linear function, whose table is gapless.  So
    they take this one path; only the zero value and the trusted
    constructor differ."""
    zero, restricted = (ZERO, ZERO), PiecewiseLinear._trusted
    if isinstance(fn, SimpleFunction):
        if fn.dim is not None:
            raise ValueError("a scalar integrand is required")
        zero, restricted = (0, 1), partial(SimpleFunction._trusted, fn.space, None)
    if region.space != fn.space:
        raise SpaceMismatchError("region belongs to another space")
    check_integrand_measure(fn, measure)
    paired, pairs = fn.space._paired(fn._table, fn.space._tabulate((region,), [0, 1]))
    inside = [zero if j or i < 0 else fn._values[i] for i, j in pairs]
    return lebesgue_integral(restricted(paired, inside), measure).value
