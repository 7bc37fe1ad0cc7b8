"""Finite measure spaces and their measurable-set algebra.

Two concrete families are supported, both with exactly computable measure:

* finite discrete spaces {0, ..., N-1}, whose nonnegative rational weights
  double as the measure;
* the half-open unit interval [0, 1), with finite unions of rational
  half-open intervals as measurable sets and step-function densities
  against length as measures.

Half-open intervals [a, b) are the only interval kind.  Finite unions are
then closed under complement within [0, 1) and single points are null, so
almost-everywhere statements need no separate null-set machinery.

Every value here is immutable after construction and every operation is
pure; instances may be shared freely.  Cross-space operations raise
SpaceMismatchError rather than coercing.

Costs, for sets of k intervals or indices, a discrete space of N points
and a measure of c cells:

* public constructors validate and normalise: every endpoint, weight,
  breakpoint and density passes the one rational gate
  `rationals.as_rational` (a `Fraction` as it is, an `int` converted,
  anything else refused), each loop with an inline `type(x) is Fraction`
  fast path; O(k log k) for intervals; a discrete set checks each index's
  type and the range at the two ends of its sorted indices;
* the measure constructors read every rational once as an integer pair
  and call no `Fraction` operator: weights, breakpoints and densities
  pass the gate in one reading, `_gated`, that also gives their integer
  ratios; a discrete space reads each weight once, for the sign check,
  the lcm and the scaled weights, with one scale factor per distinct
  weight denominator; an interval measure reads each
  breakpoint and density once, checks that the grid runs from 0 (a zero
  numerator) to 1 (numerator equal to denominator) and increases strictly
  (cross-products of neighbours), checks each density's sign from its
  numerator, merges equal-density neighbours by comparing their reduced
  pairs and builds its integer table from the pairs, O(c); the breakpoint
  checks are one helper, `_breakpoint_grid`, which the `PiecewiseLinear`
  constructor calls too before it makes its breakpoints the cuts of its
  cell table;
* `union`, and `union_of` on a space for any number of sets: one sort of
  all the intervals and one merge pass, or one `set` update for indices;
  a union with one nonempty operand returns it;
* interval sorts and sweeps (the constructor, `union_of`, `_tabulate`,
  `_paired`) order endpoints by the exact key (float(x), x): the floats
  compare in C and only equal floats fall back to an exact compare, and a
  key stays two words however many distinct denominators the endpoints
  have; `_tabulate` and `_paired` make that compare by integer
  cross-products, and skip it where the two endpoints are one object (an
  interval that starts where the one before it ended, a cut shared by
  both tables);
* `complement`: the gap cell of the set's own table, O(k log k) or O(N);
  `intersection`, `difference`: for both set kinds by De Morgan, a - b =
  ~(~a | b) and a & b = a - ~b, complements and one `union_of`: one set
  algebra, written once and assigned in both classes, O(k log k) for
  intervals and O(N) on indices;
* `contains`: O(log k) by bisection, after the point passes the space's
  type gate (a discrete space takes only an `int`) and the one point check
  `_require_point`, which every evaluation in the package shares;
* cell tables: a `CellTable` partitions the space into numbered cells
  without building a set per cell: on a discrete space one owner per
  point, on [0, 1) the sorted cut list with one owner per piece.  Both
  function classes are stored as a table and one value per cell: a
  `SimpleFunction` a flat value, a `PiecewiseLinear` a (slope, intercept)
  pair on a gapless table whose cuts are its breakpoints.
  `_tabulate` builds the table of pairwise-disjoint sets, or finds that
  they overlap, in one sort and one pass (one fill of N owners for
  indices); `_paired` refines two tables in one linear pass (a zip of the
  owners, or a two-pointer merge of the cuts) and numbers the distinct
  cell pairs: `SimpleFunction` arithmetic pairs its canonical tables,
  `PiecewiseLinear` `+`, `-`, `==` and `refined` their stored tables (the
  last against a one-cell table of the cuts), `==` across the classes a
  piecewise-linear function's table with a simple function's canonical
  one, and `integrate_over` the stored table of either class with the
  region's; `_regrouped` relabels the owners; `_owner_at` finds the
  cell of one point by bisection (or indexing); `_cell_sets` builds the
  sets of all cells in one pass, only when a caller asks for them;
* mass reads: each measure reads the masses of all cells of a table in
  one pass of integer arithmetic (the private `_masses`), returning
  integer numerators over one common denominator.  A discrete space keeps
  its weights as integers over their lcm and adds them up by owner, O(N);
  an interval measure keeps its merged grid, densities and cumulative
  masses as integers once, reads each cut once as an integer ratio,
  scales the grid, its cumulative masses and every cut to the lcm of
  their denominators (one factor per distinct cut denominator and one per
  grid cell, not one per cut), finds the cumulative mass at each cut by
  one walk along the grid in step with the sorted cuts (no bisection),
  and differences them per piece: O(m + c) for m cuts.  Both add the
  masses of the points or pieces into one integer per cell in the same
  pass, with no list per cell.  The numerators come as a tuple.  Each
  measure keeps its last read with its table in one memo slot, keyed by
  the table's identity (`_masses`; `_read_masses` is the pass itself), so
  the shared table of `f + g` and `f - g` is read once however many
  integrals read it.  `measure_of` is the read of a one-set table, made
  anew each call and read past the slot, and makes one `Fraction`; every
  integral of a simple function reads all its cells in one call.  Every
  integral in the package first refuses an integrand of another space
  than its measure's by the one check defined here,
  `check_integrand_measure`.

Results of the set operations on canonical operands are canonical by
construction, so they come from the private `_canonical` constructors,
which trust their input and check nothing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm, nan
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .rationals import ONE, ZERO, as_rational

__all__ = [
    "SpaceMismatchError",
    "OutsideDomainError",
    "UnitIntervalSpace",
    "UNIT_INTERVAL",
    "DiscreteSpace",
    "DiscreteSet",
    "IntervalSet",
    "IntervalMeasure",
    "MeasurableSet",
    "Measure",
    "Space",
    "space_of",
]


class SpaceMismatchError(ValueError):
    """Operands belong to different measure spaces."""


class OutsideDomainError(ValueError):
    """A point lies outside the sample space."""


class CellTable(NamedTuple):
    """A partition of a space into numbered cells, without sets.

    On a discrete space `owners` holds the cell of each point; on [0, 1)
    piece k is [cuts[k], cuts[k + 1]) and `owners[k]` is its cell.  Owner
    -1 marks the points of no cell.  Adjacent pieces of a canonical table
    never share an owner, so its cut list is unique.
    """

    owners: list
    count: int
    cuts: tuple = ()


def _numbered(codes: list, width: int, cuts: tuple) -> tuple[CellTable, list]:
    """(table, pairs): the cells of a common refinement, given the code
    i * width + j of the cell pair (i, j) of each point or piece.  The
    distinct codes are numbered in (i, j) order, and pairs[k] is the (i, j)
    of cell k."""
    distinct = sorted(set(codes))
    number = dict(zip(distinct, range(len(distinct))))
    table = CellTable(list(map(number.__getitem__, codes)), len(distinct), cuts)
    return table, [divmod(code, width) for code in distinct]


def _regrouped(table: CellTable, owner_of: list, count: int) -> CellTable:
    """The table with each owner o replaced by owner_of[o] (owner_of[-1]
    for the points of no cell), adjacent pieces of one owner merged."""
    owners = list(map(owner_of.__getitem__, table.owners))
    if not table.cuts:
        return CellTable(owners, count)
    keep = [k for k, owner in enumerate(owners) if not k or owner != owners[k - 1]]
    return CellTable([owners[k] for k in keep], count, (*(table.cuts[k] for k in keep), ONE))


def _by_owner(items: Iterable, table: CellTable) -> list[list]:
    """The items, one per point or piece of the table, collected per cell;
    the items of no cell are dropped."""
    cells: list[list] = [[] for _ in range(table.count + 1)]  # the last: no cell
    for item, owner in zip(items, table.owners):
        cells[owner].append(item)
    return cells[:-1]


_lower_end = itemgetter(0)


def _last_masses(measure, table: CellTable) -> tuple[tuple[int, ...], int]:
    """The measure's `_read_masses` of the table, kept with the table in the
    measure's one memo slot: the same table object read again, as the
    shared table of `f + g` and `f - g` is, costs no second pass.  The slot
    is read once and replaced whole, so a concurrent read of another table
    costs at most a second pass, never a wrong answer."""
    last = measure._last_read
    if last is None or last[0] is not table:
        last = (table, measure._read_masses(table))
        object.__setattr__(measure, "_last_read", last)
    return last[1]


def _measure_of(measure: "Measure", subset: "MeasurableSet") -> Fraction:
    """The measure of one set: the read of its one-set table, made anew
    each call and read past the memo slot."""
    numerators, denominator = measure._read_masses(measure.space._tabulate((subset,), [0, -1]))
    return Fraction(numerators[0], denominator)


def check_integrand_measure(fn, measure: "Measure") -> None:
    """Refuse an integrand (or a staircase of one) whose space is not the
    measure's."""
    if fn.space != space_of(measure):
        raise SpaceMismatchError("integrand and measure live on different spaces")


def _require_point(space: "Space", point) -> None:
    """Refuse a point outside the space, after the space's own type gate."""
    if not space.contains(point):
        raise OutsideDomainError(f"point {point!r} outside the space")


# The set algebra of both set kinds, assigned in each class body: the
# complement from the set's own table, the union from `union_of`, and the
# rest by De Morgan.  `union_of` refuses an operand of another space, so
# every binary operation refuses it with the one message.


def _complement(subset: "MeasurableSet") -> "MeasurableSet":
    """The one cell of the points of no set in the table of this set."""
    space = subset.space
    return space._cell_sets(space._tabulate((subset,), [-1, 0]))[0]


def _union(subset: "MeasurableSet", other: "MeasurableSet") -> "MeasurableSet":
    """a | b: one `union_of` on the space of a."""
    return subset.space.union_of((subset, other))


def _difference(subset: "MeasurableSet", other: "MeasurableSet") -> "MeasurableSet":
    """a - b = ~(~a | b)."""
    return subset.space.union_of((subset.complement(), other)).complement()


def _intersection(subset: "MeasurableSet", other: "MeasurableSet") -> "MeasurableSet":
    """a & b = a - ~b; an operand that is no set has no complement, so it
    is refused first."""
    if not isinstance(other, (DiscreteSet, IntervalSet)):
        raise SpaceMismatchError("sets belong to different spaces")
    return subset.difference(other.complement())


@dataclass(frozen=True)
class UnitIntervalSpace:
    """The sample space [0, 1).  All instances are interchangeable."""

    def contains(self, point) -> bool:
        return 0 <= as_rational(point, "point") < 1

    def full_set(self) -> "IntervalSet":
        return IntervalSet._canonical(((ZERO, ONE),))

    def union_of(self, parts: Iterable["MeasurableSet"]) -> "IntervalSet":
        """Union of any number of interval sets: one keyed sort, one merge pass."""
        pieces = []
        for part in parts:
            if not isinstance(part, IntervalSet):
                raise SpaceMismatchError("sets belong to different spaces")
            if part.intervals:
                pieces.append(part)
        if len(pieces) == 1:  # already canonical; no key is needed
            return pieces[0]
        return IntervalSet._canonical(_coalesced(_keyed(pieces)))

    def _tabulate(self, parts: Sequence["MeasurableSet"], owner_of: list) -> Optional[CellTable]:
        """The cell table of interval sets, or None where two of them
        overlap: owner owner_of[k] for the pieces of parts[k], owner_of[-1]
        for the gaps, and max(owner_of) + 1 cells.  One keyed sort and one
        pass: sorted by lower end, the sets are pairwise disjoint iff each
        interval starts at or after the end of the one before it, which
        needs no compare where it starts at the very endpoint object that
        interval ended at."""
        if not all(isinstance(part, IntervalSet) for part in parts):
            raise SpaceMismatchError("set does not belong to the interval space")
        cuts, owners = [ZERO], []
        reach_f, reach = 0.0, ZERO
        for lo_f, lo, hi_f, hi, k in _keyed(parts):
            if lo_f == reach_f and lo is not reach:  # equal floats of two endpoint objects
                lo_f, reach_f = lo.numerator * reach.denominator, reach.numerator * lo.denominator
            if lo_f < reach_f:
                return None
            if reach_f < lo_f:
                cuts.append(lo)
                owners.append(owner_of[-1])
            cuts.append(hi)
            owners.append(owner_of[k])
            reach_f, reach = hi_f, hi
        if reach_f < 1 or reach.numerator != reach.denominator:
            cuts.append(ONE)
            owners.append(owner_of[-1])
        return CellTable(owners, max(owner_of) + 1, tuple(cuts))

    def _paired(self, left: CellTable, right: CellTable) -> tuple[CellTable, list]:
        """The common refinement of two gapless tables, from one two-pointer
        merge of their cuts that compares their floats, and the integer
        cross-products of two cut objects only where their floats are equal
        (see `_numbered`).  A left owner may be -1: `divmod` gives back
        i = -1 for its pieces."""
        a, b = left.cuts, right.cuts
        a_f = [x.numerator / x.denominator for x in a]
        b_f = [y.numerator / y.denominator for y in b]
        cuts, codes, i, j, width = [ZERO], [], 1, 1, right.count
        while i < len(a):  # both tables end at 1, so b runs out with a
            codes.append(left.owners[i - 1] * width + right.owners[j - 1])
            x, y = a_f[i], b_f[j]
            if x == y and a[i] is not b[j]:  # equal floats of two cut objects
                x, y = a[i].as_integer_ratio(), b[j].as_integer_ratio()
                x, y = x[0] * y[1], y[0] * x[1]
            cuts.append(a[i] if x <= y else b[j])
            i, j = i + (x <= y), j + (y <= x)
        return _numbered(codes, width, tuple(cuts))

    def _owner_at(self, table: CellTable, point) -> int:
        return table.owners[bisect_right(table.cuts, point) - 1]

    def _cell_sets(self, table: CellTable) -> list["IntervalSet"]:
        """One set per cell of a table whose adjacent pieces never share an
        owner, in cell order: each cell's pieces, collected left to right,
        are already canonical."""
        pieces = _by_owner(zip(table.cuts, table.cuts[1:]), table)
        return [IntervalSet._canonical(tuple(cell)) for cell in pieces]


UNIT_INTERVAL = UnitIntervalSpace()


# The exact order key of an endpoint x is (float(x), x), with float(x) taken
# as x.numerator / x.denominator (integer true division, correctly rounded,
# without the generic `__float__` call).  The floats compare in C, and since
# the conversion is correctly rounded it is monotone: x < y implies
# float(x) <= float(y), so only equal floats need an exact compare: in a
# sort the tuple compare falls back to the `Fraction` compare, and the range
# check and the merge take integer cross-products (`_at_most`).  Every key
# stays two words, whatever the denominators;
# integers scaled to one lcm of all the denominators would also be exact,
# but they grow with the number of distinct denominators, which makes a sort
# of k intervals with distinct prime denominators quadratic in k.
_NO_REACH = float("-inf")  # below every key: no interval has been seen


def _keyed(parts: Iterable["IntervalSet"]) -> list[tuple]:
    """Every interval of `parts` as (float(lo), lo, float(hi), hi, k), with k
    the index of its set, sorted by the key of its lower end."""
    return sorted(
        (lo.numerator / lo.denominator, lo, hi.numerator / hi.denominator, hi, k)
        for k, part in enumerate(parts)
        for lo, hi in part.intervals
    )


def _at_most(x: Fraction, y: Fraction) -> bool:
    """x <= y from the integer cross-products: the order of two endpoints
    whose floats are equal, found without a `Fraction` compare."""
    return x.numerator * y.denominator <= y.numerator * x.denominator


def _coalesced(keyed: Iterable[tuple]) -> tuple:
    """Keyed nonempty intervals sorted by lower end -> canonical tuple
    (overlapping and adjacent runs merged)."""
    merged: list[tuple[Fraction, Fraction]] = []
    reach_f, reach = _NO_REACH, None
    for lo_f, lo, hi_f, hi, _ in keyed:
        if lo_f < reach_f or lo_f == reach_f and _at_most(lo, reach):
            if hi_f > reach_f or hi_f == reach_f and not _at_most(hi, reach):
                merged[-1] = (merged[-1][0], hi)
                reach_f, reach = hi_f, hi
        else:
            merged.append((lo, hi))
            reach_f, reach = hi_f, hi
    return tuple(merged)


@dataclass(frozen=True)
class DiscreteSpace:
    """{0, ..., N-1} with nonnegative rational weights; the weights are the measure."""

    weights: tuple[Fraction, ...]
    # The weights as integer numerators over their common denominator.
    _scaled: tuple = field(init=False, repr=False, compare=False)
    _denominator: int = field(init=False, repr=False, compare=False)
    # The last mass read, (table, (numerators, denominator)) (see `_masses`).
    _last_read: Optional[tuple] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        coerced, ratios = _gated(self.weights, "weight")
        if not coerced:
            raise ValueError("a discrete space needs at least one point")
        if min(ratios)[0] < 0:  # the smallest numerator
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "weights", coerced)
        # One scale factor per distinct denominator, each dropped before the
        # next is made: with many distinct denominators the factors are as
        # long as the scaled weights, and holding them all would double the
        # peak memory.
        at: dict[int, list[int]] = {}
        for k, (_, den) in enumerate(ratios):
            at.setdefault(den, []).append(k)
        denominator = lcm(*at)
        scaled = [0] * len(ratios)
        for den, points in at.items():
            factor = denominator // den
            for k in points:
                scaled[k] = ratios[k][0] * factor
        object.__setattr__(self, "_scaled", tuple(scaled))
        object.__setattr__(self, "_denominator", denominator)

    @property
    def size(self) -> int:
        return len(self.weights)

    @cached_property
    def _mass_pair(self) -> tuple[int, int]:
        """The total mass as (numerator, denominator), not reduced, summed
        on the first read, so that building a space does not pay for it."""
        return sum(self._scaled), self._denominator

    @property
    def total_mass(self) -> Fraction:
        return Fraction(*self._mass_pair)

    @property
    def space(self) -> "DiscreteSpace":
        return self

    def contains(self, point) -> bool:
        if isinstance(point, bool) or not isinstance(point, int):
            as_rational(point, "point")  # names a float, bool, Decimal or string
            raise ValueError(f"point {point!r} is not an int")
        return 0 <= point < self.size

    def full_set(self) -> "DiscreteSet":
        return DiscreteSet._canonical(self, tuple(range(self.size)))

    def union_of(self, parts: Iterable["MeasurableSet"]) -> "DiscreteSet":
        """Union of any number of sets of this space: one `set` update."""
        members: set[int] = set()
        for part in parts:
            if not isinstance(part, DiscreteSet) or part.space != self:
                raise SpaceMismatchError("sets belong to different spaces")
            members.update(part.indices)
        return DiscreteSet._canonical(self, tuple(sorted(members)))

    def _tabulate(self, parts: Sequence["MeasurableSet"], owner_of: list) -> Optional[CellTable]:
        """The cell table of sets of this space, or None where two of them
        overlap: owner owner_of[k] for the points of parts[k], owner_of[-1]
        for the points of none, and max(owner_of) + 1 cells."""
        if not all(
            isinstance(part, DiscreteSet) and (part.space is self or part.space == self)
            for part in parts
        ):
            raise SpaceMismatchError("set does not belong to this discrete space")
        if len(set().union(*(p.indices for p in parts))) != sum(len(p.indices) for p in parts):
            return None
        owners = [owner_of[-1]] * self.size
        for k, part in enumerate(parts):
            for point in part.indices:
                owners[point] = owner_of[k]
        return CellTable(owners, max(owner_of) + 1)

    def _paired(self, left: CellTable, right: CellTable) -> tuple[CellTable, list]:
        """The common refinement of two tables: one zip of the owners.  A
        left owner may be -1: `divmod` gives back i = -1 for its points."""
        width = right.count
        return _numbered([i * width + j for i, j in zip(left.owners, right.owners)], width, ())

    def _owner_at(self, table: CellTable, point: int) -> int:
        return table.owners[point]

    def _cell_sets(self, table: CellTable) -> list["DiscreteSet"]:
        """One set per cell of the table, in cell order."""
        members = _by_owner(range(self.size), table)
        return [DiscreteSet._canonical(self, tuple(points)) for points in members]

    measure_of = _measure_of
    _masses = _last_masses

    def _read_masses(self, table: "CellTable") -> tuple[tuple[int, ...], int]:
        """(numerators, denominator): the mass of each cell of a table of
        this space is its numerator over the one common denominator of the
        weights, from one pass of the weights by owner."""
        sums = [0] * (table.count + 1)  # the last: no cell
        for mass, owner in zip(self._scaled, table.owners):
            sums[owner] += mass
        sums.pop()
        return tuple(sums), self._denominator


class DiscreteSet:
    """Subset of a discrete space, stored as a strictly increasing index tuple."""

    def __init__(self, space: DiscreteSpace, indices: Iterable[int]):
        idx = sorted(set(indices))
        # Sorted plain ints lie in range iff the two ends do; anything else
        # is checked index by index, naming the first offender.
        if idx and not (set(map(type, idx)) == {int} and 0 <= idx[0] and idx[-1] < space.size):
            for i in idx:
                if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < space.size:
                    raise ValueError(f"index {i!r} outside the space of size {space.size}")
        self.space = space
        self.indices: tuple[int, ...] = tuple(idx)

    @classmethod
    def _canonical(cls, space: DiscreteSpace, indices: tuple[int, ...]) -> "DiscreteSet":
        # Trusted: `indices` is a strictly increasing tuple of points of `space`.
        out = cls.__new__(cls)
        out.space = space
        out.indices = indices
        return out

    @property
    def is_empty(self) -> bool:
        return not self.indices

    def contains(self, point) -> bool:
        _require_point(self.space, point)
        k = bisect_left(self.indices, point)
        return k < len(self.indices) and self.indices[k] == point

    union = __or__ = _union
    intersection = __and__ = _intersection
    difference = __sub__ = _difference
    complement = _complement

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteSet):
            return NotImplemented
        return self.space == other.space and self.indices == other.indices

    def __hash__(self) -> int:
        return hash((self.space, self.indices))

    def __repr__(self) -> str:
        return f"DiscreteSet({list(self.indices)})"


class IntervalSet:
    """Finite union of half-open intervals [a, b) within [0, 1).

    Always stored canonically: sorted, pairwise disjoint, adjacent runs
    merged.  Set equality is therefore structural equality.
    """

    def __init__(self, intervals: Iterable[tuple[Fraction, Fraction]]):
        keyed = []
        for lo, hi in intervals:
            lo = lo if type(lo) is Fraction else as_rational(lo, "interval endpoint")
            hi = hi if type(hi) is Fraction else as_rational(hi, "interval endpoint")
            try:
                lo_f, hi_f = lo.numerator / lo.denominator, hi.numerator / hi.denominator
            except OverflowError:  # |x| beyond the floats: far outside [0, 1]
                lo_f = hi_f = nan  # no compare with a NaN holds
            # 0 <= lo <= hi <= 1 by the floats, and on a tie exactly.
            if not (
                (lo_f > 0.0 or lo_f == 0.0 and lo.numerator >= 0)
                and (lo_f < hi_f or lo_f == hi_f and _at_most(lo, hi))
                and (hi_f < 1.0 or hi_f == 1.0 and hi.numerator <= hi.denominator)
            ):
                raise ValueError(f"interval [{lo}, {hi}) not inside [0, 1)")
            if lo_f < hi_f or not _at_most(hi, lo):  # degenerate [a, a) is empty and dropped
                keyed.append((lo_f, lo, hi_f, hi, 0))
        keyed.sort()
        self.intervals: tuple[tuple[Fraction, Fraction], ...] = _coalesced(keyed)

    @classmethod
    def _canonical(cls, intervals: tuple[tuple[Fraction, Fraction], ...]) -> "IntervalSet":
        # Trusted: `intervals` is sorted, nonempty, pairwise disjoint and
        # non-adjacent, with Fraction endpoints inside [0, 1].
        out = cls.__new__(cls)
        out.intervals = intervals
        return out

    @property
    def space(self) -> UnitIntervalSpace:
        return UNIT_INTERVAL

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, point) -> bool:
        _require_point(UNIT_INTERVAL, point)
        k = bisect_right(self.intervals, point, key=_lower_end)
        return k > 0 and point < self.intervals[k - 1][1]

    def endpoints(self) -> Iterator[Fraction]:
        for lo, hi in self.intervals:
            yield lo
            yield hi

    union = __or__ = _union
    intersection = __and__ = _intersection
    difference = __sub__ = _difference
    complement = _complement

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        parts = ", ".join(f"[{lo}, {hi})" for lo, hi in self.intervals)
        return f"IntervalSet({parts})" if parts else "IntervalSet(empty)"


def _gated(values: Iterable, what: str) -> tuple[tuple[Fraction, ...], list]:
    """(values, ratios): the values through the rational gate, a `Fraction`
    passed as it is without the call, and their integer ratios (n, d), each
    read once."""
    gated = tuple(x if type(x) is Fraction else as_rational(x, what) for x in values)
    return gated, [x.as_integer_ratio() for x in gated]


def _breakpoint_grid(breakpoints: Iterable) -> tuple[tuple[Fraction, ...], list]:
    """(grid, ratios): the breakpoints and their integer ratios (`_gated`).
    The ratios show that the grid runs from 0 (n = 0) to 1 (n = d) and
    increases strictly (by the cross-products of neighbours), with no
    `Fraction` compare."""
    bp, ratios = _gated(breakpoints, "breakpoint")
    if len(ratios) < 2 or ratios[0][0] or ratios[-1][0] != ratios[-1][1]:
        raise ValueError("breakpoints must run from 0 to 1")
    if any(n * e >= m * d for (n, d), (m, e) in zip(ratios, ratios[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    return bp, ratios


@dataclass(frozen=True)
class IntervalMeasure:
    """Step-function density against length on [0, 1).

    The density is constant on each cell of the breakpoint grid; unit
    density on a single cell recovers Lebesgue measure.  Total mass is
    always a finite rational.

    `breakpoints` and `densities` keep the cells as given.  Equality and
    the hash use the integer table, whose grid has adjacent equal-density
    cells merged, so measures that agree on every set compare equal.
    """

    breakpoints: tuple[Fraction, ...]
    densities: tuple[Fraction, ...]
    # The integer table `_masses` reads, (D, G, A, B, E), a canonical form
    # of the measure.  The grid has adjacent equal-density cells merged.
    # With the grid over its common denominator D (G[k] = D * grid[k]) and
    # the densities over theirs, E (A[k] = E * density[k]), the mass of
    # [0, x) for grid[k] <= x < grid[k + 1] is
    # (C[k] + A[k] * (D * x - G[k])) / (D * E), where C[k] is the integer
    # D * E * mass of [0, grid[k]); B[k] = C[k] - A[k] * G[k].  A closing
    # entry A = 0, B = C[cells] answers x = 1.
    _table: tuple = field(init=False, repr=False, compare=False)
    # The last mass read, (table, (numerators, denominator)) (see `_masses`).
    _last_read: Optional[tuple] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        bp, ratios = _breakpoint_grid(self.breakpoints)
        dens, rates = _gated(self.densities, "density")
        if len(dens) != len(bp) - 1:
            raise ValueError("need one density per breakpoint cell")
        if min(rates)[0] < 0:  # the smallest numerator
            raise ValueError("densities must be nonnegative")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "densities", dens)
        # Reduced pairs are equal iff their values are, so equal-density
        # neighbours merge by a tuple compare.
        grid, steps = [(0, 1)], []
        for rate, hi in zip(rates, ratios[1:]):
            if steps and steps[-1] == rate:
                grid[-1] = hi
            else:
                steps.append(rate)
                grid.append(hi)
        grid_den = lcm(*(d for _, d in grid))
        density_den = lcm(*(d for _, d in steps))
        points = [n * (grid_den // d) for n, d in grid]
        slopes = [n * (density_den // d) for n, d in steps]
        offsets, below = [], 0
        for k, slope in enumerate(slopes):
            offsets.append(below - slope * points[k])
            below += slope * (points[k + 1] - points[k])
        slopes.append(0)
        offsets.append(below)
        object.__setattr__(
            self,
            "_table",
            (grid_den, tuple(points), tuple(slopes), tuple(offsets), density_den),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalMeasure):
            return NotImplemented
        return self._table == other._table

    def __hash__(self) -> int:
        return hash(self._table)

    @classmethod
    def lebesgue(cls) -> "IntervalMeasure":
        return cls((ZERO, ONE), (ONE,))

    @property
    def space(self) -> UnitIntervalSpace:
        return UNIT_INTERVAL

    @property
    def _mass_pair(self) -> tuple[int, int]:
        """The total mass as (C[cells], D * E), not reduced."""
        grid_den, _, _, offsets, density_den = self._table
        return offsets[-1], grid_den * density_den

    @property
    def total_mass(self) -> Fraction:
        return Fraction(*self._mass_pair)

    measure_of = _measure_of
    _masses = _last_masses

    def _read_masses(self, table: "CellTable") -> tuple[tuple[int, ...], int]:
        """(numerators, denominator): the mass of each cell of an interval
        table is its numerator over one common denominator.

        Every cut x is scaled to the integer X = L * x, with L the lcm of the
        grid's and the cuts' denominators, by one factor L / d per distinct
        cut denominator d.  One walk along the grid scaled by s = L / D, in
        step with the sorted cuts, finds the cell k of each cut, and the
        mass of [0, x) is (s * B[k] + A[k] * X) / (L * E), with s * B[k]
        made once per grid cell; a piece's mass is the difference at its two
        cuts, added to its cell's sum in the same walk.
        """
        grid_den, points, slopes, offsets, density_den = self._table
        ratios = [x.as_integer_ratio() for x in table.cuts]
        denominators = {den for _, den in ratios}
        common = lcm(grid_den, *denominators)
        factor = {den: common // den for den in denominators}
        stretch = common // grid_den
        scaled_grid = [t * stretch for t in points]
        scaled_offsets = [b * stretch for b in offsets]
        last, k, lo = len(points) - 1, 0, 0
        sums = [0] * (table.count + 1)  # the last: no cell, and the mass below cuts[0]
        for (num, den), owner in zip(ratios, (-1, *table.owners)):
            x = num * factor[den]
            while k < last and scaled_grid[k + 1] <= x:
                k += 1
            hi = scaled_offsets[k] + slopes[k] * x
            sums[owner] += hi - lo
            lo = hi
        sums.pop()
        return tuple(sums), common * density_den


MeasurableSet = Union[DiscreteSet, IntervalSet]
Measure = Union[DiscreteSpace, IntervalMeasure]
Space = Union[DiscreteSpace, UnitIntervalSpace]


def space_of(measure: Measure) -> Space:
    """The sample space a measure lives on."""
    if not isinstance(measure, (DiscreteSpace, IntervalMeasure)):
        raise TypeError(f"not a measure: {measure!r}")
    return measure.space
