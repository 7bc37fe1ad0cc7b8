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
  anything else refused), the endpoint, weight and breakpoint loops with
  an inline `type(x) is Fraction` fast path; O(k log k) for intervals; a
  discrete set checks each index's type and the range at the two ends of
  its sorted indices, and a discrete space reads each weight once as an
  integer ratio, for the sign check, the lcm and the scaled weights;
* `union`, and `union_of` on a space for any number of sets: one sort of
  all the intervals and one merge pass, or one `set` update for indices;
  a union with one nonempty operand returns it;
* interval sorts and sweeps (the constructor, `union_of`, `_tabulate`,
  `_paired`) order endpoints by the exact key (float(x), x): the floats
  compare in C and only equal floats fall back to an exact compare, and a
  key stays two words however many distinct denominators the endpoints
  have;
* `intersection`, `difference`: one linear pass (two-pointer merge of
  intervals, membership tests for indices); `complement`: the gap cell of
  the set's own table, O(k log k) or O(N);
* `contains`: O(log k) by bisection, after the point passes the rational
  gate (a discrete space takes only an `int`);
* cell tables: a `CellTable` partitions the space into numbered cells
  without building a set per cell: on a discrete space one owner per
  point, on [0, 1) the sorted cut list with one owner per piece.
  `_tabulate` builds the table of pairwise-disjoint sets, or finds that
  they overlap, in one sort and one pass (one fill of N owners for
  indices); `_paired` refines two tables in one linear pass (a zip of the
  owners, or a two-pointer merge of the cuts) and numbers the distinct
  cell pairs; `_regrouped` relabels the owners; `_owner_at` finds the
  cell of one point by bisection (or indexing); `_cell_sets` builds the
  sets of all cells in one pass, only when a caller asks for them;
* mass reads: each measure reads the masses of all cells of a table in
  one pass of integer arithmetic (the private `_masses`), returning
  integer numerators over one common denominator.  A discrete space keeps
  its weights as integers over their lcm and adds them up by owner, O(N);
  an interval measure keeps its merged grid, densities and cumulative
  masses as integers once, scales the grid and every cut to the lcm of
  their denominators, finds the cumulative mass at each cut by one walk
  along the grid in step with the sorted cuts (no bisection), and
  differences them per piece: O(m + c) for m cuts.  `measure_of` is the
  read of a one-set table and makes one `Fraction`; every integral of a
  simple function reads all its cells in one call.

Results of the set operations on canonical operands are canonical by
construction, so they come from the private `_canonical` constructors,
which trust their input and check nothing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
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
        return IntervalSet._canonical(_merged(_keyed(pieces)))

    def _tabulate(self, parts: Sequence["MeasurableSet"], owner_of: list) -> Optional[CellTable]:
        """The cell table of interval sets, or None where two of them
        overlap: owner owner_of[k] for the pieces of parts[k], owner_of[-1]
        for the gaps, and max(owner_of) + 1 cells.  One keyed sort and one
        pass: sorted by lower end, the sets are pairwise disjoint iff each
        interval starts at or after the end of the one before it."""
        if not all(isinstance(part, IntervalSet) for part in parts):
            raise SpaceMismatchError("set does not belong to the interval space")
        cuts, owners = [ZERO], []
        reach_f, reach = 0.0, ZERO
        for lo_f, lo, hi_f, hi, k in _keyed(parts):
            if lo_f == reach_f:  # equal floats: compare the exact cross-products
                lo_f, reach_f = lo.numerator * reach.denominator, reach.numerator * lo.denominator
            if lo_f < reach_f:
                return None
            if reach_f < lo_f:
                cuts.append(lo)
                owners.append(owner_of[-1])
            cuts.append(hi)
            owners.append(owner_of[k])
            reach_f, reach = hi_f, hi
        if reach != 1:
            cuts.append(ONE)
            owners.append(owner_of[-1])
        return CellTable(owners, max(owner_of) + 1, tuple(cuts))

    def _paired(self, left: CellTable, right: CellTable) -> tuple[CellTable, list]:
        """The common refinement of two gapless tables, from one two-pointer
        merge of their cuts that compares their floats and the exact cuts
        only where two floats are equal (see `_numbered`).  A left owner may
        be -1: `divmod` gives back i = -1 for its pieces."""
        a, b = left.cuts, right.cuts
        a_f = [x.numerator / x.denominator for x in a]
        b_f = [y.numerator / y.denominator for y in b]
        cuts, codes, i, j, width = [ZERO], [], 1, 1, right.count
        while i < len(a):  # both tables end at 1, so b runs out with a
            codes.append(left.owners[i - 1] * width + right.owners[j - 1])
            x, y = (a_f[i], b_f[j]) if a_f[i] != b_f[j] else (a[i], b[j])
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

    def __repr__(self) -> str:
        return "UnitIntervalSpace()"


UNIT_INTERVAL = UnitIntervalSpace()


# The exact order key of an endpoint x is (float(x), x), with float(x) taken
# as x.numerator / x.denominator (integer true division, correctly rounded,
# without the generic `__float__` call).  The floats compare in C, and since
# the conversion is correctly rounded it is monotone: x < y implies
# float(x) <= float(y), so only equal floats fall back to the exact
# `Fraction` compare.  Every key stays two words, whatever the denominators;
# integers scaled to one lcm of all the denominators would also be exact,
# but they grow with the number of distinct denominators, which makes a sort
# of k intervals with distinct prime denominators quadratic in k.
_ZERO_KEY, _ONE_KEY = (0.0, ZERO), (1.0, ONE)
_NO_REACH = float("-inf")  # below every key: no interval has been seen


def _keyed(parts: Iterable["IntervalSet"]) -> list[tuple]:
    """Every interval of `parts` as (float(lo), lo, float(hi), hi, k), with k
    the index of its set, sorted by the key of its lower end."""
    return sorted(
        (lo.numerator / lo.denominator, lo, hi.numerator / hi.denominator, hi, k)
        for k, part in enumerate(parts)
        for lo, hi in part.intervals
    )


def _merged(keyed: Iterable[tuple]) -> tuple:
    """Keyed nonempty intervals sorted by lower end -> canonical tuple
    (overlapping and adjacent runs merged)."""
    merged: list[tuple[Fraction, Fraction]] = []
    reach_f, reach = _NO_REACH, None
    for lo_f, lo, hi_f, hi, _ in keyed:
        if lo_f < reach_f or lo_f == reach_f and lo <= reach:
            if hi_f > reach_f or hi_f == reach_f and hi > reach:
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

    def __post_init__(self) -> None:
        coerced = tuple(
            w if type(w) is Fraction else as_rational(w, "weight") for w in self.weights
        )
        if not coerced:
            raise ValueError("a discrete space needs at least one point")
        ratios = [w.as_integer_ratio() for w in coerced]
        if min(ratios)[0] < 0:  # the smallest numerator
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "weights", coerced)
        denominator = lcm(*(den for _, den in ratios))
        scaled = tuple(num * (denominator // den) for num, den in ratios)
        object.__setattr__(self, "_scaled", scaled)
        object.__setattr__(self, "_denominator", denominator)

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> Fraction:
        return Fraction(sum(self._scaled), self._denominator)

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
        if not all(isinstance(part, DiscreteSet) and part.space == self for part in parts):
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

    def measure_of(self, subset: "MeasurableSet") -> Fraction:
        numerators, denominator = self._masses(self._tabulate((subset,), [0, -1]))
        return Fraction(numerators[0], denominator)

    def _masses(self, table: "CellTable") -> tuple[list[int], int]:
        """(numerators, denominator): the mass of each cell of a table of
        this space is its numerator over the one common denominator of the
        weights, from one pass of the weights by owner."""
        return list(map(sum, _by_owner(self._scaled, table))), self._denominator


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
        if not self.space.contains(point):
            raise OutsideDomainError(f"point {point!r} outside the discrete space")
        k = bisect_left(self.indices, point)
        return k < len(self.indices) and self.indices[k] == point

    def _require_same_space(self, other: "MeasurableSet") -> "DiscreteSet":
        if not isinstance(other, DiscreteSet) or other.space != self.space:
            raise SpaceMismatchError("sets belong to different spaces")
        return other

    def union(self, other: "MeasurableSet") -> "DiscreteSet":
        return self.space.union_of((self, other))

    def intersection(self, other: "MeasurableSet") -> "DiscreteSet":
        members = set(self._require_same_space(other).indices)
        return DiscreteSet._canonical(self.space, tuple(i for i in self.indices if i in members))

    def difference(self, other: "MeasurableSet") -> "DiscreteSet":
        members = set(self._require_same_space(other).indices)
        return DiscreteSet._canonical(
            self.space, tuple(i for i in self.indices if i not in members)
        )

    def complement(self) -> "DiscreteSet":
        # The one cell of the points of no set in the table of this set.
        return self.space._cell_sets(self.space._tabulate((self,), [-1, 0]))[0]

    __or__ = union
    __and__ = intersection
    __sub__ = difference

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
                lo_key = (lo.numerator / lo.denominator, lo)
                hi_key = (hi.numerator / hi.denominator, hi)
            except OverflowError:  # |x| beyond the floats: far outside [0, 1]
                lo_key = hi_key = None
            if lo_key is None or not _ZERO_KEY <= lo_key <= hi_key <= _ONE_KEY:
                raise ValueError(f"interval [{lo}, {hi}) not inside [0, 1)")
            if lo_key < hi_key:  # degenerate [a, a) is empty and dropped
                keyed.append((*lo_key, *hi_key, 0))
        keyed.sort()
        self.intervals: tuple[tuple[Fraction, Fraction], ...] = _merged(keyed)

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
        if not UNIT_INTERVAL.contains(point):
            raise OutsideDomainError(f"point {point!r} outside [0, 1)")
        k = bisect_right(self.intervals, point, key=_lower_end)
        return k > 0 and point < self.intervals[k - 1][1]

    def endpoints(self) -> Iterator[Fraction]:
        for lo, hi in self.intervals:
            yield lo
            yield hi

    def _require_same_space(self, other: "MeasurableSet") -> "IntervalSet":
        if not isinstance(other, IntervalSet):
            raise SpaceMismatchError("sets belong to different spaces")
        return other

    def union(self, other: "MeasurableSet") -> "IntervalSet":
        return UNIT_INTERVAL.union_of((self, other))

    def intersection(self, other: "MeasurableSet") -> "IntervalSet":
        other = self._require_same_space(other)
        out = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet._canonical(tuple(out))

    def complement(self) -> "IntervalSet":
        # The one cell of the gaps in the table of this set.
        return UNIT_INTERVAL._cell_sets(UNIT_INTERVAL._tabulate((self,), [-1, 0]))[0]

    def difference(self, other: "MeasurableSet") -> "IntervalSet":
        return self.intersection(self._require_same_space(other).complement())

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        parts = ", ".join(f"[{lo}, {hi})" for lo, hi in self.intervals)
        return f"IntervalSet({parts})" if parts else "IntervalSet(empty)"


def _breakpoint_grid(breakpoints: Iterable) -> tuple[Fraction, ...]:
    """The breakpoints through the rational gate, checked to run strictly
    increasing from 0 to 1."""
    bp = tuple(t if type(t) is Fraction else as_rational(t, "breakpoint") for t in breakpoints)
    if len(bp) < 2 or bp[0] != 0 or bp[-1] != 1:
        raise ValueError("breakpoints must run from 0 to 1")
    if any(a >= b for a, b in zip(bp, bp[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    return bp


@dataclass(frozen=True)
class IntervalMeasure:
    """Step-function density against length on [0, 1).

    The density is constant on each cell of the breakpoint grid; unit
    density on a single cell recovers Lebesgue measure.  Total mass is
    always a finite rational.

    `breakpoints` and `densities` keep the cells as given.  Equality and
    the hash use the form with adjacent equal-density cells merged, so
    measures that agree on every set compare equal.
    """

    breakpoints: tuple[Fraction, ...]
    densities: tuple[Fraction, ...]
    # The merged (breakpoints, densities), and the integer table `_masses`
    # reads: (D, G, A, B, E).  With the merged grid over its common
    # denominator D (G[k] = D * grid[k]) and the densities over theirs, E
    # (A[k] = E * density[k]), the mass of [0, x) for grid[k] <= x <
    # grid[k + 1] is (C[k] + A[k] * (D * x - G[k])) / (D * E), where C[k] is
    # the integer D * E * mass of [0, grid[k]); B[k] = C[k] - A[k] * G[k].
    # A closing entry A = 0, B = C[cells] answers x = 1.
    _merged: tuple = field(init=False, repr=False, compare=False)
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bp = _breakpoint_grid(self.breakpoints)
        dens = tuple(as_rational(d, "density") for d in self.densities)
        if len(dens) != len(bp) - 1:
            raise ValueError("need one density per breakpoint cell")
        if any(d < 0 for d in dens):
            raise ValueError("densities must be nonnegative")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "densities", dens)
        grid, steps = [ZERO], []
        for density, hi in zip(dens, bp[1:]):
            if steps and steps[-1] == density:
                grid[-1] = hi
            else:
                steps.append(density)
                grid.append(hi)
        grid_den = lcm(*(t.denominator for t in grid))
        density_den = lcm(*(d.denominator for d in steps))
        points = [t.numerator * (grid_den // t.denominator) for t in grid]
        slopes = [d.numerator * (density_den // d.denominator) for d in steps]
        offsets, below = [], 0
        for k, slope in enumerate(slopes):
            offsets.append(below - slope * points[k])
            below += slope * (points[k + 1] - points[k])
        slopes.append(0)
        offsets.append(below)
        object.__setattr__(self, "_merged", (tuple(grid), tuple(steps)))
        object.__setattr__(
            self,
            "_table",
            (grid_den, tuple(points), tuple(slopes), tuple(offsets), density_den),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalMeasure):
            return NotImplemented
        return self._merged == other._merged

    def __hash__(self) -> int:
        return hash(self._merged)

    @classmethod
    def lebesgue(cls) -> "IntervalMeasure":
        return cls((ZERO, ONE), (ONE,))

    @property
    def space(self) -> UnitIntervalSpace:
        return UNIT_INTERVAL

    @property
    def total_mass(self) -> Fraction:
        grid_den, _, _, offsets, density_den = self._table
        return Fraction(offsets[-1], grid_den * density_den)

    def density_cells(self) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
        for k, density in enumerate(self.densities):
            yield self.breakpoints[k], self.breakpoints[k + 1], density

    def measure_of(self, subset: "MeasurableSet") -> Fraction:
        numerators, denominator = self._masses(UNIT_INTERVAL._tabulate((subset,), [0, -1]))
        return Fraction(numerators[0], denominator)

    def _masses(self, table: "CellTable") -> tuple[list[int], int]:
        """(numerators, denominator): the mass of each cell of an interval
        table is its numerator over one common denominator.

        Every cut x is scaled to the integer X = L * x, with L the lcm of the
        grid's and the cuts' denominators.  One walk along the grid scaled
        by s = L / D, in step with the sorted cuts, finds the cell k of each
        cut, and the mass of [0, x) is (s * B[k] + A[k] * X) / (L * E); a
        piece's mass is the difference at its two cuts.
        """
        grid_den, points, slopes, offsets, density_den = self._table
        cuts = table.cuts
        common = lcm(grid_den, *{x.denominator for x in cuts})
        stretch = common // grid_den
        scaled_grid = [t * stretch for t in points]
        last, k = len(points) - 1, 0
        below = []
        for x in cuts:
            x = x.numerator * (common // x.denominator)
            while k < last and scaled_grid[k + 1] <= x:
                k += 1
            below.append(offsets[k] * stretch + slopes[k] * x)
        pieces = [hi - lo for lo, hi in zip(below, below[1:])]
        return list(map(sum, _by_owner(pieces, table))), common * density_den


MeasurableSet = Union[DiscreteSet, IntervalSet]
Measure = Union[DiscreteSpace, IntervalMeasure]
Space = Union[DiscreteSpace, UnitIntervalSpace]


def space_of(measure: Measure) -> Space:
    """The sample space a measure lives on."""
    if isinstance(measure, DiscreteSpace):
        return measure
    if isinstance(measure, IntervalMeasure):
        return UNIT_INTERVAL
    raise TypeError(f"not a measure: {measure!r}")
