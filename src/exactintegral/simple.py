"""Simple functions: finite combinations value * indicator with pairwise-
disjoint sets over one space.

Values are scalars (Fraction) or fixed-dimension rational vectors (Vec).
A function keeps the pairwise-disjoint representation it was built with;
points not covered by any term map to zero.  `canonical()` computes
the unique normal form: distinct values, nonempty sets, and sets that
partition the whole space, a zero-value term padding the complement when
needed.  Equality compares canonical forms, so different representations
of the same function compare equal while their integrals must also agree
(tested as the coherence property).  Against a `PiecewiseLinear` it
returns `NotImplemented`, so that class's `==` answers in both orders;
`+`, `-` and max/min refuse any other class with a `TypeError`.

Costs, for n terms holding K intervals or indices in all, on a discrete
space of N points: a function is a flat cell table (`spaces.CellTable`)
and one value per cell, not one set per cell.  The constructor checks
disjointness while it builds the table of its terms, one cell per term in
term order, a zero value or an empty set included: one keyed sort and one
pass over the intervals (O(K log K)), or one owner array of N entries.  A
scalar cell value is kept as its integer pair (numerator, denominator), a
vector as a `Vec`.  The constructor takes a term set on the very space
object without the space equality, and `_tabulate` makes no compare
where an interval starts at the endpoint object the one before it ended
at.  `canonical()` groups the values of the cells that hold a point by
their reduced pairs, orders the groups by the float n / d and puts only
the runs of equal floats in exact order, by integer cross-products, so it
makes no `Fraction`; it relabels the owners in one pass (merging adjacent
interval pieces of one value), the points of no cell joining the zero
cell.  The binary operations (`+`, `-`, `pointwise_max/min`) pair the two
canonical tables in one linear pass: a zip of the owner arrays on a
discrete space, a two-pointer merge of the cuts on [0, 1) that compares
floats and falls back to the integer cross-products of two cuts only
where their floats are equal.  The distinct cell pairs (i, j) are numbered
in (i, j) order, and each gets one value: a cross-multiplied pair for `+`
and `-` (left unreduced), one of the two pairs for max and min, picked by
integer cross-products, so no `Fraction` is made per cell; vectors keep
their componentwise operations.  The left canonical function keeps its
last pairing (right, table, pairs) in one memo slot keyed by the identity
of the right canonical function, so `f + g` and `f - g` pair once and
share one table, which the measure's own one-slot memo then reads once
(see `spaces`).  A canonical function answers `canonical()` with itself
and holds no reference to itself, so no canonical function is cyclic
garbage.  The unary maps (`-`, `abs`, `scale`,
`pos_part`, `neg_part`, `norm_function`, `component`) map the cell values
and share the table.  `terms` is a cache of the table: the constructor
keeps its own terms, and a derived function builds its sets only when
something reads them (`repr`, `support()`): one pass that collects the
points or pieces per cell.  `evaluate` finds the cell of its point in the
table, by one bisection of the cuts or one index.  Equality compares
canonical tables.  The kind-specific algorithms live on the space
classes, so nothing here branches on the set kind.
`integrate_simple` reads the masses of all cells in one batch from the
measure (integer numerators over one denominator, kept by the measure
for the table it last read) and adds the integer products
value numerator * mass numerator in one loop, grouped by the value's
denominator; the groups go to the lcm-or-tree finish of
`rationals.exact_sum`, so an integral costs one `Fraction` per component,
and the groups are scaled to a denominator common to all values only
while that denominator stays short.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Collection, Iterable, Optional, Union

from .rationals import ZERO, _add_products, _sum_groups, as_rational
from .spaces import (
    CellTable,
    Measure,
    MeasurableSet,
    Space,
    SpaceMismatchError,
    _regrouped,
    _require_point,
    check_integrand_measure,
)

__all__ = [
    "Vec",
    "NormKind",
    "SimpleFunction",
    "integrate_simple",
]


class NormKind(Enum):
    """Vector norms that stay rational on rational vectors."""

    L1 = "L1"
    LINF = "LInf"


@dataclass(frozen=True)
class Vec:
    """Immutable rational vector of fixed dimension d >= 1."""

    components: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coerced = tuple(as_rational(c, "vector component") for c in self.components)
        if not coerced:
            raise ValueError("a vector needs at least one component")
        object.__setattr__(self, "components", coerced)

    @classmethod
    def zero(cls, dim: int) -> "Vec":
        return cls((ZERO,) * dim)

    @property
    def dim(self) -> int:
        return len(self.components)

    def _check_dim(self, other: "Vec") -> None:
        if self.dim != other.dim:
            raise ValueError("vector dimensions differ")

    def __add__(self, other: "Vec") -> "Vec":
        self._check_dim(other)
        return Vec(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "Vec") -> "Vec":
        self._check_dim(other)
        return Vec(tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "Vec":
        return Vec(tuple(-a for a in self.components))

    def scale(self, factor: Fraction) -> "Vec":
        factor = as_rational(factor, "scale factor")
        return Vec(tuple(a * factor for a in self.components))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.components)

    def norm(self, kind: NormKind) -> Fraction:
        if not isinstance(kind, NormKind):
            raise ValueError(f"norm kind {kind!r} is not a NormKind")
        if kind is NormKind.L1:
            return sum((abs(c) for c in self.components), ZERO)
        return max(abs(c) for c in self.components)

    def __repr__(self) -> str:
        return f"Vec({', '.join(str(c) for c in self.components)})"


Value = Union[Fraction, Vec]


def _zero_of(dim: Optional[int]) -> Value:
    """The zero value: a scalar for dim None, else the zero vector of dim."""
    return ZERO if dim is None else Vec.zero(dim)


def _value_is_zero(value: Value) -> bool:
    return value.is_zero if isinstance(value, Vec) else not value.numerator


def _float_of(pair: tuple[int, int]) -> float:
    """n / d for the pair (n, d), d > 0; a value beyond the floats as the
    infinity of its sign."""
    n, d = pair
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


# Orders two (float, (n, d)) entries of equal floats by n/d, exactly.
_exact_order = functools.cmp_to_key(lambda x, y: x[1][0] * y[1][1] - y[1][0] * x[1][1])


def _in_value_order(pairs: Collection) -> list:
    """Distinct reduced pairs (n, d), d > 0, sorted by the value n/d: by the
    float n / d, which is correctly rounded and so monotone, then, only
    within a run of equal floats, by the integer cross-products."""
    try:
        floats = [n / d for n, d in pairs]
    except OverflowError:
        floats = list(map(_float_of, pairs))
    keyed = sorted(zip(floats, pairs))
    if len(set(floats)) < len(floats):
        keyed = [
            entry
            for _, run in itertools.groupby(keyed, key=operator.itemgetter(0))
            for entry in sorted(run, key=_exact_order)
        ]
    return [pair for _, pair in keyed]


def _combined_values(op: str, left: list, right: list, pairs: list) -> list:
    """op(x, y) for each cell (i, j) of `pairs`, x = left[i] and y = right[j]
    the cell values of two tables, which are never empty.

    Vectors are added or subtracted componentwise.  A scalar is an integer
    pair (numerator, denominator): a sum or difference is the
    cross-multiplied pair, left unreduced; max and min compare the integer
    cross-products and pick one of the two pairs (x on a tie, as the
    builtins do).  No `Fraction` is made, and a sum or difference reads
    its two pairs straight off `pairs`, with no list of cells between.
    """
    vector = isinstance(left[0], Vec)
    if op == "+" and not vector:
        return [
            (n * q + m * p, p * q) for i, j in pairs for (n, p), (m, q) in [(left[i], right[j])]
        ]
    if op == "-" and not vector:
        return [
            (n * q - m * p, p * q) for i, j in pairs for (n, p), (m, q) in [(left[i], right[j])]
        ]
    cells = [(left[i], right[j]) for i, j in pairs]
    if vector:
        return [x + y if op == "+" else x - y for x, y in cells]
    if op == "max":
        return [y if y[0] * x[1] > x[0] * y[1] else x for x, y in cells]
    return [y if y[0] * x[1] < x[0] * y[1] else x for x, y in cells]


class SimpleFunction:
    """One pairwise-disjoint representation of a simple function.

    A function is its `spaces.CellTable` and one value per cell, a scalar
    as its integer pair (numerator, denominator) and a vector as a `Vec`.
    The constructor makes one cell per term, in term order, a zero value or
    an empty set included, so `terms` gives back the constructor's terms; a
    derived function (canonical form, `f ± g`, max/min, the unary maps)
    builds its terms from the table only when they are read.  Evaluation,
    the integrals and the staircases read the table.
    """

    def __init__(
        self,
        space: Space,
        terms: Iterable[tuple[Value, MeasurableSet]],
        dim: Optional[int] = None,
    ):
        term_list: list[tuple[Value, MeasurableSet]] = []
        for value, part in terms:
            if type(value) is not Fraction and not isinstance(value, Vec):
                value = as_rational(value, "term value")
            if part.space is not space and part.space != space:
                raise SpaceMismatchError("term set belongs to another space")
            term_list.append((value, part))
        dim = self._resolve_dim(term_list, dim)
        table = space._tabulate([part for _, part in term_list], [*range(len(term_list)), -1])
        if table is None:
            raise ValueError("term sets must be pairwise disjoint")
        values = [v if isinstance(v, Vec) else v.as_integer_ratio() for v, _ in term_list]
        self._start(space, dim, table, values)
        self._terms = tuple(term_list)

    def _start(self, space, dim, table, values) -> None:
        self.space = space
        self.dim = dim
        self._table: CellTable = table
        self._values: list = values
        self._terms: Optional[tuple[tuple[Value, MeasurableSet], ...]] = None
        # The canonical form once made; False on a canonical function, which
        # answers with itself and keeps no reference to itself, so reference
        # counting alone frees it.
        self._canonical: Union["SimpleFunction", None, bool] = None
        # On a canonical function, its last pairing (right, table, pairs):
        # the common refinement with the canonical function `right`.
        self._pairing: Optional[tuple] = None

    @staticmethod
    def _resolve_dim(terms, dim: Optional[int]) -> Optional[int]:
        dims = {value.dim if isinstance(value, Vec) else None for value, _ in terms}
        if len(dims) > 1:
            raise ValueError("all term values must be scalars or vectors of one dimension")
        inferred = dims.pop() if dims else dim
        if inferred is None and dim is not None:
            raise ValueError("declared a vector dimension but the values are scalar")
        if dim is not None and inferred != dim:
            raise ValueError("declared dimension disagrees with the values")
        return inferred

    @classmethod
    def _trusted(cls, space, dim, table: CellTable, values: list) -> "SimpleFunction":
        # Construction from a cell table and one value per cell.
        fn = cls.__new__(cls)
        fn._start(space, dim, table, values)
        return fn

    @classmethod
    def _grouped(cls, space, table: CellTable, values: list, dim) -> "SimpleFunction":
        """The canonical function of the cells of `table`: one cell per
        distinct value that a point holds, in increasing value order, the
        points of no cell joining the zero cell.  Scalars are grouped by
        their reduced integer pairs, which hash far faster than `Fraction`s,
        and ordered by the float n / d, with only runs of equal floats put
        in exact order by integer cross-products (`_in_value_order`), so no
        `Fraction` is made or compared.  Vectors order by their component
        tuples."""
        if dim is None:
            keys = [(n // g, d // g) for n, d in values for g in (math.gcd(n, d),)]
            zero, order = (0, 1), _in_value_order
        else:
            keys = [value.components for value in values]
            zero, order = Vec.zero(dim).components, sorted
        keys.append(zero)  # keys[-1]: the key of owner -1, the points of no cell
        distinct = order({keys[owner] for owner in set(table.owners)})
        rank = dict(zip(distinct, range(len(distinct))))
        table = _regrouped(table, [rank.get(key, -1) for key in keys], len(distinct))
        values = distinct if dim is None else [Vec(key) for key in distinct]
        fn = cls._trusted(space, dim, table, values)
        fn._canonical = False
        return fn

    @classmethod
    def zero(cls, space: Space, dim: Optional[int] = None) -> "SimpleFunction":
        return cls(space, [], dim)

    @classmethod
    def indicator(cls, value: Value, over: MeasurableSet) -> "SimpleFunction":
        """value * 1_over on the set's own space."""
        return cls(over.space, [(value, over)])

    def _require_scalar(self, what: str) -> None:
        if self.dim is not None:
            raise ValueError(f"{what} requires scalar values")

    @property
    def terms(self) -> tuple[tuple[Value, MeasurableSet], ...]:
        """(value, set) pairs, pairwise disjoint, one per cell: the
        constructor's own terms, or built from the table on first read."""
        if self._terms is None:
            values = self._values if self.dim else [Fraction(n, d) for n, d in self._values]
            self._terms = tuple(zip(values, self.space._cell_sets(self._table)))
        return self._terms

    def evaluate(self, point) -> Value:
        """Value at a point of the space, read off the table; zero off every cell."""
        _require_point(self.space, point)
        owner = self.space._owner_at(self._table, point)
        if owner < 0:
            return _zero_of(self.dim)
        value = self._values[owner]
        return value if self.dim else Fraction(*value)

    def canonical(self) -> "SimpleFunction":
        """The unique representation: distinct values, sets partitioning the space."""
        if self._canonical is None:
            self._canonical = self._grouped(self.space, self._table, self._values, self.dim)
        return self._canonical or self

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleFunction):
            return NotImplemented
        if self.space != other.space or self.dim != other.dim:
            return False
        left, right = self.canonical(), other.canonical()
        return (left._table, left._values) == (right._table, right._values)

    __hash__ = None  # representations are mutable-by-construction keys; do not hash

    def _map_values(self, fn: Callable, dim: Optional[int]) -> "SimpleFunction":
        """fn of each cell value as kept (a scalar as its integer pair, the
        result for dimension `dim`), on the same table.  Valid whenever
        fn(0) == 0, so the points of no cell keep the value zero."""
        return SimpleFunction._trusted(self.space, dim, self._table, list(map(fn, self._values)))

    def _combine(self, other: "SimpleFunction", op: str) -> "SimpleFunction":
        """Pointwise `op` ("+", "-", "max" or "min") on the common refinement
        of both canonical tables, one cell per pair of cells that meet.  The
        left canonical function keeps its last refinement, keyed by the
        identity of the right one, so `f + g` and `f - g` pair once and
        share one table."""
        if not isinstance(other, SimpleFunction):
            raise TypeError("expected another simple function")
        if other.space != self.space:
            raise SpaceMismatchError("functions live on different spaces")
        if other.dim != self.dim:
            raise ValueError("functions have different value dimensions")
        left, right = self.canonical(), other.canonical()
        pairing = left._pairing
        if pairing is None or pairing[0] is not right:
            pairing = (right, *self.space._paired(left._table, right._table))
            if right is not left:  # kept on itself, the pairing would be a cycle
                left._pairing = pairing
        _, table, pairs = pairing
        values = _combined_values(op, left._values, right._values, pairs)
        return SimpleFunction._trusted(self.space, self.dim, table, values)

    def __add__(self, other: "SimpleFunction") -> "SimpleFunction":
        return self._combine(other, "+")

    def __sub__(self, other: "SimpleFunction") -> "SimpleFunction":
        return self._combine(other, "-")

    def __neg__(self) -> "SimpleFunction":
        return self._map_values(operator.neg if self.dim else lambda v: (-v[0], v[1]), self.dim)

    def scale(self, factor: Fraction) -> "SimpleFunction":
        factor = as_rational(factor, "scale factor")
        p, q = factor.as_integer_ratio()
        return self._map_values(
            (lambda v: v.scale(factor)) if self.dim else lambda v: (v[0] * p, v[1] * q), self.dim
        )

    def pointwise_max(self, other: "SimpleFunction") -> "SimpleFunction":
        self._require_scalar("pointwise max")
        return self._combine(other, "max")

    def pointwise_min(self, other: "SimpleFunction") -> "SimpleFunction":
        self._require_scalar("pointwise min")
        return self._combine(other, "min")

    def __abs__(self) -> "SimpleFunction":
        self._require_scalar("absolute value")
        return self._map_values(lambda v: (abs(v[0]), v[1]), None)

    def pos_part(self) -> "SimpleFunction":
        """max(0, f); with neg_part it gives f = f+ - f-, |f| = f+ + f-."""
        self._require_scalar("positive part")
        return self._map_values(lambda v: v if v[0] > 0 else (0, 1), None)

    def neg_part(self) -> "SimpleFunction":
        """max(0, -f)."""
        self._require_scalar("negative part")
        return self._map_values(lambda v: (-v[0], v[1]) if v[0] < 0 else (0, 1), None)

    def norm_function(self, kind: Optional[NormKind] = None) -> "SimpleFunction":
        """The scalar function point -> ||f(point)|| (abs for scalar values)."""
        if self.dim is None:
            return abs(self)
        if not isinstance(kind, NormKind):
            raise ValueError("a NormKind is required for vector values")
        return self._map_values(lambda v: v.norm(kind).as_integer_ratio(), None)

    def support(self) -> MeasurableSet:
        """Union of the sets carrying a nonzero value."""
        return self.space.union_of(part for value, part in self.terms if not _value_is_zero(value))

    def component(self, index: int) -> "SimpleFunction":
        """Scalar component of a vector-valued function."""
        if self.dim is None:
            raise ValueError("component() needs vector values")
        if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < self.dim:
            raise ValueError(f"component index {index!r} is not an int in 0..{self.dim - 1}")
        return self._map_values(lambda v: v.components[index].as_integer_ratio(), None)

    def __repr__(self) -> str:
        inner = " + ".join(f"{v}*1_{s!r}" for v, s in self.terms) or "0"
        return f"SimpleFunction({inner})"


def integrate_simple(fn: SimpleFunction, measure: Measure) -> Value:
    """Integral of a simple function: sum of value * measure(cell) over its cells.

    Representation independent (the coherence property); componentwise for
    vector values; a zero value contributes nothing whatever its cell's
    mass.  The masses of all cells are read in one batch, as integer
    numerators over one denominator; for each component one loop adds the
    integer products p * mass numerator of the values p/q, grouped by q
    (`rationals._add_products`), the groups are added over their lcm or in
    the tree (`rationals._sum_groups`), and the sum is one `Fraction`.
    """
    check_integrand_measure(fn, measure)
    table, values = fn._table, fn._values
    numerators, denominator = measure._masses(table)

    def total(pairs) -> Fraction:
        groups: dict[int, int] = {}
        _add_products(pairs, numerators, groups, groups)
        n, d = _sum_groups(groups)
        return Fraction(n, d * denominator)

    if fn.dim is None:
        return total(values)
    return Vec(
        tuple(total([v.components[k].as_integer_ratio() for v in values]) for k in range(fn.dim))
    )
