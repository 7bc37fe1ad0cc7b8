"""Simple functions: finite combinations value * indicator with pairwise-
disjoint sets over one space.

Values are scalars (Fraction) or fixed-dimension rational vectors (Vec).
A function keeps whatever pairwise-disjoint representation it was built
with; points not covered by any term map to zero.  `canonical()` computes
the unique normal form: distinct values, nonempty sets, and sets that
partition the whole space, a zero-value term padding the complement when
needed.  Equality compares canonical forms, so different representations
of the same function compare equal while their integrals must also agree
(tested as the coherence property).

Costs, for n terms holding K intervals or indices in all: the constructor
checks disjointness by one sort-and-scan of the intervals (O(K log K)) or
one count of the indices; `canonical()` and `support()` build each set
with one n-ary union and the zero-padding complement once; the binary
operations (`+`, `-`, `pointwise_max/min`) refine the two canonical
partitions in one sweep, O(K log K) for intervals and O(N) on a discrete
space of N points, instead of intersecting every pair of terms.  The
interval sorts and sweeps compare endpoints by their floats and fall back
to an exact `Fraction` compare only where two floats are equal (see
`spaces`), so most of the K log K comparisons run in C.  Values are
`Fraction`s at the API, but the per-value and per-cell loops work on their
integer pairs (numerator, denominator): `canonical()` groups the values
by their pairs and orders them by the float-first key (float(x), x) of
the endpoints; on scalars `+` and `-` make each cell's value as one
`Fraction` from the cross-multiplied pairs, and max and min pick one of
the two values by comparing integer cross-products.  So no `Fraction`
operator runs per value or per cell; vector values keep their
componentwise operations.  The kind-specific algorithms live on the
space classes, so nothing here branches on the set kind.
`integrate_simple` reads the masses of all nonzero terms in one batch
from the measure (integer numerators over one denominator) and hands the
integer products value * mass, each over its value's own denominator, to
`rationals.exact_sum`, so an integral costs one `Fraction` per component,
not one `measure_of` and one normalised product per term, and no product
is scaled to a denominator common to all values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional, Union

from .rationals import ZERO, as_rational, exact_sum
from .spaces import (
    Measure,
    MeasurableSet,
    OutsideDomainError,
    Space,
    SpaceMismatchError,
    space_of,
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
        if kind is NormKind.L1:
            return sum((abs(c) for c in self.components), ZERO)
        return max(abs(c) for c in self.components)

    def __repr__(self) -> str:
        return f"Vec({', '.join(str(c) for c in self.components)})"


Value = Union[Fraction, Vec]


def _zero_value(dim: Optional[int]) -> Value:
    return ZERO if dim is None else Vec.zero(dim)


def _value_is_zero(value: Value) -> bool:
    return value.is_zero if isinstance(value, Vec) else not value.numerator


def _scale_value(value: Value, factor: Fraction) -> Value:
    return value.scale(factor) if isinstance(value, Vec) else value * factor


def _value_norm(value: Value, kind: Optional[NormKind]) -> Fraction:
    if isinstance(value, Vec):
        if kind is None:
            raise ValueError("a NormKind is required for vector values")
        return value.norm(kind)
    return abs(value)


def _order_key(value: Value):
    """The exact order key of a value: for a scalar x, (float(x), x), the
    float-first key `spaces` orders endpoints by (a value beyond the floats
    keys as the infinity of its sign); for a vector, its components."""
    if isinstance(value, Vec):
        return value.components
    n, d = value.numerator, value.denominator
    try:
        return (n / d, value)
    except OverflowError:
        return (math.inf if n > 0 else -math.inf, value)


def _by_value(terms: Iterable[tuple[Value, MeasurableSet]]) -> list[tuple[Value, list]]:
    """(value, parts) for each distinct value of `terms`, in increasing
    value order.  A scalar is grouped by its integer pair (numerator,
    denominator), which hashes far faster than the `Fraction`, and the
    groups are sorted by `_order_key`."""
    groups: dict = {}
    for value, part in terms:
        key = value.components if isinstance(value, Vec) else (value.numerator, value.denominator)
        group = groups.get(key)
        if group is None:
            groups[key] = (value, [part])
        else:
            group[1].append(part)
    return sorted(groups.values(), key=lambda group: _order_key(group[0]))


def _combine_scalars(op: str, left: tuple, right: tuple, cells: list) -> list:
    """op(x, y) for each cell (i, j, _), x and y the values of the terms
    left[i] and right[j], on the values' integer pairs.

    A sum or difference is one `Fraction` made from the cross-multiplied
    pair, not a `Fraction` operator call; max and min compare the integer
    cross-products and pick one of the two existing values (x on a tie, as
    the builtins do), so they make no new `Fraction`.
    """
    a = [(x.numerator, x.denominator, x) for x, _ in left]
    b = [(y.numerator, y.denominator, y) for y, _ in right]
    pairs = [(a[i], b[j]) for i, j, _ in cells]
    if op == "+":
        return [Fraction(n * q + m * p, p * q) for (n, p, _), (m, q, _) in pairs]
    if op == "-":
        return [Fraction(n * q - m * p, p * q) for (n, p, _), (m, q, _) in pairs]
    if op == "max":
        return [y if m * p > n * q else x for (n, p, x), (m, q, y) in pairs]
    return [y if m * p < n * q else x for (n, p, x), (m, q, y) in pairs]


class SimpleFunction:
    """One pairwise-disjoint representation of a simple function."""

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
            if part.space != space:
                raise SpaceMismatchError("term set belongs to another space")
            term_list.append((value, part))
        self.space = space
        self.dim = self._resolve_dim(term_list, dim)
        if len(term_list) > 1 and not space._pairwise_disjoint([p for _, p in term_list]):
            raise ValueError("term sets must be pairwise disjoint")
        self.terms: tuple[tuple[Value, MeasurableSet], ...] = tuple(term_list)
        self._canonical: Optional["SimpleFunction"] = None

    @staticmethod
    def _resolve_dim(terms, dim: Optional[int]) -> Optional[int]:
        dims = {value.dim if isinstance(value, Vec) else None for value, _ in terms}
        if len(dims) > 1:
            raise ValueError("all term values must be scalars or vectors of one dimension")
        if not dims:
            return dim
        inferred = dims.pop()
        if inferred is None:
            if dim is not None:
                raise ValueError("declared a vector dimension but the values are scalar")
            return None
        if dim is not None and inferred != dim:
            raise ValueError("declared dimension disagrees with the values")
        return inferred

    @classmethod
    def _trusted(cls, space, terms, dim) -> "SimpleFunction":
        # Construction from cells already known to be pairwise disjoint.
        fn = cls.__new__(cls)
        fn.space = space
        fn.dim = dim
        fn.terms = tuple(terms)
        fn._canonical = None
        return fn

    @classmethod
    def zero(cls, space: Space, dim: Optional[int] = None) -> "SimpleFunction":
        return cls(space, [], dim)

    @classmethod
    def indicator(cls, value: Value, over: MeasurableSet) -> "SimpleFunction":
        """value * 1_over on the set's own space."""
        return cls(over.space, [(value, over)])

    @property
    def is_vector(self) -> bool:
        return self.dim is not None

    def _zero(self) -> Value:
        return _zero_value(self.dim)

    def _require_scalar(self, what: str) -> None:
        if self.is_vector:
            raise ValueError(f"{what} requires scalar values")

    def _require_compatible(self, other: "SimpleFunction") -> None:
        if not isinstance(other, SimpleFunction) or other.space != self.space:
            raise SpaceMismatchError("functions live on different spaces")
        if other.dim != self.dim:
            raise ValueError("functions have different value dimensions")

    def evaluate(self, point) -> Value:
        """Value at a point of the space; zero off every term set."""
        if not self.space.contains(point):
            raise OutsideDomainError(f"point {point!r} outside the space")
        for value, part in self.terms:
            if part.contains(point):
                return value
        return self._zero()

    def canonical(self) -> "SimpleFunction":
        """The unique representation: distinct values, sets partitioning the space."""
        if self._canonical is not None:
            return self._canonical
        live = [
            (value, part)
            for value, part in self.terms
            if not (_value_is_zero(value) or part.is_empty)
        ]
        union_of = self.space.union_of
        rest = union_of(part for _, part in live).complement()
        if not rest.is_empty:
            live.append((self._zero(), rest))
        terms = [(value, union_of(parts)) for value, parts in _by_value(live)]
        result = SimpleFunction._trusted(self.space, terms, self.dim)
        result._canonical = result
        self._canonical = result
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleFunction):
            return NotImplemented
        if self.space != other.space or self.dim != other.dim:
            return False
        return self.canonical().terms == other.canonical().terms

    __hash__ = None  # representations are mutable-by-construction keys; do not hash

    def _map_values(self, fn: Callable[[Value], Value], dim: Optional[int]) -> "SimpleFunction":
        # Valid whenever fn(0) == 0, so the implicit off-support zero is preserved.
        return SimpleFunction._trusted(
            self.space, [(fn(v), s) for v, s in self.terms], dim
        )

    def _combine(self, other: "SimpleFunction", op: str) -> "SimpleFunction":
        """Pointwise `op` ("+", "-", "max" or "min") on the common refinement
        of both canonical partitions."""
        self._require_compatible(other)
        left, right = self.canonical().terms, other.canonical().terms
        cells = self.space._refinement([a for _, a in left], [b for _, b in right])
        if self.dim is None:
            values = _combine_scalars(op, left, right, cells)
        else:  # vectors: componentwise `+` and `-`
            vec_op = operator.add if op == "+" else operator.sub
            values = [vec_op(left[i][0], right[j][0]) for i, j, _ in cells]
        terms = [(value, cell) for value, (_, _, cell) in zip(values, cells)]
        return SimpleFunction._trusted(self.space, terms, self.dim)

    def __add__(self, other: "SimpleFunction") -> "SimpleFunction":
        return self._combine(other, "+")

    def __sub__(self, other: "SimpleFunction") -> "SimpleFunction":
        return self._combine(other, "-")

    def __neg__(self) -> "SimpleFunction":
        return self._map_values(operator.neg, self.dim)

    def scale(self, factor: Fraction) -> "SimpleFunction":
        factor = as_rational(factor, "scale factor")
        return self._map_values(lambda v: _scale_value(v, factor), self.dim)

    def pointwise_max(self, other: "SimpleFunction") -> "SimpleFunction":
        self._require_scalar("pointwise max")
        return self._combine(other, "max")

    def pointwise_min(self, other: "SimpleFunction") -> "SimpleFunction":
        self._require_scalar("pointwise min")
        return self._combine(other, "min")

    def __abs__(self) -> "SimpleFunction":
        self._require_scalar("absolute value")
        return self._map_values(abs, None)

    def pos_part(self) -> "SimpleFunction":
        """max(0, f); with neg_part it gives f = f+ - f-, |f| = f+ + f-."""
        self._require_scalar("positive part")
        return self._map_values(lambda v: max(v, ZERO), None)

    def neg_part(self) -> "SimpleFunction":
        """max(0, -f)."""
        self._require_scalar("negative part")
        return self._map_values(lambda v: max(-v, ZERO), None)

    def norm_function(self, kind: Optional[NormKind] = None) -> "SimpleFunction":
        """The scalar function point -> ||f(point)|| (abs for scalar values)."""
        return self._map_values(lambda v: _value_norm(v, kind), None)

    def support(self) -> MeasurableSet:
        """Union of the sets carrying a nonzero value."""
        return self.space.union_of(
            part for value, part in self.terms if not _value_is_zero(value)
        )

    def component(self, index: int) -> "SimpleFunction":
        """Scalar component of a vector-valued function."""
        if not self.is_vector:
            raise ValueError("component() needs vector values")
        return self._map_values(lambda v: v.components[index], None)

    def __repr__(self) -> str:
        inner = " + ".join(f"{v}*1_{s!r}" for v, s in self.terms) or "0"
        return f"SimpleFunction({inner})"


def integrate_simple(fn: SimpleFunction, measure: Measure) -> Value:
    """Integral of a simple function: sum of value * measure(set) over terms.

    Representation independent (the coherence property); componentwise for
    vector values; a zero value contributes nothing whatever its set's mass.
    The masses of all nonzero terms are read in one batch, as integer
    numerators over one denominator, and each component of the integral is
    one `exact_sum` of the integer products over the values' denominators,
    made into one `Fraction`.
    """
    if space_of(measure) != fn.space:
        raise SpaceMismatchError("function and measure live on different spaces")
    terms = [(value, part) for value, part in fn.terms if not _value_is_zero(value)]
    numerators, denominator = measure._masses([part for _, part in terms])

    def total(values) -> Fraction:
        n, d = exact_sum((v.numerator * m, v.denominator) for v, m in zip(values, numerators))
        return Fraction(n, d * denominator)

    if fn.dim is None:
        return total(value for value, _ in terms)
    return Vec(
        tuple(total(value.components[k] for value, _ in terms) for k in range(fn.dim))
    )
