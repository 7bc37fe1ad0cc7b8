"""Piecewise-affine functions on [0, 1) with exactly solvable level sets.

Breakpoints and coefficients are rationals (an int or a `Fraction`, taken
through `rationals.as_rational`), so preimages of rational intervals
under each affine piece are rational intervals again: staircase
approximations, sign decompositions and closed-form integrals all stay in
exact arithmetic.  This is the non-simple integrand class of the package.

A function is stored as a `SimpleFunction` is: a gapless cell table
(`spaces.CellTable`) whose cuts are the breakpoints, and one value per
cell, here the pair (slope, intercept) of `Fraction`s.  The constructor
makes one cell per piece; a derived result may give one cell to several
pieces.  `breakpoints` and `pieces` are read off the table.

Costs, for functions of m and n pieces:

* `f + g`, `f - g` and `f == g` pair the two stored tables in one
  `UnitIntervalSpace._paired` sweep: O(m + n) float compares, an exact
  compare only where two floats are equal, plus the numbering of the
  distinct cell pairs, and one value per cell pair; `refined(cuts)` is
  the same sweep against a one-cell table of the cuts inside (0, 1),
  after one sort of those k cuts by the endpoint key (float(c), c) of
  `spaces`, and keeps the values as they are; `f == s` for a scalar
  simple function s on [0, 1) is the same sweep against the canonical
  table of s, whose flat value v equals the affine value (0, v);
* `-f` and `scale` map the values on the same table;
* `evaluate`: one bisection of the cuts, O(log m);
* the root split lives in one walk, `_split_cells`, which yields each
  piece with its two end values and splits a sloped piece whose ends have
  strictly opposite signs at its root -b/a, in O(m); it carries the slope,
  the intercept and the end values as reduced integer pairs (p, q) with
  q > 0, each end value one cross-multiplication and one gcd
  (`_affine_pair`), and makes a `Fraction` only for a root, which becomes
  a cut; `split_at_roots`, `pos_part`, `neg_part` and `absolute` rebuild
  the function from it, and `lebesgue` lowers an integrand's sloped
  pieces from it;
* the results of `+`, `-`, `-f`, `scale`, `refined` and the root split
  come from the trusted `_trusted` constructor: their tables and values
  are built from checked ones, so the public constructor's checks are not
  run again.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator

from .rationals import ONE, ZERO, as_rational
from .simple import SimpleFunction
from .spaces import UNIT_INTERVAL, CellTable, _breakpoint_grid, _require_point

__all__ = ["PiecewiseLinear"]


class PiecewiseLinear:
    """f(x) = a_j*x + b_j on the j-th half-open cell of a breakpoint grid."""

    space = UNIT_INTERVAL
    dim = None  # scalar values, as a scalar `SimpleFunction` has

    def __init__(
        self,
        breakpoints: Iterable[Fraction],
        pieces: Iterable[tuple[Fraction, Fraction]],
    ):
        bp, _ = _breakpoint_grid(breakpoints)
        coeffs = [(as_rational(a, "slope"), as_rational(b, "intercept")) for a, b in pieces]
        if len(coeffs) != len(bp) - 1:
            raise ValueError("need one (slope, intercept) pair per cell")
        self._table = CellTable(range(len(coeffs)), len(coeffs), bp)
        self._values = coeffs

    @classmethod
    def _trusted(cls, table: CellTable, values: list) -> "PiecewiseLinear":
        # Trusted: a derived result, whose table is gapless with cuts
        # strictly increasing from 0 to 1 and holds a piece in every cell,
        # and whose values are pairs of Fractions, one per cell.
        fn = cls.__new__(cls)
        fn._table, fn._values = table, values
        return fn

    @classmethod
    def constant(cls, value: Fraction) -> "PiecewiseLinear":
        return cls((ZERO, ONE), ((ZERO, value),))

    @classmethod
    def linear(cls, slope: Fraction, intercept: Fraction = ZERO) -> "PiecewiseLinear":
        return cls((ZERO, ONE), ((slope, intercept),))

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """The cuts of the table: 0, the breakpoints inside, 1."""
        return self._table.cuts

    @property
    def pieces(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """One (slope, intercept) pair per piece between two breakpoints."""
        return tuple(map(self._values.__getitem__, self._table.owners))

    def cells(self) -> Iterator[tuple[Fraction, Fraction, Fraction, Fraction]]:
        """Yield (left, right, slope, intercept) per half-open piece."""
        cuts = self._table.cuts
        return ((u, w, a, b) for u, w, (a, b) in zip(cuts, cuts[1:], self.pieces))

    def evaluate(self, x: Fraction) -> Fraction:
        _require_point(UNIT_INTERVAL, x)
        a, b = self._values[UNIT_INTERVAL._owner_at(self._table, x)]
        return a * x + b

    def refined(self, cuts: Iterable[Fraction]) -> "PiecewiseLinear":
        """The same function on a grid refined by the given interior points."""
        points = (as_rational(c, "cut") for c in cuts)
        inside = {c for c in points if 0 < c.numerator < c.denominator}
        grid = (ZERO, *sorted(inside, key=lambda c: (c.numerator / c.denominator, c)), ONE)
        # The table of the cuts has one cell, so each cell i of f becomes
        # cell i of the refinement, and the values stay as they are.
        table, _ = UNIT_INTERVAL._paired(self._table, CellTable([0] * (len(grid) - 1), 1, grid))
        return self._trusted(table, self._values)

    def _binary(self, other: "PiecewiseLinear", op) -> "PiecewiseLinear":
        if not isinstance(other, PiecewiseLinear):
            raise TypeError("expected another piecewise-linear function")
        table, cells = UNIT_INTERVAL._paired(self._table, other._table)
        pairs = [(self._values[i], other._values[j]) for i, j in cells]
        return self._trusted(table, [(op(a1, a2), op(b1, b2)) for (a1, b1), (a2, b2) in pairs])

    def __add__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self._binary(other, lambda u, v: u + v)

    def __sub__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self._binary(other, lambda u, v: u - v)

    def __neg__(self) -> "PiecewiseLinear":
        return self._trusted(self._table, [(-a, -b) for a, b in self._values])

    def scale(self, factor: Fraction) -> "PiecewiseLinear":
        factor = as_rational(factor, "scale factor")
        return self._trusted(self._table, [(a * factor, b * factor) for a, b in self._values])

    def _split_cells(self) -> Iterator[tuple]:
        """Yield (u, w, a, b, (f(u), f(w-))) per piece, f(w-) the limit at
        the right end: the cut points u and w as `Fraction`s, the slope a,
        the intercept b and the two end values as reduced integer pairs
        (p, q), q > 0.  A sloped piece whose two end values have strictly
        opposite signs is yielded as its two halves on either side of its
        root -b/a, the one `Fraction` made, so no yielded piece changes
        sign inside."""
        cuts = self._table.cuts
        ratios = [t.as_integer_ratio() for t in cuts]
        values = [(a.as_integer_ratio(), b.as_integer_ratio()) for a, b in self._values]
        for j, (a, b) in enumerate(map(values.__getitem__, self._table.owners)):
            if not a[0]:
                yield cuts[j], cuts[j + 1], a, b, (b, b)
                continue
            u = cuts[j]
            y_u, y_w = _affine_pair(a, b, *ratios[j]), _affine_pair(a, b, *ratios[j + 1])
            if y_u[0] * y_w[0] < 0:
                root = Fraction(-b[0] * a[1], b[1] * a[0])
                yield u, root, a, b, (y_u, (0, 1))
                u, y_u = root, (0, 1)
            yield u, cuts[j + 1], a, b, (y_u, y_w)

    def split_at_roots(self) -> "PiecewiseLinear":
        """Refine so no piece changes sign in the interior of its cell."""
        return self._by_sign(1, 1)

    def _by_sign(self, positive: int, negative: int) -> "PiecewiseLinear":
        """f split at its roots, each piece scaled by `positive` where f > 0
        and by `negative` elsewhere.  A split piece does not change sign
        inside, so f > 0 on it iff f > 0 at one of its ends."""
        bp, pieces = [ZERO], []
        for _, w, (an, ad), (bn, bd), (y_u, y_w) in self._split_cells():
            factor = positive if y_u[0] > 0 or y_w[0] > 0 else negative
            bp.append(w)
            pieces.append((Fraction(factor * an, ad), Fraction(factor * bn, bd)))
        return self._trusted(CellTable(range(len(pieces)), len(pieces), tuple(bp)), pieces)

    def pos_part(self) -> "PiecewiseLinear":
        """max(0, f), again piecewise linear."""
        return self._by_sign(1, 0)

    def neg_part(self) -> "PiecewiseLinear":
        """max(0, -f)."""
        return self._by_sign(0, -1)

    def absolute(self) -> "PiecewiseLinear":
        """|f|: negative-sign cells flipped after splitting at roots."""
        return self._by_sign(1, -1)

    def __eq__(self, other) -> bool:
        """Equal as functions on [0, 1): to another piecewise-linear
        function, or to a scalar simple function on [0, 1), whose flat
        value v is the affine value (0, v) of its canonical cell.  A simple
        function of another space or of vector values is unequal."""
        if isinstance(other, SimpleFunction):
            if other.space != UNIT_INTERVAL or other.dim is not None:
                return False
            flat = other.canonical()
            other = self._trusted(flat._table, [(ZERO, Fraction(*v)) for v in flat._values])
        if not isinstance(other, PiecewiseLinear):
            return NotImplemented
        _, cells = UNIT_INTERVAL._paired(self._table, other._table)
        return all(self._values[i] == other._values[j] for i, j in cells)

    __hash__ = None

    def __repr__(self) -> str:
        parts = ", ".join(
            f"[{u},{w}): {a}*x+{b}" for u, w, a, b in self.cells()
        )
        return f"PiecewiseLinear({parts})"


def _affine_pair(a: tuple, b: tuple, xn: int, xd: int) -> tuple[int, int]:
    """a*x + b at x = xn/xd, xd > 0, as a reduced integer pair (p, q) with
    q > 0, the slope a and the intercept b given as integer pairs with
    positive denominators: one cross-multiplication and one gcd."""
    (an, ad), (bn, bd) = a, b
    p, q = an * xn * bd + bn * ad * xd, ad * xd * bd
    g = gcd(p, q)
    return p // g, q // g
