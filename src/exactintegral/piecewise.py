"""Piecewise-affine functions on [0, 1) with exactly solvable level sets.

Breakpoints and coefficients are rationals (an int or a `Fraction`, taken
through `rationals.as_rational`), so preimages of rational intervals
under each affine piece are rational intervals again: staircase
approximations, sign decompositions and closed-form integrals all stay in
exact arithmetic.  This is the non-simple integrand class of the package.

Costs, for functions of m and n pieces:

* `f + g`, `f - g` and `f == g` pair the two breakpoint grids in one
  `UnitIntervalSpace._paired` sweep, each grid read as a gapless cell
  table with one cell per piece: O(m + n) float compares, an exact
  compare only where two floats are equal, plus the numbering of the
  distinct cell pairs; `refined(cuts)` is the same sweep against the
  table of the cuts inside (0, 1), after one sort of those k cuts by
  the endpoint key (float(c), c) of `spaces`;
* `evaluate`: one bisection of the grid, O(log m);
* the root split lives in one walk, `_split_cells`, which yields each cell
  with its two end values and splits a sloped cell whose ends have
  strictly opposite signs at its root -b/a, in O(m); it carries the slope,
  the intercept and the end values as reduced integer pairs (p, q) with
  q > 0, each end value one cross-multiplication and one gcd
  (`_affine_pair`), and makes a `Fraction` only for a root, which becomes
  a cut; `split_at_roots`, `pos_part`, `neg_part` and `absolute` rebuild
  the function from it, and `lebesgue` lowers an integrand's sloped
  pieces from it;
* the results of `+`, `-`, `-f`, `scale`, `refined` and the root split
  come from the trusted `_trusted` constructor: their grids and
  coefficients are built from checked ones, so the public constructor's
  checks are not run again.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator

from .rationals import ONE, ZERO, as_rational
from .spaces import UNIT_INTERVAL, CellTable, OutsideDomainError, _breakpoint_grid

__all__ = ["PiecewiseLinear"]


class PiecewiseLinear:
    """f(x) = a_j*x + b_j on the j-th half-open cell of a breakpoint grid."""

    def __init__(
        self,
        breakpoints: Iterable[Fraction],
        pieces: Iterable[tuple[Fraction, Fraction]],
    ):
        bp, _ = _breakpoint_grid(breakpoints)
        coeffs = tuple((as_rational(a, "slope"), as_rational(b, "intercept")) for a, b in pieces)
        if len(coeffs) != len(bp) - 1:
            raise ValueError("need one (slope, intercept) pair per cell")
        self.breakpoints = bp
        self.pieces = coeffs

    @classmethod
    def _trusted(cls, breakpoints: tuple, pieces: tuple) -> "PiecewiseLinear":
        # Trusted: a derived result, whose breakpoints run strictly
        # increasing from 0 to 1 and whose coefficients are Fractions, one
        # pair per cell.
        fn = cls.__new__(cls)
        fn.breakpoints = breakpoints
        fn.pieces = pieces
        return fn

    @classmethod
    def constant(cls, value: Fraction) -> "PiecewiseLinear":
        return cls((ZERO, ONE), ((ZERO, value),))

    @classmethod
    def linear(cls, slope: Fraction, intercept: Fraction = ZERO) -> "PiecewiseLinear":
        return cls((ZERO, ONE), ((slope, intercept),))

    @property
    def space(self):
        return UNIT_INTERVAL

    def cells(self) -> Iterator[tuple[Fraction, Fraction, Fraction, Fraction]]:
        """Yield (left, right, slope, intercept) per half-open cell."""
        for j, (a, b) in enumerate(self.pieces):
            yield self.breakpoints[j], self.breakpoints[j + 1], a, b

    def evaluate(self, x: Fraction) -> Fraction:
        if not UNIT_INTERVAL.contains(x):
            raise OutsideDomainError(f"point {x!r} outside [0, 1)")
        a, b = self.pieces[bisect_right(self.breakpoints, x) - 1]
        return a * x + b

    def refined(self, cuts: Iterable[Fraction]) -> "PiecewiseLinear":
        """The same function on a grid refined by the given interior points."""
        points = (as_rational(c, "cut") for c in cuts)
        inside = {c for c in points if 0 < c.numerator < c.denominator}
        grid = (ZERO, *sorted(inside, key=lambda c: (c.numerator / c.denominator, c)), ONE)
        table, cells = UNIT_INTERVAL._paired(_gapless(self.breakpoints), _gapless(grid))
        return PiecewiseLinear._trusted(table.cuts, tuple(self.pieces[i] for i, _ in cells))

    def _aligned(self, other: "PiecewiseLinear") -> tuple:
        """(grid, pairs): the union of both grids and, per cell of it, the
        pieces of self and of other there."""
        grids = _gapless(self.breakpoints), _gapless(other.breakpoints)
        table, cells = UNIT_INTERVAL._paired(*grids)
        return table.cuts, [(self.pieces[i], other.pieces[j]) for i, j in cells]

    def _binary(self, other: "PiecewiseLinear", op) -> "PiecewiseLinear":
        if not isinstance(other, PiecewiseLinear):
            raise TypeError("expected another piecewise-linear function")
        bp, pairs = self._aligned(other)
        return PiecewiseLinear._trusted(
            bp, tuple((op(a1, a2), op(b1, b2)) for (a1, b1), (a2, b2) in pairs)
        )

    def __add__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self._binary(other, lambda u, v: u + v)

    def __sub__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self._binary(other, lambda u, v: u - v)

    def __neg__(self) -> "PiecewiseLinear":
        return PiecewiseLinear._trusted(self.breakpoints, tuple((-a, -b) for a, b in self.pieces))

    def scale(self, factor: Fraction) -> "PiecewiseLinear":
        factor = as_rational(factor, "scale factor")
        return PiecewiseLinear._trusted(
            self.breakpoints, tuple((a * factor, b * factor) for a, b in self.pieces)
        )

    def _split_cells(self) -> Iterator[tuple]:
        """Yield (u, w, a, b, (f(u), f(w-))) per cell, f(w-) the limit at
        the right end: the cut points u and w as `Fraction`s, the slope a,
        the intercept b and the two end values as reduced integer pairs
        (p, q), q > 0.  A sloped cell whose two end values have strictly
        opposite signs is yielded as its two halves on either side of its
        root -b/a, the one `Fraction` made, so no yielded cell changes sign
        inside."""
        bp = self.breakpoints
        ratios = [t.as_integer_ratio() for t in bp]
        for j, (a, b) in enumerate(self.pieces):
            a, b = a.as_integer_ratio(), b.as_integer_ratio()
            if not a[0]:
                yield bp[j], bp[j + 1], a, b, (b, b)
                continue
            u = bp[j]
            y_u, y_w = _affine_pair(a, b, *ratios[j]), _affine_pair(a, b, *ratios[j + 1])
            if y_u[0] * y_w[0] < 0:
                root = Fraction(-b[0] * a[1], b[1] * a[0])
                yield u, root, a, b, (y_u, (0, 1))
                u, y_u = root, (0, 1)
            yield u, bp[j + 1], a, b, (y_u, y_w)

    def split_at_roots(self) -> "PiecewiseLinear":
        """Refine so no piece changes sign in the interior of its cell."""
        return self._by_sign(1, 1)

    def _by_sign(self, positive: int, negative: int) -> "PiecewiseLinear":
        """f split at its roots, each piece scaled by `positive` where f > 0
        and by `negative` elsewhere.  A split cell does not change sign
        inside, so f > 0 on it iff f > 0 at one of its ends."""
        bp, pieces = [ZERO], []
        for _, w, (an, ad), (bn, bd), (y_u, y_w) in self._split_cells():
            factor = positive if y_u[0] > 0 or y_w[0] > 0 else negative
            bp.append(w)
            pieces.append((Fraction(factor * an, ad), Fraction(factor * bn, bd)))
        return PiecewiseLinear._trusted(tuple(bp), tuple(pieces))

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
        if not isinstance(other, PiecewiseLinear):
            return NotImplemented
        _, pairs = self._aligned(other)
        return all(left == right for left, right in pairs)

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


def _gapless(grid: tuple) -> CellTable:
    """A strictly increasing grid from 0 to 1 as a cell table, one cell per
    piece, as `UnitIntervalSpace._paired` reads it."""
    return CellTable(range(len(grid) - 1), len(grid) - 1, grid)
