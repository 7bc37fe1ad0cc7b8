"""Piecewise-affine functions on [0, 1) with exactly solvable level sets.

Breakpoints and coefficients are rationals (an int or a `Fraction`, taken
through `rationals.as_rational`), so preimages of rational intervals
under each affine piece are rational intervals again: staircase
approximations, sign decompositions and closed-form integrals all stay in
exact arithmetic.  This is the non-simple integrand class of the package.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Iterator

from .rationals import ONE, ZERO, as_rational
from .spaces import UNIT_INTERVAL, OutsideDomainError, _breakpoint_grid

__all__ = ["PiecewiseLinear"]


class PiecewiseLinear:
    """f(x) = a_j*x + b_j on the j-th half-open cell of a breakpoint grid."""

    def __init__(
        self,
        breakpoints: Iterable[Fraction],
        pieces: Iterable[tuple[Fraction, Fraction]],
    ):
        bp = _breakpoint_grid(breakpoints)
        coeffs = tuple((as_rational(a, "slope"), as_rational(b, "intercept")) for a, b in pieces)
        if len(coeffs) != len(bp) - 1:
            raise ValueError("need one (slope, intercept) pair per cell")
        self.breakpoints = bp
        self.pieces = coeffs

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
        extra = {c for c in points if 0 < c < 1}
        bp = tuple(sorted(set(self.breakpoints) | extra))
        pieces = []
        for i in range(len(bp) - 1):
            j = bisect_right(self.breakpoints, bp[i]) - 1
            pieces.append(self.pieces[j])
        return PiecewiseLinear(bp, pieces)

    def _aligned(self, other: "PiecewiseLinear") -> tuple:
        """(grid, pieces of self, pieces of other) on the union of both grids."""
        bp = tuple(sorted(set(self.breakpoints) | set(other.breakpoints)))
        return bp, self.refined(bp).pieces, other.refined(bp).pieces

    def _binary(self, other: "PiecewiseLinear", op) -> "PiecewiseLinear":
        if not isinstance(other, PiecewiseLinear):
            raise TypeError("expected another piecewise-linear function")
        bp, left, right = self._aligned(other)
        pieces = [(op(a1, a2), op(b1, b2)) for (a1, b1), (a2, b2) in zip(left, right)]
        return PiecewiseLinear(bp, pieces)

    def __add__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self._binary(other, lambda u, v: u + v)

    def __sub__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self._binary(other, lambda u, v: u - v)

    def __neg__(self) -> "PiecewiseLinear":
        return PiecewiseLinear(self.breakpoints, [(-a, -b) for a, b in self.pieces])

    def scale(self, factor: Fraction) -> "PiecewiseLinear":
        factor = as_rational(factor, "scale factor")
        return PiecewiseLinear(
            self.breakpoints, [(a * factor, b * factor) for a, b in self.pieces]
        )

    def split_at_roots(self) -> "PiecewiseLinear":
        """Refine so no piece changes sign in the interior of its cell."""
        cuts = []
        for u, w, a, b in self.cells():
            if a != 0:
                root = -b / a
                if u < root < w:
                    cuts.append(root)
        return self.refined(cuts)

    def _by_sign(self, positive: int, negative: int) -> "PiecewiseLinear":
        """f split at its roots, each piece scaled by `positive` where f > 0
        and by `negative` elsewhere."""
        split = self.split_at_roots()
        pieces = []
        for u, w, a, b in split.cells():
            factor = positive if a * (u + w) / 2 + b > 0 else negative
            pieces.append((factor * a, factor * b))
        return PiecewiseLinear(split.breakpoints, pieces)

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
        _, left, right = self._aligned(other)
        return left == right

    __hash__ = None

    def __repr__(self) -> str:
        parts = ", ".join(
            f"[{u},{w}): {a}*x+{b}" for u, w, a, b in self.cells()
        )
        return f"PiecewiseLinear({parts})"
