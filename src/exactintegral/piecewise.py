"""Piecewise-affine functions on [0, 1) with exactly solvable level sets.

Breakpoints and coefficients are rationals, so preimages of rational
intervals under each affine piece are rational intervals again: staircase
approximations, sign decompositions and closed-form integrals all stay in
exact arithmetic.  This is the non-simple integrand class of the package.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Iterator

from .rationals import ONE, ZERO
from .spaces import UNIT_INTERVAL, IntervalSet, OutsideDomainError

__all__ = ["PiecewiseLinear"]


class PiecewiseLinear:
    """f(x) = a_j*x + b_j on the j-th half-open cell of a breakpoint grid."""

    def __init__(
        self,
        breakpoints: Iterable[Fraction],
        pieces: Iterable[tuple[Fraction, Fraction]],
    ):
        bp = tuple(Fraction(t) for t in breakpoints)
        coeffs = tuple((Fraction(a), Fraction(b)) for a, b in pieces)
        if len(bp) < 2 or bp[0] != 0 or bp[-1] != 1:
            raise ValueError("breakpoints must run from 0 to 1")
        if any(bp[i] >= bp[i + 1] for i in range(len(bp) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        if len(coeffs) != len(bp) - 1:
            raise ValueError("need one (slope, intercept) pair per cell")
        self.breakpoints = bp
        self.pieces = coeffs

    @classmethod
    def constant(cls, value: Fraction) -> "PiecewiseLinear":
        return cls((ZERO, ONE), ((ZERO, Fraction(value)),))

    @classmethod
    def linear(cls, slope: Fraction, intercept: Fraction = ZERO) -> "PiecewiseLinear":
        return cls((ZERO, ONE), ((Fraction(slope), Fraction(intercept)),))

    @property
    def space(self):
        return UNIT_INTERVAL

    def cells(self) -> Iterator[tuple[Fraction, Fraction, Fraction, Fraction]]:
        """Yield (left, right, slope, intercept) per half-open cell."""
        for j, (a, b) in enumerate(self.pieces):
            yield self.breakpoints[j], self.breakpoints[j + 1], a, b

    def _piece_index(self, x) -> int:
        if not UNIT_INTERVAL.contains(x):
            raise OutsideDomainError(f"point {x!r} outside [0, 1)")
        return bisect_right(self.breakpoints, x) - 1

    def evaluate(self, x: Fraction) -> Fraction:
        a, b = self.pieces[self._piece_index(x)]
        return a * x + b

    def slope_at(self, x: Fraction) -> Fraction:
        return self.pieces[self._piece_index(x)][0]

    def refined(self, cuts: Iterable[Fraction]) -> "PiecewiseLinear":
        """The same function on a grid refined by the given interior points."""
        extra = {Fraction(c) for c in cuts if 0 < c < 1}
        bp = tuple(sorted(set(self.breakpoints) | extra))
        pieces = []
        for i in range(len(bp) - 1):
            j = bisect_right(self.breakpoints, bp[i]) - 1
            pieces.append(self.pieces[j])
        return PiecewiseLinear(bp, pieces)

    def _binary(self, other: "PiecewiseLinear", op) -> "PiecewiseLinear":
        if not isinstance(other, PiecewiseLinear):
            raise TypeError("expected another piecewise-linear function")
        bp = tuple(sorted(set(self.breakpoints) | set(other.breakpoints)))
        left = self.refined(bp)
        right = other.refined(bp)
        pieces = [
            (op(a1, a2), op(b1, b2))
            for (a1, b1), (a2, b2) in zip(left.pieces, right.pieces)
        ]
        return PiecewiseLinear(bp, pieces)

    def __add__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self._binary(other, lambda u, v: u + v)

    def __sub__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self._binary(other, lambda u, v: u - v)

    def __neg__(self) -> "PiecewiseLinear":
        return PiecewiseLinear(self.breakpoints, [(-a, -b) for a, b in self.pieces])

    def scale(self, factor: Fraction) -> "PiecewiseLinear":
        factor = Fraction(factor)
        return PiecewiseLinear(
            self.breakpoints, [(a * factor, b * factor) for a, b in self.pieces]
        )

    def restrict(self, region: IntervalSet) -> "PiecewiseLinear":
        """Pointwise product with the region's indicator (zero outside)."""
        if not isinstance(region, IntervalSet):
            raise TypeError("restriction region must be an IntervalSet")
        refined = self.refined(region.endpoints())
        pieces = []
        for u, w, a, b in refined.cells():
            inside = region.contains((u + w) / 2)
            pieces.append((a, b) if inside else (ZERO, ZERO))
        return PiecewiseLinear(refined.breakpoints, pieces)

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

    def _closure_values(self) -> Iterator[Fraction]:
        for u, w, a, b in self.cells():
            yield a * u + b
            yield a * w + b  # right-limit value; the endpoint itself is excluded

    def upper_bound(self) -> Fraction:
        """Least cell-closure maximum; >= sup f (sup may be unattained)."""
        return max(self._closure_values())

    def lower_bound(self) -> Fraction:
        return min(self._closure_values())

    def is_nonnegative(self) -> bool:
        # Affine per cell, so closure values bound the half-open cell exactly.
        return self.lower_bound() >= 0

    def level_set(self, lower: Fraction, upper: Fraction) -> IntervalSet:
        """{x : lower <= f(x) < upper} as a half-open interval union.

        On cells with negative slope the true preimage is open-closed; the
        returned set uses the package's half-open convention instead and so
        may differ from the preimage at finitely many points, a null set.
        """
        lower, upper = Fraction(lower), Fraction(upper)
        out = []
        for u, w, a, b in self.cells():
            if a == 0:
                if lower <= b < upper:
                    out.append((u, w))
                continue
            bounds = sorted(((lower - b) / a, (upper - b) / a))
            lo, hi = max(u, bounds[0]), min(w, bounds[1])
            if lo < hi:
                out.append((lo, hi))
        return IntervalSet(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewiseLinear):
            return NotImplemented
        bp = tuple(sorted(set(self.breakpoints) | set(other.breakpoints)))
        return self.refined(bp).pieces == other.refined(bp).pieces

    __hash__ = None

    def __repr__(self) -> str:
        parts = ", ".join(
            f"[{u},{w}): {a}*x+{b}" for u, w, a, b in self.cells()
        )
        return f"PiecewiseLinear({parts})"
