"""Independent integration oracles for the tests.

These deliberately avoid the library's closed-form integration paths: they
only call `evaluate` pointwise.  Midpoint quadrature on a grid refined by
every breakpoint is exact for integrands that are affine (or constant) per
cell, which covers both integrand classes here; discrete spaces are
integrated by full enumeration.
"""

from __future__ import annotations

from fractions import Fraction

from exactintegral import (
    DiscreteSpace,
    IntervalMeasure,
    PiecewiseLinear,
    SimpleFunction,
    Vec,
)

ZERO = Fraction(0)


def _interval_grid(fn, measure: IntervalMeasure) -> list[Fraction]:
    points = set(measure.breakpoints)
    if isinstance(fn, PiecewiseLinear):
        points.update(fn.breakpoints)
    else:
        for _, part in fn.terms:
            points.update(part.endpoints())
    points.update((ZERO, Fraction(1)))
    return sorted(points)


def _density_at(measure: IntervalMeasure, x: Fraction) -> Fraction:
    for lo, hi, d in measure.density_cells():
        if lo <= x < hi:
            return d
    raise AssertionError(f"no density cell contains {x}")


def integral_oracle(fn, measure):
    """Integral by enumeration (discrete) or exact midpoint quadrature (interval)."""
    if isinstance(measure, DiscreteSpace):
        total = None
        for point in range(measure.size):
            contribution = _scale(fn.evaluate(point), measure.weights[point])
            total = contribution if total is None else total + contribution
        return total
    grid = _interval_grid(fn, measure)
    total = None
    for lo, hi in zip(grid, grid[1:]):
        mid = (lo + hi) / 2
        contribution = _scale(fn.evaluate(mid), _density_at(measure, mid) * (hi - lo))
        total = contribution if total is None else total + contribution
    return total


def _scale(value, factor: Fraction):
    if isinstance(value, Vec):
        return value.scale(factor)
    return value * factor


def measure_oracle(measure, part) -> Fraction:
    """Measure of a set as the integral of its indicator, via the oracle."""
    one = Fraction(1)
    indicator = SimpleFunction.indicator(one, part)
    return integral_oracle(indicator, measure)


def _staircase_value(value: Fraction, level: int) -> Fraction:
    scale = 1 << level
    return min(Fraction(level), Fraction((value.numerator * scale) // value.denominator, scale))


def _staircase_antiderivative(y: Fraction, cap_index: int) -> Fraction:
    """Integral of t -> min(cap_index, floor(t)) from 0 to y, for y >= 0."""
    if y > cap_index + 1:
        head = Fraction(cap_index * (cap_index + 1), 2)
        return head + cap_index * (y - cap_index - 1)
    k = y.numerator // y.denominator
    return Fraction(k * (k - 1), 2) + k * (y - k)


def staircase_integral_oracle(fn, measure, level: int) -> Fraction:
    """Integral of the level-n staircase of a nonnegative integrand.

    The per-cell `Fraction` formula: simple terms weigh their staircase
    value by the oracle measure of their set; piecewise-linear cells of the
    merged function/measure grid integrate the capped floor through its
    antiderivative (an arithmetic series), one cell at a time.
    """
    if isinstance(fn, SimpleFunction):
        total = ZERO
        for value, part in fn.terms:
            stair = _staircase_value(value, level)
            if stair != 0:
                total += stair * measure_oracle(measure, part)
        return total
    scale = 1 << level
    cap_index = level * scale
    total = ZERO
    grid = _interval_grid(fn, measure)
    for lo, hi in zip(grid, grid[1:]):
        a = fn.slope_at(lo)
        b = fn.evaluate(lo) - a * lo
        d = _density_at(measure, lo)
        if d == 0:
            continue
        if a == 0:
            total += d * (hi - lo) * _staircase_value(b, level)
        else:
            y0, y1 = scale * (a * lo + b), scale * (a * hi + b)
            diff = _staircase_antiderivative(y1, cap_index) - _staircase_antiderivative(
                y0, cap_index
            )
            total += d * diff / (a * scale * scale)
    return total
