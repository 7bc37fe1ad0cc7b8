"""Independent correctness oracle and the per-case checks.

The oracle reads only the plain case data and never calls the library:
interval measures are integrated by midpoint quadrature on the grid refined
by every breakpoint and set endpoint (exact, since every integrand is
constant or affine on each cell of that grid), discrete spaces by full
enumeration.  A check returns None when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction
from typing import Optional

ZERO = Fraction(0)

# Report flags each CLI workload must show as true.
REQUIRED_FLAGS = {
    "grid_exact": ("exact_equal",),
    "pwl_deep": ("difference_within_bound", "recovered_matches_target", "summability_certified"),
}


def _cell_index(breakpoints, x: Fraction) -> int:
    return bisect_right(breakpoints, x) - 1


def _simple_interval_integral(measure: tuple, terms) -> Fraction:
    _, breakpoints, densities = measure
    pieces = sorted(
        (lo, hi, value) for value, (_, pairs) in terms for lo, hi in pairs
    )
    starts = [lo for lo, _, _ in pieces]
    grid = set(breakpoints) | {ZERO, Fraction(1)}
    for lo, hi, _ in pieces:
        grid.update((lo, hi))
    grid = sorted(grid)
    total = ZERO
    for lo, hi in zip(grid, grid[1:]):
        mid = (lo + hi) / 2
        k = bisect_right(starts, mid) - 1
        if k < 0 or not pieces[k][0] <= mid < pieces[k][1]:
            continue
        total += pieces[k][2] * densities[_cell_index(breakpoints, mid)] * (hi - lo)
    return total


def _simple_discrete_integral(measure: tuple, terms) -> Fraction:
    weights = measure[1]
    total = ZERO
    for value, (_, indices) in terms:
        for i in indices:
            total += value * weights[i]
    return total


def _pwl_integral(measure: tuple, fn: tuple) -> Fraction:
    _, breakpoints, densities = measure
    _, fn_breakpoints, pieces = fn
    grid = sorted(set(breakpoints) | set(fn_breakpoints))
    total = ZERO
    for lo, hi in zip(grid, grid[1:]):
        mid = (lo + hi) / 2
        a, b = pieces[_cell_index(fn_breakpoints, mid)]
        total += densities[_cell_index(breakpoints, mid)] * (hi - lo) * (a * mid + b)
    return total


def integral(measure: tuple, fn: tuple) -> Fraction:
    """Exact integral of one plain-data integrand against a plain-data measure."""
    if fn[0] == "pwl":
        return _pwl_integral(measure, fn)
    if measure[0] == "discrete":
        return _simple_discrete_integral(measure, fn[1])
    return _simple_interval_integral(measure, fn[1])


def check_report(workload: str, output, expected: Fraction) -> Optional[str]:
    """A `compare` report from the CLI: exit 0, oracle value, required flags."""
    code, stdout, stderr = output
    if code != 0:
        return f"exit code {code}: {stderr.strip()}"
    try:
        report = json.loads(stdout)
        value = Fraction(report["integral_value"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if value != expected:
        return f"integral_value {value} != oracle {expected}"
    for flag in REQUIRED_FLAGS[workload]:
        if report.get(flag) is not True:
            return f"{flag} is {report.get(flag)!r}"
    return None


def check_wide(result: dict, expected: tuple) -> Optional[str]:
    """Oracle values of f and g, additivity of the integral and f = f+ - f-, exactly."""
    f, g = expected
    identities = (
        ("f", result["f"], f),
        ("g", result["g"], g),
        ("sum", result["sum"], result["f"] + result["g"]),
        ("difference", result["difference"], result["f"] - result["g"]),
        ("parts", result["positive"] - result["negative"], result["difference"]),
    )
    for name, got, want in identities:
        if got != want:
            return f"{name}: {got} != {want}"
    return None


def expected_value(workload: str, case):
    """What the checks compare against, computed from the case data alone."""
    if workload == "wide_simple":
        return tuple(integral(case.measure, fn) for fn in case.functions)
    return integral(case.measure, case.functions[0])


def check(workload: str, output, expected) -> Optional[str]:
    if workload == "wide_simple":
        return check_wide(output, expected)
    return check_report(workload, output, expected)
