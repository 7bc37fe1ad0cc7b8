"""Independent integration oracles and reference algorithms for the tests.

The integration oracles deliberately avoid the library's closed-form
integration paths: they only evaluate the integrand pointwise, a
piecewise-linear one through `evaluate` and a simple function by looking
each point up in its own terms (a bisection of its term intervals sorted
once, or a dict of its indices), so that a function of many terms costs
no scan of every term per point.  Midpoint quadrature on a grid refined
by every breakpoint is exact for integrands that are affine (or
constant) per cell, which covers both integrand classes here; discrete
spaces are integrated by full enumeration.

`materialized_telescope_reference` is a terminating telescoped series
with every term h_n materialized from the differences of the part
staircase levels and integrated term by term; `term_points` lists the
points where such step functions can change value.

The set-algebra references are the plain algorithms the library replaced
by sweeps and cell tables: pairwise disjointness checks, the common
refinement of two functions by intersecting every pair of their
canonical terms, per-cell overlaps, unions that sort intervals by their
`Fraction` lower ends and merge them left to right, complements as the
gaps between consecutive intervals, and the two-pointer merge of two
sorted interval lists for `intersection_reference`.  They order endpoints only by `Fraction`
comparisons, never through the library's float-keyed sorts and sweeps.

`parse_rational_reference` and `decimal_string_reference` are the
front-end conversions the library replaced: the parser that checks its
own pattern and then hands the text to `Fraction(str)`, which parses it a
second time, and the decimal rendering that opens a `localcontext` per
value.

`refined_reference`, `combined_reference`, `split_at_roots_reference` and
`by_sign_reference` are the piecewise-linear grid algorithms the library
replaced by the shared two-pointer sweep and one root-split walk: the
common refinement as a `set` union of `Fraction` breakpoints, one exact
sort and one bisection per new cell, and the root split as cuts handed to
that refinement, with the sign of each split cell read at its midpoint.

`split_cells_reference`, `ramps_reference` and
`termination_level_reference` are the `Fraction` forms of the lowering
that the library replaced by integer pairs: the root-split walk with its
end values as `Fraction`s, the sweep of the sloped pieces along the
measure's public density cells with one `Fraction` per density step, and
the termination level read off `Fraction` values.

`rows_reference`, `mean_reference`, `level_reference` and
`equivalence_reference` are the `Fraction` forms of the value sums and
of the certificate that the library replaced by integer pairs: every
atom of a batch read as its own row (p, q, e, c, L), the limit and the
level-n staircase integral as sums of one `Fraction` per row, and every
entry of `equivalence_report` by `Fraction` arithmetic and `Fraction`
comparisons on those limits and levels.

`slope_at`, `restrict`, `upper_bound`, `lower_bound`, `is_nonnegative`
and `level_set` are plain piecewise-linear helpers of the tests: the
slope of the piece at a point, the product with a region's indicator,
bounds and a sign test from the cell-closure values, and the preimage of
[lower, upper) as a half-open interval union.  The library's own integrals never need them.

`primes_from` lists consecutive primes, the distinct denominators of the
growth guards.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction

from exactintegral import (
    DiscreteSet,
    DiscreteSpace,
    FiniteSeries,
    IntervalMeasure,
    IntervalSet,
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


def _density_cells(measure: IntervalMeasure):
    """(lo, hi, density) for each density cell of the measure, as given."""
    bp = measure.breakpoints
    return zip(bp, bp[1:], measure.densities)


def _grid_cells(fn, measure: IntervalMeasure):
    """(lo, hi, density) for each cell of the merged grid, walking the
    density cells alongside the sorted grid (which holds their breakpoints)."""
    grid = _interval_grid(fn, measure)
    cells = _density_cells(measure)
    cell_lo, cell_hi, density = next(cells)
    for lo, hi in zip(grid, grid[1:]):
        while cell_hi <= lo:
            cell_lo, cell_hi, density = next(cells)
        assert cell_lo <= lo < hi <= cell_hi, f"no density cell holds [{lo}, {hi})"
        yield lo, hi, density


def _pointwise(fn):
    """point -> value of `fn`.  A simple function's value is looked up in its
    terms, in a dict of their indices or by bisecting their intervals sorted
    by lower end, and is zero off every term set."""
    if not isinstance(fn, SimpleFunction):
        return fn.evaluate
    zero = ZERO if fn.dim is None else Vec.zero(fn.dim)
    if isinstance(fn.space, DiscreteSpace):
        values = {i: value for value, part in fn.terms for i in part.indices}
        return lambda point: values.get(point, zero)
    cells = sorted(
        ((lo, hi, value) for value, part in fn.terms for lo, hi in part.intervals),
        key=lambda cell: cell[0],
    )
    los = [lo for lo, _, _ in cells]

    def value_at(point):
        k = bisect_right(los, point) - 1
        return cells[k][2] if k >= 0 and point < cells[k][1] else zero

    return value_at


def integral_oracle(fn, measure):
    """Integral by enumeration (discrete) or exact midpoint quadrature (interval)."""
    value_at = _pointwise(fn)
    if isinstance(measure, DiscreteSpace):
        total = None
        for point in range(measure.size):
            contribution = _scale(value_at(point), measure.weights[point])
            total = contribution if total is None else total + contribution
        return total
    total = None
    for lo, hi, d in _grid_cells(fn, measure):
        contribution = _scale(value_at((lo + hi) / 2), d * (hi - lo))
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


def slope_at(fn: PiecewiseLinear, x: Fraction) -> Fraction:
    """Slope of the piece whose half-open cell holds x."""
    return fn.pieces[bisect_right(fn.breakpoints, x) - 1][0]


def refined_reference(fn: PiecewiseLinear, cuts) -> PiecewiseLinear:
    """`fn` on its grid refined by the cuts inside (0, 1): a `set` union of
    the breakpoints and the cuts, one exact sort, and the piece of each new
    cell found by bisecting the old grid at its left end."""
    extra = {Fraction(c) for c in cuts if 0 < c < 1}
    grid = tuple(sorted(set(fn.breakpoints) | extra))
    old = fn.pieces  # built anew on each read
    pieces = [old[bisect_right(fn.breakpoints, x) - 1] for x in grid[:-1]]
    return PiecewiseLinear(grid, pieces)


def combined_reference(f: PiecewiseLinear, g: PiecewiseLinear, op) -> PiecewiseLinear:
    """op(f, g) on the union of both grids, both refined by `refined_reference`."""
    grid = sorted(set(f.breakpoints) | set(g.breakpoints))
    left, right = refined_reference(f, grid).pieces, refined_reference(g, grid).pieces
    pieces = [(op(a1, a2), op(b1, b2)) for (a1, b1), (a2, b2) in zip(left, right)]
    return PiecewiseLinear(grid, pieces)


def split_at_roots_reference(fn: PiecewiseLinear) -> PiecewiseLinear:
    """`fn` refined by `refined_reference` at every root -b/a of a sloped
    piece that lies strictly inside its cell."""
    roots = [-b / a for u, w, a, b in fn.cells() if a and u < -b / a < w]
    return refined_reference(fn, roots)


def by_sign_reference(fn: PiecewiseLinear, positive: int, negative: int) -> PiecewiseLinear:
    """`fn` split at its roots, each piece scaled by `positive` where `fn`
    is positive at the cell's midpoint and by `negative` elsewhere: pos_part
    is (1, 0), neg_part (0, -1) and absolute (1, -1)."""
    split = split_at_roots_reference(fn)
    pieces = []
    for u, w, a, b in split.cells():
        factor = positive if a * (u + w) / 2 + b > 0 else negative
        pieces.append((factor * a, factor * b))
    return PiecewiseLinear(split.breakpoints, pieces)


def split_cells_reference(fn: PiecewiseLinear):
    """Yield (u, w, a, b, (f(u), f(w-))) per cell, every entry a `Fraction`;
    a sloped cell whose end values have strictly opposite signs is yielded
    as its two halves on either side of its root -b/a."""
    for u, w, a, b in fn.cells():
        y_u, y_w = (a * u + b, a * w + b) if a else (b, b)
        if y_u.numerator * y_w.numerator < 0:
            root = -b / a
            yield u, root, a, b, (y_u, ZERO)
            u, y_u = root, ZERO
        yield u, w, a, b, (y_u, y_w)


def ramps_reference(sloped, measure: IntervalMeasure) -> list:
    """Integer rows (p, q, e, c, L) of sloped pieces (u, w, a, b, (y_u, y_w))
    of `Fraction`s, in increasing order, from one sweep along the measure's
    public density cells: a density step d - d' at x gives the row
    (c*y, c) at y = a*x + b, c = (d - d')/a, over the denominator of c
    times q, the ends stepping from and to zero density.  A step of zero
    makes no row."""
    grid, densities = measure.breakpoints, measure.densities
    rows = []
    k = 0
    for u, w, a, b, (y_u, y_w) in sloped:
        while grid[k + 1] <= u:
            k += 1
        steps = [(y_u, -densities[k])]
        while grid[k + 1] < w:
            k += 1
            steps.append((a * grid[k] + b, densities[k - 1] - densities[k]))
        steps.append((y_w, densities[k]))
        for y, step in steps:
            if step:
                c = step / a
                p, q = y.numerator, y.denominator
                rows.append((p, q, c.numerator * p, c.numerator * q, c.denominator * q))
    return rows


def termination_level_reference(values) -> int | None:
    """First level whose staircase equals a piecewise-constant function
    with these nonzero `Fraction` values, or None."""
    level = 0
    for v in values:
        den = v.denominator
        if den & (den - 1):
            return None
        level = max(level, den.bit_length() - 1, math.ceil(v))
    return level


def restrict(fn: PiecewiseLinear, region: IntervalSet) -> PiecewiseLinear:
    """Pointwise product with the region's indicator (zero outside)."""
    refined = refined_reference(fn, region.endpoints())
    pieces = []
    for u, w, a, b in refined.cells():
        inside = region.contains((u + w) / 2)
        pieces.append((a, b) if inside else (ZERO, ZERO))
    return PiecewiseLinear(refined.breakpoints, pieces)


def _closure_values(fn: PiecewiseLinear):
    for u, w, a, b in fn.cells():
        yield a * u + b
        yield a * w + b  # right-limit value; the endpoint itself is excluded


def upper_bound(fn: PiecewiseLinear) -> Fraction:
    """Least cell-closure maximum; >= sup f (sup may be unattained)."""
    return max(_closure_values(fn))


def lower_bound(fn: PiecewiseLinear) -> Fraction:
    return min(_closure_values(fn))


def is_nonnegative(fn: PiecewiseLinear) -> bool:
    # Affine per cell, so closure values bound the half-open cell exactly.
    return lower_bound(fn) >= 0


def level_set(fn: PiecewiseLinear, lower: Fraction, upper: Fraction) -> IntervalSet:
    """{x : lower <= f(x) < upper} as a half-open interval union.

    On cells with negative slope the true preimage is open-closed; the
    returned set uses the package's half-open convention instead and so
    may differ from the preimage at finitely many points, a null set.
    """
    out = []
    for u, w, a, b in fn.cells():
        if a == 0:
            if lower <= b < upper:
                out.append((u, w))
            continue
        bounds = sorted(((lower - b) / a, (upper - b) / a))
        lo, hi = max(u, bounds[0]), min(w, bounds[1])
        if lo < hi:
            out.append((lo, hi))
    return IntervalSet(out)


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
    for lo, hi, d in _grid_cells(fn, measure):
        if d == 0:
            continue
        a = slope_at(fn, lo)
        b = fn.evaluate(lo) - a * lo
        if a == 0:
            total += d * (hi - lo) * _staircase_value(b, level)
        else:
            y0, y1 = scale * (a * lo + b), scale * (a * hi + b)
            diff = _staircase_antiderivative(y1, cap_index) - _staircase_antiderivative(
                y0, cap_index
            )
            total += d * diff / (a * scale * scale)
    return total


def rows_reference(atoms: tuple, ramps: list) -> list:
    """The integer rows (p, q, e, c, L) of a value distribution: an atom of
    nonzero value p/q and nonzero mass numerator n in the batch read
    (values, numerators, D) is the row (p, q, n, 0, D); ramp rows are kept."""
    values, numerators, denominator = atoms
    atom_rows = [
        (p, q, n, 0, denominator) for (p, q), n in zip(values, numerators) if p and n
    ]
    return atom_rows + list(ramps)


def mean_reference(rows: list) -> Fraction:
    """The limit of the staircase integrals: the sum of (e*y - c*y^2/2) / L
    over the rows, y = p/q, one `Fraction` per row."""
    total = ZERO
    for p, q, e, c, L in rows:
        y = Fraction(p, q)
        total += (e * y - c * y * y / 2) / L
    return total


def level_reference(rows: list, level: int) -> Fraction:
    """The level-n staircase integral: 4^-n times the sum of
    (e*k*2^n - c*k(k+1)/2) / L over the rows, k = min(n*2^n, floor(2^n*y))."""
    scale = 2**level
    total = ZERO
    for p, q, e, c, L in rows:
        k = min(level * scale, math.floor(Fraction(p, q) * scale))
        total += Fraction(e * k * scale - c * k * (k + 1) // 2, L)
    return total / (scale * scale)


def equivalence_reference(parts, measure, eta: Fraction, depth: int) -> dict:
    """The report of `equivalence_report` from the part approximations and
    the rows of their value distributions, as (approximation, rows) pairs:
    limits and levels by `mean_reference` and `level_reference`, every other
    value by `Fraction` arithmetic and every check by `Fraction` comparison."""
    (positive, pos_rows), (negative, neg_rows) = parts
    pos_limit, neg_limit = mean_reference(pos_rows), mean_reference(neg_rows)
    terminations = (positive.termination_level(), negative.termination_level())
    term_count = None if None in terminations else max(terminations)

    def effective(index: int) -> int:
        return index if term_count is None else min(index, term_count)

    def levels(index: int) -> tuple:
        level = effective(index)
        return level_reference(pos_rows, level), level_reference(neg_rows, level)

    def tail(index: int) -> Fraction:
        pos, neg = levels(index)
        return (pos_limit - pos) + (neg_limit - neg)

    pos_d, neg_d = levels(depth)
    partial, tail_at_depth = pos_d + neg_d, tail(depth)
    absolute = pos_limit + neg_limit
    truncation = depth if term_count is None else term_count
    pos_t, neg_t = levels(truncation)
    series_value = pos_t - neg_t
    series_bound = tail_at_depth if effective(truncation) == effective(depth) else tail(truncation)
    direct = pos_limit - neg_limit
    difference = abs(series_value - direct)
    difference_bound = 2 * Fraction(1, 1 << depth) * measure.total_mass
    exact = term_count is not None and term_count <= depth
    cap = max(math.ceil(positive.upper_bound), math.ceil(negative.upper_bound), 0)
    return {
        "integral_class": "integrable",
        "integral_value": direct,
        "positive_part_integral": pos_limit,
        "negative_part_integral": neg_limit,
        "series_depth": depth,
        "series_terminates": exact,
        "series_term_count": term_count,
        "summability_partial": partial,
        "summability_tail_bound": tail_at_depth,
        "absolute_integral": absolute,
        "eta": eta,
        "summability_certified": partial <= absolute + eta,
        "series_integral": series_value,
        "series_integral_error_bound": series_bound,
        "recovered_integral": series_value,
        "recovered_matches_target": difference <= series_bound,
        "difference": difference,
        "difference_bound": difference_bound,
        "difference_bound_certified": depth >= cap,
        "difference_within_bound": difference <= difference_bound,
        "exact_equal": exact and difference == 0,
    }


def materialized_telescope_reference(series) -> FiniteSeries:
    """A terminating `TelescopeSeries` as a `FiniteSeries` of built terms.

    h_n = (f_n+ - f_(n-1)+) - (f_n- - f_(n-1)-), each staircase level
    materialized by `level(n)` (not by `increment`); the `FiniteSeries`
    integrates every term through its simple function, not the tables.
    """
    pos, neg = series.positive, series.negative
    terms = [
        (pos.level(n) - pos.level(n - 1)) - (neg.level(n) - neg.level(n - 1))
        for n in range(1, series.term_count + 1)
    ]
    return FiniteSeries(series.measure, terms)


def term_points(space, functions) -> list:
    """Every point of a finite space; on [0, 1), every endpoint of the
    functions' term intervals and the midpoints between them."""
    if isinstance(space, DiscreteSpace):
        return list(range(space.size))
    ends = {ZERO, Fraction(1)}
    for fn in functions:
        for _, part in fn.terms:
            ends.update(part.endpoints())
    ends = sorted(ends)
    return ends[:-1] + [(p + q) / 2 for p, q in zip(ends, ends[1:])]


# --- set-algebra references ----------------------------------------------------


def intersection_reference(a, b):
    """a & b: for intervals a two-pointer merge of the two sorted interval
    lists, by `Fraction` max, min and <; for indices one Python set
    intersection."""
    if isinstance(a, DiscreteSet):
        return DiscreteSet(a.space, set(a.indices) & set(b.indices))
    out = []
    i = j = 0
    while i < len(a.intervals) and j < len(b.intervals):
        (a_lo, a_hi), (b_lo, b_hi) = a.intervals[i], b.intervals[j]
        lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
        if lo < hi:
            out.append((lo, hi))
        if a_hi <= b_hi:
            i += 1
        else:
            j += 1
    return IntervalSet._canonical(tuple(out))


def complement_reference(part):
    """The points of the space outside `part`: the gaps between consecutive
    intervals and the two ends of [0, 1), or the indices not in `part`."""
    if isinstance(part, DiscreteSet):
        return DiscreteSet(part.space, set(range(part.space.size)) - set(part.indices))
    ends = [ZERO, *(end for iv in part.intervals for end in iv), Fraction(1)]
    gaps = zip(ends[::2], ends[1::2])
    return IntervalSet._canonical(tuple((lo, hi) for lo, hi in gaps if lo < hi))


def pairwise_disjoint_reference(parts) -> bool:
    """Every pair of sets intersects in the empty set."""
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if not intersection_reference(parts[i], parts[j]).is_empty:
                return False
    return True


def merged_intervals_reference(pairs) -> tuple:
    """The nonempty [lo, hi) of `pairs` sorted by lower end, overlapping and
    adjacent runs merged: the canonical form, by `Fraction` comparisons."""
    nonempty = [(Fraction(lo), Fraction(hi)) for lo, hi in pairs if Fraction(lo) < Fraction(hi)]
    merged: list = []
    for lo, hi in sorted(nonempty, key=lambda pair: pair[0]):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def union_reference(space, parts):
    """Union of sets: all the intervals merged by `merged_intervals_reference`,
    or all the indices collected in one Python set."""
    parts = list(parts)
    if isinstance(space, DiscreteSpace):
        return DiscreteSet(space, {i for part in parts for i in part.indices})
    return IntervalSet._canonical(
        merged_intervals_reference(iv for part in parts for iv in part.intervals)
    )


def _value_key(value):
    return value.components if isinstance(value, Vec) else value


def _is_zero(value) -> bool:
    return value.is_zero if isinstance(value, Vec) else value == 0


def canonical_terms_reference(fn: SimpleFunction) -> tuple:
    """Canonical terms by `union_reference` of each value's sets."""
    groups: dict = {}
    for value, part in fn.terms:
        if _is_zero(value) or part.is_empty:
            continue
        groups.setdefault(_value_key(value), (value, []))[1].append(part)
    terms = [(value, union_reference(fn.space, parts)) for value, parts in groups.values()]
    rest = complement_reference(union_reference(fn.space, [part for _, part in terms]))
    if not rest.is_empty:
        zero = ZERO if fn.dim is None else Vec.zero(fn.dim)
        terms.append((zero, rest))
    terms.sort(key=lambda term: _value_key(term[0]))
    return tuple(terms)


def refinement_reference(f: SimpleFunction, g: SimpleFunction) -> list:
    """(v, w, a & b) for every canonical term (v, a) of f and (w, b) of g
    whose sets meet, in the order of the two canonical term lists, each
    cell by `intersection_reference`."""
    cells = []
    for v, a in canonical_terms_reference(f):
        for w, b in canonical_terms_reference(g):
            cell = intersection_reference(a, b)
            if not cell.is_empty:
                cells.append((v, w, cell))
    return cells


def combine_terms_reference(f: SimpleFunction, g: SimpleFunction, op) -> tuple:
    """Terms of op(f, g), one per cell of `refinement_reference`."""
    return tuple((op(v, w), cell) for v, w, cell in refinement_reference(f, g))


def support_reference(fn: SimpleFunction):
    return union_reference(fn.space, [part for value, part in fn.terms if not _is_zero(value)])


def measure_of_reference(measure: IntervalMeasure, part) -> Fraction:
    """Sum of density * overlap over every (interval, density cell) pair."""
    total = ZERO
    for lo, hi in part.intervals:
        for cell_lo, cell_hi, density in _density_cells(measure):
            overlap = min(hi, cell_hi) - max(lo, cell_lo)
            if overlap > 0:
                total += density * overlap
    return total


_RATIONAL_REFERENCE_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def parse_rational_reference(text: str) -> Fraction:
    """Check "p" or "p/q" with one pattern, then parse it with `Fraction(str)`."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    stripped = text.strip()
    if not _RATIONAL_REFERENCE_RE.match(stripped):
        raise ValueError(f"not a rational string: {text!r}")
    try:
        return Fraction(stripped)
    except ValueError:
        raise ValueError(
            "rational has a numerator or denominator longer than the "
            f"{sys.get_int_max_str_digits()}-digit limit for integer strings"
        ) from None


def decimal_string_reference(value: Fraction, digits: int = 12) -> str:
    """`digits` significant digits, divided in a local context per value."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def primes_from(start: int, count: int) -> list[int]:
    """The first `count` primes >= start, by a sieve up to 2 * start."""
    sieve = bytearray([1]) * (2 * start)
    for p in range(2, int(len(sieve) ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, len(sieve), p)))
    primes = [p for p in range(start, len(sieve)) if sieve[p]]
    assert len(primes) >= count
    return primes[:count]
