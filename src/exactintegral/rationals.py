"""Parsing, formatting and summing helpers for exact rational scalars.

Every numeric quantity in this package is a `fractions.Fraction`.  The
standard-library type already provides the invariants exact arithmetic
needs: values are stored reduced, denominators are positive, equality is
value equality.  This module adds the string conventions used at the
package boundary (a `Fraction` prints as "p/q", or "p" for an integer, in
files and reports; decimal renderings for human readers) and
`exact_sum`, the one multi-term sum of the integrals: integer pairs
(numerator, denominator) are added per denominator, and the way the
groups are then added is keyed on the size of their denominators.  While
the lcm of the group denominators stays short (`_SHORT_LCM_BITS`), every
group is scaled to it and added in one pass.  The lcm is grown a chunk of
denominators at a time and dropped once it passes the cap, so a long one
is never built; the groups are then added pairwise in a balanced tree,
each pair over the lcm of its two denominators.  So no term is scaled to
a long lcm, which for n distinct large denominators would make every term
about n times as long, and the cost stays near-linear in the total size
of the input.  That finish is its own step, `_sum_groups`, shared by
`exact_sum` and by the integrals that read a batch of masses: those
group the products value * mass by denominator in their one loop over
the batch (`_add_products`).

`as_rational` is the one rational gate of the library: every constructor
and `scale` takes its caller's numbers through it.  It keeps a `Fraction`
as it is, turns an `int` into one and refuses anything else (a float, a
`bool`, a `Decimal`, a string, None) with a `ValueError` naming the
value, so no float's binary value is ever computed with as if it were
the number meant, and no string is parsed behind the caller's back:
strings enter only through `parse_rational`.

Every rational of a task file passes through `parse_rational` and every
reported one through `decimal_string`, so both do their work once: the
parser matches the text against one pattern whose two groups go through
`int` straight into `Fraction(numerator, denominator)` (no second parse
of the text by `Fraction`), and the decimal rendering divides in one
`decimal.Context` per precision, built on first use, instead of opening a
local context per value.
"""

from __future__ import annotations

import re
import sys
from decimal import Context, Decimal
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Iterable

__all__ = [
    "ZERO",
    "ONE",
    "as_rational",
    "parse_rational",
    "decimal_string",
    "exact_sum",
]

ZERO = Fraction(0)
ONE = Fraction(1)

# "p" or "p/q" with optional sign, matched whole; float and exponent syntax
# is excluded so inexact values can never enter a computation through a file.
_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?")

# `exact_sum` scales its groups to one lcm of at most this many bits, grown
# this many denominators at a time.  Summing n distinct b-bit denominators
# over their lcm costs about n^2 * b^2 bit operations and the tree about
# n * b * log(n); timed on a 2-vCPU x86-64 host, the one-lcm sum was ahead
# up to an lcm of about 1200 bits and 1.7x behind the tree at 2300.  With
# the cap at 2048 bits a mixed set of 8- to 64-bit denominators sums within
# about 10 % of the tree alone (40 % behind at 4096 bits), and every sum
# of the benchmark workloads stays on the one-lcm path (their group lcms
# reach 1070 bits on `wide_simple`, 151 on `pwl_deep` and 66 on
# `grid_exact` at seed 1).
_SHORT_LCM_BITS = 2048
_LCM_CHUNK = 32


def as_rational(value, what: str) -> Fraction:
    """`value` as a Fraction: a Fraction unchanged, an int (not a bool)
    converted; anything else raises ValueError naming `what` and the value."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(f"{what} {value!r} is not an int or a Fraction")


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" or "p" string into a Fraction.

    Raises ValueError for anything else, including float notation and a
    numerator or denominator with more digits than the interpreter turns
    into an integer (`sys.get_int_max_str_digits()`).
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    match = _RATIONAL_RE.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not a rational string: {text!r}")
    numerator, denominator = match.groups()
    try:
        if denominator is None:
            return Fraction(int(numerator))
        return Fraction(int(numerator), int(denominator))
    except ValueError:
        # The syntax is valid, so only the digit limit can refuse it.
        raise ValueError(
            "rational has a numerator or denominator longer than the "
            f"{sys.get_int_max_str_digits()}-digit limit for integer strings"
        ) from None


def decimal_string(value: Fraction, digits: int = 12) -> str:
    """Decimal rendering to `digits` significant digits (exactly rounded)."""
    return str(_context(digits).divide(Decimal(value.numerator), Decimal(value.denominator)))


@cache
def _context(digits: int) -> Context:
    """The default decimal context at precision `digits`; one per precision."""
    return Context(prec=digits)


def exact_sum(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """sum(n / d) over integer pairs (n, d) with d > 0, as one unreduced
    pair; (0, 1) for no pairs.

    Numerators that share a denominator are added first.  While the lcm L
    of the group denominators stays within `_SHORT_LCM_BITS` bits, every
    group is scaled to it and the result is (sum(n * (L // d)), L); the lcm
    is grown `_LCM_CHUNK` denominators at a time and abandoned as soon as
    it passes the cap, so a long one is never built.  Past the cap the
    groups are added two at a time, level by level, each pair over the lcm
    of its two denominators.
    """
    groups: dict[int, int] = {}
    for n, d in pairs:
        groups[d] = groups.get(d, 0) + n
    return _sum_groups(groups)


def _add_products(values, numerators, positive: dict, negative: dict) -> None:
    """Add p * n to the group of q, for each value (p, q) and numerator n
    taken pairwise: into `positive` where p > 0, into `negative` where
    p < 0.  A caller that needs no split by sign passes one dict twice."""
    for (p, q), n in zip(values, numerators):
        if p and n:
            groups = positive if p > 0 else negative
            groups[q] = groups.get(q, 0) + p * n


def _sum_groups(groups: dict[int, int]) -> tuple[int, int]:
    """sum(n / d) over the {d: n} groups, as one unreduced pair: over their
    lcm while it stays short, else in the tree (see `exact_sum`)."""
    denominators = list(groups)
    common = 1
    for start in range(0, len(denominators), _LCM_CHUNK):
        common = lcm(common, *denominators[start : start + _LCM_CHUNK])
        if common.bit_length() > _SHORT_LCM_BITS:
            return _tree_sum(list(groups.items()))
    return sum(n * (common // d) for d, n in groups.items()), common


def _tree_sum(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """The (numerator, denominator) sum of (denominator, numerator) groups,
    added pairwise in a balanced tree."""
    while len(terms) > 1:
        merged = [terms[-1]] if len(terms) & 1 else []
        pairwise = iter(terms)
        for (d1, n1), (d2, n2) in zip(pairwise, pairwise):
            g = gcd(d1, d2)
            merged.append((d1 // g * d2, n1 * (d2 // g) + n2 * (d1 // g)))
        terms = merged
    d, n = terms[0]
    return n, d
