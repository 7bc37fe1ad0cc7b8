"""Parsing, formatting and summing helpers for exact rational scalars.

Every numeric quantity in this package is a `fractions.Fraction`.  The
standard-library type already provides the invariants exact arithmetic
needs: values are stored reduced, denominators are positive, equality is
value equality.  This module adds the string conventions used at the
package boundary (a `Fraction` prints as "p/q", or "p" for an integer, in
files and reports; decimal renderings for human readers) and
`exact_sum`, the one multi-term sum of the integrals: integer pairs
(numerator, denominator) are added per denominator, and the groups are
then added pairwise in a balanced tree, each pair over the lcm of its two
denominators.  No term is scaled to the lcm of all denominators, which
for n distinct large denominators would make every term about n times
as long, so the cost stays near-linear in the total size of the input.

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
from math import gcd
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

    Numerators that share a denominator are added first; the groups are
    then added two at a time, level by level, each pair over the lcm of
    its two denominators.
    """
    groups: dict[int, int] = {}
    for n, d in pairs:
        groups[d] = groups.get(d, 0) + n
    terms = list(groups.items())
    while len(terms) > 1:
        merged = [terms[-1]] if len(terms) & 1 else []
        pairwise = iter(terms)
        for (d1, n1), (d2, n2) in zip(pairwise, pairwise):
            g = gcd(d1, d2)
            merged.append((d1 // g * d2, n1 * (d2 // g) + n2 * (d1 // g)))
        terms = merged
    d, n = terms[0] if terms else (1, 0)
    return n, d
