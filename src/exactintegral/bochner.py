"""Series-based integration and the equivalence with the monotone scheme.

A function is series-representable when a sequence of simple functions
sums to it almost everywhere while the integrals of the term norms have a
finite sum; its integral is then the sum of the term integrals.  Every
series here carries a summability certificate: the exactly computed
partial sum of term-norm integrals together with an exact tail bound, so
the finite-sum hypothesis is checkable data instead of a limit statement.
Three series classes share one contract, stated on `FunctionSeries`: an
explicit `FiniteSeries`, the endless `GeometricIndicatorSeries` with closed
forms for its integrals and tail, and the `TelescopeSeries` below.  Summing
a series that never terminates needs a truncation index; without one,
`bochner_integrate` raises `CertificateError`.

The bridge to the monotone scheme goes through telescoping: the staircase
sequences of the two parts of an integrand turn into the series
h_n = (f_n+ - f_(n-1)+) - (f_n- - f_(n-1)-), whose partial sums reproduce
the staircases exactly and whose absolute-integral sum never exceeds the
integral of |f|.  That sum telescopes as well: the level-0 staircase is
zero, so up to depth d it is the sum of the two part staircase integrals
at level d, and the certificate reads one level per part, whatever the
depth.
`series_from_integrand` returns the series and its certificate as one
`BochnerRepresentation`, whose `series` also carries the part limits and
the part approximations.  The reverse direction recovers the integral of
a target from any certified representation, including series whose
terms are merely integrable (piecewise linear) rather than simple.

The certificate is worked on integer pairs.  The telescoped series reads
its two part limits once, and each of its partial sums and tail bounds
the two part staircase integrals at one level, as `as_integer_ratio()`
pairs; each value it returns is one `Fraction` of their integer
cross-products, and so are the absolute integral and the report's direct
integral, difference and difference bound.  Every check of the
certificate (`certificate_ok`, and the report's recovered-matches,
within-bound and exact-equal entries) compares integer cross-products,
so no `Fraction` operator or comparison runs after the part values are
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from .lebesgue import INTEGRAL_CLASS, DyadicApproximation, Integrand, lebesgue_integral
from .piecewise import PiecewiseLinear
from .rationals import ZERO, as_rational
from .simple import NormKind, SimpleFunction, _zero_of, integrate_simple
from .spaces import Measure, SpaceMismatchError, _require_point, check_integrand_measure, space_of

__all__ = [
    "CertificateError",
    "FunctionSeries",
    "FiniteSeries",
    "GeometricIndicatorSeries",
    "TelescopeSeries",
    "BochnerRepresentation",
    "bochner_integrate",
    "series_from_integrand",
    "SeriesIntegralResult",
    "integral_from_series",
    "l1_norm",
    "equivalence_report",
]

SeriesTerm = Union[SimpleFunction, PiecewiseLinear]


class CertificateError(ValueError):
    """A non-terminating series was summed without a truncation index."""


class FunctionSeries:
    """A sequence of integrable terms over one measure, 1-indexed.

    Subclasses provide `term` and `tail_bound`; the partial sums and the
    certificate view are shared, and so is the index contract.  Every
    per-term accessor refuses an index below 1, or past `term_count` when
    the series terminates, with an `IndexError` (`_check_index`); every
    partial sum and tail bound refuses a negative index with a
    `ValueError` and reads an index past `term_count` as `term_count`
    (`_effective`).  `dim` is None for scalar terms, the vector dimension
    otherwise (vector series need a NormKind for their certificates);
    `term_count` is None for a series that never terminates.
    """

    measure: Measure
    norm_kind: Optional[NormKind] = None
    dim: Optional[int] = None
    term_count: Optional[int] = None

    def term(self, index: int) -> SeriesTerm:
        raise NotImplementedError

    def tail_bound(self, after: int) -> Fraction:
        """Exact bound for the sum of term-norm integrals past `after`."""
        raise NotImplementedError

    def _check_index(self, index: int) -> None:
        """Refuse an index the series has no term for."""
        if self.term_count is not None and not 1 <= index <= self.term_count:
            raise IndexError(f"series has {self.term_count} terms, asked for {index}")
        if index < 1:
            raise IndexError("series terms are 1-indexed")

    def _effective(self, upto: int) -> int:
        if upto < 0:
            raise ValueError("index must be >= 0")
        if self.term_count is not None:
            return min(upto, self.term_count)
        return upto

    def term_integral(self, index: int):
        term = self.term(index)
        if self.dim is not None:
            return integrate_simple(term, self.measure)
        return lebesgue_integral(term, self.measure).value

    def term_abs_integral(self, index: int) -> Fraction:
        return l1_norm(self.term(index), self.measure, self.norm_kind)

    def term_value_at(self, index: int, point):
        return self.term(index).evaluate(point)

    def partial_integral_sum(self, upto: int):
        terms = range(1, self._effective(upto) + 1)
        return sum(map(self.term_integral, terms), _zero_of(self.dim))

    def partial_abs_sum(self, upto: int) -> Fraction:
        return sum(map(self.term_abs_integral, range(1, self._effective(upto) + 1)), ZERO)

    def partial_value_at(self, point, upto: int):
        _require_point(space_of(self.measure), point)
        terms = range(1, self._effective(upto) + 1)
        return sum((self.term_value_at(n, point) for n in terms), _zero_of(self.dim))

    def certificate(self, upto: int) -> tuple[Fraction, Fraction]:
        """(partial sum of term-norm integrals, exact tail bound) at `upto`."""
        return self.partial_abs_sum(upto), self.tail_bound(upto)


class FiniteSeries(FunctionSeries):
    """An explicit finite term list; the tail past the end is zero."""

    def __init__(
        self,
        measure: Measure,
        terms: Sequence[SeriesTerm],
        norm_kind: Optional[NormKind] = None,
    ):
        space = space_of(measure)
        if any(term.space != space for term in terms):
            raise SpaceMismatchError("series term lives on another space")
        dims = {term.dim for term in terms}
        if len(dims) > 1:
            raise ValueError("series terms must share one value dimension")
        self.measure = measure
        self.terms = tuple(terms)
        self.dim = dims.pop() if dims else None
        if self.dim is not None and norm_kind is None:
            raise ValueError("vector series need a NormKind for their certificates")
        self.norm_kind = norm_kind
        self.term_count = len(self.terms)

    def term(self, index: int) -> SeriesTerm:
        self._check_index(index)
        return self.terms[index - 1]

    def tail_bound(self, after: int) -> Fraction:
        tail = range(self._effective(after) + 1, self.term_count + 1)
        return sum(map(self.term_abs_integral, tail), ZERO)


class GeometricIndicatorSeries(FunctionSeries):
    """f_n = ratio^n * 1 on the whole space, with the exact geometric tail.

    The series never terminates; term integrals and the tail bound are
    closed forms, so no term is materialized for a certificate.
    """

    def __init__(self, measure: Measure, ratio: Fraction):
        ratio = as_rational(ratio, "ratio")
        if not 0 < ratio < 1:
            raise ValueError("ratio must lie strictly between 0 and 1")
        self.measure = measure
        self.ratio = ratio
        self._full = space_of(measure).full_set()

    def term(self, index: int) -> SimpleFunction:
        self._check_index(index)
        return SimpleFunction.indicator(self.ratio**index, self._full)

    def term_integral(self, index: int) -> Fraction:
        self._check_index(index)
        return self.ratio**index * self.measure.total_mass

    # Every term is nonnegative, so its norm integral is its integral.
    term_abs_integral = term_integral

    def tail_bound(self, after: int) -> Fraction:
        after = self._effective(after)
        return self.measure.total_mass * self.ratio ** (after + 1) / (1 - self.ratio)


class TelescopeSeries(FunctionSeries):
    """h_n = (f_n+ - f_(n-1)+) - (f_n- - f_(n-1)-) for the part staircases.

    The two part approximations determine the rest: the part limits are
    their staircase limits, and `term_count` is the later of their
    termination levels (None unless both terminate), where the tail bound
    is exactly zero.  Partial sums and tails come from the closed-form
    staircase integrals of the two parts at one level, a partial sum
    telescoping to level k (the level-0 staircase being zero), and each
    term accessor is the difference of two partial sums, so no term is
    materialized; `term(n)` builds h_n on demand for desk-scale levels, as
    the difference of the two part increments paired on their cell tables.
    Indices follow the `FunctionSeries` contract.
    """

    def __init__(
        self,
        measure: Measure,
        positive: DyadicApproximation,
        negative: DyadicApproximation,
    ):
        self.measure = measure
        self.positive = positive
        self.negative = negative
        self.positive_limit = positive.limit(measure)
        self.negative_limit = negative.limit(measure)
        # The part limits as integer pairs, read once for the certificate.
        self._limits = (
            self.positive_limit.as_integer_ratio(),
            self.negative_limit.as_integer_ratio(),
        )
        levels = (positive.termination_level(), negative.termination_level())
        self.term_count = None if None in levels else max(levels)

    def term(self, index: int) -> SimpleFunction:
        self._check_index(index)
        # One pairing of the two canonical increment tables; no set is built.
        return self.positive.increment(index) - self.negative.increment(index)

    def _levels(self, upto: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """(positive, negative) part staircase integrals at level `upto`, as
        integer pairs."""
        level, measure = self._effective(upto), self.measure
        return (
            self.positive.integral(level, measure).as_integer_ratio(),
            self.negative.integral(level, measure).as_integer_ratio(),
        )

    def term_integral(self, index: int) -> Fraction:
        self._check_index(index)
        return self.partial_integral_sum(index) - self.partial_integral_sum(index - 1)

    def term_abs_integral(self, index: int) -> Fraction:
        self._check_index(index)
        return self.partial_abs_sum(index) - self.partial_abs_sum(index - 1)

    def term_value_at(self, index: int, point) -> Fraction:
        self._check_index(index)
        return self.partial_value_at(point, index) - self.partial_value_at(point, index - 1)

    # The partial sums telescope: summing h_1..h_k leaves level k minus level 0,
    # and the level-0 staircase is zero.  |h_n| = h_n(+part) + h_n(-part), the
    # two parts having disjoint supports, so the absolute sums add the parts.

    def partial_value_at(self, point, upto: int) -> Fraction:
        _require_point(space_of(self.measure), point)
        level = self._effective(upto)
        return self.positive.value_at(level, point) - self.negative.value_at(level, point)

    def partial_integral_sum(self, upto: int) -> Fraction:
        (a, b), (c, d) = self._levels(upto)
        return Fraction(a * d - c * b, b * d)

    def partial_abs_sum(self, upto: int) -> Fraction:
        (a, b), (c, d) = self._levels(upto)
        return Fraction(a * d + c * b, b * d)

    def tail_bound(self, after: int) -> Fraction:
        """Exact remainder: what the part staircases still miss at `after`,
        (p/q - a/b) + (n/m - c/d) for the limits p/q, n/m and the levels a/b,
        c/d."""
        (a, b), (c, d) = self._levels(after)
        (p, q), (n, m) = self._limits
        return Fraction((p * b - a * q) * m * d + (n * d - c * m) * q * b, q * b * m * d)


@dataclass
class BochnerRepresentation:
    """The telescoped series of an integrand, certified at one depth.

    `summability_partial` (the sum of the |h_n| integrals up to `depth`) and
    `tail_at_depth` form the certificate at that depth; `exact` marks a
    series that terminates by it, making the truncated sum the integral
    itself.  The part limits, the part approximations and the per-level
    values are read off `series`; `absolute_integral` is computed on first
    read and kept.
    """

    target: Optional[Integrand]
    measure: Measure
    series: TelescopeSeries
    eta: Fraction
    depth: int
    summability_partial: Fraction
    tail_at_depth: Fraction
    exact: bool

    @cached_property
    def absolute_integral(self) -> Fraction:
        (p, q), (n, m) = self.series._limits
        return Fraction(p * m + n * q, q * m)

    @property
    def certificate_ok(self) -> bool:
        """Sum of |h_n| integrals up to depth stays within integral(|f|) + eta,
        s/t <= a/b + e/f compared by integer cross-products."""
        s, t = self.summability_partial.as_integer_ratio()
        a, b = self.absolute_integral.as_integer_ratio()
        e, f = self.eta.as_integer_ratio()
        return s * b * f <= (a * f + e * b) * t


def _as_series(series_or_rep) -> FunctionSeries:
    if isinstance(series_or_rep, BochnerRepresentation):
        return series_or_rep.series
    if isinstance(series_or_rep, FunctionSeries):
        return series_or_rep
    raise TypeError("expected a FunctionSeries or BochnerRepresentation")


def bochner_integrate(series_or_rep, truncation: Optional[int] = None):
    """(sum of the first N term integrals, error bound from the tail).

    For a finite series with N covering every term the bound is zero and
    the value is the series integral itself, exactly.  N defaults to the
    term count; a series that never terminates needs it given, or raises
    `CertificateError`.  A representation truncated where its certificate
    stands gives that certificate's tail bound, computed once.
    """
    series = _as_series(series_or_rep)
    if truncation is None:
        if series.term_count is None:
            raise CertificateError(
                "a truncation index is required for non-terminating series"
            )
        truncation = series.term_count
    value = series.partial_integral_sum(truncation)
    if (
        isinstance(series_or_rep, BochnerRepresentation)
        and series._effective(truncation) == series._effective(series_or_rep.depth)
    ):
        return value, series_or_rep.tail_at_depth
    return value, series.tail_bound(truncation)


def series_from_integrand(
    fn: Integrand,
    measure: Measure,
    eta: Fraction = ZERO,
    depth: int = 16,
) -> BochnerRepresentation:
    """Telescoped staircase representation of an integrable integrand.

    The construction keeps the absolute-sum partial below integral(|f|), so
    the certificate holds with room to spare for any eta >= 0 (eta is
    recorded as the allowed slack, not consumed).  When the integrand is
    piecewise constant with values on a dyadic grid the series terminates
    and the representation is exact; otherwise the tail bound at `depth` is
    the exact remainder of the two part staircases.  Either way the
    representation's series is a `TelescopeSeries` and no term is
    materialized: the certificate telescopes to the part staircase
    integrals at level `depth`, so only that level of each part is
    computed, and `series.term(n)` builds h_n only on request.  A caller that needs
    the task-file form of a terminating series can rebuild it as
    `FiniteSeries(measure, [series.term(n) for n in range(1, series.term_count + 1)])`.
    """
    eta = as_rational(eta, "eta")
    if eta.numerator < 0:
        raise ValueError("eta must be >= 0")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    check_integrand_measure(fn, measure)
    series = TelescopeSeries(measure, *DyadicApproximation.parts(fn))
    return BochnerRepresentation(
        target=fn,
        measure=measure,
        series=series,
        eta=eta,
        depth=depth,
        summability_partial=series.partial_abs_sum(depth),
        tail_at_depth=series.tail_bound(depth),
        exact=series.term_count is not None and series.term_count <= depth,
    )


@dataclass(frozen=True)
class SeriesIntegralResult:
    """Integral recovered from a representation, with its certificate."""

    value: Fraction
    error_bound: Fraction
    target_value: Optional[Fraction]
    matches_target: Optional[bool]


def integral_from_series(
    series_or_rep, truncation: Optional[int] = None
) -> SeriesIntegralResult:
    """Recover the integral of the represented function from its series.

    Sums term integrals through the partial sums g_k; exact for finite
    series, certified by the tail bound otherwise.  Terms may be simple or
    merely integrable (piecewise linear).  A representation of an endless
    series is truncated at its depth by default; a bare endless series
    needs `truncation`.  When the representation knows its target, the
    result is compared against the target's direct integral within the
    certified bound.
    """
    series = _as_series(series_or_rep)
    if series.dim is not None:
        raise ValueError("the measure integral is recovered for scalar series only")
    target = None
    if isinstance(series_or_rep, BochnerRepresentation):
        target = series_or_rep.target
        if truncation is None and series.term_count is None:
            truncation = series_or_rep.depth
    value, bound = bochner_integrate(series_or_rep, truncation)
    target_value = None
    matches = None
    if target is not None:
        target_value = lebesgue_integral(target, series.measure).value
        matches = abs(value - target_value) <= bound
    return SeriesIntegralResult(value, bound, target_value, matches)


def l1_norm(fn, measure: Measure, kind: Optional[NormKind] = None) -> Fraction:
    """Integral of the pointwise norm: the L1 size of an integrand.

    Scalars use the absolute value, ∫|f| = ∫f+ + ∫f− from the one signed
    integral; vector simple functions need a NormKind.  Zero exactly when
    the function vanishes off a null set.
    """
    if fn.dim is not None:
        return integrate_simple(fn.norm_function(kind), measure)
    result = lebesgue_integral(fn, measure)
    return result.positive_part + result.negative_part


def equivalence_report(
    fn: Integrand,
    measure: Measure,
    eta: Fraction = ZERO,
    depth: int = 16,
) -> dict:
    """Run both integration schemes on one integrand and compare.

    Returns a flat report: the direct integral, the telescoped series with
    its summability certificate, the truncated series integral with its
    error bound, the recovered integral, and the exact difference between
    the two schemes against the certified 2 * 2^-depth * mass bound.

    The direct integral is assembled from the part limits the construction
    already computed, and the recovered integral is the series integral
    itself: `integral_from_series` at the same truncation sums the same
    terms and compares them with the same direct integral.  The part
    limits, the series integral and its error bound are read once each as
    integer pairs, and the total mass is the measure's own pair; the
    direct integral, the difference and its bound are one `Fraction` each
    of their cross-products, and the three checks compare cross-products.
    """
    representation = series_from_integrand(fn, measure, eta, depth)
    series = representation.series
    (p, q), (n, m) = series._limits
    direct = (p * m - n * q, q * m)
    truncation = None if series.term_count is not None else depth
    series_value, series_bound = bochner_integrate(representation, truncation)

    # Each reported value is one Fraction of integer cross-products, and each
    # check compares cross-products: v/w is the series integral, b/c its
    # error bound, the difference is |v/w - direct| and its bound is
    # 2 * 2^-depth * mass.
    v, w = series_value.as_integer_ratio()
    b, c = series_bound.as_integer_ratio()
    difference = (abs(v * direct[1] - direct[0] * w), w * direct[1])
    mass_n, mass_d = measure._mass_pair
    bound = (2 * mass_n, mass_d << depth)
    certified = depth >= max(series.positive.cap_level, series.negative.cap_level)
    return {
        "integral_class": INTEGRAL_CLASS,
        "integral_value": Fraction(*direct),
        "positive_part_integral": series.positive_limit,
        "negative_part_integral": series.negative_limit,
        "series_depth": depth,
        "series_terminates": representation.exact,
        "series_term_count": series.term_count,
        "summability_partial": representation.summability_partial,
        "summability_tail_bound": representation.tail_at_depth,
        "absolute_integral": representation.absolute_integral,
        "eta": representation.eta,
        "summability_certified": representation.certificate_ok,
        "series_integral": series_value,
        "series_integral_error_bound": series_bound,
        "recovered_integral": series_value,
        "recovered_matches_target": difference[0] * c <= b * difference[1],
        "difference": Fraction(*difference),
        "difference_bound": Fraction(*bound),
        "difference_bound_certified": certified,
        "difference_within_bound": difference[0] * bound[1] <= bound[0] * difference[1],
        "exact_equal": representation.exact and difference[0] == 0,
    }
