"""Series-based integration and the equivalence with the monotone scheme.

A function is series-representable when a sequence of simple functions
sums to it almost everywhere while the integrals of the term norms have a
finite sum; its integral is then the sum of the term integrals.  Every
series here carries a summability certificate: the exactly computed
partial sum of term-norm integrals together with an exact tail bound, so
the finite-sum hypothesis is checkable data instead of a limit statement.

The bridge to the monotone scheme goes through telescoping: the staircase
sequences of the two parts of an integrand turn into the series
h_n = (f_n+ - f_(n-1)+) - (f_n- - f_(n-1)-), whose partial sums reproduce
the staircases exactly and whose absolute-integral sum never exceeds the
integral of |f|.  The reverse direction recovers the integral of a target
from any certified representation, including series whose terms are merely
integrable (piecewise linear) rather than simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .lebesgue import (
    DyadicApproximation,
    Integrand,
    _result_from_parts,
    check_integrand_measure,
    integrate_nonneg,
    lebesgue_integral,
    pos_neg_parts,
    absolute_integrand,
)
from .piecewise import PiecewiseLinear
from .rationals import ZERO
from .simple import NormKind, SimpleFunction, Vec, integrate_simple
from .spaces import Measure, OutsideDomainError, SpaceMismatchError, space_of

__all__ = [
    "CertificateError",
    "FunctionSeries",
    "FiniteSeries",
    "RuleSeries",
    "TelescopeSeries",
    "geometric_indicator_series",
    "BochnerRepresentation",
    "TraceRow",
    "ConstructionTrace",
    "absolute_sum_check",
    "bochner_integrate",
    "pointwise_partial_sum",
    "series_from_integrand",
    "SeriesIntegralResult",
    "integral_from_series",
    "l1_norm",
    "equivalence_report",
]

SeriesTerm = Union[SimpleFunction, PiecewiseLinear]


class CertificateError(ValueError):
    """A summability certificate is missing or unusable."""


def _term_integral(term: SeriesTerm, measure: Measure):
    if isinstance(term, SimpleFunction):
        return integrate_simple(term, measure)
    return lebesgue_integral(term, measure).value


def _term_abs_integral(
    term: SeriesTerm, measure: Measure, kind: Optional[NormKind]
) -> Fraction:
    if isinstance(term, SimpleFunction):
        return integrate_simple(term.norm_function(kind), measure)
    return integrate_nonneg(term.absolute(), measure)


class FunctionSeries:
    """A sequence of integrable terms over one measure, 1-indexed.

    Subclasses provide `term`, `term_count` and `tail_bound`; the partial
    sums and the certificate view are shared.  `dim` is None for scalar
    terms, the vector dimension otherwise (vector series need a NormKind
    for their certificates).
    """

    measure: Measure
    norm_kind: Optional[NormKind]
    dim: Optional[int]
    term_count: Optional[int]

    def term(self, index: int) -> SeriesTerm:
        raise NotImplementedError

    def tail_bound(self, after: int) -> Fraction:
        """Exact bound for the sum of term-norm integrals past `after`."""
        raise NotImplementedError

    def _zero_value(self):
        return ZERO if self.dim is None else Vec.zero(self.dim)

    def _effective(self, upto: int) -> int:
        if upto < 0:
            raise ValueError("index must be >= 0")
        if self.term_count is not None:
            return min(upto, self.term_count)
        return upto

    def term_integral(self, index: int):
        return _term_integral(self.term(index), self.measure)

    def term_abs_integral(self, index: int) -> Fraction:
        return _term_abs_integral(self.term(index), self.measure, self.norm_kind)

    def term_value_at(self, index: int, point):
        return self.term(index).evaluate(point)

    def partial_integral_sum(self, upto: int):
        total = self._zero_value()
        for n in range(1, self._effective(upto) + 1):
            total = total + self.term_integral(n)
        return total

    def partial_abs_sum(self, upto: int) -> Fraction:
        total = ZERO
        for n in range(1, self._effective(upto) + 1):
            total += self.term_abs_integral(n)
        return total

    def partial_value_at(self, point, upto: int):
        if not space_of(self.measure).contains(point):
            raise OutsideDomainError(f"point {point!r} outside the space")
        total = self._zero_value()
        for n in range(1, self._effective(upto) + 1):
            total = total + self.term_value_at(n, point)
        return total

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
        dims = set()
        for term in terms:
            if term.space != space:
                raise SpaceMismatchError("series term lives on another space")
            dims.add(term.dim if isinstance(term, SimpleFunction) else None)
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
        if not 1 <= index <= len(self.terms):
            raise IndexError(f"series has {len(self.terms)} terms, asked for {index}")
        return self.terms[index - 1]

    def tail_bound(self, after: int) -> Fraction:
        total = ZERO
        for n in range(max(after, 0) + 1, len(self.terms) + 1):
            total += self.term_abs_integral(n)
        return total


class RuleSeries(FunctionSeries):
    """Terms produced by a rule n -> term, with a caller-supplied tail bound.

    Without a tail bound the summability condition is not decidable from
    finitely many terms, so certificate-consuming operations refuse to run.
    Optional closed-form hooks avoid materializing terms for integrals.
    """

    def __init__(
        self,
        measure: Measure,
        rule: Callable[[int], SeriesTerm],
        tail_bound: Optional[Callable[[int], Fraction]] = None,
        norm_kind: Optional[NormKind] = None,
        dim: Optional[int] = None,
        integral_rule: Optional[Callable[[int], Fraction]] = None,
        abs_integral_rule: Optional[Callable[[int], Fraction]] = None,
        name: str = "",
        params: Optional[dict] = None,
    ):
        self.measure = measure
        self.norm_kind = norm_kind
        self.dim = dim
        self.term_count = None
        self.name = name
        self.params = dict(params or {})
        self._rule = rule
        self._tail_bound = tail_bound
        self._integral_rule = integral_rule
        self._abs_integral_rule = abs_integral_rule

    def term(self, index: int) -> SeriesTerm:
        if index < 1:
            raise IndexError("series terms are 1-indexed")
        return self._rule(index)

    def term_integral(self, index: int):
        if self._integral_rule is not None:
            return self._integral_rule(index)
        return super().term_integral(index)

    def term_abs_integral(self, index: int) -> Fraction:
        if self._abs_integral_rule is not None:
            return self._abs_integral_rule(index)
        return super().term_abs_integral(index)

    def tail_bound(self, after: int) -> Fraction:
        if self._tail_bound is None:
            raise CertificateError("series has no tail-bound certificate")
        return self._tail_bound(after)


def geometric_indicator_series(measure: Measure, ratio: Fraction) -> RuleSeries:
    """f_n = ratio^n * 1 on the whole space, with the exact geometric tail."""
    ratio = Fraction(ratio)
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie strictly between 0 and 1")
    space = space_of(measure)
    full = space.full_set()
    mass = measure.total_mass

    return RuleSeries(
        measure,
        rule=lambda n: SimpleFunction.indicator(ratio**n, full),
        tail_bound=lambda after: mass * ratio ** (after + 1) / (1 - ratio),
        integral_rule=lambda n: ratio**n * mass,
        abs_integral_rule=lambda n: ratio**n * mass,
        name="geometric_indicator",
        params={"ratio": ratio},
    )


class TelescopeSeries(FunctionSeries):
    """h_n = (f_n+ - f_(n-1)+) - (f_n- - f_(n-1)-) for the part staircases.

    Term integrals, partial sums and tails come from the closed-form
    staircase integrals, so depth-20 certificates cost no materialization;
    `term(n)` still builds the level-n simple function on demand for
    desk-scale levels.
    """

    def __init__(
        self,
        measure: Measure,
        positive: DyadicApproximation,
        negative: DyadicApproximation,
        positive_limit: Fraction,
        negative_limit: Fraction,
        term_count: Optional[int] = None,
    ):
        self.measure = measure
        self.norm_kind = None
        self.dim = None
        self.term_count = term_count
        self.positive = positive
        self.negative = negative
        self.positive_limit = positive_limit
        self.negative_limit = negative_limit

    def term(self, index: int) -> SimpleFunction:
        if index < 1:
            raise IndexError("series terms are 1-indexed")
        pos_inc = self.positive.increment(index)
        neg_inc = self.negative.increment(index)
        # Nonzero increments live inside {f > 0} and {f < 0} respectively,
        # so the merged term list stays pairwise disjoint.
        terms = [(v, s) for v, s in pos_inc.terms if v != 0]
        terms += [(-v, s) for v, s in neg_inc.terms if v != 0]
        return SimpleFunction._trusted(space_of(self.measure), terms, None)

    def _part_rise(self, part: DyadicApproximation, lower: int, upper: int) -> Fraction:
        """Staircase integral of one part at level `upper` minus at `lower`."""
        return part.integral(upper, self.measure) - part.integral(lower, self.measure)

    def term_integral(self, index: int) -> Fraction:
        return self._part_rise(self.positive, index - 1, index) - self._part_rise(
            self.negative, index - 1, index
        )

    def term_abs_integral(self, index: int) -> Fraction:
        # |h_n| = h_n(+part) + h_n(-part): the two parts have disjoint supports.
        return self._part_rise(self.positive, index - 1, index) + self._part_rise(
            self.negative, index - 1, index
        )

    def term_value_at(self, index: int, point) -> Fraction:
        pos = self.positive.value_at(index, point) - self.positive.value_at(
            index - 1, point
        )
        neg = self.negative.value_at(index, point) - self.negative.value_at(
            index - 1, point
        )
        return pos - neg

    # The partial sums telescope: summing h_1..h_k leaves level k minus level 0.

    def partial_integral_sum(self, upto: int) -> Fraction:
        upto = self._effective(upto)
        return self._part_rise(self.positive, 0, upto) - self._part_rise(
            self.negative, 0, upto
        )

    def partial_abs_sum(self, upto: int) -> Fraction:
        upto = self._effective(upto)
        return self._part_rise(self.positive, 0, upto) + self._part_rise(
            self.negative, 0, upto
        )

    def tail_bound(self, after: int) -> Fraction:
        """Exact remainder: what the part staircases still miss at `after`."""
        if after < 0:
            raise ValueError("index must be >= 0")
        missing_pos = self.positive_limit - self.positive.integral(after, self.measure)
        missing_neg = self.negative_limit - self.negative.integral(after, self.measure)
        return missing_pos + missing_neg


@dataclass(frozen=True)
class TraceRow:
    """Per-level record of the telescoping construction."""

    level: int
    positive_increment_integral: Fraction
    negative_increment_integral: Fraction
    abs_increment_integral: Fraction
    running_abs_sum: Fraction


@dataclass
class ConstructionTrace:
    """The telescoping construction, level by level, with its certificate."""

    rows: tuple[TraceRow, ...]
    positive_integral: Fraction
    negative_integral: Fraction
    eta: Fraction
    series: FunctionSeries
    positive_approx: DyadicApproximation
    negative_approx: DyadicApproximation

    @property
    def absolute_integral(self) -> Fraction:
        return self.positive_integral + self.negative_integral

    @property
    def certificate_ok(self) -> bool:
        """Sum of |h_n| integrals up to depth stays within integral(|f|) + eta."""
        running = self.rows[-1].running_abs_sum if self.rows else ZERO
        return running <= self.absolute_integral + self.eta

    def partial_sum_value(self, upto: int, point):
        """g_k(point) = sum of the first k term values."""
        return self.series.partial_value_at(point, upto)

    def staircase_difference(self, level: int, point) -> Fraction:
        """The level-k staircase difference the partial sums must reproduce."""
        return self.positive_approx.value_at(level, point) - self.negative_approx.value_at(
            level, point
        )


@dataclass
class BochnerRepresentation:
    """A certified series whose almost-everywhere sum is the target.

    `summability_partial` and `tail_at_depth` form the certificate at the
    inspected depth; `exact` marks a series that terminates by that depth,
    making the truncated sum the integral itself.
    """

    target: Optional[Integrand]
    measure: Measure
    series: FunctionSeries
    eta: Fraction
    depth: int
    summability_partial: Fraction
    tail_at_depth: Fraction
    exact: bool

    def certificate(self) -> tuple[Fraction, Fraction]:
        return self.summability_partial, self.tail_at_depth


def _as_series(series_or_rep) -> FunctionSeries:
    if isinstance(series_or_rep, BochnerRepresentation):
        return series_or_rep.series
    if isinstance(series_or_rep, FunctionSeries):
        return series_or_rep
    raise TypeError("expected a FunctionSeries or BochnerRepresentation")


def absolute_sum_check(series_or_rep, upto: int) -> tuple[Fraction, Fraction]:
    """The summability certificate at `upto`: (partial sum, tail bound).

    The represented series is absolutely summable iff partial + tail is
    finite, which the returned exact rationals witness.
    """
    return _as_series(series_or_rep).certificate(upto)


def bochner_integrate(series_or_rep, truncation: Optional[int] = None):
    """(sum of the first N term integrals, error bound from the tail).

    For a finite series with N covering every term the bound is zero and
    the value is the series integral itself, exactly.
    """
    series = _as_series(series_or_rep)
    if truncation is None:
        if series.term_count is None:
            raise CertificateError(
                "a truncation index is required for non-terminating series"
            )
        truncation = series.term_count
    value = series.partial_integral_sum(truncation)
    bound = series.tail_bound(truncation)
    return value, bound


def pointwise_partial_sum(series_or_rep, point, upto: int):
    """Sum of the first `upto` term values at a point."""
    return _as_series(series_or_rep).partial_value_at(point, upto)


def series_from_integrand(
    fn: Integrand,
    measure: Measure,
    eta: Fraction = ZERO,
    depth: int = 16,
) -> tuple[BochnerRepresentation, ConstructionTrace]:
    """Telescoped staircase representation of an integrable integrand.

    The construction keeps the absolute-sum partial below integral(|f|), so
    the certificate holds with room to spare for any eta >= 0 (eta is
    recorded as the allowed slack, not consumed).  When the integrand is
    piecewise constant with values on a dyadic grid the series terminates
    and the representation is exact; otherwise the tail bound at `depth` is
    the exact remainder of the two part staircases.
    """
    eta = Fraction(eta)
    if eta < 0:
        raise ValueError("eta must be >= 0")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    check_integrand_measure(fn, measure)
    positive, negative = pos_neg_parts(fn)
    pos_approx = DyadicApproximation(positive)
    neg_approx = DyadicApproximation(negative)
    pos_limit = integrate_nonneg(positive, measure)
    neg_limit = integrate_nonneg(negative, measure)

    pos_terminal = pos_approx.termination_level()
    neg_terminal = neg_approx.termination_level()
    terminal = None
    if pos_terminal is not None and neg_terminal is not None:
        terminal = max(pos_terminal, neg_terminal)

    telescope = TelescopeSeries(
        measure, pos_approx, neg_approx, pos_limit, neg_limit, term_count=terminal
    )
    exact = terminal is not None and terminal <= depth
    if exact:
        series: FunctionSeries = FiniteSeries(
            measure, [telescope.term(n) for n in range(1, terminal + 1)]
        )
    else:
        series = telescope

    rows = []
    running = ZERO
    for level in range(1, depth + 1):
        dp = telescope._part_rise(pos_approx, level - 1, level)
        dn = telescope._part_rise(neg_approx, level - 1, level)
        running += dp + dn
        rows.append(TraceRow(level, dp, dn, dp + dn, running))

    representation = BochnerRepresentation(
        target=fn,
        measure=measure,
        series=series,
        eta=eta,
        depth=depth,
        summability_partial=running,
        tail_at_depth=telescope.tail_bound(depth),
        exact=exact,
    )
    trace = ConstructionTrace(
        rows=tuple(rows),
        positive_integral=pos_limit,
        negative_integral=neg_limit,
        eta=eta,
        series=series,
        positive_approx=pos_approx,
        negative_approx=neg_approx,
    )
    return representation, trace


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
    merely integrable (piecewise linear).  When the representation knows
    its target, the result is compared against the target's direct
    integral within the certified bound.
    """
    series = _as_series(series_or_rep)
    if series.dim is not None:
        raise ValueError("the measure integral is recovered for scalar series only")
    target = (
        series_or_rep.target
        if isinstance(series_or_rep, BochnerRepresentation)
        else None
    )
    if truncation is None and series.term_count is None:
        if isinstance(series_or_rep, BochnerRepresentation):
            truncation = series_or_rep.depth
        else:
            raise CertificateError(
                "a truncation index is required for non-terminating series"
            )
    value, bound = bochner_integrate(series, truncation)
    target_value = None
    matches = None
    if target is not None:
        target_value = lebesgue_integral(target, series.measure).value
        matches = abs(value - target_value) <= bound
    return SeriesIntegralResult(value, bound, target_value, matches)


def l1_norm(fn, measure: Measure, kind: Optional[NormKind] = None) -> Fraction:
    """Integral of the pointwise norm: the L1 size of an integrand.

    Scalars use the absolute value; vector simple functions need a
    NormKind.  Zero exactly when the function vanishes off a null set.
    """
    if isinstance(fn, SimpleFunction) and fn.is_vector:
        return integrate_simple(fn.norm_function(kind), measure)
    return integrate_nonneg(absolute_integrand(fn), measure)


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
    terms and compares them with the same direct integral.
    """
    representation, trace = series_from_integrand(fn, measure, eta, depth)
    direct = _result_from_parts(trace.positive_integral, trace.negative_integral)
    truncation = None if representation.series.term_count is not None else depth
    series_value, series_bound = bochner_integrate(representation, truncation)

    difference = abs(series_value - direct.value)
    mass = measure.total_mass
    difference_bound = 2 * Fraction(1, 1 << depth) * mass
    certified = depth >= max(
        trace.positive_approx.cap_level, trace.negative_approx.cap_level
    )
    return {
        "integral_class": direct.classification.value,
        "integral_value": direct.value,
        "positive_part_integral": direct.positive_part,
        "negative_part_integral": direct.negative_part,
        "series_depth": depth,
        "series_terminates": representation.exact,
        "series_term_count": representation.series.term_count,
        "summability_partial": representation.summability_partial,
        "summability_tail_bound": representation.tail_at_depth,
        "absolute_integral": trace.absolute_integral,
        "eta": Fraction(eta),
        "summability_certified": trace.certificate_ok,
        "series_integral": series_value,
        "series_integral_error_bound": series_bound,
        "recovered_integral": series_value,
        "recovered_matches_target": difference <= series_bound,
        "difference": difference,
        "difference_bound": difference_bound,
        "difference_bound_certified": certified,
        "difference_within_bound": difference <= difference_bound,
        "exact_equal": representation.exact and difference == 0,
    }
