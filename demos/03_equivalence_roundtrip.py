#!/usr/bin/env python3
"""Both integration schemes on one integrand, with certificates in between.

Forward: telescoping the staircases of the positive and negative parts
yields a series of simple functions whose absolute-integral sum never
exceeds integral(|f|) -- the summability certificate.  Backward: summing
term integrals recovers the direct integral, exactly for terminating
series and within an exact tail bound otherwise.
"""

from fractions import Fraction as F

from exactintegral import (
    FunctionSeries,
    IntervalMeasure,
    IntervalSet,
    PiecewiseLinear,
    SimpleFunction,
    UNIT_INTERVAL,
    bochner_integrate,
    equivalence_report,
    integral_from_series,
    lebesgue_integral,
    series_from_integrand,
)

lebesgue = IntervalMeasure.lebesgue()

# --- a grid-aligned step function: the series terminates, equality is exact ----

step = SimpleFunction(
    UNIT_INTERVAL,
    [
        (F(1), IntervalSet([(F(0), F(1, 4))])),
        (F(-1), IntervalSet([(F(1, 4), F(1))])),
    ],
)
rep = series_from_integrand(step, lebesgue, depth=8)
print("series terminates:", rep.exact, "after", rep.series.term_count, "terms")
print("sum of |h_n| integrals:", rep.summability_partial,
      "<= integral(|f|) =", rep.absolute_integral)
print("series integral:", bochner_integrate(rep))
print("direct integral:", lebesgue_integral(step, lebesgue).value)
print("recovered      :", integral_from_series(rep).value)
print()

# Partial sums of the series, summed term by term, reproduce the staircase
# difference pointwise.
positive, negative = rep.series.positive, rep.series.negative
for level in (1, 2, 4):
    for point in (F(1, 8), F(1, 3), F(7, 8)):
        summed = FunctionSeries.partial_value_at(rep.series, point, level)
        assert summed == positive.value_at(level, point) - negative.value_at(level, point)
print("partial sums g_k match the level-k staircases at sampled points")
print()

# --- a sloped integrand: the series never terminates, the gap is certified -----

identity = PiecewiseLinear.linear(F(1))
report = equivalence_report(identity, lebesgue, eta=F(1, 1024), depth=20)
for key in (
    "integral_value",
    "series_integral",
    "difference",
    "difference_bound",
    "difference_within_bound",
    "summability_partial",
    "summability_certified",
    "recovered_matches_target",
):
    print(f"{key:28s} = {report[key]}")
print()

# The tail certificate keeps shrinking: the series really is summable.
depth_rep = series_from_integrand(identity, lebesgue, depth=20)
for level in (5, 10, 20):
    partial, tail = depth_rep.series.certificate(level)
    print(f"certificate at {level:2d}: partial = {partial}, tail = {tail}")

# Pointwise, the partial sums climb toward the integrand.
point = F(2, 3)
print("partial sums at 2/3:",
      [depth_rep.series.partial_value_at(point, n) for n in (1, 2, 3, 8)],
      "-> target", identity.evaluate(point))
