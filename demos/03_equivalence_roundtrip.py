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
rep, trace = series_from_integrand(step, lebesgue, depth=8)
print("series terminates:", rep.exact, "after", rep.series.term_count, "terms")
print("sum of |h_n| integrals:", rep.summability_partial,
      "<= integral(|f|) =", trace.absolute_integral)
print("series integral:", bochner_integrate(rep))
print("direct integral:", lebesgue_integral(step, lebesgue).value)
print("recovered      :", integral_from_series(rep).value)
print()

# Partial sums of the series reproduce the staircase difference pointwise.
for level in (1, 2, 4):
    for point in (F(1, 8), F(1, 3), F(7, 8)):
        assert trace.partial_sum_value(level, point) == trace.staircase_difference(level, point)
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
depth_rep, _ = series_from_integrand(identity, lebesgue, depth=20)
for level in (5, 10, 20):
    partial, tail = depth_rep.series.certificate(level)
    print(f"certificate at {level:2d}: partial = {partial}, tail = {tail}")

# Pointwise, the partial sums climb toward the integrand.
point = F(2, 3)
print("partial sums at 2/3:",
      [depth_rep.series.partial_value_at(point, n) for n in (1, 2, 3, 8)],
      "-> target", identity.evaluate(point))
