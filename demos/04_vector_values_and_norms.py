#!/usr/bin/env python3
"""Vector-valued simple functions: componentwise integrals and rational norms.

Only the linear structure of the value space is used by the integral; the
norms (L1 and LInf, both rational on rational vectors) come in for the
summability certificates and the norm-domination inequality.
"""

from fractions import Fraction as F

from exactintegral import (
    FiniteSeries,
    IntervalMeasure,
    IntervalSet,
    NormKind,
    SimpleFunction,
    UNIT_INTERVAL,
    Vec,
    bochner_integrate,
    integrate_simple,
    l1_norm,
)

lebesgue = IntervalMeasure.lebesgue()

f = SimpleFunction(
    UNIT_INTERVAL,
    [
        (Vec((F(1), F(2))), IntervalSet([(F(0), F(1, 2))])),
        (Vec((F(3), F(-4))), IntervalSet([(F(1, 2), F(3, 4))])),
    ],
)

print("f(1/4) =", f.evaluate(F(1, 4)))
print("f(7/8) =", f.evaluate(F(7, 8)))  # off every set: the zero vector
print()

total = integrate_simple(f, lebesgue)
print("integral of f      =", total)
print("componentwise check:",
      tuple(integrate_simple(f.component(i), lebesgue) for i in range(2)))
print()

# Pointwise norms become scalar simple functions.
print("||f||_L1 terms  =", f.norm_function(NormKind.L1).canonical().terms)
print("||f||_inf terms =", f.norm_function(NormKind.LINF).canonical().terms)
print()

# Norm domination: ||integral of f|| <= integral of ||f||, under both norms.
for kind in NormKind:
    lhs = total.norm(kind)
    rhs = integrate_simple(f.norm_function(kind), lebesgue)
    print(f"{kind.value:5s}: ||integral|| = {lhs} <= {rhs} = integral of norm")
print()

# L1 norms of vector functions back the certificates of vector series.
series = FiniteSeries(lebesgue, [f], norm_kind=NormKind.L1)
print("one-term vector series integral:", bochner_integrate(series))
print("its summability certificate    :", series.certificate(1))
print("l1_norm(f) under L1            :", l1_norm(f, lebesgue, NormKind.L1))
