"""Signed integrals: the positive/negative decomposition and restriction."""

import random
import time
from fractions import Fraction as F

import pytest

from exactintegral import (
    DiscreteSet,
    DiscreteSpace,
    IntervalMeasure,
    IntervalSet,
    PiecewiseLinear,
    SimpleFunction,
    SpaceMismatchError,
    UNIT_INTERVAL,
    equivalence_report,
    integrate_over,
    integrate_simple,
    lebesgue_integral,
)
from exactintegral.generators import (
    random_measure,
    random_piecewise_linear,
    random_simple_function,
)

from exactintegral.tasks import TaskSpec, run_integrate

from oracles import integral_oracle, primes_from


def iv(*pairs):
    return IntervalSet([(F(a), F(b)) for a, b in pairs])


LEBESGUE = IntervalMeasure.lebesgue()


def test_shifted_identity_parts_and_value():
    f = PiecewiseLinear.linear(F(1)) + PiecewiseLinear.constant(F(-1, 2))  # x - 1/2
    result = lebesgue_integral(f, LEBESGUE)
    assert run_integrate(TaskSpec(LEBESGUE, f, "integrate_mi"))["classification"] == "integrable"
    assert result.positive_part == F(1, 8)
    assert result.negative_part == F(1, 8)
    assert result.value == 0


def test_signed_step_value():
    f = SimpleFunction(
        UNIT_INTERVAL,
        [(F(1), iv((0, "1/4"))), (F(-1), iv(("1/4", 1)))],
    )
    assert lebesgue_integral(f, LEBESGUE).value == F(-1, 2)


def test_zero_function_is_integrable_zero():
    zero = SimpleFunction.zero(UNIT_INTERVAL)
    result = lebesgue_integral(zero, LEBESGUE)
    assert run_integrate(TaskSpec(LEBESGUE, zero, "integrate_mi"))["classification"] == "integrable"
    assert result.value == 0


def test_vector_integrand_rejected():
    from exactintegral import Vec

    f = SimpleFunction.indicator(Vec((F(1), F(2))), iv((0, "1/2")))
    with pytest.raises(ValueError):
        lebesgue_integral(f, LEBESGUE)


def test_agreement_with_term_integral_on_simple():
    rng = random.Random(12)
    for _ in range(80):
        measure = random_measure(rng)
        f = random_simple_function(rng, measure, max_terms=6, max_denominator=64)
        assert lebesgue_integral(f, measure).value == integrate_simple(f, measure)


def test_linearity_on_piecewise_linear():
    rng = random.Random(21)
    for _ in range(40):
        measure = random_measure(rng, kind="interval")
        f = random_piecewise_linear(rng)
        g = random_piecewise_linear(rng)
        a = F(rng.randint(-5, 5), rng.randint(1, 7))
        combined = f.scale(a) + g
        assert (
            lebesgue_integral(combined, measure).value
            == a * lebesgue_integral(f, measure).value
            + lebesgue_integral(g, measure).value
        )


def test_monotone_on_piecewise_linear():
    rng = random.Random(34)
    for _ in range(40):
        measure = random_measure(rng, kind="interval")
        f = random_piecewise_linear(rng)
        bump = random_piecewise_linear(rng, nonneg=True)
        assert (
            lebesgue_integral(f, measure).value
            <= lebesgue_integral(f + bump, measure).value
        )


def test_matches_oracle_on_discrete_spaces():
    rng = random.Random(55)
    for _ in range(50):
        measure = random_measure(rng, kind="discrete")
        f = random_simple_function(rng, measure, max_terms=6, max_denominator=64)
        assert lebesgue_integral(f, measure).value == integral_oracle(f, measure)


# --- integration over a set ----------------------------------------------------


def test_over_set_constant():
    one = SimpleFunction.indicator(F(1), iv((0, 1)))
    assert integrate_over(iv((0, "1/2")), one, LEBESGUE) == F(1, 2)


def test_over_empty_set():
    assert integrate_over(iv(), PiecewiseLinear.linear(F(1)), LEBESGUE) == 0


def test_over_half_of_identity():
    assert integrate_over(iv((0, "1/2")), PiecewiseLinear.linear(F(1)), LEBESGUE) == F(1, 8)


def test_over_set_additive():
    rng = random.Random(61)
    for _ in range(30):
        measure = random_measure(rng, kind="interval")
        f = random_piecewise_linear(rng)
        a = iv((0, "1/4"), ("1/2", "5/8"))
        b = iv(("1/4", "3/8"), ("3/4", 1))
        total = integrate_over(a.union(b), f, measure)
        assert total == integrate_over(a, f, measure) + integrate_over(b, f, measure)


def test_over_set_space_mismatch():
    space = DiscreteSpace((F(1), F(1)))
    f = SimpleFunction.indicator(F(1), DiscreteSet(space, [0]))
    with pytest.raises(SpaceMismatchError):
        integrate_over(iv((0, "1/2")), f, space)


def test_thousand_signed_pieces_on_a_thousand_cell_measure_stay_fast():
    """A 1000-piece signed piecewise-linear integrand against a 1000-cell
    step measure with zero-density cells: the signed integral, a depth-10
    report and the integrals over a region of 2000 intervals and over its
    complement must finish within 1 s together.  Matching every sloped
    cell against every density cell made the pair take several seconds,
    and intersecting every sloped piece with every region interval made
    the region integral alone take about 5 s; one sweep of both grids and
    a bisection into the region keep them linear in the cell counts."""
    n = 1000
    fn = PiecewiseLinear(
        [F(k, n) for k in range(n + 1)],
        [(F((-1) ** k * (k % 7 + 1), 3), F(k % 11 - 5, 7)) for k in range(n)],
    )
    measure = IntervalMeasure(
        (F(0), *(F(2 * k + 1, 2 * n + 1) for k in range(n - 1)), F(1)),
        tuple(F(k % 4, k % 3 + 1) for k in range(n)),
    )
    region = IntervalSet([(F(2 * k + 1, 4 * n), F(2 * k + 2, 4 * n)) for k in range(2 * n)])
    started = time.perf_counter()
    result = lebesgue_integral(fn, measure)
    report = equivalence_report(fn, measure, depth=10)
    over = [integrate_over(r, fn, measure) for r in (region, region.complement())]
    elapsed = time.perf_counter() - started
    assert result.value == integral_oracle(fn, measure)
    assert report["integral_value"] == result.value
    assert report["difference_within_bound"]
    assert over[0] + over[1] == result.value
    assert over[0] == integral_oracle(fn.restrict(region), measure)
    assert elapsed < 1


def test_four_thousand_prime_denominator_pieces_stay_fast():
    """A 4000-piece signed piecewise-linear integrand whose breakpoints have
    distinct ~20-bit prime denominators, under Lebesgue measure: the signed
    integral plus a depth-10 report must finish within 5 s together (1.2 to
    1.7 s on a shared 2-vCPU x86-64 host, so the bound leaves 3x headroom).
    Scaling every value-distribution row and every term of the mean to the
    lcm of all their denominators made each integer about 80000 bits long,
    and the pair took about 55 s on the same host; `exact_sum` adds the rows
    per denominator and then pairwise."""
    n = 4000
    primes = primes_from(1 << 19, n - 1)
    cuts = [F(k * p // n + 1, p) for k, p in enumerate(primes, start=1)]
    fn = PiecewiseLinear(
        [F(0), *cuts, F(1)],
        [(F((-1) ** k * (k % 7 + 1), 3), F(k % 11 - 5, 7)) for k in range(n)],
    )
    started = time.perf_counter()
    result = lebesgue_integral(fn, LEBESGUE)
    report = equivalence_report(fn, LEBESGUE, depth=10)
    elapsed = time.perf_counter() - started
    assert report["integral_value"] == result.value
    assert report["difference_within_bound"]
    assert elapsed < 5
    assert result.value == integral_oracle(fn, LEBESGUE)
