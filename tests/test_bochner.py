"""Series integration: certificates, telescoping, and both theorem directions."""

import random
from fractions import Fraction as F

import pytest

from exactintegral import (
    CertificateError,
    FiniteSeries,
    FunctionSeries,
    IntervalMeasure,
    IntervalSet,
    NormKind,
    PiecewiseLinear,
    RuleSeries,
    SimpleFunction,
    TelescopeSeries,
    UNIT_INTERVAL,
    Vec,
    absolute_sum_check,
    bochner_integrate,
    equivalence_report,
    geometric_indicator_series,
    integral_from_series,
    l1_norm,
    lebesgue_integral,
    pointwise_partial_sum,
    series_from_integrand,
)
from exactintegral.generators import (
    random_measure,
    random_piecewise_linear,
    random_simple_function,
    sample_points,
)


def iv(*pairs):
    return IntervalSet([(F(a), F(b)) for a, b in pairs])


def sf(*terms):
    return SimpleFunction(UNIT_INTERVAL, [(F(v), part) for v, part in terms])


LEBESGUE = IntervalMeasure.lebesgue()
IDENTITY = PiecewiseLinear.linear(F(1))

TWO_TERM = FiniteSeries(
    LEBESGUE,
    [
        SimpleFunction.indicator(F(1), iv((0, 1))),
        SimpleFunction.indicator(F(-1), iv((0, "1/2"))),
    ],
)


# --- summability certificates ---------------------------------------------------


def test_finite_series_certificate():
    assert absolute_sum_check(TWO_TERM, 2) == (F(3, 2), F(0))
    assert absolute_sum_check(TWO_TERM, 1) == (F(1), F(1, 2))


def test_geometric_certificate():
    series = geometric_indicator_series(LEBESGUE, F(1, 2))
    for upto in (1, 3, 8):
        partial, tail = absolute_sum_check(series, upto)
        assert partial == 1 - F(1, 1 << upto)
        assert tail == F(1, 1 << upto)


def test_empty_series_certificate_and_integral():
    empty = FiniteSeries(LEBESGUE, [])
    assert absolute_sum_check(empty, 0) == (F(0), F(0))
    assert bochner_integrate(empty) == (F(0), F(0))


def test_rule_series_without_tail_bound_refuses():
    series = RuleSeries(
        LEBESGUE, rule=lambda n: SimpleFunction.indicator(F(1, n), iv((0, 1)))
    )
    with pytest.raises(CertificateError):
        absolute_sum_check(series, 3)
    with pytest.raises(CertificateError):
        bochner_integrate(series)


# --- truncated sums --------------------------------------------------------------


def test_two_term_series_integral():
    assert bochner_integrate(TWO_TERM) == (F(1, 2), F(0))


def test_vector_series_integral():
    series = FiniteSeries(
        LEBESGUE,
        [SimpleFunction.indicator(Vec((F(1), F(2))), iv((0, "1/2")))],
        norm_kind=NormKind.L1,
    )
    value, bound = bochner_integrate(series)
    assert value == Vec((F(1, 2), F(1)))
    assert bound == 0


def test_vector_series_needs_norm():
    term = SimpleFunction.indicator(Vec((F(1), F(2))), iv((0, "1/2")))
    with pytest.raises(ValueError):
        FiniteSeries(LEBESGUE, [term])


def test_geometric_truncation_and_bound():
    series = geometric_indicator_series(LEBESGUE, F(1, 2))
    value, bound = bochner_integrate(series, truncation=10)
    assert value == 1 - F(1, 1 << 10)
    assert bound == F(1, 1 << 10)
    assert abs(F(1) - value) <= bound


def test_pointwise_partial_sums():
    series = geometric_indicator_series(LEBESGUE, F(1, 2))
    assert pointwise_partial_sum(series, F(1, 3), 0) == 0
    assert pointwise_partial_sum(series, F(2, 3), 5) == 1 - F(1, 32)
    assert pointwise_partial_sum(TWO_TERM, F(1, 4), 2) == 0
    assert pointwise_partial_sum(TWO_TERM, F(3, 4), 2) == 1


# --- the forward construction ----------------------------------------------------


def test_indicator_terminates_at_level_one():
    fn = SimpleFunction.indicator(F(1), iv((0, "1/2")))
    rep, trace = series_from_integrand(fn, LEBESGUE, depth=6)
    assert rep.exact
    assert rep.series.term_count == 1
    assert rep.series.term(1) == fn
    assert rep.summability_partial == F(1, 2) == l1_norm(fn, LEBESGUE)
    assert pointwise_partial_sum(rep, F(1, 4), 6) == 1


def test_zero_function_gives_empty_series():
    rep, _ = series_from_integrand(SimpleFunction.zero(UNIT_INTERVAL), LEBESGUE, depth=4)
    assert rep.exact
    assert rep.series.term_count == 0
    assert bochner_integrate(rep) == (F(0), F(0))


def test_identity_partial_sums_follow_closed_form():
    rep, trace = series_from_integrand(IDENTITY, LEBESGUE, depth=12)
    assert not rep.exact
    running = F(0)
    for row in trace.rows:
        running += row.positive_increment_integral
        assert running == F((1 << row.level) - 1, 1 << (row.level + 1))
    assert rep.summability_partial <= F(1, 2)


def test_telescoping_partial_sums_reproduce_staircase():
    rng = random.Random(41)
    for _ in range(15):
        measure = random_measure(rng)
        if isinstance(measure, IntervalMeasure) and rng.random() < 0.5:
            fn = random_piecewise_linear(rng)
        else:
            fn = random_simple_function(rng, measure, max_terms=5, max_denominator=64)
        rep, trace = series_from_integrand(fn, measure, depth=6)
        for point in sample_points(rng, measure, 15):
            for level in (1, 3, 6):
                assert trace.partial_sum_value(level, point) == trace.staircase_difference(
                    level, point
                )


def test_construction_certificate_never_exceeds_absolute_integral():
    rng = random.Random(52)
    for _ in range(40):
        measure = random_measure(rng)
        fn = random_simple_function(rng, measure, max_terms=6, max_denominator=64)
        rep, trace = series_from_integrand(fn, measure, eta=F(1, 1024), depth=10)
        assert trace.certificate_ok
        assert rep.summability_partial <= trace.absolute_integral
        assert rep.summability_partial <= l1_norm(fn, measure) + F(1, 1024)


def test_construction_terms_match_direct_increments():
    fn = sf((F(3, 4), iv((0, "1/4"))), (F(-1, 2), iv(("1/2", 1))))
    rep, trace = series_from_integrand(fn, LEBESGUE, depth=6)
    assert rep.exact
    series = rep.series
    total = SimpleFunction.zero(UNIT_INTERVAL)
    for n in range(1, series.term_count + 1):
        total = total + series.term(n)
    assert total == fn  # partial sums reach the target exactly


def test_negative_eta_rejected():
    with pytest.raises(ValueError):
        series_from_integrand(IDENTITY, LEBESGUE, eta=F(-1))


# --- the reverse direction --------------------------------------------------------


def test_roundtrip_signed_step():
    fn = sf((1, iv((0, "1/4"))), (-1, iv(("1/4", 1))))
    rep, _ = series_from_integrand(fn, LEBESGUE, depth=8)
    result = integral_from_series(rep)
    assert result.value == F(-1, 2) == lebesgue_integral(fn, LEBESGUE).value
    assert result.error_bound == 0
    assert result.matches_target


def test_recover_from_integrable_terms():
    tent = PiecewiseLinear((F(0), F(1, 2), F(1)), ((F(2), F(0)), (F(-2), F(2))))
    series = FiniteSeries(LEBESGUE, [IDENTITY, tent.scale(F(1, 4))])
    result = integral_from_series(series)
    assert result.value == F(5, 8)
    assert result.error_bound == 0


def test_recover_empty_series():
    assert integral_from_series(FiniteSeries(LEBESGUE, [])).value == 0


def test_recover_requires_scalar():
    series = FiniteSeries(
        LEBESGUE,
        [SimpleFunction.indicator(Vec((F(1), F(2))), iv((0, "1/2")))],
        norm_kind=NormKind.L1,
    )
    with pytest.raises(ValueError):
        integral_from_series(series)


def test_recover_rule_series_within_tail():
    series = geometric_indicator_series(LEBESGUE, F(1, 3))
    result = integral_from_series(series, truncation=12)
    exact = F(1, 3) / (1 - F(1, 3))
    assert abs(result.value - exact) <= result.error_bound


def test_roundtrip_random_simple_functions():
    rng = random.Random(63)
    for _ in range(40):
        measure = random_measure(rng)
        fn = random_simple_function(
            rng, measure, max_terms=6, max_denominator=64, values="dyadic"
        )
        rep, _ = series_from_integrand(fn, measure, depth=12)
        assert rep.exact
        result = integral_from_series(rep)
        assert result.value == lebesgue_integral(fn, measure).value
        assert result.error_bound == 0


def test_roundtrip_piecewise_within_certificate():
    rng = random.Random(71)
    for _ in range(20):
        measure = random_measure(rng, kind="interval")
        fn = random_piecewise_linear(rng)
        rep, _ = series_from_integrand(fn, measure, depth=14)
        result = integral_from_series(rep)
        assert result.matches_target
        assert abs(result.value - lebesgue_integral(fn, measure).value) <= result.error_bound


# --- the L1 norm -------------------------------------------------------------------


def test_l1_norm_anchors():
    assert l1_norm(SimpleFunction.indicator(F(-3), iv((0, "1/3"))), LEBESGUE) == 1
    assert l1_norm(SimpleFunction.zero(UNIT_INTERVAL), LEBESGUE) == 0
    assert l1_norm(IDENTITY, LEBESGUE) == F(1, 2)


def test_l1_norm_axioms_on_random_pairs():
    rng = random.Random(83)
    for _ in range(60):
        measure = random_measure(rng)
        f = random_simple_function(rng, measure, max_terms=5, max_denominator=64)
        g = random_simple_function(rng, measure, max_terms=5, max_denominator=64)
        c = F(rng.randint(-8, 8), rng.randint(1, 9))
        assert l1_norm(f + g, measure) <= l1_norm(f, measure) + l1_norm(g, measure)
        assert l1_norm(f.scale(c), measure) == abs(c) * l1_norm(f, measure)


def test_l1_norm_zero_iff_null_support():
    measure = IntervalMeasure((F(0), F(1, 2), F(1)), (F(0), F(2)))
    lives_on_null = SimpleFunction.indicator(F(7), iv((0, "1/2")))
    assert l1_norm(lives_on_null, measure) == 0
    assert measure.measure_of(lives_on_null.support()) == 0
    visible = SimpleFunction.indicator(F(1), iv(("1/2", "3/4")))
    assert l1_norm(visible, measure) > 0


def test_l1_norm_vector_requires_kind():
    f = SimpleFunction.indicator(Vec((F(1), F(-2))), iv((0, "1/2")))
    with pytest.raises(ValueError):
        l1_norm(f, LEBESGUE)
    assert l1_norm(f, LEBESGUE, NormKind.L1) == F(3, 2)
    assert l1_norm(f, LEBESGUE, NormKind.LINF) == 1


# --- the equivalence report ---------------------------------------------------------


def test_report_exact_for_grid_aligned_step():
    fn = sf((2, iv((0, "1/2"))), (3, iv(("1/2", 1))))
    report = equivalence_report(fn, LEBESGUE, depth=8)
    assert report["integral_value"] == F(5, 2)
    assert report["series_integral"] == F(5, 2)
    assert report["exact_equal"]
    assert report["difference"] == 0
    assert report["summability_certified"]


def test_report_zero_function():
    report = equivalence_report(SimpleFunction.zero(UNIT_INTERVAL), LEBESGUE, depth=4)
    assert report["integral_value"] == 0
    assert report["series_integral"] == 0
    assert report["exact_equal"]


def test_report_identity_certified_gap():
    report = equivalence_report(IDENTITY, LEBESGUE, depth=20)
    assert report["integral_value"] == F(1, 2)
    assert not report["exact_equal"]
    assert report["difference_bound"] == 2 * F(1, 1 << 20)
    assert report["difference_bound_certified"]
    assert report["difference_within_bound"]
    assert report["recovered_matches_target"]


def _random_signed_case(rng):
    measure = random_measure(rng)
    if isinstance(measure, IntervalMeasure) and rng.random() < 0.5:
        return random_piecewise_linear(rng), measure
    return random_simple_function(rng, measure, max_terms=5, max_denominator=64), measure


def test_telescoped_partial_sums_equal_summed_terms():
    rng = random.Random(61)
    for _ in range(20):
        fn, measure = _random_signed_case(rng)
        _, trace = series_from_integrand(fn, measure, depth=8)
        for term_count in (None, 3):
            series = TelescopeSeries(
                measure,
                trace.positive_approx,
                trace.negative_approx,
                trace.positive_integral,
                trace.negative_integral,
                term_count=term_count,
            )
            for upto in range(0, 10):
                assert series.partial_integral_sum(upto) == FunctionSeries.partial_integral_sum(
                    series, upto
                )
                assert series.partial_abs_sum(upto) == FunctionSeries.partial_abs_sum(
                    series, upto
                )


def test_report_recovery_equals_integral_from_series():
    rng = random.Random(67)
    for _ in range(20):
        fn, measure = _random_signed_case(rng)
        depth = rng.choice((4, 9))
        report = equivalence_report(fn, measure, depth=depth)
        rep, _ = series_from_integrand(fn, measure, depth=depth)
        truncation = None if rep.series.term_count is not None else depth
        recovered = integral_from_series(rep, truncation)
        direct = lebesgue_integral(fn, measure)
        assert report["recovered_integral"] == recovered.value
        assert report["recovered_matches_target"] == recovered.matches_target
        assert report["integral_value"] == direct.value == recovered.target_value
        assert report["positive_part_integral"] == direct.positive_part
        assert report["negative_part_integral"] == direct.negative_part
        assert report["integral_class"] == direct.classification.value
