"""Series integration: certificates, telescoping, and both theorem directions."""

import random
import subprocess
import sys
from fractions import Fraction as F
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from exactintegral import (
    BochnerRepresentation,
    CertificateError,
    DiscreteSet,
    DiscreteSpace,
    DyadicApproximation,
    FiniteSeries,
    FunctionSeries,
    GeometricIndicatorSeries,
    IntervalMeasure,
    IntervalSet,
    NormKind,
    PiecewiseLinear,
    SimpleFunction,
    TelescopeSeries,
    UNIT_INTERVAL,
    Vec,
    bochner_integrate,
    equivalence_report,
    integral_from_series,
    l1_norm,
    lebesgue_integral,
    series_from_integrand,
)
from exactintegral import lebesgue
from exactintegral.generators import (
    random_measure,
    random_piecewise_linear,
    random_simple_function,
    sample_points,
)

from oracles import integral_oracle, materialized_telescope_reference, term_points


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
    assert TWO_TERM.certificate(2) == (F(3, 2), F(0))
    assert TWO_TERM.certificate(1) == (F(1), F(1, 2))


def test_geometric_certificate():
    series = GeometricIndicatorSeries(LEBESGUE, F(1, 2))
    for upto in (1, 3, 8):
        partial, tail = series.certificate(upto)
        assert partial == 1 - F(1, 1 << upto)
        assert tail == F(1, 1 << upto)


def test_empty_series_certificate_and_integral():
    empty = FiniteSeries(LEBESGUE, [])
    assert empty.certificate(0) == (F(0), F(0))
    assert bochner_integrate(empty) == (F(0), F(0))


def test_endless_series_without_truncation_refuses():
    series = GeometricIndicatorSeries(LEBESGUE, F(1, 2))
    required = "a truncation index is required for non-terminating series"
    with pytest.raises(CertificateError, match=required):
        bochner_integrate(series)
    with pytest.raises(CertificateError, match=required):
        integral_from_series(series)


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
    # A piecewise-linear term is scalar, so it shares no dimension with a vector term.
    with pytest.raises(ValueError, match="^series terms must share one value dimension$"):
        FiniteSeries(LEBESGUE, [IDENTITY, term], norm_kind=NormKind.L1)


def test_geometric_truncation_and_bound():
    series = GeometricIndicatorSeries(LEBESGUE, F(1, 2))
    value, bound = bochner_integrate(series, truncation=10)
    assert value == 1 - F(1, 1 << 10)
    assert bound == F(1, 1 << 10)
    assert abs(F(1) - value) <= bound


def test_pointwise_partial_sums():
    series = GeometricIndicatorSeries(LEBESGUE, F(1, 2))
    assert series.partial_value_at(F(1, 3), 0) == 0
    assert series.partial_value_at(F(2, 3), 5) == 1 - F(1, 32)
    assert TWO_TERM.partial_value_at(F(1, 4), 2) == 0
    assert TWO_TERM.partial_value_at(F(3, 4), 2) == 1


# --- the forward construction ----------------------------------------------------


def test_indicator_terminates_at_level_one():
    fn = SimpleFunction.indicator(F(1), iv((0, "1/2")))
    rep = series_from_integrand(fn, LEBESGUE, depth=6)
    assert rep.exact
    assert rep.series.term_count == 1
    assert rep.series.term(1) == fn
    assert rep.summability_partial == F(1, 2) == l1_norm(fn, LEBESGUE)
    assert rep.series.partial_value_at(F(1, 4), 6) == 1


def test_zero_function_gives_empty_series():
    rep = series_from_integrand(SimpleFunction.zero(UNIT_INTERVAL), LEBESGUE, depth=4)
    assert rep.exact
    assert rep.series.term_count == 0
    assert bochner_integrate(rep) == (F(0), F(0))


def test_identity_partial_sums_follow_closed_form():
    rep = series_from_integrand(IDENTITY, LEBESGUE, depth=12)
    assert not rep.exact
    running = F(0)
    for level in range(1, 13):
        running += rep.series.term_integral(level)
        assert running == F((1 << level) - 1, 1 << (level + 1))
    assert rep.summability_partial <= F(1, 2)


def test_telescoping_partial_sums_reproduce_staircase():
    rng = random.Random(41)
    for _ in range(15):
        measure = random_measure(rng)
        if isinstance(measure, IntervalMeasure) and rng.random() < 0.5:
            fn = random_piecewise_linear(rng)
        else:
            fn = random_simple_function(rng, measure, max_terms=5, max_denominator=64)
        series = series_from_integrand(fn, measure, depth=6).series
        for point in sample_points(rng, measure, 15):
            for level in (1, 3, 6):
                # The partial sum term by term, not the telescoped shortcut.
                summed = FunctionSeries.partial_value_at(series, point, level)
                staircase = series.positive.value_at(level, point) - series.negative.value_at(
                    level, point
                )
                assert summed == staircase


def test_construction_certificate_never_exceeds_absolute_integral():
    rng = random.Random(52)
    for _ in range(40):
        measure = random_measure(rng)
        fn = random_simple_function(rng, measure, max_terms=6, max_denominator=64)
        rep = series_from_integrand(fn, measure, eta=F(1, 1024), depth=10)
        assert rep.certificate_ok
        assert rep.summability_partial <= rep.absolute_integral
        assert rep.summability_partial <= l1_norm(fn, measure) + F(1, 1024)


def test_construction_terms_match_direct_increments():
    fn = sf((F(3, 4), iv((0, "1/4"))), (F(-1, 2), iv(("1/2", 1))))
    rep = series_from_integrand(fn, LEBESGUE, depth=6)
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
    rep = series_from_integrand(fn, LEBESGUE, depth=8)
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
    # A piecewise-linear term beside a scalar simple term: a scalar series.
    mixed = FiniteSeries(LEBESGUE, [IDENTITY, SimpleFunction.indicator(F(1, 2), iv((0, "1/2")))])
    assert mixed.dim is None
    assert integral_from_series(mixed).value == F(3, 4)


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
    series = GeometricIndicatorSeries(LEBESGUE, F(1, 3))
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
        rep = series_from_integrand(fn, measure, depth=12)
        assert rep.exact
        result = integral_from_series(rep)
        assert result.value == lebesgue_integral(fn, measure).value
        assert result.error_bound == 0


def test_roundtrip_piecewise_within_certificate():
    rng = random.Random(71)
    for _ in range(20):
        measure = random_measure(rng, kind="interval")
        fn = random_piecewise_linear(rng)
        rep = series_from_integrand(fn, measure, depth=14)
        result = integral_from_series(rep)
        assert result.matches_target
        assert abs(result.value - lebesgue_integral(fn, measure).value) <= result.error_bound


# --- the L1 norm -------------------------------------------------------------------


def test_l1_norm_anchors():
    assert l1_norm(SimpleFunction.indicator(F(-3), iv((0, "1/3"))), LEBESGUE) == 1
    assert l1_norm(SimpleFunction.zero(UNIT_INTERVAL), LEBESGUE) == 0
    assert l1_norm(IDENTITY, LEBESGUE) == F(1, 2)
    # A piecewise-linear function is scalar: its norm is the integral of |f|.
    rng = random.Random(89)
    for _ in range(40):
        fn, measure = random_piecewise_linear(rng), random_measure(rng, kind="interval")
        assert l1_norm(fn, measure) == integral_oracle(fn.absolute(), measure)


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
        built = series_from_integrand(fn, measure, depth=8).series
        series = TelescopeSeries(measure, built.positive, built.negative)
        direct = lebesgue_integral(fn, measure)
        assert series.positive_limit == direct.positive_part
        assert series.negative_limit == direct.negative_part
        for upto in range(0, 10):
            assert series.partial_integral_sum(upto) == FunctionSeries.partial_integral_sum(
                series, upto
            )
            assert series.partial_abs_sum(upto) == FunctionSeries.partial_abs_sum(series, upto)


def test_hand_built_series_with_overlapping_parts_has_its_defined_terms():
    """h_n = (f_n - f_(n-1)) - (g_n - g_(n-1)) also when the two staircases
    given by hand overlap: at level 4 both rise by 1/16 on [1/4, 1/2)."""
    f, g = sf((F(1, 3), iv((0, "1/2")))), sf((F(1, 5), iv(("1/4", "3/4"))))
    P, N = DyadicApproximation(f), DyadicApproximation(g)
    series = TelescopeSeries(LEBESGUE, P, N)
    for n in range(1, 7):
        term = series.term(n)
        assert term == (P.level(n) - P.level(n - 1)) - (N.level(n) - N.level(n - 1)), n
        assert lebesgue_integral(term, LEBESGUE).value == series.term_integral(n), n
    assert [series.term(4).evaluate(F(k, 8)) for k in range(0, 8, 2)] == [
        F(1, 16), F(0), F(-1, 16), F(0)
    ]


@pytest.mark.parametrize(
    "fn, computing",
    [
        (PiecewiseLinear([F(0), F(1, 3), F(1)], [(F(3), F(-1, 2)), (F(-1), F(2))]), 2),
        (sf((F(3, 4), iv((0, "1/4"))), (F(-5, 2), iv(("1/2", 1)))), 0),
        (sf((F(40), iv((0, "1/2"))), (F(-3, 8), iv(("1/2", 1)))), 1),
    ],
    ids=["piecewise_linear", "terminating_simple", "terminating_past_depth"],
)
def test_report_computes_at_most_one_staircase_level_per_part(fn, computing, monkeypatch):
    """The certificate at depth d reads each part at level d alone: a part
    that terminates by d reads its limit, every other part computes level d
    and no other level, level 0 included."""
    levels = [part.termination_level() for part in DyadicApproximation.parts(fn)]
    assert sum(level is None or level > 30 for level in levels) == computing
    computed = {}
    original = lebesgue._StaircaseTable._level

    def counting_level(table, n):
        computed.setdefault(id(table), []).append(n)
        return original(table, n)

    monkeypatch.setattr(lebesgue._StaircaseTable, "_level", counting_level)
    report = equivalence_report(fn, LEBESGUE, depth=30)
    assert report["integral_value"] == lebesgue_integral(fn, LEBESGUE).value
    assert list(computed.values()) == [[30]] * computing, computed


def test_report_computes_each_certificate_value_once(monkeypatch):
    """A depth-30 report of a piecewise-linear integrand computes the tail
    bound at depth 30 once, for the certificate and the series integral's
    error bound both, and the absolute integral once, for its entry and for
    `certificate_ok` both."""
    fn = PiecewiseLinear([F(0), F(1, 3), F(1)], [(F(3), F(-1, 2)), (F(-1), F(2))])
    expected = equivalence_report(fn, LEBESGUE, depth=30)
    tails = []
    tail_bound = TelescopeSeries.tail_bound

    def counting_tail(series, after):
        tails.append(after)
        return tail_bound(series, after)

    absolute = BochnerRepresentation.__dict__["absolute_integral"]
    assert isinstance(absolute, cached_property)
    computed = []

    def counting_absolute(representation):
        computed.append(representation)
        return absolute.func(representation)

    counted = cached_property(counting_absolute)
    counted.__set_name__(BochnerRepresentation, "absolute_integral")
    monkeypatch.setattr(TelescopeSeries, "tail_bound", counting_tail)
    monkeypatch.setattr(BochnerRepresentation, "absolute_integral", counted)
    report = equivalence_report(fn, LEBESGUE, depth=30)
    assert tails == [30]
    assert len(computed) == 1
    assert report == expected
    assert report["series_integral_error_bound"] == report["summability_tail_bound"] > 0


def test_integral_from_series_reads_the_certificate_s_tail(monkeypatch):
    """Truncated at its depth, an endless representation's recovered
    integral takes the tail bound its certificate already holds."""
    fn = PiecewiseLinear([F(0), F(1, 3), F(1)], [(F(3), F(-1, 2)), (F(-1), F(2))])
    rep = series_from_integrand(fn, LEBESGUE, depth=12)
    assert rep.series.term_count is None
    tails = []
    tail_bound = TelescopeSeries.tail_bound

    def counting_tail(series, after):
        tails.append(after)
        return tail_bound(series, after)

    monkeypatch.setattr(TelescopeSeries, "tail_bound", counting_tail)
    result = integral_from_series(rep)
    assert tails == []
    assert result.error_bound == rep.tail_at_depth > 0
    assert result.matches_target


def test_report_recovery_equals_integral_from_series():
    rng = random.Random(67)
    for _ in range(20):
        fn, measure = _random_signed_case(rng)
        depth = rng.choice((4, 9))
        report = equivalence_report(fn, measure, depth=depth)
        rep = series_from_integrand(fn, measure, depth=depth)
        truncation = None if rep.series.term_count is not None else depth
        recovered = integral_from_series(rep, truncation)
        direct = lebesgue_integral(fn, measure)
        assert report["recovered_integral"] == recovered.value
        assert report["recovered_matches_target"] == recovered.matches_target
        assert report["integral_value"] == direct.value == recovered.target_value
        assert report["positive_part_integral"] == direct.positive_part
        assert report["negative_part_integral"] == direct.negative_part
        assert report["integral_class"] == "integrable"


# --- the lazy terminating series against the materialized one -------------------

# Values on the 1/8 grid below 5 in size make every series terminate by level 5.
grid_values = st.integers(-40, 40).map(lambda k: F(k, 8))
weights = st.fractions(min_value=0, max_value=4, max_denominator=8)
unit_cuts = st.lists(
    st.fractions(min_value=0, max_value=1, max_denominator=32).filter(lambda t: 0 < t < 1),
    unique=True,
    max_size=4,
)


@st.composite
def grid_aligned_cases(draw):
    """(f, measure): dyadic values on [0, 1) under a step measure, or on a
    weighted finite space."""
    if draw(st.booleans()):
        space = DiscreteSpace(tuple(draw(st.lists(weights, min_size=1, max_size=6))))
        labels = draw(st.lists(st.integers(0, 3), min_size=space.size, max_size=space.size))
        terms = [
            (draw(grid_values), DiscreteSet(space, [i for i, g in enumerate(labels) if g == label]))
            for label in sorted(set(labels))
        ]
        return SimpleFunction(space, terms), space
    grid = [F(0), *sorted(draw(unit_cuts)), F(1)]
    fn = sf(*((draw(grid_values), iv((u, w))) for u, w in zip(grid, grid[1:]) if draw(st.booleans())))
    cells = [F(0), *sorted(draw(unit_cuts)), F(1)]
    densities = draw(st.lists(weights, min_size=len(cells) - 1, max_size=len(cells) - 1))
    return fn, IntervalMeasure(tuple(cells), tuple(densities))


@settings(max_examples=60, deadline=None)
@given(grid_aligned_cases())
def test_terminating_series_is_lazy_and_equals_the_materialized_one(case):
    fn, measure = case
    rep = series_from_integrand(fn, measure, depth=8)
    lazy = rep.series
    assert rep.exact and isinstance(lazy, TelescopeSeries)
    reference = materialized_telescope_reference(lazy)
    count = lazy.term_count
    assert count == reference.term_count
    for n in range(1, count + 1):
        assert lazy.term(n) == reference.term(n), n
        assert lazy.term_integral(n) == reference.term_integral(n), n
        assert lazy.term_abs_integral(n) == reference.term_abs_integral(n), n
    for k in range(0, count + 3):
        assert lazy.partial_integral_sum(k) == reference.partial_integral_sum(k), k
        assert lazy.partial_abs_sum(k) == reference.partial_abs_sum(k), k
        assert lazy.tail_bound(k) == reference.tail_bound(k), k
    assert lazy.tail_bound(count) == 0
    for point in term_points(fn.space, (fn, *reference.terms)):
        for k in range(0, count + 3):
            assert lazy.partial_value_at(point, k) == reference.partial_value_at(point, k)
        assert lazy.partial_value_at(point, count) == fn.evaluate(point)


def test_terminating_series_refuses_terms_past_the_end():
    step = sf((F(3, 4), iv((0, "1/4"))), (F(-1, 2), iv(("1/2", 1))))
    for fn in (step, SimpleFunction.zero(UNIT_INTERVAL)):
        lazy = series_from_integrand(fn, LEBESGUE, depth=6).series
        finite = FiniteSeries(LEBESGUE, [lazy.term(n) for n in range(1, lazy.term_count + 1)])
        for index in (lazy.term_count + 1, lazy.term_count + 5):
            messages = []
            for series in (lazy, finite):
                with pytest.raises(IndexError) as info:
                    series.term(index)
                messages.append(str(info.value))
            assert messages[0] == messages[1] == (
                f"series has {lazy.term_count} terms, asked for {index}"
            )


def terminating_pair(fn):
    """The telescoped series of `fn` and the finite series of its terms."""
    lazy = series_from_integrand(fn, LEBESGUE, depth=6).series
    finite = FiniteSeries(LEBESGUE, [lazy.term(n) for n in range(1, lazy.term_count + 1)])
    return lazy, finite


@pytest.mark.parametrize(
    "make",
    [
        lambda: terminating_pair(sf((F(3, 4), iv((0, "1/4"))), (F(-1, 2), iv(("1/2", 1))))),
        lambda: terminating_pair(SimpleFunction.zero(UNIT_INTERVAL)),
        lambda: (GeometricIndicatorSeries(LEBESGUE, F(1, 2)),),
    ],
    ids=["step", "zero", "geometric"],
)
def test_terminating_series_accessors_refuse_what_a_finite_series_refuses(make):
    """One index contract: per-term accessors and partial sums refuse alike."""
    group = make()
    count = group[0].term_count
    if count is None:
        refused = {0: "series terms are 1-indexed", -1: "series terms are 1-indexed"}
    else:
        refused = {i: f"series has {count} terms, asked for {i}" for i in (0, count + 1)}
    for index, message in refused.items():
        for accessor in (
            lambda series: series.term(index),
            lambda series: series.term_integral(index),
            lambda series: series.term_abs_integral(index),
            lambda series: series.term_value_at(index, F(1, 8)),
        ):
            for series in group:
                with pytest.raises(IndexError) as info:
                    accessor(series)
                assert str(info.value) == message
    for series in group:
        for partial in (series.tail_bound, series.partial_integral_sum, series.partial_abs_sum):
            with pytest.raises(ValueError) as info:
                partial(-1)
            assert str(info.value) == "index must be >= 0"


def two_step(value):
    """`value` on [0, 1/2), -3/8 on [1/2, 1): terminates at the value's level."""
    return sf((F(value), iv((0, "1/2"))), (F(-3, 8), iv(("1/2", 1))))


WEIGHTED_THREE = DiscreteSpace((F(1), F(0), F(2, 3)))
PARTIAL_VALUE_CASES = [
    *((two_step(value), LEBESGUE) for value in (F(3), F(5, 2), F(7, 4), F(13))),
    (two_step(F(9, 4)), IntervalMeasure((F(0), F(1, 3), F(1)), (F(2), F(0)))),
    (
        SimpleFunction(
            WEIGHTED_THREE,
            [
                (F(9, 4), DiscreteSet(WEIGHTED_THREE, [0])),
                (F(-5), DiscreteSet(WEIGHTED_THREE, [2])),
            ],
        ),
        WEIGHTED_THREE,
    ),
]


@pytest.mark.parametrize("fn, measure", PARTIAL_VALUE_CASES)
def test_partial_value_at_equals_the_summed_term_values(fn, measure):
    series = series_from_integrand(fn, measure, depth=4).series
    for point in term_points(fn.space, (fn,)):
        running = F(0)
        for k in range(0, series.term_count + 3):
            if 1 <= k <= series.term_count:
                running += series.term_value_at(k, point)
            assert series.partial_value_at(point, k) == running, (point, k)
        assert series.partial_value_at(point, series.term_count) == fn.evaluate(point)


DEEP_PARTIAL_VALUE = """
import time
from fractions import Fraction as F
from exactintegral import IntervalMeasure, IntervalSet, SimpleFunction, UNIT_INTERVAL
from exactintegral import series_from_integrand

value = F(1 << 40)
fn = SimpleFunction(UNIT_INTERVAL, [
    (value, IntervalSet([(F(0), F(1, 2))])),
    (F(-3, 8), IntervalSet([(F(1, 2), F(1))])),
])
series = series_from_integrand(fn, IntervalMeasure.lebesgue(), depth=8).series
start = time.perf_counter()
left = series.partial_value_at(F(1, 4), series.term_count)
right = series.partial_value_at(F(3, 4), series.term_count)
print(series.term_count, left, right, time.perf_counter() - start)
"""


def test_partial_value_at_a_deep_termination_level_finishes():
    # A timeout turns a term-by-term walk up to level 2^40 into a failure
    # instead of a hang.
    run = subprocess.run(
        [sys.executable, "-c", DEEP_PARTIAL_VALUE],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert run.returncode == 0, run.stderr
    term_count, left, right, seconds = run.stdout.split()
    assert int(term_count) == 1 << 40
    assert F(left) == 1 << 40
    assert F(right) == F(-3, 8)
    assert float(seconds) < 1
