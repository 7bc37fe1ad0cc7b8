"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here.  "Exact" means Fraction equality or a
Fraction inequality with no epsilon; the only tolerances that exist are the
certified staircase bounds 2^-n * mass and 2 * 2^-depth * mass, which are
themselves part of the contract under test.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from exactintegral import (
    DyadicApproximation,
    FiniteSeries,
    IntervalMeasure,
    IntervalSet,
    NormKind,
    PiecewiseLinear,
    SimpleFunction,
    UNIT_INTERVAL,
    Vec,
    bochner_integrate,
    integral_from_series,
    integrate_nonneg,
    integrate_simple,
    l1_norm,
    lebesgue_integral,
    series_from_integrand,
)
from exactintegral.generators import (
    random_measure,
    random_piecewise_linear,
    random_simple_function,
    sample_points,
    split_representation,
)

from oracles import integral_oracle

ETA = F(1, 1024)  # 2^-10
DEPTH_EXACT = 12
DEPTH_BOUNDED = 20

_cache: dict = {}


def _passed(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {detail}")


def suite_exact():
    """1000 grid-aligned simple functions over discrete and interval measures."""
    if "exact" not in _cache:
        rng = random.Random(0xE1)
        cases = []
        for index in range(1000):
            kind = "discrete" if index % 2 == 0 else "interval"
            measure = random_measure(rng, kind=kind, max_size=16)
            fn = random_simple_function(
                rng, measure, max_terms=8, max_denominator=256, values="dyadic"
            )
            rep = series_from_integrand(fn, measure, eta=F(0), depth=DEPTH_EXACT)
            value, bound = bochner_integrate(rep)
            cases.append(
                {
                    "measure": measure,
                    "fn": fn,
                    "rep": rep,
                    "series_value": value,
                    "series_bound": bound,
                    "direct_value": lebesgue_integral(fn, measure).value,
                }
            )
        _cache["exact"] = cases
    return _cache["exact"]


def suite_bounded():
    """200 piecewise-linear integrands at depth 20 over Lebesgue-type measures."""
    if "bounded" not in _cache:
        rng = random.Random(0xB2)
        cases = []
        for index in range(200):
            if index % 2 == 0:
                measure = IntervalMeasure.lebesgue()
            else:
                measure = random_measure(rng, kind="interval")
            fn = random_piecewise_linear(rng)
            rep = series_from_integrand(fn, measure, eta=ETA, depth=DEPTH_BOUNDED)
            value, _ = bochner_integrate(rep, truncation=DEPTH_BOUNDED)
            cases.append(
                {
                    "measure": measure,
                    "fn": fn,
                    "rep": rep,
                    "series_value": value,
                    "direct_value": lebesgue_integral(fn, measure).value,
                }
            )
        _cache["bounded"] = cases
    return _cache["bounded"]


def test_criterion_01_equivalence_exact():
    started = time.monotonic()
    cases = suite_exact()
    for case in cases:
        assert case["rep"].exact
        assert case["series_bound"] == 0
        assert case["series_value"] == case["direct_value"]
    elapsed = time.monotonic() - started
    assert len(cases) >= 1000
    assert elapsed < 10.0, f"exact suite took {elapsed:.1f}s"
    _passed(1, f"1000 exact equalities of both schemes in {elapsed:.1f}s")


def test_criterion_02_equivalence_bounded():
    started = time.monotonic()
    cases = suite_bounded()
    for case in cases:
        bound = 2 * F(1, 1 << DEPTH_BOUNDED) * case["measure"].total_mass
        gap = abs(case["series_value"] - case["direct_value"])
        assert gap <= bound
    elapsed = time.monotonic() - started
    assert len(cases) >= 200
    assert elapsed < 60.0, f"bounded suite took {elapsed:.1f}s"
    _passed(
        2,
        f"200 depth-{DEPTH_BOUNDED} gaps within 2*2^-{DEPTH_BOUNDED}*mass in {elapsed:.1f}s",
    )


def test_criterion_03_summability_certificates():
    checked = 0
    for case in suite_exact() + suite_bounded():
        partial = case["rep"].summability_partial
        absolute = l1_norm(case["fn"], case["measure"])
        assert partial <= absolute + ETA
        checked += 1
    _passed(3, f"sum of term-norm integrals <= integral(|f|) + 2^-10 on {checked} cases")


def test_criterion_04_staircase_monotone_and_bounded():
    rng = random.Random(0xA4)
    functions = 0
    for index in range(60):
        if index % 2 == 0:
            fn = random_piecewise_linear(rng).pos_part()
            measure = random_measure(rng, kind="interval")
        else:
            measure = random_measure(rng)
            fn = random_simple_function(
                rng, measure, max_terms=6, max_denominator=64, values="dyadic_nonneg"
            )
        approx = DyadicApproximation(fn)
        points = sample_points(rng, measure, 100)
        for point in points:
            target = fn.evaluate(point)
            previous = F(0)
            for level in range(1, 21):
                value = approx.value_at(level, point)
                assert previous <= value <= target
                previous = value
        exact = integrate_nonneg(fn, measure)
        mass = measure.total_mass
        for level in range(approx.cap_level, 21):
            if level < 1:
                continue
            gap = exact - approx.integral(level, measure)
            assert F(0) <= gap <= F(1, 1 << level) * mass
        functions += 1
    _passed(
        4,
        f"staircase monotone below target at 100 points x 20 levels on {functions} "
        "functions, with certified level bounds",
    )


def test_criterion_05_integral_coherence():
    rng = random.Random(0xC5)
    for _ in range(500):
        measure = random_measure(rng)
        fn = random_simple_function(rng, measure, max_terms=8, max_denominator=512)
        base = integrate_simple(fn, measure)
        assert integrate_simple(fn.canonical(), measure) == base
        refined = split_representation(rng, fn)
        assert integrate_simple(refined, measure) == base
    _passed(5, "500 integrals invariant under canonicalization and refinement")


def test_criterion_06_part_identities():
    rng = random.Random(0xD6)
    for _ in range(500):
        measure = random_measure(rng)
        fn = random_simple_function(rng, measure, max_terms=8, max_denominator=512)
        pos, neg = fn.pos_part(), fn.neg_part()
        assert pos - neg == fn
        assert pos + neg == abs(fn)
        assert pos.support().intersection(neg.support()).is_empty
    _passed(6, "500 positive/negative decompositions satisfy all three identities")


def test_criterion_07_norm_axioms_and_domination():
    rng = random.Random(0xE7)
    for _ in range(500):
        measure = random_measure(rng)
        f = random_simple_function(rng, measure, max_terms=6, max_denominator=256)
        g = random_simple_function(rng, measure, max_terms=6, max_denominator=256)
        c = F(rng.randint(-9, 9), rng.randint(1, 12))
        assert l1_norm(f + g, measure) <= l1_norm(f, measure) + l1_norm(g, measure)
        assert l1_norm(f.scale(c), measure) == abs(c) * l1_norm(f, measure)
    for _ in range(200):
        measure = random_measure(rng)
        dim = rng.randint(1, 4)
        f = random_simple_function(
            rng, measure, max_terms=6, max_denominator=256, dim=dim
        )
        value = integrate_simple(f, measure)
        for kind in NormKind:
            assert value.norm(kind) <= integrate_simple(f.norm_function(kind), measure)
    _passed(
        7,
        "500 triangle/homogeneity pairs and 200 norm dominations under both norms",
    )


def test_criterion_08_integrable_term_series():
    rng = random.Random(0xF8)
    for _ in range(100):
        measure = random_measure(rng, kind="interval")
        terms = [random_piecewise_linear(rng) for _ in range(rng.randint(1, 4))]
        series = FiniteSeries(measure, terms)
        recovered = integral_from_series(series)
        oracle_sum = sum(integral_oracle(t, measure) for t in terms)
        assert recovered.value == oracle_sum
        assert recovered.error_bound == 0
    _passed(8, "100 finite series of integrable terms match summed oracle integrals")


def test_criterion_09_closed_form_anchors():
    lebesgue = IntervalMeasure.lebesgue()
    identity = PiecewiseLinear.linear(F(1))
    assert integrate_nonneg(identity, lebesgue) == F(1, 2)
    approx = DyadicApproximation(identity)
    for level in range(1, 21):
        assert approx.integral(level, lebesgue) == F((1 << level) - 1, 1 << (level + 1))
    step = SimpleFunction(
        UNIT_INTERVAL,
        [
            (F(2), IntervalSet([(F(0), F(1, 2))])),
            (F(3), IntervalSet([(F(1, 2), F(1))])),
        ],
    )
    assert integrate_simple(step, lebesgue) == F(5, 2)
    vector = SimpleFunction.indicator(Vec((F(1), F(2))), IntervalSet([(F(0), F(1, 2))]))
    assert integrate_simple(vector, lebesgue) == Vec((F(1, 2), F(1)))
    _passed(9, "anchors: integral(x) = 1/2 with its 20-level table, 5/2 step, (1/2, 1) vector")


def test_criterion_10_cli_determinism(tmp_path):
    task = {
        "space": {"type": "interval", "breakpoints": ["0", "1"], "densities": ["1"]},
        "function": {
            "type": "piecewise_linear",
            "breakpoints": ["0", "1"],
            "pieces": [{"a": "1", "b": "0"}],
        },
        "task": "compare",
        "parameters": {"depth": 20, "eta": "1/1024"},
    }
    path = tmp_path / "task.json"
    path.write_text(json.dumps(task), encoding="utf-8")

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "exactintegral", *argv],
            capture_output=True,
        )

    first = run("compare", "--spec", str(path))
    second = run("compare", "--spec", str(path))
    assert first.returncode == second.returncode == 0
    assert first.stdout and first.stdout == second.stdout

    gen_first = run("gen", "--family", "series", "--seed", "42", "--count", "5")
    gen_second = run("gen", "--family", "series", "--seed", "42", "--count", "5")
    assert gen_first.returncode == gen_second.returncode == 0
    assert gen_first.stdout and gen_first.stdout == gen_second.stdout
    _passed(10, "byte-identical reports for identical task files and seeds")
