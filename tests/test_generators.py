"""Seeded generators: determinism, validity, spread."""

import json
import random

import pytest

from exactintegral import (
    FiniteSeries,
    GeneratorConfig,
    GeometricIndicatorSeries,
    PiecewiseLinear,
    SimpleFunction,
    generate,
    generate_stream,
)
from exactintegral.tasks import case_fragment


def test_config_validates_bounds():
    with pytest.raises(ValueError):
        GeneratorConfig(seed=1, family="nope")
    with pytest.raises(ValueError):
        GeneratorConfig(seed=-1, family="simple")
    with pytest.raises(ValueError):
        GeneratorConfig(seed=1, family="simple", max_terms=50)
    with pytest.raises(ValueError):
        GeneratorConfig(seed=1, family="simple", max_denominator=10_000)
    with pytest.raises(ValueError):
        GeneratorConfig(seed=1, family="vector_simple", max_dim=9)


def test_same_seed_same_output():
    for family in ("simple", "piecewise_linear", "vector_simple", "series"):
        config = GeneratorConfig(seed=123, family=family)
        first = case_fragment(generate(config))
        second = case_fragment(generate(config))
        assert first == second


def test_stream_is_prefix_stable():
    config = GeneratorConfig(seed=9, family="simple")
    five = [case_fragment(c) for c in generate_stream(config, 5)]
    two = [case_fragment(c) for c in generate_stream(config, 2)]
    assert five[:2] == two


def test_family_shapes():
    assert isinstance(generate(GeneratorConfig(seed=4, family="simple")).function, SimpleFunction)
    assert isinstance(
        generate(GeneratorConfig(seed=4, family="piecewise_linear")).function,
        PiecewiseLinear,
    )
    vector = generate(GeneratorConfig(seed=4, family="vector_simple")).function
    assert isinstance(vector, SimpleFunction) and vector.dim is not None
    series = generate(GeneratorConfig(seed=4, family="series")).function
    assert isinstance(series, (FiniteSeries, GeometricIndicatorSeries))


def test_series_always_carry_certificates():
    for seed in range(25):
        case = generate(GeneratorConfig(seed=seed, family="series"))
        partial, tail = case.function.certificate(5)
        assert partial >= 0
        assert tail >= 0


def test_generated_simple_functions_have_disjoint_terms():
    # construction through SimpleFunction enforces it; spot-check anyway
    for seed in range(25):
        case = generate(GeneratorConfig(seed=seed, family="simple"))
        terms = case.function.terms
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                assert terms[i][1].intersection(terms[j][1]).is_empty


def test_distinct_seeds_rarely_collide():
    seen = {}
    collisions = 0
    for seed in range(1000):
        case = generate(GeneratorConfig(seed=seed, family="simple"))
        key = json.dumps(case_fragment(case), sort_keys=True)
        if key in seen:
            collisions += 1
        seen[key] = seed
    assert collisions <= 1


def test_dimension_respects_config():
    for seed in range(10):
        case = generate(GeneratorConfig(seed=seed, family="vector_simple", max_dim=2))
        assert 1 <= case.function.dim <= 2
