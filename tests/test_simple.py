"""Simple-function algebra, canonical form and the term-by-term integral."""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from exactintegral import (
    DiscreteSet,
    DiscreteSpace,
    IntervalMeasure,
    IntervalSet,
    NormKind,
    SimpleFunction,
    UNIT_INTERVAL,
    SpaceMismatchError,
    Vec,
    integrate_simple,
    l1_norm,
)
from exactintegral.generators import (
    random_measure,
    random_simple_function,
    sample_points,
    split_representation,
)

from oracles import integral_oracle


def iv(*pairs):
    return IntervalSet([(F(a), F(b)) for a, b in pairs])


def sf(*terms):
    return SimpleFunction(UNIT_INTERVAL, [(F(v), part) for v, part in terms])


LEBESGUE = IntervalMeasure.lebesgue()


# --- construction -------------------------------------------------------------


def test_overlapping_terms_rejected():
    with pytest.raises(ValueError):
        sf((1, iv((0, "1/2"))), (2, iv(("1/4", 1))))


def test_foreign_set_rejected():
    space = DiscreteSpace((F(1),))
    with pytest.raises(SpaceMismatchError):
        SimpleFunction(UNIT_INTERVAL, [(F(1), DiscreteSet(space, [0]))])


def test_mixed_value_kinds_rejected():
    with pytest.raises(ValueError):
        SimpleFunction(
            UNIT_INTERVAL,
            [(F(1), iv((0, "1/4"))), (Vec((F(1), F(2))), iv(("1/2", 1)))],
        )


def test_constructor_keeps_fractions_and_coerces_ints_and_subclasses():
    class Third(F):
        pass

    kept, sub = F(1, 3), Third(2, 3)
    fn = SimpleFunction(
        UNIT_INTERVAL,
        [(kept, iv((0, "1/4"))), (3, iv(("1/4", "1/2"))), (sub, iv(("1/2", 1)))],
    )
    (first, _), (second, _), (third, _) = fn.terms
    assert first is kept
    assert type(second) is F and second == 3
    assert type(third) is F and third == sub


@pytest.mark.parametrize("value", [1.5, True, False, "1/2"], ids=repr)
def test_constructor_rejects_values_that_are_not_rational(value):
    with pytest.raises(ValueError, match=re.escape(f"term value {value!r} is not an int")):
        SimpleFunction(UNIT_INTERVAL, [(value, iv((0, "1/2")))])


# --- canonical form -----------------------------------------------------------


def test_canonical_merges_equal_values():
    f = sf((1, iv((0, "1/2"))), (1, iv(("1/2", 1))))
    assert f.canonical().terms == ((F(1), iv((0, 1))),)


def test_canonical_pads_complement_with_zero():
    f = sf((2, iv((0, "1/4"))))
    assert f.canonical().terms == (
        (F(0), iv(("1/4", 1))),
        (F(2), iv((0, "1/4"))),
    )


def test_canonical_discrete_merge():
    space = DiscreteSpace((F(1),) * 4)
    f = SimpleFunction(
        space,
        [
            (F(3), DiscreteSet(space, [0])),
            (F(3), DiscreteSet(space, [2])),
            (F(0), DiscreteSet(space, [1, 3])),
        ],
    )
    assert f.canonical().terms == (
        (F(0), DiscreteSet(space, [1, 3])),
        (F(3), DiscreteSet(space, [0, 2])),
    )


def test_canonical_idempotent_and_equality():
    f = sf((1, iv((0, "1/2"))), (1, iv(("1/2", 1))))
    g = sf((1, iv((0, 1))))
    assert f.canonical().canonical() is f.canonical()
    assert f == g
    assert f != g.scale(2)
    # Another dimension, or another space, is unequal without a comparison
    # of the cells.
    assert f != SimpleFunction(UNIT_INTERVAL, [(Vec((F(1),)), iv((0, 1)))], 1)
    points = DiscreteSpace((F(1), F(1)))
    assert f != SimpleFunction(points, [(F(1), DiscreteSet(points, [0, 1]))])


# --- evaluation ---------------------------------------------------------------


def test_evaluate_inside_and_outside_sets():
    f = sf((2, iv((0, "1/2"))))
    assert f.evaluate(F(1, 4)) == 2
    assert f.evaluate(F(3, 4)) == 0  # off-set convention: zero


def test_evaluate_vector():
    f = SimpleFunction.indicator(Vec((F(1), F(2))), iv((0, "1/2")))
    assert f.evaluate(F(0)) == Vec((F(1), F(2)))
    assert f.evaluate(F(2, 3)) == Vec.zero(2)


# --- pointwise algebra --------------------------------------------------------


def test_addition_refines_partitions():
    f = sf((1, iv((0, "1/2"))))
    g = sf((1, iv(("1/4", 1))))
    expected = sf((1, iv((0, "1/4"))), (2, iv(("1/4", "1/2"))), (1, iv(("1/2", 1))))
    assert f + g == expected


def test_scale_by_zero_is_zero_function():
    f = sf((3, iv((0, "1/3"))), (-2, iv(("1/2", 1))))
    assert f.scale(0) == SimpleFunction.zero(UNIT_INTERVAL)


def test_abs_flips_negative_terms():
    f = sf((-3, iv((0, "1/3"))))
    assert abs(f) == sf((3, iv((0, "1/3"))))


def test_order_ops_reject_vectors():
    f = SimpleFunction.indicator(Vec((F(1), F(2))), iv((0, "1/2")))
    with pytest.raises(ValueError):
        f.pointwise_max(f)
    with pytest.raises(ValueError):
        abs(f)


# --- positive and negative parts ----------------------------------------------


def test_parts_split_signed_step():
    f = sf((1, iv((0, "1/4"))), (-1, iv(("1/4", 1))))
    assert f.pos_part() == sf((1, iv((0, "1/4"))))
    assert f.neg_part() == sf((1, iv(("1/4", 1))))


def test_nonnegative_has_zero_neg_part():
    f = sf((2, iv((0, "1/2"))), (5, iv(("1/2", "2/3"))))
    assert f.neg_part() == SimpleFunction.zero(UNIT_INTERVAL)


def test_negation_swaps_parts():
    f = sf((3, iv((0, "1/8"))), (-2, iv(("1/2", "5/8"))))
    assert (-f).pos_part() == f.neg_part()
    assert (-f).neg_part() == f.pos_part()


# --- norms --------------------------------------------------------------------


def test_norm_function_l1_and_linf():
    f = SimpleFunction.indicator(Vec((F(3), F(-4))), iv((0, "1/2")))
    assert f.norm_function(NormKind.L1) == sf((7, iv((0, "1/2"))))
    assert f.norm_function(NormKind.LINF) == sf((4, iv((0, "1/2"))))


def test_norm_of_zero_function():
    z = SimpleFunction.zero(UNIT_INTERVAL, dim=3)
    assert z.norm_function(NormKind.L1) == SimpleFunction.zero(UNIT_INTERVAL)


ZERO_PAIR = SimpleFunction.zero(UNIT_INTERVAL, dim=2)
PAIR = SimpleFunction.indicator(Vec((F(3), F(-4))), iv((0, "1/2")))


@pytest.mark.parametrize(
    "fn, call, message",
    [
        (ZERO_PAIR, lambda f: f.component(5), "component index 5 is not an int in 0..1"),
        (PAIR, lambda f: f.component(2), "component index 2 is not an int in 0..1"),
        (PAIR, lambda f: f.component(-1), "component index -1 is not an int in 0..1"),
        (PAIR, lambda f: f.component(True), "component index True is not an int in 0..1"),
        (PAIR, lambda f: f.component(F(1)), "component index Fraction(1, 1) is not an int"),
        (PAIR, lambda f: f.norm_function(), "a NormKind is required for vector values"),
        (ZERO_PAIR, lambda f: f.norm_function(), "a NormKind is required for vector values"),
        (PAIR, lambda f: f.norm_function("L1"), "a NormKind is required for vector values"),
        (ZERO_PAIR, lambda f: l1_norm(f, LEBESGUE), "a NormKind is required for vector values"),
    ],
    ids=[
        "index past dim, no cells",
        "index past dim",
        "negative index",
        "bool index",
        "Fraction index",
        "norm without kind",
        "norm without kind, no cells",
        "norm with a string kind",
        "l1_norm without kind, no cells",
    ],
)
def test_component_and_norm_arguments_are_checked_before_mapping(fn, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(fn)


@pytest.mark.parametrize("kind", ["L1", None, "LInf"])
def test_vector_norm_refuses_a_kind_that_is_not_a_norm_kind(kind):
    with pytest.raises(ValueError, match=re.escape(f"norm kind {kind!r} is not a NormKind")):
        Vec((F(3), F(-4))).norm(kind)


# --- integration --------------------------------------------------------------


def test_step_integral_anchor():
    f = sf((2, iv((0, "1/2"))), (3, iv(("1/2", 1))))
    assert integrate_simple(f, LEBESGUE) == F(5, 2)


def test_zero_function_integral():
    assert integrate_simple(SimpleFunction.zero(UNIT_INTERVAL), LEBESGUE) == 0


def test_vector_integral_anchor():
    f = SimpleFunction.indicator(Vec((F(1), F(2))), iv((0, "1/2")))
    assert integrate_simple(f, LEBESGUE) == Vec((F(1, 2), F(1)))


def test_zero_value_term_contributes_nothing():
    f = sf((0, iv((0, 1))))
    assert integrate_simple(f, LEBESGUE) == 0


def test_integral_needs_matching_space():
    space = DiscreteSpace((F(1), F(1)))
    f = SimpleFunction.indicator(F(1), DiscreteSet(space, [0]))
    with pytest.raises(SpaceMismatchError):
        integrate_simple(f, LEBESGUE)


# --- seeded properties ----------------------------------------------------------


def test_coherence_under_refinement_and_canonicalization():
    rng = random.Random(2024)
    for _ in range(120):
        measure = random_measure(rng)
        f = random_simple_function(rng, measure, max_terms=6, max_denominator=64)
        base = integrate_simple(f, measure)
        assert integrate_simple(f.canonical(), measure) == base
        assert integrate_simple(split_representation(rng, f), measure) == base
        assert base == integral_oracle(f, measure)


def test_linearity_on_random_pairs():
    rng = random.Random(77)
    for _ in range(80):
        measure = random_measure(rng)
        f = random_simple_function(rng, measure, max_terms=5, max_denominator=32)
        g = random_simple_function(rng, measure, max_terms=5, max_denominator=32)
        a = F(rng.randint(-6, 6), rng.randint(1, 9))
        b = F(rng.randint(-6, 6), rng.randint(1, 9))
        combined = f.scale(a) + g.scale(b)
        assert integrate_simple(combined, measure) == a * integrate_simple(
            f, measure
        ) + b * integrate_simple(g, measure)


def test_order_preserved_by_integral():
    rng = random.Random(5)
    for _ in range(60):
        measure = random_measure(rng)
        f = random_simple_function(rng, measure, max_terms=5, max_denominator=32)
        g = random_simple_function(rng, measure, max_terms=5, max_denominator=32)
        lower = f.pointwise_min(g)
        assert integrate_simple(lower, measure) <= integrate_simple(g, measure)


def test_part_identities_on_random_functions():
    rng = random.Random(31)
    for _ in range(80):
        measure = random_measure(rng)
        f = random_simple_function(rng, measure, max_terms=6, max_denominator=64)
        pos, neg = f.pos_part(), f.neg_part()
        assert pos - neg == f
        assert pos + neg == abs(f)
        assert pos.support().intersection(neg.support()).is_empty


def test_vector_integral_componentwise():
    rng = random.Random(8)
    for _ in range(40):
        measure = random_measure(rng)
        dim = rng.randint(1, 4)
        f = random_simple_function(rng, measure, max_terms=5, max_denominator=32, dim=dim)
        total = integrate_simple(f, measure)
        for i in range(dim):
            assert total.components[i] == integrate_simple(f.component(i), measure)


def test_norm_domination():
    rng = random.Random(13)
    for _ in range(60):
        measure = random_measure(rng)
        dim = rng.randint(1, 4)
        f = random_simple_function(rng, measure, max_terms=5, max_denominator=32, dim=dim)
        value = integrate_simple(f, measure)
        for kind in NormKind:
            assert value.norm(kind) <= integrate_simple(f.norm_function(kind), measure)


def test_evaluate_matches_canonical_everywhere():
    rng = random.Random(99)
    for _ in range(40):
        measure = random_measure(rng)
        f = random_simple_function(rng, measure, max_terms=6, max_denominator=64)
        g = f.canonical()
        for point in sample_points(rng, measure, 25):
            assert f.evaluate(point) == g.evaluate(point)


# --- hypothesis: vector norm axioms -------------------------------------------

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=64)
vectors = st.lists(rationals, min_size=2, max_size=2).map(lambda c: Vec(tuple(c)))


@given(vectors, vectors)
def test_vec_norm_triangle(u, v):
    for kind in NormKind:
        assert (u + v).norm(kind) <= u.norm(kind) + v.norm(kind)


@given(vectors, rationals)
def test_vec_norm_homogeneous(u, c):
    for kind in NormKind:
        assert u.scale(c).norm(kind) == abs(c) * u.norm(kind)
