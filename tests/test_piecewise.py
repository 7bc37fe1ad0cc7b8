"""Piecewise-linear integrands: evaluation, level sets, sign decomposition."""

import random
from fractions import Fraction as F

import pytest

from exactintegral import (
    IntervalMeasure,
    IntervalSet,
    OutsideDomainError,
    PiecewiseLinear,
    integrate_nonneg,
    lebesgue_integral,
)
from exactintegral.generators import random_measure, random_piecewise_linear, sample_points

from oracles import (
    integral_oracle,
    is_nonnegative,
    level_set,
    lower_bound,
    restrict,
    upper_bound,
)


def iv(*pairs):
    return IntervalSet([(F(a), F(b)) for a, b in pairs])


LEBESGUE = IntervalMeasure.lebesgue()
IDENTITY = PiecewiseLinear.linear(F(1))
TENT = PiecewiseLinear((F(0), F(1, 2), F(1)), ((F(2), F(0)), (F(-2), F(2))))


def test_construction_validates_grid():
    with pytest.raises(ValueError):
        PiecewiseLinear((F(0), F(1, 2)), ((F(1), F(0)),))
    with pytest.raises(ValueError):
        PiecewiseLinear((F(0), F(1, 2), F(1)), ((F(1), F(0)),))


def test_evaluate_picks_half_open_cell():
    assert TENT.evaluate(F(0)) == 0
    assert TENT.evaluate(F(1, 4)) == F(1, 2)
    assert TENT.evaluate(F(1, 2)) == 1  # boundary belongs to the right cell
    assert TENT.evaluate(F(3, 4)) == F(1, 2)
    with pytest.raises(OutsideDomainError):
        TENT.evaluate(F(1))


def test_algebra_on_merged_grids():
    combined = IDENTITY + TENT.scale(F(1, 2))
    x = F(1, 3)
    assert combined.evaluate(x) == IDENTITY.evaluate(x) + TENT.evaluate(x) / 2
    assert (combined - IDENTITY).scale(2) == TENT


def test_restrict_zeroes_outside_region():
    restricted = restrict(IDENTITY, iv(("1/4", "1/2")))
    assert restricted.evaluate(F(1, 3)) == F(1, 3)
    assert restricted.evaluate(F(1, 8)) == 0
    assert restricted.evaluate(F(3, 4)) == 0


def test_negation_and_repr():
    assert (-TENT).pieces == ((F(-2), F(0)), (F(2), F(-2)))
    assert -TENT == TENT.scale(-1)
    assert repr(TENT) == "PiecewiseLinear([0,1/2): 2*x+0, [1/2,1): -2*x+2)"


def test_parts_of_shifted_identity():
    f = IDENTITY + PiecewiseLinear.constant(F(-1, 2))  # x - 1/2
    pos, neg = f.pos_part(), f.neg_part()
    assert pos.evaluate(F(3, 4)) == F(1, 4)
    assert pos.evaluate(F(1, 4)) == 0
    assert neg.evaluate(F(1, 4)) == F(1, 4)
    assert neg.evaluate(F(3, 4)) == 0
    assert pos - neg == f
    assert pos + neg == f.absolute()


def test_bounds_and_nonnegativity():
    assert upper_bound(TENT) == 1
    assert lower_bound(TENT) == 0
    assert is_nonnegative(TENT)
    f = IDENTITY + PiecewiseLinear.constant(F(-1, 2))
    assert not is_nonnegative(f)


def test_level_set_increasing_piece():
    # x in [1/4, 1/2) iff 1/4 <= f < 1/2 for f(x) = x
    assert level_set(IDENTITY, F(1, 4), F(1, 2)) == iv(("1/4", "1/2"))


def test_level_set_tent_two_pieces():
    # {1/2 <= tent < 3/2} hits both slopes: [1/4, 3/4) up to null endpoints
    assert level_set(TENT, F(1, 2), F(3, 2)) == iv(("1/4", "3/4"))


def test_level_set_constant_piece():
    c = PiecewiseLinear.constant(F(1, 3))
    assert level_set(c, F(1, 4), F(1, 2)) == iv((0, 1))
    assert level_set(c, F(1, 2), F(1)).is_empty


def test_level_set_measures_match_oracle():
    rng = random.Random(40)
    for _ in range(25):
        f = random_piecewise_linear(rng, nonneg=True)
        measure = random_measure(rng, kind="interval")
        lo = F(rng.randint(0, 3), 4)
        hi = lo + F(rng.randint(1, 4), 4)
        level = level_set(f, lo, hi)
        # the level set differs from the true preimage only on a null set,
        # so sampled interior points of the set must satisfy the inequality
        for interval_lo, interval_hi in level.intervals:
            mid = (interval_lo + interval_hi) / 2
            assert lo <= f.evaluate(mid) < hi
        assert measure.measure_of(level) >= 0


def test_exact_integral_anchors():
    assert integrate_nonneg(IDENTITY, LEBESGUE) == F(1, 2)
    assert integrate_nonneg(TENT, LEBESGUE) == F(1, 2)
    assert integrate_nonneg(PiecewiseLinear.constant(F(0)), LEBESGUE) == 0


def test_exact_integral_matches_quadrature_oracle():
    rng = random.Random(17)
    for _ in range(60):
        f = random_piecewise_linear(rng)
        measure = random_measure(rng, kind="interval")
        assert lebesgue_integral(f, measure).value == integral_oracle(f, measure)


def test_refinement_preserves_function():
    rng = random.Random(3)
    for _ in range(30):
        f = random_piecewise_linear(rng)
        cuts = [F(rng.randint(1, 15), 16) for _ in range(3)]
        g = f.refined(cuts)
        assert g == f
        for x in sample_points(rng, LEBESGUE, 15):
            assert g.evaluate(x) == f.evaluate(x)
