"""The front-end conversions, pinned to the code they replaced.

`parse_rational` must accept and refuse exactly what the two-pass parser
in `oracles.parse_rational_reference` does, with the same messages;
`decimal_string` must give the bytes of a division in a `localcontext`;
`render_report` must give the bytes of `json.dumps(..., indent=2)`,
whichever encoder it takes.  `exact_sum`, the one multi-term sum of the
integrals, must equal the plain sum of `Fraction`s.  Every entry point
behind the rational gate `as_rational` must refuse each number that is
not an `int` or a `Fraction`, naming it, and store what it accepts as a
`Fraction`.  Every entry point that takes a point refuses a non-rational
one (on a discrete space, any non-`int`) the same way, before it checks
the domain.
"""

import json
import random
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from exactintegral import (
    UNIT_INTERVAL,
    DiscreteSet,
    DiscreteSpace,
    DyadicApproximation,
    GeometricIndicatorSeries,
    IntervalMeasure,
    IntervalSet,
    OutsideDomainError,
    PiecewiseLinear,
    SimpleFunction,
    Vec,
    decimal_string,
    parse_rational,
    series_from_integrand,
)
from exactintegral import rationals
from exactintegral.rationals import exact_sum
from exactintegral.tasks import render_report
from oracles import decimal_string_reference, parse_rational_reference

LOW_DIGIT_LIMIT = 640  # the smallest limit the interpreter accepts


def _outcome(parse, text):
    """(type, numerator, denominator) of the result, or the refusal's type and message."""
    try:
        value = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(value), value.numerator, value.denominator


def _assert_same_outcome(text):
    outcome = _outcome(parse_rational, text)
    assert outcome == _outcome(parse_rational_reference, text)
    return outcome


_space = st.sampled_from(["", " ", "\t", "\n", "  ", " "])
_digits = st.text(alphabet="0123456789", min_size=1, max_size=25)
_grammar = st.builds(
    lambda lead, sign, num, den, trail: f"{lead}{sign}{num}{den}{trail}",
    _space,
    st.sampled_from(["", "+", "-"]),
    _digits,
    st.one_of(st.just(""), _digits.map(lambda d: "/" + d), st.just("/-2"), st.just("/+3")),
    _space,
)
# Characters of the grammar, of float, exponent and underscore syntax, and
# non-ASCII digits (Arabic-Indic, Devanagari, fullwidth), in any order.
_near = st.text(alphabet="0123456789+-/ .eE_\t٣٤०１", max_size=12)
_edges = st.sampled_from(
    ["1/0", "1/00", "0/1", "-0", "+0/7", "1/-2", "-1/2", "007/010", "1.5", "1e3", "1E3",
     ".5", "1/2/3", "1_000", "1/1_0", "", " ", "/2", "1/", "+-1", "٣/٤",
     "٣/4", "1/٤", "１２", " 3/4\n", "inf", "nan"]
)
_non_strings = st.one_of(
    st.integers(), st.floats(allow_nan=False), st.none(), st.booleans(),
    st.fractions(), st.lists(st.integers(), max_size=2), st.just(b"1/2"),
)


@settings(deadline=None)
@given(st.one_of(_grammar, _near, _edges, _non_strings))
def test_parse_rational_agrees_with_the_two_pass_reference(text):
    _assert_same_outcome(text)


@pytest.fixture
def low_digit_limit():
    """Lower the interpreter's digit limit for integer strings, then restore it."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(LOW_DIGIT_LIMIT)
    try:
        yield LOW_DIGIT_LIMIT
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize(
    "text, refused",
    [
        ("7" * LOW_DIGIT_LIMIT, False),
        ("-" + "7" * LOW_DIGIT_LIMIT, False),
        ("1/" + "7" * LOW_DIGIT_LIMIT, False),
        ("7" * (LOW_DIGIT_LIMIT + 1), True),
        ("+" + "7" * (LOW_DIGIT_LIMIT + 1), True),
        ("0" * LOW_DIGIT_LIMIT + "1", True),
        (" 1/" + "7" * (LOW_DIGIT_LIMIT + 1) + " ", True),
        ("7" * (LOW_DIGIT_LIMIT + 1) + "/3", True),
    ],
    ids=["num-at", "signed-at", "den-at", "num-over", "signed-over", "zeros-over",
         "den-over", "num-over-with-den"],
)
def test_digit_limit_refusal_matches_the_reference(low_digit_limit, text, refused):
    outcome = _assert_same_outcome(text)
    if refused:
        assert outcome == (
            ValueError,
            "rational has a numerator or denominator longer than the "
            f"{low_digit_limit}-digit limit for integer strings",
        )
    else:
        assert outcome[0] is Fraction


def test_unrenderable_report_entry_names_the_entry_and_the_limit(low_digit_limit):
    report = {"task": "integrate_mi", "value": Fraction(10**low_digit_limit, 3)}
    with pytest.raises(ValueError) as info:
        render_report(report)
    assert str(info.value) == (
        "report entry 'value' cannot be rendered: its exact value has a numerator or "
        f"denominator longer than the {low_digit_limit}-digit limit for integer strings"
    )


_values = st.one_of(
    st.fractions(),
    st.integers(-10**15, 10**15).map(Fraction),
    st.just(Fraction(0)),
    # Round up at the 12th digit, across a power of ten and to exponent
    # form; ties at the 13th digit, which round to even.
    st.sampled_from(
        [Fraction(999999999999, 1) + Fraction(1, 2), Fraction(-99999999999995, 100),
         Fraction(2, 3), Fraction(-1, 7), Fraction(10**12), Fraction(10**30, 7),
         Fraction(1, 10**20), Fraction(123456789012345, 1000),
         Fraction(1234567890125, 10**13), Fraction(-2000000000005, 10)]
    ),
    st.fractions(min_value=10**12, max_value=10**40),
)


@settings(deadline=None)
@given(_values, st.one_of(st.just(12), st.integers(1, 40)))
def test_decimal_string_matches_a_local_context_division(value, digits):
    assert decimal_string(value, digits) == decimal_string_reference(value, digits)
    assert decimal_string(value) == decimal_string_reference(value)


_keys = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10).filter(
    lambda key: not key.endswith("_decimal")
)
_entries = st.one_of(
    _values,
    st.lists(_values, min_size=1, max_size=3).map(lambda cs: Vec(tuple(cs))),
    st.booleans(),
    st.integers(),
    st.none(),
    st.text(),
)


def _expected_rendering(report: dict) -> str:
    rendered = {}
    for key, value in report.items():
        if isinstance(value, Fraction):
            rendered[key] = str(value)
            rendered[f"{key}_decimal"] = decimal_string_reference(value)
        elif isinstance(value, Vec):
            rendered[key] = [str(c) for c in value.components]
            rendered[f"{key}_decimal"] = [decimal_string_reference(c) for c in value.components]
        else:
            rendered[key] = value
    return json.dumps(rendered, sort_keys=True, indent=2) + "\n"


@settings(deadline=None)
@given(st.dictionaries(_keys, _entries, max_size=8))
def test_render_report_matches_indented_json_dumps(report):
    assert render_report(report) == _expected_rendering(report)


@pytest.mark.parametrize(
    "report",
    [
        {},
        {"task": "compare", "ok": True, "depth": 12, "count": None, "value": Fraction(-5, 3)},
        {"task": "integrate_bochner", "value": Vec((Fraction(1, 2), Fraction(3))), "n": 1},
    ],
    ids=["empty", "scalars", "vector"],
)
def test_render_report_of_each_shape_matches_indented_json_dumps(report):
    assert render_report(report) == _expected_rendering(report)


# Small and repeated denominators, powers of two that share factors, and
# large pairwise-coprime ones (primes and Mersenne primes).
_SUM_DENOMINATORS = (1, 2, 3, 4, 6, 8, 12, 64, 1000003, 998244353, 2**61 - 1, 2**89 - 1)
# Two coprime denominators whose lcm, their product, has exactly as many
# bits as the cap allows, and one bit more.
_UNDER_CAP = [(1, 2**1000), (-3, 2 ** (rationals._SHORT_LCM_BITS - 1001) + 1)]
_OVER_CAP = [(1, 2**1000), (-3, 2 ** (rationals._SHORT_LCM_BITS - 1000) + 1)]
_sum_pairs = st.lists(
    st.tuples(
        st.one_of(st.just(0), st.integers(-(2**70), 2**70)),
        st.one_of(st.sampled_from(_SUM_DENOMINATORS), st.integers(1, 2**40)),
    ),
    max_size=40,
)


# 40 to 120 denominators of 40 to 64 bits: their lcm passes the cap, so the
# groups are added in the tree.
_long_lcm_pairs = st.lists(
    st.tuples(st.integers(-(2**70), 2**70), st.integers(2**40, 2**64)),
    min_size=40,
    max_size=120,
)


@settings(deadline=None)
@given(st.one_of(_sum_pairs, _long_lcm_pairs))
def test_exact_sum_equals_the_sum_of_fractions(pairs):
    numerator, denominator = exact_sum(pairs)
    assert isinstance(numerator, int) and isinstance(denominator, int)
    assert denominator > 0
    assert Fraction(numerator, denominator) == sum(Fraction(n, d) for n, d in pairs)


@pytest.mark.parametrize(
    "pairs, total",
    [
        ([], Fraction(0)),
        ([(0, 7), (0, 2**89 - 1)], Fraction(0)),
        ([(3, 4), (-3, 4)], Fraction(0)),
        ([(1, 6), (1, 6), (1, 6), (-5, 12)], Fraction(1, 12)),
        ([(-1, 1000003), (2, 998244353), (1, 2**61 - 1)],
         Fraction(-1, 1000003) + Fraction(2, 998244353) + Fraction(1, 2**61 - 1)),
        (_UNDER_CAP, sum(Fraction(n, d) for n, d in _UNDER_CAP)),
        (_OVER_CAP, sum(Fraction(n, d) for n, d in _OVER_CAP)),
    ],
    ids=["empty", "zeros", "cancelling", "repeated", "coprime", "under_cap", "over_cap"],
)
def test_exact_sum_of_fixed_pairs(pairs, total):
    assert Fraction(*exact_sum(pairs)) == total
    assert Fraction(*exact_sum(iter(pairs))) == total


@pytest.mark.parametrize("pairs, tree", [(_UNDER_CAP, False), (_OVER_CAP, True)])
def test_exact_sum_takes_the_tree_only_past_the_cap(pairs, tree, monkeypatch):
    """Both ways give the one pair (sum(n * (L // d)), L), L the lcm of the
    denominators; the groups go to the tree iff L has more bits than the cap."""
    calls, tree_sum = [], rationals._tree_sum

    def counted(terms):
        calls.append(len(terms))
        return tree_sum(terms)

    monkeypatch.setattr(rationals, "_tree_sum", counted)
    common = lcm(*(d for _, d in pairs))
    assert exact_sum(pairs) == (sum(n * (common // d) for n, d in pairs), common)
    assert bool(calls) == tree


def test_sixteen_thousand_distinct_denominators_stay_fast():
    """16000 pairs with distinct odd 40-bit denominators: `exact_sum` must
    finish within 2 s.  It took 0.42 to 0.48 s on a shared 2-vCPU x86-64
    host, all in the tree, while the lcm of all the denominators (about
    450000 bits) alone took 4.7 s there: the cap check stops growing the
    lcm once it passes the cap, a few chunks in.  The sum is checked modulo
    the prime 2^61 - 1, which divides no denominator."""
    rng = random.Random(1)
    denominators: set = set()
    while len(denominators) < 16000:
        denominators.add(rng.getrandbits(40) | 1 << 39 | 1)
    pairs = [(rng.randint(-(2**40), 2**40), d) for d in sorted(denominators)]
    started = time.perf_counter()
    numerator, denominator = exact_sum(pairs)
    elapsed = time.perf_counter() - started
    prime = 2**61 - 1
    expected = sum(n * pow(d, -1, prime) for n, d in pairs) % prime
    assert numerator * pow(denominator, -1, prime) % prime == expected
    assert elapsed < 2


_LEBESGUE = IntervalMeasure.lebesgue()
_HALF = IntervalSet([(Fraction(0), Fraction(1, 2))])
_IDENTITY = PiecewiseLinear.linear(Fraction(1))

# (entry point, build from x, read x back, accepted samples of x): each
# sample is an int or a Fraction the entry point takes; no int is a ratio
# strictly between 0 and 1, and no int cut lies inside (0, 1).
_GATED = {
    "DiscreteSpace weight": (
        lambda x: DiscreteSpace((1, x)), lambda s: s.weights[1], (2, Fraction(1, 3))),
    "IntervalSet lower end": (
        lambda x: IntervalSet([(x, 1)]), lambda s: s.intervals[0][0], (0, Fraction(1, 2))),
    "IntervalSet upper end": (
        lambda x: IntervalSet([(0, x)]), lambda s: s.intervals[0][1], (1, Fraction(1, 2))),
    "IntervalMeasure breakpoint": (
        lambda x: IntervalMeasure((0, x), (1,)), lambda m: m.breakpoints[1], (1, Fraction(1))),
    "IntervalMeasure density": (
        lambda x: IntervalMeasure((0, 1), (x,)), lambda m: m.densities[0], (2, Fraction(1, 3))),
    "PiecewiseLinear breakpoint": (
        lambda x: PiecewiseLinear((0, x), ((0, 0),)), lambda f: f.breakpoints[1],
        (1, Fraction(1))),
    "PiecewiseLinear slope": (
        lambda x: PiecewiseLinear((0, 1), ((x, 0),)), lambda f: f.pieces[0][0],
        (2, Fraction(1, 3))),
    "PiecewiseLinear intercept": (
        lambda x: PiecewiseLinear((0, 1), ((0, x),)), lambda f: f.pieces[0][1],
        (2, Fraction(1, 3))),
    "PiecewiseLinear.constant": (
        PiecewiseLinear.constant, lambda f: f.pieces[0][1], (2, Fraction(1, 3))),
    "PiecewiseLinear.linear slope": (
        PiecewiseLinear.linear, lambda f: f.pieces[0][0], (2, Fraction(1, 3))),
    "PiecewiseLinear.linear intercept": (
        lambda x: PiecewiseLinear.linear(1, x), lambda f: f.pieces[0][1], (2, Fraction(1, 3))),
    "PiecewiseLinear.scale": (
        _IDENTITY.scale, lambda f: f.pieces[0][0], (2, Fraction(1, 3))),
    "PiecewiseLinear.refined": (
        lambda x: _IDENTITY.refined([x]), lambda f: f.breakpoints[1], (Fraction(1, 3),)),
    "Vec component": (lambda x: Vec((1, x)), lambda v: v.components[1], (2, Fraction(1, 3))),
    "Vec.scale": (Vec((1,)).scale, lambda v: v.components[0], (2, Fraction(1, 3))),
    "SimpleFunction term value": (
        lambda x: SimpleFunction(UNIT_INTERVAL, [(x, _HALF)]), lambda f: f.terms[0][0],
        (2, Fraction(1, 3))),
    "SimpleFunction.scale": (
        SimpleFunction.indicator(1, _HALF).scale, lambda f: f.terms[0][0],
        (2, Fraction(1, 3))),
    "GeometricIndicatorSeries ratio": (
        lambda x: GeometricIndicatorSeries(_LEBESGUE, x), lambda s: s.ratio, (Fraction(1, 3),)),
    "series_from_integrand eta": (
        lambda x: series_from_integrand(_IDENTITY, _LEBESGUE, eta=x, depth=1),
        lambda rep: rep.eta, (2, Fraction(1, 3))),
}


@pytest.mark.parametrize("entry", sorted(_GATED))
def test_gated_entry_points_take_only_ints_and_fractions(entry):
    build, read, accepted = _GATED[entry]
    for value in (0.1, True, Decimal("0.1"), "1/2", None):
        with pytest.raises(ValueError, match=re.escape(f"{value!r} is not an int or a Fraction")):
            build(value)
    for value in accepted:
        stored = read(build(value))
        assert type(stored) is Fraction and stored == value


_POINTS = DiscreteSpace((Fraction(1),) * 3)
_NOT_RATIONAL = (0.5, True, Decimal("0.5"), "1/2")
_ON_POINTS = DiscreteSet(_POINTS, [1])
_STEP = SimpleFunction.indicator(Fraction(3, 4), _HALF)
# Entry point -> (call with a point, points refused, (a point, its answer)).
_POINT_GATED = {
    "SimpleFunction.evaluate": (_STEP.evaluate, _NOT_RATIONAL, (0, Fraction(3, 4))),
    "SimpleFunction.evaluate, discrete": (
        SimpleFunction.indicator(Fraction(2), _ON_POINTS).evaluate,
        (*_NOT_RATIONAL, Fraction(1)),
        (1, Fraction(2)),
    ),
    "IntervalSet.contains": (_HALF.contains, _NOT_RATIONAL, (Fraction(1, 2), False)),
    "DiscreteSet.contains": (_ON_POINTS.contains, (*_NOT_RATIONAL, Fraction(1, 2)), (1, True)),
    "PiecewiseLinear.evaluate": (
        _IDENTITY.evaluate, _NOT_RATIONAL, (Fraction(1, 3), Fraction(1, 3))),
    "DyadicApproximation.value_at": (
        lambda x: DyadicApproximation(_STEP).value_at(1, x), _NOT_RATIONAL, (0, Fraction(1, 2))),
}


@pytest.mark.parametrize("entry", sorted(_POINT_GATED))
def test_point_entry_points_refuse_a_non_rational_point_by_name(entry):
    call, refused, (point, answer) = _POINT_GATED[entry]
    for value in refused:
        with pytest.raises(ValueError, match=re.escape(f"point {value!r} is not an int")) as info:
            call(value)
        assert not isinstance(info.value, OutsideDomainError)
    assert call(point) == answer
    with pytest.raises(OutsideDomainError):
        call(3)
