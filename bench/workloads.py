"""Seeded case lists for the benchmark workloads, and the timed call of one case.

A case is one unit of user work.  Every case carries its inputs as plain
data (rationals, endpoint pairs, index lists), which the independent
oracle in `reference.py` reads; the library only ever sees the task file
or the objects built from that data inside the timed section.

* `grid_exact`: grid-aligned simple functions drawn like acceptance
  criterion 01, run as `compare` task files at depth 12 through the CLI.
* `pwl_deep`: piecewise-linear integrands drawn like acceptance
  criterion 02, run as `compare` task files at depth 30 through the CLI.
* `wide_simple`: two simple functions of tens to a hundred-odd terms per
  case, built and combined through the library API (no staircase).
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import exactintegral
from exactintegral import cli
from exactintegral.generators import (
    random_measure,
    random_piecewise_linear,
    random_simple_function,
)

CASE_COUNTS = {"grid_exact": 250, "pwl_deep": 100, "wide_simple": 32}
# CLI cases are drawn POOL_FACTOR times over and sampled evenly by size, so
# that the size mix, which decides the case-time percentiles, hardly varies
# from seed to seed; the benchmark's steadiness is judged over ten seeds.
# Drawn directly, 400 `pwl_deep` cases spread case_p50_ms by 7 % over ten
# seeds, against 2.7 % for 100 size-sampled ones.
POOL_FACTOR = 8
DEPTHS = {"grid_exact": 12, "pwl_deep": 30}

# Term counts of `wide_simple`, one per interval case and one per discrete
# case, so that every seed gets the same sizes and only the contents vary;
# the set algebra makes the case cost depend far more on the size than on
# the contents.  Evenly spaced sizes keep the percentiles of the case
# times away from jumps between size classes.
WIDE_TERMS = tuple(range(16, 107, 6))
WIDE_MEASURE_CELLS = 64
WIDE_DISCRETE_POINTS = (900, 1100)

LEBESGUE = ("interval", (Fraction(0), Fraction(1)), (Fraction(1),))


@dataclass(frozen=True)
class Case:
    """One unit of work: a measure and the integrands, as plain data.

    `measure` is ("discrete", weights) or ("interval", breakpoints,
    densities).  Each function is ("simple", terms) with terms
    (value, ("indices", idx) | ("intervals", pairs)), or ("pwl",
    breakpoints, pieces).  `path` is the task file of CLI workloads.
    """

    index: int
    measure: tuple
    functions: tuple
    path: Optional[str] = None


# --- plain data from library objects (set-up only) ----------------------------


def _measure_data(measure) -> tuple:
    if isinstance(measure, exactintegral.DiscreteSpace):
        return ("discrete", measure.weights)
    return ("interval", measure.breakpoints, measure.densities)


def _simple_data(fn) -> tuple:
    terms = []
    for value, part in fn.terms:
        if isinstance(part, exactintegral.DiscreteSet):
            terms.append((value, ("indices", part.indices)))
        else:
            terms.append((value, ("intervals", part.intervals)))
    return ("simple", tuple(terms))


def _pwl_data(fn) -> tuple:
    return ("pwl", fn.breakpoints, fn.pieces)


# --- task documents -------------------------------------------------------------


def _space_doc(measure: tuple) -> dict:
    if measure[0] == "discrete":
        return {"type": "discrete", "weights": [str(w) for w in measure[1]]}
    return {
        "type": "interval",
        "breakpoints": [str(t) for t in measure[1]],
        "densities": [str(d) for d in measure[2]],
    }


def _function_doc(fn: tuple) -> dict:
    if fn[0] == "pwl":
        return {
            "type": "piecewise_linear",
            "breakpoints": [str(t) for t in fn[1]],
            "pieces": [{"a": str(a), "b": str(b)} for a, b in fn[2]],
        }
    terms = []
    for value, (kind, members) in fn[1]:
        if kind == "indices":
            part = {"indices": list(members)}
        else:
            part = {"intervals": [[str(lo), str(hi)] for lo, hi in members]}
        terms.append({"value": str(value), "set": part})
    return {"type": "simple", "terms": terms}


def task_document(case: Case, depth: int) -> dict:
    return {
        "space": _space_doc(case.measure),
        "function": _function_doc(case.functions[0]),
        "task": "compare",
        "parameters": {"depth": depth},
    }


def write_task_files(workload: str, cases: list, directory: str) -> list:
    """Write one `compare` task file per case; returns the cases with paths."""
    depth = DEPTHS[workload]
    out = []
    for case in cases:
        path = os.path.join(directory, f"{workload}-{case.index:05d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(task_document(case, depth), handle, sort_keys=True)
        out.append(Case(case.index, case.measure, case.functions, path))
    return out


# --- generation -------------------------------------------------------------------


def _size_sample(pool: list, count: int, size) -> list:
    """`count` cases spread evenly over the pool ranked by `size`, in draw order.

    Every seed then gets the size mix of the whole pool, which varies far
    less from seed to seed than that of `count` plain draws; the contents
    stay random.
    """
    ranked = sorted(range(len(pool)), key=lambda i: (size(pool[i]), i))
    step = len(pool) // count
    chosen = sorted(ranked[j * step + step // 2] for j in range(count))
    return [Case(index, pool[i].measure, pool[i].functions) for index, i in enumerate(chosen)]


def _measure_size(measure: tuple) -> int:
    return len(measure[1]) if measure[0] == "discrete" else len(measure[2])


def _grid_size(case: Case) -> tuple:
    terms = case.functions[0][1]
    # Staircase level at which the telescoped series terminates.
    levels = [
        max(value.denominator.bit_length() - 1, -(-abs(value.numerator) // value.denominator))
        for value, _ in terms
        if value != 0
    ]
    return (case.measure[0], _measure_size(case.measure), len(terms), max(levels, default=0))


def _pwl_size(case: Case) -> tuple:
    return (_measure_size(case.measure), len(case.functions[0][2]))


def _grid_exact(rng: random.Random, count: int) -> list:
    pool = []
    for index in range(count * POOL_FACTOR):
        kind = "discrete" if index % 2 == 0 else "interval"
        measure = random_measure(rng, kind=kind, max_size=16)
        fn = random_simple_function(
            rng, measure, max_terms=8, max_denominator=256, values="dyadic"
        )
        pool.append(Case(index, _measure_data(measure), (_simple_data(fn),)))
    return _size_sample(pool, count, _grid_size)


def _pwl_deep(rng: random.Random, count: int) -> list:
    pool = []
    for index in range(count * POOL_FACTOR):
        if index % 2 == 0:
            measure = LEBESGUE
        else:
            measure = _measure_data(random_measure(rng, kind="interval"))
        fn = random_piecewise_linear(rng)
        pool.append(Case(index, measure, (_pwl_data(fn),)))
    return _size_sample(pool, count, _pwl_size)


def _rational(rng: random.Random, lo: int, hi: int, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def _cuts(rng: random.Random, count: int) -> list:
    cuts: set = set()
    while len(cuts) < count:
        den = rng.randint(2, 1024)
        cuts.add(Fraction(rng.randint(1, den - 1), den))
    return sorted(cuts)


def _deal(rng: random.Random, members: list, n_terms: int) -> list:
    """Shuffle, drop a tenth (left implicit, so zero), deal round-robin."""
    rng.shuffle(members)
    kept = members[: len(members) - len(members) // 10]
    hands: list = [[] for _ in range(n_terms)]
    for position, member in enumerate(kept):
        hands[position % n_terms].append(member)
    return hands


def _values(rng: random.Random, n_terms: int) -> list:
    # Fewer distinct values than terms, so canonical() has sets to merge;
    # a fixed number of them, so the merge work does not vary by seed.
    pool = [_rational(rng, -8, 8, 64) for _ in range(max(2, (2 * n_terms) // 3))]
    values = [pool[i % len(pool)] for i in range(n_terms)]
    rng.shuffle(values)
    return values


def _wide_interval_function(rng: random.Random, n_terms: int) -> tuple:
    edges = [Fraction(0), *_cuts(rng, 2 * n_terms - 1), Fraction(1)]
    cells = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    hands = _deal(rng, cells, n_terms)
    terms = [
        (value, ("intervals", tuple(sorted(hand))))
        for value, hand in zip(_values(rng, n_terms), hands)
        if hand
    ]
    return ("simple", tuple(terms))


def _wide_discrete_function(rng: random.Random, size: int, n_terms: int) -> tuple:
    hands = _deal(rng, list(range(size)), n_terms)
    terms = [
        (value, ("indices", tuple(sorted(hand))))
        for value, hand in zip(_values(rng, n_terms), hands)
        if hand
    ]
    return ("simple", tuple(terms))


def _wide_simple(rng: random.Random, count: int) -> list:
    cases = []
    for index in range(count):
        n_terms = WIDE_TERMS[(index // 2) % len(WIDE_TERMS)]
        if index % 2 == 0:
            edges = [Fraction(0), *_cuts(rng, WIDE_MEASURE_CELLS - 1), Fraction(1)]
            densities = tuple(_rational(rng, 0, 4, 64) for _ in range(WIDE_MEASURE_CELLS))
            measure = ("interval", tuple(edges), densities)
            functions = (
                _wide_interval_function(rng, n_terms),
                _wide_interval_function(rng, n_terms),
            )
        else:
            size = rng.randint(*WIDE_DISCRETE_POINTS)
            weights = tuple(
                Fraction(0) if rng.random() < 0.15 else _rational(rng, 0, 4, 64)
                for _ in range(size)
            )
            measure = ("discrete", weights)
            functions = (
                _wide_discrete_function(rng, size, n_terms),
                _wide_discrete_function(rng, size, n_terms),
            )
        cases.append(Case(index, measure, functions))
    return cases


_GENERATORS = {"grid_exact": _grid_exact, "pwl_deep": _pwl_deep, "wide_simple": _wide_simple}


def generate_cases(workload: str, seed: int, count: Optional[int] = None) -> list:
    """The workload's case list for `seed`; identical on every call."""
    rng = random.Random(seed)
    return _GENERATORS[workload](rng, CASE_COUNTS[workload] if count is None else count)


# --- the timed call ------------------------------------------------------------------


def run_cli_case(case: Case, lap) -> tuple:
    """`exactintegral compare --spec <file>` in process: (exit code, stdout, stderr).

    `cli.main` is looked up on every call so that a traced run sees its
    wrapper.  The call is one step, so `lap` is not used.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["compare", "--spec", case.path])
    return code, out.getvalue(), err.getvalue()


def _library_measure(measure: tuple):
    if measure[0] == "discrete":
        return exactintegral.DiscreteSpace(measure[1])
    return exactintegral.IntervalMeasure(measure[1], measure[2])


def _library_function(space, fn: tuple):
    terms = []
    for value, (kind, members) in fn[1]:
        if kind == "indices":
            part = exactintegral.DiscreteSet(space, members)
        else:
            part = exactintegral.IntervalSet(members)
        terms.append((value, part))
    return exactintegral.SimpleFunction(space, terms)


def run_wide_case(case: Case, lap) -> dict:
    """Build f and g from plain data, then the set "writes" (construction,
    canonical form, f + g, f - g) and the set "reads" (integrals against
    the measure).  `lap` is called between the steps, which take up to a
    few hundred milliseconds each."""
    measure = _library_measure(case.measure)
    space = exactintegral.space_of(measure)
    f = _library_function(space, case.functions[0])
    lap()
    g = _library_function(space, case.functions[1])
    lap()
    f.canonical()
    total = f + g
    lap()
    difference = f - g
    lap()
    integrate = exactintegral.integrate_simple
    result = {"f": integrate(f, measure), "g": integrate(g, measure)}
    lap()
    result["sum"] = integrate(total, measure)
    lap()
    signed = exactintegral.lebesgue_integral(difference, measure)
    result["difference"] = signed.value
    result["positive"] = signed.positive_part
    result["negative"] = signed.negative_part
    return result


RUNNERS = {"grid_exact": run_cli_case, "pwl_deep": run_cli_case, "wide_simple": run_wide_case}
