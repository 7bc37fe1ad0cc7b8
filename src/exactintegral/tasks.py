"""Task files and their execution.

A task file is one JSON document:

    {"space": {...}, "function": {...}, "task": "...", "parameters": {...}}

Rationals travel as "p/q" strings ("p" for integers); JSON numbers are
rejected for rational fields so floats can never leak into a computation.
Reports are flat JSON objects in which every rational entry appears twice,
exact ("p/q") and as a 12-significant-digit decimal under
"<key>_decimal"; identical inputs produce byte-identical reports.  An
exact value whose numerator or denominator has more decimal digits than
the interpreter renders (`sys.get_int_max_str_digits()`) is not rendered:
rendering raises a `ValueError` naming the report entry (or table column
and level) and the limit, and the limit itself is left as it is.

A report is encoded as `json.dumps(report, sort_keys=True, indent=2)`
would encode it, but a report of scalar entries goes through the standard
library's C encoder: CPython uses it only when `indent` is None, so the
indented layout is made by the item separator ",\n  " and the braces are
put on their own lines around it.  A report holding a list (a `Vec`
entry) takes `json.dumps` itself.  Numbers in a task file are parsed once,
by `rationals.parse_rational`, and the constructors the parser calls take
its `Fraction`s as they are.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .bochner import (
    FiniteSeries,
    FunctionSeries,
    GeometricIndicatorSeries,
    bochner_integrate,
    equivalence_report,
)
from .generators import GeneratedCase
from .lebesgue import INTEGRAL_CLASS, DyadicApproximation, Integrand, lebesgue_integral
from .piecewise import PiecewiseLinear
from .rationals import ZERO, decimal_string, parse_rational
from .simple import NormKind, SimpleFunction, Vec
from .spaces import (
    DiscreteSet,
    DiscreteSpace,
    IntervalMeasure,
    IntervalSet,
    Measure,
    MeasurableSet,
    space_of,
)

__all__ = [
    "TaskSpecError",
    "TaskSpec",
    "TASK_NAMES",
    "parse_task_document",
    "load_task",
    "run_integrate",
    "run_compare",
    "approx_table_rows",
    "render_report",
    "render_table_csv",
    "measure_fragment",
    "set_fragment",
    "function_fragment",
    "case_fragment",
]

TASK_NAMES = ("integrate_mi", "integrate_bochner", "compare", "approx_table")

MAX_LEVEL = 30


class TaskSpecError(ValueError):
    """A task file violated the schema; `field` names the offending entry."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


def _require(condition: bool, field_path: str, message: str) -> None:
    if not condition:
        raise TaskSpecError(field_path, message)


def _get(obj: dict, key: str, field_path: str, required: bool = True):
    _require(isinstance(obj, dict), field_path, "expected an object")
    if key not in obj:
        if required:
            raise TaskSpecError(f"{field_path}.{key}", "missing required entry")
        return None
    return obj[key]


def _rational(value, field_path: str) -> Fraction:
    _require(
        isinstance(value, str),
        field_path,
        "rationals must be strings like \"1/3\" (numbers are rejected to keep exactness)",
    )
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise TaskSpecError(field_path, str(exc)) from None


def _rational_list(value, field_path: str) -> list[Fraction]:
    _require(isinstance(value, list), field_path, "expected a list of rational strings")
    return [_rational(item, f"{field_path}[{i}]") for i, item in enumerate(value)]


def _integer(value, field_path: str, minimum: int, maximum: Optional[int] = None) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        field_path,
        "expected an integer",
    )
    _require(value >= minimum, field_path, f"must be >= {minimum}")
    if maximum is not None:
        _require(value <= maximum, field_path, f"must be <= {maximum}")
    return value


def parse_measure(obj, field_path: str = "space") -> Measure:
    kind = _get(obj, "type", field_path)
    if kind == "discrete":
        weights = _rational_list(_get(obj, "weights", field_path), f"{field_path}.weights")
        _require(bool(weights), f"{field_path}.weights", "needs at least one weight")
        try:
            return DiscreteSpace(tuple(weights))
        except ValueError:
            # With at least one weight, a negative weight is all it refuses.
            raise TaskSpecError(f"{field_path}.weights", "weights must be >= 0") from None
    if kind == "interval":
        breakpoints = _rational_list(
            _get(obj, "breakpoints", field_path), f"{field_path}.breakpoints"
        )
        densities = _rational_list(
            _get(obj, "densities", field_path), f"{field_path}.densities"
        )
        try:
            return IntervalMeasure(tuple(breakpoints), tuple(densities))
        except ValueError as exc:
            raise TaskSpecError(field_path, str(exc)) from None
    raise TaskSpecError(
        f"{field_path}.type", f"unknown space type {kind!r} (discrete or interval)"
    )


def parse_set(obj, field_path: str, measure: Measure) -> MeasurableSet:
    _require(isinstance(obj, dict), field_path, "expected an object")
    space = space_of(measure)
    if "intervals" in obj:
        _require(
            not isinstance(space, DiscreteSpace),
            field_path,
            "interval set declared over a discrete space",
        )
        raw = obj["intervals"]
        _require(isinstance(raw, list), f"{field_path}.intervals", "expected a list")
        intervals = []
        for i, pair in enumerate(raw):
            _require(
                isinstance(pair, list) and len(pair) == 2,
                f"{field_path}.intervals[{i}]",
                "expected a [lo, hi] pair",
            )
            lo = _rational(pair[0], f"{field_path}.intervals[{i}][0]")
            hi = _rational(pair[1], f"{field_path}.intervals[{i}][1]")
            intervals.append((lo, hi))
        try:
            return IntervalSet(intervals)
        except ValueError as exc:
            raise TaskSpecError(_refused_interval(field_path, intervals), str(exc)) from None
    if "indices" in obj:
        _require(
            isinstance(space, DiscreteSpace),
            field_path,
            "index set declared over the interval space",
        )
        raw = obj["indices"]
        _require(isinstance(raw, list), f"{field_path}.indices", "expected a list")
        indices = [
            _integer(i, f"{field_path}.indices[{k}]", 0) for k, i in enumerate(raw)
        ]
        try:
            return DiscreteSet(space, indices)
        except ValueError as exc:
            raise TaskSpecError(f"{field_path}.indices", str(exc)) from None
    raise TaskSpecError(field_path, "a set needs \"intervals\" or \"indices\"")


def _refused_interval(field_path: str, intervals) -> str:
    """The field of the first pair `IntervalSet` refuses: the end outside
    [0, 1], else the pair itself (its ends are swapped)."""
    for i, (lo, hi) in enumerate(intervals):
        if not 0 <= lo <= 1:
            return f"{field_path}.intervals[{i}][0]"
        if not 0 <= hi <= 1:
            return f"{field_path}.intervals[{i}][1]"
        if lo > hi:
            return f"{field_path}.intervals[{i}]"
    return f"{field_path}.intervals"


def _parse_value(value, field_path: str):
    if isinstance(value, list):
        _require(bool(value), field_path, "vector values need at least one component")
        return Vec(tuple(_rational(c, f"{field_path}[{i}]") for i, c in enumerate(value)))
    return _rational(value, field_path)


def parse_simple_function(obj, field_path: str, measure: Measure) -> SimpleFunction:
    raw_terms = _get(obj, "terms", field_path)
    _require(isinstance(raw_terms, list), f"{field_path}.terms", "expected a list")
    terms = []
    for i, raw in enumerate(raw_terms):
        term_path = f"{field_path}.terms[{i}]"
        value = _parse_value(_get(raw, "value", term_path), f"{term_path}.value")
        part = parse_set(_get(raw, "set", term_path), f"{term_path}.set", measure)
        terms.append((value, part))
    try:
        return SimpleFunction(space_of(measure), terms)
    except ValueError as exc:
        raise TaskSpecError(f"{field_path}.terms", str(exc)) from None


def parse_piecewise(obj, field_path: str, measure: Measure) -> PiecewiseLinear:
    _require(
        isinstance(measure, IntervalMeasure),
        field_path,
        "piecewise_linear functions live on the interval space",
    )
    breakpoints = _rational_list(
        _get(obj, "breakpoints", field_path), f"{field_path}.breakpoints"
    )
    raw_pieces = _get(obj, "pieces", field_path)
    _require(isinstance(raw_pieces, list), f"{field_path}.pieces", "expected a list")
    pieces = []
    for i, raw in enumerate(raw_pieces):
        piece_path = f"{field_path}.pieces[{i}]"
        slope = _rational(_get(raw, "a", piece_path), f"{piece_path}.a")
        intercept = _rational(_get(raw, "b", piece_path), f"{piece_path}.b")
        pieces.append((slope, intercept))
    try:
        return PiecewiseLinear(breakpoints, pieces)
    except ValueError as exc:
        raise TaskSpecError(field_path, str(exc)) from None


# The integrands a function or a series term may be, each with its parser.
# A kind that is not a string is refused before the lookup: a list is no key.
_INTEGRAND_PARSERS = {"simple": parse_simple_function, "piecewise_linear": parse_piecewise}


def parse_function(
    obj,
    field_path: str,
    measure: Measure,
    norm_kind: Optional[NormKind] = None,
):
    kind = _get(obj, "type", field_path)
    if isinstance(kind, str) and kind in _INTEGRAND_PARSERS:
        return _INTEGRAND_PARSERS[kind](obj, field_path, measure)
    if kind == "series":
        raw_terms = _get(obj, "terms", field_path)
        _require(isinstance(raw_terms, list), f"{field_path}.terms", "expected a list")
        terms = []
        for i, raw in enumerate(raw_terms):
            term_path = f"{field_path}.terms[{i}]"
            term_kind = _get(raw, "type", term_path, required=False)
            if term_kind is None:
                term_kind = "simple"
            _require(
                isinstance(term_kind, str) and term_kind in _INTEGRAND_PARSERS,
                f"{term_path}.type",
                f"unknown term type {term_kind!r} (simple or piecewise_linear)",
            )
            terms.append(_INTEGRAND_PARSERS[term_kind](raw, term_path, measure))
        try:
            return FiniteSeries(measure, terms, norm_kind=norm_kind)
        except ValueError as exc:
            raise TaskSpecError(field_path, str(exc)) from None
    if kind == "series_rule":
        rule = _get(obj, "rule", field_path)
        _require(
            rule == "geometric_indicator",
            f"{field_path}.rule",
            f"unknown rule {rule!r} (only geometric_indicator is defined)",
        )
        ratio = _rational(_get(obj, "ratio", field_path), f"{field_path}.ratio")
        try:
            return GeometricIndicatorSeries(measure, ratio)
        except ValueError as exc:
            raise TaskSpecError(f"{field_path}.ratio", str(exc)) from None
    raise TaskSpecError(f"{field_path}.type", f"unknown function type {kind!r}")


def _eta(value, field_path: str) -> Fraction:
    eta = _rational(value, field_path)
    _require(eta >= 0, field_path, "must be >= 0")
    return eta


def _norm(value, field_path: str) -> NormKind:
    kinds = {k.value: k for k in NormKind}
    known = isinstance(value, str) and value in kinds
    _require(known, field_path, f"expected one of {sorted(kinds)}")
    return kinds[value]


_level = functools.partial(_integer, minimum=1, maximum=MAX_LEVEL)

# The one check of each parameter, `check(value, field_path) -> value`, in
# the order `parse_parameters` runs them; the CLI flags run the same checks.
PARAMETERS = {
    "depth": _level,
    "eta": _eta,
    "truncation": functools.partial(_integer, minimum=0, maximum=MAX_LEVEL),
    "max_level": _level,
    "norm": _norm,
}


def parse_parameters(obj, field_path: str = "parameters") -> dict:
    if obj is None:
        return {}
    _require(isinstance(obj, dict), field_path, "expected an object")
    for key in obj:
        _require(
            key in PARAMETERS,
            f"{field_path}.{key}",
            f"unknown parameter (known: {', '.join(PARAMETERS)})",
        )
    checks = PARAMETERS.items()
    return {key: check(obj[key], f"{field_path}.{key}") for key, check in checks if key in obj}


@dataclass
class TaskSpec:
    """A parsed task file: measure, function/series, task name, parameters."""

    measure: Measure
    function: Union[Integrand, FunctionSeries]
    task: Optional[str]
    parameters: dict = field(default_factory=dict)


def parse_task_document(doc) -> TaskSpec:
    _require(isinstance(doc, dict), "<document>", "a task file is one JSON object")
    measure = parse_measure(_get(doc, "space", "<document>"))
    parameters = parse_parameters(doc.get("parameters"))
    function = parse_function(
        _get(doc, "function", "<document>"),
        "function",
        measure,
        norm_kind=parameters.get("norm"),
    )
    task = doc.get("task")
    if task is not None:
        _require(
            task in TASK_NAMES,
            "task",
            f"unknown task {task!r} (known: {', '.join(TASK_NAMES)})",
        )
    return TaskSpec(measure, function, task, parameters)


def load_task(path: str) -> TaskSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise TaskSpecError("<file>", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise TaskSpecError(
            "<file>", f"{path} is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    except RecursionError:
        raise TaskSpecError("<file>", f"{path} nests too deeply to parse") from None
    return parse_task_document(doc)


# --- runners -----------------------------------------------------------------


def _require_integrand(task: TaskSpec, task_name: str, vector_message: str) -> Integrand:
    """The task's scalar function; a series or a vector function is refused."""
    fn = task.function
    _require(
        not isinstance(fn, FunctionSeries),
        "function",
        f"task {task_name} needs a function, not a series",
    )
    _require(not (isinstance(fn, SimpleFunction) and fn.is_vector), "function", vector_message)
    return fn


def run_integrate(task: TaskSpec) -> dict:
    """integrate_mi on an integrand, integrate_bochner on a series.

    A plain function under integrate_bochner is wrapped as a one-term
    series; vector functions take that route and need parameters.norm.
    """
    name = task.task or (
        "integrate_bochner" if isinstance(task.function, FunctionSeries) else "integrate_mi"
    )
    if name == "integrate_mi":
        fn = _require_integrand(
            task,
            name,
            "integrate_mi needs a scalar integrand; integrate vector functions "
            "with integrate_bochner and parameters.norm",
        )
        result = lebesgue_integral(fn, task.measure)
        return {
            "task": name,
            "classification": INTEGRAL_CLASS,
            "value": result.value,
            "positive_part_integral": result.positive_part,
            "negative_part_integral": result.negative_part,
        }
    if name == "integrate_bochner":
        fn = task.function
        if isinstance(fn, FunctionSeries):
            series = fn
        else:
            norm = task.parameters.get("norm")
            if isinstance(fn, SimpleFunction) and fn.is_vector and norm is None:
                raise TaskSpecError(
                    "parameters.norm", "vector functions need a norm (L1 or LInf)"
                )
            series = FiniteSeries(task.measure, [fn], norm_kind=norm)
        truncation = task.parameters.get("truncation")
        if truncation is None:
            truncation = series.term_count if series.term_count is not None else 16
        # `bound` is already the certificate's tail bound; asking the series
        # again would integrate every tail term a second time.
        value, bound = bochner_integrate(series, truncation)
        return {
            "task": name,
            "truncation": truncation,
            "value": value,
            "error_bound": bound,
            "abs_sum_partial": series.partial_abs_sum(truncation),
            "abs_sum_tail_bound": bound,
            "term_count": series.term_count,
        }
    raise TaskSpecError("task", f"task {name!r} is not an integrate task")


def run_compare(task: TaskSpec) -> dict:
    fn = _require_integrand(task, "compare", "compare needs a scalar function")
    depth = task.parameters.get("depth", 16)
    eta = task.parameters.get("eta", ZERO)
    report = equivalence_report(fn, task.measure, eta=eta, depth=depth)
    return {"task": "compare", **report}


def approx_table_rows(fn: Integrand, measure: Measure, max_level: int) -> list[dict]:
    """One row per staircase level: integral, gap to the limit, level bound.

    The staircase integral is nondecreasing in the level; the gap falls
    under the bound column from the level where the cap is inactive
    (at/above the integrand's sup).
    """
    if max_level > MAX_LEVEL:
        raise ValueError(f"max_level capped at {MAX_LEVEL}")
    approx = DyadicApproximation(fn)
    exact = approx.limit(measure)
    mass = measure.total_mass
    rows = []
    for level in range(1, max_level + 1):
        value = approx.integral(level, measure)
        rows.append(
            {
                "level": level,
                "integral": value,
                "gap": exact - value,
                "bound": Fraction(1, 1 << level) * mass,
            }
        )
    return rows


def run_table(task: TaskSpec) -> list[dict]:
    fn = _require_integrand(task, "approx_table", "approx_table needs a scalar function")
    max_level = task.parameters.get("max_level", 10)
    return approx_table_rows(fn, task.measure, max_level)


# --- rendering ---------------------------------------------------------------


def _unrenderable(entry: str) -> ValueError:
    return ValueError(
        f"{entry} cannot be rendered: its exact value has a numerator or denominator "
        f"longer than the {sys.get_int_max_str_digits()}-digit limit for integer strings"
    )


def _render_value(key: str, value, out: dict) -> None:
    if isinstance(value, Fraction):
        out[key] = str(value)
        out[f"{key}_decimal"] = decimal_string(value)
    elif isinstance(value, Vec):
        out[key] = [str(c) for c in value.components]
        out[f"{key}_decimal"] = [decimal_string(c) for c in value.components]
    else:
        out[key] = value


# With `indent` None, `encode` runs the C encoder; this item separator puts
# each entry of a flat object on its own line, indented as by `indent=2`.
_FLAT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n  ", ": "))


def render_report(report: dict) -> str:
    """Flat JSON with exact rationals and decimal companions; stable bytes."""
    rendered: dict = {}
    for key, value in report.items():
        try:
            _render_value(key, value, rendered)
        except ValueError:
            raise _unrenderable(f"report entry {key!r}") from None
    if not rendered or any(isinstance(v, (list, tuple, dict)) for v in rendered.values()):
        return json.dumps(rendered, sort_keys=True, indent=2) + "\n"
    return "{\n  " + _FLAT_ENCODER.encode(rendered)[1:-1] + "\n}\n"


_TABLE_COLUMNS = ("level", "integral", "gap", "bound")


def render_table_csv(rows: list[dict]) -> str:
    """CSV with "p/q" columns plus decimal companions for human reading."""
    buffer = io.StringIO()
    header = ["level"]
    for name in _TABLE_COLUMNS[1:]:
        header += [name, f"{name}_decimal"]
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        record = [str(row["level"])]
        for name in _TABLE_COLUMNS[1:]:
            try:
                record += [str(row[name]), decimal_string(row[name])]
            except ValueError:
                raise _unrenderable(f"table column {name!r} at level {row['level']}") from None
        writer.writerow(record)
    return buffer.getvalue()


# --- fragments (serialization back to task-file form) ------------------------


def measure_fragment(measure: Measure) -> dict:
    if isinstance(measure, DiscreteSpace):
        return {"type": "discrete", "weights": [str(w) for w in measure.weights]}
    return {
        "type": "interval",
        "breakpoints": [str(t) for t in measure.breakpoints],
        "densities": [str(d) for d in measure.densities],
    }


def set_fragment(part: MeasurableSet) -> dict:
    if isinstance(part, DiscreteSet):
        return {"indices": list(part.indices)}
    return {"intervals": [[str(lo), str(hi)] for lo, hi in part.intervals]}


def _value_fragment(value):
    if isinstance(value, Vec):
        return [str(c) for c in value.components]
    return str(value)


def function_fragment(fn) -> dict:
    if isinstance(fn, SimpleFunction):
        return {
            "type": "simple",
            "terms": [
                {"value": _value_fragment(value), "set": set_fragment(part)}
                for value, part in fn.terms
            ],
        }
    if isinstance(fn, PiecewiseLinear):
        return {
            "type": "piecewise_linear",
            "breakpoints": [str(t) for t in fn.breakpoints],
            "pieces": [{"a": str(a), "b": str(b)} for a, b in fn.pieces],
        }
    if isinstance(fn, FiniteSeries):
        return {"type": "series", "terms": [function_fragment(t) for t in fn.terms]}
    if isinstance(fn, GeometricIndicatorSeries):
        return {
            "type": "series_rule",
            "rule": "geometric_indicator",
            "ratio": str(fn.ratio),
        }
    raise TypeError(f"no task-file form for {type(fn).__name__}")


def case_fragment(case: GeneratedCase) -> dict:
    return {
        "family": case.family,
        "space": measure_fragment(case.measure),
        "function": function_fragment(case.function),
    }
