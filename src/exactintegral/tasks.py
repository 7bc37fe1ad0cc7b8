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

A refusal names the first offending entry in document order by its field
path ("function.terms[2].set.intervals[1][0]"), and a path is built only
on a refusal.  A list of rational strings or of indices is read in one
pass and walked again with entry paths only when an entry is refused.  The
other walks parse each entry with field paths relative to it ("[0]",
".set.intervals") and move a refusal under the entry's own path, built
from its index, on the way out.

A report is rendered in one typed pass: a `Fraction` entry becomes its two
strings, other scalars are kept as they are, and the same pass notes
whether the report is flat.  It is encoded as
`json.dumps(report, sort_keys=True, indent=2)` would encode it, but a flat
report goes through the standard library's C encoder: CPython uses it only
when `indent` is None, so the indented layout is made by the item separator
",\n  " and the braces are put on their own lines around it.  A report
holding a list (a `Vec` entry) or no entry takes `json.dumps` itself.
Numbers in a task file are parsed once, by `rationals.parse_rational`, and
the constructors the parser calls take its `Fraction`s as they are.
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
    Space,
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
    if isinstance(obj, dict) and key in obj:
        return obj[key]
    _require(isinstance(obj, dict), field_path, "expected an object")
    if required:
        raise TaskSpecError(f"{field_path}.{key}", "missing required entry")
    return None


def _list(obj: dict, key: str, field_path: str, what: str = "a list") -> list:
    """obj[key], refused unless it is a list."""
    value = _get(obj, key, field_path)
    if not isinstance(value, list):
        raise TaskSpecError(f"{field_path}.{key}", f"expected {what}")
    return value


def _under(entry_path: str, exc: TaskSpecError) -> TaskSpecError:
    """A refusal raised at a field path relative to a list entry ("" for the
    entry itself, ".set.intervals[1]" below it), moved under the entry."""
    return TaskSpecError(entry_path + exc.field, str(exc)[len(exc.field) + 2 :])


_NUMBER_REFUSED = "rationals must be strings like \"1/3\" (numbers are rejected to keep exactness)"


def _rational(value, field_path: str) -> Fraction:
    try:
        return parse_rational(value)
    except ValueError as exc:
        message = str(exc) if isinstance(value, str) else _NUMBER_REFUSED
        raise TaskSpecError(field_path, message) from None


def _built(field_path: str, make, *args):
    """make(*args), a `ValueError` from it refused as the entry `field_path`."""
    try:
        return make(*args)
    except ValueError as exc:
        raise TaskSpecError(field_path, str(exc)) from None


def _rationals(obj: dict, key: str, field_path: str) -> list[Fraction]:
    """The list of rational strings obj[key], parsed in one pass.  Only if
    an entry is refused is the list walked again with entry paths, so that
    the first offender is named."""
    items = _list(obj, key, field_path, "a list of rational strings")
    try:
        return [parse_rational(item) for item in items]
    except ValueError:
        for i, item in enumerate(items):
            _rational(item, f"{field_path}.{key}[{i}]")
        raise


def _integer(value, field_path: str, minimum: int, maximum: Optional[int] = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TaskSpecError(field_path, "expected an integer")
    _require(value >= minimum, field_path, f"must be >= {minimum}")
    _require(maximum is None or value <= maximum, field_path, f"must be <= {maximum}")
    return value


def parse_measure(obj, field_path: str = "space") -> Measure:
    kind = _get(obj, "type", field_path)
    if kind == "discrete":
        weights = _rationals(obj, "weights", field_path)
        _require(bool(weights), f"{field_path}.weights", "needs at least one weight")
        try:
            return DiscreteSpace(tuple(weights))
        except ValueError:
            # With at least one weight, a negative weight is all it refuses.
            raise TaskSpecError(f"{field_path}.weights", "weights must be >= 0") from None
    if kind == "interval":
        breakpoints = _rationals(obj, "breakpoints", field_path)
        densities = _rationals(obj, "densities", field_path)
        return _built(field_path, IntervalMeasure, tuple(breakpoints), tuple(densities))
    raise TaskSpecError(
        f"{field_path}.type", f"unknown space type {kind!r} (discrete or interval)"
    )


# Each walk of a list of pairs or objects parses its entries with field
# paths relative to the entry; a refused entry's own path is built from its
# index, the number of entries parsed before it.


def parse_set(obj, field_path: str, space: Space) -> MeasurableSet:
    if not isinstance(obj, dict):
        raise TaskSpecError(field_path, "expected an object")
    if "intervals" in obj:
        if isinstance(space, DiscreteSpace):
            raise TaskSpecError(field_path, "interval set declared over a discrete space")
        pairs = _list(obj, "intervals", field_path)
        intervals = []
        try:
            for pair in pairs:
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise TaskSpecError("", "expected a [lo, hi] pair")
                intervals.append((_rational(pair[0], "[0]"), _rational(pair[1], "[1]")))
        except TaskSpecError as exc:
            raise _under(f"{field_path}.intervals[{len(intervals)}]", exc) from None
        try:
            return IntervalSet(intervals)
        except ValueError as exc:
            raise TaskSpecError(_refused_interval(field_path, intervals), str(exc)) from None
    if "indices" in obj:
        if not isinstance(space, DiscreteSpace):
            raise TaskSpecError(field_path, "index set declared over the interval space")
        indices = _list(obj, "indices", field_path)
        # Plain ints >= 0 pass without a walk; else the first offender is named.
        if not (set(map(type, indices)) <= {int} and min(indices, default=0) >= 0):
            for i, index in enumerate(indices):
                _integer(index, f"{field_path}.indices[{i}]", 0)
        return _built(f"{field_path}.indices", DiscreteSet, space, indices)
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


def _term_value(raw):
    """The value of a simple-function term, refused at ".value" or below."""
    value = _get(raw, "value", "")
    if not isinstance(value, list):
        return _rational(value, ".value")
    _require(bool(value), ".value", "vector values need at least one component")
    return Vec(tuple(_rationals(raw, "value", "")))


def parse_simple_function(obj, field_path: str, measure: Measure) -> SimpleFunction:
    raw_terms = _list(obj, "terms", field_path)
    space = space_of(measure)
    terms = []
    try:
        for raw in raw_terms:
            value = _term_value(raw)
            terms.append((value, parse_set(_get(raw, "set", ""), ".set", space)))
    except TaskSpecError as exc:
        raise _under(f"{field_path}.terms[{len(terms)}]", exc) from None
    return _built(f"{field_path}.terms", SimpleFunction, space, terms)


def parse_piecewise(obj, field_path: str, measure: Measure) -> PiecewiseLinear:
    if not isinstance(measure, IntervalMeasure):
        raise TaskSpecError(field_path, "piecewise_linear functions live on the interval space")
    breakpoints = _rationals(obj, "breakpoints", field_path)
    raw_pieces = _list(obj, "pieces", field_path)
    pieces = []
    try:
        for raw in raw_pieces:
            slope = _rational(_get(raw, "a", ""), ".a")
            pieces.append((slope, _rational(_get(raw, "b", ""), ".b")))
    except TaskSpecError as exc:
        raise _under(f"{field_path}.pieces[{len(pieces)}]", exc) from None
    return _built(field_path, PiecewiseLinear, breakpoints, pieces)


# The integrands a function or a series term may be, each with its parser.
# A kind that is not a string is refused before the lookup: a list is no key.
_INTEGRAND_PARSERS = {"simple": parse_simple_function, "piecewise_linear": parse_piecewise}


def parse_function(obj, field_path: str, measure: Measure, norm_kind: Optional[NormKind] = None):
    kind = _get(obj, "type", field_path)
    if isinstance(kind, str) and kind in _INTEGRAND_PARSERS:
        return _INTEGRAND_PARSERS[kind](obj, field_path, measure)
    if kind == "series":
        raw_terms = _list(obj, "terms", field_path)
        terms = []
        try:
            for raw in raw_terms:
                term_kind = _get(raw, "type", "", required=False)
                if term_kind is None:
                    term_kind = "simple"
                if not (isinstance(term_kind, str) and term_kind in _INTEGRAND_PARSERS):
                    raise TaskSpecError(
                        ".type", f"unknown term type {term_kind!r} (simple or piecewise_linear)"
                    )
                terms.append(_INTEGRAND_PARSERS[term_kind](raw, "", measure))
        except TaskSpecError as exc:
            raise _under(f"{field_path}.terms[{len(terms)}]", exc) from None
        return _built(field_path, FiniteSeries, measure, terms, norm_kind)
    if kind == "series_rule":
        rule = _get(obj, "rule", field_path)
        if rule != "geometric_indicator":
            message = f"unknown rule {rule!r} (only geometric_indicator is defined)"
            raise TaskSpecError(f"{field_path}.rule", message)
        ratio = _rational(_get(obj, "ratio", field_path), f"{field_path}.ratio")
        return _built(f"{field_path}.ratio", GeometricIndicatorSeries, measure, ratio)
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
        if key not in PARAMETERS:
            raise TaskSpecError(
                f"{field_path}.{key}", f"unknown parameter (known: {', '.join(PARAMETERS)})"
            )
    parameters = {}
    try:
        for key, check in PARAMETERS.items():
            if key in obj:
                parameters[key] = check(obj[key], "")
    except TaskSpecError as exc:
        raise _under(f"{field_path}.{key}", exc) from None
    return parameters


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
    raw_function = _get(doc, "function", "<document>")
    function = parse_function(raw_function, "function", measure, parameters.get("norm"))
    task = doc.get("task")
    if task is not None and task not in TASK_NAMES:
        message = f"unknown task {task!r} (known: {', '.join(TASK_NAMES)})"
        raise TaskSpecError("task", message)
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
    except UnicodeDecodeError as exc:
        raise TaskSpecError(
            "<file>", f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    except ValueError:  # after its two subclasses above: an integer past the digit limit
        raise TaskSpecError(
            "<file>",
            f"{path} holds an integer longer than the "
            f"{sys.get_int_max_str_digits()}-digit limit for integer strings",
        ) from None
    return parse_task_document(doc)


# --- runners -----------------------------------------------------------------


def _require_integrand(task: TaskSpec, task_name: str, vector_message: str) -> Integrand:
    """The task's scalar function; a series or a vector function is refused."""
    fn = task.function
    if isinstance(fn, FunctionSeries):
        raise TaskSpecError("function", f"task {task_name} needs a function, not a series")
    _require(fn.dim is None, "function", vector_message)
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
            if fn.dim is not None and norm is None:
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


# Report entries of these types are rendered as they are.
_AS_IS = frozenset({str, int, bool, type(None)})

# With `indent` None, `encode` runs the C encoder; this item separator puts
# each entry of a flat object on its own line, indented as by `indent=2`.
_FLAT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n  ", ": "))


def render_report(report: dict) -> str:
    """Flat JSON with exact rationals and decimal companions; stable bytes."""
    rendered: dict = {}
    flat = bool(report)
    try:
        for key, value in report.items():
            if type(value) in _AS_IS:
                rendered[key] = value
            elif isinstance(value, Fraction):
                rendered[key] = str(value)
                rendered[f"{key}_decimal"] = decimal_string(value)
            elif isinstance(value, Vec):
                rendered[key] = [str(c) for c in value.components]
                rendered[f"{key}_decimal"] = [decimal_string(c) for c in value.components]
                flat = False
            else:
                rendered[key] = value
                flat = flat and not isinstance(value, (list, tuple, dict))
    except ValueError:
        raise _unrenderable(f"report entry {key!r}") from None
    if not flat:
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
