"""Fuzzing the task-file boundary.

Valid task documents are mutated (entries dropped, retyped, set out of
range, wrapped in another level of nesting) and fed to
`parse_task_document` and every runner.  Each input must end in a report,
a `TaskSpecError` or one of the computation errors the CLI maps to exit
code 2; any other exception would reach the user as a traceback.
"""

import copy
import random

from hypothesis import given, settings, strategies as st

from exactintegral.cli import _COMPUTE_ERRORS
from exactintegral.tasks import (
    TaskSpecError,
    parse_task_document,
    render_report,
    render_table_csv,
    run_compare,
    run_integrate,
    run_table,
)

LEBESGUE = {"type": "interval", "breakpoints": ["0", "1"], "densities": ["1"]}
STEP_MEASURE = {"type": "interval", "breakpoints": ["0", "1/2", "1"], "densities": ["2", "0"]}
DISCRETE = {"type": "discrete", "weights": ["1/4", "1/2", "0", "1"]}
INTERVAL_TERMS = [
    {"value": "2", "set": {"intervals": [["0", "1/2"]]}},
    {"value": "-1/3", "set": {"intervals": [["1/2", "3/4"], ["7/8", "1"]]}},
]
PIECEWISE = {
    "type": "piecewise_linear",
    "breakpoints": ["0", "1/3", "1"],
    "pieces": [{"a": "3", "b": "1/2"}, {"a": "-1", "b": "2"}],
}

# Rationals near the interpreter's limit on integer strings (4300 digits by
# default): the first three parse, the last does not, and the product of
# the first two has too many digits to be rendered.
HUGE_RATIONALS = [f"1/{3**5000}", f"-1/{7**3000}", "9" * 4300, "1" + "0" * 4300]

BASE_DOCUMENTS = [
    {
        "space": LEBESGUE,
        "function": {"type": "simple", "terms": INTERVAL_TERMS},
        "task": "compare",
        "parameters": {"depth": 6, "eta": "1/1000"},
    },
    {
        "space": DISCRETE,
        "function": {
            "type": "simple",
            "terms": [
                {"value": "3/2", "set": {"indices": [0, 2]}},
                {"value": "-2", "set": {"indices": [3]}},
            ],
        },
        "task": "integrate_mi",
    },
    {
        "space": STEP_MEASURE,
        "function": PIECEWISE,
        "task": "approx_table",
        "parameters": {"max_level": 5},
    },
    {
        "space": LEBESGUE,
        "function": {
            "type": "series",
            "terms": [{"type": "simple", "terms": INTERVAL_TERMS}, PIECEWISE],
        },
        "task": "integrate_bochner",
        "parameters": {"truncation": 2},
    },
    {
        "space": STEP_MEASURE,
        "function": {"type": "series_rule", "rule": "geometric_indicator", "ratio": "1/2"},
        "task": "integrate_bochner",
        "parameters": {"truncation": 5},
    },
    {
        "space": DISCRETE,
        "function": {
            "type": "simple",
            "terms": [{"value": ["1", "-2"], "set": {"indices": [1]}}],
        },
        "task": "integrate_bochner",
        "parameters": {"norm": "L1"},
    },
    {
        "space": {"type": "discrete", "weights": [HUGE_RATIONALS[0], "1/2"]},
        "function": {
            "type": "simple",
            "terms": [
                {"value": HUGE_RATIONALS[1], "set": {"indices": [0]}},
                {"value": "3/4", "set": {"indices": [1]}},
            ],
        },
        "task": "compare",
        "parameters": {"depth": 4},
    },
]

# Values at and beyond the edges of the schema's ranges, of the replaced
# entry's own JSON type: some are rejected, the rest reach the runners as
# unusual but valid input.
RATIONAL_EDGES = [
    "-1", "-1/2", "0", "1", "1/3", "2", "5/4", "1/1024", "1/0", "0/0", "", "x", *HUGE_RATIONALS
]
INTEGER_EDGES = [-1, 0, 1, 2, 30, 31, 10**6]


def _edge_value(rng, value):
    if isinstance(value, str):
        return rng.choice(RATIONAL_EDGES)
    if isinstance(value, int) and not isinstance(value, bool):
        return rng.choice(INTEGER_EDGES)
    if isinstance(value, list):
        return rng.choice([[], value[::-1], value + value[-1:]])
    return {}


json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-40, 40),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(alphabet="0123456789/-ab", max_size=5),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def _paths(node, prefix=()):
    """Every path below the root to a dict entry or list item."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    # Paths and mutations are picked by a seeded `Random`: Hypothesis's own
    # choices lean towards the first entries of a list.
    rng = random.Random(draw(st.integers(0, 2**32)))
    doc = copy.deepcopy(rng.choice(BASE_DOCUMENTS))
    for _ in range(rng.randint(1, 2)):
        paths = list(_paths(doc))
        if not paths:
            break
        path = rng.choice(paths)
        parent, key = _at(doc, path[:-1]), path[-1]
        mutation = rng.choice(["drop", "retype", "edge", "edge", "nest"])
        if mutation == "drop":
            del parent[key]
        elif mutation == "retype":
            parent[key] = draw(json_values)
        elif mutation == "edge":
            parent[key] = _edge_value(rng, parent[key])
        else:
            parent[key] = rng.choice([[parent[key]], {"value": parent[key]}])
    return doc


RUNNERS = (
    (run_integrate, render_report),
    (run_compare, render_report),
    (run_table, render_table_csv),
)


@settings(max_examples=200, deadline=None)
@given(mutated_documents())
def test_mutated_task_documents_end_in_a_report_or_a_listed_error(doc):
    # Python's advice to raise the interpreter-wide digit limit is never
    # passed on, whichever stage refuses the document.
    try:
        task = parse_task_document(doc)
    except TaskSpecError as exc:
        assert "set_int_max_str_digits" not in str(exc)
        return
    for run, render in RUNNERS:
        try:
            result = run(task)
        except (TaskSpecError, *_COMPUTE_ERRORS) as exc:
            assert "set_int_max_str_digits" not in str(exc)
            continue
        try:
            text = render(result)
        except ValueError as exc:
            # The only value a report cannot hold is one too long to write out.
            assert "cannot be rendered" in str(exc)
            assert "set_int_max_str_digits" not in str(exc)
            continue
        assert isinstance(text, str) and text


def test_unmutated_documents_give_reports():
    for doc in BASE_DOCUMENTS:
        task = parse_task_document(copy.deepcopy(doc))
        runner = {"compare": run_compare, "approx_table": run_table}.get(task.task, run_integrate)
        assert runner(task)
