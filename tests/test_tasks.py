"""Task-file parsing, validation diagnostics, reports and fragments."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from exactintegral import (
    DiscreteSpace,
    GeneratorConfig,
    IntervalMeasure,
    NormKind,
    PiecewiseLinear,
    SimpleFunction,
    parse_rational,
)
from exactintegral import bochner
from exactintegral.cli import main
from exactintegral.generators import generate_stream
from exactintegral.tasks import (
    TaskSpecError,
    approx_table_rows,
    case_fragment,
    function_fragment,
    load_task,
    measure_fragment,
    parse_function,
    parse_measure,
    parse_task_document,
    render_report,
    render_table_csv,
    run_compare,
    run_integrate,
    run_table,
)

LEBESGUE_DOC = {"type": "interval", "breakpoints": ["0", "1"], "densities": ["1"]}
STEP_FUNCTION_DOC = {
    "type": "simple",
    "terms": [
        {"value": "2", "set": {"intervals": [["0", "1/2"]]}},
        {"value": "3", "set": {"intervals": [["1/2", "1"]]}},
    ],
}


def make_doc(**overrides):
    doc = {"space": LEBESGUE_DOC, "function": STEP_FUNCTION_DOC, "task": "integrate_mi"}
    doc.update(overrides)
    return doc


# --- parsing ------------------------------------------------------------------


def test_parse_discrete_space():
    measure = parse_measure({"type": "discrete", "weights": ["1/4", "1/4", "1/4", "1/4"]})
    assert isinstance(measure, DiscreteSpace)
    assert measure.total_mass == 1


def test_parse_interval_space():
    measure = parse_measure(
        {"type": "interval", "breakpoints": ["0", "1/2", "1"], "densities": ["2", "0"]}
    )
    assert isinstance(measure, IntervalMeasure)
    assert measure.total_mass == 1


def test_floats_rejected_with_field_name():
    with pytest.raises(TaskSpecError) as err:
        parse_measure({"type": "discrete", "weights": [0.25]})
    assert err.value.field == "space.weights[0]"


def test_negative_weight_refused_with_field_name():
    with pytest.raises(TaskSpecError) as err:
        parse_measure({"type": "discrete", "weights": ["1/2", "-1/3", "1"]})
    assert err.value.field == "space.weights"
    assert str(err.value) == "space.weights: weights must be >= 0"


def test_unknown_space_type_named():
    with pytest.raises(TaskSpecError) as err:
        parse_measure({"type": "gaussian"})
    assert err.value.field == "space.type"


def test_parse_vector_simple_function():
    measure = parse_measure(LEBESGUE_DOC)
    fn = parse_function(
        {
            "type": "simple",
            "terms": [{"value": ["1", "2"], "set": {"intervals": [["0", "1/2"]]}}],
        },
        "function",
        measure,
    )
    assert isinstance(fn, SimpleFunction) and fn.dim == 2


def test_parse_piecewise():
    measure = parse_measure(LEBESGUE_DOC)
    fn = parse_function(
        {
            "type": "piecewise_linear",
            "breakpoints": ["0", "1/2", "1"],
            "pieces": [{"a": "2", "b": "0"}, {"a": "-2", "b": "2"}],
        },
        "function",
        measure,
    )
    assert isinstance(fn, PiecewiseLinear)
    assert fn.evaluate(F(1, 4)) == F(1, 2)


def test_mismatched_set_kind_is_validation_error():
    doc = make_doc(
        space={"type": "discrete", "weights": ["1/4", "1/4", "1/4", "1/4"]},
    )
    with pytest.raises(TaskSpecError) as err:
        parse_task_document(doc)
    assert "set" in err.value.field


def test_overlapping_terms_reported_with_field():
    doc = make_doc(
        function={
            "type": "simple",
            "terms": [
                {"value": "1", "set": {"intervals": [["0", "1/2"]]}},
                {"value": "2", "set": {"intervals": [["1/4", "1"]]}},
            ],
        }
    )
    with pytest.raises(TaskSpecError) as err:
        parse_task_document(doc)
    assert err.value.field == "function.terms"
    assert str(err.value) == "function.terms: term sets must be pairwise disjoint"


SCALAR_TERM = {"value": "1", "set": {"intervals": [["0", "1/2"]]}}
VECTOR_TERM = {"value": ["1", "2"], "set": {"intervals": [["1/2", "1"]]}}


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"space": {"type": "interval", "breakpoints": ["0", "1/2", "1"], "densities": ["1"]}},
            "space: need one density per breakpoint cell",
        ),
        (
            {
                "space": {"type": "discrete", "weights": ["1", "1", "1", "1"]},
                "function": {"type": "simple", "terms": [{"value": "1", "set": {"indices": [9]}}]},
            },
            "function.terms[0].set.indices: index 9 outside the space of size 4",
        ),
        (
            {
                "function": {
                    "type": "piecewise_linear",
                    "breakpoints": ["0", "1/2", "1"],
                    "pieces": [{"a": "1", "b": "0"}],
                }
            },
            "function: need one (slope, intercept) pair per cell",
        ),
        (
            {
                "function": {
                    "type": "series",
                    "terms": [{"terms": [SCALAR_TERM]}, {"terms": [VECTOR_TERM]}],
                }
            },
            "function: series terms must share one value dimension",
        ),
        (
            {"function": {"type": "series", "terms": [{"terms": [VECTOR_TERM]}]}},
            "function: vector series need a NormKind for their certificates",
        ),
        (
            {"function": {"type": "series_rule", "rule": "geometric_indicator", "ratio": "3/2"}},
            "function.ratio: ratio must lie strictly between 0 and 1",
        ),
    ],
    ids=["densities", "indices", "pieces", "dimensions", "norm", "ratio"],
)
def test_a_refused_constructor_names_its_field_and_message(overrides, message):
    with pytest.raises(TaskSpecError) as err:
        parse_task_document(make_doc(task=None, **overrides))
    assert str(err.value) == message


def test_unknown_task_rejected():
    with pytest.raises(TaskSpecError) as err:
        parse_task_document(make_doc(task="differentiate"))
    assert err.value.field == "task"


def test_parameter_validation():
    with pytest.raises(TaskSpecError):
        parse_task_document(make_doc(parameters={"depth": 0}))
    with pytest.raises(TaskSpecError):
        parse_task_document(make_doc(parameters={"depth": 99}))
    with pytest.raises(TaskSpecError):
        parse_task_document(make_doc(parameters={"eta": "-1/2"}))
    with pytest.raises(TaskSpecError):
        parse_task_document(make_doc(parameters={"mystery": 1}))
    with pytest.raises(TaskSpecError) as err:
        parse_task_document(make_doc(parameters={"seed": 1}))  # read by no runner
    assert err.value.field == "parameters.seed"
    task = parse_task_document(
        make_doc(parameters={"depth": 12, "eta": "1/1024", "norm": "LInf"})
    )
    assert task.parameters["depth"] == 12


def test_load_task_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(TaskSpecError) as err:
        load_task(str(path))
    assert "line 1" in str(err.value)


# --- running ------------------------------------------------------------------


def test_run_integrate_mi_step():
    report = run_integrate(parse_task_document(make_doc()))
    assert report["value"] == F(5, 2)
    assert report["classification"] == "integrable"


def test_run_integrate_bochner_series():
    doc = make_doc(
        function={"type": "series", "terms": [STEP_FUNCTION_DOC]},
        task="integrate_bochner",
    )
    report = run_integrate(parse_task_document(doc))
    assert report["value"] == F(5, 2)
    assert report["error_bound"] == 0


@pytest.mark.parametrize(
    "kind",
    ["piecewise", 7, ["simple"], "series"],
    ids=["unknown_name", "number", "unhashable_list", "series"],
)
def test_unknown_series_term_type_exit_1_names_the_type(tmp_path, capsys, kind):
    term = {"type": kind, "terms": STEP_FUNCTION_DOC["terms"]}
    doc = make_doc(function={"type": "series", "terms": [term]}, task="integrate_bochner")
    path = tmp_path / "task.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["integrate", "--spec", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "validation error: function.terms[0].type: "
        f"unknown term type {kind!r} (simple or piecewise_linear)\n"
    )


def test_series_term_without_type_is_simple():
    term = {"terms": STEP_FUNCTION_DOC["terms"]}
    doc = make_doc(function={"type": "series", "terms": [term]}, task="integrate_bochner")
    report = run_integrate(parse_task_document(doc))
    assert report["value"] == F(5, 2)


def test_integrate_bochner_integrates_the_tail_once(monkeypatch):
    # Six step terms truncated after two: the certificate needs the norm
    # integrals of the two kept terms and of the four in the tail, once each.
    terms = [
        {"type": "simple", "terms": [{"value": str(k), "set": {"intervals": [["0", f"1/{k}"]]}}]}
        for k in range(1, 7)
    ]
    doc = make_doc(
        function={"type": "series", "terms": terms},
        task="integrate_bochner",
        parameters={"truncation": 2},
    )
    task = parse_task_document(doc)
    calls = []
    l1_norm = bochner.l1_norm

    def counted(*args):
        calls.append(args)
        return l1_norm(*args)

    monkeypatch.setattr(bochner, "l1_norm", counted)
    report = run_integrate(task)
    assert len(calls) == 6
    assert report["value"] == 2
    assert report["abs_sum_partial"] == 2
    assert report["error_bound"] == report["abs_sum_tail_bound"] == 4


def test_run_integrate_bochner_rule():
    doc = make_doc(
        function={"type": "series_rule", "rule": "geometric_indicator", "ratio": "1/2"},
        task="integrate_bochner",
        parameters={"truncation": 8},
    )
    report = run_integrate(parse_task_document(doc))
    assert report["value"] == 1 - F(1, 256)
    assert report["error_bound"] == F(1, 256)


def test_vector_function_needs_norm_parameter():
    doc = make_doc(
        function={
            "type": "simple",
            "terms": [{"value": ["1", "2"], "set": {"intervals": [["0", "1/2"]]}}],
        },
        task="integrate_bochner",
    )
    with pytest.raises(TaskSpecError) as err:
        run_integrate(parse_task_document(doc))
    assert err.value.field == "parameters.norm"
    doc["parameters"] = {"norm": "L1"}
    report = run_integrate(parse_task_document(doc))
    assert report["value"].components == (F(1, 2), F(1))


def test_vector_function_rejected_by_integrate_mi():
    doc = make_doc(
        function={
            "type": "simple",
            "terms": [{"value": ["1", "2"], "set": {"intervals": [["0", "1/2"]]}}],
        },
        task="integrate_mi",
    )
    with pytest.raises(TaskSpecError):
        run_integrate(parse_task_document(doc))


def test_run_compare_identity():
    doc = make_doc(
        function={
            "type": "piecewise_linear",
            "breakpoints": ["0", "1"],
            "pieces": [{"a": "1", "b": "0"}],
        },
        task="compare",
        parameters={"depth": 20, "eta": "1/1024"},
    )
    report = run_compare(parse_task_document(doc))
    assert report["integral_value"] == F(1, 2)
    assert report["difference_bound"] == F(1, 1 << 19)
    assert report["difference_within_bound"]


def test_table_rows_identity():
    rows = approx_table_rows(PiecewiseLinear.linear(F(1)), IntervalMeasure.lebesgue(), 6)
    by_level = {row["level"]: row for row in rows}
    assert by_level[2]["integral"] == F(3, 8)
    assert by_level[2]["gap"] == F(1, 8)
    assert by_level[2]["bound"] == F(1, 4)
    integrals = [row["integral"] for row in rows]
    assert all(a <= b for a, b in zip(integrals, integrals[1:]))
    for row in rows:  # identity's sup is 1, so every level clears the cap
        assert row["gap"] <= row["bound"]


def test_table_zero_function():
    zero = PiecewiseLinear.constant(F(0))
    rows = approx_table_rows(zero, IntervalMeasure.lebesgue(), 4)
    assert all(row["integral"] == 0 and row["gap"] == 0 for row in rows)


def test_table_grid_aligned_has_zero_gap():
    one = SimpleFunction.indicator(F(1), parse_measure(LEBESGUE_DOC).space.full_set())
    rows = approx_table_rows(one, IntervalMeasure.lebesgue(), 5)
    assert all(row["gap"] == 0 for row in rows)


def test_run_table_respects_max_level():
    task = parse_task_document(
        make_doc(
            function={
                "type": "piecewise_linear",
                "breakpoints": ["0", "1"],
                "pieces": [{"a": "1", "b": "0"}],
            },
            task="approx_table",
            parameters={"max_level": 3},
        )
    )
    assert len(run_table(task)) == 3


# --- rendering ----------------------------------------------------------------


def test_report_rationals_round_trip():
    report = run_integrate(parse_task_document(make_doc()))
    text = render_report(report)
    parsed = json.loads(text)
    assert parse_rational(parsed["value"]) == report["value"]
    assert parse_rational(parsed["positive_part_integral"]) == report["positive_part_integral"]
    assert parsed["value_decimal"] == "2.5"


def test_render_is_deterministic():
    task = parse_task_document(make_doc())
    assert render_report(run_integrate(task)) == render_report(run_integrate(task))


def test_table_csv_round_trips():
    rows = approx_table_rows(PiecewiseLinear.linear(F(1)), IntervalMeasure.lebesgue(), 4)
    text = render_table_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0].startswith("level,integral,integral_decimal")
    for line, row in zip(lines[1:], rows):
        fields = line.split(",")
        assert int(fields[0]) == row["level"]
        assert parse_rational(fields[1]) == row["integral"]
        assert parse_rational(fields[3]) == row["gap"]
        assert parse_rational(fields[5]) == row["bound"]


# --- fragments ----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(("simple", "vector_simple", "piecewise_linear", "series")),
    seed=st.one_of(st.integers(0, 7), st.integers(0, 2**64 - 1)),
    count=st.integers(1, 4),
)
def test_fragments_round_trip_through_parser(family, seed, count):
    norm = NormKind.L1 if family == "vector_simple" else None
    for case in generate_stream(GeneratorConfig(seed=seed, family=family), count):
        fragment = case_fragment(case)
        measure = parse_measure(fragment["space"])
        assert measure == case.measure
        parsed = parse_function(fragment["function"], "function", measure, norm)
        # The whole document, through JSON text, as a task file reaches it.
        doc = {"space": fragment["space"], "function": fragment["function"]}
        if norm is not None:
            doc["parameters"] = {"norm": norm.value}
        task = parse_task_document(json.loads(json.dumps(doc)))
        assert task.measure == case.measure
        assert (task.task, task.parameters) == (None, {"norm": norm} if norm else {})
        if family in ("simple", "vector_simple", "piecewise_linear"):
            assert parsed == case.function
            assert task.function == case.function
        else:
            assert function_fragment(parsed) == fragment["function"]
            assert function_fragment(task.function) == fragment["function"]


def test_fragment_of_measures():
    assert measure_fragment(IntervalMeasure.lebesgue()) == {
        "type": "interval",
        "breakpoints": ["0", "1"],
        "densities": ["1"],
    }
    space = DiscreteSpace((F(1, 4), F(3, 4)))
    assert measure_fragment(space) == {"type": "discrete", "weights": ["1/4", "3/4"]}
