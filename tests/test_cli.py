"""The command-line interface: commands, exit codes, byte determinism."""

import argparse
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from fractions import Fraction

import pytest

from exactintegral.cli import _build, main
from exactintegral.generators import GeneratorConfig

STEP_TASK = {
    "space": {"type": "interval", "breakpoints": ["0", "1"], "densities": ["1"]},
    "function": {
        "type": "simple",
        "terms": [
            {"value": "2", "set": {"intervals": [["0", "1/2"]]}},
            {"value": "3", "set": {"intervals": [["1/2", "1"]]}},
        ],
    },
    "task": "integrate_mi",
}

IDENTITY_COMPARE = {
    "space": {"type": "interval", "breakpoints": ["0", "1"], "densities": ["1"]},
    "function": {
        "type": "piecewise_linear",
        "breakpoints": ["0", "1"],
        "pieces": [{"a": "1", "b": "0"}],
    },
    "task": "compare",
    "parameters": {"depth": 20, "eta": "1/1024"},
}


def write_task(tmp_path, doc, name="task.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "exactintegral", *argv],
        capture_output=True,
        text=True,
    )


def test_integrate_step(tmp_path, capsys):
    code = main(["integrate", "--spec", write_task(tmp_path, STEP_TASK)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["value"] == "5/2"
    assert report["value_decimal"] == "2.5"


def test_compare_identity_flags_override(tmp_path, capsys):
    doc = dict(IDENTITY_COMPARE)
    doc["parameters"] = {}
    code = main(
        ["compare", "--spec", write_task(tmp_path, doc), "--depth", "20", "--eta", "1/1024"]
    )
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["integral_value"] == "1/2"
    assert report["difference_bound"] == "1/524288"
    assert report["difference_within_bound"] is True
    assert report["eta"] == "1/1024"


def test_table_to_file(tmp_path, capsys):
    doc = dict(STEP_TASK)
    doc["task"] = "approx_table"
    out_path = tmp_path / "table.csv"
    code = main(
        [
            "table",
            "--spec",
            write_task(tmp_path, doc),
            "--max-level",
            "4",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("level,")


def test_validation_error_exit_1_names_field(tmp_path, capsys):
    doc = {
        "space": {"type": "discrete", "weights": ["1/4", "1/4", "1/4", "1/4"]},
        "function": {
            "type": "simple",
            "terms": [{"value": "2", "set": {"intervals": [["0", "1/2"]]}}],
        },
        "task": "integrate_mi",
    }
    code = main(["integrate", "--spec", write_task(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 1
    assert "function.terms[0].set" in err


@pytest.mark.parametrize(
    "pair, field, shown",
    [
        (["0", "1" + "0" * 400], "intervals[0][1]", f"[0, {10**400})"),
        (["-1" + "0" * 400, "1/2"], "intervals[0][0]", f"[-{10**400}, 1/2)"),
        (["3/4", "1/4"], "intervals[0]", "[3/4, 1/4)"),
    ],
    ids=["huge_end", "huge_negative_start", "swapped"],
)
def test_interval_outside_the_unit_interval_exit_1_names_the_end(
    tmp_path, capsys, pair, field, shown
):
    doc = {
        "space": {"type": "interval", "breakpoints": ["0", "1"], "densities": ["1"]},
        "function": {"type": "simple", "terms": [{"value": "2", "set": {"intervals": [pair]}}]},
        "task": "integrate_mi",
    }
    code = main(["integrate", "--spec", write_task(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        f"validation error: function.terms[0].set.{field}: "
        f"interval {shown} not inside [0, 1)\n"
    )


NUMBERS_REFUSED = 'rationals must be strings like "1/3" (numbers are rejected to keep exactness)'
LEBESGUE_SPACE = {"type": "interval", "breakpoints": ["0", "1"], "densities": ["1"]}
FOUR_POINTS = {"type": "discrete", "weights": ["1/4", "1/4", "1/4", "1/4"]}
ZERO_PIECE = {"a": "0", "b": "0"}


def _simple(*terms):
    return {"type": "simple", "terms": [{"value": v, "set": s} for v, s in terms]}


def _intervals(*pairs):
    return _simple(
        ("1", {"intervals": [["0", "1/4"]]}),
        ("2", {"intervals": [["1/4", "1/2"]]}),
        ("3", {"intervals": [["1/2", "3/4"], *pairs]}),
    )


def _indices(*indices):
    return _simple(("1", {"indices": [0]}), ("2", {"indices": [1]}), ("3", {"indices": [*indices]}))


def _pwl(breakpoints, pieces):
    return {"type": "piecewise_linear", "breakpoints": breakpoints, "pieces": pieces}


# id -> (space, function, refused field, message).  Each offender sits past
# the first entry of the list walk that names it.
LATER_ENTRY_REFUSALS = {
    "weight": (
        {"type": "discrete", "weights": ["1/4", "1/4", 1, "1/4"]},
        _indices(2),
        "space.weights[2]",
        NUMBERS_REFUSED,
    ),
    "breakpoint": (
        {"type": "interval", "breakpoints": ["0", "1/2.5", "1"], "densities": ["1", "2"]},
        _intervals(),
        "space.breakpoints[1]",
        "not a rational string: '1/2.5'",
    ),
    "density": (
        {"type": "interval", "breakpoints": ["0", "1/2", "1"], "densities": ["1", "two"]},
        _intervals(),
        "space.densities[1]",
        "not a rational string: 'two'",
    ),
    "term_value": (
        LEBESGUE_SPACE,
        _simple(("1", {"intervals": [["0", "1/2"]]}), (2, {"intervals": [["1/2", "1"]]})),
        "function.terms[1].value",
        NUMBERS_REFUSED,
    ),
    "vector_component": (
        LEBESGUE_SPACE,
        _simple(
            (["1", "2", "3"], {"intervals": [["0", "1/2"]]}),
            (["1", "2", "3/"], {"intervals": [["1/2", "1"]]}),
        ),
        "function.terms[1].value[2]",
        "not a rational string: '3/'",
    ),
    "interval_not_a_pair": (
        LEBESGUE_SPACE,
        _intervals(["3/4", "7/8", "1"]),
        "function.terms[2].set.intervals[1]",
        "expected a [lo, hi] pair",
    ),
    "interval_lo": (
        LEBESGUE_SPACE,
        _intervals([0.75, "1"]),
        "function.terms[2].set.intervals[1][0]",
        NUMBERS_REFUSED,
    ),
    "interval_hi": (
        LEBESGUE_SPACE,
        _intervals(["3/4", "1.0"]),
        "function.terms[2].set.intervals[1][1]",
        "not a rational string: '1.0'",
    ),
    "index_bool": (
        FOUR_POINTS,
        _indices(0, 1, 2, True),
        "function.terms[2].set.indices[3]",
        "expected an integer",
    ),
    "index_negative": (
        FOUR_POINTS,
        _indices(0, 1, 2, -1),
        "function.terms[2].set.indices[3]",
        "must be >= 0",
    ),
    "index_string": (
        FOUR_POINTS,
        _indices(0, 1, 2, "3"),
        "function.terms[2].set.indices[3]",
        "expected an integer",
    ),
    "pwl_breakpoint": (
        LEBESGUE_SPACE,
        _pwl(["0", "1/2", 1], [ZERO_PIECE, ZERO_PIECE]),
        "function.breakpoints[2]",
        NUMBERS_REFUSED,
    ),
    "piece_slope": (
        LEBESGUE_SPACE,
        _pwl(["0", "1/2", "1"], [ZERO_PIECE, {"a": 1, "b": "0"}]),
        "function.pieces[1].a",
        NUMBERS_REFUSED,
    ),
    "piece_intercept": (
        LEBESGUE_SPACE,
        _pwl(["0", "1/2", "1"], [ZERO_PIECE, {"a": "1", "b": "-"}]),
        "function.pieces[1].b",
        "not a rational string: '-'",
    ),
    "series_term": (
        LEBESGUE_SPACE,
        {"type": "series", "terms": [_pwl(["0", "1"], [ZERO_PIECE]), _intervals(["3/4", 1])]},
        "function.terms[1].terms[2].set.intervals[1][1]",
        NUMBERS_REFUSED,
    ),
    # A string that does not parse, then a number, in one list: a walk that
    # ran every entry's type check before any parse would name weights[2].
    "first_of_one_list": (
        {"type": "discrete", "weights": ["1/4", "x", 1, "1/4"]},
        _indices(2),
        "space.weights[1]",
        "not a rational string: 'x'",
    ),
    # An end of the second term, then a value and an entry that is no object.
    "first_of_two_terms": (
        LEBESGUE_SPACE,
        {
            "type": "simple",
            "terms": [
                {"value": "1", "set": {"intervals": [["0", "1/4"]]}},
                {"value": "2", "set": {"intervals": [["1/4", "1/2"], [1, "3/4"]]}},
                {"value": 3, "set": {"intervals": [["3/4", "1"]]}},
                "not a term",
            ],
        },
        "function.terms[1].set.intervals[1][0]",
        NUMBERS_REFUSED,
    ),
}


@pytest.mark.parametrize("case", LATER_ENTRY_REFUSALS)
def test_a_refusal_past_the_first_entry_names_its_field(tmp_path, capsys, case):
    space, function, field, message = LATER_ENTRY_REFUSALS[case]
    doc = {"space": space, "function": function, "task": "integrate_mi"}
    code = main(["integrate", "--spec", write_task(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"validation error: {field}: {message}\n"


def test_negative_density_exit_1_names_the_space(tmp_path, capsys):
    doc = dict(STEP_TASK)
    doc["space"] = {
        "type": "interval",
        "breakpoints": ["0", "1/2", "1"],
        "densities": ["1", "-1/3"],
    }
    code = main(["integrate", "--spec", write_task(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "validation error: space: densities must be nonnegative\n"


def test_task_command_mismatch_exit_1(tmp_path, capsys):
    code = main(["table", "--spec", write_task(tmp_path, IDENTITY_COMPARE)])
    assert code == 1
    assert "task" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, task_name, key, value",
    [
        ("compare", "compare", "depth", 0),
        ("compare", "compare", "depth", 31),
        ("table", "approx_table", "max_level", 0),
        ("table", "approx_table", "max_level", 31),
        ("compare", "compare", "eta", "-1"),
        ("compare", "compare", "eta", "1/x"),
        ("compare", "compare", "depth", "x"),
        ("table", "approx_table", "max_level", "2.5"),
    ],
    ids=[
        "depth_0",
        "depth_31",
        "max_level_0",
        "max_level_31",
        "eta_negative",
        "eta_unparsable",
        "depth_not_an_integer",
        "max_level_not_an_integer",
    ],
)
def test_a_flag_obeys_its_parameters_rule_and_message(
    tmp_path, capsys, command, task_name, key, value
):
    flag = "--" + key.replace("_", "-")
    doc = dict(IDENTITY_COMPARE, task=task_name, parameters={})
    flag_code = main([command, "--spec", write_task(tmp_path, doc), f"{flag}={value}"])
    by_flag = capsys.readouterr()
    doc["parameters"] = {key: value}
    file_code = main([command, "--spec", write_task(tmp_path, doc, "file.json")])
    by_file = capsys.readouterr()
    assert flag_code == file_code == 1
    assert by_flag.out == by_file.out == ""
    flag_prefix = f"validation error: {flag}: "
    file_prefix = f"validation error: parameters.{key}: "
    assert by_flag.err.startswith(flag_prefix)
    assert by_file.err.startswith(file_prefix)
    assert by_flag.err[len(flag_prefix):] == by_file.err[len(file_prefix):]


@pytest.mark.parametrize("target", ["missing/table.csv", "."], ids=["missing_dir", "a_dir"])
def test_table_out_that_cannot_be_written_exit_1_names_the_flag(tmp_path, target):
    out = tmp_path / target
    doc = dict(STEP_TASK, task="approx_table")
    run = run_cli("table", "--spec", write_task(tmp_path, doc), "--out", str(out))
    assert run.returncode == 1
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"validation error: --out: cannot write {out}: ")


def test_missing_file_exit_1(tmp_path, capsys):
    code = main(["integrate", "--spec", str(tmp_path / "absent.json")])
    assert code == 1


def test_computation_error_exit_2(tmp_path, capsys):
    doc = {
        "space": {"type": "interval", "breakpoints": ["0", "1"], "densities": ["1"]},
        "function": {
            "type": "piecewise_linear",
            "breakpoints": ["0", "1"],
            "pieces": [{"a": "0", "b": "-1"}],
        },
        "task": "approx_table",
    }
    code = main(["table", "--spec", write_task(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert "negative" in err


def test_gen_bad_config_exit_1(capsys):
    code = main(["gen", "--family", "simple", "--seed", "3", "--max-terms", "99"])
    assert code == 1
    # The flags' defaults are the generator's own size caps.
    gen = _build()[1]["gen"]
    caps = {f.name: f.default for f in fields(GeneratorConfig) if f.name.startswith("max_")}
    assert len(caps) == 3 and {name: gen.get_default(name) for name in caps} == caps


def test_gen_outputs_fragments(capsys):
    code = main(["gen", "--family", "simple", "--seed", "3", "--count", "2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        fragment = json.loads(line)
        assert fragment["family"] == "simple"
        assert "space" in fragment and "function" in fragment


def test_reports_byte_identical_across_processes(tmp_path):
    path = write_task(tmp_path, IDENTITY_COMPARE)
    first = run_cli("compare", "--spec", path)
    second = run_cli("compare", "--spec", path)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty


def test_gen_byte_identical_across_processes():
    first = run_cli("gen", "--family", "series", "--seed", "17", "--count", "3")
    second = run_cli("gen", "--family", "series", "--seed", "17", "--count", "3")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_truncation_beyond_max_level_exit_1(tmp_path, capsys):
    doc = {
        "space": {"type": "interval", "breakpoints": ["0", "1"], "densities": ["1"]},
        "function": {"type": "series_rule", "rule": "geometric_indicator", "ratio": "1/3"},
        "task": "integrate_bochner",
        "parameters": {"truncation": 10000},
    }
    code = main(["integrate", "--spec", write_task(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 1
    assert "parameters.truncation" in err


def test_deeply_nested_json_exit_1_without_traceback(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code = main(["integrate", "--spec", str(path)])
    err_lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err_lines) == 1
    assert err_lines[0].startswith("validation error: <file>: ")


def test_non_utf8_file_exit_1_naming_the_path(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"space": "\xff"}')
    code = main(["integrate", "--spec", str(path)])
    err_lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err_lines == [
        f"validation error: <file>: {path} is not UTF-8 text: invalid start byte at byte 11"
    ]


def test_refused_outputs_exit_1_naming_the_flag(tmp_path, capsys):
    doc = {
        "space": {"type": "interval", "breakpoints": ["0", "1"], "densities": ["1"]},
        "function": {
            "type": "piecewise_linear",
            "breakpoints": ["0", "1"],
            "pieces": [{"a": "1", "b": "0"}],
        },
    }
    path = write_task(tmp_path, doc)
    assert main(["table", "--spec", path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"validation error: --out: cannot write {tmp_path}: Is a directory\n"
    )
    assert main(["gen", "--family", "simple", "--seed", "1", "--count", "0"]) == 1
    assert capsys.readouterr().err == "validation error: gen: count must be >= 1\n"


def test_one_process_reuses_its_parser_like_fresh_processes(tmp_path, monkeypatch):
    # argparse wraps usage lines at the terminal width; fix it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    doc = {
        "space": {"type": "interval", "breakpoints": ["0", "1"], "densities": ["1"]},
        "function": {
            "type": "simple",
            "terms": [
                {"value": "3/4", "set": {"intervals": [["0", "1/4"]]}},
                {"value": "5/2", "set": {"intervals": [["1/2", "1"]]}},
            ],
        },
        "parameters": {"depth": 9},
    }
    path = write_task(tmp_path, doc)
    sequence = [
        ["compare", "--spec", path, "--depth", "7"],
        ["compare", "--spec", path],
        ["compare", "--spec", path, "--depth", "0"],
        ["compare", "--spec", path, "--no-such-flag"],
        ["table", "--spec", path, "--max-level", "30"],
        ["gen", "--family", "simple", "--seed", "1"],
        # Help, usage errors and valid calls, some read by the full parser
        # and some by a command's own parser alone.
        [],
        ["-h"],
        ["--help"],
        ["bogus"],
        ["compare"],
        ["compare", "-h"],
        ["compare", "--spec", path, "--eta", "1/8"],
        ["compare", "--spec", path, "extra"],
        ["compare", "--spec", path, "--bogus"],
        ["compare", "--sp", path],
        ["compare", "--spec="],
        ["--", "compare", "--spec", path],
        ["compare", "--", "--spec", path],
        ["gen", "--family", "nope", "--seed", "1"],
        ["table", "--spec", path, "--max-level", "x"],
        ["compare", "--spec", path, "--depth", "3", "--depth", "4"],
    ]
    in_process = []
    for argv in sequence:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        in_process.append((code, out.getvalue(), err.getvalue()))
    fresh = [
        (run.returncode, run.stdout, run.stderr) for run in (run_cli(*argv) for argv in sequence)
    ]
    assert in_process == fresh
    assert [code for code, _, _ in in_process] == [0, 0, 1, 2, 0, 0] + [
        2, 0, 0, 2, 2, 0, 0, 2, 2, 0, 1, 2, 2, 2, 1, 0
    ]
    assert json.loads(in_process[0][1])["series_depth"] == 7
    assert json.loads(in_process[1][1])["series_depth"] == 9
    assert json.loads(in_process[-1][1])["series_depth"] == 4
    _, _, err = in_process[sequence.index(["compare", "--spec", path, "extra"])]
    assert err.startswith("usage: exactintegral [-h] {integrate")
    assert "unrecognized arguments: extra" in err


def test_a_command_line_is_parsed_by_its_command_s_parser_alone(tmp_path, monkeypatch):
    parsed = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def recording(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    path = write_task(tmp_path, IDENTITY_COMPARE)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["compare", "--spec", path]) == 0
    assert parsed == ["exactintegral compare"]
    assert json.loads(out.getvalue())["series_depth"] == 20
    # Left-over arguments go to the full parser, which reports them.
    parsed.clear()
    with pytest.raises(SystemExit) as exit_, redirect_stderr(io.StringIO()):
        main(["compare", "--spec", path, "extra"])
    assert exit_.value.code == 2
    assert parsed[:2] == ["exactintegral compare", "exactintegral"]


@pytest.mark.parametrize("value", [10**6, 2**40])
def test_compare_with_a_deep_termination_level_finishes(tmp_path, value):
    doc = {
        "space": {"type": "interval", "breakpoints": ["0", "1"], "densities": ["1"]},
        "function": {
            "type": "simple",
            "terms": [
                {"value": str(value), "set": {"intervals": [["0", "1/2"]]}},
                {"value": "-3/8", "set": {"intervals": [["1/2", "1"]]}},
            ],
        },
        "task": "compare",
    }
    # A timeout turns a level-by-level fill up to the termination level into
    # a failure instead of a hang.
    run = subprocess.run(
        [sys.executable, "-m", "exactintegral", "compare", "--spec", write_task(tmp_path, doc)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["series_term_count"] == value
    assert report["integral_value"] == str(Fraction(value, 2) - Fraction(3, 16))
    assert report["series_integral"] == report["integral_value"]
    assert report["series_integral_error_bound"] == "0"


# One point of mass 3^-5000 holding the value 7^-3000: both parse, but their
# exact product has more digits than the interpreter turns into a string.
HUGE_PRODUCT = {
    "space": {"type": "discrete", "weights": [f"1/{3**5000}"]},
    "function": {"type": "simple", "terms": [{"value": f"1/{7**3000}", "set": {"indices": [0]}}]},
}


@pytest.mark.parametrize(
    "command, task, entry",
    [
        ("integrate", "integrate_mi", "report entry 'value'"),
        ("compare", "compare", "report entry 'integral_value'"),
        ("table", "approx_table", "table column 'gap' at level 1"),
    ],
)
def test_unrenderable_exact_result_exit_2_names_the_entry(tmp_path, capsys, command, task, entry):
    doc = dict(HUGE_PRODUCT, task=task)
    code = main([command, "--spec", write_task(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"computation error: {entry} cannot be rendered")
    assert f"{sys.get_int_max_str_digits()}-digit limit" in lines[0]
    assert "set_int_max_str_digits" not in lines[0]


@pytest.mark.parametrize(
    "text",
    [
        "1" + "0" * sys.get_int_max_str_digits(),
        "1/" + "7" * (sys.get_int_max_str_digits() + 1),
    ],
    ids=["numerator", "denominator"],
)
def test_over_long_input_rational_exit_1_states_the_limit(tmp_path, capsys, text):
    doc = {
        "space": {"type": "discrete", "weights": ["1", text]},
        "function": {"type": "simple", "terms": [{"value": "1", "set": {"indices": [0]}}]},
        "task": "integrate_mi",
    }
    code = main(["integrate", "--spec", write_task(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "space.weights[1]" in lines[0]
    assert f"{sys.get_int_max_str_digits()}-digit limit" in lines[0]
    assert "set_int_max_str_digits" not in lines[0]
