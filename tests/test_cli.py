"""The command-line interface: commands, exit codes, byte determinism."""

import json
import subprocess
import sys

import pytest

from exactintegral.cli import main

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


def test_task_command_mismatch_exit_1(tmp_path, capsys):
    code = main(["table", "--spec", write_task(tmp_path, IDENTITY_COMPARE)])
    assert code == 1
    assert "task" in capsys.readouterr().err


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
