"""Tests of the benchmark itself: seeded inputs and how failures are counted.

    python -m pytest -q bench
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _task_files(directory: Path, workload: str, seed: int) -> dict:
    directory.mkdir()
    cases = workloads.generate_cases(workload, seed, count=12)
    workloads.write_task_files(workload, cases, str(directory))
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["grid_exact", "pwl_deep"])
def test_one_seed_gives_byte_identical_task_files(tmp_path, workload):
    first = _task_files(tmp_path / "first", workload, seed=7)
    second = _task_files(tmp_path / "second", workload, seed=7)
    assert len(first) == 12
    assert first == second
    assert _task_files(tmp_path / "other", workload, seed=8) != first


def test_one_seed_gives_identical_wide_cases():
    first = workloads.generate_cases("wide_simple", 7, count=4)
    assert first == workloads.generate_cases("wide_simple", 7, count=4)
    assert first != workloads.generate_cases("wide_simple", 8, count=4)


def _pass(workload: str, cases: list, run_case):
    expected = [reference.expected_value(workload, case) for case in cases]

    def verify(output, want):
        return reference.check(workload, output, want)

    return run.run_pass(cases, expected, run_case, verify)


def test_corrupted_report_and_exception_are_counted(tmp_path):
    cases = workloads.generate_cases("grid_exact", 3, count=6)
    cases = workloads.write_task_files("grid_exact", cases, str(tmp_path))

    def corrupted(case, lap):
        code, stdout, stderr = workloads.run_cli_case(case, lap)
        if case.index == 1:
            report = json.loads(stdout)
            report["integral_value"] = str(Fraction(report["integral_value"]) + 1)
            stdout = json.dumps(report)
        if case.index == 2:
            raise RuntimeError("injected")
        return code, stdout, stderr

    result = _pass("grid_exact", cases, corrupted)
    assert sorted(result.failures) == [1, 2]
    assert "!= oracle" in result.failures[1]
    assert "RuntimeError: injected" in result.failures[2]
    assert result.outputs is None  # a pass keeps only its digest
    metrics, notes = run.end_to_end([result], setup_s=0.5)
    assert "cases_failed_ratio 0.333333 (2/6)" in notes
    assert metrics["throughput_cases_per_s"][0] == pytest.approx(4 / sum(result.reference_s))


def test_corrupted_wide_result_is_counted():
    cases = workloads.generate_cases("wide_simple", 3, count=2)

    def corrupted(case, lap):
        result = workloads.run_wide_case(case, lap)
        if case.index == 0:
            result["sum"] += 1
        return result

    result = _pass("wide_simple", cases, corrupted)
    assert list(result.failures) == [0]
    assert result.failures[0].startswith("sum:")


def test_tail_leaves_ten_samples_beyond():
    value, percentile = run.tail(list(range(100)))
    assert value == 89
    assert percentile == 90.0
