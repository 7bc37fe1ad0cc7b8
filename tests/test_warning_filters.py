"""The project's pytest warning filters let a failing property test report
like any other failure, and the run go on to the tests after it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SUITE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # Where `mypy_extensions` is installed, Hypothesis's failure report
    # touches its deprecated `TypedDict`; with warnings as errors alone that
    # ended the run with INTERNALERROR after "1 failed".
    (tmp_path / "test_suite.py").write_text(SUITE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT)]
        + ["--rootdir", str(tmp_path), str(tmp_path / "test_suite.py")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout.splitlines()[-1], run.stdout[-2000:]
