"""Golden CLI bytes on task files written from `gen`.

Each digest covers the exit code, stdout and stderr of every run, in
order.  The `compare`/`table` digest was recorded before the staircase and
the limit integral were read off the value distribution; the `integrate`
digest was recorded before simple-function integrals read all their
masses in one batch; the `gen` digest, which also integrates every drawn
series, was recorded before the geometric rule series became its own
class; the non-default `gen` digest was recorded before every family drew
its measure through one call.  Any change to a rational, a decimal
expansion, a key or an error message of these reports shows up here.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from exactintegral.cli import main

GOLDEN_DIGEST = "2a2b360f4acc05627296f0c970b4b3a63b78bcdc69db40ee9d6a23c75d2bfa9a"
INTEGRATE_DIGEST = "452e9f7435b384c93b4ff4a3558fc3572d160b36ada02b3707a81423f8b81162"
GEN_DIGEST = "8c1537726e3ca8e9e239aa5d48f115e8ebe252906f1e7916d25b1b3f8c9bff87"

FAMILIES = ("simple", "piecewise_linear")
SEEDS = (1, 2)
CASES = 4
INTEGRATE_CASES = 10
COMMANDS = (
    ("compare",),
    ("compare", "--depth", "30"),
    ("table", "--max-level", "30"),
)
# No task key runs integrate_mi (the signed integral); integrate_bochner
# integrates the function as a one-term series.
INTEGRATE_TASKS = (None, "integrate_bochner")
GEN_FAMILIES = ("simple", "piecewise_linear", "vector_simple", "series")
GEN_SEEDS = (1, 2, 3)
GEN_CASES = 8
# Each drawn series is integrated with the default truncation and with 5.
SERIES_PARAMETERS = (None, {"truncation": 5})
# Every size flag away from its default.
GEN_SIZE_FLAGS = ("--max-terms", "5", "--max-denominator", "97", "--max-dim", "2")
GEN_SIZED_DIGEST = "0c90c7b878ce2a590d75d9fe3cec7d4668f43aab6e57617e44aee446b21167ec"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def generated_fragments(count):
    for family in FAMILIES:
        for seed in SEEDS:
            code, lines, _ = run(
                ["gen", "--family", family, "--seed", str(seed), "--count", str(count)]
            )
            assert code == 0
            for index, line in enumerate(lines.splitlines()):
                yield f"{family}-{seed}-{index}", json.loads(line)


def test_compare_and_table_bytes_match_the_recorded_digest(tmp_path):
    digest = hashlib.sha256()
    for name, fragment in generated_fragments(CASES):
        path = tmp_path / f"{name}.json"
        path.write_text(
            json.dumps({"space": fragment["space"], "function": fragment["function"]}),
            encoding="utf-8",
        )
        for command, *flags in COMMANDS:
            code, out, err = run([command, "--spec", str(path), *flags])
            digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_integrate_bytes_match_the_recorded_digest(tmp_path):
    digest = hashlib.sha256()
    for name, fragment in generated_fragments(INTEGRATE_CASES):
        for task in INTEGRATE_TASKS:
            doc = {"space": fragment["space"], "function": fragment["function"]}
            if task is not None:
                doc["task"] = task
            path = tmp_path / f"{name}-{task}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            code, out, err = run(["integrate", "--spec", str(path)])
            digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == INTEGRATE_DIGEST


def test_gen_bytes_of_every_family_match_the_recorded_digest(tmp_path):
    digest = hashlib.sha256()
    for family in GEN_FAMILIES:
        for seed in GEN_SEEDS:
            argv = ["gen", "--family", family, "--seed", str(seed), "--count", str(GEN_CASES)]
            code, lines, err = run(argv)
            digest.update(f"{code}\n{lines}\n{err}\n".encode())
            if family != "series":
                continue
            for index, line in enumerate(lines.splitlines()):
                fragment = json.loads(line)
                for parameters in SERIES_PARAMETERS:
                    doc = {"space": fragment["space"], "function": fragment["function"]}
                    if parameters is not None:
                        doc["parameters"] = parameters
                    path = tmp_path / f"series-{seed}-{index}.json"
                    path.write_text(json.dumps(doc), encoding="utf-8")
                    code, out, err = run(["integrate", "--spec", str(path)])
                    digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == GEN_DIGEST


def test_gen_bytes_under_non_default_size_flags_match_the_recorded_digest():
    digest = hashlib.sha256()
    for family in GEN_FAMILIES:
        for seed in GEN_SEEDS:
            argv = ["gen", "--family", family, "--seed", str(seed), "--count", str(GEN_CASES)]
            code, lines, err = run([*argv, *GEN_SIZE_FLAGS])
            digest.update(f"{code}\n{lines}\n{err}\n".encode())
    assert digest.hexdigest() == GEN_SIZED_DIGEST
