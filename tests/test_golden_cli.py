"""Golden CLI bytes: `compare` and `table` on task files written from `gen`.

The digest covers the exit code, stdout and stderr of every run, in order.
It was recorded before the staircase and the limit integral were read off
the value distribution, so any change to a rational, a decimal expansion,
a key or an error message of these reports shows up here.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from exactintegral.cli import main

GOLDEN_DIGEST = "2a2b360f4acc05627296f0c970b4b3a63b78bcdc69db40ee9d6a23c75d2bfa9a"

FAMILIES = ("simple", "piecewise_linear")
SEEDS = (1, 2)
CASES = 4
COMMANDS = (
    ("compare",),
    ("compare", "--depth", "30"),
    ("table", "--max-level", "30"),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_compare_and_table_bytes_match_the_recorded_digest(tmp_path):
    digest = hashlib.sha256()
    for family in FAMILIES:
        for seed in SEEDS:
            code, lines, _ = run(
                ["gen", "--family", family, "--seed", str(seed), "--count", str(CASES)]
            )
            assert code == 0
            for index, line in enumerate(lines.splitlines()):
                fragment = json.loads(line)
                path = tmp_path / f"{family}-{seed}-{index}.json"
                path.write_text(
                    json.dumps({"space": fragment["space"], "function": fragment["function"]}),
                    encoding="utf-8",
                )
                for command, *flags in COMMANDS:
                    code, out, err = run([command, "--spec", str(path), *flags])
                    digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
