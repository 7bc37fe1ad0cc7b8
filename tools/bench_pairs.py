"""Run one benchmark workload in alternating parent/change pairs and apply
the claim rule to every end-to-end metric.

    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload wide_simple \\
        --seed 1 --seconds 30 --pairs 10 [--out BENCH.json] [--commits PARENT CHANGE]
    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --tier1 \\
        [--out BENCH.json] [--commits PARENT CHANGE]

Each tree is a checkout holding its own `bench/run.py`, `src/` and
`BENCHMARK.json`; `git archive <commit> | tar -x -C DIR` makes one without
touching the repository's `.git`.  Pair k runs the parent first when k is
odd and the change first when k is even, each run a fresh
`bench/run.py --trace 0` process, and each run's final JSON line is kept.

For each end-to-end metric of the change tree's `BENCHMARK.json` it prints
both medians, the parent's quartiles (`statistics.quantiles`, default
method), the pairs the change wins, the median change and the verdict:

* "resolved": the change is better in at least 9 of 10 pairs and its
  median is better than the parent's by more than the parent's
  interquartile range;
* "not resolved": otherwise;
* "invalid": some run did not print `"correct": true` or had failed cases.

A median worse than the parent's by more than the metric's bound is
flagged beside the verdict.  With `--out` the inputs (commits, workload,
seed, seconds, processor count, Python version), every final line and the
verdicts are appended as one entry to the file's "runs" list.

With `--tier1` it runs no pairs: it runs each tree's Tier-1 suite twice,
parent first, with the CI command (`TIER1`, in development mode with
warnings as errors), and prints and records per tree the wall time, the
pass and failure counts and the 10 slowest durations that pytest lists
of the second run, as one entry with the commits, processor count and
Python version.  The first run is not timed: a tree's first run builds
its Hypothesis example database and its bytecode caches, which made it
seconds slower than every later run, so a timed first run would compare
the trees' cache states along with their tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

WINS_NEEDED = 0.9  # of the pairs
SIDES = ("parent", "change")

# The CI's Tier-1 command, run in a tree with its `src` on PYTHONPATH.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"]
TIER1_ENV = {"PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error"}
# "0.52s call     tests/test_x.py::test_y", one line per listed duration.
_DURATION = re.compile(r"(\d+(?:\.\d+)?)s (setup|call|teardown)\s+(\S.*)")


def verdict(pairs: list, better: str, bound: float | None = None, valid: bool = True) -> dict:
    """The claim rule over (parent, change) readings of one metric, where
    `better` is "higher" or "lower"."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    sign = 1 if better == "higher" else -1
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    gain = sign * (change_median - parent_median)
    resolved = wins >= WINS_NEEDED * len(pairs) and gain > q3 - q1
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_q1": q1,
        "parent_q3": q3,
        "wins": wins,
        "pairs": len(pairs),
        "change": change_median / parent_median - 1,
        "verdict": "invalid" if not valid else "resolved" if resolved else "not resolved",
        "past_bound": bound is not None and -gain > bound * parent_median,
    }


def valid_line(line: dict) -> bool:
    return line.get("correct") is True and line.get("failed") == 0


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run of the tree: its final JSON line, or a line
    that is not `"correct": true` where the run printed none."""
    command = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "exit": done.returncode, "stderr": done.stderr[-2000:]}


def tier1_run(tree: Path) -> dict:
    """One Tier-1 run of the tree, after one untimed run that warms its
    caches: wall time, counts and slowest durations."""
    env = dict(os.environ, **TIER1_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(tree / "src"), env.get("PYTHONPATH"))))
    subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True)
    started = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - started
    lines = done.stdout.splitlines()
    summary = lines[-1] if lines else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", summary)}
    slowest = [
        {"seconds": float(m[1]), "when": m[2], "test": m[3].strip()}
        for m in map(_DURATION.fullmatch, lines)
        if m
    ]
    return {
        "wall_s": round(wall, 2),
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0),
        "exit": done.returncode,
        "summary": summary.strip("= "),
        "slowest": slowest,
    }


def _brief(line: dict) -> str:
    """The run's throughput, or why it has none."""
    if not valid_line(line):
        return "invalid"
    return f"{line['metrics']['throughput_cases_per_s']['value']:.6g} cases/s"


def _metrics(tree: Path) -> list:
    return json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def summarize(runs: list, metrics: list) -> dict:
    """{metric: verdict} over the pairs of final lines in `runs`."""
    valid = all(valid_line(pair[side]) for pair in runs for side in SIDES)
    verdicts = {}
    for metric in metrics:
        name = metric["name"]
        readings = [
            (pair["parent"]["metrics"][name]["value"], pair["change"]["metrics"][name]["value"])
            for pair in runs
            if all(name in pair[side].get("metrics", {}) for side in SIDES)
        ]
        if len(readings) >= 2:
            verdicts[name] = verdict(readings, metric["better"], metric.get("bound"), valid)
    return verdicts


def render(name: str, v: dict) -> str:
    flag = ", worse past its bound" if v["past_bound"] else ""
    return (
        f"{name}: parent {v['parent_median']:.6g} (IQR {v['parent_q1']:.6g}-{v['parent_q3']:.6g})"
        f" -> change {v['change_median']:.6g}, {v['change']:+.1%},"
        f" {v['wins']}/{v['pairs']} pairs won: {v['verdict']}{flag}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--tier1", action="store_true", help="record one Tier-1 run per tree")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--commits", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    trees = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    machine = {
        "commits": dict(zip(SIDES, args.commits or (None, None))),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    if args.tier1:
        record = {side: tier1_run(trees[side]) for side in SIDES}
        for side in SIDES:
            print(f"{side} tier-1: {record[side]['summary']}, wall {record[side]['wall_s']} s")
        if args.out:
            _append(args.out, {"inputs": machine, "tier1": record})
        return 0 if all(record[side]["exit"] == 0 for side in SIDES) else 1
    if None in (args.workload, args.seed, args.seconds, args.pairs):
        parser.error("--workload, --seed, --seconds and --pairs are required without --tier1")
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    runs = []
    for k in range(1, args.pairs + 1):
        order = SIDES if k % 2 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], args.workload, args.seed, args.seconds)
        runs.append(pair)
        shown = ", ".join(f"{side} {_brief(pair[side])}" for side in order)
        print(f"pair {k}: {shown}", flush=True)
    verdicts = summarize(runs, _metrics(trees["change"]))
    for name, v in verdicts.items():
        print(render(name, v))
    if args.out:
        inputs = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "pairs": args.pairs,
            **machine,
        }
        _append(args.out, {"inputs": inputs, "lines": runs, "verdicts": verdicts})
    return 0 if all(v["verdict"] != "invalid" for v in verdicts.values()) else 1


def _append(out: Path, entry: dict) -> None:
    """Append one entry to the "runs" list of the JSON record at `out`."""
    record = {"runs": []}
    if out.exists():
        record = json.loads(out.read_text(encoding="utf-8"))
    record["runs"].append(entry)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
