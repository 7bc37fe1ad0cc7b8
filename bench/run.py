"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload grid_exact --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy.  One process, one thread, one
caller in a closed loop: each case starts when the previous one has
returned.  The run sets up the case list (generation plus task files),
warms up on a few cases, then makes full passes over the list until
`--seconds` are used, checking every output against the oracle after
each pass, outside the timed section.  Times are scaled to a reference
host speed measured by `probe()` (see bench/README.md).

`--trace 0` prints the end-to-end metrics.  `--trace 1` spends half the
time on untraced passes, then makes one traced pass and prints the
per-layer metrics of that pass, writing its spans to
`.bench_work/spans-<workload>.csv`.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("grid_exact", "pwl_deep", "wide_simple")

SETUP_REPEATS = 7
MIN_PASSES = 2
WARMUP_CASES = 10
TAIL_BEYOND = 10
MAX_REPORTED_FAILURES = 5

_RATIONAL = re.compile(r"^-?\d+(?:/\d+)?$")

# Time of `probe()` at full speed on the 2-core host the benchmark was
# tuned on.  Case and set-up times are reported at that reference speed.
REFERENCE_PROBE_S = 400e-6
_PROBE_OPERANDS = tuple(Fraction(i, 2 * i + 1) for i in range(1, 60))


def probe() -> float:
    """Seconds taken by a fixed loop of rational arithmetic: the host-speed gauge.

    On a small shared host the same code runs at speeds up to 2x apart,
    changing within a second.  Dividing a case's time by the probe timed
    right around it cancels that; the garbage collector is held off so
    that collecting a case's garbage never lands in the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = Fraction(0)
        for value in _PROBE_OPERANDS:
            total += value * value - value / 3
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


@dataclass
class Pass:
    """One full pass over the case list: wall and reference-speed case times.

    `outputs` is kept only where asked for (the traced pass); every pass
    keeps the digest of its outputs, so the memory a run holds does not
    grow with the number of passes.
    """

    case_s: list
    reference_s: list
    failures: dict
    digest: str
    outputs: Optional[list] = None


class CaseClock:
    """Times a case in segments, each between two probes of the host's speed.

    The runner of a long case calls `lap` between its steps, so that each
    segment is scaled by the speed measured right around it.
    """

    def __init__(self):
        self.before = probe()

    def start(self) -> None:
        self.wall_s = self.reference_s = 0.0
        self.started = time.perf_counter()

    def lap(self) -> None:
        elapsed = time.perf_counter() - self.started
        after = probe()
        self.wall_s += elapsed
        self.reference_s += elapsed * 2 * REFERENCE_PROBE_S / (self.before + after)
        self.before = after
        self.started = time.perf_counter()


def _output_text(output) -> str:
    """What the output digest covers: a CLI report's stdout, else the repr."""
    return output[1] if isinstance(output, tuple) else repr(output)


def run_pass(cases, expected, run_case, verify, tracer=None, keep_outputs=False) -> Pass:
    """Time every case, then check every output; a failing case never stops the pass."""
    case_s = [0.0] * len(cases)
    reference_s = [0.0] * len(cases)
    outputs = [None] * len(cases)
    failures = {}
    clock = CaseClock()
    for i, case in enumerate(cases):
        clock.start()
        try:
            if tracer is None:
                outputs[i] = run_case(case, clock.lap)
            else:
                with tracer.case(case.index):
                    outputs[i] = run_case(case, clock.lap)
        except Exception:  # counted as a failed case; the run goes on
            failures[i] = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        clock.lap()
        case_s[i], reference_s[i] = clock.wall_s, clock.reference_s
    hasher = hashlib.sha256()
    for i in range(len(cases)):
        if i not in failures:
            reason = verify(outputs[i], expected[i])
            if reason is not None:
                failures[i] = reason
        hasher.update(_output_text(outputs[i]).encode("utf-8"))
    return Pass(
        case_s, reference_s, failures, hasher.hexdigest()[:16], outputs if keep_outputs else None
    )


def run_passes(cases, expected, run_case, verify, seconds: float, min_passes=MIN_PASSES) -> list:
    """Full passes until the next one would overrun `seconds`; at least `min_passes`,
    so that every case time is a median of two or more."""
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(cases, expected, run_case, verify))
        elapsed = time.perf_counter() - started
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(passes: list, setup_s: float) -> tuple:
    """The end-to-end metrics and the human-readable lines that explain them.

    A case's time is the median over the passes of its time at reference
    speed; the wall-clock figures are printed beside them.
    """
    per_case = [statistics.median(c) for c in zip(*(p.reference_s for p in passes))]
    tail_s, percentile = tail(per_case)
    attempted = sum(len(p.case_s) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    verified = len(per_case) * (attempted - failed) / attempted
    wall = [statistics.median(c) for c in zip(*(p.case_s for p in passes))]
    speed = sum(wall) / sum(per_case)
    metrics = {
        "throughput_cases_per_s": (verified / sum(per_case), "1/s"),
        "case_p50_ms": (1000 * statistics.median(per_case), "ms"),
        "case_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"case time: median of {len(passes)} passes at reference speed, n={len(per_case)} cases",
        f"case_tail_ms is p{percentile:.2f} of n={len(per_case)}",
        f"cases_failed_ratio {failed / attempted:.6g} ({failed}/{attempted})",
        f"wall clock: {verified / sum(wall):.6g} cases/s, p50 {1000 * statistics.median(wall):.6g} ms,"
        f" {speed:.3g}x the reference-speed time",
    ]
    return metrics, notes


def _rationals(value):
    if isinstance(value, dict):
        for key, item in value.items():
            if not key.endswith("_decimal"):
                yield from _rationals(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _rationals(item)
    elif isinstance(value, str) and _RATIONAL.match(value):
        yield value


def exact_counts(workload: str, outputs: list) -> dict:
    """Counts of one pass that depend only on the seed, never on timing."""
    series_terms = report_bytes = num_bits = den_bits = 0
    for output in outputs:
        if workload == "wide_simple":
            values = [str(v) for v in output.values()]
        else:
            stdout = output[1]
            report_bytes += len(stdout.encode("utf-8"))
            report = json.loads(stdout)
            count = report["series_term_count"]
            series_terms += count if count is not None else report["series_depth"]
            values = list(_rationals(report))
        for text in values:
            num, _, den = text.lstrip("-").partition("/")
            num_bits = max(num_bits, int(num).bit_length())
            den_bits = max(den_bits, int(den or "1").bit_length())
    return {
        "bochner.series_terms": (series_terms, "count"),
        "operands.max_num_bits": (num_bits, "bits"),
        "operands.max_den_bits": (den_bits, "bits"),
        "tasks.report_bytes": (report_bytes, "bytes"),
    }


def per_layer(tracer, traced: Pass, untraced: list, workload: str) -> dict:
    metrics = {}
    for layer, (calls, self_ns) in tracer.summary().items():
        if layer == "case":
            continue
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_ms"] = (self_ns / 1e6, "ms")
    distinct = tracer.staircase_distinct / tracer.staircase_calls if tracer.staircase_calls else 0.0
    metrics["lebesgue.staircase.distinct_ratio"] = (distinct, "ratio")
    checked = [o for i, o in enumerate(traced.outputs) if i not in traced.failures]
    metrics.update(exact_counts(workload, checked))
    baseline = statistics.median(sum(p.reference_s) for p in untraced)
    metrics["trace.overhead_ratio"] = (sum(traced.reference_s) / baseline, "ratio")
    return metrics


def set_up(workload: str, seed: int, directory: str) -> tuple:
    """One round of set-up at reference speed: (seconds, workloads module, cases).

    The package and the case code are imported afresh, so that every round
    pays the import; then the cases are drawn and the task files written.
    Each of these steps is scaled by the host speed probed right around it.
    """
    for name in list(sys.modules):
        if name == "exactintegral" or name.startswith("exactintegral.") or name == "workloads":
            del sys.modules[name]
    gc.collect()
    clock = CaseClock()
    clock.start()
    workloads = importlib.import_module("workloads")
    clock.lap()
    cases = workloads.generate_cases(workload, seed)
    clock.lap()
    if workload in workloads.DEPTHS:
        cases = workloads.write_task_files(workload, cases, directory)
        clock.lap()
    return clock.reference_s, workloads, cases


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "exactintegral" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC / 'exactintegral'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = args.workload
    WORK.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{workload}-{args.seed}-", dir=WORK)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            cases = None  # the previous round's cases are not kept alive
            seconds, workloads, cases = set_up(workload, args.seed, directory)
            setup_times.append(seconds)
        setup_s = statistics.median(setup_times)
        origin = Path(sys.modules["exactintegral"].__file__).resolve()
        if SRC.resolve() not in origin.parents:
            print(f"bench: exactintegral was imported from {origin}", file=sys.stderr)
            return 2
        import reference
        import spans

        expected = [reference.expected_value(workload, case) for case in cases]
        run_case = workloads.RUNNERS[workload]

        def verify(output, want):
            return reference.check(workload, output, want)

        for case in cases[:WARMUP_CASES]:
            run_case(case, lambda: None)

        if args.trace:
            # The untraced passes only give the traced one a time to compare with.
            passes = run_passes(cases, expected, run_case, verify, args.seconds / 2, min_passes=1)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_pass(cases, expected, run_case, verify, tracer, keep_outputs=True)
            finally:
                tracer.uninstall()
            spans_path = WORK / f"spans-{workload}.csv"
            tracer.write(str(spans_path))
            metrics = per_layer(tracer, traced, passes, workload)
            passes.append(traced)
            notes = [f"spans written to {spans_path.relative_to(ROOT)}"]
        else:
            passes = run_passes(cases, expected, run_case, verify, args.seconds)
            metrics, notes = end_to_end(passes, setup_s)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    attempted = sum(len(p.case_s) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    shown = 0
    for p in passes:
        for i, reason in sorted(p.failures.items()):
            if shown < MAX_REPORTED_FAILURES:
                print(f"bench: case {cases[i].index} failed: {reason}", file=sys.stderr)
                shown += 1

    print(f"workload {workload} seed {args.seed}: {len(cases)} cases, {len(passes)} passes")
    print(f"output digest of the first pass {passes[0].digest}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
