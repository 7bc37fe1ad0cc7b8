"""Command-line front end.

Subcommands: `integrate` runs the task a file declares (integrate_mi or
integrate_bochner), `compare` runs both schemes and reports the certified
difference, `table` emits the staircase convergence table as CSV, `gen`
prints seeded random objects as task-file fragments.  Exit codes: 0 on
success, 1 on validation errors, 2 on computation errors.

`main` builds its argument parser on its first call, not at import, and
reuses it for the life of the process; `build_parser()` returns a fresh one.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .generators import FAMILIES, GeneratorConfig, generate_stream
from .rationals import parse_rational
from .tasks import (
    MAX_LEVEL,
    TaskSpecError,
    case_fragment,
    load_task,
    render_report,
    render_table_csv,
    run_compare,
    run_integrate,
    run_table,
)

_COMPUTE_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactintegral",
        description="Exact integration over finite measure spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    integrate = sub.add_parser("integrate", help="run a task file's integrate task")
    integrate.add_argument("--spec", required=True, help="path to the task file")

    compare = sub.add_parser("compare", help="run both schemes and compare")
    compare.add_argument("--spec", required=True, help="path to the task file")
    compare.add_argument("--depth", type=int, help="telescoping depth (overrides the file)")
    compare.add_argument("--eta", help="certificate slack as p/q (overrides the file)")

    table = sub.add_parser("table", help="staircase convergence table as CSV")
    table.add_argument("--spec", required=True, help="path to the task file")
    table.add_argument("--max-level", type=int, help="last staircase level (overrides the file)")
    table.add_argument("--out", help="CSV output path (default: stdout)")

    gen = sub.add_parser("gen", help="print seeded random objects")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--max-terms", type=int, default=16)
    gen.add_argument("--max-denominator", type=int, default=4096)
    gen.add_argument("--max-dim", type=int, default=4)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state in the parser, so one parser serves every call.
    return build_parser()


def _check_task_matches(declared: Optional[str], allowed: tuple[str, ...], command: str) -> None:
    if declared is not None and declared not in allowed:
        raise TaskSpecError(
            "task",
            f"file declares task {declared!r} but the {command} command runs "
            f"{' or '.join(allowed)}",
        )


def _override_level(task, key: str, value: Optional[int], flag: str) -> None:
    """Put a level given by `flag` over the file's `key` parameter."""
    if value is None:
        return
    if not 1 <= value <= MAX_LEVEL:
        raise TaskSpecError(flag, f"must be between 1 and {MAX_LEVEL}")
    task.parameters[key] = value


def _cmd_integrate(args) -> int:
    task = load_task(args.spec)
    _check_task_matches(task.task, ("integrate_mi", "integrate_bochner"), "integrate")
    report = run_integrate(task)
    sys.stdout.write(render_report(report))
    return 0


def _cmd_compare(args) -> int:
    task = load_task(args.spec)
    _check_task_matches(task.task, ("compare",), "compare")
    _override_level(task, "depth", args.depth, "--depth")
    if args.eta is not None:
        try:
            eta = parse_rational(args.eta)
        except ValueError as exc:
            raise TaskSpecError("--eta", str(exc)) from None
        if eta < 0:
            raise TaskSpecError("--eta", "must be >= 0")
        task.parameters["eta"] = eta
    report = run_compare(task)
    sys.stdout.write(render_report(report))
    return 0


def _cmd_table(args) -> int:
    task = load_task(args.spec)
    _check_task_matches(task.task, ("approx_table",), "table")
    _override_level(task, "max_level", args.max_level, "--max-level")
    text = render_table_csv(run_table(task))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen(args) -> int:
    try:
        config = GeneratorConfig(
            seed=args.seed,
            family=args.family,
            max_terms=args.max_terms,
            max_denominator=args.max_denominator,
            max_dim=args.max_dim,
        )
        if args.count < 1:
            raise ValueError("count must be >= 1")
    except ValueError as exc:
        raise TaskSpecError("gen", str(exc)) from None
    for case in generate_stream(config, args.count):
        sys.stdout.write(json.dumps(case_fragment(case), sort_keys=True) + "\n")
    return 0


_COMMANDS = {
    "integrate": _cmd_integrate,
    "compare": _cmd_compare,
    "table": _cmd_table,
    "gen": _cmd_gen,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except TaskSpecError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except _COMPUTE_ERRORS as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
