"""Command-line front end.

Subcommands: `integrate` runs the task a file declares (integrate_mi or
integrate_bochner), `compare` runs both schemes and reports the certified
difference, `table` emits the staircase convergence table as CSV, `gen`
prints seeded random objects as task-file fragments.  Exit codes: 0 on
success, 1 on validation errors, 2 on computation errors and on argparse's
usage errors (an unknown flag, a missing `--spec`), which print argparse's
usage text.

The three task commands share one body, `_cmd_task`: load the file, refuse
a task the command does not run, put the flags over the file's parameters
and run.  A flag (`--depth`, `--eta`, `--max-level`) goes through the check
of its parameter in `tasks.PARAMETERS`, so it obeys the same rule and gives
the same message, with the flag as the field: a flag that breaks its
parameter's rule, `--depth x` included, exits 1 like the file's value.  The
level flags are read with `int()` where that parses, the texts argparse's
`type=int` took, and handed on as text otherwise.  A `table --out` path that
cannot be written is a validation error too.

`main` builds its argument parsers on its first call, not at import, and
reuses them for the life of the process; `build_parser()` returns a fresh
full parser.  A call is read by the parser of the command it names alone.
The full parser, whose only work is to pick that command, reads a line
only when it names no command or leaves arguments over, that is for help
and usage errors, which it prints as ever.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .generators import FAMILIES, GeneratorConfig, generate_stream
from .tasks import (
    PARAMETERS,
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


def _integer_or_text(text: str):
    """The int that `int()` reads from the text, else the text itself, which
    the parameter's check refuses as `expected an integer`."""
    try:
        return int(text)
    except ValueError:
        return text


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


def _build() -> tuple[argparse.ArgumentParser, dict]:
    """The full parser and its subparsers action's `choices`, the parser of
    each command by name."""
    parser = argparse.ArgumentParser(
        prog="exactintegral",
        description="Exact integration over finite measure spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    integrate = sub.add_parser("integrate", help="run a task file's integrate task")
    integrate.add_argument("--spec", required=True, help="path to the task file")

    compare = sub.add_parser("compare", help="run both schemes and compare")
    compare.add_argument("--spec", required=True, help="path to the task file")
    compare.add_argument(
        "--depth", type=_integer_or_text, help="telescoping depth (overrides the file)"
    )
    compare.add_argument("--eta", help="certificate slack as p/q (overrides the file)")

    table = sub.add_parser("table", help="staircase convergence table as CSV")
    table.add_argument("--spec", required=True, help="path to the task file")
    table.add_argument(
        "--max-level", type=_integer_or_text, help="last staircase level (overrides the file)"
    )
    table.add_argument("--out", help="CSV output path (default: stdout)")

    gen = sub.add_parser("gen", help="print seeded random objects")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--max-terms", type=int, default=16)
    gen.add_argument("--max-denominator", type=int, default=4096)
    gen.add_argument("--max-dim", type=int, default=4)
    return parser, sub.choices


# Parsing keeps no state in the parsers, so one tree serves every call.
_parser = functools.cache(_build)


def _cmd_task(args) -> int:
    # command -> (the tasks it runs, its flags by parameter key, runner,
    # renderer), built on each call so that it holds the functions this
    # module holds now: the traced benchmark run replaces them here.
    allowed, flags, run, render = {
        "integrate": (("integrate_mi", "integrate_bochner"), (), run_integrate, render_report),
        "compare": (("compare",), ("depth", "eta"), run_compare, render_report),
        "table": (("approx_table",), ("max_level",), run_table, render_table_csv),
    }[args.command]
    task = load_task(args.spec)
    if task.task is not None and task.task not in allowed:
        raise TaskSpecError(
            "task",
            f"file declares task {task.task!r} but the {args.command} command runs "
            f"{' or '.join(allowed)}",
        )
    for key in flags:
        value = getattr(args, key)
        if value is not None:
            task.parameters[key] = PARAMETERS[key](value, "--" + key.replace("_", "-"))
    text = render(run(task))
    out = getattr(args, "out", None)
    if not out:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise TaskSpecError("--out", f"cannot write {out}: {exc.strerror or exc}") from None
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


_COMMANDS = {"integrate": _cmd_task, "compare": _cmd_task, "table": _cmd_task, "gen": _cmd_gen}


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command line (`sys.argv[1:]` when `argv` is None).

    The parser of the command named by `argv[0]` reads the rest of the line
    into a namespace that already holds the command, as the full parser's
    subparsers action does.  The full parser reads the whole line only when
    `argv[0]` names no command or arguments are left over, and so prints
    the same help and usage errors as ever.  With arguments left over it
    cannot succeed: it has no option beyond `-h`, so what the command's
    parser left over is unrecognized to it too.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if command is None or extra:
        args = parser.parse_args(argv)
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
