"""Span recorder for the traced run.

`Tracer.install()` replaces the public entry points of each layer with
wrappers that record a span: layer name, start, end, parent span and case
id.  Methods are replaced on their class; module functions are replaced in
every `exactintegral` module that holds them by name (so
`bochner.integrate_nonneg` and `tasks.equivalence_report` are traced as
well as the definitions).  Spans stay in memory until `write` puts them on
disk; `summary` turns them into calls and self time per layer, self time
being a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
import weakref
from array import array
from contextlib import contextmanager

# layer -> (module, class or None for module functions, entry points)
LAYERS = {
    "spaces.set_ops": (
        ("spaces", "IntervalSet", ("__init__", "union", "intersection", "difference", "complement")),
        ("spaces", "DiscreteSet", ("__init__", "union", "intersection", "difference", "complement")),
    ),
    "spaces.measure_of": (
        ("spaces", "DiscreteSpace", ("measure_of",)),
        ("spaces", "IntervalMeasure", ("measure_of",)),
    ),
    "simple.construct": (("simple", "SimpleFunction", ("__init__",)),),
    "simple.canonical": (("simple", "SimpleFunction", ("canonical",)),),
    "simple.combine": (
        ("simple", "SimpleFunction", ("__add__", "__sub__", "pointwise_max", "pointwise_min")),
    ),
    "simple.integrate": (("simple", None, ("integrate_simple",)),),
    "piecewise.ops": (
        (
            "piecewise",
            "PiecewiseLinear",
            ("refined", "pos_part", "neg_part", "absolute", "split_at_roots"),
        ),
    ),
    "lebesgue.staircase": (("lebesgue", "DyadicApproximation", ("integral",)),),
    "lebesgue.materialize": (("lebesgue", "DyadicApproximation", ("level", "increment")),),
    "lebesgue.limit": (("lebesgue", None, ("integrate_nonneg", "lebesgue_integral")),),
    "bochner.telescope": (("bochner", None, ("series_from_integrand",)),),
    "bochner.term": (("bochner", "TelescopeSeries", ("term",)),),
    "bochner.series_sum": (("bochner", None, ("bochner_integrate", "integral_from_series")),),
    "bochner.report": (("bochner", None, ("equivalence_report",)),),
    "tasks.parse": (("tasks", None, ("load_task", "parse_task_document")),),
    "tasks.run": (("tasks", None, ("run_compare", "run_integrate", "run_table")),),
    "tasks.render": (("tasks", None, ("render_report", "render_table_csv")),),
    "cli.main": (("cli", None, ("main",)),),
}

PACKAGE = "exactintegral"
CASE_SPAN = "case"
STAIRCASE = "lebesgue.staircase"


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.names = [CASE_SPAN, *LAYERS]
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.name_ids = array("b")
        self.case_ids = array("l")
        self._stack = [-1]
        self._case_id = -1
        self._patched: list = []
        self._seen_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.staircase_calls = 0
        self.staircase_distinct = 0

    # --- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.starts)
        self.parents.append(self._stack[-1])
        self.name_ids.append(name_id)
        self.case_ids.append(self._case_id)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def case(self, case_id: int):
        """The root span of one case; layer spans inside it carry its id."""
        self._case_id = case_id
        index = self._open(0)
        try:
            yield
        finally:
            self._close(index)
            self._case_id = -1

    def _note_staircase(self, approximation, level, measure) -> None:
        self.staircase_calls += 1
        keys = self._seen_keys.get(approximation)
        if keys is None:
            keys = self._seen_keys[approximation] = set()
        key = (level, measure)
        if key not in keys:
            keys.add(key)
            self.staircase_distinct += 1

    def _wrap(self, function, layer: str):
        name_id = self._name_ids[layer]
        opened, closed = self._open, self._close

        if layer == STAIRCASE:
            note = self._note_staircase

            def traced(approximation, level, measure):
                note(approximation, level, measure)
                index = opened(name_id)
                try:
                    return function(approximation, level, measure)
                finally:
                    closed(index)

        else:

            def traced(*args, **kwargs):
                index = opened(name_id)
                try:
                    return function(*args, **kwargs)
                finally:
                    closed(index)

        traced.__name__ = function.__name__
        traced.__qualname__ = function.__qualname__
        traced.__doc__ = function.__doc__
        traced.__wrapped__ = function
        return traced

    # --- patching ----------------------------------------------------------

    def _modules(self) -> list:
        return [
            module
            for name, module in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]

    def _replace(self, owner, original, wrapper) -> None:
        for attr, value in list(vars(owner).items()):
            if value is original:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for layer, entries in LAYERS.items():
            for module_name, class_name, attrs in entries:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                for attr in attrs:
                    if class_name is None:
                        original = getattr(module, attr)
                        wrapper = self._wrap(original, layer)
                        for owner in modules:
                            self._replace(owner, original, wrapper)
                    else:
                        owner = getattr(module, class_name)
                        original = vars(owner)[attr]
                        # Aliases such as `__or__ = union` are replaced too.
                        self._replace(owner, original, self._wrap(original, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- results -----------------------------------------------------------

    def summary(self) -> dict:
        """{layer: (calls, self time in ns)} over every recorded span."""
        count = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        covered = [0] * count
        for j in range(count):
            parent = parents[j]
            if parent >= 0:
                covered[parent] += ends[j] - starts[j]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        name_ids = self.name_ids
        for i in range(count):
            name_id = name_ids[i]
            calls[name_id] += 1
            self_ns[name_id] += ends[i] - starts[i] - covered[i]
        return {name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """All spans as CSV: span, parent, case, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,parent,case,name,start_ns,end_ns\n")
            names = self.names
            for i in range(len(self.starts)):
                handle.write(
                    f"{i},{self.parents[i]},{self.case_ids[i]},{names[self.name_ids[i]]},"
                    f"{self.starts[i]},{self.ends[i]}\n"
                )
