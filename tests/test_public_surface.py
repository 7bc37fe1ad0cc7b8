"""The public surface of the package agrees with the modules' `__all__`.

A name removed from a module must leave its `__all__` and the package's
re-exports together: every `__all__` entry resolves in its module, and
every public name the package exports is in some module's `__all__`.
Every entry point the traced benchmark run wraps (`bench/spans.py`
`LAYERS`) must resolve the way `Tracer.install` reads it.
"""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import exactintegral

MODULES = [
    importlib.import_module(f"exactintegral.{info.name}")
    for info in pkgutil.iter_modules(exactintegral.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]


def test_every_all_name_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_every_package_export_is_in_some_modules_all():
    declared = {name for module in MODULES for name in getattr(module, "__all__", ())}
    exported = {
        name
        for name, value in vars(exactintegral).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported and sorted(exported - declared) == []


def _spans_module():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    """A method is read from its class's own namespace, `vars(cls)[attr]`,
    so an inherited or removed one is missing; a function by `getattr` on
    its module."""
    spans = _spans_module()
    missing = []
    for layer, entries in spans.LAYERS.items():
        for module_name, class_name, attrs in entries:
            module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
            for attr in attrs:
                if class_name is None:
                    found = hasattr(module, attr)
                else:
                    found = attr in vars(getattr(module, class_name))
                if not found:
                    missing.append(f"{layer}: {module_name}.{class_name or ''}.{attr}")
    assert missing == []
