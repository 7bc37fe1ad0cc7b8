"""The public surface of the package agrees with the modules' `__all__`.

A name removed from a module must leave its `__all__` and the package's
re-exports together: every `__all__` entry resolves in its module, and
every public name the package exports is in some module's `__all__`.
"""

import importlib
import inspect
import pkgutil

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
