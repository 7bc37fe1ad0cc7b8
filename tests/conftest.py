"""Session set-up shared by the test modules."""

import os
from pathlib import Path

import pytest

import exactintegral


@pytest.fixture(autouse=True, scope="session")
def package_on_child_path():
    """Let `python -m exactintegral` child processes import the package under test.

    The CLI tests start the command in a subprocess, which does not inherit
    the test process's `sys.path`; putting the package's source root first on
    PYTHONPATH makes a plain `python -m pytest` run work without installing.
    """
    root = str(Path(exactintegral.__file__).resolve().parent.parent)
    previous = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (root, previous)))
    yield
    if previous is None:
        del os.environ["PYTHONPATH"]
    else:
        os.environ["PYTHONPATH"] = previous
