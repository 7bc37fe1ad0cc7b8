"""`tools/code_lines.py` counts the lines that hold code."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""

# a comment
import math  # a trailing comment


def f(x):
    """Function docstring."""
    text = """a string
    that is not a docstring"""
    return (x,
            text)
'''


def test_docstrings_comments_and_blank_lines_do_not_count():
    # import, def, the two lines of `text` and the two of the return
    assert code_lines.code_lines(SOURCE) == 6
