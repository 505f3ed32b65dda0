from __future__ import annotations

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "sloc", Path(__file__).resolve().parent.parent / "tools" / "sloc.py"
)
sloc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sloc)


def test_code_lines_skip_docstrings_comments_and_blanks():
    source = '''"""Module docstring
over two lines."""

import os  # trailing comment counts as code


class A:
    """Class docstring."""

    # a comment line
    x = """a string that is
not a docstring"""

    def f(self,
          y):
        """Function docstring."""
        return (y +
                1)
'''
    # import, class, x (2 lines), def (2 lines), return (2 lines)
    assert sloc.code_lines(source) == 8
