"""Tests for the function-line census of ``scripts/reach.py``.

The script's report counts, per module, the lines of functions no front
door enters; a function nested in an unreached one is not counted twice.
That rests on ``function_lines`` giving each def its first line (its first
decorator, where it has one), its length, and the first line of the
function enclosing it.
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location(
    "reach", REPO_ROOT / "scripts" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("reach", reach)
_spec.loader.exec_module(reach)


def _lines(tmp_path, source):
    path = tmp_path / "module.py"
    path.write_text(textwrap.dedent(source))
    return reach.function_lines(path)


def test_a_nested_function_names_its_enclosing_def(tmp_path):
    assert _lines(tmp_path, """\
        def outer():
            def inner():
                return 1
            return inner
        """) == [(1, 4, None), (2, 2, 1)]


def test_a_decorated_def_starts_at_its_decorator(tmp_path):
    assert _lines(tmp_path, """\
        import functools

        @functools.lru_cache()
        def cached():
            return 1
        """) == [(3, 3, None)]


def test_methods_count_as_top_level(tmp_path):
    assert _lines(tmp_path, """\
        class Box:
            def get(self):
                return 1

            async def fetch(self):
                return 2
        """) == [(2, 2, None), (5, 2, None)]
