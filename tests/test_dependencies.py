"""The run-time dependency declaration matches what ``src/repro`` imports.

``requirements.txt`` is the one place the library's third-party
dependencies are declared; both CI jobs install from it and README's
Install section names the same three packages.  This test walks every
module under ``src/repro`` and fails when an unconditional import of a
third-party top-level module is missing from the declaration — the state
the repository was in while README claimed "no third-party dependencies"
and CI installed neither ``networkx`` nor ``scipy``.

Imports guarded by ``try: ... except ImportError`` are optional by
construction (``yaml`` for YAML specs, ``numpy`` inside the batch kernel's
registry entry) and are not required to be declared.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
SOURCE = ROOT / "src" / "repro"


def _declared() -> set:
    names = set()
    for line in (ROOT / "requirements.txt").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            names.add(re.split(r"[<>=!~\[; ]", line, maxsplit=1)[0].lower())
    return names


def _guarded(tree: ast.AST) -> set:
    """ids of the nodes inside a ``try`` body whose handlers name
    ``ImportError`` — the repository's idiom for an optional import."""
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
                isinstance(name, ast.Name) and name.id == "ImportError"
                for handler in node.handlers if handler.type is not None
                for name in ast.walk(handler.type)):
            for statement in node.body:
                guarded.update(id(child) for child in ast.walk(statement))
    return guarded


def _required_imports() -> dict:
    """third-party top-level module -> one file importing it unguarded."""
    found = {}
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        guarded = _guarded(tree)
        for node in ast.walk(tree):
            if id(node) in guarded:
                continue
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top not in sys.stdlib_module_names and top != "repro":
                    found.setdefault(top, str(path.relative_to(ROOT)))
    return found


def test_every_unguarded_third_party_import_is_declared():
    required = _required_imports()
    missing = {module: path for module, path in required.items()
               if module.lower() not in _declared()}
    assert not missing, (
        f"imported under src/repro but not in requirements.txt: {missing}")


def test_declaration_names_exactly_what_the_library_needs():
    # an entry nothing imports is a stale declaration
    assert _declared() == {module.lower() for module in _required_imports()}
    assert _declared() == {"networkx", "numpy", "scipy"}


def test_ci_and_readme_use_the_declaration():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    installs = [line for line in workflow.splitlines()
                if "pip install" in line]
    assert len(installs) == 2
    assert all("-r requirements.txt" in line for line in installs)
    readme = (ROOT / "README.md").read_text()
    assert "No third-party dependencies are required" not in readme
    for package in ("numpy", "scipy", "networkx", "pyyaml", "pytest-cov"):
        assert package in readme
