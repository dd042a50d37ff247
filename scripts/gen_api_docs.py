#!/usr/bin/env python3
"""Generate the API reference (docs/api/*.md) and docs/routing-guide.md.

Walks every module under ``src/repro``, collects the module / class /
function docstrings and emits one markdown page per subpackage plus an
index.  The routing guide is rendered from the metadata registered in
:mod:`repro.routing.registry`, so adding an algorithm with
``@register_router`` updates the guide automatically.

Usage::

    python scripts/gen_api_docs.py            # (re)write the files
    python scripts/gen_api_docs.py --check    # fail (exit 1) when stale

``make docs`` runs the first form, ``make docs-check`` (and CI) the second,
so committed documentation can never drift from the code.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
API_DIR = REPO_ROOT / "docs" / "api"
ROUTING_GUIDE = REPO_ROOT / "docs" / "routing-guide.md"
WORKLOADS_GUIDE = REPO_ROOT / "docs" / "workloads-guide.md"

GENERATED_MARK = "<!-- Generated by scripts/gen_api_docs.py — do not edit by hand. -->"


def first_paragraph(doc: str) -> str:
    """The first paragraph of a docstring, whitespace-collapsed."""
    if not doc:
        return ""
    paragraph = inspect.cleandoc(doc).split("\n\n", 1)[0]
    return " ".join(paragraph.split())


def first_sentence(doc: str) -> str:
    paragraph = first_paragraph(doc)
    for terminator in (". ", ".\n"):
        if terminator in paragraph:
            return paragraph.split(terminator, 1)[0] + "."
    return paragraph


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _is_public_member(module, name: str, obj) -> bool:
    if name.startswith("_"):
        return False
    if inspect.ismethod(obj):
        # a registry module's entry points are bound methods of its
        # Registry instance (``create_router = _ROUTERS.create``); they
        # belong to the module holding the instance, not to importers
        from repro.registry import Registry

        return isinstance(obj.__self__, Registry) and any(
            value is obj.__self__ for value in vars(module).values())
    if not (inspect.isclass(obj) or inspect.isfunction(obj)):
        return False
    return inspect.getmodule(obj) is module


def _class_section(name: str, cls) -> List[str]:
    lines = [f"#### `{name}{_signature(cls.__init__) if cls.__init__ is not object.__init__ else '()'}`", ""]
    summary = first_paragraph(cls.__doc__ or "")
    if summary:
        lines.extend([summary, ""])
    methods = []
    for method_name, member in sorted(vars(cls).items()):
        if method_name.startswith("_"):
            continue
        if isinstance(member, property):
            doc = first_sentence(member.fget.__doc__ or "") if member.fget \
                else ""
            methods.append(f"- `{method_name}` (property)"
                           + (f" — {doc}" if doc else ""))
        elif inspect.isfunction(member):
            doc = first_sentence(member.__doc__ or "")
            methods.append(f"- `{method_name}{_signature(member)}`"
                           + (f" — {doc}" if doc else ""))
        elif isinstance(member, (classmethod, staticmethod)):
            doc = first_sentence(member.__func__.__doc__ or "")
            methods.append(f"- `{method_name}{_signature(member.__func__)}`"
                           + (f" — {doc}" if doc else ""))
    if methods:
        lines.extend(methods)
        lines.append("")
    # methods a base documented on another page contributes (a registry's
    # spec type gets its option filtering from ``repro.registry.Spec``)
    page = ".".join(cls.__module__.split(".")[:2])
    for base in cls.__mro__[1:]:
        base_page = ".".join(base.__module__.split(".")[:2])
        if not base_page.startswith("repro") or base_page == page:
            continue
        inherited = sorted(
            f"`{method_name}`" for method_name, member in vars(base).items()
            if not method_name.startswith("_") and inspect.isfunction(member)
            and method_name not in vars(cls))
        if inherited:
            lines.extend([
                f"Inherited from [`{base.__module__}.{base.__name__}`]"
                f"({base_page.replace('.', '-')}.md): "
                f"{', '.join(inherited)}.", ""])
    return lines


def _module_section(module_name: str) -> List[str]:
    module = importlib.import_module(module_name)
    lines = [f"### `{module_name}`", ""]
    summary = first_paragraph(module.__doc__ or "")
    if summary:
        lines.extend([summary, ""])
    classes = []
    functions = []
    for name, obj in sorted(vars(module).items()):
        if not _is_public_member(module, name, obj):
            continue
        if inspect.isclass(obj):
            classes.append((name, obj))
        else:
            functions.append((name, obj))
    for name, cls in classes:
        lines.extend(_class_section(name, cls))
    if functions:
        lines.append("#### Functions")
        lines.append("")
        for name, function in functions:
            doc = first_sentence(function.__doc__ or "")
            lines.append(f"- `{name}{_signature(function)}`"
                         + (f" — {doc}" if doc else ""))
        lines.append("")
    return lines


def collect_modules() -> Dict[str, List[str]]:
    """Map each subpackage page (``repro``, ``repro.topology``, ...) to its
    module names, sorted."""
    import repro

    pages: Dict[str, List[str]] = {"repro": ["repro"]}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        parts = info.name.split(".")
        page = ".".join(parts[:2])
        pages.setdefault(page, [])
        if info.name != page:
            pages[page].append(info.name)
        else:
            # the page's own module leads it — for packages that is the
            # package docstring, for plain top-level modules (exceptions,
            # registry) it is the whole page
            pages[page].insert(0, page)
    for page, modules in pages.items():
        ordered = sorted(set(modules))
        if page in ordered:  # the package's own docstring leads the page
            ordered.remove(page)
            ordered.insert(0, page)
        pages[page] = ordered
    return pages


def render_page(page: str, modules: List[str]) -> str:
    lines = [f"# API reference: `{page}`", "", GENERATED_MARK, ""]
    for module_name in modules:
        lines.extend(_module_section(module_name))
    return "\n".join(lines).rstrip() + "\n"


def render_index(pages: List[str]) -> str:
    lines = [
        "# API reference",
        "",
        GENERATED_MARK,
        "",
        "One page per subpackage, generated from the docstrings under "
        "`src/repro` (`make docs` regenerates; CI fails when stale).",
        "",
    ]
    for page in pages:
        target = page.replace(".", "-") + ".md"
        lines.append(f"- [`{page}`]({target})")
    return "\n".join(lines) + "\n"


def generate() -> Dict[Path, str]:
    """All generated files as a path -> content mapping."""
    sys.path.insert(0, str(SRC))
    from repro.routing.registry import render_routing_guide
    from repro.workloads.registry import render_workloads_guide

    pages = collect_modules()
    files: Dict[Path, str] = {}
    for page, modules in sorted(pages.items()):
        target = API_DIR / (page.replace(".", "-") + ".md")
        files[target] = render_page(page, modules)
    files[API_DIR / "index.md"] = render_index(sorted(pages))
    files[ROUTING_GUIDE] = render_routing_guide()
    files[WORKLOADS_GUIDE] = render_workloads_guide()
    return files


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="verify the committed docs match; do not write")
    args = parser.parse_args(argv)

    files = generate()
    orphans = [path for path in sorted(API_DIR.glob("*.md"))
               if path not in files]
    if args.check:
        stale = []
        for path, content in sorted(files.items()):
            if not path.exists():
                stale.append(f"missing: {path.relative_to(REPO_ROOT)}")
            elif path.read_text() != content:
                stale.append(f"stale: {path.relative_to(REPO_ROOT)}")
        # a page whose module was removed/renamed would otherwise linger
        # forever while every still-generated page stays fresh
        stale.extend(f"orphaned: {path.relative_to(REPO_ROOT)}"
                     for path in orphans)
        if stale:
            print("generated documentation is out of date "
                  "(run `make docs` and commit the result):")
            for line in stale:
                print(f"  {line}")
            return 1
        print(f"{len(files)} generated doc(s) up to date")
        return 0

    API_DIR.mkdir(parents=True, exist_ok=True)
    for path, content in sorted(files.items()):
        path.write_text(content)
        print(f"wrote {path.relative_to(REPO_ROOT)}")
    for path in orphans:
        path.unlink()
        print(f"removed orphaned {path.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
