#!/usr/bin/env python3
"""Front-door reachability: the functions of src/repro no front door enters.

Runs every front door at the quick profile (the make smoke targets and
``make docs``, the pipeline benchmark at smoke scale with one traced cycle,
the examples, the bundled studies, the tables, the figures, ``sweep``,
``profile``, ``compare``, ``cache stats`` and ``submit`` against a ``serve``
subprocess) with a ``sitecustomize`` hook on ``PYTHONPATH`` that records
every code object of src/repro a process enters.  Child processes load the
hook too, and each process writes what it saw at exit, at ``os._exit`` (pool
workers) and on SIGTERM.  Prints the unreached function lines per module
and the total; a function nested in an unreached one is not counted twice.

    python scripts/reach.py        # or: make reach (several minutes)

Blind spots: paths only the ``default`` / ``paper`` profiles take (such as
``ExperimentConfig.benchmark_scale``) read as unreached, and so does the
point ``profile`` runs under cProfile, which replaces the hook meanwhile.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

HOOK = '''
import os, signal, sys, threading
_src, _out, _seen = os.environ["REACH_SRC"], os.environ["REACH_OUT"], {}
def _hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(_src):
        _seen[(frame.f_code.co_filename, frame.f_code.co_firstlineno)] = 1
def _flush():
    with open(os.path.join(_out, f"{os.getpid()}.txt"), "a") as f:
        f.writelines(f"{p}\\t{n}\\n" for p, n in _seen)
def _exit(code, _real=os._exit):
    _flush(); _real(code)
def _term(signum, frame):
    _flush(); signal.signal(signum, signal.SIG_DFL); os.kill(os.getpid(), signum)
import atexit; atexit.register(_flush); os._exit = _exit
signal.signal(signal.SIGTERM, _term)
sys.setprofile(_hook); threading.setprofile(_hook)
'''

QUICK = ["--profile", "quick", "--workers", "1"]
FRONT_DOORS = (
    [["make", "-s", "smoke", "smoke-cli", "report-smoke", "serve-smoke",
      "docs"],
     ["benchmarks/pipeline/bench.py", "--scale", "smoke", "--trace", "1"]]
    + [[str(path)] for path in sorted((ROOT / "examples").glob("*.py"))]
    + [["-m", "repro", "run", str(path)] + QUICK
       for path in sorted((ROOT / "examples" / "studies").glob("*.yaml"))]
    + [["-m", "repro", "table", table] + QUICK for table in ("6-1", "6-2", "6-3")]
    + [["-m", "repro", "figure", f"6-{n}"] + QUICK for n in range(1, 11)]
    + [["-m", "repro", "sweep", "--rates", "0.5,2.0"] + QUICK,
       ["-m", "repro", "profile", "--rate", "1.0"] + QUICK,
       ["-m", "repro", "compare", "--topology", "mesh4x4"] + QUICK,
       ["-m", "repro", "cache", "stats"],
       ["-m", "repro", "submit",
        str(ROOT / "examples" / "studies" / "smoke.yaml")]])


def submit_to_server(command, env) -> None:
    """Run a ``repro submit`` *command* against a ``repro serve``
    subprocess, then shut the server down."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--progress", "quiet"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        url = server.stdout.readline().strip().removeprefix("serving on ")
        subprocess.run(command + ["--url", url], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        urllib.request.urlopen(urllib.request.Request(
            url + "/shutdown", method="POST"), timeout=30).read()
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.terminate()
            server.wait()


def function_lines(path: Path):
    """``(first line, length, enclosing function's first line)`` per def."""
    found = []

    def walk(node, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, child.end_lineno - first + 1, parent))
                walk(child, first)
            else:
                walk(child, parent)

    walk(ast.parse(path.read_text()), None)
    return found


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "seen"
        out.mkdir()
        (Path(tmp) / "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ, REACH_SRC=str(SRC), REACH_OUT=str(out),
                   REPRO_CACHE_DIR=str(Path(tmp) / "cache"),
                   PYTHONPATH=os.pathsep.join([tmp, str(ROOT / "src")]))
        for door in FRONT_DOORS:
            command = door if door[0] == "make" else [sys.executable] + door
            if door[0].endswith("bench.py"):
                command += ["--work-dir", str(Path(tmp) / "bench")]
            print("$", " ".join(door), file=sys.stderr, flush=True)
            if "submit" in door:
                submit_to_server(command, env)
            else:
                subprocess.run(command, cwd=ROOT, env=env, check=True,
                               stdout=subprocess.DEVNULL)
        entered = set()
        for record in out.iterdir():
            for line in record.read_text().splitlines():
                path, first = line.split("\t")
                entered.add((path, int(first)))
    total = unreached = 0
    for path in sorted(SRC.rglob("*.py")):
        defs = function_lines(path)
        hit = {first for first, _, _ in defs if (str(path), first) in entered}
        missed = sum(length for first, length, parent in defs
                     if first not in hit and (parent is None or parent in hit))
        total += sum(length for _, length, parent in defs if parent is None)
        unreached += missed
        if missed:
            print(f"{missed:6d}  {path.relative_to(ROOT)}")
    print(f"{unreached:6d}  unreached of {total} function lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
