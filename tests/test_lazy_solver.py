"""scipy is loaded at the first MILP solve, and the library runs without it.

Importing scipy costs about a third of a second, so ``repro.routing.bsor.
milp`` imports it (and its own numpy) only when a MILP is solved.  These
tests count modules, not seconds, in fresh interpreters:

* booting the CLI, the study server or a queue worker loads no scipy
  module, and planning ``bsor-milp`` does;
* with numpy and scipy both unimportable, ``import repro`` works, a wide
  sweep that would batch runs on ``fast`` to the same document, the batch
  kernel fails with its no-numpy help, and ``bsor-milp`` fails with a
  library error that names scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.simulator.backends import batch_min_width
from repro.simulator.batchsim import np as _numpy
from repro.study.spec import Study
from repro.topology import Mesh2D

SRC = Path(__file__).resolve().parent.parent / "src"

#: Blocks a module the way an environment without it would: a ``None``
#: entry in ``sys.modules`` makes every import of it raise ImportError.
BLOCK_SOLVER = """
import sys
for name in ("numpy", "scipy"):
    sys.modules[name] = None
"""

SCIPY_LOADED = """
import sys
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[0] == "scipy")))
"""


def _run(script: str, *args: str) -> str:
    """stdout of *script* run in a fresh interpreter on this ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True,
        text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestBootLoadsNoSolver:
    def test_cli_server_and_worker_boot_without_scipy(self):
        loaded = json.loads(_run(
            "import json\n"
            "import repro.cli, repro.serve.service, repro.runner.worker\n"
            + SCIPY_LOADED))
        assert loaded == []

    def test_a_milp_solve_loads_scipy(self):
        loaded = json.loads(_run(
            "import json\n"
            "import repro\n"
            "from repro.topology import Mesh2D\n"
            "from repro.traffic import FlowSet\n"
            "mesh = Mesh2D(3)\n"
            "flows = FlowSet.from_tuples(\n"
            "    [(0, 8, 1.0), (2, 6, 1.0), (8, 0, 1.0)])\n"
            "routes = repro.create_router('bsor-milp').compute_routes(\n"
            "    mesh, flows)\n"
            "assert routes.is_complete()\n"
            + SCIPY_LOADED))
        assert "scipy.optimize" in loaded


#: 16 rates of dor on transpose: one group wide enough to batch on 4x4.
WIDE_STUDY = {
    "name": "wide", "profile": "quick", "workers": 1,
    "scenarios": [{"topologies": ["mesh4x4"], "patterns": ["transpose"],
                   "routers": ["dor"],
                   "rates": [0.25 * (lane + 1) for lane in range(16)]}]}

WITHOUT_SOLVER = BLOCK_SOLVER + """
import json
import repro
from repro.exceptions import ReproError, SimulationError
from repro.simulator.batchsim import NUMPY_HELP
from repro.study.spec import Study

spec = json.loads(sys.argv[1])
result = Study.from_dict(spec).run(cache=False)
assert result.report.batch_groups == 0, result.report.describe()
outcome = {"document": result.to_json()}
try:
    Study.from_dict(spec).run(cache=False, backend="batch")
except SimulationError as error:
    outcome["batch"] = str(error) == NUMPY_HELP
milp = dict(spec, scenarios=[dict(spec["scenarios"][0],
                                  routers=["bsor-milp"], rates=[0.5])])
try:
    Study.from_dict(milp).run(cache=False)
except ReproError as error:
    outcome["milp"] = str(error)
print(json.dumps(outcome))
"""


@pytest.mark.skipif(_numpy is None, reason="compares against numpy")
def test_without_numpy_and_scipy_the_library_falls_back():
    assert len(WIDE_STUDY["scenarios"][0]["rates"]) >= batch_min_width(
        Mesh2D(4))
    normal = Study.from_dict(WIDE_STUDY).run(cache=False)
    assert normal.report.batch_groups == 1
    outcome = json.loads(_run(WITHOUT_SOLVER, json.dumps(WIDE_STUDY)))
    assert outcome["document"] == normal.to_json()
    assert outcome["batch"] is True
    assert "scipy" in outcome["milp"]
    assert "Traceback" not in outcome["milp"]
