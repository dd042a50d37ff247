"""Self-test of the pipeline benchmark at smoke scale (collected by tier-1).

Smoke scale means 4x4 meshes and single passes: the numbers mean nothing and
are never recorded.  What is checked is the harness itself — the output
contract the driver relies on, that every metric ``BENCHMARK.json`` names is
reported with its unit on every workload, that no check fails on this
commit, that the spans of a traced run form a tree, and that ``--compare``
accepts a set against itself.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCH = HERE / "bench.py"
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in MANIFEST["workloads"]]


def bench(*arguments: str, **kwargs) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(BENCH), *arguments], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kwargs)


def finish(process: subprocess.Popen) -> str:
    stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 0, stdout + stderr
    return stdout


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One untraced smoke set of all five workloads and one traced run.

    The two commands run side by side: at smoke scale only the outputs
    matter, and the suite gets its seconds back.
    """
    work = tmp_path_factory.mktemp("pipeline-bench")
    set_file = work / "set.json"
    everything = bench("--scale", "smoke", "--seed", "3",
                       "--work-dir", str(work / "all"),
                       "--out", str(set_file))
    traced = bench("--scale", "smoke", "--seed", "3", "--trace", "1",
                   "--workload", "sweep-sim-8x8",
                   "--work-dir", str(work / "traced"))
    traced_stdout = finish(traced)
    table = finish(everything)
    return {"work": work, "set_file": set_file, "table": table,
            "set": json.loads(set_file.read_text()),
            "traced_line": json.loads(traced_stdout.splitlines()[-1])}


def check_metrics(metrics, group):
    expected = {entry["name"]: entry["unit"] for entry in MANIFEST[group]}
    assert set(metrics) == set(expected)
    for name, metric in metrics.items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))


def test_every_workload_reports_every_end_to_end_metric(smoke):
    runs = {run["workload"]: run for run in smoke["set"]["runs"]}
    assert list(runs) == WORKLOADS
    for workload, run in runs.items():
        check_metrics(run["end_to_end"], "end_to_end")
        for name, metric in run["end_to_end"].items():
            assert metric["value"] > 0, (workload, name)
            assert name in smoke["table"]
        assert run["failed"] == 0, run["failures"]
        assert run["attempted"] >= 1
        assert run["reference"] == "skipped"  # smoke is never a pass
        assert run["host"]["nproc"] >= 1
    assert "failed_ratio" in smoke["table"]
    # queue-2w runs sweep-sim-8x8's exact spec: one document
    assert runs["queue-2w"]["document_sha256"] == \
        runs["sweep-sim-8x8"]["document_sha256"]


def test_traced_run_follows_the_output_contract(smoke):
    line = smoke["traced_line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    check_metrics(line["metrics"], "per_layer")
    assert line["metrics"]["sim.bit_identical"]["value"] == 1
    assert line["metrics"]["trace.coverage"]["value"] >= 0.9


def test_spans_nest_with_valid_parents(smoke):
    trace = json.loads((smoke["work"] / "traced" / "traces" /
                        "sweep-sim-8x8-seed3.json").read_text())
    events = {event["args"]["id"]: event for event in trace["traceEvents"]}
    assert len(events) == len(trace["traceEvents"]) > 100
    layers = set()
    for index, event in events.items():
        assert event["args"]["workload"] == "sweep-sim-8x8"
        layers.add(event["cat"])
        parent = event["args"]["parent"]
        if parent is None:
            continue
        assert parent in events and parent < index
        outer = events[parent]
        assert outer["ts"] <= event["ts"]
        assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"] + 1e-3
    assert {"study", "routing", "fingerprint", "cache", "engine",
            "simulator", "workqueue", "serve", "report"} <= layers


def test_compare_of_a_set_with_itself_is_all_ok(smoke):
    same = str(smoke["set_file"])
    process = bench("--compare", same, same)
    stdout = finish(process)
    rows = [line for line in stdout.splitlines()
            if line.split() and line.split()[0] in WORKLOADS]
    assert len(rows) == len(WORKLOADS) * len(MANIFEST["end_to_end"])
    assert all(row.endswith(" ok") for row in rows)


def test_an_unknown_workload_is_refused(tmp_path):
    process = bench("--workload", "no-such-workload", "--scale", "smoke",
                    "--work-dir", str(tmp_path))
    process.communicate(timeout=60)
    assert process.returncode != 0


@pytest.mark.parametrize("before, after, expected", [
    ([10.0, 10.1, 10.2], [10.5, 10.6, 10.7], "ok"),          # +5% < 10%
    ([10.0, 10.1, 10.2], [11.5, 11.6, 11.7], "regressed"),   # +15%
    ([10.0, 12.0, 14.0], [11.0, 13.0, 15.0], "unresolved"),  # scatter 33%
    ([10.0, 12.0, 14.0], [7.0, 8.0, 9.0], "ok"),   # every run is better
])
def test_compare_verdicts(before, after, expected):
    import records

    entry = {"name": "cold_wall_s", "better": "lower", "bound": 0.10}
    assert records.verdict(entry, before, after)["status"] == expected
    flipped = {"name": "sim_cycles_per_s", "better": "higher", "bound": 0.10}
    assert records.verdict(flipped, [-value for value in before],
                           [-value for value in after]
                           )["status"] == expected
