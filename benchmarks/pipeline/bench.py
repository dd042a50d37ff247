#!/usr/bin/env python3
"""The repository's benchmark: five workloads, end to end and layer by layer.

One command runs everything with tracing off, verifies every output and
prints each metric by name with its unit::

    python3 benchmarks/pipeline/bench.py --seed 0

Each workload runs in its own fresh subprocess, one after the other
(``--workload NAME`` is that subprocess, and is also the command
``BENCHMARK.json`` gives the driver).  ``--trace 1`` adds, after the untraced
measurement, one traced cycle of the workload and the fixed-input layer
probes, writes the spans as Chrome-trace JSON and reports the per-layer
metrics instead of the end-to-end ones.  ``--sets 2`` runs everything twice
and compares the two; ``--compare A.json B.json`` compares two saved sets.

The last line of a ``--workload`` run is one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
check makes the exit code non-zero.  See README.md for the metric glossary.
"""

from __future__ import annotations

import time

#: Set-up is timed from here: the first statement this process executes.
PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import records  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: Extra set-up-only processes per untraced run, on top of the run's own
#: set-up; ``setup_s`` is the steadier of the samples.
EXTRA_SETUP_SAMPLES = 1


def parse_arguments(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload in this "
                                           "process (default: all, each in "
                                           "a fresh subprocess)")
    parser.add_argument("--seed", type=int, default=0,
                        help="written into every generated spec "
                             "(default: %(default)s)")
    parser.add_argument("--seeds", type=int, default=1,
                        help="runs per workload and set, on consecutive "
                             "seeds starting at --seed (default: "
                             "%(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "BENCHMARK.json's run_seconds); a workload "
                             "always completes at least one cycle")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: also run one traced cycle and the layer "
                             "probes, report per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke = 4x4 meshes and single passes, for the "
                             "harness's own test; never recorded")
    parser.add_argument("--sets", type=int, default=1,
                        help="complete sets to run; 2 also compares them")
    parser.add_argument("--out", help="where to write the set file(s) "
                                      "(default: under the work directory)")
    parser.add_argument("--work-dir", default=str(ROOT / ".bench_pipeline"),
                        help="scratch root for caches, queues, traces and "
                             "set files (default: %(default)s)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two saved sets and exit")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's document digest under "
                             "reference/ (full scale only)")
    return parser.parse_args(argv)


def host_block() -> Dict:
    """Where the numbers were taken; written into every record."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    from gate import library_versions

    return {"nproc": os.cpu_count(), "load_1min": os.getloadavg()[0],
            "python": platform.python_version(), **library_versions(),
            "git_sha": sha}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def mcl_ratio(rows: List[Dict]) -> float:
    """Mean over (scenario, topology, pattern, faults) cells of the lowest
    ``max_channel_load`` among the cell's other routers, over dor's.

    On ``plan-bsor-8x8`` every other router is a BSOR instantiation, so
    this is the paper's headline ratio.  A study with dor alone has no
    alternative to compare and reads 1.
    """
    cells: Dict = {}
    for row in rows:
        key = (row["scenario"], row["topology"], row["pattern"],
               row.get("faults", "none"))
        cells.setdefault(key, {})[row["router"]] = row["max_channel_load"]
    ratios = []
    for loads in cells.values():
        others = [load for router, load in loads.items() if router != "dor"]
        ratios.append(min(others) / loads["dor"] if others else 1.0)
    return statistics.mean(ratios)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def set_up(name: str, scale: str, seed: int, area, ledger):
    """Everything before the first timed operation.

    Returns the case and one ``setup_s`` sample: the seconds since this
    process started.
    """
    from cases import build_case, warm_up

    case = build_case(name, scale, seed, area, ledger)
    try:
        warm_up(area)
        case.setup()
        return case, time.perf_counter() - PROCESS_STARTED
    except BaseException:
        case.teardown()
        raise


def measure(case, seconds: float, single: bool) -> List:
    """Untraced cycles until *seconds* are used up (at least one)."""
    from cases import ServeCase

    began = time.perf_counter()
    if isinstance(case, ServeCase):
        # the server's cache stays warm, so one cycle: the warm phase is
        # what fills the time
        return [case.cycle(seconds=None if single else seconds)]
    cycles = [case.cycle()]
    while not single:
        spent = time.perf_counter() - began
        if spent + spent / len(cycles) > seconds:
            break
        cycles.append(case.cycle())
    return cycles


def end_to_end(cycles: List, setups: List[float],
               rss_mb: float) -> Dict[str, float]:
    first = cycles[0]
    cold = records.steady(sample for cycle in cycles
                          for sample in cycle.cold_s)
    return {
        "setup_s": records.steady(setups),
        "cold_wall_s": cold,
        "warm_wall_s": records.steady(sample for cycle in cycles
                                      for sample in cycle.warm_s),
        # every cold operation of a workload simulates the same number of
        # cycles, so this is cycles per operation over its steady time
        "sim_cycles_per_s": first.simulated["cycles"] / len(first.cold_s)
        / cold,
        "peak_rss_mb": rss_mb,
        "mcl_ratio": mcl_ratio(first.rows),
    }


def extra_setup_samples(args: argparse.Namespace) -> List[float]:
    samples = []
    for _ in range(EXTRA_SETUP_SAMPLES):
        output = subprocess.run(
            [sys.executable, str(HERE / "bench.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--scale", args.scale,
             "--work-dir", args.work_dir, "--setup-only"],
            capture_output=True, text=True, check=True, timeout=170).stdout
        samples.append(json.loads(output.splitlines()[-1])["setup_s"])
    return samples


def run_cycles(args: argparse.Namespace, seconds: float, area, ledger):
    """Set up, measure with tracing off, then (``--trace 1``) one traced
    cycle; the workload's server or workers are gone when this returns.

    Returns ``(setup, cycles, recorder, traced_cycle, peak_rss_mb)``.
    """
    from gate import PlanTap

    tap = PlanTap()
    recorder = traced = case = None
    with tap.installed():
        try:
            case, setup = set_up(args.workload, args.scale, args.seed, area,
                                 ledger)
            cycles = measure(case, seconds, single=bool(args.trace) or
                             args.scale == "smoke")
            if args.trace:
                from spans import Recorder, instrument

                recorder = Recorder(args.workload)
                with instrument(recorder):
                    traced = case.cycle(recorder)
        finally:
            if case is not None:
                case.teardown()
    rss_mb = peak_rss_mb()
    tap.verify(ledger)
    for cycle in cycles[1:]:
        ledger.check(cycle.document == cycles[0].document,
                     f"{args.workload}: two cold passes disagree")
    return setup, cycles, recorder, traced, rss_mb


def trace_metrics(args: argparse.Namespace, recorder, traced, untraced,
                  area, ledger, work: Path):
    """Per-layer metrics of a traced run, and where its spans were written."""
    from layers import cycle_metrics, probe_metrics
    from spans import instrument

    per_layer = cycle_metrics(recorder, traced, untraced)
    with instrument(recorder):
        per_layer.update(probe_metrics(recorder, area, ledger, args.scale,
                                       args.seed))
    for problem in recorder.nesting_errors():
        ledger.check(False, f"trace: {problem}")
    traces = work / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_file = traces / f"{args.workload}-seed{args.seed}.json"
    recorder.write_chrome_trace(trace_file)
    return per_layer, trace_file


def with_units(values: Dict[str, float], entries: List[Dict]) -> Dict:
    """``{name: {value, unit}}`` of exactly the metrics the manifest names."""
    units = {entry["name"]: entry["unit"] for entry in entries}
    if set(units) != set(values):
        raise SystemExit(f"metrics out of step with BENCHMARK.json: missing "
                         f"{sorted(set(units) - set(values))}, unlisted "
                         f"{sorted(set(values) - set(units))}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def run_workload(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"nothing to measure: {ROOT / 'src' / 'repro'} is not in this "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from cases import WORKLOADS, WorkArea, scrub_environment, spec_name
    from gate import Ledger, check_reference, digest, write_reference

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    manifest = records.load_manifest()
    seconds = args.seconds if args.seconds is not None \
        else manifest["run_seconds"]
    scrub_environment()
    host = host_block()
    ledger = Ledger()
    work = Path(args.work_dir)
    area = WorkArea(work / "tmp")
    try:
        if args.setup_only:
            case, setup = set_up(args.workload, args.scale, args.seed, area,
                                 ledger)
            case.teardown()
            print(json.dumps({"setup_s": setup}))
            return 0
        setup, cycles, recorder, traced, rss_mb = run_cycles(
            args, seconds, area, ledger)
        document_digest = digest(cycles[0].document)
        reference_name = spec_name(args.workload)
        reference = "skipped"
        if args.scale == "full":
            if args.write_reference:
                write_reference(reference_name, args.seed, document_digest)
            reference = check_reference(reference_name, args.seed,
                                        document_digest, ledger)
        setups = [setup]
        per_layer: Dict = {}
        trace_file = None
        if args.trace:
            per_layer, trace_file = trace_metrics(
                args, recorder, traced, cycles[0], area, ledger, work)
            per_layer = with_units(per_layer, manifest["per_layer"])
        elif args.scale == "full":
            setups += extra_setup_samples(args)
    finally:
        area.remove()

    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": seconds, "host": host,
        "load": "closed loop, 1 client",
        "samples": {"cycles": len(cycles),
                    "cold": sum(len(cycle.cold_s) for cycle in cycles),
                    "warm": sum(len(cycle.warm_s) for cycle in cycles),
                    "setup": len(setups)},
        "end_to_end": with_units(end_to_end(cycles, setups, rss_mb),
                                 manifest["end_to_end"]),
        "per_layer": per_layer,
        "document_sha256": document_digest, "reference": reference,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failures": ledger.failures,
        "trace_file": str(trace_file) if trace_file else None,
    }
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n")
    else:
        records.print_set([record], manifest)
        print(f"host: {json.dumps(host)}")
        if trace_file:
            print(f"trace: {trace_file}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["per_layer" if args.trace else "end_to_end"],
    }))
    return 0 if ledger.failed == 0 else 1


# ----------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ----------------------------------------------------------------------
def run_set(args: argparse.Namespace, index: int) -> Dict:
    from cases import WORKLOADS

    work = Path(args.work_dir)
    (work / "records").mkdir(parents=True, exist_ok=True)
    runs = []
    for seed in range(args.seed, args.seed + args.seeds):
        for workload in WORKLOADS:
            record_path = work / "records" / \
                f"set{index}-{workload}-seed{seed}.json"
            record_path.unlink(missing_ok=True)
            command = [sys.executable, str(HERE / "bench.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--scale", args.scale, "--trace", str(args.trace),
                       "--work-dir", args.work_dir,
                       "--record", str(record_path)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            print(f"[set {index}] {workload} seed {seed} ...", flush=True)
            completed = subprocess.run(command, stdout=subprocess.DEVNULL)
            if not record_path.exists():
                raise SystemExit(f"{workload} seed {seed} exited with "
                                 f"{completed.returncode} and no record")
            runs.append(json.loads(record_path.read_text()))
    # the twin no single run can check: queue-2w's document must equal the
    # local sweep's, byte for byte
    documents = {(run["workload"], run["seed"]): run["document_sha256"]
                 for run in runs}
    for run in runs:
        if run["workload"] != "queue-2w":
            continue
        run["attempted"] += 1
        if documents.get(("sweep-sim-8x8", run["seed"])) != \
                run["document_sha256"]:
            run["failed"] += 1
            run["failures"].append("queue-2w: document differs from "
                                   "sweep-sim-8x8's")
    return {"scale": args.scale, "trace": args.trace, "runs": runs}


def run_all(args: argparse.Namespace) -> int:
    manifest = records.load_manifest()
    work = Path(args.work_dir)
    sets = []
    for index in range(1, args.sets + 1):
        result = run_set(args, index)
        sets.append(result)
        if args.out:
            path = Path(args.out)
            if args.sets > 1:
                path = path.with_name(f"{path.stem}.set{index}{path.suffix}")
        else:
            (work / "sets").mkdir(parents=True, exist_ok=True)
            path = work / "sets" / f"set{index}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"\n---- set {index} ({path}) ----")
        records.print_set(result["runs"], manifest)
    failed = sum(run["failed"] for result in sets for run in result["runs"])
    status = 1 if failed else 0
    if len(sets) >= 2:
        print("\n---- set 1 against set 2 ----")
        if records.compare_sets(sets[0], sets[1], manifest):
            status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_arguments(argv)
    if args.compare:
        return records.compare_files(*args.compare)
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
