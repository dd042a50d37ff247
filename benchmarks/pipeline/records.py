"""Sets of runs: the table one command prints, and ``--compare A B``.

A *set* file holds every run of one ``bench.py`` invocation — one record per
(workload, seed).  Comparing two sets is how the two-run agreement criterion
and every later before/after is judged: per (metric, workload) row both
medians, the run-to-run spread, and a verdict against the bound
``BENCHMARK.json`` fixes for the metric.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional

MANIFEST = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_manifest() -> Dict:
    return json.loads(MANIFEST.read_text())


def metric_values(records: List[Dict], group: str) -> Dict:
    """``{(workload, metric): [value per run]}`` of one metric group."""
    values: Dict = {}
    for record in records:
        for name, metric in record.get(group, {}).items():
            values.setdefault((record["workload"], name), []).append(
                metric["value"])
    return values


def steady(samples) -> float:
    """The lower quartile of timing *samples*; the minimum below four.

    Noise on a shared host is one-sided — intermittent slowdowns on top of
    a stable floor (README.md, "Noise") — so a low quantile repeats from run
    to run where the median does not, and a change that slows at least
    three quarters of the operations still moves it.
    """
    samples = sorted(samples)
    if len(samples) < 4:
        return samples[0]
    return statistics.quantiles(samples, n=4)[0]


def spread(values: List[float]) -> Optional[float]:
    """Interquartile range as a share of the median (None below 2 runs)."""
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(middle)


def print_set(records: List[Dict], manifest: Dict) -> None:
    """Every metric by name with its unit, one block per workload."""
    workloads = []
    for record in records:
        if record["workload"] not in workloads:
            workloads.append(record["workload"])
    for workload in workloads:
        runs = [record for record in records
                if record["workload"] == workload]
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        print(f"\n== {workload} ({len(runs)} run(s), seeds "
              f"{[run['seed'] for run in runs]}, reference "
              f"{'/'.join(sorted({run['reference'] for run in runs}))})")
        for group in ("end_to_end", "per_layer"):
            values = metric_values(runs, group)
            for entry in manifest[group]:
                samples = values.get((workload, entry["name"]))
                if not samples:
                    continue
                relative = spread(samples)
                note = "" if relative is None else \
                    f"  (spread {100 * relative:.1f}% over {len(samples)})"
                print(f"  {entry['name']:<34}"
                      f"{statistics.median(samples):>16.6g} "
                      f"{entry['unit']}{note}")
        print(f"  {'failed_ratio':<34}{failed / attempted:>16.6g} ratio"
              f"  ({failed} failed of {attempted} attempted)")
        for run in runs:
            for failure in run.get("failures", []):
                print(f"  FAILED: {failure}")


def verdict(entry: Dict, before: List[float], after: List[float]) -> Dict:
    """One compare row: medians, spread and ok / regressed / unresolved.

    ``unresolved`` means the runs of one side scatter more than the bound,
    so a move of the median within that scatter proves nothing — unless
    every run of *after* is better than every run of *before*.
    """
    bound = entry["bound"]
    higher = entry["better"] == "higher"
    a, b = statistics.median(before), statistics.median(after)
    worse = ((a - b) if higher else (b - a)) / abs(a) if a else 0.0
    spreads = [value for value in (spread(before), spread(after))
               if value is not None]
    scatter = max(spreads, default=0.0)
    all_better = (min(after) >= max(before)) if higher \
        else (max(after) <= min(before))
    if scatter > bound and not all_better:
        status = "unresolved"
    elif worse > bound:
        status = "regressed"
    else:
        status = "ok"
    return {"before": a, "after": b, "worse": worse, "spread": scatter,
            "status": status}


def compare_sets(before: Dict, after: Dict, manifest: Dict) -> int:
    """Print the compare table; returns the number of rows not ``ok``."""
    first = metric_values(before["runs"], "end_to_end")
    second = metric_values(after["runs"], "end_to_end")
    print(f"{'workload':<22}{'metric':<22}{'before':>14}{'after':>14}"
          f"{'worse':>9}{'spread':>9}{'bound':>8}  verdict")
    bad = 0
    for entry in manifest["end_to_end"]:
        for (workload, name), values in first.items():
            if name != entry["name"] or (workload, name) not in second:
                continue
            row = verdict(entry, values, second[(workload, name)])
            bad += row["status"] != "ok"
            print(f"{workload:<22}{name:<22}{row['before']:>14.6g}"
                  f"{row['after']:>14.6g}{100 * row['worse']:>8.1f}%"
                  f"{100 * row['spread']:>8.1f}%"
                  f"{100 * entry['bound']:>7.1f}%  {row['status']}")
    for label, runs in (("before", before["runs"]), ("after", after["runs"])):
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        print(f"{label}: {failed} failed of {attempted} attempted")
        bad += failed
    return bad


def compare_files(first: str, second: str) -> int:
    before = json.loads(Path(first).read_text())
    after = json.loads(Path(second).read_text())
    return 1 if compare_sets(before, after, load_manifest()) else 0
