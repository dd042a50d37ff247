"""Markdown / JSON rendering of comparison results.

The comparison engine produces structured :class:`~repro.compare.matrix.CompareCell`
rows, exposed as a tagged :class:`~repro.study.resultset.ResultSet` via
:meth:`CompareResult.result_set`; this module renders that result set as

* **markdown** — one table per (topology, pattern) group with per-router
  saturation throughput, saturation rate, latency columns and max channel
  load, ready to paste into EXPERIMENTS.md or a PR description;
* **JSON** — the same rows as plain dictionaries for downstream tooling.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .matrix import CompareResult

#: Column layout of the markdown tables: (header, result row -> formatted).
_COLUMNS = (
    ("router", lambda row: row["display_name"]),
    ("saturation rate (pkt/cycle)", lambda row: _format_rate(row)),
    ("saturation throughput (pkt/cycle)",
     lambda row: f"{row['saturation_throughput']:.3f}"),
    ("low-load latency (cycles)",
     lambda row: f"{row['low_load_latency']:.1f}"),
    ("p99 flow latency (cycles)", lambda row: f"{row['p99_latency']:.1f}"),
    ("max channel load", lambda row: f"{row['max_channel_load']:g}"),
    ("avg hops", lambda row: f"{row['average_hops']:.2f}"),
    ("sim points", lambda row: str(row["invocations"])),
)


#: Extra column spliced in after "router" when any cell ran under faults.
_FAULTS_COLUMN = ("faults", lambda row: row.get("faults", "none"))


def _format_rate(row: Dict) -> str:
    rate = f"{row['saturation_rate']:g}"
    if not row["saturated_within_range"]:
        return f">= {rate}"
    return rate


def _has_faults(rows) -> bool:
    return any(row.get("faults", "none") != "none" for row in rows)


def _degradation_lines(rows) -> List[str]:
    """The fault-degradation section: every faulty cell vs its twin.

    For each (topology, pattern, router) that has both a fault-free
    baseline and at least one faulty cell, reports the saturation
    throughput retained under each fault set — the quantity the paper's
    robustness question asks for (how gracefully does each router degrade
    as links fail?).
    """
    baselines: Dict = {}
    for row in rows:
        if row.get("faults", "none") == "none":
            key = (row["topology"], row["pattern"], row["router"])
            baselines[key] = row
    lines: List[str] = ["", "## Degradation under faults", ""]
    header = ("| topology | pattern | router | faults | "
              "saturation throughput (pkt/cycle) | retained |")
    lines.append(header)
    lines.append("|" + "|".join(" --- " for _ in range(6)) + "|")
    for row in rows:
        faults = row.get("faults", "none")
        if faults == "none":
            continue
        key = (row["topology"], row["pattern"], row["router"])
        baseline = baselines.get(key)
        throughput = row["saturation_throughput"]
        if baseline and baseline["saturation_throughput"] > 0:
            retained = throughput / baseline["saturation_throughput"]
            retained_text = f"{100.0 * retained:.1f}%"
        else:
            retained_text = "n/a"
        lines.append(
            f"| {row['topology']} | {row['pattern']} | "
            f"{row['display_name']} | {faults} | {throughput:.3f} | "
            f"{retained_text} |"
        )
    return lines


def render_markdown(result: CompareResult) -> str:
    """The full comparison as a markdown document."""
    criteria = result.criteria
    rows = result.result_set()
    lines: List[str] = ["# Routing comparison", ""]
    lines.append(
        f"Adaptive saturation search over offered rates "
        f"[{criteria.min_rate:g}, {criteria.max_rate:g}] pkt/cycle, "
        f"resolution {criteria.resolution:g} (saturation = latency > "
        f"{criteria.latency_blowup:g}x low-load latency or delivery ratio < "
        f"{criteria.delivery_floor:g})."
    )
    faulted = _has_faults(rows.rows)
    columns = (_COLUMNS[:1] + (_FAULTS_COLUMN,) + _COLUMNS[1:]) if faulted \
        else _COLUMNS
    for (topology, pattern), group in rows.group("topology", "pattern"):
        lines.extend(["", f"## {topology} / {pattern}", ""])
        headers = [header for header, _ in columns]
        lines.append("| " + " | ".join(headers) + " |")
        lines.append("|" + "|".join(" --- " for _ in headers) + "|")
        for row in group:
            values = [render(row) for _, render in columns]
            lines.append("| " + " | ".join(values) + " |")
    if faulted:
        lines.extend(_degradation_lines(rows.rows))
    lines.extend([
        "",
        f"_{len(rows)} cell(s), "
        f"{result.total_invocations()} rate point(s) evaluated; runner: "
        f"{result.report.describe()}._",
        "",
    ])
    return "\n".join(lines)


def result_to_dict(result: CompareResult) -> Dict:
    """Plain-JSON rendering of a full comparison run."""
    return {
        "criteria": {
            "min_rate": result.criteria.min_rate,
            "max_rate": result.criteria.max_rate,
            "resolution": result.criteria.resolution,
            "bracket_factor": result.criteria.bracket_factor,
            "latency_blowup": result.criteria.latency_blowup,
            "delivery_floor": result.criteria.delivery_floor,
        },
        "cells": result.result_set().rows,
        "total_invocations": result.total_invocations(),
    }


def render_json(result: CompareResult, indent: int = 2) -> str:
    """The full comparison as a JSON document."""
    return json.dumps(result_to_dict(result), indent=indent, sort_keys=True)
