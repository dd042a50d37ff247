"""Single-file HTML run reports over saved result sets.

``python -m repro report results.json`` turns a result file written by the
``run`` / ``compare`` commands (``--format json`` / ``--output``) into one
self-contained HTML page, every table written by
:meth:`~repro.study.resultset.ResultSet.to_html`:

* **pivots** — the latency and throughput tables of every (scenario,
  topology, pattern) group, reshaped through
  :meth:`~repro.study.resultset.ResultSet.pivot` exactly like the text
  reports;
* **saturation summaries** — one row per router for saturate-mode rows,
  and the :func:`~repro.study.resultset.degradation` table when they ran
  under faults;
* **channel-occupancy heatmap** — a channels x time matrix fed from the
  existing injection-trace layer (:mod:`repro.workloads.trace`): the
  scenario's topology, pattern and routes are reconstructed from the row
  tags, the injection process is drawn through a
  :class:`~repro.workloads.trace.RecordingInjection`, and every injected
  packet's flits are attributed to each channel along its route.  No
  simulator run is needed — the heatmap shows *offered* occupancy, which
  is precisely the quantity BSOR's bandwidth-sensitive route selection
  balances.

Everything is inlined (styles, colors, data), so the report is one file
that can be attached to an issue or archived next to the result JSON.  The
sequential color ramp is a single blue hue, light to dark, with near-zero
cells receding toward the page surface.
"""

from __future__ import annotations

import html
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .exceptions import ReproError
from .study.resultset import ResultSet, degradation

#: Sequential single-hue ramp (blue, light -> dark), lowest step first.
#: Near-zero heatmap cells recede to the page surface below step one.
SEQUENTIAL_RAMP = (
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
)

#: Chart chrome (light mode): surface, inks, hairlines.
SURFACE = "#fcfcfb"
PAGE = "#f9f9f7"
INK = "#0b0b0b"
INK_SECONDARY = "#52514e"
INK_MUTED = "#898781"
HAIRLINE = "#e1e0d9"


# ----------------------------------------------------------------------
# loading result rows
# ----------------------------------------------------------------------
def load_result_rows(path: str) -> Tuple[ResultSet, Dict]:
    """Read a result file into a :class:`ResultSet` plus its metadata.

    Accepts both shapes the CLI writes: a study document
    (``{"study": ..., "rows": [...]}``, from ``repro run`` / ``repro
    compare`` with ``--format json``) and a bare JSON array of row objects
    (a serialized :class:`ResultSet`).  Returns the rows and whatever
    metadata rode along (the study spec, when present).
    """
    try:
        with open(path, "r", encoding="utf-8") as stream:
            document = json.load(stream)
    except OSError as error:
        raise ReproError(f"cannot read result file {path!r}: {error}")
    except ValueError as error:
        raise ReproError(f"{path!r} is not valid JSON: {error}")
    if isinstance(document, dict) and isinstance(document.get("rows"), list):
        return ResultSet(document["rows"]), {
            key: value for key, value in document.items() if key != "rows"
        }
    if isinstance(document, list):
        return ResultSet(document), {}
    raise ReproError(
        f"{path!r} is neither a study document with a 'rows' array nor a "
        f"JSON array of result rows"
    )


# ----------------------------------------------------------------------
# the channel-occupancy heatmap (injection-trace layer, no simulator)
# ----------------------------------------------------------------------
@dataclass
class OccupancyHeatmap:
    """A channels x time matrix of offered flit occupancy."""

    topology: str
    pattern: str
    router: str
    offered_rate: float
    num_cycles: int
    buckets: int
    channel_labels: List[str]
    #: ``matrix[channel index][bucket]`` = flits offered to the channel
    #: during the bucket's cycle window.
    matrix: List[List[int]] = field(default_factory=list)
    total_packets: int = 0

    @property
    def cycles_per_bucket(self) -> int:
        return max(1, self.num_cycles // self.buckets)

    def max_value(self) -> int:
        return max((value for row in self.matrix for value in row), default=0)


def occupancy_heatmap(topology_name: str, pattern: str, router: str,
                      offered_rate: float, num_cycles: int = 256,
                      buckets: int = 32, config=None) -> OccupancyHeatmap:
    """Compute the offered channel occupancy of one scenario cell.

    Reconstructs the topology, flow set and the router's route set from
    the same vocabularies the comparison matrix uses, then draws the
    injection process through a :class:`RecordingInjection` for
    *num_cycles* cycles and attributes each injected packet's flits to
    every channel along its flow's route, bucketed by injection cycle.
    Pure trace-layer arithmetic: the simulator never runs.
    """
    from .experiments.config import ExperimentConfig
    from .planning import parse_topology, pattern_flow_set, plan_routes
    from .simulator.injection import make_injection_process
    from .workloads.trace import RecordingInjection

    config = config or ExperimentConfig()
    topology = parse_topology(topology_name)
    flow_set = pattern_flow_set(pattern, topology, config)
    plan = plan_routes(router, topology, flow_set, config)
    route_set = plan.route_set

    recorder = RecordingInjection(make_injection_process(
        flow_set, offered_rate,
        variation_fraction=config.simulation.bandwidth_variation,
        mean_dwell_cycles=config.simulation.variation_dwell_cycles,
        seed=config.simulation.seed,
    ))
    for cycle in range(num_cycles):
        recorder.counts_for_cycle(cycle)
    trace = recorder.trace(num_cycles=num_cycles, workload=pattern)

    # channel rows: every channel at least one route uses, in label order
    used = sorted(
        {channel for route in route_set.routes for channel in route.channels},
        key=topology.channel_label,
    )
    index_of = {channel: index for index, channel in enumerate(used)}
    flow_channels = [route_set.route_by_name(name).channels
                     for name in trace.flow_names]
    flits = config.simulation.packet_size_flits
    buckets = max(1, min(buckets, num_cycles))
    matrix = [[0] * buckets for _ in used]
    for cycle, row in trace.counts.items():
        bucket = min(cycle * buckets // num_cycles, buckets - 1)
        for flow_index, count in row:
            for channel in flow_channels[flow_index]:
                matrix[index_of[channel]][bucket] += count * flits
    return OccupancyHeatmap(
        topology=topology_name,
        pattern=pattern,
        router=plan.spec.name,
        offered_rate=offered_rate,
        num_cycles=num_cycles,
        buckets=buckets,
        channel_labels=[topology.channel_label(channel) for channel in used],
        matrix=matrix,
        total_packets=trace.total_packets(),
    )


def heatmaps_for(results: ResultSet, num_cycles: int = 256,
                 buckets: int = 32, offered_rate: Optional[float] = None,
                 max_heatmaps: int = 4,
                 ) -> Tuple[List[OccupancyHeatmap], List[str]]:
    """The heatmaps a result set's first scenario group supports.

    Picks the first (topology, pattern) group and renders one heatmap per
    router in it (capped at *max_heatmaps*, noting what was dropped) so
    the channel-balance difference between routers — the paper's central
    claim — is visible side by side.  Returns ``(heatmaps, notes)``;
    reconstruction failures degrade to a note instead of failing the
    whole report.
    """
    notes: List[str] = []
    rows = results.rows
    if not rows:
        return [], ["no result rows; nothing to reconstruct"]
    first = rows[0]
    topology = first.get("topology") or "mesh8x8"
    pattern = first.get("pattern") or first.get("workload") or "transpose"
    group = [row for row in rows
             if (row.get("topology") or "mesh8x8") == topology
             and (row.get("pattern") or row.get("workload")) == pattern]
    routers: List[str] = []
    for row in group:
        name = row.get("router") or row.get("algorithm")
        if name and name not in routers:
            routers.append(name)
    if not routers:
        return [], [f"rows for {topology}/{pattern} carry no router tag; "
                    f"skipping the occupancy heatmap"]
    if len(routers) > max_heatmaps:
        notes.append(f"{len(routers) - max_heatmaps} more router(s) not "
                     f"shown: {', '.join(routers[max_heatmaps:])}")
        routers = routers[:max_heatmaps]
    if offered_rate is None:
        rates = sorted({row.get("offered_rate") for row in group
                        if isinstance(row.get("offered_rate"), (int, float))})
        offered_rate = rates[len(rates) // 2] if rates else 2.0
    heatmaps: List[OccupancyHeatmap] = []
    for router in routers:
        try:
            heatmaps.append(occupancy_heatmap(
                topology, pattern, router, offered_rate,
                num_cycles=num_cycles, buckets=buckets,
            ))
        except ReproError as error:
            notes.append(f"no heatmap for {router} on {topology}/{pattern}: "
                         f"{error}")
    return heatmaps, notes


# ----------------------------------------------------------------------
# HTML rendering
# ----------------------------------------------------------------------
def _esc(value) -> str:
    return html.escape(str(value))


def _ramp_color(value: float, maximum: float) -> str:
    """The sequential ramp step of a cell (surface color for near-zero)."""
    if maximum <= 0 or value <= 0:
        return SURFACE
    position = value / maximum
    index = min(int(position * len(SEQUENTIAL_RAMP)), len(SEQUENTIAL_RAMP) - 1)
    return SEQUENTIAL_RAMP[index]


def _render_heatmap(heatmap: OccupancyHeatmap) -> str:
    maximum = heatmap.max_value()
    per = heatmap.cycles_per_bucket
    parts = [
        "<div class='heatmap-block'>",
        f"<h3>{_esc(heatmap.router)} on {_esc(heatmap.topology)} / "
        f"{_esc(heatmap.pattern)}</h3>",
        f"<p class='note'>offered flits per channel per {per}-cycle window "
        f"at rate {heatmap.offered_rate:g} packets/cycle; "
        f"{heatmap.total_packets} packets over {heatmap.num_cycles} cycles "
        f"(injection trace only, no simulation). Peak window: "
        f"{maximum} flits.</p>",
        "<table class='heatmap'><thead><tr><th>channel</th>",
    ]
    for bucket in range(heatmap.buckets):
        parts.append(f"<th class='t'>{bucket * per}</th>")
    parts.append("</tr></thead><tbody>")
    for label, row in zip(heatmap.channel_labels, heatmap.matrix):
        parts.append(f"<tr><th>{_esc(label)}</th>")
        for bucket, value in enumerate(row):
            color = _ramp_color(value, maximum)
            start = bucket * per
            tooltip = (f"{label}: {value} flits in cycles "
                       f"{start}-{start + per - 1}")
            parts.append(f"<td class='cell' style='background:{color}' "
                         f"title='{_esc(tooltip)}'></td>")
        parts.append("</tr>")
    parts.append("</tbody></table>")
    # legend: the ramp with its value span, plus a table view of the data
    parts.append("<div class='legend'><span>0</span>")
    for color in SEQUENTIAL_RAMP:
        parts.append(f"<span class='swatch' style='background:{color}'>"
                     f"</span>")
    parts.append(f"<span>{maximum} flits</span></div>")
    parts.append("<details><summary>table view</summary>")
    starts = [str(bucket * per) for bucket in range(heatmap.buckets)]
    parts.append(ResultSet(
        [{"channel": label, **dict(zip(starts, row))}
         for label, row in zip(heatmap.channel_labels, heatmap.matrix)],
        columns=["channel"] + starts,
    ).to_html())
    parts.append("</details></div>")
    return "".join(parts)


def _sweep_sections(results: ResultSet) -> List[str]:
    """Throughput/latency pivot tables of the sweep-shaped rows."""
    sweep = ResultSet([
        row for row in results.rows
        if row.get("offered_rate") is not None
        and row.get("mode", "sweep") == "sweep"
    ])
    if not sweep:
        return []
    series = next((column for column in ("display_name", "router",
                                         "algorithm", "pattern")
                   if any(row.get(column) is not None
                          for row in sweep.rows)), None)
    if series is None:
        return []
    # group on every tag axis that varies (so pivot cells stay unique)
    # plus the identifying axes even when constant (so headings say what
    # the table shows)
    group_keys = []
    for column in ("scenario", "topology", "pattern", "workload", "vcs",
                   "faults"):
        if column == series:
            continue
        values = sweep.distinct(column)
        if len(values) > 1 or (values != [None] and column in
                               ("topology", "pattern", "workload")):
            group_keys.append(column)
    sections: List[str] = []
    for key, group in sweep.group(*group_keys) if group_keys \
            else [((), sweep)]:
        label = ", ".join(f"{name}={value}"
                          for name, value in zip(group_keys, key)
                          if value is not None) or "sweep"
        parts = [f"<section><h2>{_esc(label)}</h2>"]
        for metric, title in (("throughput", "throughput (packets/cycle)"),
                              ("average_latency",
                               "average latency (cycles)")):
            parts.append(group.pivot("offered_rate", series, metric,
                                     index_label="offered rate")
                         .to_html(caption=title))
        parts.append("</section>")
        sections.append("".join(parts))
    return sections


def _saturate_sections(results: ResultSet) -> List[str]:
    """Per-group summary tables of the saturate-shaped rows."""
    saturate = ResultSet([row for row in results.rows
                          if row.get("saturation_rate") is not None])
    if not saturate:
        return []
    columns = [column for column in
               ("display_name", "router", "faults", "saturation_rate",
                "saturation_throughput", "low_load_latency", "p99_latency",
                "max_channel_load", "average_hops")
               if any(row.get(column) is not None for row in saturate.rows)]
    group_keys = [column for column in ("scenario", "topology", "pattern")
                  if saturate.distinct(column) != [None]]
    sections: List[str] = []
    for key, group in saturate.group(*group_keys) if group_keys \
            else [((), saturate)]:
        label = ", ".join(f"{name}={value}"
                          for name, value in zip(group_keys, key)
                          if value is not None) or "saturation"
        sections.append(
            f"<section><h2>{_esc(label)}</h2>"
            + group.to_html(columns, caption="saturation summary")
            + "</section>"
        )
    degraded = degradation(saturate)
    if degraded:
        sections.append(
            "<section><h2>Degradation under faults</h2>"
            + degraded.to_html(caption="saturation throughput retained "
                                       "against the fault-free twin")
            + "</section>"
        )
    return sections


_STYLE = f"""
:root {{ color-scheme: light; }}
body {{
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: {PAGE}; color: {INK}; margin: 2rem auto; max-width: 72rem;
  padding: 0 1rem;
}}
h1 {{ font-size: 1.4rem; }}
h2 {{ font-size: 1.1rem; margin-top: 2rem; }}
h3 {{ font-size: 1rem; }}
.note, caption {{ color: {INK_SECONDARY}; font-size: 0.85rem; }}
caption {{ text-align: left; margin: 0.4rem 0; caption-side: top; }}
section, .heatmap-block {{
  background: {SURFACE}; border: 1px solid {HAIRLINE};
  border-radius: 6px; padding: 0.8rem 1rem; margin: 1rem 0;
}}
table {{ border-collapse: collapse; font-size: 0.85rem; }}
th, td {{
  border: 1px solid {HAIRLINE}; padding: 0.25rem 0.55rem; text-align: right;
}}
th {{ color: {INK_SECONDARY}; font-weight: 600; }}
td {{ font-variant-numeric: tabular-nums; }}
table.heatmap th.t {{
  font-size: 0.6rem; color: {INK_MUTED}; padding: 0.1rem 0.15rem;
  border: none;
}}
table.heatmap th {{ border: none; text-align: left; font-size: 0.7rem; }}
table.heatmap td.cell {{
  width: 14px; height: 14px; padding: 0; border: 1px solid {SURFACE};
}}
table.heatmap td.cell:hover {{ outline: 2px solid {INK}; }}
.legend {{
  display: flex; align-items: center; gap: 2px; margin: 0.5rem 0;
  color: {INK_SECONDARY}; font-size: 0.75rem;
}}
.legend .swatch {{ width: 14px; height: 10px; display: inline-block; }}
details {{ margin-top: 0.5rem; font-size: 0.8rem; }}
summary {{ color: {INK_SECONDARY}; cursor: pointer; }}
"""


def render_report(results: ResultSet, title: str = "repro run report",
                  source: str = "", metadata: Optional[Dict] = None,
                  heatmaps: Sequence[OccupancyHeatmap] = (),
                  notes: Sequence[str] = ()) -> str:
    """Render rows (plus optional heatmaps) as one self-contained page."""
    study = (metadata or {}).get("study") or {}
    subtitle_bits = [f"{len(results)} result row(s)"]
    if source:
        subtitle_bits.append(f"from {source}")
    if study.get("name"):
        subtitle_bits.append(f"study {study['name']!r}")
    body: List[str] = [
        f"<h1>{_esc(title)}</h1>",
        f"<p class='note'>{_esc(', '.join(subtitle_bits))}</p>",
    ]
    if study.get("description"):
        body.append(f"<p class='note'>{_esc(study['description'])}</p>")
    body.extend(_sweep_sections(results))
    body.extend(_saturate_sections(results))
    if heatmaps:
        body.append("<section><h2>channel occupancy</h2>"
                    "<p class='note'>Offered flit load per channel over "
                    "time, reconstructed from the injection-trace layer — "
                    "lower, flatter rows mean better channel balance, "
                    "which is what BSOR's bandwidth-sensitive route "
                    "selection optimizes.</p>")
        body.extend(_render_heatmap(heatmap) for heatmap in heatmaps)
        body.append("</section>")
    for note in notes:
        body.append(f"<p class='note'>note: {_esc(note)}</p>")
    return (
        "<!DOCTYPE html><html lang='en'><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_STYLE}</style></head>"
        "<body>" + "".join(body) + "</body></html>\n"
    )


def build_report(path: str, title: Optional[str] = None,
                 num_cycles: int = 256, buckets: int = 32,
                 offered_rate: Optional[float] = None,
                 with_heatmap: bool = True) -> str:
    """Load a result file and render the full HTML report for it."""
    results, metadata = load_result_rows(path)
    heatmaps: List[OccupancyHeatmap] = []
    notes: List[str] = []
    if with_heatmap:
        heatmaps, notes = heatmaps_for(results, num_cycles=num_cycles,
                                       buckets=buckets,
                                       offered_rate=offered_rate)
    return render_report(
        results,
        title=title or f"repro report: {os.path.basename(path)}",
        source=os.path.basename(path),
        metadata=metadata,
        heatmaps=heatmaps,
        notes=notes,
    )


__all__ = [
    "SEQUENTIAL_RAMP",
    "OccupancyHeatmap",
    "load_result_rows",
    "occupancy_heatmap",
    "heatmaps_for",
    "render_report",
    "build_report",
]
