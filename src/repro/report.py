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
* **channel-load heatmap** — a channels x plans matrix: one column per
  (scenario, router, fault set) of the first (topology, pattern) group,
  the exact static load :meth:`~repro.routing.base.RouteSet.channel_loads`
  of the plan behind the rows.  Each column is planned the way the study
  ran it — its embedded spec resolved through
  :func:`~repro.study.execute.resolve_config`, the scenario's seed and
  mapping, the row's fault set — through
  :func:`~repro.planning.plan_routes` and the runner's plan cache, so a
  warm report solves nothing, and a column whose peak or average hop
  count is not what its rows record is left out with a note.  No
  simulator run is needed: the channel load is what BSOR's
  bandwidth-sensitive route selection balances.

Everything is inlined (styles, colors, data), so the report is one file
that can be attached to an issue or archived next to the result JSON.  The
sequential color ramp is a single blue hue, light to dark, with near-zero
cells receding toward the page surface.
"""

from __future__ import annotations

import html
import json
import math
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

#: The most heatmap columns one report draws; the rest are named in a note.
MAX_HEATMAP_COLUMNS = 16


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
# the channel-load heatmap (the plans behind the rows, no simulator)
# ----------------------------------------------------------------------
@dataclass
class OccupancyHeatmap:
    """One plan's static channel load: a column of the report's heatmap.

    ``loads[i]`` is the summed demand of every flow routed over channel
    ``channel_labels[i]`` (:meth:`~repro.routing.base.RouteSet.channel_loads`)
    for each channel at least one route uses, so the column's maximum is
    the plan's maximum channel load, the quantity BSOR minimises.
    """

    topology: str
    pattern: str
    router: str
    faults: str
    channel_labels: List[str] = field(default_factory=list)
    loads: List[float] = field(default_factory=list)
    #: the plan's average hop count, which rows record next to its peak
    average_hops: float = 0.0
    #: the scenario of the rows, named only where several share a table
    scenario: Optional[str] = None

    @property
    def label(self) -> str:
        prefix = f"{self.scenario}: " if self.scenario else ""
        return f"{prefix}{self.router} / {self.faults}"

    def max_value(self) -> float:
        return max(self.loads, default=0.0)


def occupancy_heatmap(topology_name: str, pattern: str, router: str,
                      offered_rate: Optional[float] = None, config=None,
                      faults=None, cache=None) -> OccupancyHeatmap:
    """The static channel load of one planned cell.

    Plans *router* for *pattern* on *topology_name* under *config* (the
    default profile when ``None``) and *faults* through
    :func:`~repro.planning.plan_routes`, answered from *cache* (a
    :class:`~repro.runner.cache.ResultCache`) when it holds the plan, and
    reads the planned route set's per-channel load.  The load is static:
    it does not depend on *offered_rate*, which is accepted for callers
    that pass one.
    """
    from .experiments.config import ExperimentConfig
    from .faults import FaultSet
    from .planning import parse_topology, pattern_flow_set, plan_routes

    config = config or ExperimentConfig()
    topology = parse_topology(topology_name)
    flow_set = pattern_flow_set(pattern, topology, config)
    fault_set = FaultSet.from_spec(faults)
    plan = plan_routes(router, topology, flow_set, config, fault_set,
                       cache=cache)
    loads = plan.route_set.channel_loads()
    used = sorted(loads, key=plan.topology.channel_label)
    return OccupancyHeatmap(
        topology=topology_name,
        pattern=pattern,
        router=plan.spec.name,
        faults=fault_set.label(),
        channel_labels=[plan.topology.channel_label(channel)
                        for channel in used],
        loads=[loads[channel] for channel in used],
        average_hops=plan.route_set.average_hop_count(),
    )


def _disagreement(heatmap: OccupancyHeatmap,
                  rows: Sequence[Dict]) -> Optional[str]:
    """Why *rows* did not come from *heatmap*'s plan; ``None`` if they did.

    Every row's recorded ``max_channel_load`` and ``average_hops`` must be
    the plan's: two route sets can share a peak and still differ.
    """
    planned = {"maximum channel load": ("max_channel_load",
                                        heatmap.max_value()),
               "average hop count": ("average_hops", heatmap.average_hops)}
    for row in rows:
        for what, (column, value) in planned.items():
            recorded = row.get(column)
            if isinstance(recorded, (int, float)) \
                    and not math.isclose(recorded, value):
                return (f"{heatmap.label} not drawn: its plan's {what} is "
                        f"{value:g} and its rows record {recorded:g}, so "
                        f"they ran under other options (e.g. another "
                        f"--profile) than the report planned with")
    return None


def heatmaps_for(results: ResultSet, study=None, **overrides
                 ) -> Tuple[List[OccupancyHeatmap], List[str]]:
    """The channel-load columns of a result set's first scenario group.

    Picks the first (topology, pattern) group and plans one column per
    (scenario, router, fault set) in it, capped at
    :data:`MAX_HEATMAP_COLUMNS` with a note naming what was dropped, so the
    channel balance of the routers — the paper's central claim — is
    visible side by side.  Each column is planned the way its rows were:
    the configuration comes from *study* (the document's embedded spec; a
    default-policy study when ``None``) through
    :func:`~repro.study.execute.resolve_config` with the *overrides*
    (``profile=``, ``cache_dir=``, ...), plus the row scenario's ``seed`` /
    ``mapping``, and the plan is looked up in the runner's cache.  Returns
    ``(heatmaps, notes)``: a study that does not load, a column that cannot
    be planned, or one whose plan is not the one its rows record (planned
    under other options than the study ran with) becomes a note instead of
    failing the whole report.
    """
    from .study.execute import resolve_config, scenario_config
    from .study.spec import Study

    rows = results.rows
    if not rows:
        return [], ["no result rows; nothing to plan"]
    try:
        spec = Study("report") if study is None else Study.from_dict(study)
        config, runner = resolve_config(spec, **overrides)
    except ReproError as error:
        return [], [f"no channel-load heatmap: the document's study does "
                    f"not load ({type(error).__name__}: {error})"]
    scenarios = {scenario.name: scenario for scenario in spec.scenarios}
    default_topology = f"mesh{config.mesh_size}x{config.mesh_size}"
    first = rows[0]
    topology = first.get("topology") or default_topology
    pattern = first.get("pattern") or first.get("workload") or "transpose"
    # the rows of each (scenario, router, fault set) column, in row order
    columns: Dict[Tuple[Optional[str], str, str], List[Dict]] = {}
    for row in rows:
        name = row.get("router") or row.get("algorithm")
        if name and (row.get("topology") or default_topology) == topology \
                and (row.get("pattern") or row.get("workload")) == pattern:
            columns.setdefault((row.get("scenario"), name,
                                row.get("faults") or "none"), []).append(row)
    if not columns:
        return [], [f"rows for {topology}/{pattern} carry no router tag; "
                    f"skipping the channel-load heatmap"]
    several = len({scenario for scenario, _, _ in columns}) > 1
    notes: List[str] = []
    if len(columns) > MAX_HEATMAP_COLUMNS:
        dropped = [f"{scenario}: {router} / {faults}" if several
                   else f"{router} / {faults}"
                   for scenario, router, faults
                   in list(columns)[MAX_HEATMAP_COLUMNS:]]
        notes.append(f"{len(dropped)} more column(s) not shown: "
                     f"{', '.join(dropped)}")
    heatmaps: List[OccupancyHeatmap] = []
    for (scenario, router, faults), column in \
            list(columns.items())[:MAX_HEATMAP_COLUMNS]:
        try:
            heatmap = occupancy_heatmap(
                topology, pattern, router,
                config=config if scenario not in scenarios
                else scenario_config(scenarios[scenario], config),
                faults=faults, cache=runner.cache)
        except ReproError as error:
            notes.append(f"no heatmap column for {router} / {faults} on "
                         f"{topology}/{pattern}: {error}")
            continue
        if several:
            heatmap.scenario = scenario
        disagreement = _disagreement(heatmap, column)
        if disagreement is not None:
            notes.append(disagreement)
            continue
        heatmaps.append(heatmap)
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


def _render_heatmap(heatmaps: Sequence[OccupancyHeatmap]) -> str:
    """One channels x plans table: a column per heatmap, one color scale."""
    first = heatmaps[0]
    maximum = max(heatmap.max_value() for heatmap in heatmaps)
    labels = sorted({label for heatmap in heatmaps
                     for label in heatmap.channel_labels})
    columns = [dict(zip(heatmap.channel_labels, heatmap.loads))
               for heatmap in heatmaps]
    parts = [
        "<div class='heatmap-block'>",
        f"<h3>{_esc(first.topology)} / {_esc(first.pattern)}</h3>",
        f"<p class='note'>summed flow demand per channel of each plan "
        f"(router / fault set); a column's peak is its maximum channel "
        f"load. Peak: {maximum:g}.</p>",
        "<table class='heatmap'><thead><tr><th>channel</th>",
    ]
    for heatmap in heatmaps:
        parts.append(f"<th class='col'>{_esc(heatmap.label)}</th>")
    parts.append("</tr></thead><tbody>")
    for label in labels:
        parts.append(f"<tr><th>{_esc(label)}</th>")
        for heatmap, loads in zip(heatmaps, columns):
            value = loads.get(label, 0.0)
            tooltip = f"{label} under {heatmap.label}: {value:g}"
            parts.append(f"<td class='cell' "
                         f"style='background:{_ramp_color(value, maximum)}' "
                         f"title='{_esc(tooltip)}'></td>")
        parts.append("</tr>")
    parts.append("</tbody></table>")
    # legend: the ramp with its value span, plus a table view of the data
    parts.append("<div class='legend'><span>0</span>")
    for color in SEQUENTIAL_RAMP:
        parts.append(f"<span class='swatch' style='background:{color}'>"
                     f"</span>")
    parts.append(f"<span>{maximum:g}</span></div>")
    parts.append("<details><summary>table view</summary>")
    names = [heatmap.label for heatmap in heatmaps]
    parts.append(ResultSet(
        [{"channel": label,
          **{name: loads.get(label, 0.0)
             for name, loads in zip(names, columns)}}
         for label in labels],
        columns=["channel"] + names,
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
table.heatmap th.col {{
  font-size: 0.6rem; color: {INK_MUTED}; padding: 0.1rem 0.15rem;
  border: none; max-width: 6rem; vertical-align: bottom;
}}
table.heatmap th {{ border: none; text-align: left; font-size: 0.7rem; }}
table.heatmap td.cell {{
  width: 3rem; height: 14px; padding: 0; border: 1px solid {SURFACE};
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
    study = (metadata or {}).get("study")
    if not isinstance(study, dict):
        study = {}  # a bare row array, or a study that is not a spec
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
        body.append("<section><h2>channel load</h2>"
                    "<p class='note'>The static load of every channel "
                    "under the route plan behind the rows — a lower, "
                    "flatter column means better channel balance, which "
                    "is what BSOR's bandwidth-sensitive route selection "
                    "optimizes.</p>")
        body.append(_render_heatmap(heatmaps))
        body.append("</section>")
    for note in notes:
        body.append(f"<p class='note'>note: {_esc(note)}</p>")
    return (
        "<!DOCTYPE html><html lang='en'><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_STYLE}</style></head>"
        "<body>" + "".join(body) + "</body></html>\n"
    )


def build_report(path: str, title: Optional[str] = None,
                 with_heatmap: bool = True, **overrides) -> str:
    """Load a result file and render the full HTML report for it.

    *overrides* are :func:`~repro.study.execute.resolve_config` keywords
    (``profile=``, ``cache=``, ``cache_dir=``, ...) for planning the
    channel-load heatmap; they take precedence over the embedded study's
    execution policy, as they do for ``repro run``.
    """
    results, metadata = load_result_rows(path)
    heatmaps: List[OccupancyHeatmap] = []
    notes: List[str] = []
    if with_heatmap:
        heatmaps, notes = heatmaps_for(results, metadata.get("study"),
                                       **overrides)
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
    "MAX_HEATMAP_COLUMNS",
    "OccupancyHeatmap",
    "load_result_rows",
    "occupancy_heatmap",
    "heatmaps_for",
    "render_report",
    "build_report",
]
