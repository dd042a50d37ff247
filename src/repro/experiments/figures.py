"""Reproduction of the paper's figures (Figures 6-1 through 6-10).

Every figure in the evaluation chapter is one sweep scenario — routers x
workload x offered injection rate — optionally crossed with a VC count
(Figure 6-7) or run under run-time bandwidth variation (Figures 6-8, 6-9,
6-10).  :data:`FIGURES` is that table; :func:`run_figure` turns a row into a
:class:`~repro.study.spec.Scenario` and executes it through
:func:`repro.study.execute.run_scenario`, the same funnel study files run
through (``examples/studies/figure_6_7.yaml`` is Figure 6-7's file form), so
a figure is a tagged :class:`~repro.study.resultset.ResultSet` like every
other result.  Saturation throughput and route MCL are read off the rows::

    results = run_figure("6-1", config)
    results.reduce("throughput", max, "display_name")        # saturation
    results.reduce("max_channel_load", max, "display_name")  # route MCL

:func:`render_figure` prints the rows as the text tables the benchmark suite
emits and keeps under ``benchmarks/results/`` (see "One result path" in
docs/architecture.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..exceptions import ExperimentError
from ..runner.engine import runner_for
from ..study.execute import run_scenario
from ..study.resultset import ResultSet
from ..study.spec import Scenario
from .config import ExperimentConfig

#: The six algorithms plotted in Figures 6-1 .. 6-6 and 6-8 .. 6-10.
PAPER_ROUTERS: Tuple[str, ...] = (
    "dor", "yx", "romm", "valiant", "bsor-milp", "bsor-dijkstra",
)


@dataclass(frozen=True)
class Figure:
    """One figure of the evaluation chapter, as the sweep it plots."""

    #: The figure's fixed workload; ``None`` takes the caller's
    #: (``--workload``, default transpose).
    workload: Optional[str]
    #: Qualitative claim of the paper, recorded so the benchmark output can
    #: state what shape to expect (docs/architecture.md, "One result path").
    claim: str
    routers: Tuple[str, ...] = PAPER_ROUTERS
    #: VC counts to cross the sweep with (empty = the profile's count).
    vcs: Tuple[int, ...] = ()
    #: Run-time bandwidth variation: routes are still computed from the
    #: *nominal* demands (that is the whole point: the estimates are now
    #: wrong at run time) while injection is modulated within ±fraction.
    variation: Optional[float] = None


FIGURES: Dict[str, Figure] = {
    "6-1": Figure("transpose",
                  "BSOR reaches ~70% higher saturation throughput than the "
                  "other algorithms on transpose at comparable latency."),
    "6-2": Figure("bit-complement",
                  "XY, YX and BSOR-MILP coincide on bit-complement (same "
                  "MCL); ROMM and Valiant saturate earlier and show "
                  "instability."),
    "6-3": Figure("shuffle",
                  "BSOR-Dijkstra edges out BSOR-MILP at high injection rates "
                  "on shuffle despite equal MCL (longer, better balanced "
                  "routes)."),
    "6-4": Figure("h264",
                  "BSOR lowers latency and congestion for H.264 at moderate "
                  "loads; DOR catches up at very high injection rates."),
    "6-5": Figure("perf-modeling",
                  "BSOR-MILP achieves ~33% higher throughput than the other "
                  "algorithms on performance modeling."),
    "6-6": Figure("transmitter",
                  "Same trends as the other applications for the 802.11a/g "
                  "transmitter; Valiant suffers from loss of locality."),
    # only the DOR baseline and the BSOR variants: ROMM and Valiant need
    # two VCs for deadlock freedom, so they cannot join the 1-VC column
    "6-7": Figure(None,
                  "Going from 2 to 4 VCs improves throughput by ~40%; going "
                  "from 4 to 8 adds little.  BSOR stays ahead at every VC "
                  "count.",
                  routers=("dor", "bsor-milp", "bsor-dijkstra"),
                  vcs=(1, 2, 4, 8)),
    "6-8": Figure(None,
                  "With 10% bandwidth variation the ranking is unchanged; "
                  "BSOR's headroom absorbs the variation.",
                  variation=0.10),
    "6-9": Figure(None,
                  "With 25% variation BSOR still degrades the least at low "
                  "loads.",
                  variation=0.25),
    "6-10": Figure(None,
                   "With 50% variation BSOR retains its advantage on "
                   "transpose, but minimal algorithms overtake it on H.264.",
                   variation=0.50),
}


def normalize_figure_key(figure: str) -> str:
    """Normalise a figure reference to "6-1" form.

    Accepts "Figure 6-1", "6-1", "1", and the dotted spelling the paper's
    text uses ("6.7", "Figure 6.7").
    """
    key = figure.replace("Figure", "").strip().replace(".", "-").strip("-")
    return key if "-" in key else f"6-{key}"


def _lookup(number: str) -> Tuple[str, Figure]:
    key = normalize_figure_key(number)
    if key not in FIGURES:
        raise ExperimentError(
            f"unknown figure {number!r}; known: {list(FIGURES)}"
        )
    return key, FIGURES[key]


def run_figure(number: str, config: Optional[ExperimentConfig] = None,
               workload: Optional[str] = None, runner=None,
               routers: Optional[Sequence[str]] = None,
               vcs: Optional[Sequence[int]] = None):
    """Simulate one figure; returns its sweep rows as a ``ResultSet``.

    *workload* chooses the traffic of Figures 6-7 .. 6-10 (default
    transpose) and is an error for the fixed-workload figures; *routers*
    (registry names) and *vcs* narrow or replace the figure's own axes.
    Without a *runner* one is built from the configuration's ``workers`` /
    ``use_cache`` / ``cache_dir`` fields.
    """
    key, figure = _lookup(number)
    if workload and figure.workload:
        raise ExperimentError(
            f"Figure {key} plots {figure.workload!r}; a workload can only "
            f"be chosen for Figures 6-7 .. 6-10"
        )
    config = config or ExperimentConfig()
    if figure.variation is not None:
        config = config.with_variation(figure.variation)
    pattern = figure.workload or workload or "transpose"
    scenario = Scenario(
        name=f"Figure {key} ({pattern})",
        patterns=(pattern,),
        routers=tuple(routers) if routers else figure.routers,
        vcs=tuple(vcs) if vcs else figure.vcs,
    )
    results, _ = run_scenario(scenario, config, runner or runner_for(config))
    return results


def render_curves(results) -> str:
    """Sweep rows as two text tables — throughput and average latency by
    offered rate, one column per router — titled with the scenario name."""
    [title] = results.distinct("scenario")
    return "\n\n".join(
        results.pivot("offered_rate", "display_name", value,
                      index_label="offered rate")
        .to_text(title=f"{title} - {label}", precision=3)
        for value, label in (("throughput", "throughput (packets/cycle)"),
                             ("average_latency", "average latency (cycles)"))
    )


def render_figure(number: str, results) -> str:
    """The text form of :func:`run_figure`'s rows.

    A VC-crossed figure prints saturation throughput per router and VC
    count; every other one prints its curves, the route MCLs and the
    paper's claim.
    """
    _, figure = _lookup(number)
    if figure.vcs:
        [title] = results.distinct("scenario")
        saturation = results.reduce("throughput", max, "display_name", "vcs")
        return ResultSet([
            {"algorithm": name,
             **{f"{count} VCs": saturation.get((name, count))
                for count in results.distinct("vcs")}}
            for name in results.distinct("display_name")
        ]).to_text(
            title=f"{title} - saturation throughput (packets/cycle) by VC "
                  f"count",
            precision=3,
        )
    mcls = results.reduce("max_channel_load", max, "display_name")
    return "\n".join([
        render_curves(results),
        "",
        "route MCLs: " + ", ".join(f"{name}={mcl:g}"
                                   for name, mcl in mcls.items()),
        f"paper claim: {figure.claim}",
    ])
