"""Reproduction of the paper's figures (Figures 6-1 through 6-10).

Every figure in the evaluation chapter is one of three shapes:

* **throughput & latency versus offered injection rate** for the six routing
  algorithms on one workload (Figures 6-1 to 6-6) —
  :func:`figure_throughput_latency`;
* the same sweep with **1, 2, 4 or 8 virtual channels** for the two BSOR
  variants (Figure 6-7) — :func:`figure_vc_sweep`;
* the same sweep under **run-time bandwidth variation** of 10 %, 25 % or
  50 % (Figures 6-8, 6-9, 6-10) — :func:`figure_variation_sweep`.

The harness returns structured :class:`FigureResult` objects whose
``render()`` prints the series as text tables (offered rate, one column per
algorithm), which is what the benchmark suite emits and EXPERIMENTS.md
records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import ExperimentError
from ..planning import plan_on, router_for
from ..routing.base import RoutingAlgorithm
from ..runner.engine import ExperimentRunner, SweepSpec, runner_for
from ..simulator.config import SimulationConfig
from ..simulator.simulation import SweepResult
from .config import ExperimentConfig
from .report import improvement_summary, render_pivot
from .workloads import build_mesh, workload_flow_set

#: Figure number -> workload, for Figures 6-1 .. 6-6.
FIGURE_WORKLOADS: Dict[str, str] = {
    "6-1": "transpose",
    "6-2": "bit-complement",
    "6-3": "shuffle",
    "6-4": "h264",
    "6-5": "perf-modeling",
    "6-6": "transmitter",
}

#: Qualitative claims of the paper attached to each figure, recorded so the
#: benchmark output and EXPERIMENTS.md can state what shape to expect.
PAPER_FIGURE_CLAIMS: Dict[str, str] = {
    "6-1": "BSOR reaches ~70% higher saturation throughput than the other "
           "algorithms on transpose at comparable latency.",
    "6-2": "XY, YX and BSOR-MILP coincide on bit-complement (same MCL); "
           "ROMM and Valiant saturate earlier and show instability.",
    "6-3": "BSOR-Dijkstra edges out BSOR-MILP at high injection rates on "
           "shuffle despite equal MCL (longer, better balanced routes).",
    "6-4": "BSOR lowers latency and congestion for H.264 at moderate loads; "
           "DOR catches up at very high injection rates.",
    "6-5": "BSOR-MILP achieves ~33% higher throughput than the other "
           "algorithms on performance modeling.",
    "6-6": "Same trends as the other applications for the 802.11a/g "
           "transmitter; Valiant suffers from loss of locality.",
    "6-7": "Going from 2 to 4 VCs improves throughput by ~40%; going from "
           "4 to 8 adds little.  BSOR stays ahead at every VC count.",
    "6-8": "With 10% bandwidth variation the ranking is unchanged; BSOR's "
           "headroom absorbs the variation.",
    "6-9": "With 25% variation BSOR still degrades the least at low loads.",
    "6-10": "With 50% variation BSOR retains its advantage on transpose, but "
            "minimal algorithms overtake it on H.264.",
}


@dataclass
class FigureResult:
    """Data behind one throughput/latency figure."""

    name: str
    workload: str
    offered_rates: List[float]
    throughput: Dict[str, List[float]]
    latency: Dict[str, List[float]]
    route_mcl: Dict[str, float]
    claim: str = ""

    def saturation_throughputs(self) -> Dict[str, float]:
        return {algorithm: max(values) if values else 0.0
                for algorithm, values in self.throughput.items()}

    def best_algorithm(self) -> str:
        saturation = self.saturation_throughputs()
        return max(saturation, key=saturation.get)

    def summary(self, subject: str = "BSOR-Dijkstra") -> str:
        return improvement_summary(
            self.saturation_throughputs(), subject, higher_is_better=True
        )

    def result_set(self):
        """The figure's points as a tagged
        :class:`~repro.study.resultset.ResultSet` (one row per simulated
        point), the shape :func:`repro.experiments.report.render_pivot`
        renders and the study engine aggregates."""
        from ..study.resultset import ResultSet

        rows = []
        for algorithm in self.throughput:
            throughputs = self.throughput.get(algorithm, [])
            latencies = self.latency.get(algorithm, [])
            for index, rate in enumerate(self.offered_rates):
                rows.append({
                    "figure": self.name,
                    "workload": self.workload,
                    "algorithm": algorithm,
                    "offered_rate": rate,
                    "throughput": throughputs[index]
                    if index < len(throughputs) else None,
                    "average_latency": latencies[index]
                    if index < len(latencies) else None,
                    "max_channel_load": self.route_mcl.get(algorithm),
                })
        return ResultSet(rows)

    def render(self) -> str:
        results = self.result_set()
        parts = [
            render_pivot(results, "offered_rate", "algorithm", "throughput",
                         x_label="offered rate",
                         title=f"{self.name} ({self.workload}) - throughput "
                               f"(packets/cycle)"),
            "",
            render_pivot(results, "offered_rate", "algorithm",
                         "average_latency",
                         x_label="offered rate",
                         title=f"{self.name} ({self.workload}) - average "
                               f"latency (cycles)"),
            "",
            "route MCLs: " + ", ".join(
                f"{algorithm}={mcl:g}" for algorithm, mcl in self.route_mcl.items()
            ),
        ]
        if self.claim:
            parts.append(f"paper claim: {self.claim}")
        return "\n".join(parts)


def default_algorithms(config: ExperimentConfig, mesh,
                       include_milp: bool = True) -> List[RoutingAlgorithm]:
    """The six algorithms plotted in Figures 6-1 .. 6-6, built through
    :func:`repro.planning.router_for` like every other front end's."""
    names = ["dor", "yx", "romm", "valiant"]
    if include_milp:
        names.append("bsor-milp")
    names.append("bsor-dijkstra")
    return [router_for(name, config, mesh) for name in names]


def _run_sweeps(algorithms: Sequence[RoutingAlgorithm], mesh, flow_set,
                simulation: SimulationConfig,
                offered_rates: Sequence[float],
                workload: str,
                runner: ExperimentRunner,
                ) -> Tuple[Dict[str, SweepResult], Dict[str, float]]:
    """Sweep every algorithm through the runner as one flat point batch."""
    sweeps = runner.compare_algorithms(
        algorithms, mesh, flow_set, simulation, offered_rates,
        workload=workload,
    )
    mcls = {name: result.route_set.max_channel_load()
            for name, result in sweeps.items()}
    return sweeps, mcls


def figure_throughput_latency(workload: str,
                              config: Optional[ExperimentConfig] = None,
                              algorithms: Optional[Sequence[RoutingAlgorithm]] = None,
                              figure_name: Optional[str] = None,
                              runner: Optional[ExperimentRunner] = None,
                              ) -> FigureResult:
    """Figures 6-1 .. 6-6: throughput & latency versus offered rate."""
    config = config or ExperimentConfig()
    runner = runner or runner_for(config)
    mesh = build_mesh(config)
    flow_set = workload_flow_set(workload, mesh, config)
    if algorithms is None:
        algorithms = default_algorithms(config, mesh)
    sweeps, mcls = _run_sweeps(
        algorithms, mesh, flow_set, config.simulation,
        config.offered_rates, workload, runner,
    )
    if figure_name is None:
        matching = [fig for fig, wl in FIGURE_WORKLOADS.items() if wl == workload]
        figure_name = f"Figure {matching[0]}" if matching else f"Sweep ({workload})"
    claim_key = figure_name.replace("Figure ", "")
    return FigureResult(
        name=figure_name,
        workload=workload,
        offered_rates=list(config.offered_rates),
        throughput={name: result.curve.throughputs
                    for name, result in sweeps.items()},
        latency={name: result.curve.latencies for name, result in sweeps.items()},
        route_mcl=mcls,
        claim=PAPER_FIGURE_CLAIMS.get(claim_key, ""),
    )


def normalize_figure_key(figure: str) -> str:
    """Normalise a figure reference to "6-1" form.

    Accepts "Figure 6-1", "6-1", "1", and the dotted spelling the paper's
    text uses ("6.7", "Figure 6.7").
    """
    key = figure.replace("Figure", "").strip().replace(".", "-").strip("-")
    return key if "-" in key else f"6-{key}"


def figure_by_number(figure: str,
                     config: Optional[ExperimentConfig] = None,
                     runner: Optional[ExperimentRunner] = None) -> FigureResult:
    """Regenerate one of Figures 6-1 .. 6-6 by its number."""
    key = normalize_figure_key(figure)
    if key not in FIGURE_WORKLOADS:
        raise ExperimentError(
            f"unknown figure {figure!r}; known: {sorted(FIGURE_WORKLOADS)}"
        )
    return figure_throughput_latency(
        FIGURE_WORKLOADS[key], config, figure_name=f"Figure {key}",
        runner=runner,
    )


# ----------------------------------------------------------------------
# Figure 6-7: virtual channel sweep
# ----------------------------------------------------------------------
@dataclass
class VCSweepResult:
    """Saturation throughput versus number of virtual channels."""

    workload: str
    vc_counts: List[int]
    #: algorithm -> {vc count -> saturation throughput}
    saturation: Dict[str, Dict[int, float]]
    #: algorithm -> {vc count -> FigureResult-style curves}
    curves: Dict[str, Dict[int, List[float]]]
    offered_rates: List[float]

    def improvement(self, algorithm: str, from_vcs: int, to_vcs: int) -> float:
        """Relative throughput gain going from one VC count to another."""
        base = self.saturation[algorithm].get(from_vcs, 0.0)
        target = self.saturation[algorithm].get(to_vcs, 0.0)
        if base == 0:
            return 0.0
        return (target - base) / base

    def result_set(self):
        """One row per (algorithm, VC count) as a tagged
        :class:`~repro.study.resultset.ResultSet`."""
        from ..study.resultset import ResultSet

        rows = []
        for algorithm, by_vc in self.saturation.items():
            for vcs in self.vc_counts:
                rows.append({
                    "workload": self.workload,
                    "algorithm": algorithm,
                    "vcs": vcs,
                    "vc_label": f"{vcs} VCs",
                    "saturation_throughput": by_vc.get(vcs),
                })
        return ResultSet(rows)

    def render(self) -> str:
        from .report import render_pivot

        return render_pivot(
            self.result_set(), "algorithm", "vc_label",
            "saturation_throughput",
            title=f"Figure 6-7 ({self.workload}) - saturation throughput "
                  f"(packets/cycle) by VC count",
            precision=3,
        )


def figure_vc_sweep(workload: str,
                    config: Optional[ExperimentConfig] = None,
                    vc_counts: Sequence[int] = (1, 2, 4, 8),
                    algorithms: Optional[Sequence[str]] = None,
                    runner: Optional[ExperimentRunner] = None) -> VCSweepResult:
    """Figure 6-7: the effect of the number of virtual channels.

    Only the DOR baselines and the BSOR variants are simulated at one
    virtual channel (ROMM and Valiant need two for deadlock freedom), which
    mirrors the paper's methodology.  Every (VC count, algorithm, offered
    rate) point is independent, so the whole figure is submitted to the
    runner as one batch and fills the worker pool.
    """
    config = config or ExperimentConfig()
    runner = runner or runner_for(config)
    mesh = build_mesh(config)
    flow_set = workload_flow_set(workload, mesh, config)
    wanted = list(algorithms) if algorithms is not None else \
        ["XY", "BSOR-MILP", "BSOR-Dijkstra"]

    # Routes are oblivious and independent of the simulated VC count (the
    # default algorithms allocate VCs dynamically), so each algorithm's
    # route set is computed once and reused across every VC count.
    candidates = default_algorithms(config, mesh,
                                    include_milp="BSOR-MILP" in wanted)
    route_sets = {}
    for algorithm in candidates:
        if algorithm.name not in wanted:
            continue
        plan = plan_on(algorithm, mesh, flow_set)
        route_sets[algorithm.name] = (plan.route_set, plan.phase_boundaries)
    specs: Dict[str, SweepSpec] = {}
    for vcs in vc_counts:
        simulation = config.simulation.with_vcs(vcs)
        for name, (route_set, boundaries) in route_sets.items():
            if vcs == 1 and name in ("ROMM", "Valiant"):
                continue
            specs[f"{name}@{vcs}"] = SweepSpec(
                mesh, route_set, simulation, config.offered_rates,
                workload=workload,
                phase_boundaries=boundaries,
            )
    results = runner.sweep_many(specs)

    saturation: Dict[str, Dict[int, float]] = {name: {} for name in wanted}
    curves: Dict[str, Dict[int, List[float]]] = {name: {} for name in wanted}
    for key, result in results.items():
        name, _, vcs_text = key.rpartition("@")
        vcs = int(vcs_text)
        saturation[name][vcs] = result.curve.saturation_throughput()
        curves[name][vcs] = result.curve.throughputs
    return VCSweepResult(
        workload=workload,
        vc_counts=list(vc_counts),
        saturation=saturation,
        curves=curves,
        offered_rates=list(config.offered_rates),
    )


# ----------------------------------------------------------------------
# Figures 6-8 / 6-9 / 6-10: bandwidth variation sweeps
# ----------------------------------------------------------------------
def figure_variation_sweep(workload: str, variation_fraction: float,
                           config: Optional[ExperimentConfig] = None,
                           algorithms: Optional[Sequence[RoutingAlgorithm]] = None,
                           runner: Optional[ExperimentRunner] = None,
                           ) -> FigureResult:
    """Figures 6-8/6-9/6-10: sweeps with run-time bandwidth variation.

    Routes are computed from the *nominal* demands (that is the whole point:
    the estimates are now wrong at run time) while the injection processes
    are modulated within ``±variation_fraction``.
    """
    config = config or ExperimentConfig()
    varied = config.with_variation(variation_fraction)
    figure = {0.10: "Figure 6-8", 0.25: "Figure 6-9", 0.50: "Figure 6-10"}.get(
        round(variation_fraction, 2),
        f"Variation sweep ({variation_fraction:.0%})",
    )
    result = figure_throughput_latency(
        workload, varied, algorithms=algorithms, figure_name=figure,
        runner=runner,
    )
    claim_key = figure.replace("Figure ", "")
    result.claim = PAPER_FIGURE_CLAIMS.get(claim_key, result.claim)
    return result
