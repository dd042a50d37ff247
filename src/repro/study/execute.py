"""Study execution: one path from a declarative spec to a :class:`ResultSet`.

:func:`run_scenario` is the one place a sweep description becomes simulation
points and tagged rows.  Study files (:func:`run_study`, behind
:meth:`repro.study.spec.Study.run` and ``python -m repro run``), the paper's
figures (:func:`repro.experiments.figures.run_figure`) and the ``sweep``
command all hand it a :class:`~repro.study.spec.Scenario`:

* ``sweep`` scenarios fan (topology x pattern x router x VC count x rate)
  points through :meth:`ExperimentRunner.sweep_many` — routes planned once
  per router (and, through the runner's cache, once across runs) and
  reused across VC counts, ``SimulationConfig.with_vcs`` per count — so
  ``examples/studies/figure_6_7.yaml`` and ``python -m repro figure 6-7``
  are the same points under the same cache keys;
* ``saturate`` scenarios drive the :class:`~repro.compare.matrix.CompareMatrix`
  adaptive saturation search per cell; its rows are tagged and projected
  onto :data:`SATURATE_COLUMNS`, and a fault axis adds the
  :func:`~repro.study.resultset.degradation` table to the report.

Both produce tagged rows in one :class:`~repro.study.resultset.ResultSet`,
which is what the reports render and the CLI exports.
:func:`resolve_config` is likewise the one place CLI options and a study's
:class:`~repro.study.spec.ExecutionPolicy` become an
:class:`~repro.experiments.config.ExperimentConfig`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..compare.saturation import SaturationCriteria
from ..exceptions import ReproError, StudyError
from ..experiments.config import ExperimentConfig
from ..planning import canonical_pattern as validate_pattern  # re-exported
from ..planning import plan_matrix
from ..runner.engine import ExperimentRunner, RunnerReport, SweepSpec, runner_for
from .resultset import ResultSet, degradation
from .spec import Scenario, Study

#: Column order of sweep-mode result rows.
SWEEP_COLUMNS = (
    "scenario", "mode", "topology", "pattern", "router", "display_name",
    "vcs", "faults", "offered_rate", "throughput", "average_latency",
    "delivery_ratio", "p99_latency", "max_channel_load", "average_hops",
)

#: Column order of saturate-mode result rows.
SATURATE_COLUMNS = (
    "scenario", "mode", "topology", "pattern", "router", "display_name",
    "faults", "saturation_rate", "saturated_within_range",
    "saturation_throughput", "low_load_latency", "p99_latency",
    "max_channel_load", "average_hops", "sim_points",
)


@dataclass
class StudyResult:
    """Everything one :meth:`Study.run` produced."""

    study: Study
    results: ResultSet
    report: RunnerReport
    config: ExperimentConfig
    #: The profile actually executed (policy profile unless overridden).
    profile: str = "default"

    # ------------------------------------------------------------------
    def render_markdown(self) -> str:
        """The study's results as a markdown document.

        Deliberately free of wall-clock times, worker counts and cache-hit
        ratios so the rendering is deterministic — run bookkeeping goes to
        stderr in the CLI (and lives in :attr:`report`).
        """
        lines: List[str] = [f"# Study: {self.study.name}", ""]
        if self.study.description:
            lines.extend([self.study.description, ""])
        lines.append(f"Profile `{self.config_profile()}`, "
                     f"{len(self.study.scenarios)} scenario(s), "
                     f"{len(self.results)} result row(s).")
        for (scenario, mode, topology, pattern), group in \
                self.results.group("scenario", "mode", "topology", "pattern"):
            lines.extend(["", f"## {scenario}: {topology} / {pattern} "
                              f"({mode})", ""])
            if mode == "saturate":
                columns = [column for column in SATURATE_COLUMNS
                           if column not in ("scenario", "mode", "topology",
                                             "pattern", "router")]
            else:
                columns = [column for column in SWEEP_COLUMNS
                           if column not in ("scenario", "mode", "topology",
                                             "pattern", "router")]
                if len(group.distinct("vcs")) == 1:
                    columns.remove("vcs")
            # the faults column only earns its width when the group
            # actually ran under faults
            if set(group.distinct("faults")) <= {"none"}:
                columns.remove("faults")
            lines.append(group.to_markdown(columns=["display_name"] + [
                column for column in columns if column != "display_name"
            ]))
        degraded = degradation(self.results.filter(mode="saturate"))
        if degraded:
            lines.extend(["", "## Degradation under faults", "",
                          degraded.to_markdown()])
        lines.append("")
        return "\n".join(lines)

    def config_profile(self) -> str:
        return self.profile

    def to_json(self, indent: int = 2) -> str:
        """Study spec + result rows as one JSON document."""
        import json

        return json.dumps(
            {"study": self.study.to_dict(),
             "rows": self.results.rows},
            indent=indent, sort_keys=True,
        )

    def to_csv(self) -> str:
        return self.results.to_csv()


def resolve_config(study: Study, *, workers: Optional[int] = None,
                   cache: Optional[bool] = None,
                   cache_dir: Optional[str] = None,
                   shared_cache_dir: Optional[str] = None,
                   backend: Optional[str] = None,
                   profile: Optional[str] = None,
                   execution: Optional[str] = None,
                   queue_dir: Optional[str] = None) -> ExperimentConfig:
    """The :class:`ExperimentConfig` a study (plus overrides) asks for.

    Every CLI subcommand resolves its shared options here (the ones without
    a study file pass a default-policy study), so a misspelt backend fails
    with the registry's did-you-mean error even when every point would be a
    warm-cache hit, and ``--execution`` / ``--shared-cache-dir`` /
    ``--queue-dir`` reach every command alike.
    """
    policy = study.policy
    chosen_profile = profile if profile is not None else policy.profile
    try:
        config = ExperimentConfig.from_profile(chosen_profile)
    except ReproError as error:
        raise StudyError(str(error)) from error
    config = dataclasses.replace(
        config,
        workers=workers if workers is not None else policy.workers,
        use_cache=cache if cache is not None else policy.cache,
        cache_dir=cache_dir if cache_dir is not None else policy.cache_dir,
        shared_cache_dir=shared_cache_dir,
        execution=execution,
        queue_dir=queue_dir,
    )
    chosen_backend = backend if backend is not None else policy.backend
    if chosen_backend:
        from ..simulator.backends import backend_spec

        config = config.with_backend(backend_spec(chosen_backend).name)
    return config


def _scenario_config(scenario: Scenario,
                     config: ExperimentConfig) -> ExperimentConfig:
    updates: Dict = {}
    if scenario.mapping is not None:
        updates["mapping_strategy"] = scenario.mapping
    if scenario.seed is not None:
        updates["seed"] = scenario.seed
    return dataclasses.replace(config, **updates) if updates else config


def _scenario_topologies(scenario: Scenario,
                         config: ExperimentConfig) -> List[str]:
    if scenario.topologies:
        return list(scenario.topologies)
    return [f"mesh{config.mesh_size}x{config.mesh_size}"]


def _run_sweep_scenario(scenario: Scenario, config: ExperimentConfig,
                        runner: ExperimentRunner
                        ) -> Tuple[List[Dict], RunnerReport]:
    """Simulate every scenario point through one ``sweep_many`` batch.

    One route set per (topology, pattern, router, fault set) reused across
    VC counts, the profile's rate schedule when the scenario does not pin
    one, and ``SimulationConfig.with_vcs`` per VC count.
    """
    rates = list(scenario.rates) if scenario.rates else \
        list(config.offered_rates)
    vc_counts: Tuple[Optional[int], ...] = scenario.vcs or (None,)

    specs: Dict[str, SweepSpec] = {}
    meta: Dict[str, Dict] = {}
    for topology_name, pattern, tags, plan in plan_matrix(
            _scenario_topologies(scenario, config), scenario.patterns,
            scenario.routers, scenario.faults, config,
            cache=runner.cache, observer=runner.observer):
        for vcs in vc_counts:
            simulation = config.simulation if vcs is None \
                else config.simulation.with_vcs(vcs)
            key = (f"{topology_name}|{pattern}|{tags['router']}|"
                   f"{vcs}|{tags['faults']}")
            specs[key] = SweepSpec(
                plan.topology, plan.route_set, simulation, rates,
                workload=pattern,
                phase_boundaries=plan.phase_boundaries or None,
                fault_schedule=plan.schedule or None,
            )
            meta[key] = {
                **tags,
                "vcs": vcs if vcs is not None else simulation.num_vcs,
            }
    results = runner.sweep_many(specs)

    rows: List[Dict] = []
    for key, sweep in results.items():
        for rate, stats in zip(rates, sweep.statistics):
            rows.append({
                "scenario": scenario.name,
                "mode": "sweep",
                **meta[key],
                "offered_rate": rate,
                "throughput": stats.throughput,
                "average_latency": stats.average_latency,
                "delivery_ratio": stats.delivery_ratio,
                "p99_latency": stats.latency_percentile(0.99),
            })
    return rows, runner.last_report


def _run_saturate_scenario(scenario: Scenario, config: ExperimentConfig,
                           runner: ExperimentRunner
                           ) -> Tuple[ResultSet, RunnerReport]:
    """Adaptive saturation search per cell, through the comparison engine."""
    # the engine returns this package's ResultSet, so it loads late
    from ..compare.matrix import CompareMatrix

    criteria = SaturationCriteria.bounded(
        scenario.min_rate, scenario.max_rate, scenario.resolution)
    matrix = CompareMatrix(config=config, criteria=criteria, runner=runner)
    cells, report = matrix.run(_scenario_topologies(scenario, config),
                               list(scenario.patterns),
                               list(scenario.routers),
                               fault_sets=list(scenario.faults) or None)
    tagged = ResultSet([{"scenario": scenario.name, "mode": "saturate", **row}
                        for row in cells])
    return tagged.select(*SATURATE_COLUMNS), report


def run_scenario(scenario: Scenario, config: ExperimentConfig,
                 runner: ExperimentRunner) -> Tuple[ResultSet, RunnerReport]:
    """Execute one scenario on *runner*: its tagged rows and what they cost.

    *config* is the resolved execution configuration; the scenario's own
    ``mapping`` / ``seed`` overrides are applied on top of it here.
    """
    config = _scenario_config(scenario, config)
    if scenario.mode == "saturate":
        return _run_saturate_scenario(scenario, config, runner)
    rows, report = _run_sweep_scenario(scenario, config, runner)
    return ResultSet(rows, columns=SWEEP_COLUMNS), report


def run_study(study: Study, *, workers: Optional[int] = None,
              cache: Optional[bool] = None,
              cache_dir: Optional[str] = None,
              shared_cache_dir: Optional[str] = None,
              backend: Optional[str] = None,
              profile: Optional[str] = None,
              execution: Optional[str] = None,
              queue_dir: Optional[str] = None,
              runner: Optional[ExperimentRunner] = None,
              observer=None) -> StudyResult:
    """Validate and execute *study*; the engine behind :meth:`Study.run`.

    An *observer* (:class:`~repro.progress.ProgressObserver`) is attached
    to the runner and receives the typed progress-event stream of every
    scenario — sweep batches and saturation rounds alike.  ``execution``
    selects the execution backend for cache-miss points ("local" pool or
    the distributed "queue"); ``shared_cache_dir`` layers the runner's
    result cache over a deployment-shared directory
    (:mod:`repro.runner.cache`).
    """
    study.validate()
    config = resolve_config(study, workers=workers, cache=cache,
                            cache_dir=cache_dir,
                            shared_cache_dir=shared_cache_dir,
                            backend=backend, profile=profile,
                            execution=execution, queue_dir=queue_dir)
    runner = runner or runner_for(config)
    if observer is not None:
        runner.observer = observer
    report = RunnerReport(workers=runner.workers)
    results = ResultSet([])
    for scenario in study.scenarios:
        scenario_results, scenario_report = run_scenario(scenario, config,
                                                         runner)
        results = results.merged(scenario_results)
        report.merge(scenario_report)
    return StudyResult(
        study=study,
        results=results,
        report=report,
        config=config,
        profile=profile if profile is not None else study.policy.profile,
    )
