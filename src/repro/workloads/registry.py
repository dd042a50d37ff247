"""The workload registry: every application task graph behind one named factory.

Mirrors :mod:`repro.routing.registry`: a workload is registered once, under a
canonical slug, together with the metadata the documentation generator and
the comparison engine consume.  Every ``patterns:`` / ``--workload`` name
(:func:`repro.planning.pattern_flow_set` looks here first, then among the
synthetic patterns) and the generated ``docs/workloads-guide.md`` resolve
through this module, so adding an application with one decorator makes it
available everywhere::

    @register_workload("my-app", display_name="MyApp",
                       summary="...", description="...")
    def _make_my_app(*, stages: int = 4) -> AppGraph:
        ...

Factories return :class:`~repro.workloads.appgraph.AppGraph` objects in
logical task space; :func:`workload_flow_set` additionally places the tasks
onto a topology, which is the form the route selectors consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..exceptions import TrafficError
from ..registry import Registry, Spec
from ..topology.base import Topology
from ..traffic.flow import FlowSet
from .appgraph import AppGraph


@dataclass(frozen=True)
class WorkloadSpec(Spec):
    """One registered application workload: a :class:`~repro.registry.Spec`
    whose factory returns a fresh :class:`AppGraph`.

    Attributes
    ----------
    description:
        A paragraph for the generated workloads guide: what the application
        models and what traffic structure it produces.
    default_mapping:
        The mapping strategy used when the caller does not choose one
        (``"block"`` keeps pipelines compact; ``"spread"`` stresses long
        routes).
    """

    description: str = ""
    default_mapping: str = "block"


#: The registry instance.
_WORKLOADS: Registry[WorkloadSpec] = Registry(
    WorkloadSpec, kind="workload", plural="workloads", noun="workload name",
    error=TrafficError,
)

#: ``@register_workload(name, display_name=, aliases=, summary=,
#: description=, default_mapping=)`` — :meth:`Registry.register`; a clashing
#: name, alias or display name raises :class:`TrafficError`.
register_workload = _WORKLOADS.register
#: Canonical names of every registered workload, in registration order.
available_workloads = _WORKLOADS.names
#: Every registered :class:`WorkloadSpec`, in registration order.
workload_specs = _WORKLOADS.specs
#: Whether a name resolves to a registered workload (aliases included).
is_registered_workload = _WORKLOADS.is_registered
#: Look a spec up by canonical name, alias or display name.
workload_spec = _WORKLOADS.lookup
#: ``create_workload(name, **options)`` — a registered workload's task
#: graph; options its factory does not declare are dropped, so one option
#: bag can parameterise a heterogeneous workload sweep.
create_workload = _WORKLOADS.create


def workload_flow_set(name: str, topology: Topology,
                      strategy: Optional[str] = None,
                      origin: Tuple[int, int] = (0, 0),
                      seed: Optional[int] = None,
                      **options) -> FlowSet:
    """Build a registered workload and place it onto *topology*.

    The returned physical flow set is what the route selectors consume —
    BSOR's bandwidth allocation then runs on the application's own flow
    graph.  ``strategy`` defaults to the spec's ``default_mapping``.
    """
    spec = workload_spec(name)
    graph = spec.create(**options)
    return graph.mapped_onto(
        topology,
        strategy=strategy or spec.default_mapping,
        origin=origin,
        seed=seed,
    )


# ----------------------------------------------------------------------
# documentation rendering (consumed by scripts/gen_api_docs.py)
# ----------------------------------------------------------------------
def render_workloads_guide() -> str:
    """Render ``docs/workloads-guide.md`` from the registry metadata.

    One section per registered workload: what it models, its task/flow
    structure and its factory options.  Regenerated by ``make docs``; CI
    fails when the committed guide is stale.
    """
    lines = [
        "# Workloads guide",
        "",
        "<!-- Generated by scripts/gen_api_docs.py from "
        "repro.workloads.registry — do not edit by hand. -->",
        "",
        "Every application workload is registered in "
        "`repro.workloads.registry` under a canonical name and can be built "
        "with `create_workload(name, **options)` (the logical task graph) "
        "or `workload_flow_set(name, topology, ...)` (the placed flow set "
        "the route selectors consume).  The comparison engine "
        "(`python -m repro compare --workloads ...`) and this guide are "
        "both driven by that registry, so the table below is always the "
        "full set.  See `docs/tutorial.md` for defining your own "
        "`AppGraph`.",
        "",
        "| Name | Aliases | Tasks | Flows | Default mapping | Summary |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for spec in workload_specs():
        graph = spec.create()
        aliases = ", ".join(f"`{alias}`" for alias in spec.aliases) or "-"
        lines.append(
            f"| `{spec.name}` | {aliases} | {graph.num_tasks} | "
            f"{graph.num_flows} | `{spec.default_mapping}` | {spec.summary} |"
        )
    for spec in workload_specs():
        graph = spec.create()
        options = ", ".join(f"`{option}`" for option in spec.accepted_options())
        lines.extend([
            "",
            f"## {spec.display_name} (`{spec.name}`)",
            "",
            spec.summary,
            "",
            spec.description,
            "",
            f"**Structure:** {graph.num_tasks} tasks, {graph.num_flows} "
            f"flows, total demand {graph.total_demand():g}.  "
            f"**Factory options:** {options or 'none'}.",
        ])
    lines.append("")
    return "\n".join(lines)
