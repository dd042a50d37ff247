"""The workload registry: every application task graph behind one named factory.

Mirrors :mod:`repro.routing.registry`: a workload is registered once, under a
canonical slug, together with the metadata the documentation generator and
the comparison engine consume.  The comparison CLI's ``--workloads`` axis,
``repro.experiments.workloads.workload_flow_set`` and the generated
``docs/workloads-guide.md`` all resolve names through this module, so adding
an application with one decorator makes it available everywhere::

    @register_workload("my-app", display_name="MyApp",
                       summary="...", description="...")
    def _make_my_app(*, stages: int = 4) -> AppGraph:
        ...

Factories return :class:`~repro.workloads.appgraph.AppGraph` objects in
logical task space; :func:`workload_flow_set` additionally places the tasks
onto a topology, which is the form the route selectors consume.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..exceptions import TrafficError
from ..registry import Registry, normalize_name
from ..topology.base import Topology
from ..traffic.flow import FlowSet
from .appgraph import AppGraph

WorkloadFactory = Callable[..., AppGraph]


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered application workload: its factory plus its docs.

    Attributes
    ----------
    name:
        Canonical registry slug (lower-case, dash-separated), e.g.
        ``"decoder-pipeline"``.
    factory:
        Callable returning a fresh :class:`AppGraph`.  Only keyword
        parameters the factory's signature declares are forwarded by
        :meth:`create`.
    display_name:
        The name printed in tables and figures.
    aliases:
        Alternative slugs accepted by the lookup functions.
    summary:
        One-line description for CLI listings and the API docs.
    description:
        A paragraph for the generated workloads guide: what the application
        models and what traffic structure it produces.
    default_mapping:
        The mapping strategy used when the caller does not choose one
        (``"block"`` keeps pipelines compact; ``"spread"`` stresses long
        routes).
    """

    name: str
    factory: WorkloadFactory
    display_name: str
    aliases: Tuple[str, ...] = ()
    summary: str = ""
    description: str = ""
    default_mapping: str = "block"

    def accepted_options(self) -> Tuple[str, ...]:
        """The keyword options this spec's factory understands."""
        parameters = inspect.signature(self.factory).parameters
        return tuple(
            name for name, parameter in parameters.items()
            if parameter.kind in (parameter.KEYWORD_ONLY,
                                  parameter.POSITIONAL_OR_KEYWORD)
        )

    def create(self, **options) -> AppGraph:
        """Instantiate the task graph, keeping only understood options."""
        accepted = set(self.accepted_options())
        kwargs = {name: value for name, value in options.items()
                  if name in accepted and value is not None}
        return self.factory(**kwargs)


#: The registry instance, on the shared :class:`repro.registry.Registry` core.
_WORKLOADS: Registry[WorkloadSpec] = Registry(
    kind="workload", plural="workloads", noun="workload name",
    error=TrafficError,
)

#: Canonical slug -> spec and any-accepted-slug -> canonical, aliased for
#: test fixtures that register and unregister workloads.
_REGISTRY = _WORKLOADS.specs_by_name
_ALIASES = _WORKLOADS.alias_map


def normalize_workload_name(name: str) -> str:
    """Canonical form of a workload name: lower-case, ``_`` folded to ``-``."""
    return normalize_name(name)


def register_workload(name: str, *, display_name: str,
                      aliases: Sequence[str] = (),
                      summary: str = "", description: str = "",
                      default_mapping: str = "block",
                      ) -> Callable[[WorkloadFactory], WorkloadFactory]:
    """Decorator adding an :class:`AppGraph` factory to the registry.

    Raises :class:`TrafficError` when the name, an alias or the display name
    collides with an already-registered workload.
    """

    def decorate(factory: WorkloadFactory) -> WorkloadFactory:
        spec = WorkloadSpec(
            name=normalize_name(name),
            factory=factory,
            display_name=display_name,
            aliases=tuple(normalize_name(alias) for alias in aliases),
            summary=summary,
            description=description,
            default_mapping=default_mapping,
        )
        _WORKLOADS.add(spec.name, spec,
                       extra_keys=[*spec.aliases,
                                   normalize_name(display_name)])
        return factory

    return decorate


def available_workloads() -> List[str]:
    """Canonical names of every registered workload, in registration order."""
    return _WORKLOADS.names()


def workload_specs() -> List[WorkloadSpec]:
    """Every registered spec, in registration order."""
    return _WORKLOADS.specs()


def is_registered_workload(name: str) -> bool:
    """Whether *name* resolves to a registered workload (aliases included)."""
    return _WORKLOADS.is_registered(name)


def workload_spec(name: str) -> WorkloadSpec:
    """Look a spec up by canonical name, alias or display name."""
    return _WORKLOADS.lookup(name)


def create_workload(name: str, **options) -> AppGraph:
    """Instantiate a registered workload's task graph by name.

    Options not understood by the workload's factory are silently dropped,
    so one option bag can parameterise a heterogeneous workload sweep.
    """
    return workload_spec(name).create(**options)


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
        "`AppGraph` and for capturing / replaying injection traces.",
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
