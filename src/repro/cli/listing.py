"""Registry listings shared by ``python -m repro list`` and ``--list-*``.

Every listable vocabulary — routing algorithms, application workloads,
simulator backends, synthetic traffic patterns, execution backends — is one
:class:`repro.registry.Registry`, rendered here by one function from the
spec listing the execution paths resolve names through, so a listing can
never drift from what the engines accept.  The ``--list-*`` flags and the
``list`` subcommand print byte-identical output because both call
:func:`render_listing`; ``--list-workloads`` prints what a ``--workload``
option accepts, which is two of these listings (see
:func:`workload_vocabulary`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple

from ..exceptions import ExperimentError
from ..registry import Spec
from ..routing.registry import router_specs
from ..runner.backends import DEFAULT_EXECUTION, execution_specs
from ..simulator.backends import DEFAULT_BACKEND, backend_specs
from ..traffic.synthetic import available_pattern_names, pattern_specs
from ..workloads.registry import available_workloads, workload_specs


class _Listing(NamedTuple):
    heading: str
    specs: Callable[[], List[Spec]]
    #: column widths of the canonical and the display name
    widths: tuple = (14, 14)
    #: per-row suffix, e.g. the ``[default]`` marker
    markers: Callable[[Spec], str] = lambda spec: ""
    footer: str = ""


def _backend_markers(spec) -> str:
    return (" [default]" if spec.name == DEFAULT_BACKEND else "") + \
        (" [batches sweeps]" if spec.supports_batching else "")


_LISTINGS: Dict[str, _Listing] = {
    "routers": _Listing("registered routing algorithms:", router_specs),
    "workloads": _Listing("registered application workloads:",
                          workload_specs, widths=(18, 22)),
    "backends": _Listing(
        "registered simulator backends (all bit-identical; the choice "
        "affects speed only):", backend_specs, markers=_backend_markers),
    "patterns": _Listing(
        "synthetic traffic patterns (any power-of-two topology):",
        pattern_specs,
        footer="(every registered application workload also works as a "
               "pattern; see `list workloads`)"),
    "executions": _Listing(
        "registered execution backends (where cache-miss points run; "
        "results are identical on every backend):", execution_specs,
        markers=lambda spec: " [default]"
        if spec.name == DEFAULT_EXECUTION else ""),
}

#: The listable vocabularies, in help order.
LIST_KINDS = tuple(_LISTINGS)


def render_listing(kind: str) -> str:
    """The listing for one vocabulary; raises on unknown kinds."""
    key = kind.strip().lower()
    if key not in _LISTINGS:
        raise ExperimentError(
            f"unknown listing {kind!r}; accepted: {', '.join(LIST_KINDS)}"
        )
    listing = _LISTINGS[key]
    name_width, display_width = listing.widths
    lines = [listing.heading]
    for spec in listing.specs():
        aliases = f" (aliases: {', '.join(spec.aliases)})" if spec.aliases \
            else ""
        lines.append(f"  {spec.name:<{name_width}} "
                     f"{spec.display_name:<{display_width}} "
                     f"{spec.summary}{aliases}{listing.markers(spec)}")
    if listing.footer:
        lines.append(listing.footer)
    return "\n".join(lines)


def workload_vocabulary() -> List[str]:
    """Every canonical name a ``--workload`` / ``patterns:`` entry resolves
    to (:func:`repro.planning.canonical_pattern`): the synthetic patterns,
    then the registered workloads."""
    return available_pattern_names() + available_workloads()
