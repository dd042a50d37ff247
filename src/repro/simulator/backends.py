"""The simulator-backend registry: every kernel behind one named factory.

The simulator is the system's innermost loop — every sweep point of every
figure, saturation search and workload replay runs through it — so the
kernel executing a run is a first-class, **pluggable** choice, exactly like
the routing algorithm is in :mod:`repro.routing.registry` (whose design this
module mirrors: canonical slugs, aliases, duplicate rejection, did-you-mean
errors, docs metadata).

The backend contract
--------------------

A backend is a factory (normally a class) with the constructor signature

``factory(topology, route_set, config, injection, phase_boundaries=None)``

returning a *kernel* object exposing

* ``step() -> int`` — advance one cycle, return flits moved;
* ``run(max_cycles=None) -> SimulationStatistics`` — warm-up + measurement
  (or *max_cycles*), stopping early when ``deadlock_suspected`` trips;
* ``statistics() -> SimulationStatistics`` — the aggregate counters, valid
  at any cycle;
* ``cycle`` / ``in_flight_flits`` / ``deadlock_suspected`` — read-only
  progress properties;
* ``flit_audit() -> dict`` / ``conservation_violations() -> list[str]`` —
  the conservation ledger the invariant suite checks;
* ``occupancy_snapshot() -> dict`` — flits buffered per channel label.

**Every backend must be bit-identical**: same inputs (topology, routes,
configuration, injection seed) must produce field-for-field identical
statistics and audit ledgers, because simulation results are cached under a
backend-*invariant* content key
(:func:`repro.runner.fingerprint.simulation_cache_key` deliberately excludes
``SimulationConfig.backend``).  A backend that changed results would poison
the shared cache; the differential suite
(``tests/test_backend_differential.py``) enforces the contract across every
registered router, topology and workload family.

Two kernels ship:

* ``reference`` — :class:`~repro.simulator.network.NetworkSimulator`, the
  staged structure-of-arrays kernel (semantic ground truth);
* ``fast`` (default) — :class:`~repro.simulator.fastsim.FastSimulator`, the
  event-skipping kernel with active-buffer worklists and one four-integer
  packet window per buffer.

New backends plug in with one decorator::

    @register_backend("my-kernel", summary="...")
    class MyKernel:
        def __init__(self, topology, route_set, config, injection,
                     phase_boundaries=None): ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..exceptions import SimulationError
from ..registry import Registry, Spec
from ..routing.base import RouteSet
from ..topology.base import Topology
from .config import SimulationConfig
from .batchsim import BatchSimulator
from .fastsim import FastSimulator
from .injection import InjectionProcess
from .network import NetworkSimulator

#: The backend used when neither the call site nor the configuration names
#: one.  ``SimulationConfig.backend`` defaults to this value.
DEFAULT_BACKEND = "fast"


@dataclass(frozen=True)
class BackendSpec(Spec):
    """One registered simulator backend: a :class:`~repro.registry.Spec`
    whose factory has the backend constructor signature (see the module
    docstring's contract).

    Attributes
    ----------
    mechanism:
        A paragraph describing how the kernel achieves its performance
        (architecture-doc source).
    supports_batching:
        True when the factory also exposes ``for_lanes(topology,
        route_set, configs, injections, phase_boundaries=None,
        fault_schedules=None)``, simulating many sweep points sharing one
        (topology, route set) pair in a single call.  The runner groups
        cache-miss points into such calls
        (:func:`repro.simulator.simulation.simulate_route_set_batch`);
        per-point results and cache keys are unchanged.
    """

    mechanism: str = ""
    supports_batching: bool = False

    def create(self, topology: Topology, route_set: RouteSet,
               config: SimulationConfig, injection: InjectionProcess,
               phase_boundaries: Optional[Dict[str, int]] = None,
               fault_schedule=None):
        """Instantiate the kernel for one simulation run.

        ``fault_schedule`` (a :class:`~repro.faults.FailureSchedule` of
        cycle-stamped link failures) is only forwarded when non-empty, so
        backends that predate the fault model keep working fault-free.
        """
        if fault_schedule:
            return self.factory(topology, route_set, config, injection,
                                phase_boundaries=phase_boundaries,
                                fault_schedule=fault_schedule)
        return self.factory(topology, route_set, config, injection,
                            phase_boundaries=phase_boundaries)


#: The registry instance.  Module-level so every layer (simulation driver,
#: runner, compare, CLIs, benchmarks, docs generator) sees the same kernels.
_BACKENDS: Registry[BackendSpec] = Registry(
    BackendSpec, kind="simulator backend", plural="backends",
    noun="simulator backend name", error=SimulationError,
)

#: ``@register_backend(name, display_name=, aliases=, summary=, mechanism=,
#: supports_batching=)`` — :meth:`Registry.register` on a kernel class; a
#: clashing name would make ``SimulationConfig.backend`` ambiguous and
#: raises :class:`SimulationError`.
register_backend = _BACKENDS.register
#: Canonical names of every registered backend, in registration order.
available_backends = _BACKENDS.names
#: Every registered :class:`BackendSpec`, in registration order.
backend_specs = _BACKENDS.specs
#: Look a spec up by canonical name, alias or display name.
backend_spec = _BACKENDS.lookup


def create_simulator(topology: Topology, route_set: RouteSet,
                     config: SimulationConfig, injection: InjectionProcess,
                     phase_boundaries: Optional[Dict[str, int]] = None,
                     backend: Optional[str] = None,
                     fault_schedule=None):
    """Build the simulation kernel a run asks for.

    The backend is resolved from the explicit *backend* argument when given,
    otherwise from ``config.backend``; either accepts any registered name or
    alias.  This is the single construction point the simulation driver,
    the trace capture/replay helpers and the profiling CLI all go through,
    so ``SimulationConfig.backend`` selects the kernel everywhere at once.
    An optional non-empty *fault_schedule* arms mid-run link failures.
    """
    spec = backend_spec(backend if backend is not None else config.backend)
    return spec.create(topology, route_set, config, injection,
                       phase_boundaries=phase_boundaries,
                       fault_schedule=fault_schedule)


# ----------------------------------------------------------------------
# the built-in kernels
# ----------------------------------------------------------------------
register_backend(
    "reference",
    display_name="Reference",
    aliases=("ref", "staged"),
    summary="The staged structure-of-arrays kernel; the semantic ground "
            "truth every other backend is verified against.",
    mechanism=(
        "Explicit pipeline stages (inject, eject, VC-allocate, "
        "switch-arbitrate, link-traverse) over a SimulatorState "
        "structure-of-arrays object; per-cycle scans proportional to the "
        "occupied-buffer set."
    ),
)(NetworkSimulator)

register_backend(
    "fast",
    display_name="Fast",
    aliases=("event-skipping", "worklist"),
    summary="Event-skipping kernel: active-buffer worklists, four-integer "
            "packet windows and precomputed per-hop tables; bit-identical "
            "to reference.",
    mechanism=(
        "Maintains incremental worklists of ejection-ready and "
        "advance-ready buffers plus active source nodes, so idle "
        "(channel, VC) slots and silent sources cost zero per cycle; a "
        "buffer is one window of its owning packet's flit train (packet "
        "id, hop, window start, flit count) and no flit is ever encoded."
    ),
)(FastSimulator)

register_backend(
    "batch",
    display_name="Batch",
    aliases=("vectorized", "numpy"),
    summary="Vectorized numpy kernel simulating many sweep points at once "
            "over one lane-batched state tensor; bit-identical to "
            "reference (requires numpy).",
    mechanism=(
        "Folds a point-batch axis (rates, VC counts or seeds varying per "
        "lane over shared topology and routes) into one flat "
        "structure-of-arrays buffer arena; eject, VC-allocate, "
        "switch-arbitrate and link-traverse run as grouped numpy segment "
        "kernels over all lanes' active buffers per cycle, Bernoulli "
        "arrival draws are bulk-precomputed from the transplanted "
        "Mersenne-Twister state, and deadlocked or faulted lanes are "
        "masked out without disturbing their batch mates."
    ),
    supports_batching=True,
)(BatchSimulator)
