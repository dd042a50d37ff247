"""The simulator-backend registry: every kernel behind one named factory.

The simulator is the system's innermost loop — every sweep point of every
figure and saturation search runs through it — so the
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

Three kernels ship:

* ``reference`` — :class:`~repro.simulator.network.NetworkSimulator`, the
  staged structure-of-arrays kernel (semantic ground truth);
* ``fast`` — :class:`~repro.simulator.fastsim.FastSimulator`, the
  event-skipping kernel with active-buffer worklists and one four-integer
  packet window per buffer;
* ``batch`` — :class:`~repro.simulator.batchsim.BatchSimulator`, the
  vectorized numpy kernel that steps many sweep points of one (topology,
  route set) pair together.

What runs by default
--------------------

A configuration whose ``backend`` is left unset (``None``) runs by the
**width rule**: the runner groups its cache-miss points by batch-group key
and sends every group of at least :func:`batch_min_width` points to
:data:`BATCH_BACKEND` as one vectorized call, and every narrower group and
every single point to :data:`DEFAULT_BACKEND`.  A vectorized cycle costs
about the same for one lane as for many, so ``batch`` loses to ``fast`` on
the one-point probes of a saturation search and wins on the wide groups of
a figure sweep.  The width where it starts to win shrinks as the topology
grows, so the rule is one constant in lanes times nodes,
:data:`BATCH_MIN_LANE_NODES`, beside its measured crossover.  Without
numpy, every point of an unset backend runs on ``fast``.  A named backend
is used exactly as named: ``fast`` and ``reference`` never group,
``batch`` groups at every width.

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
from . import batchsim
from .batchsim import BatchSimulator
from .config import SimulationConfig
from .fastsim import FastSimulator
from .injection import InjectionProcess
from .network import NetworkSimulator

#: The kernel a point runs on when neither the call site nor the
#: configuration names one and the point is not part of a wide group.
DEFAULT_BACKEND = "fast"

#: The kernel wide groups of points with an unset backend run on.
BATCH_BACKEND = "batch"

#: Lanes times topology nodes of the narrowest group of cache-miss points
#: an unset backend sends to :data:`BATCH_BACKEND` (see
#: :func:`batch_min_width`).  fast ÷ batch time of one group of dor on
#: transpose, by lanes (lanes vary in rate, seed and 1/2/4/8 VCs; above 1
#: batch wins; CPU-time medians of 9 runs on 4x4, 5 on 8x8, 3 on 16x16,
#: one 2-CPU x86 host, Python 3.11, numpy 2; wall-time medians agree to
#: 0.01):
#:
#: =================  ====  ====  ====  ====  ====  ====  ====  ====
#: lanes                 1     2     3     4     5     6     7     8
#: =================  ====  ====  ====  ====  ====  ====  ====  ====
#: 4x4, ``quick``     0.08  0.23  0.29  0.44  0.52  0.68  0.73  0.83
#: 8x8, ``default``   0.33  0.69  0.97  1.18  1.36  1.45  1.60  2.03
#: 16x16, ``default`` 0.61  1.11        1.80
#: =================  ====  ====  ====  ====  ====  ====  ====  ====
#:
#: =================  ====  ====  ====  ====  ====  ====  ====  ====
#: lanes                 9    10    11    12    13    14    15    16
#: =================  ====  ====  ====  ====  ====  ====  ====  ====
#: 4x4, ``quick``     0.89  0.89  0.93  1.00  1.05  1.13  1.16  1.18
#: 8x8, ``default``   1.74  1.86  2.10  1.87  1.96  1.97  1.90  2.09
#: =================  ====  ====  ====  ====  ====  ====  ====  ====
#:
#: (4x4 at 20 / 24 / 32 lanes: 1.52 / 1.65 / 1.79.)  No one lane count
#: wins with margin on both meshes without giving most of the 8x8 gain
#: away: the 4x4 mesh breaks even at 12 lanes and wins by 1.18x at 16,
#: the 8x8 mesh breaks even at 3 and wins by 1.18x at 4.  In lanes times
#: nodes both break even at about 192 and win by 1.18x at 256, which
#: makes the width 16 points on 4x4 and 4 on 8x8; the 16x16 mesh, whose
#: width is 2 by the same constant, wins there by 1.11x.
BATCH_MIN_LANE_NODES = 256


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
    otherwise from ``config.backend``, otherwise it is
    :data:`DEFAULT_BACKEND`; either accepts any registered name or alias.
    This is the single construction point the simulation driver and the
    profiling CLI both go through, so ``SimulationConfig.backend`` selects
    the kernel everywhere at once.
    An optional non-empty *fault_schedule* arms mid-run link failures.
    """
    spec = backend_spec(backend or config.backend or DEFAULT_BACKEND)
    return spec.create(topology, route_set, config, injection,
                       phase_boundaries=phase_boundaries,
                       fault_schedule=fault_schedule)


def batch_min_width(topology: Topology) -> int:
    """The narrowest group of points on *topology* the width rule sends to
    :data:`BATCH_BACKEND`: :data:`BATCH_MIN_LANE_NODES` lanes times nodes,
    and never a single point."""
    return max(2, -(-BATCH_MIN_LANE_NODES // topology.num_nodes))


def batches_by_default(config: SimulationConfig) -> bool:
    """Whether a point of *config*, its backend unset, may join a wide
    :data:`BATCH_BACKEND` group under the width rule: numpy is installed
    and the batch kernel takes its VC count."""
    return batchsim.np is not None and config.num_vcs <= batchsim.MAX_LANE_VCS


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
