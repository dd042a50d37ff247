"""Cycle-accurate wormhole virtual-channel NoC simulator.

Public entry points, lowest to highest level:

* :class:`Packet` / :class:`Flit` — the wormhole data units;
* :class:`SimulationConfig` — every knob of a run (VCs, buffer depths,
  cycle counts, seeds, bandwidth variation);
* :class:`BernoulliInjection` / :class:`ModulatedInjection` /
  :func:`make_injection_process` — offered-load processes, drawn once per
  cycle in a single batched call;
* :class:`SimulatorState` + :mod:`repro.simulator.stages` — the
  structure-of-arrays state and the explicit pipeline stages (inject,
  eject, VC-allocate, switch-arbitrate, link-traverse) of the reference
  kernel;
* :class:`NetworkSimulator` — the ``reference`` backend: one routing
  configuration under one injection process, simulated cycle by cycle over
  flat per-(channel, VC) arrays;
* :class:`FastSimulator` — the ``fast`` backend (the default):
  event-skipping worklists and four-integer packet windows, bit-identical
  to the reference;
* :func:`create_simulator` / :func:`register_backend` /
  :func:`backend_spec` / :func:`available_backends` — the pluggable
  backend registry (``SimulationConfig.backend`` selects the kernel);
* :func:`simulate_route_set` / :func:`sweep_injection_rates` /
  :func:`sweep_algorithm` / :func:`compare_algorithms` — the serial driver
  functions (one point, one sweep, one figure's worth of sweeps).

For parallel, cached sweeps use :class:`repro.runner.ExperimentRunner`,
which wraps these same entry points and returns identical results
regardless of worker count *and* backend (cache keys are
backend-invariant because backends are bit-identical).
"""

from .backends import (
    BackendSpec,
    available_backends,
    backend_spec,
    backend_specs,
    create_simulator,
    register_backend,
)
from .batchsim import BatchSimulator
from .config import SimulationConfig
from .fastsim import FastSimulator
from .injection import (
    BernoulliInjection,
    InjectionProcess,
    ModulatedInjection,
    injection_trace,
    make_injection_process,
)
from .network import NetworkSimulator
from .packet import Flit, Packet
from .simulation import (
    SweepResult,
    compare_algorithms,
    phase_boundaries_for,
    phase_boundaries_from_intermediates,
    simulate_route_set,
    simulate_route_set_batch,
    sweep_algorithm,
    sweep_injection_rates,
)
from .state import SimulatorState, build_state

__all__ = [
    "BackendSpec",
    "BatchSimulator",
    "BernoulliInjection",
    "FastSimulator",
    "Flit",
    "InjectionProcess",
    "ModulatedInjection",
    "NetworkSimulator",
    "Packet",
    "SimulationConfig",
    "SimulatorState",
    "SweepResult",
    "available_backends",
    "backend_spec",
    "backend_specs",
    "build_state",
    "compare_algorithms",
    "create_simulator",
    "injection_trace",
    "make_injection_process",
    "phase_boundaries_for",
    "phase_boundaries_from_intermediates",
    "register_backend",
    "simulate_route_set",
    "simulate_route_set_batch",
    "sweep_algorithm",
    "sweep_injection_rates",
]
