"""Invariant: flits are conserved at arbitrary stop cycles.

Every flit the simulator ever builds must, at any cycle boundary, be in
exactly one place: ejected at its destination, buffered in the network, or
waiting in its source queue — and every generated packet must be built,
backlogged, or (when source dropping is enabled) counted as dropped.  The
:meth:`NetworkSimulator.conservation_violations` ledger checks both, plus
agreement between the incremental in-flight counter and a fresh recount.

Stop cycles are drawn randomly so the invariant is exercised mid-warm-up,
mid-burst and deep into measurement, not just at the end of a run.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.routing.registry import create_router
from repro.simulator import NetworkSimulator, SimulationConfig
from repro.simulator.injection import (
    ModulatedInjection,
    make_injection_process,
)
from repro.simulator.simulation import phase_boundaries_for
from repro.topology import Mesh2D
from repro.traffic import synthetic_by_name
from repro.workloads import workload_flow_set


def _simulator(router_name: str, flows, mesh, offered_rate: float,
               seed: int, drop: bool = False,
               injection_cls=None) -> NetworkSimulator:
    config = SimulationConfig.test_scale(num_vcs=2, seed=seed,
                                         drop_when_source_full=drop)
    router = create_router(router_name, seed=seed)
    route_set = router.compute_routes(mesh, flows)
    if injection_cls is None:
        injection = make_injection_process(flows, offered_rate, seed=seed)
    else:
        injection = injection_cls(flows, offered_rate, seed=seed)
    return NetworkSimulator(
        mesh, route_set, config, injection,
        phase_boundaries=phase_boundaries_for(router, route_set),
    )


@given(router_name=st.sampled_from(("dor", "o1turn", "bsor-dijkstra")),
       pattern=st.sampled_from(("transpose", "shuffle")),
       offered_rate=st.floats(0.25, 6.0),
       seed=st.integers(0, 10_000),
       stops=st.lists(st.integers(0, 600), min_size=1, max_size=4))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_flit_conservation_at_arbitrary_stop_cycles(router_name, pattern,
                                                    offered_rate, seed, stops):
    mesh = Mesh2D(4)
    flows = synthetic_by_name(pattern, mesh.num_nodes, demand=25.0)
    simulator = _simulator(router_name, flows, mesh, offered_rate, seed)
    for stop in sorted(stops):
        while simulator.cycle < stop:
            simulator.step()
        violations = simulator.conservation_violations()
        assert not violations, violations


@pytest.mark.parametrize("drop", [False, True])
def test_flit_conservation_under_source_drops_and_overload(drop):
    mesh = Mesh2D(4)
    flows = synthetic_by_name("transpose", mesh.num_nodes, demand=25.0)
    simulator = _simulator("dor", flows, mesh, offered_rate=12.0, seed=3,
                           drop=drop)
    for _ in range(400):
        simulator.step()
        violations = simulator.conservation_violations()
        assert not violations, violations
    audit = simulator.flit_audit()
    if drop:
        assert audit["packets_dropped"] > 0  # overload actually dropped
    else:
        assert audit["packets_dropped"] == 0


def test_flit_conservation_with_bursty_workload_injection():
    mesh = Mesh2D(4)
    flows = workload_flow_set("decoder-pipeline", mesh)

    def bursty(flow_set, offered_rate, seed):
        # each flow's rate swings between about 0x and 2x its demand share
        return ModulatedInjection(flow_set, offered_rate, 1.0,
                                  mean_dwell_cycles=40, seed=seed)

    simulator = _simulator("bsor-dijkstra", flows, mesh, offered_rate=2.0,
                           seed=7, injection_cls=bursty)
    for stop in (13, 57, 250, 700):
        while simulator.cycle < stop:
            simulator.step()
        violations = simulator.conservation_violations()
        assert not violations, violations


def test_audit_totals_match_final_statistics():
    mesh = Mesh2D(4)
    flows = synthetic_by_name("transpose", mesh.num_nodes, demand=25.0)
    simulator = _simulator("dor", flows, mesh, offered_rate=1.0, seed=11)
    stats = simulator.run()
    audit = simulator.flit_audit()
    assert not simulator.conservation_violations()
    # every measured delivery is part of the total ejection count
    assert audit["flits_ejected"] >= stats.flits_delivered
    assert audit["packets_generated"] >= stats.packets_injected
