#!/usr/bin/env python3
"""Quickstart: bandwidth-sensitive oblivious routing in a dozen lines.

Builds the paper's 8x8 mesh, generates the transpose traffic pattern at
25 MB/s per flow, computes routes with the baseline oblivious algorithms and
with both BSOR selectors, verifies deadlock freedom, and compares the maximum
channel load (MCL) and the simulated saturation throughput.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    BSORRouting,
    Mesh2D,
    ROMMRouting,
    ValiantRouting,
    XYRouting,
    YXRouting,
    transpose,
)
from repro.routing import analyze_virtual_networks
from repro.metrics import load_report
from repro.routing.bsor import full_strategy_set
from repro.simulator import (SimulationConfig, phase_boundaries_for,
                             sweep_algorithm)


def main() -> None:
    mesh = Mesh2D(8)
    flows = transpose(mesh.num_nodes, demand=25.0)
    print(f"workload: transpose on {mesh!r}, {len(flows)} flows, "
          f"{flows.total_demand():g} MB/s total demand\n")

    algorithms = [
        XYRouting(),
        YXRouting(),
        ROMMRouting(seed=0),
        ValiantRouting(seed=0),
        BSORRouting(selector="dijkstra", strategies=full_strategy_set(mesh)),
        BSORRouting(selector="milp", strategies=full_strategy_set(mesh),
                    milp_time_limit=30),
    ]

    # ------------------------------------------------------------------
    # offline: route computation, deadlock verification, MCL comparison
    # ------------------------------------------------------------------
    route_sets = {}
    print(f"{'algorithm':>14}  {'MCL (MB/s)':>10}  {'avg hops':>8}  deadlock-free")
    for algorithm in algorithms:
        routes = algorithm.compute_routes(mesh, flows)
        # two-phase algorithms are deadlock free only with one virtual
        # network per phase (two VCs), which is how they are simulated
        boundaries = phase_boundaries_for(algorithm, routes)
        report = analyze_virtual_networks(routes, boundaries)
        verdict = str(report.deadlock_free)
        if boundaries:
            verdict += " (2 VCs, one per phase)"
        route_sets[algorithm.name] = routes
        print(f"{algorithm.name:>14}  {routes.max_channel_load():>10g}  "
              f"{routes.average_hop_count():>8.2f}  {verdict}")

    best = route_sets["BSOR-MILP"]
    print("\nBSOR-MILP channel-load report:")
    print(load_report(best).describe(mesh))

    # ------------------------------------------------------------------
    # online: short simulated load sweep (scaled-down cycle counts)
    # ------------------------------------------------------------------
    config = SimulationConfig(num_vcs=2, warmup_cycles=200,
                              measurement_cycles=1500)
    rates = [1.0, 2.5, 5.0]
    print("\nsimulated saturation throughput (packets/cycle):")
    for name in ("XY", "BSOR-Dijkstra"):
        algorithm = next(a for a in algorithms if a.name == name)
        result = sweep_algorithm(algorithm, mesh, flows, config, rates,
                                 workload="transpose")
        print(f"  {name:>14}: {result.saturation_throughput:.2f} "
              f"(offered rates {rates})")

    print("\nExpected shape (paper, Figure 6-1 / Table 6.3): BSOR reaches an "
          "MCL of 75 MB/s versus 175 MB/s for dimension-order routing and "
          "roughly 70% higher saturation throughput.")


if __name__ == "__main__":
    main()
