"""Ablation: minimal versus non-minimal routing (the hop-count bound).

The MILP's hop constraint (Section 3.5) is the paper's mechanism for trading
path length against load balance: ``hop_i`` equal to the minimal path length
restricts BSOR to minimal routes, and "should be incremented by 2 or more to
allow for non-minimal routing".  This ablation solves the same workloads with
hop slack 0, 2 and 4 and records the MCL / average-hop trade-off.

A second ablation covers the Dijkstra selector's rip-up-and-reroute
refinement passes, which the framework exposes on top of the paper's
single-pass heuristic.
"""

from bench_utils import bench_config, bench_workload, emit

from repro.cdg import TurnModel, turn_model_cdg
from repro.flowgraph import FlowGraph
from repro.routing import DijkstraSelector, MILPSelector, ResidualCapacityWeight
from repro.routing.bsor import ad_hoc_strategy
from repro.study import ResultSet


def hop_slack_ablation(config):
    rows = []
    for workload in ("perf-modeling", "transpose"):
        mesh, flows = bench_workload(workload, config)
        # the ad hoc CDG that reaches the transpose optimum in Table 6.1
        cdg = ad_hoc_strategy(2).build(mesh)
        for slack in (0, 2, 4):
            flow_graph = FlowGraph(cdg)
            flow_graph.add_flow_terminals(flows)
            selector = MILPSelector(flow_graph, hop_slack=slack,
                                    time_limit=config.milp_time_limit)
            routes = selector.select_routes(flows)
            rows.append({"workload": workload, "hop slack": slack,
                         "MCL": routes.max_channel_load(),
                         "avg hops": routes.average_hop_count()})
    return ResultSet(rows)


def refinement_ablation(config):
    mesh, flows = bench_workload("transpose", config)
    rows = []
    for passes in (0, 1, 2):
        cdg = turn_model_cdg(mesh, TurnModel.WEST_FIRST)
        flow_graph = FlowGraph(cdg)
        flow_graph.add_flow_terminals(flows)
        selector = DijkstraSelector(
            flow_graph, weight=ResidualCapacityWeight(flows),
            order="demand-descending", refine_passes=passes,
        )
        routes = selector.select_routes(flows)
        rows.append({"refine passes": passes,
                     "MCL": routes.max_channel_load(),
                     "avg hops": routes.average_hop_count()})
    return ResultSet(rows)


def test_ablation_hop_slack(benchmark):
    config = bench_config()
    rows = benchmark.pedantic(hop_slack_ablation, args=(config,),
                              rounds=1, iterations=1)
    emit("Ablation: MILP hop slack (minimal vs non-minimal routing)",
         rows.to_text())
    for _, group in rows.group("workload"):
        results = {row["hop slack"]: (row["MCL"], row["avg hops"])
                   for row in group}
        # Larger slack can only lower (or keep) the optimal MCL ...
        assert results[4][0] <= results[2][0] + 1e-9 <= results[0][0] + 2e-9
        # ... at the cost of equal-or-longer average paths.
        assert results[4][1] >= results[0][1] - 1e-9


def test_ablation_dijkstra_refinement(benchmark):
    config = bench_config()
    rows = benchmark.pedantic(refinement_ablation, args=(config,),
                              rounds=1, iterations=1)
    emit("Ablation: Dijkstra rip-up-and-reroute refinement passes (transpose)",
         rows.to_text())
    mcls = rows.column("MCL")
    # Refinement never makes the MCL worse.
    assert mcls[1] <= mcls[0] + 1e-9
    assert mcls[2] <= mcls[0] + 1e-9
