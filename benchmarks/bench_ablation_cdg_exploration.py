"""Ablation: how much does exploring many acyclic CDGs buy?

Step 4 of the BSOR framework ("if desired, go to Step 1 to create a different
acyclic CDG and repeat") is the knob this ablation turns: route the 8x8
transpose workload exploring 1, 3, 5 and 15 acyclic CDGs and record the best
MCL found.  The paper explores 15 (12 turn-model + 3 ad hoc) and needs that
breadth for transpose, where only a minority of CDGs admit the 75 MB/s
solution — a single arbitrarily chosen turn model stays stuck at 175 MB/s.
"""

from bench_utils import bench_config, bench_workload, emit

from repro.planning import plan_routes
from repro.routing.bsor import full_strategy_set, paper_strategies
from repro.study import ResultSet


def cdg_exploration_ablation(config):
    mesh, flows = bench_workload("transpose", config)
    full = full_strategy_set(mesh)
    subsets = {
        "1 CDG (west-first only)": [paper_strategies()[1]],
        "3 CDGs (paper turn models)": paper_strategies()[:3],
        "5 CDGs (Table 6.1 columns)": paper_strategies(),
        f"{len(full)} CDGs (full exploration)": full,
    }
    rows = []
    for label, strategies in subsets.items():
        routes = plan_routes("bsor-dijkstra", mesh, flows, config,
                             strategies=strategies).route_set
        rows.append({"exploration": label, "CDGs": len(strategies),
                     "best MCL": routes.max_channel_load(),
                     "avg hops": routes.average_hop_count()})
    return ResultSet(rows)


def test_ablation_cdg_exploration(benchmark):
    config = bench_config()
    rows = benchmark.pedantic(cdg_exploration_ablation, args=(config,),
                              rounds=1, iterations=1)
    emit("Ablation: CDG exploration breadth (transpose, BSOR-Dijkstra)",
         rows.to_text())
    mcls = rows.column("best MCL")
    # Exploring more CDGs never hurts, and the full exploration is at least
    # as good as any single CDG.
    assert mcls == sorted(mcls, reverse=True) or min(mcls) == mcls[-1]
    assert mcls[-1] <= mcls[0]
