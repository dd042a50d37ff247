"""Benchmark: regenerate Table 6.2 (BSOR-Dijkstra minimum MCL per acyclic CDG).

Paper reference (MB/s)::

    example         NL      WF      NF      AdHoc1  AdHoc2
    transpose       200     200     75      250     75
    bit-complement  150     100     150     200     150
    shuffle         100     100     75      100     100
    H.264           238.44  240.8   188.06  268.74  242.85
    perf. modeling  104.55  83.65   83.65   146.38  83.65
    transmitter     9.1     10.5    9.1     10.52   10.6  (MB/s; ours is MBit/s)

Shape to reproduce: Dijkstra's heuristic MCLs are greater than or equal to
the MILP values of Table 6.1 column by column, but remain well below the DOR
baselines for the workloads where load balancing matters.
"""

from bench_utils import bench_config, emit

from repro.experiments import render_table, run_table


def test_table_6_2(benchmark):
    config = bench_config()
    rows = benchmark.pedantic(run_table, args=("6-2", config), rounds=1, iterations=1)
    emit("Table 6.2 measured vs paper", render_table("6-2", rows))
    routed = rows.filter(lambda row: row["max_channel_load"] is not None)
    assert routed.distinct("pattern") == rows.distinct("pattern"), \
        "no CDG produced routes for some workload"


def test_milp_dominates_dijkstra_per_cdg(benchmark):
    """The paper: "MILP solutions, when available, always have MCLs that are
    equal or smaller than MCLs produced under Dijkstra's weighted shortest
    path".  Checked on the transpose row at benchmark scale."""
    config = bench_config()

    def run():
        return [run_table(number, config, workloads=("transpose",))
                .reduce("max_channel_load", min, "cdg")
                for number in ("6-1", "6-2")]

    milp, dijkstra = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Transpose per-CDG MCL (MILP vs Dijkstra)",
         "\n".join(f"{column}: MILP={milp[column]}  Dijkstra={dijkstra[column]}"
                   for column in milp))
    for column, milp_value in milp.items():
        if milp_value is not None and dijkstra.get(column) is not None:
            assert milp_value <= dijkstra[column] + 1e-9
