"""Benchmark: regenerate Table 6.1 (BSOR-MILP minimum MCL per acyclic CDG).

Paper reference (MB/s)::

    example         NL      WF      NF      AdHoc1  AdHoc2
    transpose       175     175     75      175     75
    bit-complement  100     100     150     100     150
    shuffle         75      100     75      100     100
    H.264           140.87  184.94  120.4   174.07  140.87
    perf. modeling  62.73   83.65   62.73   95.04   83.65
    transmitter     7.34    7.34    9.46    10.52   9.0   (MB/s; ours is MBit/s)

Shape to reproduce: the per-CDG MCLs differ substantially, and the minimum
over the explored CDGs is far below the DOR values of Table 6.3.
"""

from bench_utils import bench_config, emit

from repro.experiments import render_table, run_table


def test_table_6_1(benchmark):
    config = bench_config()
    rows = benchmark.pedantic(run_table, args=("6-1", config), rounds=1, iterations=1)
    emit("Table 6.1 measured vs paper", render_table("6-1", rows))
    # Every workload must have at least one CDG with a finite MCL, and the
    # minimum must never exceed the worst CDG (sanity of the exploration).
    for (workload,), group in rows.group("pattern"):
        finite = [value for value in group.column("max_channel_load")
                  if value is not None]
        assert finite, f"no CDG produced routes for {workload}"
        assert min(finite) <= max(finite)
