"""Benchmark: regenerate Table 6.3 (MCL comparison across routing algorithms).

Paper reference (MB/s)::

    traffic         XY      YX      ROMM    Valiant  BSORMILP  BSORDijkstra
    transpose       175     175     150     175      75        75
    bit-complement  100     100     300     200      100       100
    shuffle         100     100     100     175      75        75
    H.264           253.97  364.73  283.56  254.31   120.4     188.06
    perf. modeling  95.04   146.38  104.55  132.57   62.73     83.65
    transmitter     10.52   10.6    9.46    22.36    7.34      9.1

Shape to reproduce: BSOR-MILP has the lowest (or tied-lowest) MCL on every
workload; BSOR-Dijkstra tracks it closely; Valiant is hurt by its loss of
locality on the application workloads.
"""

from bench_utils import bench_config, emit

from repro.experiments import render_table, run_table


def test_table_6_3(benchmark):
    config = bench_config()
    rows = benchmark.pedantic(run_table, args=("6-3", config), rounds=1, iterations=1)
    emit("Table 6.3 measured vs paper", render_table("6-3", rows))
    for (workload,), group in rows.group("pattern"):
        row = group.reduce("max_channel_load", min, "display_name")
        baselines = [row[name] for name in ("XY", "YX", "ROMM", "Valiant")]
        assert row["BSOR-MILP"] <= min(baselines) + 1e-9, \
            f"BSOR-MILP lost to a baseline on {workload}"
        # the Dijkstra heuristic may trail MILP but never the worst baseline
        assert row["BSOR-Dijkstra"] <= max(baselines) + 1e-9
