"""Application-aware workloads: task graphs and their registry.

This package is the workload plane of the reproduction — everything that
decides *what* traffic the routers are evaluated on:

* :mod:`repro.workloads.appgraph` — the :class:`AppGraph` application model
  (tasks, directed flows with bandwidth demands, placement onto mesh/torus
  nodes);
* :mod:`repro.workloads.library` — the canonical applications
  (``decoder-pipeline``, ``fft-butterfly``, ``map-reduce``,
  ``hotspot-server``, plus the paper's three profiled applications);
* :mod:`repro.workloads.registry` — registry-style discovery mirroring
  :mod:`repro.routing.registry`; drives the comparison engine's
  ``--workloads`` axis and the generated ``docs/workloads-guide.md``.
"""

from .appgraph import MAPPING_STRATEGIES, AppGraph, AppTask
from .library import (
    decoder_pipeline,
    fft_butterfly,
    h264_app,
    hotspot_server,
    map_reduce,
    perf_modeling_app,
    transmitter_app,
)
from .registry import (
    WorkloadSpec,
    available_workloads,
    create_workload,
    is_registered_workload,
    register_workload,
    render_workloads_guide,
    workload_flow_set,
    workload_spec,
    workload_specs,
)

__all__ = [
    "AppGraph",
    "AppTask",
    "MAPPING_STRATEGIES",
    "WorkloadSpec",
    "available_workloads",
    "create_workload",
    "decoder_pipeline",
    "fft_butterfly",
    "h264_app",
    "hotspot_server",
    "is_registered_workload",
    "map_reduce",
    "perf_modeling_app",
    "register_workload",
    "render_workloads_guide",
    "transmitter_app",
    "workload_flow_set",
    "workload_spec",
    "workload_specs",
]
