"""Unified routing comparison: adaptive saturation search over a matrix.

The paper's central claim is comparative — BSOR against DOR, ROMM, Valiant
and O1TURN across topologies and traffic patterns — and this package is the
first-class way to run that comparison:

* :class:`CompareMatrix` / :func:`compare_routers` — fan the full
  (topology x pattern x router) cross-product through the parallel
  :class:`~repro.runner.engine.ExperimentRunner` and its result cache;
* :class:`SaturationSearch` / :func:`find_saturation` — the adaptive
  (bracket + bisection) saturation-throughput finder that replaces dense
  rate sweeps at a 3-5x reduction in simulator invocations
  (:func:`dense_saturation` is the grid sweep it replaces, kept for
  agreement tests and benchmarks);
* :func:`render_markdown` / :func:`render_json` — report emission;
* a CLI: ``python -m repro compare --topology mesh8x8 --patterns
  transpose,bit_complement --routers dor,o1turn,bsor-dijkstra``.

Routers are named via :mod:`repro.routing.registry`; new algorithms become
comparable (and documented in ``docs/routing-guide.md``) the moment they are
registered.
"""

from .matrix import (
    CompareCell,
    CompareMatrix,
    CompareResult,
    compare_routers,
    parse_topology,
    pattern_flow_set,
)
from .report import render_json, render_markdown, result_to_dict
from .saturation import (
    SaturationCriteria,
    SaturationObservation,
    SaturationResult,
    SaturationSearch,
    dense_saturation,
    find_saturation,
)

__all__ = [
    "CompareCell",
    "CompareMatrix",
    "CompareResult",
    "SaturationCriteria",
    "SaturationObservation",
    "SaturationResult",
    "SaturationSearch",
    "compare_routers",
    "dense_saturation",
    "find_saturation",
    "parse_topology",
    "pattern_flow_set",
    "render_json",
    "render_markdown",
    "result_to_dict",
]
