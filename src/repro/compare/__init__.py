"""Unified routing comparison: adaptive saturation search over a matrix.

The paper's central claim is comparative — BSOR against DOR, ROMM, Valiant
and O1TURN across topologies and traffic patterns — and this package is the
first-class way to run that comparison:

* :class:`CompareMatrix` — fan the full (topology x pattern x router x
  fault set) cross-product through the parallel
  :class:`~repro.runner.engine.ExperimentRunner` and its result cache,
  returning one :class:`~repro.study.resultset.ResultSet` row per cell;
* :class:`SaturationSearch` / :func:`find_saturation` — the adaptive
  (bracket + bisection) saturation-throughput finder that replaces dense
  rate sweeps at a 3-5x reduction in simulator invocations
  (:func:`dense_saturation` is the grid sweep it replaces, kept for
  agreement tests and benchmarks);
* a CLI: ``python -m repro compare --topology mesh8x8 --patterns
  transpose,bit_complement --routers dor,o1turn,bsor-dijkstra`` — a
  one-scenario ``saturate`` study (:mod:`repro.study`), which is also where
  the rows are rendered.

Routers are named via :mod:`repro.routing.registry`; new algorithms become
comparable (and documented in ``docs/routing-guide.md``) the moment they are
registered.
"""

from .matrix import CompareMatrix, parse_topology, pattern_flow_set
from .saturation import (
    SaturationCriteria,
    SaturationObservation,
    SaturationResult,
    SaturationSearch,
    dense_saturation,
    find_saturation,
)

__all__ = [
    "CompareMatrix",
    "SaturationCriteria",
    "SaturationObservation",
    "SaturationResult",
    "SaturationSearch",
    "dense_saturation",
    "find_saturation",
    "parse_topology",
    "pattern_flow_set",
]
