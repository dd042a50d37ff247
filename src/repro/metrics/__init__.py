"""Metrics: channel loads / MCL and simulation statistics."""

from .channel_load import (
    ChannelLoadReport,
    load_report,
    recompute_mcl_with_demands,
)
from .statistics import (
    SimulationStatistics,
    SweepCurve,
    SweepPoint,
    percentile,
)

__all__ = [
    "ChannelLoadReport",
    "SimulationStatistics",
    "SweepCurve",
    "SweepPoint",
    "load_report",
    "percentile",
    "recompute_mcl_with_demands",
]
