"""Circuit figure-of-merit extraction: delay, leakage, setup/hold, SNM."""

from repro.analysis.delay import (
    DelayResult,
    DelayWatch,
    crossing_time,
    propagation_delay,
)
from repro.analysis.leakage import supply_leakage, average_leakage
from repro.analysis.setup_hold import bisect_min_passing
from repro.analysis.snm import butterfly_snm, largest_square_snm

__all__ = [
    "crossing_time",
    "propagation_delay",
    "DelayResult",
    "DelayWatch",
    "supply_leakage",
    "average_leakage",
    "bisect_min_passing",
    "butterfly_snm",
    "largest_square_snm",
]
