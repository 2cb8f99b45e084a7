"""Microarchitecture models: an LRU L1D cache and a gshare predictor.

The solo steady-state calibration runs each CPU workload profile's
sampled streams through these structures, which sets its baseline miss
and mispredict rates (its steady-state CPI and the denominators of the
paper's Figure 5).
"""

from .branch import BranchStats, GShareBranchPredictor
from .cache import CacheStats, SetAssociativeCache
from .state import UarchConfig, measure_steady_state, run_window
from .streams import (
    AddressStreamSpec,
    BranchStreamSpec,
    generate_addresses,
    generate_branches,
    sequential_addresses,
)

__all__ = [
    "AddressStreamSpec",
    "BranchStats",
    "BranchStreamSpec",
    "CacheStats",
    "GShareBranchPredictor",
    "SetAssociativeCache",
    "UarchConfig",
    "generate_addresses",
    "generate_branches",
    "measure_steady_state",
    "run_window",
    "sequential_addresses",
]
