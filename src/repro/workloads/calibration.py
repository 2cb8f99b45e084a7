"""Solo steady-state calibration of CPU application profiles.

For each profile we measure (once, on fresh structures) its solo L1 miss
rate and branch misprediction rate, and derive the steady-state CPI used
to convert productive nanoseconds into retired instructions.  Interference
then shows up as *deviations* from these baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..config import CpuConfig
from ..uarch import AddressStreamSpec, BranchStreamSpec, measure_steady_state
from .profiles import CpuAppProfile

#: Where a profile's working set and branch sites start.
USER_ADDRESS_BASE = 0x10_0000_0000
USER_PC_BASE = 0x4000_0000


def address_spec_for(profile: CpuAppProfile, line_size: int = 64) -> AddressStreamSpec:
    """The profile's data-access stream spec."""
    return AddressStreamSpec(
        base=USER_ADDRESS_BASE,
        lines=profile.ws_lines,
        hot_fraction=profile.hot_fraction,
        hot_rate=profile.hot_rate,
        line_size=line_size,
    )


def branch_spec_for(profile: CpuAppProfile) -> BranchStreamSpec:
    """The profile's branch stream spec."""
    return BranchStreamSpec(
        base_pc=USER_PC_BASE,
        sites=profile.branch_sites,
        bias=profile.branch_bias,
    )


@dataclass(frozen=True)
class SteadyState:
    """A profile's solo baseline rates and derived CPI."""

    miss_rate: float
    mispredict_rate: float
    cpi: float

    def instructions_for_ns(self, ns: float, freq_ghz: float) -> float:
        """Instructions retired in ``ns`` of productive time."""
        return ns * freq_ghz / self.cpi


_CACHE: Dict[Tuple, SteadyState] = {}


def steady_state_for(profile: CpuAppProfile, cpu: CpuConfig) -> SteadyState:
    """Measure (or fetch) the solo steady state of ``profile`` under ``cpu``."""
    key = (profile, cpu.uarch, cpu.l1_miss_penalty_cycles, cpu.branch_mispredict_penalty_cycles, cpu.freq_ghz)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    miss_rate, mispredict_rate = measure_steady_state(
        address_spec_for(profile, line_size=cpu.uarch.line_size),
        branch_spec_for(profile),
        cpu.uarch,
    )
    cpi = (
        profile.base_cpi
        + profile.apki / 1000.0 * miss_rate * cpu.l1_miss_penalty_cycles
        + profile.bpki / 1000.0 * mispredict_rate * cpu.branch_mispredict_penalty_cycles
    )
    steady = SteadyState(miss_rate=miss_rate, mispredict_rate=mispredict_rate, cpi=cpi)
    _CACHE[key] = steady
    return steady
