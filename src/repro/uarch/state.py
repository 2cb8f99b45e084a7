"""Structure geometry and the solo steady-state calibration.

:func:`measure_steady_state` runs one workload profile's sampled address
and branch streams alone through a real L1D cache and branch predictor,
so each app's baseline miss and mispredict rates (its steady-state CPI and
Fig. 5's denominators) are mechanistic.  The per-run pollution charge of
SSR handlers is analytic instead: see ``Core.charge_kernel_footprint``.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Tuple

from .branch import GShareBranchPredictor
from .cache import SetAssociativeCache
from .streams import AddressStreamSpec, BranchStreamSpec, _randbelow


@dataclass(frozen=True)
class UarchConfig:
    """Geometry of the per-core structures (scaled-down L1-class sizes)."""

    cache_sets: int = 64
    cache_ways: int = 8
    line_size: int = 64
    predictor_entries: int = 1024
    #: Global-history bits mixed into the predictor index.  The default of 0
    #: (a bimodal predictor) is deliberate: the synthetic branch streams have
    #: no real history correlation, so history bits would only inject index
    #: noise and push every stream toward a 50% mispredict rate.
    history_bits: int = 0

    def make_cache(self) -> SetAssociativeCache:
        return SetAssociativeCache(self.cache_sets, self.cache_ways, self.line_size)

    def make_predictor(self) -> GShareBranchPredictor:
        return GShareBranchPredictor(self.predictor_entries, self.history_bits)


def run_window(
    l1d: SetAssociativeCache,
    predictor: GShareBranchPredictor,
    rng: Random,
    owner: str,
    addr_spec: AddressStreamSpec,
    branch_spec: BranchStreamSpec,
    accesses: int,
    branches: int,
) -> Tuple[int, int]:
    """Run a sampled window through the structures; returns (misses, mispredicts).

    The loops below are :func:`~repro.uarch.streams.generate_addresses`
    and :func:`~repro.uarch.streams.generate_branches` fused inline: the
    same draws in the same order from the same RNG.
    """
    random = rng.random
    randbelow = _randbelow(rng)
    access = l1d.access
    hot_lines = max(1, int(addr_spec.lines * addr_spec.hot_fraction))
    base, lines = addr_spec.base, addr_spec.lines
    hot_rate, line_size = addr_spec.hot_rate, addr_spec.line_size
    misses = 0
    for _ in range(accesses):
        line = randbelow(hot_lines) if random() < hot_rate else randbelow(lines)
        if not access(base + line * line_size, owner):
            misses += 1
    execute = predictor.execute
    base_pc, sites, bias = branch_spec.base_pc, branch_spec.sites, branch_spec.bias
    mispredicts = 0
    for _ in range(branches):
        site = randbelow(sites)
        majority = (site & 1) == 0
        taken = majority if random() < bias else not majority
        if not execute(base_pc + site * 4, taken, owner):
            mispredicts += 1
    return misses, mispredicts


def measure_steady_state(
    addr_spec: AddressStreamSpec,
    branch_spec: BranchStreamSpec,
    config: UarchConfig,
    seed: int = 12345,
    warmup_accesses: int = 8192,
    sample_accesses: int = 8192,
) -> Tuple[float, float]:
    """Measure a profile's solo steady-state miss and mispredict rates.

    Runs the profile alone on fresh structures: warm up, then measure.
    Used once per workload profile (results are cached by the caller) to
    derive the *baseline* CPI against which interference is charged.
    """
    l1d, predictor, rng = config.make_cache(), config.make_predictor(), Random(seed)
    owner = "probe"
    run_window(
        l1d, predictor, rng, owner, addr_spec, branch_spec,
        warmup_accesses, warmup_accesses // 2,
    )
    l1d.stats.reset()
    predictor.stats.reset()
    run_window(
        l1d, predictor, rng, owner, addr_spec, branch_spec,
        sample_accesses, sample_accesses // 2,
    )
    return l1d.stats.miss_rate(owner), predictor.stats.mispredict_rate(owner)
