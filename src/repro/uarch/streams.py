"""Synthetic memory-address and branch streams.

Workload profiles (see :mod:`repro.workloads.profiles`) are rendered into
streams of cache-line addresses and branch outcomes.  The streams are
statistical stand-ins for the real applications' traces: a working set with
a hot subset (temporal locality) plus per-site branch biases
(predictability).  They are deterministic for a given RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterator, Tuple


@dataclass(frozen=True)
class AddressStreamSpec:
    """Statistical description of a data-access stream.

    Attributes:
        base: Byte address where the working set starts.
        lines: Working-set size, in cache lines.
        hot_fraction: Fraction of the working set that is "hot".
        hot_rate: Probability that an access lands in the hot subset.
        line_size: Bytes per cache line (must match the cache being driven).
    """

    base: int
    lines: int
    hot_fraction: float = 0.2
    hot_rate: float = 0.8
    line_size: int = 64

    def __post_init__(self):
        if self.lines < 1:
            raise ValueError(f"lines must be >= 1, got {self.lines}")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction out of (0, 1]: {self.hot_fraction}")
        if not 0.0 <= self.hot_rate <= 1.0:
            raise ValueError(f"hot_rate out of [0, 1]: {self.hot_rate}")


@dataclass(frozen=True)
class BranchStreamSpec:
    """Statistical description of a branch stream.

    Attributes:
        base_pc: Program-counter base of the branch sites.
        sites: Number of static branch sites.
        bias: Probability a branch follows its site's majority direction.
            Values near 1.0 are highly predictable.
    """

    base_pc: int
    sites: int
    bias: float = 0.9

    def __post_init__(self):
        if self.sites < 1:
            raise ValueError(f"sites must be >= 1, got {self.sites}")
        if not 0.5 <= self.bias <= 1.0:
            raise ValueError(f"bias must be in [0.5, 1.0], got {self.bias}")


def _randbelow(rng: Random):
    """The cheapest draw equivalent to ``rng.randrange(n)`` for int n > 0.

    ``Random.randrange(n)`` is a thin argument-checking wrapper around
    ``Random._randbelow(n)``; calling the latter directly consumes the
    exact same bits from the generator, so streams are unchanged.
    """
    return getattr(rng, "_randbelow", rng.randrange)


def generate_addresses(spec: AddressStreamSpec, count: int, rng: Random) -> Iterator[int]:
    """Yield ``count`` byte addresses drawn from ``spec``'s distribution."""
    hot_lines = max(1, int(spec.lines * spec.hot_fraction))
    random = rng.random
    randbelow = _randbelow(rng)
    base, lines, hot_rate, line_size = spec.base, spec.lines, spec.hot_rate, spec.line_size
    for _ in range(count):
        line = randbelow(hot_lines) if random() < hot_rate else randbelow(lines)
        yield base + line * line_size


def generate_branches(
    spec: BranchStreamSpec, count: int, rng: Random
) -> Iterator[Tuple[int, bool]]:
    """Yield ``count`` ``(pc, taken)`` pairs drawn from ``spec``."""
    random = rng.random
    randbelow = _randbelow(rng)
    base_pc, sites, bias = spec.base_pc, spec.sites, spec.bias
    for _ in range(count):
        site = randbelow(sites)
        pc = base_pc + site * 4
        majority = (site & 1) == 0
        taken = majority if random() < bias else not majority
        yield pc, taken


def sequential_addresses(base: int, lines: int, line_size: int = 64) -> Iterator[int]:
    """Yield one address per line, in order — used to warm or scan a region."""
    for line in range(lines):
        yield base + line * line_size
