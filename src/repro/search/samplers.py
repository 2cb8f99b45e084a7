"""Deterministic, seeded candidate-proposal strategies.

Three strategies, all pure functions of their arguments — no wall clock,
no global ``random`` state, no hash-seed dependence — so a sweep resumed
after a crash proposes exactly the candidates the uninterrupted sweep
would have:

* :class:`GridSampler` — the full cartesian grid in canonical knob-major
  order (exhaustive; the Fig. 7/8 eight-combination study is a special
  case of this over a three-knob space);
* :class:`LatticeSampler` — a Halton-style low-discrepancy lattice over
  the per-knob index space: broad coverage at any budget, every prefix
  of the sequence well spread;
* :class:`MutationSampler` — local search: mutate knobs of the current
  frontier points to neighboring domain values, which is how the driver
  sharpens the frontier once broad sampling has located it.

Randomness, where needed, comes from :class:`SplitMix64`, a tiny
self-contained 64-bit PRNG seeded via :func:`derive_seed` (SHA-256 over
the sweep seed, the round index, and the strategy name) — identical on
every platform and Python version.
"""

from __future__ import annotations

import hashlib
from typing import Any, List, Sequence, Set

from .space import Point, SearchSpace

_MASK64 = (1 << 64) - 1

#: The first primes, one per knob dimension, for the Halton lattice.
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class SplitMix64:
    """SplitMix64: a tiny, fully deterministic 64-bit PRNG (public domain
    algorithm; identical output on every platform)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """A uniform integer in ``[0, n)`` (rejection-sampled, unbiased)."""
        if n <= 0:
            raise ValueError(f"randrange needs n > 0, got {n}")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            value = self.next_u64()
            if value <= limit:
                return value % n

    def choice(self, values: Sequence[Any]) -> Any:
        return values[self.randrange(len(values))]


def derive_seed(*parts: Any) -> int:
    """A 64-bit seed derived from ``parts`` via SHA-256 (stable anywhere)."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x00")
    return int.from_bytes(digest.digest()[:8], "big")


def _radical_inverse(index: int, base: int) -> float:
    """The van der Corput radical inverse of ``index`` in ``base``."""
    inverse, denom = 0.0, 1.0
    while index > 0:
        index, digit = divmod(index, base)
        denom *= base
        inverse += digit / denom
    return inverse


class GridSampler:
    """The full cartesian grid, in canonical knob-major order."""

    name = "grid"

    def propose(
        self,
        space: SearchSpace,
        count: int,
        round_index: int,
        frontier: Sequence[Point],
        evaluated: Set[str],
    ) -> List[Point]:
        proposals: List[Point] = []
        for point in space.grid():
            if len(proposals) >= count:
                break
            encoded = space.encode(point)
            if encoded not in evaluated:
                proposals.append(point)
                evaluated = evaluated | {encoded}
        return proposals


class LatticeSampler:
    """Halton-style low-discrepancy coverage of the index space.

    Dimension ``d`` uses the ``d``-th prime's radical-inverse sequence to
    pick a value index, so any prefix of the stream spreads evenly over
    the grid.  The stream position persists across rounds via the number
    of points already drawn (``round_index`` picks up where the previous
    round's scan stopped because already-evaluated encodings are skipped
    deterministically).
    """

    name = "lattice"

    def __init__(self, offset: int = 1):
        # Halton index 0 maps every dimension to 0; starting at 1 avoids
        # a degenerate duplicate of the grid origin as the first draw.
        self.offset = offset

    def propose(
        self,
        space: SearchSpace,
        count: int,
        round_index: int,
        frontier: Sequence[Point],
        evaluated: Set[str],
    ) -> List[Point]:
        if len(space) > len(_PRIMES):
            raise ValueError(
                f"lattice supports up to {len(_PRIMES)} knobs, space has {len(space)}"
            )
        proposals: List[Point] = []
        seen = set(evaluated)
        # Bounded scan: the lattice visits every grid point eventually,
        # but a saturated space must terminate the scan.
        for draw in range(self.offset, self.offset + 4 * space.size + count):
            if len(proposals) >= count:
                break
            indices = [
                int(_radical_inverse(draw, _PRIMES[dim]) * len(knob.values))
                for dim, knob in enumerate(space.knobs)
            ]
            point = space.point_from_indices(indices)
            encoded = space.encode(point)
            if encoded not in seen:
                seen.add(encoded)
                proposals.append(point)
        return proposals


class MutationSampler:
    """Local mutation around the current Pareto frontier.

    Each frontier point (visited in canonical encoding order) spawns
    mutants by nudging one or two knobs: a step to an adjacent domain
    value (exploit the ordering) or, with lower probability, a jump to a
    uniformly chosen value (escape local plateaus).  All randomness comes
    from a :class:`SplitMix64` seeded by ``(sweep seed, round index)``,
    so proposals are a pure function of the archive state.
    """

    name = "mutate"

    def __init__(self, seed: int, mutants_per_parent: int = 4, jump_percent: int = 25):
        self.seed = seed
        self.mutants_per_parent = mutants_per_parent
        self.jump_percent = jump_percent

    def _mutate(self, space: SearchSpace, point: Point, rng: SplitMix64) -> Point:
        mutant = dict(point)
        for _ in range(1 + rng.randrange(2)):  # touch 1 or 2 knobs
            knob = space.knobs[rng.randrange(len(space.knobs))]
            index = knob.index_of(mutant[knob.name])
            if rng.randrange(100) < self.jump_percent or len(knob.values) <= 2:
                index = rng.randrange(len(knob.values))
            else:
                step = 1 if rng.randrange(2) else -1
                index = min(len(knob.values) - 1, max(0, index + step))
            mutant[knob.name] = knob.values[index]
        return mutant

    def propose(
        self,
        space: SearchSpace,
        count: int,
        round_index: int,
        frontier: Sequence[Point],
        evaluated: Set[str],
    ) -> List[Point]:
        rng = SplitMix64(derive_seed(self.seed, round_index, self.name))
        parents = sorted(frontier, key=space.encode) or [
            space.point_from_indices([0] * len(space))
        ]
        proposals: List[Point] = []
        seen = set(evaluated)
        # Round-robin over parents so a small count still draws from the
        # whole frontier; bounded attempts so a saturated neighborhood
        # terminates instead of spinning.
        attempts = 0
        max_attempts = max(1, count) * 16
        while len(proposals) < count and attempts < max_attempts:
            parent = parents[attempts % len(parents)]
            attempts += 1
            mutant = self._mutate(space, parent, rng)
            encoded = space.encode(mutant)
            if encoded not in seen:
                seen.add(encoded)
                proposals.append(mutant)
        return proposals


def sampler_for_round(strategy: str, seed: int, round_index: int):
    """The proposal strategy a given round of ``strategy`` uses.

    * ``grid`` — every round scans on through the cartesian grid;
    * ``lattice`` — every round continues the low-discrepancy stream;
    * ``evolve`` — round 0 seeds broadly with the lattice, later rounds
      mutate around the frontier it found.
    """
    if strategy == "grid":
        return GridSampler()
    if strategy == "lattice":
        return LatticeSampler()
    if strategy == "evolve":
        if round_index == 0:
            return LatticeSampler()
        return MutationSampler(seed)
    raise ValueError(
        f"unknown strategy {strategy!r}; known: grid, lattice, evolve"
    )
