"""Deterministic, named random-number streams.

Every stochastic component of the simulator draws from its own named
stream derived from a single master seed.  Components therefore stay
statistically independent, and adding a new consumer never perturbs the
draws seen by existing ones — a property the calibration tests rely on.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed for ``name`` from ``master_seed``."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngRegistry:
    """A factory for named, reproducible :class:`random.Random` streams."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = stream
        return stream

    def __contains__(self, name: str) -> bool:
        return name in self._streams
