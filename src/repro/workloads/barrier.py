"""A reusable cyclic barrier for multithreaded CPU applications.

Barrier applications (fluidanimate, facesim, streamcluster) are the
paper's balance-sensitive workloads: if SSR handling slows one core, every
thread waits at the next barrier, so localized interference becomes global
slowdown (this is why interrupt steering can *hurt* such apps, Fig. 6a).
"""

from __future__ import annotations

from ..sim import Environment, Event


class Barrier:
    """A cyclic barrier over ``parties`` participants."""

    def __init__(self, env: Environment, parties: int):
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.env = env
        self.parties = parties
        self._arrived = 0
        self._generation_event = env.event()
        #: Completed barrier rounds.
        self.generations = 0

    @property
    def waiting(self) -> int:
        """Participants currently blocked at the barrier."""
        return self._arrived

    def arrive(self) -> Event:
        """Arrive at the barrier; the returned event fires when all have.

        The last arriver's event fires too (at the same instant).
        """
        event = self._generation_event
        self._arrived += 1
        if self._arrived >= self.parties:
            self._arrived = 0
            self.generations += 1
            self._generation_event = self.env.event()
            event.succeed(self.generations)
        return event
