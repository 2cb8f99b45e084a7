"""FIFO stores with optional capacity bounds.

A :class:`Store` holds items; ``put`` and ``get`` return events.  A bounded
store is the simulator's backpressure primitive: when it is full, ``put``
events stay pending, which stalls the producing process — exactly how a
hardware queue with finite entries (e.g., the IOMMU's peripheral page
request queue, or a GPU's outstanding-fault table) throttles its producer.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Tuple

from .events import Event


class Store:
    """An ordered item store with blocking put/get semantics."""

    def __init__(self, env, capacity: float = math.inf):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        """True when a new ``put`` would have to wait."""
        return len(self.items) >= self.capacity

    @property
    def pending_puts(self) -> int:
        """Number of producers currently blocked on a full store."""
        return len(self._putters)

    @property
    def pending_gets(self) -> int:
        """Number of consumers currently blocked on an empty store."""
        return len(self._getters)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def put(self, item: Any) -> Event:
        """Insert ``item``; the returned event fires once it is accepted."""
        event = Event(self.env)
        self._putters.append((event, item))
        self._dispatch()
        return event

    def get(self) -> Event:
        """Remove the oldest item; the returned event fires with the item."""
        event = Event(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: returns False instead of waiting when full.

        An accepted item goes straight into the store, with no put event:
        nothing could wait on one.  A getter blocked on the empty store is
        woken with the item at once.
        """
        if self.is_full or self._putters:
            return False
        self.items.append(item)
        self._dispatch()
        return True

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get: ``(False, None)`` when nothing is available."""
        if not self.items or self._getters:
            return False, None
        item = self.items.popleft()
        self._dispatch()
        return True, item

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        moved = True
        while moved:
            moved = False
            while self._putters and len(self.items) < self.capacity:
                event, item = self._putters.popleft()
                self.items.append(item)
                event.succeed()
                moved = True
            while self._getters and self.items:
                self._getters.popleft().succeed(self.items.popleft())
                moved = True
