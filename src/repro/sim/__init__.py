"""Discrete-event simulation kernel.

A compact, deterministic engine in the SimPy idiom: generator-driven
processes suspend on events, a global heap orders occurrences by
``(time, priority, insertion)``, and bounded stores provide backpressure.
All higher layers of the reproduction (OS kernel, IOMMU, GPU) are built on
these primitives.
"""

from .environment import Environment
from .events import AllOf, Event, Interrupt, Timeout, NORMAL, PENDING, URGENT
from .process import Process
from .resources import Resource
from .rng import RngRegistry, derive_seed
from .store import Store

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Interrupt",
    "NORMAL",
    "PENDING",
    "Process",
    "Resource",
    "RngRegistry",
    "Store",
    "Timeout",
    "URGENT",
    "derive_seed",
]
