"""A stdlib sampling profiler that splits host CPU time by ``repro`` package.

``signal.setitimer(ITIMER_PROF)`` raises SIGPROF every ``interval_s`` of
process CPU time.  The handler looks at each thread's current frame,
skips threads parked in a wait, and charges the sample to the innermost
frame that belongs to a ``repro.<package>`` module — so a stdlib call
made by ``repro.uarch`` counts as ``uarch``.  Stdlib ``random`` is
counted on its own (as ``random``) when it is the innermost frame, since
the simulator's draws are a large share of its time.  A stack whose
innermost owner is one of this benchmark's own files (its host-speed
probes, spans and bookkeeping, even when the program called into them)
is the benchmark's time, not the program's: it is counted apart, as
``bench_samples``, and left out of the split.  Samples with no ``repro``
frame on the stack count as ``other``.

Unlike cProfile this adds no per-call cost, so it does not skew the split
toward call-heavy code; it costs one handler call per sample.

Imports nothing from ``repro``.
"""

from __future__ import annotations

import functools
import os
import signal
import sys
import threading
from collections import Counter
from typing import Dict

#: Modules whose frame at the top of a thread's stack means "parked".
IDLE_MODULES = frozenset(
    {"threading", "selectors", "socket", "socketserver", "queue", "subprocess"}
)


#: The layer a stack in this benchmark's own code is charged to.
BENCH = "bench"
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@functools.lru_cache(maxsize=None)
def _is_bench_file(filename: str) -> bool:
    return os.path.dirname(os.path.abspath(filename)) == _BENCH_DIR


def layer_of(frame) -> str:
    """The layer one stack is charged to (see the module docstring)."""
    innermost_random = frame.f_globals.get("__name__") == "random"
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name.startswith("repro."):
            return "random" if innermost_random else name.split(".", 2)[1]
        if _is_bench_file(frame.f_code.co_filename):
            return BENCH
        frame = frame.f_back
    return "random" if innermost_random else "other"


def _idle(frame) -> bool:
    return frame.f_globals.get("__name__") in IDLE_MODULES


class LayerSampler:
    """Counts SIGPROF samples per layer between :meth:`start` and :meth:`stop`.

    Must be started from the main thread (signal handlers live there).  In
    a multi-threaded process the caller blocks SIGPROF in every other
    thread (see ``serve_host.py``) so the signal reaches the main thread;
    each sample is then split evenly across the threads not parked in a
    wait.
    """

    def __init__(self, interval_s: float = 0.005):
        self.interval_s = interval_s
        self.counts: Counter = Counter()
        self.samples = 0
        self.idle_samples = 0
        self.bench_samples = 0.0
        self._previous = None

    def _handle(self, _signum, frame) -> None:
        main = threading.main_thread().ident
        busy = []
        for ident, thread_frame in sys._current_frames().items():
            if ident == main:
                thread_frame = frame  # the interrupted frame, not ours
            if thread_frame is not None and not _idle(thread_frame):
                busy.append(thread_frame)
        if not busy:
            self.idle_samples += 1
            return
        share = 1.0 / len(busy)
        layers = [layer_of(thread_frame) for thread_frame in busy]
        for layer in layers:
            if layer == BENCH:
                self.bench_samples += share
            else:
                self.counts[layer] += share
        self.samples += share * sum(layer != BENCH for layer in layers)

    def start(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGPROF, self._handle)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def reset(self) -> None:
        """Forget everything counted so far (the timed phase starts now)."""
        self.counts = Counter()
        self.samples = 0
        self.idle_samples = 0
        self.bench_samples = 0.0

    def document(self) -> Dict[str, object]:
        return {
            "samples": self.samples,
            "idle_samples": self.idle_samples,
            "bench_samples": self.bench_samples,
            "interval_s": self.interval_s,
            "counts": dict(self.counts),
        }


def self_pct(document: Dict[str, object], layer: str) -> float:
    """Share of the busy samples charged to ``layer``, in percent."""
    samples = document.get("samples") or 0
    if not samples:
        return 0.0
    return 100.0 * document["counts"].get(layer, 0.0) / samples
