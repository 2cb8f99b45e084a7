"""Run ``hiss-serve`` under the layer sampler (the traced ``serve`` run).

Usage: ``python3 perfbench/serve_host.py SAMPLES.json [hiss-serve flags]``.

The daemon's entry point runs unchanged.  SIGUSR1 forgets what was
sampled so far (the benchmark sends it when the timed phase starts) and
SIGUSR2 stops sampling (sent when the last timed job has finished); the
sample document is written to ``SAMPLES.json`` when the daemon exits.

SIGPROF is blocked in every thread the daemon starts, so the kernel
delivers it to the main thread, which is parked in a wait the signal
interrupts; the handler then samples every thread's stack.
"""

from __future__ import annotations

import json
import signal
import sys
import threading

from sampler import LayerSampler


def _start_with_sigprof_blocked(original):
    def start(self):
        previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            return original(self)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, previous)

    return start


def main(argv) -> int:
    samples_path, daemon_args = argv[0], argv[1:]
    threading.Thread.start = _start_with_sigprof_blocked(threading.Thread.start)
    sampler = LayerSampler()
    frozen = {}

    def reset(_signum, _frame):
        sampler.reset()

    def freeze(_signum, _frame):
        sampler.stop()
        frozen.update(sampler.document())

    signal.signal(signal.SIGUSR1, reset)
    signal.signal(signal.SIGUSR2, freeze)
    from repro.service.daemon import main as daemon_main

    sampler.start()
    try:
        return daemon_main(daemon_args)
    finally:
        if not frozen:
            sampler.stop()
            frozen.update(sampler.document())
        with open(samples_path, "w", encoding="utf-8") as handle:
            json.dump(frozen, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
