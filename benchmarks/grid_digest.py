"""Digest every quick-grid run's numbers, leaving the code fingerprint out.

Plans ``--all --extensions --quick --horizon-ms 5`` (247 unique runs),
simulates each run serially and prints the run count and a SHA-256 over
the sorted lines ``run_key_digest(key, fingerprint="") + metrics JSON``.
perfbench's ``SystemMetrics sha256`` folds in the code fingerprint, so
it moves with any edit to the simulator sources; this digest moves only
when a planned run or a simulated number does.  A speed-only change must
leave it as it was.  Run with::

    PYTHONPATH=src python benchmarks/grid_digest.py [--expect HEX]

With ``--expect``, a digest other than ``HEX`` exits 1.  A change that
moves results on purpose updates the expected value in CI.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import List, Optional, Tuple

from repro.core.experiment import simulate_run
from repro.core.planner import plan_runs
from repro.core.runcache import run_key_digest
from repro.experiments.run_all import DEFAULT_ORDER, EXTENSION_ORDER, experiment_kwargs


def grid_digest() -> Tuple[int, str]:
    """``(runs, digest)`` over the quick grid at a 5 ms horizon."""
    keys, _serial = plan_runs(
        DEFAULT_ORDER + EXTENSION_ORDER,
        lambda e: experiment_kwargs(e, quick=True, horizon_ms=5),
    )
    rows = sorted(
        run_key_digest(key, fingerprint="")
        + json.dumps(simulate_run(key).as_dict(), sort_keys=True)
        + "\n"
        for key in keys
    )
    return len(keys), hashlib.sha256("".join(rows).encode()).hexdigest()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", help="the digest the grid must print")
    args = parser.parse_args(argv)
    runs, digest = grid_digest()
    print(runs, digest)
    if args.expect is not None and digest != args.expect:
        print(f"expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
