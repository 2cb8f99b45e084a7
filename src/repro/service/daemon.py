"""``hiss-serve``: run the simulation service as a foreground daemon.

Usage::

    hiss-serve --port 8171 --jobs 0 --cache-dir run-cache
    hiss-serve --qos-threshold 0.5 --queue-limit 32 --verbose
    hiss-serve --log-json ops.jsonl        # structured JSONL ops events
    hiss-serve --slo default --postmortem-dir pm   # auto-capture bundles

The process serves until SIGINT/SIGTERM, then drains: submissions get
503, queued and in-flight jobs finish (their results stay fetchable for
the drain's duration), and only then does the listener close.  With
``--cache-dir`` every simulated run also lands in the persistent
content-addressed cache, so a restarted daemon serves repeat jobs warm.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from typing import List, Optional

from ..version import add_version_flag
from .obs import OpsLog
from .server import HissService

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiss-serve",
        description="Serve HISS simulation jobs over an HTTP JSON API.",
    )
    add_version_flag(parser)
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8171, help="bind port (0 = ephemeral)")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="simulate runs on N worker processes (0 = one per CPU core)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=16,
        help="bounded job queue depth; overflow is rejected with 429",
    )
    parser.add_argument(
        "--ttl", type=float, default=900.0, metavar="SECONDS",
        help="evict finished jobs this long after completion",
    )
    parser.add_argument(
        "--qos-threshold", type=float, default=0.75,
        help="fraction of host capacity simulation may consume before "
        "admissions back off exponentially (>= 1 disables)",
    )
    parser.add_argument(
        "--qos-window", type=float, default=2.0, metavar="SECONDS",
        help="averaging window for the load fraction",
    )
    parser.add_argument(
        "--qos-initial-delay", type=float, default=0.5, metavar="SECONDS",
        help="first Retry-After once over threshold (doubles per refusal)",
    )
    parser.add_argument(
        "--qos-max-delay", type=float, default=30.0, metavar="SECONDS",
        help="Retry-After ceiling",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent run cache shared with hiss-experiments --cache-dir",
    )
    parser.add_argument(
        "--log-json", default=None, metavar="PATH",
        help="append structured JSONL ops events to PATH ('-' = stderr)",
    )
    parser.add_argument(
        "--log-json-max-bytes", type=int, default=None, metavar="N",
        help="rotate the --log-json file when it reaches N bytes "
        "(path-backed logs only; off by default)",
    )
    parser.add_argument(
        "--log-json-backups", type=int, default=3, metavar="N",
        help="rotated generations to keep as PATH.1..PATH.N (default 3)",
    )
    parser.add_argument(
        "--slo", default=None, metavar="FILE",
        help="enable burn-rate SLO alerting: an SLO spec JSON (hiss.slo/1), "
        "or 'default' for the built-in objectives "
        "(see 'hiss-slo default-spec' and docs/observability.md)",
    )
    parser.add_argument(
        "--slo-interval", type=float, default=5.0, metavar="SECONDS",
        help="SLO engine sampling cadence (default 5s)",
    )
    parser.add_argument(
        "--postmortem-dir", default=None, metavar="DIR",
        help="enable the flight recorder: auto-capture postmortem bundles "
        "into DIR on SLO alerts, worker crashes, and invariant violations "
        "(see docs/observability.md)",
    )
    parser.add_argument(
        "--postmortem-keep", type=int, default=20, metavar="N",
        help="retain at most N bundles in --postmortem-dir, evicting the "
        "oldest (default 20)",
    )
    parser.add_argument(
        "--no-trace", action="store_true",
        help="skip capturing in-sim event streams into job traces "
        "(lifecycle spans and /v1/jobs/<id>/trace still work)",
    )
    parser.add_argument(
        "--pool-recycle", type=int, default=None, metavar="N",
        help="retire each warm worker after N tasks (default 256; "
        "0 = never recycle)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log each HTTP request to stderr"
    )
    return parser


def _load_slos(arg: Optional[str]):
    """``--slo`` value -> spec list (None stays None = engine disabled)."""
    if arg is None:
        return None
    from ..obsd import DEFAULT_SLOS, parse_slo_document

    if arg == "default":
        return list(DEFAULT_SLOS)
    import json

    try:
        with open(arg) as handle:
            doc = json.load(handle)
        return parse_slo_document(doc)
    except (OSError, ValueError) as error:
        raise SystemExit(f"hiss-serve: --slo {arg}: {error}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    slos = _load_slos(args.slo)
    ops_log = OpsLog.open_path(
        args.log_json,
        max_bytes=args.log_json_max_bytes,
        backups=args.log_json_backups,
    )
    if args.pool_recycle is not None:
        from ..core.pool import configure_pool

        configure_pool(recycle_after=args.pool_recycle)
    service = HissService(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        ttl_s=args.ttl,
        qos_threshold=args.qos_threshold,
        qos_window_s=args.qos_window,
        qos_initial_delay_s=args.qos_initial_delay,
        qos_max_delay_s=args.qos_max_delay,
        cache_dir=args.cache_dir,
        verbose=args.verbose,
        trace=not args.no_trace,
        ops_log=ops_log,
        slos=slos,
        slo_interval_s=args.slo_interval,
        postmortem_dir=args.postmortem_dir,
        postmortem_keep=args.postmortem_keep,
    )
    shutdown = threading.Event()

    def request_shutdown(signum, _frame) -> None:
        print(f"\nhiss-serve: caught signal {signum}, draining...", flush=True)
        shutdown.set()

    signal.signal(signal.SIGINT, request_shutdown)
    signal.signal(signal.SIGTERM, request_shutdown)

    service.start()
    print(
        f"hiss-serve: listening on {service.url} "
        f"(queue limit {args.queue_limit}, qos threshold {args.qos_threshold}, "
        f"cache {'at ' + args.cache_dir if args.cache_dir else 'in-memory only'})",
        flush=True,
    )
    shutdown.wait()
    service.stop(drain=True)
    ops_log.close()
    print("hiss-serve: drained, bye", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
