"""``hiss trace``: inspect and validate exported simulator traces.

Subcommands::

    hiss trace validate out.json          # schema check; exit 1 on problems
    hiss trace validate --spans job.json  # job span document (service tier)
    hiss trace summary out.json           # per-track span time / event counts
    hiss trace timeline out.json --track "core 0" --limit 40

Traces are produced by ``hiss experiments ... --trace out.json`` or by
:func:`repro.telemetry.export.write_chrome_trace`; they also open directly
in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from typing import Dict, List, Optional

from .export import validate_chrome_trace
from .kit import load_json, print_invalid

PROG = "hiss trace"


def _track_names(doc: Dict) -> Dict[int, str]:
    """tid -> human track name, from thread_name metadata events."""
    names: Dict[int, str] = {}
    for event in doc.get("traceEvents", []):
        if isinstance(event, dict) and event.get("ph") == "M" and event.get("name") == "thread_name":
            names[event.get("tid")] = event.get("args", {}).get("name", str(event.get("tid")))
    return names


def _cmd_validate(args: argparse.Namespace) -> int:
    doc = load_json(PROG, args.trace)
    if args.spans:
        from .spans import validate_trace_document

        if print_invalid(validate_trace_document(doc)):
            return 1
        print(
            f"OK: {args.trace} (trace {doc.get('trace_id')}, "
            f"{len(doc.get('spans', []))} spans, "
            f"{len(doc.get('sim', []))} sim run(s))"
        )
        return 0
    if print_invalid(validate_chrome_trace(doc)):
        return 1
    count = len(doc["traceEvents"])
    dropped = doc.get("otherData", {}).get("dropped_events", 0)
    print(f"OK: {args.trace} ({count} events, {dropped} dropped)")
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    doc = load_json(PROG, args.trace)
    names = _track_names(doc)
    # (tid, name) -> [span_ns, span_count, other_count]
    cells: Dict[tuple, List[float]] = defaultdict(lambda: [0.0, 0, 0])
    for event in doc.get("traceEvents", []):
        if not isinstance(event, dict) or event.get("ph") == "M":
            continue
        cell = cells[(event.get("tid"), event.get("name"))]
        if event.get("ph") == "X":
            cell[0] += float(event.get("dur", 0.0)) * 1000.0
            cell[1] += 1
        else:
            cell[2] += 1
    header = f"{'track':>14s}  {'event':28s} {'total_us':>12s} {'spans':>8s} {'other':>8s}"
    print(header)
    print("-" * len(header))
    for tid, name in sorted(cells, key=lambda k: (str(k[0]), str(k[1]))):
        span_ns, spans, other = cells[(tid, name)]
        track = names.get(tid, str(tid))
        print(f"{track:>14s}  {name:28s} {span_ns / 1e3:12.2f} {spans:8d} {other:8d}")
    dropped = doc.get("otherData", {}).get("dropped_events", 0)
    if dropped:
        print(f"dropped {dropped} events (not in the totals above)")
    metrics = doc.get("otherData", {}).get("metrics")
    if metrics and metrics.get("histograms"):
        print()
        print(f"{'histogram':28s} {'count':>8s} {'mean':>12s} {'p50':>12s} {'p95':>12s} {'p99':>12s} {'max':>12s}")
        for name, snap in sorted(metrics["histograms"].items()):
            print(
                f"{name:28s} {snap['count']:8d} {snap['mean']:12.1f} "
                f"{snap['p50']:12.1f} {snap['p95']:12.1f} {snap['p99']:12.1f} {snap['max']:12.1f}"
            )
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    doc = load_json(PROG, args.trace)
    names = _track_names(doc)
    tids = {name: tid for tid, name in names.items()}
    tid = tids.get(args.track)
    if tid is None:
        try:
            tid = int(args.track)
        except ValueError:
            known = ", ".join(sorted(str(n) for n in tids))
            print(f"{PROG}: unknown track {args.track!r}; known: {known}", file=sys.stderr)
            return 1
    rows = [
        event
        for event in doc.get("traceEvents", [])
        if isinstance(event, dict) and event.get("tid") == tid and event.get("ph") != "M"
    ]
    rows.sort(key=lambda e: (float(e.get("ts", 0.0)), -float(e.get("dur", 0.0))))
    if args.limit:
        rows = rows[: args.limit]
    print(f"timeline for {names.get(tid, tid)} ({len(rows)} events)")
    for event in rows:
        if event.get("ph") == "X":
            shape = f"[{float(event.get('dur', 0.0)):10.2f}us]"
        elif event.get("ph") == "C":
            shape = f"(={event.get('args', {}).get('value')})"
        else:
            shape = "*"
        detail = ""
        arguments = event.get("args")
        if arguments and event.get("ph") != "C":
            detail = "  " + ", ".join(f"{k}={v}" for k, v in sorted(arguments.items()))
        print(f"{float(event.get('ts', 0.0)):14.3f}us  {event.get('name', ''):28s} {shape}{detail}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Inspect Chrome-trace JSON produced by the HISS simulator.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    validate = subparsers.add_parser("validate", help="schema-check a trace file")
    validate.add_argument("trace", help="path to a trace JSON file")
    validate.add_argument(
        "--spans", action="store_true",
        help="treat the file as a job span document (GET /v1/jobs/<id>/trace) "
        "instead of Chrome-trace JSON",
    )
    validate.set_defaults(func=_cmd_validate)

    summary = subparsers.add_parser("summary", help="per-track span time and counts")
    summary.add_argument("trace", help="path to a trace JSON file")
    summary.set_defaults(func=_cmd_summary)

    timeline = subparsers.add_parser("timeline", help="one track's events in time order")
    timeline.add_argument("trace", help="path to a trace JSON file")
    timeline.add_argument(
        "--track", default="core 0", help="track name (e.g. 'core 0', 'iommu') or tid"
    )
    timeline.add_argument("--limit", type=int, default=50, help="max events to print (0 = all)")
    timeline.set_defaults(func=_cmd_timeline)

    args = parser.parse_args(argv)
    return args.func(args)
