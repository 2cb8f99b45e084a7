"""``hiss top``: a live operational console for a running daemon.

Polls ``GET /v1/ops`` and renders queue depth, governor state, cache hit
rates, stage-latency percentiles, and the most recent jobs — the serving
tier's ``top``.  It redraws the terminal every ``--interval`` with ANSI
escapes until interrupted; ``--once`` renders a single frame to stdout
and exits (what the CI smoke test runs).

Rendering is a pure function (:func:`render_ops`) over the ops document,
so tests cover the console without a terminal or a server.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, Optional

from .client import DAEMON_ERRORS, DEFAULT_URL, ServiceClient, daemon_error

__all__ = ["main", "render_ops"]

PROG = "hiss top"


def _fmt_s(value: Optional[float]) -> str:
    """Compact duration: 832ms, 4.21s, 2m09s, 1h04m."""
    if value is None:
        return "-"
    if value < 1.0:
        return f"{value * 1e3:.0f}ms"
    if value < 60.0:
        return f"{value:.2f}s"
    if value < 3600.0:
        return f"{int(value // 60)}m{int(value % 60):02d}s"
    return f"{int(value // 3600)}h{int((value % 3600) // 60):02d}m"


def _fmt_rate(value: Optional[float]) -> str:
    return "-" if value is None else f"{value * 100:.0f}%"


def _bar(fraction: float, width: int = 20) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def _latency_rows(latency: Dict[str, Any]) -> List[str]:
    rows = [f"  {'stage':<12} {'count':>6} {'p50':>8} {'p95':>8} {'p99':>8} {'max':>8}"]
    for label, summary in latency.items():
        if not summary or not summary.get("count"):
            rows.append(f"  {label:<12} {'0':>6} {'-':>8} {'-':>8} {'-':>8} {'-':>8}")
            continue
        pct = summary.get("percentiles", {})
        rows.append(
            f"  {label:<12} {summary['count']:>6} "
            f"{_fmt_s(pct.get('p50')):>8} {_fmt_s(pct.get('p95')):>8} "
            f"{_fmt_s(pct.get('p99')):>8} {_fmt_s(summary.get('max')):>8}"
        )
    return rows


def render_ops(doc: Dict[str, Any]) -> str:
    """One frame of the console, as plain text (pure; unit-testable)."""
    queue = doc.get("queue", {})
    governor = doc.get("governor", {})
    workers = doc.get("workers", {})
    cache = doc.get("cache", {})
    trace = doc.get("trace", {})
    latency = doc.get("latency", {})
    jobs = doc.get("jobs", {})
    counts = jobs.get("counts", {})

    state = "DRAINING" if doc.get("draining") else "serving"
    lines: List[str] = []
    lines.append(
        f"{PROG} — {state}, up {_fmt_s(doc.get('uptime_s'))}, "
        f"{workers.get('resolved_workers', '?')} worker(s)"
    )
    lines.append("=" * 78)

    depth = queue.get("depth", 0)
    limit = max(1, queue.get("limit", 1))
    lines.append(
        f"queue     [{_bar(depth / limit)}] {depth}/{queue.get('limit', '?')}"
        f"  mean service {_fmt_s(queue.get('mean_service_s'))}"
        f"  rejected full={queue.get('rejected_queue_full', 0)}"
        f" qos={queue.get('rejected_backpressure', 0)}"
    )
    fraction = governor.get("fraction", 0.0) or 0.0
    throttling = bool(governor.get("over_threshold"))
    lines.append(
        f"load      [{_bar(fraction)}] {fraction * 100:5.1f}% of "
        f"{workers.get('resolved_workers', '?')} worker(s)"
        f"  threshold {_fmt_rate(governor.get('threshold'))}"
        f"  backoff {_fmt_s(governor.get('delay_s')) if throttling else 'off'}"
        f"  throttled {int(governor.get('throttle_events', 0))}"
    )
    disk = cache.get("disk")
    disk_text = (
        f"disk {_fmt_rate(disk['hit_rate'])} ({disk['hits']}h/{disk['misses']}m)"
        if disk
        else "disk off"
    )
    lines.append(
        f"cache     mem {cache.get('memory_runs', 0)} runs"
        f"  run hit-rate {_fmt_rate(cache.get('run_hit_rate'))}"
        f"  executed {cache.get('runs_executed', 0)}"
        f"  {disk_text}"
    )
    pool = doc.get("pool", {})
    if pool.get("spawned_workers"):
        lines.append(
            f"pool      {int(pool.get('live_workers', 0))} warm worker(s)"
            f"  spawned {int(pool.get('spawned_workers', 0))}"
            f"  recycled {int(pool.get('recycled_workers', 0))}"
            f"  crashed {int(pool.get('crashed_workers', 0))}"
            f"  failed {int(pool.get('runs_failed', 0))}"
            f"  warm-hit {_fmt_rate(pool.get('warm_hit_ratio'))}"
        )
    else:
        lines.append(
            "pool      cold (no resident workers)"
            f"  failed {int(pool.get('runs_failed', 0))}"
        )
    lines.append(
        f"trace     {'on' if trace.get('enabled') else 'off'}"
        f"  dropped events {trace.get('dropped_events', 0)}"
    )
    slo = doc.get("slo")
    if slo and slo.get("enabled"):
        firing = slo.get("firing") or []
        verdict = (
            f"{len(firing)} FIRING: {', '.join(firing)}"
            if firing
            else "all objectives met"
        )
        lines.append(
            f"slo       {slo.get('specs', 0)} objective(s)"
            f"  ticks {slo.get('ticks', 0)}  {verdict}"
        )
        for event in (slo.get("history") or [])[-3:]:
            lines.append(
                f"  {event.get('state', '?'):<9} {event.get('slo', '?'):<20} "
                f"burn {event.get('burn_fast', 0.0):.1f}x/"
                f"{event.get('burn_slow', 0.0):.1f}x  {event.get('detail', '')}"
            )
    postmortems = doc.get("postmortems")
    if postmortems and postmortems.get("enabled"):
        last = postmortems.get("last") or {}
        last_text = (
            f"last {last.get('id', '?')} ({last.get('trigger', '?')})"
            if last
            else "none captured"
        )
        lines.append(
            f"flight    {postmortems.get('stored', 0)} bundle(s)"
            f"  captured {postmortems.get('captured', 0)}"
            f"  suppressed {postmortems.get('suppressed', 0)}"
            f"  ring {(postmortems.get('ring') or {}).get('entries', 0)}"
            f"  {last_text}"
        )
    lines.append("")
    lines.append("latency")
    lines.extend(_latency_rows(latency))
    lines.append("")
    summary = "  ".join(f"{state}={n}" for state, n in sorted(counts.items()))
    lines.append(f"jobs      {summary or '(none yet)'}")
    lines.append(
        f"  {'id':<24} {'state':<9} {'trace':<16} {'runs':>5} "
        f"{'cached':>6} {'e2e':>8}  experiments"
    )
    for job in jobs.get("recent", []):
        experiments = ",".join(job.get("experiments", []))
        if len(experiments) > 24:
            experiments = experiments[:21] + "..."
        lines.append(
            f"  {job.get('id', '?'):<24} {job.get('state', '?'):<9} "
            f"{job.get('trace_id', ''):<16} {job.get('planned_runs', 0):>5} "
            f"{job.get('runs_cached', 0):>6} {_fmt_s(job.get('e2e_s')):>8}"
            f"  {experiments}"
        )
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog=PROG, description="Live console for a running simulation daemon."
    )
    parser.add_argument("--url", default=DEFAULT_URL, help=f"server URL (default {DEFAULT_URL})")
    parser.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh period (default 1s)",
    )
    parser.add_argument(
        "--once", action="store_true", help="render one frame to stdout and exit"
    )
    parser.add_argument("--timeout", type=float, default=5.0, help="per-poll timeout (s)")
    args = parser.parse_args(argv)

    client = ServiceClient(args.url, timeout_s=args.timeout)
    try:
        if args.once:
            sys.stdout.write(render_ops(client.ops()))
            return 0
        while True:
            # Home + clear-to-end beats full clears: no flicker on dumb terminals.
            sys.stdout.write("\x1b[H\x1b[2J" + render_ops(client.ops()))
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except DAEMON_ERRORS as error:
        return daemon_error(PROG, args.url, error)
    finally:
        client.close()
