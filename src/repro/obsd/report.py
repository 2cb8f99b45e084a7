"""Deterministic text and single-file HTML reports for ``hiss-slo``.

Same contract as :mod:`repro.profiling.report`: zero external
dependencies (inline CSS, server-side inline SVG), the raw report JSON
embedded in a ``<script type="application/json">`` block so tooling can
recover the exact data from the page alone, and — because every input is
a pure function of the capture — byte-identical output for the same
capture and spec set, run to run.
"""

from __future__ import annotations

import html
from typing import Any, Dict, List, Optional

from ..telemetry.kit import STATUS_CSS, fmt_s, render_page
from .rollup import RollupStore

__all__ = [
    "diff_text",
    "evaluation_text",
    "render_diff_html",
    "render_evaluation_html",
    "store_series",
]


def _fmt_burn(burn: float) -> str:
    return f"{burn:.2f}x"


def _fmt_window(seconds: float) -> str:
    if seconds >= 3600 and seconds % 3600 == 0:
        return f"{int(seconds // 3600)}h"
    if seconds >= 60 and seconds % 60 == 0:
        return f"{int(seconds // 60)}m"
    return f"{seconds:g}s"


# ----------------------------------------------------------------------
# Time series extracted from the rollup (for the HTML sparklines)
# ----------------------------------------------------------------------
def store_series(store: RollupStore, histogram: str = "service.job.e2e_s") -> List[Dict[str, Any]]:
    """Per-bucket rows for plotting: counts, failures, and a p99 track."""
    rows: List[Dict[str, Any]] = []
    for bucket in store.buckets:
        h = bucket.histograms.get(histogram)
        summary = h.summary() if h is not None else None
        rows.append(
            {
                "end_s": bucket.end_s,
                "seconds": bucket.seconds,
                "completed": bucket.counters.get("service.jobs.completed", 0),
                "failed": bucket.counters.get("service.jobs.failed", 0),
                "p99_s": summary["percentiles"]["p99"] if summary else None,
                "count": summary["count"] if summary else 0,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Text renderings
# ----------------------------------------------------------------------
def evaluation_text(report: Dict[str, Any], capture: Optional[Dict[str, Any]] = None) -> str:
    """Aligned-text form of an :func:`~repro.obsd.slo.evaluate_slos` report."""
    lines: List[str] = []
    firing = report.get("firing") or []
    verdict = f"{len(firing)} FIRING: {', '.join(firing)}" if firing else "all quiet"
    lines.append(
        f"slo report @ {report['at_s']:.3f} "
        f"({report['buckets']} buckets, interval {report['interval_s']:g}s, "
        f"{report['decimations']} decimations) — {verdict}"
    )
    if capture:
        lines.append(
            f"capture: {capture['events']} events over "
            f"{capture['duration_s']:.3f}s ({capture['skipped']} skipped)"
        )
    lines.append("")
    header = (
        f"{'slo':<18} {'objective':<26} {'window':>7} {'events':>8} "
        f"{'bad':>9} {'burn':>9}  state"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in report["evaluations"]:
        state = "FIRING" if row["firing"] else "ok"
        for which in ("fast", "slow"):
            window = row["windows"][which]
            name = row["name"] if which == "fast" else ""
            detail = row["detail"] if which == "fast" else ""
            state_cell = f"{state} ({row['severity']})" if which == "fast" else ""
            lines.append(
                f"{name:<18} {detail:<26} "
                f"{_fmt_window(window['seconds']):>7} {window['total']:>8.0f} "
                f"{window['bad']:>9.2f} {_fmt_burn(window['burn']):>9}  {state_cell}"
            )
    history = report.get("history")
    if history:
        lines.append("")
        lines.append(f"{'alert transitions':<24} {'state':<10} {'burn f/s':>16}")
        for event in history:
            lines.append(
                f"{event['slo']:<24} {event['state']:<10} "
                f"{event['burn_fast']:>7.1f}/{event['burn_slow']:<8.1f}"
            )
    return "\n".join(lines)


def diff_text(diff: Dict[str, Any]) -> str:
    """Aligned-text form of a :func:`~repro.obsd.traces.trace_diff`."""
    a, b = diff["a"], diff["b"]
    lines = [
        f"trace diff: {a['job_id']} ({fmt_s(a['e2e_s'])}) -> "
        f"{b['job_id']} ({fmt_s(b['e2e_s'])}), "
        f"delta {diff['e2e_delta_s']:+.6f}s",
        "",
    ]
    header = (
        f"{'stage':<32} {'baseline':>12} {'compare':>12} "
        f"{'delta':>12} {'share':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in diff["stages"]:
        share = (
            f"{row['share_of_delta'] * 100:.1f}%"
            if diff["e2e_delta_s"]
            else "-"
        )
        lines.append(
            f"{row['label']:<32} {fmt_s(row['a_s']):>12} {fmt_s(row['b_s']):>12} "
            f"{row['delta_s']:>+12.6f} {share:>7}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# HTML assembly
# ----------------------------------------------------------------------
def _burn_bar(burn: float, factor: float, width: int = 180) -> str:
    """A horizontal burn bar: full width at 2x the alert factor."""
    span = max(factor * 2.0, 1e-9)
    px = int(min(1.0, burn / span) * width)
    cls = "bar bad" if burn >= factor else "bar"
    return f"<span class='{cls}' style='width:{max(px, 2)}px'></span>"


def _series_svg(series: List[Dict[str, Any]], width: int = 860) -> str:
    plotted = [row for row in series if row["p99_s"] is not None]
    if len(plotted) < 2:
        return "<p class='muted'>not enough buckets for a p99 track</p>"
    height, pad = 90, 10
    t0 = plotted[0]["end_s"]
    t1 = plotted[-1]["end_s"]
    span = max(t1 - t0, 1e-9)
    peak = max(row["p99_s"] for row in plotted) or 1e-9
    points = " ".join(
        f"{pad + (row['end_s'] - t0) / span * (width - 2 * pad):.1f},"
        f"{height - pad - (row['p99_s'] / peak) * (height - 2 * pad):.1f}"
        for row in plotted
    )
    return (
        f"<svg viewBox='0 0 {width} {height}' width='{width}' height='{height}' "
        "xmlns='http://www.w3.org/2000/svg' role='img'>"
        f"<rect x='0' y='0' width='{width}' height='{height}' fill='#fafafa' "
        "stroke='#ddd'/>"
        f"<polyline points='{points}' fill='none' stroke='#4c78a8' "
        "stroke-width='1.4'/>"
        f"<text x='{pad}' y='{pad + 8}' font-size='10' fill='#555'>"
        f"e2e p99 (peak {peak:.4g}s) per bucket</text>"
        "</svg>"
    )


def render_evaluation_html(
    report: Dict[str, Any],
    capture: Optional[Dict[str, Any]] = None,
    series: Optional[List[Dict[str, Any]]] = None,
) -> str:
    """One self-contained page for an evaluation report."""
    e = html.escape
    firing = report.get("firing") or []
    out: List[str] = []
    verdict = (
        f"<span class='firing'>{len(firing)} firing: {e(', '.join(firing))}</span>"
        if firing
        else "<span class='ok'>all objectives met</span>"
    )
    summary = (
        f"{verdict} &middot; {report['buckets']} buckets &middot; "
        f"interval {report['interval_s']:g}s &middot; "
        f"{report['decimations']} decimations"
    )
    if capture:
        summary += (
            f" &middot; {capture['events']} capture events over "
            f"{capture['duration_s']:.3f}s"
        )
    out.append(f"<p>{summary}</p>")

    out.append("<h2>Burn rates: fast and slow windows</h2>")
    out.append(
        "<table><thead><tr><th>slo</th><th>objective</th><th>window</th>"
        "<th class='num'>events</th><th class='num'>bad</th>"
        "<th class='num'>burn</th><th style='width:28%'></th><th>state</th>"
        "</tr></thead><tbody>"
    )
    for row in report["evaluations"]:
        state = (
            f"<span class='firing'>FIRING ({e(row['severity'])})</span>"
            if row["firing"]
            else "<span class='ok'>ok</span>"
        )
        for which in ("fast", "slow"):
            window = row["windows"][which]
            out.append(
                "<tr>"
                f"<td class='mono'>{e(row['name']) if which == 'fast' else ''}</td>"
                f"<td>{e(row['detail']) if which == 'fast' else ''}</td>"
                f"<td>{e(_fmt_window(window['seconds']))}</td>"
                f"<td class='num'>{window['total']:.0f}</td>"
                f"<td class='num'>{window['bad']:.2f}</td>"
                f"<td class='num'>{e(_fmt_burn(window['burn']))}</td>"
                f"<td>{_burn_bar(window['burn'], row['burn_factor'])}</td>"
                f"<td>{state if which == 'fast' else ''}</td></tr>"
            )
    out.append("</tbody></table>")
    out.append(
        "<p class='muted'>A rule fires when both windows burn error budget "
        "faster than its factor — the slow window filters one-off spikes, "
        "the fast window makes recovery visible quickly.</p>"
    )

    history = report.get("history")
    if history:
        out.append("<h2>Alert transitions</h2>")
        out.append(
            "<table><thead><tr><th>slo</th><th>state</th>"
            "<th class='num'>burn fast</th><th class='num'>burn slow</th>"
            "<th>detail</th></tr></thead><tbody>"
        )
        for event in history:
            cls = "firing" if event["state"] == "firing" else "ok"
            out.append(
                f"<tr><td class='mono'>{e(event['slo'])}</td>"
                f"<td class='{cls}'>{e(event['state'])}</td>"
                f"<td class='num'>{event['burn_fast']:.2f}x</td>"
                f"<td class='num'>{event['burn_slow']:.2f}x</td>"
                f"<td class='muted'>{e(event.get('detail') or '')}</td></tr>"
            )
        out.append("</tbody></table>")

    if series:
        out.append("<h2>Tail latency over the capture</h2>")
        out.append(_series_svg(series))

    document = {"report": report, "capture": capture, "series": series}
    return render_page("HISS SLO report", STATUS_CSS, out, "hiss-slo-data", document)


def render_diff_html(diff: Dict[str, Any]) -> str:
    """One self-contained page for a two-job trace diff."""
    e = html.escape
    a, b = diff["a"], diff["b"]
    out: List[str] = []
    out.append(
        f"<p><span class='mono'>{e(str(a['job_id']))}</span> "
        f"({e(fmt_s(a['e2e_s']))}) &rarr; "
        f"<span class='mono'>{e(str(b['job_id']))}</span> "
        f"({e(fmt_s(b['e2e_s']))}) &middot; "
        f"end-to-end delta <b>{diff['e2e_delta_s']:+.6f}s</b></p>"
    )
    out.append("<h2>Stage attribution of the delta</h2>")
    max_abs = max((abs(r["delta_s"]) for r in diff["stages"]), default=0.0)
    out.append(
        "<table><thead><tr><th>stage</th><th class='num'>baseline</th>"
        "<th class='num'>compare</th><th class='num'>delta</th>"
        "<th style='width:30%'></th><th class='num'>share of delta</th>"
        "</tr></thead><tbody>"
    )
    for row in diff["stages"]:
        px = int(240 * abs(row["delta_s"]) / max_abs) if max_abs else 0
        cls = "bar bad" if row["delta_s"] > 0 else "bar"
        share = (
            f"{row['share_of_delta'] * 100:.1f}%" if diff["e2e_delta_s"] else "&mdash;"
        )
        out.append(
            f"<tr><td>{e(row['label'])}</td>"
            f"<td class='num'>{e(fmt_s(row['a_s']))}</td>"
            f"<td class='num'>{e(fmt_s(row['b_s']))}</td>"
            f"<td class='num'>{row['delta_s']:+.6f}</td>"
            f"<td><span class='{cls}' style='width:{max(px, 2)}px'></span></td>"
            f"<td class='num'>{share}</td></tr>"
        )
    out.append("</tbody></table>")
    out.append(
        "<p class='muted'>Red bars are stages where the comparison job spent "
        "longer than the baseline; shares sum to 100% of the end-to-end "
        "delta up to rounding.</p>"
    )
    return render_page("HISS trace diff", STATUS_CSS, out, "hiss-slo-diff-data", diff)
