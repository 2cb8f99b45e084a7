"""Deterministic text and single-file HTML reports for ``hiss-slo``.

SLO evaluations, trace diffs and postmortem bundles render here, under
the same contract as :mod:`repro.profiling.report`: zero external
dependencies (inline CSS, server-side inline SVG), the raw document JSON
embedded in a ``<script type="application/json">`` block so tooling can
recover the exact data from the page alone, and — because every input is
a pure function of the capture (a postmortem bundle is a closed capture)
— byte-identical output for the same input, run to run.
"""

from __future__ import annotations

import html
from typing import Any, Dict, List, Optional

from ..telemetry.kit import STATUS_CSS, fmt_s, render_page
from .rollup import RollupStore

__all__ = [
    "diff_text",
    "evaluation_text",
    "postmortem_text",
    "render_diff_html",
    "render_evaluation_html",
    "render_postmortem_html",
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


def _history_table(out: List[str], history: List[Dict[str, Any]]) -> None:
    """Append the table of alert transitions (``AlertEvent`` dicts)."""
    e = html.escape
    out.append(
        "<table><thead><tr><th>slo</th><th>state</th>"
        "<th class='num'>burn fast</th><th class='num'>burn slow</th>"
        "<th>detail</th></tr></thead><tbody>"
    )
    for event in history:
        cls = "firing" if event.get("state") == "firing" else "ok"
        out.append(
            f"<tr><td class='mono'>{e(str(event.get('slo', '?')))}</td>"
            f"<td class='{cls}'>{e(str(event.get('state', '?')))}</td>"
            f"<td class='num'>{event.get('burn_fast', 0.0):.2f}x</td>"
            f"<td class='num'>{event.get('burn_slow', 0.0):.2f}x</td>"
            f"<td class='muted'>{e(str(event.get('detail') or ''))}</td></tr>"
        )
    out.append("</tbody></table>")


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
        _history_table(out, history)

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


# ----------------------------------------------------------------------
# Postmortem bundles (``hiss-slo postmortem``)
# ----------------------------------------------------------------------
def _fmt_ns(ns: float) -> str:
    if ns >= 1e9:
        return f"{ns / 1e9:.3f} s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f} µs"
    return f"{ns:.0f} ns"


def _job_rows(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for trace in doc.get("jobs") or []:
        root = next(
            (s for s in trace.get("spans", []) if s.get("span_id") == "root"), None
        )
        args = (root or {}).get("args", {})
        rows.append(
            {
                "job_id": trace.get("job_id"),
                "trace_id": trace.get("trace_id"),
                "state": trace.get("state"),
                "e2e_s": (root or {}).get("duration_s"),
                "planned_runs": args.get("planned_runs"),
                "runs_executed": args.get("runs_executed"),
            }
        )
    return rows


def postmortem_text(doc: Dict[str, Any]) -> str:
    """Aligned-text summary of one ``hiss.postmortem/1`` bundle."""
    trigger = doc.get("trigger") or {}
    ring = doc.get("flight_ring") or {}
    entries = ring.get("entries") or []
    config = doc.get("config") or {}
    lines: List[str] = []
    lines.append(
        f"postmortem {doc.get('id', '?')} @ {doc.get('captured_s', 0.0):.3f} "
        f"— trigger {trigger.get('name', '?')} ({trigger.get('kind', '?')})"
    )
    if trigger.get("detail"):
        lines.append(f"  {trigger['detail']}")
    lines.append(
        f"build: v{config.get('version', '?')} "
        f"fingerprint {str(config.get('code_fingerprint', '?'))[:12]} "
        f"schema {str(config.get('schema_digest', '?'))[:12]}"
    )
    lines.append(
        f"ring: {len(entries)} entries representing {ring.get('appended', 0)} "
        f"records ({ring.get('decimations', 0)} decimations)"
    )
    kinds: Dict[str, int] = {}
    for entry in entries:
        kinds[entry.get("kind", "?")] = (
            kinds.get(entry.get("kind", "?"), 0) + entry.get("weight", 1)
        )
    if kinds:
        lines.append(
            "  " + "  ".join(f"{kind}={kinds[kind]}" for kind in sorted(kinds))
        )
    jobs = _job_rows(doc)
    if jobs:
        lines.append("")
        header = f"{'implicated job':<26} {'state':<10} {'runs':>5} {'e2e':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        for row in jobs:
            lines.append(
                f"{str(row['job_id']):<26} {str(row['state']):<10} "
                f"{row['planned_runs'] if row['planned_runs'] is not None else '-':>5} "
                f"{fmt_s(row['e2e_s']):>12}"
            )
    blame = (doc.get("blame") or {}).get("rows") or []
    if blame:
        lines.append("")
        header = (
            f"{'blame (top rows)':<22} {'channel':<12} {'victim':<14} "
            f"{'core':>4} {'charge':>12}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in blame[:10]:
            lines.append(
                f"{str(row.get('ssr', '?')):<22} {str(row.get('channel', '?')):<12} "
                f"{str(row.get('victim', '?')):<14} {row.get('core', '-'):>4} "
                f"{_fmt_ns(float(row.get('ns', 0))):>12}"
            )
    alerts = doc.get("alerts")
    if alerts:
        firing = alerts.get("firing") or []
        lines.append("")
        lines.append(
            f"alerts: {len(firing)} firing"
            + (f" ({', '.join(firing)})" if firing else "")
            + f", {len(alerts.get('history') or [])} transitions recorded"
        )
    return "\n".join(lines)


_LANE_COLORS = ("#4c78a8", "#f58518", "#54a24b", "#b279a2", "#9d755d", "#72b7b2")


def _timeline_svg(doc: Dict[str, Any], width: int = 860) -> str:
    """The flight ring as one inline SVG timeline: lanes per entry kind
    category, a mark per entry (heavier = a decimated pair run), and a
    red line at the trigger instant."""
    ring = doc.get("flight_ring") or {}
    entries = ring.get("entries") or []
    if len(entries) < 2:
        return "<p class='muted'>not enough ring entries for a timeline</p>"
    trigger_s = (doc.get("trigger") or {}).get("at_s")
    t0 = min(entry.get("first_ts_s", entry.get("ts_s", 0.0)) for entry in entries)
    t1 = max(entry.get("ts_s", 0.0) for entry in entries)
    if trigger_s is not None:
        t0 = min(t0, trigger_s)
        t1 = max(t1, trigger_s)
    span = max(t1 - t0, 1e-9)
    categories = sorted({str(entry.get("kind", "?")).split(".")[0] for entry in entries})
    lane_h, pad, label_w = 26, 10, 90
    height = pad * 2 + lane_h * len(categories)
    plot_w = width - label_w - pad

    def x_of(ts: float) -> float:
        return label_w + (ts - t0) / span * plot_w

    out: List[str] = []
    out.append(
        f"<svg viewBox='0 0 {width} {height}' width='{width}' height='{height}' "
        "xmlns='http://www.w3.org/2000/svg' role='img'>"
        f"<rect x='0' y='0' width='{width}' height='{height}' fill='#fafafa' "
        "stroke='#ddd'/>"
    )
    for lane, category in enumerate(categories):
        y = pad + lane * lane_h + lane_h // 2
        color = _LANE_COLORS[lane % len(_LANE_COLORS)]
        out.append(
            f"<text x='{pad}' y='{y + 4}' font-size='10' fill='#555'>"
            f"{html.escape(category)}</text>"
        )
        out.append(
            f"<line x1='{label_w}' y1='{y}' x2='{width - pad}' y2='{y}' "
            "stroke='#eee'/>"
        )
        for entry in entries:
            if str(entry.get("kind", "?")).split(".")[0] != category:
                continue
            weight = entry.get("weight", 1)
            first = entry.get("first_ts_s", entry.get("ts_s", 0.0))
            last = entry.get("ts_s", 0.0)
            if weight > 1 and last > first:
                # A decimated pair run: draw its span, not just a point.
                out.append(
                    f"<line x1='{x_of(first):.1f}' y1='{y}' "
                    f"x2='{x_of(last):.1f}' y2='{y}' "
                    f"stroke='{color}' stroke-width='3' opacity='0.35'/>"
                )
            out.append(
                f"<circle cx='{x_of(last):.1f}' cy='{y}' "
                f"r='{3 if weight == 1 else 4}' fill='{color}'/>"
            )
    if trigger_s is not None:
        out.append(
            f"<line x1='{x_of(trigger_s):.1f}' y1='{pad // 2}' "
            f"x2='{x_of(trigger_s):.1f}' y2='{height - pad // 2}' "
            "stroke='#b0272a' stroke-width='1.5' stroke-dasharray='4,3'/>"
        )
    out.append("</svg>")
    return "".join(out)


def render_postmortem_html(doc: Dict[str, Any]) -> str:
    """One self-contained page for a ``hiss.postmortem/1`` bundle."""
    e = html.escape
    trigger = doc.get("trigger") or {}
    ring = doc.get("flight_ring") or {}
    config = doc.get("config") or {}
    out: List[str] = []
    out.append(
        f"<p><span class='firing'>{e(str(trigger.get('name', '?')))}</span> "
        f"({e(str(trigger.get('kind', '?')))}) at "
        f"<span class='mono'>{trigger.get('at_s', 0.0):.3f}</span> &middot; "
        f"{len(ring.get('entries') or [])} ring entries representing "
        f"{ring.get('appended', 0)} records &middot; "
        f"v{e(str(config.get('version', '?')))} "
        f"<span class='mono'>{e(str(config.get('code_fingerprint', '?'))[:12])}</span></p>"
    )
    if trigger.get("detail"):
        out.append(f"<p class='muted'>{e(str(trigger['detail']))}</p>")

    out.append("<h2>Timeline: the moments around the trigger</h2>")
    out.append(_timeline_svg(doc))
    out.append(
        "<p class='muted'>One lane per diagnostic category; faded spans are "
        "decimated pair runs (older history at coarser resolution), the "
        "dashed red line is the trigger instant.</p>"
    )

    jobs = _job_rows(doc)
    if jobs:
        out.append("<h2>Implicated jobs</h2>")
        out.append(
            "<table><thead><tr><th>job</th><th>trace</th><th>state</th>"
            "<th class='num'>planned runs</th><th class='num'>executed</th>"
            "<th class='num'>e2e</th></tr></thead><tbody>"
        )
        for row in jobs:
            cls = "ok" if row["state"] == "done" else "firing"
            out.append(
                f"<tr><td class='mono'>{e(str(row['job_id']))}</td>"
                f"<td class='mono'>{e(str(row['trace_id']))}</td>"
                f"<td class='{cls}'>{e(str(row['state']))}</td>"
                f"<td class='num'>{row['planned_runs'] if row['planned_runs'] is not None else '-'}</td>"
                f"<td class='num'>{row['runs_executed'] if row['runs_executed'] is not None else '-'}</td>"
                f"<td class='num'>{e(fmt_s(row['e2e_s']))}</td></tr>"
            )
        out.append("</tbody></table>")

    blame = (doc.get("blame") or {}).get("rows") or []
    if blame:
        out.append("<h2>Top blame-ledger rows</h2>")
        peak = max(float(row.get("ns", 0)) for row in blame) or 1e-9
        out.append(
            "<table><thead><tr><th>ssr</th><th>channel</th><th>victim</th>"
            "<th class='num'>core</th><th class='num'>charge</th>"
            "<th style='width:28%'></th><th>run</th></tr></thead><tbody>"
        )
        for row in blame:
            ns = float(row.get("ns", 0))
            px = int(240 * ns / peak)
            out.append(
                f"<tr><td class='mono'>{e(str(row.get('ssr', '?')))}</td>"
                f"<td>{e(str(row.get('channel', '?')))}</td>"
                f"<td>{e(str(row.get('victim', '?')))}</td>"
                f"<td class='num'>{row.get('core', '-')}</td>"
                f"<td class='num'>{e(_fmt_ns(ns))}</td>"
                f"<td><span class='bar' style='width:{max(px, 2)}px'></span></td>"
                f"<td class='mono muted'>{e(str(row.get('run', '')))}</td></tr>"
            )
        out.append("</tbody></table>")

    alerts = doc.get("alerts")
    if alerts:
        firing = alerts.get("firing") or []
        verdict = (
            f"<span class='firing'>{len(firing)} firing: {e(', '.join(firing))}</span>"
            if firing
            else "<span class='ok'>no objectives firing</span>"
        )
        out.append(f"<h2>Alerts at capture</h2><p>{verdict}</p>")
        history = alerts.get("history") or []
        if history:
            _history_table(out, history[-10:])

    metrics = doc.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        out.append("<h2>Counters at capture</h2>")
        out.append(
            "<table><thead><tr><th>counter</th><th class='num'>value</th>"
            "</tr></thead><tbody>"
        )
        for name in sorted(counters):
            out.append(
                f"<tr><td class='mono'>{e(name)}</td>"
                f"<td class='num'>{counters[name]}</td></tr>"
            )
        out.append("</tbody></table>")

    return render_page(
        f"HISS postmortem {doc.get('id', '?')}", STATUS_CSS, out,
        "hiss-postmortem-data", doc,
    )
