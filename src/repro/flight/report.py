"""Deterministic text and single-file HTML rendering for postmortems.

Same contract as :mod:`repro.obsd.report` and
:mod:`repro.profiling.report`: zero external dependencies (inline CSS,
server-side inline SVG), the raw bundle JSON embedded in a ``<script
type="application/json">`` block so tooling can recover the exact data
from the page alone, and — because a bundle is a closed capture and
every renderer below is a pure function of it — byte-identical output
for the same bundle, run to run.
"""

from __future__ import annotations

import html
from typing import Any, Dict, List

from ..telemetry.kit import STATUS_CSS, fmt_s, render_page

__all__ = ["postmortem_text", "render_postmortem_html"]


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


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# HTML assembly
# ----------------------------------------------------------------------
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
            out.append(
                "<table><thead><tr><th>slo</th><th>state</th>"
                "<th class='num'>burn fast</th><th class='num'>burn slow</th>"
                "<th>detail</th></tr></thead><tbody>"
            )
            for event in history[-10:]:
                cls = "firing" if event.get("state") == "firing" else "ok"
                out.append(
                    f"<tr><td class='mono'>{e(str(event.get('slo', '?')))}</td>"
                    f"<td class='{cls}'>{e(str(event.get('state', '?')))}</td>"
                    f"<td class='num'>{event.get('burn_fast', 0.0):.2f}x</td>"
                    f"<td class='num'>{event.get('burn_slow', 0.0):.2f}x</td>"
                    f"<td class='muted'>{e(str(event.get('detail') or ''))}</td></tr>"
                )
            out.append("</tbody></table>")

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
