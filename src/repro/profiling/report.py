"""Self-contained single-file HTML report for interference profiles.

Renders a profile bundle (or a single run document) into one HTML file
with zero external dependencies — inline CSS, server-side-generated
inline SVG for the timeline strip, and the raw profile JSON embedded in a
``<script type="application/json">`` block so downstream tooling can
recover the exact data from the report alone.

Sections mirror the paper's presentation:

* **Attribution table** (à la Table 1): stolen ns per SSR source and
  channel, with each service channel's share of the SSR accumulator.
* **Per-app blame** (à la Fig. 3): how much time each victim application
  lost, split by channel, as horizontal bars.
* **Timeline strip** (per run): per-core mode bands plus the PPR queue
  depth curve, from the sim-time sampler.
"""

from __future__ import annotations

import html
from typing import Dict, List, Tuple

from ..telemetry.kit import BASE_CSS, render_page
from .ledger import ALL_CHANNELS, SSR_SERVICE_CHANNELS
from .profiler import profile_runs

__all__ = [
    "aggregate_app_blame",
    "aggregate_attribution",
    "render_html",
    "text_summary",
]

#: Timeline band colors per mode code (see ``sampler.MODE_CODES``).
_MODE_COLORS = {
    "u": "#4c78a8",  # user
    "k": "#e45756",  # kernel
    "q": "#f58518",  # irq
    "s": "#b279a2",  # switch
    "i": "#e8e8e8",  # idle
    "t": "#f2cf5b",  # transition
    "c": "#2f2f2f",  # cc6
    "?": "#ffffff",
}

_MODE_LEGEND = (
    ("u", "user"), ("k", "kernel"), ("q", "irq"), ("s", "switch"),
    ("i", "idle"), ("t", "transition"), ("c", "cc6"),
)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def aggregate_attribution(document: Dict) -> List[Dict]:
    """Rows of (ssr, channel) -> ns across all runs, largest first."""
    cells: Dict[Tuple[str, str], float] = {}
    for run in profile_runs(document):
        for entry in run.get("ledger", {}).get("entries", []):
            key = (entry["ssr"], entry["channel"])
            cells[key] = cells.get(key, 0) + entry["ns"]
    service_total = sum(
        ns for (_, channel), ns in cells.items() if channel in SSR_SERVICE_CHANNELS
    )
    rows = [
        {
            "ssr": ssr,
            "channel": channel,
            "family": "service" if channel in SSR_SERVICE_CHANNELS else "side",
            "ns": ns,
            "share": (ns / service_total)
            if channel in SSR_SERVICE_CHANNELS and service_total
            else None,
        }
        for (ssr, channel), ns in cells.items()
    ]
    rows.sort(key=lambda r: (-r["ns"], r["ssr"], r["channel"]))
    return rows


def aggregate_app_blame(document: Dict) -> List[Dict]:
    """Per victim app: total stolen ns and a by-channel breakdown."""
    blame: Dict[str, Dict[str, float]] = {}
    for run in profile_runs(document):
        for entry in run.get("ledger", {}).get("entries", []):
            per_channel = blame.setdefault(entry["app"], {})
            per_channel[entry["channel"]] = (
                per_channel.get(entry["channel"], 0) + entry["ns"]
            )
    rows = [
        {
            "app": app,
            "total_ns": sum(per_channel.values()),
            "channels": {
                channel: per_channel[channel]
                for channel in ALL_CHANNELS
                if channel in per_channel
            },
        }
        for app, per_channel in blame.items()
    ]
    rows.sort(key=lambda r: (-r["total_ns"], r["app"]))
    return rows


def _fmt_ns(ns: float) -> str:
    if ns >= 1e6:
        return f"{ns / 1e6:.3f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f} µs"
    return f"{ns:.0f} ns"


# ----------------------------------------------------------------------
# Text summary (hiss-report summary / render chatter)
# ----------------------------------------------------------------------
def text_summary(document: Dict) -> str:
    runs = profile_runs(document)
    lines = [f"profile: {len(runs)} run(s)"]
    ssr_total = sum(run.get("ssr_time_ns", 0) for run in runs)
    lines.append(f"SSR service time: {_fmt_ns(ssr_total)} across all runs")
    lines.append("")
    lines.append(f"{'ssr':<18} {'channel':<12} {'family':<8} {'stolen':>12} {'share':>7}")
    for row in aggregate_attribution(document):
        share = f"{row['share'] * 100:.1f}%" if row["share"] is not None else "-"
        lines.append(
            f"{row['ssr']:<18} {row['channel']:<12} {row['family']:<8} "
            f"{_fmt_ns(row['ns']):>12} {share:>7}"
        )
    lines.append("")
    lines.append(f"{'victim app':<22} {'stolen':>12}")
    for row in aggregate_app_blame(document):
        lines.append(f"{row['app']:<22} {_fmt_ns(row['total_ns']):>12}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Timeline SVG
# ----------------------------------------------------------------------
def _timeline_svg(run: Dict, width: int = 860) -> str:
    samples = run.get("samples", {})
    rows = samples.get("rows") or []
    if not rows:
        return "<p class='muted'>no samples recorded</p>"
    horizon = run.get("horizon_ns") or rows[-1][0]
    num_cores = run.get("num_cores") or len(rows[0][1])
    band_h, gap, depth_h = 14, 3, 48
    left = 64
    height = num_cores * (band_h + gap) + depth_h + 34
    scale = (width - left - 8) / max(1, horizon)
    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='{width}' height='{height}' "
        f"xmlns='http://www.w3.org/2000/svg' role='img'>"
    ]
    # Per-core mode bands: each sample colors [ts, next_ts).
    for core in range(num_cores):
        y = core * (band_h + gap)
        parts.append(
            f"<text x='4' y='{y + band_h - 3}' font-size='10' fill='#555'>core {core}</text>"
        )
        for index, row in enumerate(rows):
            code = row[1][core] if core < len(row[1]) else "?"
            # A sample at ts describes the state from the previous sample
            # (or 0) up to the next one; the first sample also covers the
            # lead-in so the band starts at t=0.
            seg_start = 0 if index == 0 else row[0]
            seg_end = rows[index + 1][0] if index + 1 < len(rows) else horizon
            x = left + seg_start * scale
            w = max(0.5, (seg_end - seg_start) * scale)
            color = _MODE_COLORS.get(code, "#fff")
            parts.append(
                f"<rect x='{x:.1f}' y='{y}' width='{w:.1f}' height='{band_h}' "
                f"fill='{color}'/>"
            )
    # PPR depth polyline.
    depth_y0 = num_cores * (band_h + gap) + 14
    max_depth = max(1, max(row[2] for row in rows))
    points = " ".join(
        f"{left + row[0] * scale:.1f},{depth_y0 + depth_h - (row[2] / max_depth) * depth_h:.1f}"
        for row in rows
    )
    parts.append(
        f"<text x='4' y='{depth_y0 + 10}' font-size='10' fill='#555'>ppr depth</text>"
    )
    parts.append(
        f"<text x='4' y='{depth_y0 + 22}' font-size='10' fill='#999'>max {max_depth}</text>"
    )
    parts.append(
        f"<rect x='{left}' y='{depth_y0}' width='{width - left - 8}' height='{depth_h}' "
        f"fill='#fafafa' stroke='#ddd'/>"
    )
    parts.append(
        f"<polyline points='{points}' fill='none' stroke='#4c78a8' stroke-width='1.2'/>"
    )
    parts.append(
        f"<text x='{left}' y='{height - 6}' font-size='10' fill='#555'>0</text>"
        f"<text x='{width - 60}' y='{height - 6}' font-size='10' fill='#555'>"
        f"{horizon / 1e6:g} ms</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


# ----------------------------------------------------------------------
# HTML assembly
# ----------------------------------------------------------------------
_CSS = BASE_CSS + """.side { color: #946; }
.legend span { display: inline-block; margin-right: 1em; font-size: 12px; }
.legend i { display: inline-block; width: 11px; height: 11px;
            margin-right: 4px; vertical-align: -1px; }
"""


def render_html(document: Dict) -> str:
    """Render ``document`` (bundle or run) as one self-contained page."""
    runs = profile_runs(document)
    attribution = aggregate_attribution(document)
    blame = aggregate_app_blame(document)
    ssr_total = sum(run.get("ssr_time_ns", 0) for run in runs)
    side_total = sum(row["ns"] for row in attribution if row["family"] == "side")
    completed = sum(run.get("ssr_completed", 0) for run in runs)
    core_time = sum(
        run.get("horizon_ns", 0) * run.get("num_cores", 0) for run in runs
    )

    out: List[str] = []
    e = html.escape
    out.append(
        "<p>"
        f"{len(runs)} run(s) &middot; {completed} SSRs completed &middot; "
        f"service time {e(_fmt_ns(ssr_total))} &middot; "
        f"side-channel interference {e(_fmt_ns(side_total))}"
        + (
            f" &middot; {ssr_total / core_time * 100:.2f}% of machine time"
            if core_time
            else ""
        )
        + "</p>"
    )

    # --- Attribution table (Table 1 analogue) -------------------------
    out.append("<h2>Attribution: who stole the time, and how</h2>")
    out.append(
        "<table><thead><tr><th>SSR source</th><th>channel</th><th>family</th>"
        "<th class='num'>stolen</th><th class='num'>share of SSR time</th>"
        "</tr></thead><tbody>"
    )
    for row in attribution:
        share = f"{row['share'] * 100:.1f}%" if row["share"] is not None else "&mdash;"
        family = (
            "service"
            if row["family"] == "service"
            else "<span class='side'>side</span>"
        )
        out.append(
            f"<tr><td class='mono'>{e(str(row['ssr']))}</td>"
            f"<td class='mono'>{e(row['channel'])}</td><td>{family}</td>"
            f"<td class='num'>{e(_fmt_ns(row['ns']))}</td>"
            f"<td class='num'>{share}</td></tr>"
        )
    if not attribution:
        out.append("<tr><td colspan='5' class='muted'>no attribution entries</td></tr>")
    out.append("</tbody></table>")
    out.append(
        "<p class='muted'>Service channels reconcile exactly with the kernel's "
        "SSR time accumulator; side channels (IPIs, mode switches, CC6 wakeups, "
        "µarch pollution stalls) are interference accounted in other buckets.</p>"
    )

    # --- Per-app blame (Fig. 3 analogue) ------------------------------
    out.append("<h2>Per-app blame: who paid</h2>")
    max_blame = max((row["total_ns"] for row in blame), default=0)
    out.append(
        "<table><thead><tr><th>victim app</th><th class='num'>stolen</th>"
        "<th style='width:45%'></th><th>by channel</th></tr></thead><tbody>"
    )
    for row in blame:
        bar = int(260 * row["total_ns"] / max_blame) if max_blame else 0
        channels = ", ".join(
            f"{channel} {_fmt_ns(ns)}" for channel, ns in row["channels"].items()
        )
        out.append(
            f"<tr><td class='mono'>{e(row['app'])}</td>"
            f"<td class='num'>{e(_fmt_ns(row['total_ns']))}</td>"
            f"<td><span class='bar' style='width:{max(bar, 2)}px'></span></td>"
            f"<td class='muted'>{e(channels)}</td></tr>"
        )
    if not blame:
        out.append("<tr><td colspan='4' class='muted'>no victims charged</td></tr>")
    out.append("</tbody></table>")

    # --- Timelines ----------------------------------------------------
    out.append("<h2>Timeline strips</h2>")
    out.append("<p class='legend'>")
    for code, name in _MODE_LEGEND:
        out.append(
            f"<span><i style='background:{_MODE_COLORS[code]}'></i>{name}</span>"
        )
    out.append("</p>")
    for run in runs[:6]:
        out.append(f"<h3 class='mono'>{e(str(run.get('run', '?')))}</h3>")
        out.append(_timeline_svg(run))
    if len(runs) > 6:
        out.append(
            f"<p class='muted'>({len(runs) - 6} more run(s) in the embedded data)</p>"
        )

    return render_page(
        "HISS interference profile", _CSS, out, "hiss-profile-data", document
    )
