"""Frontier rendering: a terminal table and a self-contained HTML chart.

Both renderers consume the driver's canonical archive document
(:meth:`~repro.search.driver.SweepDriver.archive_document` or the
``.archive.json`` file it writes).  The HTML report follows the repo's
exporter idiom (see :mod:`repro.profiling.report`): one file, inline CSS
and SVG, zero external assets, and the full machine-readable payload
embedded in a ``<script type="application/json" id="hiss-sweep-data">``
block so downstream tooling can re-extract the frontier from the report
itself.
"""

from __future__ import annotations

import json
from html import escape
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .objectives import OBJECTIVES

#: id of the embedded machine-readable payload in the HTML report.
DATA_ELEMENT_ID = "hiss-sweep-data"


# ----------------------------------------------------------------------
# Text table
# ----------------------------------------------------------------------
def frontier_table(document: Dict[str, Any]) -> str:
    """Render an archive document's frontier as an aligned text table."""
    headers = ["#", "label"] + [
        f"{objective.name}" + (f" ({objective.unit})" if objective.unit else "")
        for objective in OBJECTIVES
    ]
    rows: List[List[str]] = []
    for index, entry in enumerate(document.get("frontier", [])):
        rows.append(
            [str(index), str(entry["label"])]
            + [f"{value:.4g}" for value in entry["vector"]]
        )
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rows))
        if rows
        else len(headers[col])
        for col in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    lines.append(
        f"{len(rows)} frontier point(s) from "
        f"{document.get('evaluations', 0)} evaluation(s) over "
        f"{document.get('rounds', 0)} round(s)"
    )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# HTML report
# ----------------------------------------------------------------------
_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 64rem; color: #1b1b1b; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
.meta { color: #555; font-size: 0.85rem; }
table { border-collapse: collapse; font-size: 0.85rem; margin-top: 0.75rem; }
th, td { border: 1px solid #ccc; padding: 0.25rem 0.6rem; text-align: right; }
th { background: #f2f2f2; } td.label { text-align: left;
     font-family: ui-monospace, monospace; font-size: 0.8rem; }
svg { background: #fafafa; border: 1px solid #ddd; margin-top: 0.75rem; }
.dot { fill: #9aa7b5; opacity: 0.55; } .front { fill: #c0392b; }
.frontline { stroke: #c0392b; stroke-width: 1.5; fill: none; opacity: 0.7; }
.axis { stroke: #888; stroke-width: 1; } .tick { font-size: 10px; fill: #555; }
.axlabel { font-size: 11px; fill: #333; }
"""


def _scale(value: float, lo: float, hi: float, out_lo: float, out_hi: float) -> float:
    if hi <= lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)


def _scatter_svg(
    frontier: Sequence[Dict[str, Any]],
    evaluations: Sequence[Tuple[Any, Sequence[float]]],
) -> str:
    """An inline SVG scatter of cpu_perf (x) vs gpu_perf (y).

    Grey dots are every evaluated point; red dots joined by a polyline
    are the frontier (sorted by cpu_perf), i.e. the Fig. 7/8 shape.
    """
    width, height, pad = 640, 420, 48
    xs = [vector[0] for _point, vector in evaluations] or [0.0, 1.0]
    ys = [vector[1] for _point, vector in evaluations] or [0.0, 1.0]
    for entry in frontier:
        xs.append(entry["vector"][0])
        ys.append(entry["vector"][1])
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)

    def sx(value: float) -> float:
        return _scale(value, lo_x, hi_x, pad, width - pad)

    def sy(value: float) -> float:
        return _scale(value, lo_y, hi_y, height - pad, pad)

    parts = [
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}" '
        'xmlns="http://www.w3.org/2000/svg" role="img">',
        f'<line class="axis" x1="{pad}" y1="{height - pad}" '
        f'x2="{width - pad}" y2="{height - pad}"/>',
        f'<line class="axis" x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}"/>',
    ]
    for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
        vx = lo_x + fraction * (hi_x - lo_x)
        vy = lo_y + fraction * (hi_y - lo_y)
        parts.append(
            f'<text class="tick" x="{sx(vx):.1f}" y="{height - pad + 14}" '
            f'text-anchor="middle">{vx:.3g}</text>'
        )
        parts.append(
            f'<text class="tick" x="{pad - 6}" y="{sy(vy):.1f}" '
            f'text-anchor="end" dominant-baseline="middle">{vy:.3g}</text>'
        )
    parts.append(
        f'<text class="axlabel" x="{(width) / 2:.0f}" y="{height - 8}" '
        'text-anchor="middle">cpu_perf (vs. no-SSR baseline)</text>'
    )
    parts.append(
        f'<text class="axlabel" x="14" y="{height / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2:.0f})">gpu_perf (vs. idle-CPU)</text>'
    )
    for _point, vector in evaluations:
        parts.append(
            f'<circle class="dot" cx="{sx(vector[0]):.1f}" '
            f'cy="{sy(vector[1]):.1f}" r="3"/>'
        )
    front_sorted = sorted(frontier, key=lambda e: (e["vector"][0], e["vector"][1]))
    if len(front_sorted) > 1:
        path = " ".join(
            f"{sx(e['vector'][0]):.1f},{sy(e['vector'][1]):.1f}"
            for e in front_sorted
        )
        parts.append(f'<polyline class="frontline" points="{path}"/>')
    for entry in front_sorted:
        parts.append(
            f'<circle class="front" cx="{sx(entry["vector"][0]):.1f}" '
            f'cy="{sy(entry["vector"][1]):.1f}" r="4.5">'
            f"<title>{escape(str(entry['label']))}</title></circle>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


def render_html(
    document: Dict[str, Any],
    evaluations: Optional[Sequence[Tuple[Any, Sequence[float]]]] = None,
) -> str:
    """A single-file HTML report for one sweep's archive document.

    ``evaluations`` — optional ``(point, vector)`` pairs for every
    evaluated point (from the journal), drawn as background dots behind
    the frontier.
    """
    evaluations = list(evaluations or [])
    frontier = document.get("frontier", [])
    header_cells = "".join(
        "<th>" + escape(
            objective.name + (f" ({objective.unit})" if objective.unit else "")
        ) + "</th>"
        for objective in OBJECTIVES
    )
    body_rows = []
    for entry in frontier:
        cells = "".join(f"<td>{value:.4g}</td>" for value in entry["vector"])
        body_rows.append(
            f'<tr><td class="label">{escape(str(entry["label"]))}</td>{cells}</tr>'
        )
    payload = {"document": document,
               "evaluations": [[point, list(vector)] for point, vector in evaluations]}
    embedded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    # "</" would close the script element early; JSON-escape it away.
    embedded = embedded.replace("</", "<\\/")
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>hiss-sweep frontier report</title>
<style>{_CSS}</style>
</head>
<body>
<h1>hiss-sweep frontier report</h1>
<p class="meta">strategy {escape(str(document.get('strategy', '?')))} ·
seed {document.get('seed', '?')} · budget {document.get('budget', '?')} ·
{document.get('evaluations', 0)} evaluation(s) over
{document.get('rounds', 0)} round(s) ·
frontier {len(frontier)} · space {escape(str(document.get('space_digest', ''))[:12])}</p>
<h2>CPU vs. GPU performance trade-off</h2>
{_scatter_svg(frontier, evaluations)}
<h2>Pareto frontier ({len(frontier)} point(s))</h2>
<table>
<thead><tr><th>configuration</th>{header_cells}</tr></thead>
<tbody>
{chr(10).join(body_rows)}
</tbody>
</table>
<script type="application/json" id="{DATA_ELEMENT_ID}">{embedded}</script>
</body>
</html>
"""
