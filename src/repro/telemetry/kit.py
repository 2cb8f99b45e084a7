"""Shared pieces of the report pages, the document CLIs and the rings.

``hiss trace``, ``hiss report`` and ``hiss slo`` (with its
``postmortem`` commands) load JSON documents, validate them and render
self-contained HTML pages the same way, and the bounded series behind
them (:class:`~repro.obsd.rollup.RollupStore`,
:class:`~repro.obsd.ring.FlightRing`,
:class:`~repro.profiling.sampler.SimSampler`) decimate by the same rule.
This module holds the one copy of each.  Standard library only.
"""

from __future__ import annotations

import html
import json
import sys
from typing import Any, Callable, List, Optional, Sequence, TypeVar

__all__ = [
    "BASE_CSS",
    "STATUS_CSS",
    "check_ring_capacity",
    "decimate_pairs",
    "fmt_s",
    "load_checked",
    "load_json",
    "print_invalid",
    "render_page",
    "write_page",
]

T = TypeVar("T")

#: Page style every report shares.
BASE_CSS = """
body { font: 14px/1.45 -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 960px; color: #222; padding: 0 1em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.8em; }
table { border-collapse: collapse; width: 100%; margin: 0.6em 0; }
th, td { text-align: left; padding: 4px 10px; border-bottom: 1px solid #e5e5e5;
         font-variant-numeric: tabular-nums; }
th { background: #f7f7f7; font-weight: 600; }
td.num, th.num { text-align: right; }
.muted { color: #888; } .mono { font-family: ui-monospace, monospace; }
.bar { background: #4c78a8; height: 11px; display: inline-block;
       vertical-align: middle; border-radius: 2px; }
"""

#: :data:`BASE_CSS` plus the firing/ok states of the SLO and postmortem pages.
STATUS_CSS = BASE_CSS + """.bar.bad { background: #e45756; }
.firing { color: #b0272a; font-weight: 600; }
.ok { color: #2a7d2e; }
"""


# ----------------------------------------------------------------------
# Pages
# ----------------------------------------------------------------------
def render_page(title: str, css: str, body: Sequence[str], data_id: str, data: Any) -> str:
    """One self-contained page: head, ``<h1>``, ``body``, then ``data``.

    ``data`` is embedded as JSON in a ``<script type='application/json'>``
    element with id ``data_id``, so tooling can recover the exact input
    from the page alone; ``</`` is escaped so it cannot close the script.
    """
    title = html.escape(title)
    payload = json.dumps(data, sort_keys=True).replace("</", "<\\/")
    return "".join([
        "<!doctype html><html lang='en'><head><meta charset='utf-8'>",
        f"<title>{title}</title><style>{css}</style></head><body>",
        f"<h1>{title}</h1>",
        *body,
        f"<script type='application/json' id='{data_id}'>{payload}</script>",
        "</body></html>",
    ])


def write_page(path: str, text: str) -> int:
    """Write ``text`` to ``path`` as UTF-8; returns the byte count."""
    data = text.encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


def fmt_s(seconds: Optional[float]) -> str:
    """A duration in s, ms or µs (``-`` when unknown)."""
    if seconds is None:
        return "-"
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.0f} µs"


# ----------------------------------------------------------------------
# Document CLIs
# ----------------------------------------------------------------------
def load_json(prog: str, path: str, what: str = "") -> Any:
    """Parse the JSON file at ``path``, or exit with ``<prog>: ...``."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as error:
        raise SystemExit(f"{prog}: cannot read {path}: {error}")
    except json.JSONDecodeError as error:
        kind = f"{what} JSON" if what else "JSON"
        raise SystemExit(f"{prog}: {path} is not valid {kind}: {error}")


def print_invalid(problems: List[str], where: str = "") -> bool:
    """Print each problem as an ``INVALID:`` line on stderr; True if any."""
    for problem in problems:
        print(f"INVALID: {where}{problem}", file=sys.stderr)
    return bool(problems)


def load_checked(prog: str, path: str, validate: Callable[[Any], List[str]]) -> Any:
    """:func:`load_json`, then exit 2 if ``validate`` finds problems."""
    document = load_json(prog, path)
    if print_invalid(validate(document)):
        raise SystemExit(2)
    return document


# ----------------------------------------------------------------------
# Bounded series
# ----------------------------------------------------------------------
def check_ring_capacity(capacity: int) -> None:
    """Rings that decimate by pairs need an even capacity of at least 16."""
    if capacity < 16 or capacity % 2:
        raise ValueError(f"capacity must be an even number >= 16, got {capacity}")


def decimate_pairs(items: List[T], merge: Callable[[T, T], T]) -> List[T]:
    """Merge items (0, 1), (2, 3), ... with ``merge(earlier, later)``.

    An odd last item is kept as it is.  The merge points depend only on
    the item count, so the same sequence always decimates the same way.
    """
    merged = [merge(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)]
    if len(items) % 2:
        merged.append(items[-1])
    return merged
