"""The ``hiss.postmortem/1`` bundle: build, validate, store.

A postmortem bundle is everything an engineer needs to work an incident
*after* the moment is gone, in one JSON file: the trigger that fired,
the build that was running (version + code fingerprint + SystemConfig),
the flight ring's tail of diagnostics, lifecycle trace documents for the
implicated jobs (spans and per-run event counts; the ring's ``sim.tail``
entries carry each run's last events, so no per-run event list is
copied), the top-K blame-ledger rows from any profiled runs,
the ``/metrics`` snapshot, the active-alert document, and a trailing
rollup window.  Every section is data the daemon already had — capture
copies, it never recomputes — and every timestamp is an event timestamp,
so rendering a bundle twice is byte-identical.

:class:`PostmortemStore` writes bundles atomically (temp file +
``os.replace`` in the target directory, conventionally next to the ops
log) with keep-N retention: the oldest bundle is evicted whole, the same
whole-generation policy as ops-log rotation — a reader never sees a torn
bundle.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Optional

__all__ = [
    "POSTMORTEM_SCHEMA",
    "PostmortemStore",
    "blame_top_k",
    "build_postmortem",
    "list_bundles",
    "postmortem_id",
    "validate_postmortem",
]

POSTMORTEM_SCHEMA = "hiss.postmortem/1"

#: Blame-ledger rows carried per bundle (largest charges first).
DEFAULT_BLAME_TOP_K = 20

#: Bundles kept on disk before the oldest is evicted.
DEFAULT_KEEP = 20


def postmortem_id(sequence: int, kind: str) -> str:
    """Stable bundle id: capture sequence + trigger kind."""
    return f"pm-{sequence:06d}-{kind}"


def blame_top_k(
    profile_docs: List[Dict[str, Any]], k: int = DEFAULT_BLAME_TOP_K
) -> List[Dict[str, Any]]:
    """Top-``k`` ledger rows across run profile documents, by charge.

    Each row is the ledger entry (``ssr``/``channel``/``victim``/``app``/
    ``core``/``ns``) plus the run it came from; ties break on the
    attribution key so the selection is deterministic.
    """
    rows: List[Dict[str, Any]] = []
    for doc in profile_docs:
        ledger = doc.get("ledger") if isinstance(doc, dict) else None
        entries = ledger.get("entries") if isinstance(ledger, dict) else None
        for entry in entries or []:
            row = dict(entry)
            row["run"] = doc.get("run")
            rows.append(row)
    rows.sort(
        key=lambda r: (
            -float(r.get("ns", 0)),
            str(r.get("run", "")),
            str(r.get("ssr", "")),
            str(r.get("channel", "")),
            str(r.get("victim", "")),
            r.get("core", -1),
        )
    )
    return rows[:k]


def build_postmortem(
    trigger: Dict[str, Any],
    captured_s: float,
    sequence: int,
    config: Dict[str, Any],
    flight_ring: Dict[str, Any],
    metrics: Optional[Dict[str, Any]] = None,
    alerts: Optional[Dict[str, Any]] = None,
    rollup_window: Optional[Dict[str, Any]] = None,
    jobs: Optional[List[Dict[str, Any]]] = None,
    blame: Optional[List[Dict[str, Any]]] = None,
    triggers: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Assemble one ``hiss.postmortem/1`` document (pure; no I/O)."""
    return {
        "schema": POSTMORTEM_SCHEMA,
        "id": postmortem_id(sequence, trigger["kind"]),
        "sequence": sequence,
        "captured_s": captured_s,
        "trigger": dict(trigger),
        "triggers": list(triggers or []),
        "config": dict(config),
        "flight_ring": flight_ring,
        "metrics": metrics,
        "alerts": alerts,
        "rollup_window": rollup_window,
        "jobs": list(jobs or []),
        "blame": {"top_k": DEFAULT_BLAME_TOP_K, "rows": list(blame or [])},
    }


def validate_postmortem(document: Any) -> List[str]:
    """Validate a postmortem bundle; returns a list of problems.

    An empty list means the document is well-formed: the schema matches,
    the trigger carries its identity and event time, the flight ring's
    entries are shaped records whose weights conserve the append count,
    and each implicated-job section is a span document.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, expected dict"]
    schema = document.get("schema")
    if schema != POSTMORTEM_SCHEMA:
        return [f"unknown schema {schema!r} (expected {POSTMORTEM_SCHEMA})"]
    for field in ("id", "sequence", "captured_s", "trigger", "config", "flight_ring"):
        if field not in document:
            problems.append(f"missing field {field!r}")
    trigger = document.get("trigger")
    if not isinstance(trigger, dict):
        problems.append("trigger: not a dict")
    else:
        for field in ("name", "kind", "at_s"):
            if field not in trigger:
                problems.append(f"trigger: missing field {field!r}")
    sequence = document.get("sequence")
    kind = (trigger or {}).get("kind") if isinstance(trigger, dict) else None
    if isinstance(sequence, int) and isinstance(kind, str):
        expected = postmortem_id(sequence, kind)
        if document.get("id") != expected:
            problems.append(
                f"id {document.get('id')!r} != {expected!r} (sequence/kind)"
            )
    config = document.get("config")
    if isinstance(config, dict):
        for field in ("version", "code_fingerprint", "schema_digest", "system"):
            if field not in config:
                problems.append(f"config: missing field {field!r}")
    elif config is not None:
        problems.append("config: not a dict")
    ring = document.get("flight_ring")
    if not isinstance(ring, dict) or not isinstance(ring.get("entries"), list):
        problems.append("flight_ring: entries missing")
    else:
        weight = 0
        for position, entry in enumerate(ring["entries"]):
            where = f"flight_ring.entries[{position}]"
            if not isinstance(entry, dict):
                problems.append(f"{where}: not a dict")
                continue
            for field in ("seq", "ts_s", "first_ts_s", "kind", "weight", "data"):
                if field not in entry:
                    problems.append(f"{where}: missing field {field!r}")
            if entry.get("weight", 0) < 1:
                problems.append(f"{where}: weight must be >= 1")
            weight += entry.get("weight", 0)
        appended = ring.get("appended")
        if isinstance(appended, int) and weight > appended:
            problems.append(
                f"flight_ring: entry weights {weight} exceed appended {appended}"
            )
    for position, job in enumerate(document.get("jobs") or []):
        where = f"jobs[{position}]"
        if not isinstance(job, dict):
            problems.append(f"{where}: not a dict")
        elif not isinstance(job.get("spans"), list):
            problems.append(f"{where}: spans missing (not a trace document)")
    blame = document.get("blame")
    if isinstance(blame, dict):
        for position, row in enumerate(blame.get("rows") or []):
            where = f"blame.rows[{position}]"
            if not isinstance(row, dict) or "ns" not in row or "channel" not in row:
                problems.append(f"{where}: missing ns/channel")
    elif blame is not None:
        problems.append("blame: not a dict")
    metrics = document.get("metrics")
    if metrics is not None and (
        not isinstance(metrics, dict) or not isinstance(metrics.get("counters"), dict)
    ):
        problems.append("metrics: counters missing")
    return problems


def _bundle_paths(directory: str) -> List[str]:
    """Bundle paths under ``directory``, oldest first (id order = capture
    order); an absent directory holds none."""
    try:
        names = sorted(
            name
            for name in os.listdir(directory)
            if name.startswith("pm-") and name.endswith(".json")
        )
    except OSError:
        return []
    return [os.path.join(directory, name) for name in names]


def list_bundles(directory: str) -> List[Dict[str, Any]]:
    """Summaries of the ``pm-*.json`` bundles under ``directory``.

    Pure read side — never creates the directory; an absent one is an
    empty list, matching a daemon that has not captured anything yet.
    """
    rows: List[Dict[str, Any]] = []
    for path in _bundle_paths(directory):
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, ValueError):
            continue
        trigger = doc.get("trigger") or {}
        rows.append(
            {
                "id": doc.get("id", os.path.basename(path)[: -len(".json")]),
                "captured_s": doc.get("captured_s"),
                "trigger": trigger.get("name"),
                "kind": trigger.get("kind"),
                "detail": trigger.get("detail"),
                "jobs": len(doc.get("jobs") or []),
                "ring_entries": len((doc.get("flight_ring") or {}).get("entries") or []),
                "bytes": os.path.getsize(path),
            }
        )
    return rows


_SAFE_ID_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."
)


class PostmortemStore:
    """Atomic keep-N bundle storage next to the ops log."""

    def __init__(self, directory: str, keep: int = DEFAULT_KEEP):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = directory
        self.keep = keep
        self._lock = threading.Lock()
        self.written = 0
        self.evicted = 0
        os.makedirs(directory, exist_ok=True)

    def __len__(self) -> int:
        return len(self.paths())

    def paths(self) -> List[str]:
        """Bundle paths on disk, oldest first."""
        return _bundle_paths(self.directory)

    def write(self, document: Dict[str, Any]) -> str:
        """Atomically persist one bundle; returns its path.

        The write lands in a same-directory temp file first, then
        ``os.replace``s into place — a crash mid-write leaves the prior
        state intact and no reader ever sees a partial bundle.  Bundles
        beyond ``keep`` are evicted oldest-first, whole.
        """
        name = f"{document['id']}.json"
        path = os.path.join(self.directory, name)
        payload = json.dumps(document, sort_keys=True, default=str)
        with self._lock:
            tmp = f"{path}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            self.written += 1
            stored = self.paths()
            while len(stored) > self.keep:
                os.remove(stored.pop(0))
                self.evicted += 1
        return path

    def index(self) -> List[Dict[str, Any]]:
        """Summary rows for every stored bundle (``GET /v1/postmortems``)."""
        return list_bundles(self.directory)

    def load(self, pm_id: str) -> Optional[Dict[str, Any]]:
        """One full bundle by id (None when absent or the id is unsafe)."""
        if not pm_id or not set(pm_id) <= _SAFE_ID_CHARS or ".." in pm_id:
            return None
        path = os.path.join(self.directory, f"{pm_id}.json")
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None
