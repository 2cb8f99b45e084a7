"""Persistent, content-addressed cache of simulated runs.

The in-memory memo table in :mod:`repro.core.experiment` only helps within
one process.  This module adds the second level: an opt-in on-disk store
(``hiss-experiments --cache-dir``) keyed by a *stable* digest of the run
request — ``(cpu, gpu, ssr, config, horizon)`` rendered canonically — plus
a **code fingerprint**, so repeated invocations skip already-simulated runs
and cache invalidation is automatic whenever the simulator changes.

The code fingerprint covers:

* the package version,
* the :class:`~repro.config.SystemConfig` schema digest (field names and
  types at every nesting level), and
* the source text of every module that can influence simulated results
  (the sim kernel, OS model, uarch model, IOMMU, GPU, workloads, QoS,
  mitigations, and the system/metrics assembly).  Telemetry and the
  experiment harnesses are deliberately excluded: by contract they never
  change simulation outcomes.

Entries are one JSON file per run under the cache directory, written
atomically (temp file + rename), so concurrent producers at worst do the
same work twice — they can never corrupt an entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import asdict
from functools import lru_cache
from typing import Optional, Tuple

from ..config import SystemConfig
from .metrics import SystemMetrics

#: A run request: (cpu_name, gpu_name, ssr_enabled, config, horizon_ns).
RunKey = Tuple[Optional[str], Optional[str], bool, SystemConfig, int]

#: Cache entry format version (bump to orphan every existing entry).
ENTRY_SCHEMA = 1

#: Paths (relative to the ``repro`` package) whose source participates in
#: the code fingerprint — everything that can change simulated numbers.
_FINGERPRINT_PATHS = (
    "config.py",
    "sim",
    "oskernel",
    "uarch",
    "iommu",
    "gpu",
    "workloads",
    "qos",
    "mitigations",
    os.path.join("core", "system.py"),
    os.path.join("core", "metrics.py"),
)


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of everything that determines a run's numbers (cached)."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    digest.update(repro.__version__.encode("utf-8"))
    digest.update(SystemConfig.schema_digest().encode("utf-8"))
    for relative in _FINGERPRINT_PATHS:
        path = os.path.join(root, relative)
        if os.path.isfile(path):
            files = [path]
        else:
            files = sorted(
                os.path.join(dirpath, name)
                for dirpath, _dirs, names in os.walk(path)
                for name in names
                if name.endswith(".py")
            )
        for source in files:
            digest.update(os.path.relpath(source, root).encode("utf-8"))
            with open(source, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def reset_code_fingerprint() -> None:
    """Forget the memoized :func:`code_fingerprint`.

    A long-lived process (the ``hiss-serve`` daemon) that reloads simulator
    code must call this so subsequent digests reflect the new sources;
    otherwise the ``lru_cache`` would keep vouching for stale entries.
    """
    code_fingerprint.cache_clear()


def run_key_document(key: RunKey, fingerprint: Optional[str] = None) -> dict:
    """The canonical JSON-able description of one run request."""
    cpu_name, gpu_name, ssr_enabled, config, horizon_ns = key
    return {
        "schema": ENTRY_SCHEMA,
        "fingerprint": fingerprint if fingerprint is not None else code_fingerprint(),
        "cpu": cpu_name,
        "gpu": gpu_name,
        "ssr_enabled": bool(ssr_enabled),
        "horizon_ns": int(horizon_ns),
        "config": asdict(config),
    }


def run_key_digest(key: RunKey, fingerprint: Optional[str] = None) -> str:
    """Stable SHA-256 content address of one run request + code state."""
    document = run_key_document(key, fingerprint)
    rendered = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


class DiskCache:
    """A directory of ``<digest>.json`` files, one per simulated run.

    Because the digest folds in the code fingerprint, entries written by an
    older simulator simply never match again — invalidation needs no
    bookkeeping.  ``hits`` / ``misses`` / ``stores`` count this instance's
    traffic (the CLI reports them); they are updated under a lock because
    the serving daemon consults one instance from many request threads.
    """

    def __init__(self, directory: str, fingerprint: Optional[str] = None):
        self.directory = os.path.abspath(directory)
        self.fingerprint = fingerprint if fingerprint is not None else code_fingerprint()
        os.makedirs(self.directory, exist_ok=True)
        self._stats_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def stats(self) -> Tuple[int, int, int]:
        """A consistent ``(hits, misses, stores)`` snapshot."""
        with self._stats_lock:
            return self.hits, self.misses, self.stores

    def path_for(self, key: RunKey) -> str:
        return os.path.join(
            self.directory, run_key_digest(key, self.fingerprint) + ".json"
        )

    def get(self, key: RunKey) -> Optional[SystemMetrics]:
        """The cached metrics for ``key``, or ``None`` (never raises)."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if entry.get("schema") != ENTRY_SCHEMA:
                raise ValueError(f"unknown entry schema {entry.get('schema')!r}")
            if entry.get("fingerprint") != self.fingerprint:
                raise ValueError("fingerprint mismatch")
            metrics = SystemMetrics.from_dict(entry["metrics"])
        except FileNotFoundError:
            with self._stats_lock:
                self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt or foreign entry: treat as a miss, re-simulate.
            with self._stats_lock:
                self.misses += 1
            return None
        with self._stats_lock:
            self.hits += 1
        return metrics

    def put(
        self, key: RunKey, metrics: SystemMetrics, elapsed_s: Optional[float] = None
    ) -> str:
        """Persist ``metrics`` under ``key`` (atomic); returns the path.

        ``elapsed_s`` — the run's measured wall time — rides along in the
        entry for the cost model; readers that predate it ignore the extra
        field, so the entry schema is unchanged.
        """
        path = self.path_for(key)
        entry = run_key_document(key, self.fingerprint)
        entry["metrics"] = metrics.as_dict()
        if elapsed_s is not None:
            entry["elapsed_s"] = round(float(elapsed_s), 6)
        fd, temp_path = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, separators=(",", ":"))
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        with self._stats_lock:
            self.stores += 1
        return path

    def __len__(self) -> int:
        """Number of entries on disk (any fingerprint)."""
        return sum(
            1
            for name in os.listdir(self.directory)
            if name.endswith(".json") and not name.startswith(".tmp-")
        )


# ----------------------------------------------------------------------
# Run-cost model
# ----------------------------------------------------------------------
#: Ledger file kept next to the result entries in the cache directory.
COST_LEDGER_NAME = "cost_ledger.jsonl"

def cost_features(key: RunKey) -> Tuple[str, str, bool]:
    """The coarse features a cost prediction can fall back on."""
    return (key[0] or "", key[1] or "", bool(key[2]))


class CostModel:
    """Predicts a run's wall-clock cost from past ``elapsed_s`` observations.

    Three estimators, most-specific first:

    1. exact run-key digest — the same request was timed before (the
       digest folds in the code fingerprint, so observations from an
       older simulator never match);
    2. per-``(cpu, gpu, ssr)`` rate × horizon — the same pairing at any
       horizon;
    3. global observed rate × horizon.

    A model with no observation predicts 0.0, meaning "unknown": it
    never guesses a cost it has not seen.

    Observations append to a JSONL ledger (``cost_ledger.jsonl`` in the
    run-cache directory) when one is attached, so a daemon restart or a
    fresh CLI invocation starts with last session's timings; without a
    ledger the model is memory-only.  All methods are thread-safe — the
    scheduler predicts from its drain thread while worker results
    observe concurrently.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._lock = threading.Lock()
        self._by_digest: dict = {}  # digest -> [total_s, count]
        self._by_pair: dict = {}  # (cpu, gpu, ssr) -> [total_s, total_horizon_ns]
        self._global = [0.0, 0.0]  # [total_s, total_horizon_ns]
        self.observations = 0
        if path:
            self._load(path)

    def _load(self, path: str) -> None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue  # torn final line from a crashed writer
                    if isinstance(record, dict):
                        self._absorb(record)
        except OSError:
            pass

    def _absorb(self, record: dict) -> None:
        """Fold one observation record into the estimators (caller locks)."""
        try:
            elapsed_s = float(record["elapsed_s"])
            horizon_ns = float(record["horizon_ns"])
            digest = record["digest"]
        except (KeyError, TypeError, ValueError):
            return
        if elapsed_s <= 0 or horizon_ns <= 0:
            return
        entry = self._by_digest.setdefault(digest, [0.0, 0])
        entry[0] += elapsed_s
        entry[1] += 1
        pair = (
            record.get("cpu") or "",
            record.get("gpu") or "",
            bool(record.get("ssr", True)),
        )
        rate = self._by_pair.setdefault(pair, [0.0, 0.0])
        rate[0] += elapsed_s
        rate[1] += horizon_ns
        self._global[0] += elapsed_s
        self._global[1] += horizon_ns
        self.observations += 1

    def observe(self, key: RunKey, elapsed_s: float) -> None:
        """Record one measured run; persists to the ledger when attached."""
        if elapsed_s <= 0:
            return
        record = {
            "digest": run_key_digest(key),
            "cpu": key[0],
            "gpu": key[1],
            "ssr": bool(key[2]),
            "horizon_ns": int(key[4]),
            "elapsed_s": round(float(elapsed_s), 6),
        }
        with self._lock:
            self._absorb(record)
            if self.path:
                try:
                    with open(self.path, "a", encoding="utf-8") as handle:
                        handle.write(
                            json.dumps(record, sort_keys=True, separators=(",", ":"))
                            + "\n"
                        )
                except OSError:
                    pass  # a read-only cache dir degrades to memory-only

    def predict(self, key: RunKey) -> float:
        """Predicted wall seconds for ``key`` (never raises; 0.0 before
        any observation)."""
        horizon_ns = float(key[4])
        with self._lock:
            entry = self._by_digest.get(run_key_digest(key))
            if entry is not None and entry[1] > 0:
                return entry[0] / entry[1]
            rate = self._by_pair.get(cost_features(key))
            if rate is not None and rate[1] > 0:
                return horizon_ns * (rate[0] / rate[1])
            if self._global[1] > 0:
                return horizon_ns * (self._global[0] / self._global[1])
        return 0.0


#: The process-wide model; replaced by :func:`set_cost_ledger`.
_COST_MODEL = CostModel()


def cost_model() -> CostModel:
    """The process-wide cost model (memory-only until a ledger attaches)."""
    return _COST_MODEL


def set_cost_ledger(path: Optional[str]) -> CostModel:
    """Attach the cost model to a persistent ledger (``None`` detaches).

    Builds a fresh model seeded from the ledger's existing observations;
    with ``None`` the model restarts empty — which is also what test
    isolation wants when it tears down a disk cache.
    """
    global _COST_MODEL
    _COST_MODEL = CostModel(path)
    return _COST_MODEL
