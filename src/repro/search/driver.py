"""Budgeted successive-rounds Pareto search with a resumable journal.

One sweep is a sequence of *rounds*.  Each round:

1. asks the strategy's sampler (:func:`~repro.search.samplers.sampler_for_round`)
   for a batch of not-yet-evaluated candidate points — a pure function of
   (seed, round index, current frontier, evaluated set);
2. pushes the batch's run keys through
   :func:`~repro.core.execute_runs`, so every evaluation rides the warm
   :class:`~repro.core.WorkerPool`, the cost model's longest-first
   dispatch, and both run-cache levels (a repeated or resumed sweep
   re-simulates nothing);
3. extracts each candidate's objective vector
   (:class:`~repro.search.objectives.EvaluationContext`), journals it,
   and folds it into the Pareto archive
   (:func:`~repro.core.pareto_frontier_map`);
4. appends a round-complete record and updates the ``search.*`` metrics.

The journal is an append-only JSONL file.  State reconstruction uses one
rule — *an evaluation counts iff its round has a round-complete record* —
so a sweep killed mid-round resumes by deterministically re-proposing
that round (its simulations are already in the run cache) and converges
to the archive an uninterrupted sweep produces, bit for bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..config import SystemConfig
from ..core import pareto_frontier_map
from ..core.experiment import planning_active
from ..core.planner import PrewarmReport, execute_runs
from ..core.pool import run_label
from ..telemetry import MetricsRegistry, SpanRecorder
from .objectives import OBJECTIVE_NAMES, EvaluationContext, maximized_vector
from .samplers import sampler_for_round
from .space import Point, SearchSpace

#: Version of the journal/archive documents this module reads and writes.
JOURNAL_SCHEMA = 1

#: Default file name for the frontier archive next to a journal.
ARCHIVE_SUFFIX = ".archive.json"


class SweepInterrupted(RuntimeError):
    """Raised by the test/CI hook that kills a sweep mid-round."""


@dataclass(frozen=True)
class SweepSettings:
    """Everything that determines a sweep's result (journaled as meta).

    ``jobs`` and the pool/cache backends are deliberately *not* part of
    the identity: they change wall-clock, never results.
    """

    seed: int = 0
    budget: int = 48
    round_size: int = 16
    strategy: str = "evolve"
    cpu_name: str = "x264"
    gpu_name: str = "ubench"
    horizon_ns: int = 20_000_000
    max_rounds: Optional[int] = None
    jobs: int = 1

    def __post_init__(self):
        if self.budget <= 0:
            raise ValueError(f"budget must be positive, got {self.budget}")
        if self.round_size <= 0:
            raise ValueError(f"round_size must be positive, got {self.round_size}")

    def meta(self, space: SearchSpace, config: SystemConfig) -> Dict[str, Any]:
        """The identity record a resume validates against."""
        return {
            "kind": "meta",
            "schema": JOURNAL_SCHEMA,
            "seed": self.seed,
            "budget": self.budget,
            "round_size": self.round_size,
            "strategy": self.strategy,
            "cpu": self.cpu_name,
            "gpu": self.gpu_name,
            "horizon_ns": self.horizon_ns,
            "space_digest": space.digest(),
            "config_digest": config.stable_digest(),
            "objectives": list(OBJECTIVE_NAMES),
        }


@dataclass
class SweepResult:
    """What one driver invocation did (the CLI prints this)."""

    rounds: int = 0
    evaluations: int = 0
    restored: int = 0
    simulations: int = 0
    cache_served: int = 0
    frontier_size: int = 0
    state_path: str = ""
    archive_path: str = ""
    stopped: str = "budget"

    def summary(self) -> str:
        return (
            f"sweep complete: rounds {self.rounds}, "
            f"evaluations {self.evaluations} ({self.restored} restored), "
            f"cache-served {self.cache_served}, simulated {self.simulations}, "
            f"frontier {self.frontier_size} [{self.stopped}]"
        )


# ----------------------------------------------------------------------
# Journal IO
# ----------------------------------------------------------------------
def load_journal(path: str) -> List[Dict[str, Any]]:
    """Parse a journal's records (a torn final line from a crash is skipped)."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn write from a killed process
            if isinstance(record, dict):
                records.append(record)
    return records


def replay_journal(
    records: List[Dict[str, Any]], space: SearchSpace
) -> Dict[str, Any]:
    """Reconstruct sweep state: *only* evaluations of completed rounds count.

    Returns ``{"meta", "rounds", "archive", "next_round"}`` where
    ``archive`` maps canonical encodings to ``(point, vector)`` and
    ``rounds`` is the list of round-complete records in order.
    """
    meta = next((r for r in records if r.get("kind") == "meta"), None)
    rounds = [r for r in records if r.get("kind") == "round"]
    completed = {r["round"] for r in rounds}
    archive: Dict[str, Tuple[Point, Tuple[float, ...]]] = {}
    for record in records:
        if record.get("kind") != "eval" or record.get("round") not in completed:
            continue
        point = space.validate(record["point"])
        archive[space.encode(point)] = (point, tuple(record["vector"]))
    next_round = max(completed) + 1 if completed else 0
    return {
        "meta": meta,
        "rounds": rounds,
        "archive": archive,
        "next_round": next_round,
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
class SweepDriver:
    """Run (or resume) one budgeted Pareto sweep against a journal file."""

    def __init__(
        self,
        space: SearchSpace,
        settings: SweepSettings,
        state_path: str,
        archive_path: Optional[str] = None,
        config: Optional[SystemConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        recorder: Optional[SpanRecorder] = None,
        interrupt_after: Optional[int] = None,
    ):
        self.space = space
        self.settings = settings
        self.state_path = state_path
        self.archive_path = archive_path or state_path + ARCHIVE_SUFFIX
        self.config = config or SystemConfig()
        self.context = EvaluationContext(
            base_config=self.config,
            cpu_name=settings.cpu_name,
            gpu_name=settings.gpu_name,
            horizon_ns=settings.horizon_ns,
        )
        self.registry = registry or MetricsRegistry()
        self.recorder = recorder or SpanRecorder()
        self.interrupt_after = interrupt_after
        #: encoding -> (point, raw objective vector), evaluation order.
        self.archive: Dict[str, Tuple[Point, Tuple[float, ...]]] = {}
        self._rounds_completed = 0
        self._evaluated_this_run = 0
        self.result = SweepResult(
            state_path=state_path, archive_path=self.archive_path
        )

    # ------------------------------------------------------------------
    # Frontier / archive documents
    # ------------------------------------------------------------------
    def frontier(self) -> List[Tuple[str, Point, Tuple[float, ...]]]:
        """Non-dominated ``(encoding, point, raw vector)``, canonical order."""
        oriented = {
            encoding: maximized_vector(vector)
            for encoding, (_point, vector) in self.archive.items()
        }
        return [
            (encoding, self.archive[encoding][0], self.archive[encoding][1])
            for encoding, _vector in pareto_frontier_map(oriented)
        ]

    def archive_document(self) -> Dict[str, Any]:
        """The canonical frontier-archive document (bit-for-bit stable)."""
        frontier = self.frontier()
        return {
            "schema": JOURNAL_SCHEMA,
            "seed": self.settings.seed,
            "budget": self.settings.budget,
            "strategy": self.settings.strategy,
            "space_digest": self.space.digest(),
            "objectives": list(OBJECTIVE_NAMES),
            "evaluations": len(self.archive),
            "rounds": self._rounds_completed,
            "frontier": [
                {
                    "label": self.space.point_label(point),
                    "point": point,
                    "vector": list(vector),
                }
                for _encoding, point, vector in frontier
            ],
        }

    def write_archive(self) -> str:
        """Atomically write the canonical archive rendering; returns path."""
        document = self.archive_document()
        rendered = (
            json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
        )
        temp_path = self.archive_path + ".tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        os.replace(temp_path, self.archive_path)
        return self.archive_path

    def gauges(self) -> Dict[str, float]:
        """The ``search.*`` gauge set (rendered next to the registry)."""
        return {
            "search.evaluations": float(len(self.archive)),
            "search.cache_served": float(self.result.cache_served),
            "search.simulations": float(self.result.simulations),
            "search.frontier_size": float(len(self.frontier())),
            "search.rounds": float(self._rounds_completed),
        }

    # ------------------------------------------------------------------
    # Journal writes
    # ------------------------------------------------------------------
    def _append(self, record: Dict[str, Any]) -> None:
        with open(self.state_path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            )

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _restore(self) -> int:
        """Load completed-round state from the journal; returns next round."""
        records = load_journal(self.state_path)
        state = replay_journal(records, self.space)
        meta = state["meta"]
        if meta is None:
            raise ValueError(
                f"{self.state_path}: no meta record; not a sweep journal"
            )
        expected = self.settings.meta(self.space, self.config)
        drift = {
            key: (meta.get(key), value)
            for key, value in expected.items()
            if meta.get(key) != value
        }
        if drift:
            raise ValueError(
                f"{self.state_path}: journal does not match this sweep: "
                + ", ".join(
                    f"{key} was {old!r}, now {new!r}"
                    for key, (old, new) in sorted(drift.items())
                )
            )
        self.archive = state["archive"]
        self._rounds_completed = len(state["rounds"])
        self.result.restored = len(self.archive)
        return state["next_round"]

    # ------------------------------------------------------------------
    # The search loop
    # ------------------------------------------------------------------
    def _evaluate_round(self, round_index: int) -> Tuple[int, str]:
        """Propose, execute, journal one round; returns (evaluated, stop)."""
        settings = self.settings
        remaining = settings.budget - len(self.archive)
        count = min(settings.round_size, remaining)
        sampler = sampler_for_round(settings.strategy, settings.seed, round_index)
        frontier_points = [point for _e, point, _v in self.frontier()]
        proposals = sampler.propose(
            self.space, count, round_index, frontier_points, set(self.archive)
        )
        if not proposals:
            return 0, "exhausted"

        with self.recorder.span(
            f"round {round_index}",
            "search",
            args={"round": round_index, "proposed": len(proposals),
                  "sampler": sampler.name},
        ):
            keys = self.context.keys_for(self.space, proposals)
            report = PrewarmReport()
            execute_runs(keys, jobs=settings.jobs, report=report)
            if report.failed:
                labels = ", ".join(run_label(key) for key, _tb in report.failed)
                raise RuntimeError(
                    f"round {round_index}: {len(report.failed)} run(s) failed: "
                    f"{labels}\n{report.failed[0][1]}"
                )
            self.result.simulations += report.executed
            self.result.cache_served += report.memory_hits + report.disk_hits
            self.registry.counter("search.simulations").inc(report.executed)
            self.registry.counter("search.cache_served").inc(
                report.memory_hits + report.disk_hits
            )
            for point in proposals:
                vector = self.context.evaluate(self.space, point)
                self._append(
                    {
                        "kind": "eval",
                        "round": round_index,
                        "point": point,
                        "vector": list(vector),
                    }
                )
                self.archive[self.space.encode(point)] = (point, vector)
                self.registry.counter("search.evaluations").inc()
                self._evaluated_this_run += 1
                if (
                    self.interrupt_after is not None
                    and self._evaluated_this_run >= self.interrupt_after
                ):
                    raise SweepInterrupted(
                        f"interrupted after {self._evaluated_this_run} "
                        f"evaluation(s), mid round {round_index}"
                    )

        frontier_size = len(self.frontier())
        self._append(
            {
                "kind": "round",
                "round": round_index,
                "sampler": sampler.name,
                "proposed": len(proposals),
                "evaluated": len(proposals),
                "executed": report.executed,
                "cache_served": report.memory_hits + report.disk_hits,
                "frontier_size": frontier_size,
            }
        )
        self._rounds_completed += 1
        self.registry.counter("search.rounds").inc()
        return len(proposals), ""

    def run(self, resume: bool = False) -> SweepResult:
        """Execute the sweep to its budget; returns the result summary.

        ``resume=True`` restores completed-round state from the journal
        and continues (a partially journaled round is re-proposed — its
        simulations are cache hits).  A fresh run refuses to overwrite an
        existing journal; a resume requires one.
        """
        if planning_active():
            raise RuntimeError("a sweep cannot run inside a planning context")
        if resume:
            if not os.path.exists(self.state_path):
                raise FileNotFoundError(
                    f"cannot resume: {self.state_path} does not exist"
                )
            round_index = self._restore()
        else:
            if os.path.exists(self.state_path):
                raise FileExistsError(
                    f"{self.state_path} already exists; use resume "
                    "(or choose a fresh state file)"
                )
            directory = os.path.dirname(os.path.abspath(self.state_path))
            os.makedirs(directory, exist_ok=True)
            self._append(self.settings.meta(self.space, self.config))
            round_index = 0

        stopped = "budget"
        while True:
            if (
                self.settings.max_rounds is not None
                and round_index >= self.settings.max_rounds
            ):
                stopped = "max_rounds"
                break
            if len(self.archive) >= self.settings.budget:
                stopped = "budget"
                break
            evaluated, stop = self._evaluate_round(round_index)
            if stop:
                stopped = stop
                break
            round_index += 1

        self.result.rounds = self._rounds_completed
        self.result.evaluations = len(self.archive)
        self.result.frontier_size = len(self.frontier())
        self.result.stopped = stopped
        self.write_archive()
        return self.result
