"""``hiss sweep`` — the autotuner's console entry point.

Subcommands::

    hiss sweep run      --state sweep.jsonl [--seed N --budget N ...]
    hiss sweep resume   --state sweep.jsonl
    hiss sweep report   --state sweep.jsonl [-o frontier.html]
    hiss sweep validate --state sweep.jsonl

``run`` starts a fresh sweep (refusing to clobber an existing journal);
``resume`` continues one after a crash or a deliberate kill; ``report``
prints the frontier table and optionally writes the single-file HTML
chart; ``validate`` replays the journal and cross-checks it against the
archive file.  ``--interrupt-after N`` (a CI/test hook) aborts the sweep
mid-round after N evaluations with exit code 3, which is what the
``sweep-smoke`` CI job uses to prove resume convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..core import configure_disk_cache
from ..telemetry import MetricsRegistry, SpanRecorder, render_metrics_text, trace_document
from ..telemetry.kit import write_page
from .driver import (
    ARCHIVE_SUFFIX,
    SweepDriver,
    SweepInterrupted,
    SweepSettings,
    load_journal,
    replay_journal,
)
from .objectives import OBJECTIVE_NAMES
from .report import frontier_table, render_html
from .space import default_space

#: Exit code of a sweep stopped by ``--interrupt-after`` (CI hook).
EXIT_INTERRUPTED = 3


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=0, help="sweep seed (default 0)"
    )
    parser.add_argument(
        "--budget", type=int, default=48,
        help="total evaluation budget (default 48)",
    )
    parser.add_argument(
        "--round-size", type=int, default=16,
        help="candidates per round (default 16)",
    )
    parser.add_argument(
        "--strategy", choices=("grid", "lattice", "evolve"), default="evolve",
        help="proposal strategy (default evolve: lattice seed, then mutation)",
    )
    parser.add_argument(
        "--max-rounds", type=int, default=None,
        help="stop after this many rounds even if budget remains",
    )
    parser.add_argument(
        "--cpu", default="x264", help="CPU workload name (default x264)"
    )
    parser.add_argument(
        "--gpu", default="ubench", help="GPU workload name (default ubench)"
    )
    parser.add_argument(
        "--horizon-ms", type=float, default=20.0,
        help="simulated horizon per run, milliseconds (default 20)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="parallel simulation workers (default 1; results identical)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="disk run-cache directory (resume + warm re-runs need this)",
    )
    parser.add_argument(
        "--interrupt-after", type=int, default=None, metavar="N",
        help="test hook: abort mid-round after N evaluations (exit 3)",
    )
    parser.add_argument(
        "--spans", metavar="FILE", default=None,
        help="write per-round telemetry spans as JSON to FILE",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the search.* metrics after the sweep",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiss sweep",
        description="Adaptive Pareto autotuner over mitigation & QoS knobs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("run", "start a fresh sweep (refuses to overwrite a journal)"),
        ("resume", "continue a killed or crashed sweep from its journal"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument(
            "--state", required=True, metavar="FILE",
            help="JSONL sweep journal (archive lands next to it)",
        )
        _add_sweep_flags(command)

    report = sub.add_parser("report", help="print the frontier table")
    report.add_argument("--state", required=True, metavar="FILE")
    report.add_argument(
        "-o", "--html", metavar="FILE", default=None,
        help="also write the self-contained HTML chart to FILE",
    )

    validate = sub.add_parser(
        "validate", help="replay the journal and cross-check the archive"
    )
    validate.add_argument("--state", required=True, metavar="FILE")
    return parser


def _driver_from_args(args: argparse.Namespace) -> SweepDriver:
    settings = SweepSettings(
        seed=args.seed,
        budget=args.budget,
        round_size=args.round_size,
        strategy=args.strategy,
        cpu_name=args.cpu,
        gpu_name=args.gpu,
        horizon_ns=int(args.horizon_ms * 1_000_000),
        max_rounds=args.max_rounds,
        jobs=args.jobs,
    )
    return SweepDriver(
        default_space(),
        settings,
        state_path=args.state,
        registry=MetricsRegistry(),
        recorder=SpanRecorder(),
        interrupt_after=args.interrupt_after,
    )


def _finish(driver: SweepDriver, args: argparse.Namespace) -> None:
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(trace_document(driver.recorder), handle, indent=2)
        print(f"spans: {args.spans}")
    if args.metrics:
        sys.stdout.write(render_metrics_text(driver.registry, driver.gauges()))


def _cmd_sweep(args: argparse.Namespace, resume: bool) -> int:
    if args.cache_dir:
        configure_disk_cache(args.cache_dir)
    driver = _driver_from_args(args)
    try:
        result = driver.run(resume=resume)
    except SweepInterrupted as interrupt:
        # Journal + run cache hold everything; `hiss sweep resume` picks
        # the sweep back up and converges to the uninterrupted archive.
        print(f"sweep interrupted: {interrupt}", file=sys.stderr)
        _finish(driver, args)
        return EXIT_INTERRUPTED
    print(result.summary())
    print(f"state:   {result.state_path}")
    print(f"archive: {result.archive_path}")
    _finish(driver, args)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    archive_path = args.state + ARCHIVE_SUFFIX
    try:
        with open(archive_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        print(f"no archive at {archive_path}; run the sweep first",
              file=sys.stderr)
        return 1
    sys.stdout.write(frontier_table(document))
    if args.html:
        space = default_space()
        state = replay_journal(load_journal(args.state), space)
        evaluations = [
            (point, vector) for point, vector in state["archive"].values()
        ]
        write_page(args.html, render_html(document, evaluations))
        print(f"html: {args.html}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Replay the journal; cross-check counts, vectors, and the archive."""
    space = default_space()
    problems: List[str] = []
    try:
        records = load_journal(args.state)
    except FileNotFoundError:
        print(f"no journal at {args.state}", file=sys.stderr)
        return 1
    meta = next((r for r in records if r.get("kind") == "meta"), None)
    if meta is None:
        problems.append("no meta record — not a sweep journal")
    else:
        if meta.get("schema") != 1:
            problems.append(f"unsupported schema {meta.get('schema')!r}")
        if meta.get("objectives") != list(OBJECTIVE_NAMES):
            problems.append(
                f"objective set drifted: journal has {meta.get('objectives')}"
            )
        if meta.get("space_digest") != space.digest():
            problems.append(
                "space digest mismatch — the knob domains changed since "
                "this sweep ran"
            )
    for record in records:
        if record.get("kind") != "eval":
            continue
        try:
            space.validate(record["point"])
        except (TypeError, ValueError, KeyError) as error:
            problems.append(f"bad eval point {record.get('point')!r}: {error}")
            continue
        if len(record.get("vector", [])) != len(OBJECTIVE_NAMES):
            problems.append(
                f"eval vector of wrong arity: {record.get('vector')!r}"
            )
    round_indices = [r["round"] for r in records if r.get("kind") == "round"]
    if round_indices != sorted(set(round_indices)):
        problems.append(f"round records not strictly increasing: {round_indices}")
    state = None
    if not problems:
        try:
            state = replay_journal(records, space)
        except (TypeError, ValueError, KeyError) as error:
            problems.append(f"journal replay failed: {error}")
    if state is not None:
        archive_path = args.state + ARCHIVE_SUFFIX
        try:
            with open(archive_path, "r", encoding="utf-8") as handle:
                on_disk = json.load(handle)
            if on_disk.get("evaluations") != len(state["archive"]):
                problems.append(
                    f"archive says {on_disk.get('evaluations')} evaluations; "
                    f"journal replays {len(state['archive'])}"
                )
            archived = {
                json.dumps(e["point"], sort_keys=True, separators=(",", ":"))
                for e in on_disk.get("frontier", [])
            }
            replayed = set(state["archive"])
            if not archived <= replayed:
                problems.append("archive frontier contains unjournaled points")
        except FileNotFoundError:
            print(f"note: no archive at {archive_path} (sweep still running?)")
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    print(
        f"valid: {len(state['archive'])} evaluation(s), "
        f"{len(state['rounds'])} completed round(s)"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_sweep(args, resume=False)
    if args.command == "resume":
        return _cmd_sweep(args, resume=True)
    if args.command == "report":
        return _cmd_report(args)
    return _cmd_validate(args)
