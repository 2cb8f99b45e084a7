"""``hiss-slo``: evaluate SLOs, inspect alerts, and diff job traces.

Subcommands::

    hiss-slo evaluate --ops ops.jsonl [--slo slos.json] [-o report.html]
    hiss-slo evaluate --url http://host:port [--slo slos.json]
    hiss-slo alerts --url http://host:port [--json]
    hiss-slo diff baseline-trace.json compare-trace.json [-o diff.html]
    hiss-slo diff --url http://host:port JOB_A JOB_B
    hiss-slo validate slos.json
    hiss-slo default-spec > slos.json

Offline mode replays a daemon's ``--log-json`` capture through the same
pure burn-rate evaluation the live engine runs (clocked entirely by the
events' own timestamps), so the report for a given capture + spec set is
byte-for-byte reproducible — run it twice, diff the files, get nothing.
Live mode asks the daemon's ``GET /v1/alerts`` for its current verdicts
instead.  Exit codes: ``evaluate`` exits 3 with ``--fail-on-firing``
when any rule fires; ``validate`` exits 1 on schema problems; ``diff``
exits 2 when an input is not a job trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from ..telemetry.kit import load_json, print_invalid, run_subcommand, write_page
from ..version import add_version_flag
from .replay import DEFAULT_REPLAY_INTERVAL_S, replay_ops_log
from .report import (
    diff_text,
    evaluation_text,
    render_diff_html,
    render_evaluation_html,
    store_series,
)
from .slo import (
    DEFAULT_SLOS,
    evaluate_slos,
    parse_slo_document,
    slo_document,
    validate_slo_document,
)
from .traces import trace_diff, trace_problems


PROG = "hiss-slo"


def _load_specs(path: Optional[str]) -> List:
    """The spec list for ``--slo`` (a file path, or the built-in defaults)."""
    if path is None or path == "default":
        return list(DEFAULT_SLOS)
    doc = load_json(PROG, path, what="SLO spec")
    try:
        return parse_slo_document(doc)
    except ValueError as error:
        raise SystemExit(f"hiss-slo: {path}: {error}")


def _fetch(url: str, path: str, timeout_s: float = 30.0) -> Any:
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url.rstrip("/") + path, headers={"Accept": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        detail = error.read().decode("utf-8", errors="replace")[:200]
        raise SystemExit(f"hiss-slo: {url}{path}: HTTP {error.code}: {detail}")
    except urllib.error.URLError as error:
        raise SystemExit(f"hiss-slo: cannot reach {url}: {error}")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_evaluate(args: argparse.Namespace) -> int:
    if bool(args.ops) == bool(args.url):
        raise SystemExit("hiss-slo evaluate: give exactly one of --ops or --url")
    specs = _load_specs(args.slo)
    capture_doc: Optional[Dict[str, Any]] = None
    series = None
    if args.ops:
        capture = replay_ops_log(args.ops, interval_s=args.interval)
        report = evaluate_slos(specs, capture.store)
        capture_doc = capture.as_dict()
        series = store_series(capture.store)
    else:
        # Live mode: the daemon evaluated with its own engine; render its
        # verdicts rather than re-deriving them from a partial view.
        report = _fetch(args.url, "/v1/alerts")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(evaluation_text(report, capture=capture_doc))
    if args.output:
        size = write_page(
            args.output,
            render_evaluation_html(report, capture=capture_doc, series=series),
        )
        print(f"wrote {args.output} ({size} bytes)", file=sys.stderr)
    if args.fail_on_firing and report.get("firing"):
        return 3
    return 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    report = _fetch(args.url, "/v1/alerts")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(evaluation_text(report))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    names = (args.baseline, args.compare)
    if args.url:
        docs = [_fetch(args.url, f"/v1/jobs/{name}/trace") for name in names]
    else:
        docs = [load_json(PROG, name, what="trace") for name in names]
    invalid = [
        print_invalid(trace_problems(doc), where=f"{name}: ")
        for name, doc in zip(names, docs)
    ]
    if any(invalid):
        return 2
    diff = trace_diff(*docs)
    if args.json:
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(diff_text(diff))
    if args.output:
        size = write_page(args.output, render_diff_html(diff))
        print(f"wrote {args.output} ({size} bytes)", file=sys.stderr)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    doc = load_json(PROG, args.spec, what="SLO spec")
    if print_invalid(validate_slo_document(doc)):
        return 1
    specs = parse_slo_document(doc)
    details = ", ".join(spec.name for spec in specs)
    print(f"OK: {args.spec} ({len(specs)} slo(s): {details})")
    return 0


def _cmd_default_spec(args: argparse.Namespace) -> int:
    print(json.dumps(slo_document(DEFAULT_SLOS), indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Evaluate serving-tier SLOs and diff job traces.",
    )
    add_version_flag(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    evaluate = sub.add_parser(
        "evaluate", help="burn-rate evaluation from a capture or a live daemon"
    )
    evaluate.add_argument(
        "--ops", metavar="FILE", default=None,
        help="replay a daemon's --log-json JSONL capture (offline, reproducible)",
    )
    evaluate.add_argument(
        "--url", default=None, help="ask a running daemon's /v1/alerts instead"
    )
    evaluate.add_argument(
        "--slo", metavar="FILE", default=None,
        help="SLO spec JSON (hiss.slo/1); omit or 'default' for the built-ins",
    )
    evaluate.add_argument(
        "--interval", type=float, default=DEFAULT_REPLAY_INTERVAL_S,
        help=f"replay bucket width in seconds (default {DEFAULT_REPLAY_INTERVAL_S:g})",
    )
    evaluate.add_argument("-o", "--output", default=None, metavar="FILE",
                          help="also write a self-contained HTML report")
    evaluate.add_argument("--json", action="store_true", help="print the raw report JSON")
    evaluate.add_argument(
        "--fail-on-firing", action="store_true",
        help="exit 3 when any rule fires (for CI gates)",
    )
    evaluate.set_defaults(func=_cmd_evaluate)

    alerts = sub.add_parser("alerts", help="print a live daemon's alert state")
    alerts.add_argument("--url", default="http://127.0.0.1:8171", help="server URL")
    alerts.add_argument("--json", action="store_true", help="print the raw document")
    alerts.set_defaults(func=_cmd_alerts)

    diff = sub.add_parser(
        "diff", help="attribute the e2e latency delta between two job traces"
    )
    diff.add_argument("baseline", help="baseline trace JSON file (or job id with --url)")
    diff.add_argument("compare", help="comparison trace JSON file (or job id with --url)")
    diff.add_argument("--url", default=None,
                      help="fetch both traces from a running daemon by job id")
    diff.add_argument("-o", "--output", default=None, metavar="FILE",
                      help="also write a self-contained HTML report")
    diff.add_argument("--json", action="store_true", help="print the raw diff JSON")
    diff.set_defaults(func=_cmd_diff)

    validate = sub.add_parser(
        "validate", help="schema-check an SLO spec file; exit 1 on problems"
    )
    validate.add_argument("spec", help="SLO spec JSON (hiss.slo/1)")
    validate.set_defaults(func=_cmd_validate)

    default_spec = sub.add_parser(
        "default-spec", help="print the built-in SLO spec document (a template)"
    )
    default_spec.set_defaults(func=_cmd_default_spec)

    return run_subcommand(parser, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
