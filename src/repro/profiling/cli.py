"""``hiss report``: render and inspect interference profiles.

Subcommands::

    hiss report render profile.json -o report.html --collapsed flame.txt
    hiss report summary profile.json       # text attribution table
    hiss report validate profile.json      # schema + conservation check

Profiles are produced by ``hiss experiments ... --profile profile.json``
or fetched from a running service with ``hiss client profile <job-id>``.
The ``--collapsed`` output is collapsed-stack format, directly consumable
by flamegraph.pl or speedscope; the HTML report is fully self-contained
(inline CSS/SVG, embedded raw JSON).
"""

from __future__ import annotations

import argparse

from ..telemetry.kit import load_checked, load_json, print_invalid, write_page
from .flamegraph import write_collapsed
from .profiler import profile_runs, validate_profile
from .report import render_html, text_summary

PROG = "hiss report"


def _cmd_render(args: argparse.Namespace) -> int:
    document = load_checked(PROG, args.profile, validate_profile)
    runs = profile_runs(document)
    entries = sum(len(r.get("ledger", {}).get("entries", [])) for r in runs)
    size = write_page(args.output, render_html(document))
    print(f"wrote {args.output} ({size} bytes, {len(runs)} run(s), {entries} attribution cells)")
    if args.collapsed:
        lines = write_collapsed(document, args.collapsed)
        print(f"wrote {args.collapsed} ({lines} collapsed stacks)")
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    print(text_summary(load_checked(PROG, args.profile, validate_profile)))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    document = load_json(PROG, args.profile)
    if print_invalid(validate_profile(document)):
        return 1
    runs = profile_runs(document)
    entries = sum(len(r.get("ledger", {}).get("entries", [])) for r in runs)
    samples = sum(len(r.get("samples", {}).get("rows", [])) for r in runs)
    print(
        f"OK: {args.profile} ({len(runs)} run(s), {entries} attribution cells, "
        f"{samples} samples, conservation holds)"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Render and inspect HISS interference-attribution profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    render = sub.add_parser("render", help="write the self-contained HTML report")
    render.add_argument("profile", help="profile JSON (bundle or single run)")
    render.add_argument("-o", "--output", default="report.html", help="HTML output path")
    render.add_argument(
        "--collapsed", metavar="FILE",
        help="also write collapsed-stack flamegraph input to FILE",
    )
    render.set_defaults(func=_cmd_render)

    summary = sub.add_parser("summary", help="print a text attribution table")
    summary.add_argument("profile", help="profile JSON (bundle or single run)")
    summary.set_defaults(func=_cmd_summary)

    validate = sub.add_parser(
        "validate", help="schema + conservation check; exit 1 on problems"
    )
    validate.add_argument("profile", help="profile JSON (bundle or single run)")
    validate.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)
