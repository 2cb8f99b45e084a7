"""``hiss-postmortem``: list, render, and inspect postmortem bundles.

Subcommands::

    hiss-postmortem list [DIR]             # bundles in a directory
    hiss-postmortem list --url URL         # bundles of a live daemon
    hiss-postmortem summary pm-....json    # aligned-text incident summary
    hiss-postmortem render pm-....json -o report.html
    hiss-postmortem validate pm-....json   # schema check; exit 1 on problems

Bundles are written by a daemon started with ``hiss-serve
--postmortem-dir`` (auto-captured on SLO alerts, worker crashes, and the
other triggers) or fetched from it with ``hiss-client postmortem <id> -o
pm.json``.  The HTML report is fully self-contained (inline CSS, inline
timeline SVG, embedded raw JSON) and byte-identical across re-renders of
the same bundle.
"""

from __future__ import annotations

import argparse
import sys

from ..telemetry.kit import load_checked, load_json, print_invalid, run_subcommand, write_page
from ..version import add_version_flag
from .bundle import list_bundles, validate_postmortem
from .report import postmortem_text, render_postmortem_html

PROG = "hiss-postmortem"


def _cmd_list(args: argparse.Namespace) -> int:
    if args.url:
        from ..service.client import TRANSPORT_ERRORS, ServiceClient, ServiceError

        try:
            body = ServiceClient(args.url).postmortems()
        except (ServiceError, *TRANSPORT_ERRORS) as error:
            print(f"{PROG}: error: {args.url}: {error}", file=sys.stderr)
            return 1
        rows = body.get("postmortems", [])
    else:
        rows = list_bundles(args.directory)
    if not rows:
        where = args.url or args.directory
        print(f"no postmortem bundles at {where}")
        return 0
    header = (
        f"{'id':<28} {'trigger':<18} {'kind':<16} {'jobs':>4} "
        f"{'ring':>5} {'bytes':>9}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{str(row.get('id', '?')):<28} {str(row.get('trigger', '?')):<18} "
            f"{str(row.get('kind', '?')):<16} {row.get('jobs', 0):>4} "
            f"{row.get('ring_entries', 0):>5} {row.get('bytes', 0):>9}"
        )
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    print(postmortem_text(load_checked(PROG, args.bundle, validate_postmortem)))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    document = load_checked(PROG, args.bundle, validate_postmortem)
    size = write_page(args.output, render_postmortem_html(document))
    entries = len((document.get("flight_ring") or {}).get("entries") or [])
    print(
        f"wrote {args.output} ({size} bytes, {entries} ring entries, "
        f"{len(document.get('jobs') or [])} job(s))"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    status = 0
    for path in args.bundles:
        document = load_json(PROG, path)
        if print_invalid(validate_postmortem(document), where=f"{path}: "):
            status = 1
            continue
        ring = document.get("flight_ring") or {}
        print(
            f"OK: {path} ({document.get('id')}, "
            f"{len(ring.get('entries') or [])} ring entries, "
            f"{len(document.get('jobs') or [])} job(s))"
        )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="List, render, and inspect HISS postmortem bundles.",
    )
    add_version_flag(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    listing = sub.add_parser("list", help="list bundles in a directory or daemon")
    listing.add_argument(
        "directory", nargs="?", default=".",
        help="bundle directory (default: current directory)",
    )
    listing.add_argument(
        "--url", default=None,
        help="list a live daemon's bundles (GET /v1/postmortems) instead",
    )
    listing.set_defaults(func=_cmd_list)

    summary = sub.add_parser("summary", help="print a text incident summary")
    summary.add_argument("bundle", help="postmortem bundle JSON")
    summary.set_defaults(func=_cmd_summary)

    render = sub.add_parser("render", help="write the self-contained HTML report")
    render.add_argument("bundle", help="postmortem bundle JSON")
    render.add_argument(
        "-o", "--output", default="postmortem.html", help="HTML output path"
    )
    render.set_defaults(func=_cmd_render)

    validate = sub.add_parser(
        "validate", help="schema check; exit 1 on problems"
    )
    validate.add_argument("bundles", nargs="+", help="postmortem bundle JSON file(s)")
    validate.set_defaults(func=_cmd_validate)

    return run_subcommand(parser, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
