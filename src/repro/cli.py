"""``hiss``: the one program; every tool is one of its commands.

Usage::

    hiss --version
    hiss experiments fig4 --quick         # regenerate figures and tables
    hiss serve --port 8171                # run the simulation service
    hiss client submit fig4 --wait        # talk to a running daemon
    hiss top --once                       # its live console
    hiss sweep run --state sweep.jsonl    # the mitigation/QoS autotuner
    hiss trace summary out.json           # inspect exported traces
    hiss report render profile.json       # interference-profile reports
    hiss slo evaluate --ops ops.jsonl     # SLOs, trace diffs, postmortems

``python -m repro`` runs the same program.  A command's module is
imported only when that command runs, so ``hiss trace`` never loads the
service.  ``--version`` reports the package version and the runcache
*code fingerprint* — the digest that keys every cached run
(:func:`repro.core.runcache.code_fingerprint`); two hosts printing the
same version but different fingerprints run different simulators and
will not share a cache.  The fingerprint hashes the package sources, so
it is computed only when ``--version`` is given.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import List, Optional

__all__ = ["COMMANDS", "main", "version_line"]

#: command -> (module whose ``main(argv)`` runs it, one-line help).
COMMANDS = {
    "experiments": ("repro.experiments.run_all", "regenerate the paper's figures and tables"),
    "serve": ("repro.service.daemon", "serve simulation jobs over an HTTP JSON API"),
    "client": ("repro.service.client", "talk to a running daemon"),
    "top": ("repro.service.top", "live console for a running daemon"),
    "sweep": ("repro.search.cli", "Pareto autotuner over mitigation and QoS knobs"),
    "trace": ("repro.telemetry.cli", "inspect and validate exported traces"),
    "report": ("repro.profiling.cli", "render and inspect interference profiles"),
    "slo": ("repro.obsd.cli", "evaluate SLOs, diff job traces, inspect postmortems"),
}


def version_line() -> str:
    """``hiss <version> (code fingerprint <digest12>)``."""
    import repro
    from .core.runcache import code_fingerprint

    return f"hiss {repro.__version__} (code fingerprint {code_fingerprint()[:12]})"


def main(argv: Optional[List[str]] = None) -> int:
    width = max(len(name) for name in COMMANDS)
    parser = argparse.ArgumentParser(
        prog="hiss",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Reproduce 'Interference from GPU System Service Requests'\n"
        "(IISWC 2018) on a discrete-event simulator.\n\ncommands:\n"
        + "\n".join(f"  {name:<{width}}  {text}" for name, (_m, text) in COMMANDS.items()),
        epilog="'hiss COMMAND --help' lists a command's own arguments.",
    )
    parser.add_argument(
        "--version", action="store_true",
        help="print package version + runcache code fingerprint and exit",
    )
    parser.add_argument(
        "command", nargs="?", choices=COMMANDS, metavar="COMMAND", help="one of the above"
    )
    parser.add_argument("args", nargs="*", metavar="ARGS", help="the command's arguments")
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the first word is the program's; the rest is the command's.
    args = parser.parse_args(argv[:1])
    if args.version:
        print(version_line())
        return 0
    if args.command is None:
        parser.error("a command is required")
    module = importlib.import_module(COMMANDS[args.command][0])
    try:
        status = module.main(argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (`hiss trace summary t.json | head`).
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return status
