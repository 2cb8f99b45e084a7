"""No definition in ``src/`` that only tests reach.

Every function, class and method under ``src/repro`` must be *reached*:
its name appears outside ``tests/`` as

* an ``ast.Name`` or an ``ast.Attribute``'s attribute,
* a ``from ... import`` alias (not counting the re-exports in ``src/``
  ``__init__.py`` files), or
* a string constant passed to ``getattr``,

in any Python file under ``src/``, ``examples/``, ``perfbench/`` or
``benchmarks/``, or as an identifier token in ``.github/workflows/*.yml``
or ``pyproject.toml``.  Dunder names count as reached (the interpreter
calls them), and so do functions with a decorator other than
``@property``, ``@staticmethod`` or ``@classmethod`` (the decorator
registers them).

The matching is by bare name and deliberately conservative: a dead
method that shares its name with a live one passes.  What it catches is
code that grew without a caller, which then costs every later reader.

The unreached set must equal :data:`ALLOWLIST`.  A new unreached name
fails the test (delete it, or add it here with the reason it stays); so
does a stale entry (a name that gained a caller or was deleted).  Names
are written ``<module>.<qualified name>``.
"""

import ast
import os
import re
from typing import Dict, Iterator, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")

#: Directories whose Python files may reach a ``src/`` definition.
REACHING_DIRS = ("src", "examples", "perfbench", "benchmarks")

#: Decorators that leave a function as unreachable as it was.
_PLAIN_DECORATORS = {"property", "staticmethod", "classmethod"}

_API = "library API README lists under 'Beyond the paper'"
_REFERENCE = "reference implementation that run_window is tested against"
_HTTP = "http.server dispatches requests to do_<METHOD> by name"
_SEAM = "test seam that observes or injects state"

#: Unreached definitions that stay, with the reason each one stays.
ALLOWLIST: Dict[str, str] = {
    "repro.core.runcache.reset_code_fingerprint": _SEAM,
    "repro.core.tracing.format_breakdown": _API,
    "repro.core.tracing.latency_breakdown": _API,
    "repro.core.tracing.total_mean_latency_ns": _API,
    "repro.gpu.trace.TraceDrivenGpu": _API,
    "repro.gpu.trace.format_trace": _API,
    "repro.gpu.trace.parse_trace": _API,
    "repro.obsd.recorder.FlightRecorder.note_invariant_violation": _SEAM,
    "repro.oskernel.accounting.TimeAccounting.core_mode": _SEAM,
    "repro.oskernel.accounting.TimeAccounting.grand_total": _SEAM,
    "repro.service.scheduler.JobScheduler.pause": _SEAM,
    "repro.service.scheduler.JobScheduler.running": _SEAM,
    "repro.service.server._Handler.do_DELETE": _HTTP,
    "repro.service.server._Handler.do_GET": _HTTP,
    "repro.service.server._Handler.do_POST": _HTTP,
    "repro.sim.environment.Environment.peek": _SEAM,
    "repro.sim.resources.Resource.available": _SEAM,
    "repro.sim.store.Store.pending_gets": _SEAM,
    "repro.sim.store.Store.pending_puts": _SEAM,
    "repro.uarch.cache.SetAssociativeCache.occupancy": _SEAM,
    "repro.uarch.cache.SetAssociativeCache.size_bytes": _SEAM,
    "repro.uarch.streams.generate_addresses": _REFERENCE,
    "repro.uarch.streams.generate_branches": _REFERENCE,
    "repro.workloads.barrier.Barrier.waiting": _SEAM,
}


def _python_files(directory: str) -> Iterator[str]:
    for dirpath, dirnames, filenames in os.walk(directory):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _parse(path: str) -> ast.AST:
    with open(path, "r", encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _is_init_in_src(path: str) -> bool:
    return path.startswith(SRC + os.sep) and os.path.basename(path) == "__init__.py"


def _referenced_names(path: str) -> Set[str]:
    """Every name ``path`` uses: loads, attributes, imports, getattr strings."""
    names: Set[str] = set()
    reexports = _is_init_in_src(path)
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not reexports:
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            names.add(node.args[1].value)
    return names


def _config_tokens() -> Set[str]:
    """Identifier tokens in the CI workflows and ``pyproject.toml``."""
    paths = [os.path.join(ROOT, "pyproject.toml")]
    workflows = os.path.join(ROOT, ".github", "workflows")
    if os.path.isdir(workflows):
        paths += [
            os.path.join(workflows, name)
            for name in sorted(os.listdir(workflows))
            if name.endswith(".yml")
        ]
    tokens: Set[str] = set()
    for path in paths:
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                tokens.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", handle.read()))
    return tokens


def _counts_as_reached(node: ast.AST) -> bool:
    if node.name.startswith("__") and node.name.endswith("__"):
        return True
    if isinstance(node, ast.ClassDef):
        return False
    return any(
        not (isinstance(decorator, ast.Name) and decorator.id in _PLAIN_DECORATORS)
        for decorator in node.decorator_list
    )


def _definitions() -> Iterator[Tuple[str, str]]:
    """``(qualified name, bare name)`` of each module-level function and
    class and each method, classes nested in classes included."""
    definition_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in _python_files(os.path.join(SRC, "repro")):
        module = os.path.relpath(path, SRC)[: -len(".py")].replace(os.sep, ".")
        module = module[: -len(".__init__")] if module.endswith(".__init__") else module
        pending = [(module, node) for node in _parse(path).body]
        while pending:
            prefix, node = pending.pop()
            if not isinstance(node, definition_types):
                continue
            qualified = f"{prefix}.{node.name}"
            if not _counts_as_reached(node):
                yield qualified, node.name
            if isinstance(node, ast.ClassDef):
                pending.extend((qualified, child) for child in node.body)


def unreached() -> Set[str]:
    """Qualified names of the ``src/`` definitions nothing outside tests names."""
    reached = _config_tokens()
    for directory in REACHING_DIRS:
        for path in _python_files(os.path.join(ROOT, directory)):
            reached |= _referenced_names(path)
    return {qualified for qualified, name in _definitions() if name not in reached}


def test_only_allowlisted_definitions_are_unreached():
    found = unreached()
    new = sorted(found - set(ALLOWLIST))
    stale = sorted(set(ALLOWLIST) - found)
    assert not new, f"definitions only tests reach (delete them, or allowlist with a reason): {new}"
    assert not stale, f"allowlisted names that are now reached or gone: {stale}"


if __name__ == "__main__":  # pragma: no cover - manual tool
    for name in sorted(unreached()):
        print(name)
