"""No builtin ``sum()`` where a run's numbers are computed.

Python 3.12 made ``sum()`` of floats compensate its rounding, so a float
total built with it has other last bits on 3.12 and later than on 3.9 to
3.11, and the same run no longer gives the same bits on every supported
interpreter.  The simulator packages, ``core/system.py`` and the figure
arithmetic in ``core/metrics.py`` add floats with
``repro.oskernel.accounting.ordered_sum``, left to right, which gives
every interpreter the bits ``sum()`` gave before 3.12.

This scans those sources for calls of the builtin ``sum`` and fails on
any call outside :data:`ALLOWLIST`, the integer sums, each with the
reason it is exact.  Names are written ``<module>.<qualified name>`` of
the function the call is in.
"""

import ast
import os
from typing import Iterator, List, Tuple

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)

#: The sources that compute a run's numbers.
SCANNED = tuple(
    os.path.join("repro", *relative.split("/"))
    for relative in (
        "sim", "oskernel", "uarch", "iommu", "gpu", "workloads", "qos",
        "mitigations", "core/system.py", "core/metrics.py",
    )
)

#: Builtin ``sum`` calls that stay: integer sums are exact on every
#: interpreter.
ALLOWLIST = {
    "repro.core.metrics.SystemMetrics.interrupt_balance": "interrupt counts are ints",
    "repro.core.metrics.SystemMetrics.total_interrupts": "interrupt counts are ints",
    "repro.oskernel.kernel.Kernel.ipis_total": "per-core IPI counts are ints",
    "repro.uarch.cache.SetAssociativeCache.occupancy": "set lengths are ints",
    "repro.qos.adaptive.AdaptiveQosGovernor._sampler": "counts idle cores",
}


def _sources() -> Iterator[str]:
    for relative in SCANNED:
        path = os.path.join(SRC, relative)
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            yield from (
                os.path.join(dirpath, name) for name in sorted(filenames)
                if name.endswith(".py")
            )


def _sum_calls(path: str) -> Iterator[Tuple[str, int]]:
    """``(qualified name of the enclosing definition, line)`` of each call
    of a bare ``sum`` in ``path``."""
    module = os.path.relpath(path, SRC)[: -len(".py")].replace(os.sep, ".")
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    pending: List[Tuple[str, ast.AST]] = [(module, tree)]
    while pending:
        prefix, node = pending.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, scopes):
                pending.append((f"{prefix}.{child.name}", child))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "sum"
            ):
                yield prefix, child.lineno
            pending.append((prefix, child))


def sum_calls() -> List[Tuple[str, str]]:
    """``(qualified name, path:line)`` of every builtin ``sum`` call scanned."""
    return sorted(
        (name, f"{os.path.relpath(path, SRC)}:{line}")
        for path in _sources()
        for name, line in _sum_calls(path)
    )


def test_only_allowlisted_integer_sums_remain():
    found = sum_calls()
    new = [where for name, where in found if name not in ALLOWLIST]
    stale = sorted(set(ALLOWLIST) - {name for name, _where in found})
    assert not new, (
        f"builtin sum() where a run's numbers are computed (use ordered_sum, "
        f"or allowlist an integer sum with its reason): {new}"
    )
    assert not stale, f"allowlisted functions with no sum() left: {stale}"


if __name__ == "__main__":  # pragma: no cover - manual tool
    for name, where in sum_calls():
        print(f"{where}  {name}")
