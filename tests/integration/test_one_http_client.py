"""One HTTP client in ``src/``: :class:`repro.service.client.ServiceClient`.

Every tool that talks to a daemon (``hiss client``, ``hiss top``,
``hiss slo --url``) goes through ``ServiceClient``, so each one keeps its
connection alive, words an unreachable daemon the same way and ignores
proxy variables alike.  This scans ``src/`` for imports of the stdlib
HTTP client modules and fails on any module but ``repro/service/client.py``
that imports one.
"""

import ast
import os
from typing import Iterator, List, Tuple

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)

#: The one module allowed to speak HTTP as a client.
CLIENT = os.path.join("repro", "service", "client.py")

#: Stdlib modules that open HTTP connections.
HTTP_CLIENT_MODULES = {"urllib.request", "http.client"}


def _imported_modules(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(dotted module, line)`` for every module an import statement names,
    counting ``from urllib import request`` as ``urllib.request``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module, node.lineno
            for alias in node.names:
                yield f"{node.module}.{alias.name}", node.lineno


def http_client_imports() -> List[str]:
    """``path:line module`` of each HTTP-client import under ``src/``."""
    found = []
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            relative = os.path.relpath(path, SRC)
            found.extend(
                f"{relative}:{line} {module}"
                for module, line in _imported_modules(tree)
                if module in HTTP_CLIENT_MODULES
            )
    return found


def test_only_the_service_client_imports_an_http_client():
    found = http_client_imports()
    others = [where for where in found if not where.startswith(CLIENT + ":")]
    assert not others, (
        f"HTTP client imports outside {CLIENT} (go through ServiceClient): {others}"
    )
    assert found, f"{CLIENT} no longer imports an HTTP client: is the scan broken?"


def test_the_scan_sees_each_import_form():
    forms = (
        "import urllib.request",
        "import http.client as hc",
        "from urllib.request import urlopen",
        "from urllib import request",
        "from http import client",
    )
    for source in forms:
        modules = {module for module, _line in _imported_modules(ast.parse(source))}
        assert modules & HTTP_CLIENT_MODULES, source
    harmless = "from urllib.parse import urlparse\nfrom http.server import HTTPServer"
    modules = {module for module, _line in _imported_modules(ast.parse(harmless))}
    assert not modules & HTTP_CLIENT_MODULES
