"""Stdlib client for the simulation service, plus the ``hiss client`` CLI.

:class:`ServiceClient` wraps the JSON API in plain method calls;
:func:`ServiceClient.submit_with_backoff` is the client half of the
paper's protocol — when the daemon answers 429, the client *honors the
hint* and retries after the advertised delay instead of hammering, which
is exactly how the bounded-queue + back-off pair converts overload into
latency rather than collapse.

Each thread keeps one HTTP/1.1 connection to the daemon and sends every
call over it, so a call pays connection set-up (and the daemon a new
handler thread) once, not per request — the paper's mitigations make the
same trade for a request's fixed host costs.  :meth:`ServiceClient.close`
(or leaving a ``with ServiceClient(url) as client:`` block) closes every
thread's connection.

CLI::

    hiss client --url http://host:port submit fig4 --quick --wait
    hiss client status job-000001-abcdef0123
    hiss client result job-000001-abcdef0123
    hiss client trace job-000001-abcdef0123 [--chrome]
    hiss client profile job-000001-abcdef0123 [-o profile.json]
    hiss client experiments | jobs | health | metrics [--text] | ops
    hiss client postmortems
    hiss client postmortem pm-000001-slo_alert [-o pm.json]

``submit --profile`` asks the daemon to attribute every run's SSR
interference; fetch the bundle with ``profile`` and render it locally
with ``hiss report render profile.json -o report.html``.

Every tool that reaches a daemon (``hiss client``, ``hiss top`` and each
``hiss slo ... --url``) answers a daemon that cannot be reached, or
answers with an error, with :func:`daemon_error`'s one line and exit 1.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
import time
import urllib.parse
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "DAEMON_ERRORS",
    "ServiceClient",
    "ServiceError",
    "ServiceRejected",
    "daemon_error",
    "main",
]

PROG = "hiss client"

DEFAULT_URL = "http://127.0.0.1:8171"

#: Mirrors ``repro.service.server.TRACE_HEADER`` (kept literal: the client
#: must work against a remote daemon without importing server code).
TRACE_HEADER = "X-Hiss-Trace-Id"


def _body_trace_id(body: Any) -> Optional[str]:
    return body.get("trace_id") if isinstance(body, dict) else None


class ServiceError(Exception):
    """Any non-2xx response (except 429, which raises the subclass).

    The message carries the server-assigned trace id when the response
    body has one, so an error a user pastes into a bug report is already
    greppable in the daemon's JSONL ops log.
    """

    def __init__(self, status: int, body: Any):
        detail = body.get("detail") if isinstance(body, dict) else body
        trace_id = _body_trace_id(body)
        message = f"HTTP {status}: {detail}"
        if trace_id:
            message += f" [trace {trace_id}]"
        super().__init__(message)
        self.status = status
        self.body = body
        self.trace_id = trace_id


class ServiceRejected(ServiceError):
    """Admission refused the job (429); carries the server's retry hint."""

    def __init__(self, status: int, body: Any, retry_after_s: float):
        super().__init__(status, body)
        self.retry_after_s = retry_after_s
        self.reason = body.get("error") if isinstance(body, dict) else "rejected"


#: What an unreachable or misbehaving daemon raises: an error reply, a
#: refused or reset connection, a timeout, a reply that is not HTTP.
DAEMON_ERRORS = (ServiceError, OSError, http.client.HTTPException)


def daemon_error(prog: str, url: str, error: BaseException) -> int:
    """The one reply to a daemon in :data:`DAEMON_ERRORS` trouble: the
    line ``<prog>: error: <url>: <error>`` on stderr; returns exit status 1."""
    print(f"{prog}: error: {url}: {error}", file=sys.stderr)
    return 1


class ServiceClient:
    def __init__(self, base_url: str = DEFAULT_URL, timeout_s: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme not in ("http", "https"):
            raise ValueError(f"unsupported URL {base_url!r}: want http:// or https://")
        self._connection_class = (
            http.client.HTTPSConnection if url.scheme == "https"
            else http.client.HTTPConnection
        )
        self._netloc = url.netloc
        self._path_prefix = url.path
        #: Each thread's connection: threads never interleave on a socket.
        self._local = threading.local()
        #: Every connection any thread made, so :meth:`close` reaches all.
        self._connections: List[http.client.HTTPConnection] = []
        self._connections_lock = threading.Lock()

    def close(self) -> None:
        """Close the connection of every thread that used this client.

        A call made afterwards opens a fresh connection, so closing never
        breaks the client; a call in flight on another thread fails.
        """
        with self._connections_lock:
            for connection in self._connections:
                connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Any] = None,
        headers: Optional[Dict[str, str]] = None,
        timeout_s: Optional[float] = None,
    ) -> Tuple[int, Dict[str, str], Any]:
        data = None
        all_headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            all_headers["Content-Type"] = "application/json"
        if headers:
            all_headers.update(headers)
        timeout = self.timeout_s if timeout_s is None else timeout_s
        status, response_headers, raw = self._exchange(
            method, self._path_prefix + path, data, all_headers, timeout
        )
        parsed = _parse(raw)
        if 200 <= status < 300:
            return status, response_headers, parsed
        if status == 429:
            retry_after = float(
                response_headers.get("Retry-After")
                or (parsed or {}).get("retry_after_s", 1.0)
            )
            raise ServiceRejected(status, parsed, retry_after)
        raise ServiceError(status, parsed)

    def _exchange(
        self, method: str, target: str, data: Optional[bytes],
        headers: Dict[str, str], timeout: float,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request and its whole reply over this thread's connection.

        A kept-alive connection the server has since closed fails before
        any status line (``RemoteDisconnected`` is a
        ``ConnectionResetError``); the request is then sent once more on a
        fresh connection.  A fresh connection that fails raises.
        """
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._connection_class(
                self._netloc, timeout=timeout
            )
            with self._connections_lock:
                self._connections.append(connection)
        reused = connection.sock is not None
        if connection.timeout != timeout:
            connection.timeout = timeout
            if reused:
                connection.sock.settimeout(timeout)
        try:
            try:
                connection.request(method, target, body=data, headers=headers)
                response = connection.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                if not reused:
                    raise
                connection.close()
                connection.request(method, target, body=data, headers=headers)
                response = connection.getresponse()
            return response.status, dict(response.headers), response.read()
        except BaseException:
            # A half-done exchange leaves the connection unusable.
            connection.close()
            raise

    def _get(self, path: str, timeout_s: Optional[float] = None) -> Any:
        _status, _headers, parsed = self._request("GET", path, timeout_s=timeout_s)
        return parsed

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def submit(
        self,
        experiments: List[str],
        quick: bool = False,
        horizon_ms: Optional[float] = None,
        trace_id: Optional[str] = None,
        profile: bool = False,
    ) -> Dict[str, Any]:
        """Submit once; returns the submission body (``body["job"]["id"]``).

        ``trace_id`` (normally the one a previous 429 assigned) rides the
        ``X-Hiss-Trace-Id`` header, so the server threads every back-off
        round into the eventual job's trace.  ``profile`` asks for
        per-run interference attribution (fetch with :meth:`profile`).
        Raises :class:`ServiceRejected` when admission refuses.
        """
        doc: Dict[str, Any] = {"experiments": list(experiments), "quick": quick}
        if horizon_ms is not None:
            doc["horizon_ms"] = horizon_ms
        if profile:
            doc["profile"] = True
        headers = {TRACE_HEADER: trace_id} if trace_id else None
        _status, _headers, parsed = self._request(
            "POST", "/v1/jobs", doc, headers=headers
        )
        return parsed

    def submit_with_backoff(
        self,
        experiments: List[str],
        quick: bool = False,
        horizon_ms: Optional[float] = None,
        give_up_after_s: float = 300.0,
        sleep=time.sleep,
        profile: bool = False,
    ) -> Dict[str, Any]:
        """Submit, sleeping out each 429's ``Retry-After`` until accepted.

        The first rejection's server-assigned trace id is resent on every
        retry, so the accepted job's trace shows each round it sat out.
        """
        deadline = time.monotonic() + give_up_after_s
        trace_id: Optional[str] = None
        while True:
            try:
                return self.submit(
                    experiments, quick=quick, horizon_ms=horizon_ms,
                    trace_id=trace_id, profile=profile,
                )
            except ServiceRejected as rejection:
                trace_id = rejection.trace_id or trace_id
                if time.monotonic() + rejection.retry_after_s > deadline:
                    raise
                sleep(rejection.retry_after_s)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._get(f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> List[dict]:
        return self._get(f"/v1/jobs/{job_id}/result")

    def trace(self, job_id: str, chrome: bool = False) -> Dict[str, Any]:
        """One job's lifecycle trace: span JSON, or the Chrome-trace form."""
        suffix = "?format=chrome" if chrome else ""
        return self._get(f"/v1/jobs/{job_id}/trace{suffix}")

    def profile(self, job_id: str) -> Dict[str, Any]:
        """One finished job's interference-attribution bundle
        (``hiss.profile/1``; the job must have been submitted with
        ``profile=True``).  Render with ``hiss report``."""
        return self._get(f"/v1/jobs/{job_id}/profile")

    def ops(self) -> Dict[str, Any]:
        """The ``/v1/ops`` snapshot (what ``hiss top`` renders)."""
        return self._get("/v1/ops")

    def alerts(self) -> Dict[str, Any]:
        """The SLO engine's ``/v1/alerts`` document (daemon must run
        with ``--slo``; render with ``hiss slo evaluate --url``)."""
        return self._get("/v1/alerts")

    def postmortems(self) -> Dict[str, Any]:
        """The flight recorder's ``/v1/postmortems`` index (daemon must
        run with ``--postmortem-dir``)."""
        return self._get("/v1/postmortems")

    def postmortem(self, pm_id: str) -> Dict[str, Any]:
        """One stored postmortem bundle (``hiss.postmortem/1``; render
        with ``hiss slo postmortem render``)."""
        return self._get(f"/v1/postmortems/{pm_id}")

    def trigger_postmortem(
        self, reason: str = "operator request", jobs: Optional[List[str]] = None
    ) -> Dict[str, Any]:
        """Capture a bundle on demand (``POST /v1/postmortems/trigger``).

        Raises :class:`ServiceRejected` when the manual trigger is over
        its hourly rate cap.
        """
        body: Dict[str, Any] = {"reason": reason}
        if jobs:
            body["jobs"] = list(jobs)
        _status, _headers, parsed = self._request(
            "POST", "/v1/postmortems/trigger", body
        )
        return parsed

    def wait(
        self, job_id: str, timeout_s: float = 600.0, poll_s: float = 0.2
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns its doc."""
        deadline = time.monotonic() + timeout_s
        while True:
            doc = self.status(job_id)
            if doc["state"] in ("done", "failed", "cancelled"):
                return doc
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {doc['state']}")
            time.sleep(poll_s)

    def jobs(self) -> Dict[str, Any]:
        return self._get("/v1/jobs")

    def experiments(self) -> Dict[str, Any]:
        return self._get("/v1/experiments")

    def health(self) -> Dict[str, Any]:
        return self._get("/healthz")

    def metrics(self, text: bool = False) -> Any:
        return self._get("/metrics?format=text" if text else "/metrics")

    def evict(self, job_id: str) -> Dict[str, Any]:
        _status, _headers, parsed = self._request("DELETE", f"/v1/jobs/{job_id}")
        return parsed


def _parse(raw: bytes) -> Any:
    if not raw:
        return None
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return raw.decode("utf-8", errors="replace")


def _print_json(doc: Any) -> None:
    if isinstance(doc, str):
        print(doc, end="" if doc.endswith("\n") else "\n")
    else:
        print(json.dumps(doc, indent=2))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog=PROG, description="Talk to a running simulation daemon (hiss serve)."
    )
    parser.add_argument("--url", default=DEFAULT_URL, help=f"server URL (default {DEFAULT_URL})")
    parser.add_argument("--timeout", type=float, default=30.0, help="per-request timeout (s)")
    commands = parser.add_subparsers(dest="command", required=True)

    submit = commands.add_parser("submit", help="submit experiments as one job")
    submit.add_argument("experiments", nargs="+", help="experiment ids (e.g. fig4)")
    submit.add_argument("--quick", action="store_true", help="reduced workload grid")
    submit.add_argument("--horizon-ms", type=float, default=None)
    submit.add_argument(
        "--profile", action="store_true",
        help="attribute every run's SSR interference server-side "
        "(fetch with 'hiss client profile', render with hiss report)",
    )
    submit.add_argument(
        "--wait", action="store_true", help="poll until the job finishes, print its result"
    )
    submit.add_argument(
        "--wait-timeout", type=float, default=600.0, help="--wait limit in seconds"
    )
    submit.add_argument(
        "--no-backoff", action="store_true",
        help="fail immediately on 429 instead of honoring Retry-After",
    )

    for name, help_text in [
        ("status", "print one job's status document"),
        ("result", "print one finished job's result JSON"),
        ("trace", "print one job's lifecycle trace (span JSON)"),
        ("profile", "print one finished job's interference-attribution bundle"),
        ("wait", "poll one job until it finishes"),
        ("evict", "evict one terminal job before its TTL"),
    ]:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("job_id")
        if name == "wait":
            sub.add_argument("--wait-timeout", type=float, default=600.0)
        if name == "trace":
            sub.add_argument(
                "--chrome", action="store_true",
                help="stitched chrome://tracing export instead of span JSON",
            )
        if name == "profile":
            sub.add_argument(
                "-o", "--output", default=None, metavar="FILE",
                help="write the bundle to FILE instead of stdout "
                "(then: hiss report render FILE -o report.html)",
            )

    commands.add_parser("jobs", help="list live jobs")
    commands.add_parser("experiments", help="list servable experiments")
    commands.add_parser("health", help="print /healthz")
    commands.add_parser("ops", help="print the /v1/ops snapshot")
    commands.add_parser("postmortems", help="list the daemon's postmortem bundles")
    postmortem = commands.add_parser(
        "postmortem", help="fetch one postmortem bundle"
    )
    postmortem.add_argument("pm_id", help="bundle id (see 'postmortems')")
    postmortem.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write the bundle to FILE instead of stdout (then: "
        "hiss slo postmortem render FILE -o report.html)",
    )
    metrics = commands.add_parser("metrics", help="print /metrics")
    metrics.add_argument("--text", action="store_true", help="flat text exposition")

    args = parser.parse_args(argv)
    client = ServiceClient(args.url, timeout_s=args.timeout)
    try:
        if args.command == "submit":
            if args.no_backoff:
                body = client.submit(
                    args.experiments, quick=args.quick,
                    horizon_ms=args.horizon_ms, profile=args.profile,
                )
            else:
                body = client.submit_with_backoff(
                    args.experiments, quick=args.quick,
                    horizon_ms=args.horizon_ms, profile=args.profile,
                )
            if not args.wait:
                _print_json(body)
                return 0
            job_id = body["job"]["id"]
            doc = client.wait(job_id, timeout_s=args.wait_timeout)
            if doc["state"] != "done":
                _print_json(doc)
                return 1
            _print_json(doc)
            _print_json(client.result(job_id))
            return 0
        if args.command == "status":
            _print_json(client.status(args.job_id))
        elif args.command == "result":
            _print_json(client.result(args.job_id))
        elif args.command == "trace":
            _print_json(client.trace(args.job_id, chrome=args.chrome))
        elif args.command == "profile":
            bundle = client.profile(args.job_id)
            if args.output:
                with open(args.output, "w") as handle:
                    json.dump(bundle, handle)
                runs = len(bundle.get("runs", []))
                print(
                    f"wrote {args.output} ({runs} run profile(s); render "
                    f"with 'hiss report render {args.output} -o report.html')"
                )
            else:
                _print_json(bundle)
        elif args.command == "ops":
            _print_json(client.ops())
        elif args.command == "postmortems":
            _print_json(client.postmortems())
        elif args.command == "postmortem":
            bundle = client.postmortem(args.pm_id)
            if args.output:
                with open(args.output, "w") as handle:
                    json.dump(bundle, handle)
                ring = (bundle.get("flight_ring") or {}).get("entries") or []
                print(
                    f"wrote {args.output} ({len(ring)} ring entries; render "
                    f"with 'hiss slo postmortem render {args.output} -o report.html')"
                )
            else:
                _print_json(bundle)
        elif args.command == "wait":
            doc = client.wait(args.job_id, timeout_s=args.wait_timeout)
            _print_json(doc)
            return 0 if doc["state"] == "done" else 1
        elif args.command == "evict":
            _print_json(client.evict(args.job_id))
        elif args.command == "jobs":
            _print_json(client.jobs())
        elif args.command == "experiments":
            _print_json(client.experiments())
        elif args.command == "health":
            _print_json(client.health())
        elif args.command == "metrics":
            _print_json(client.metrics(text=args.text))
        return 0
    except ServiceRejected as rejection:
        print(
            f"rejected ({rejection.reason}): retry after "
            f"{rejection.retry_after_s:.1f}s",
            file=sys.stderr,
        )
        return 2
    except DAEMON_ERRORS as error:
        # TimeoutError (``--wait`` ran out) is an OSError too.
        return daemon_error(PROG, args.url, error)
    finally:
        client.close()
