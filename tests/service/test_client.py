"""``ServiceClient``'s transport: one kept-alive connection per thread.

Each test drives a real ``HissService`` (or a bare socket where the
service cannot misbehave on cue) on an ephemeral port.  Connections are
counted server-side by wrapping ``_Handler.setup``, which runs once per
accepted connection.
"""

import http.client
import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

import repro.service.server as server
from repro.core import clear_cache, set_disk_cache
from repro.service import HissService, ServiceClient, ServiceError, ServiceRejected
from repro.service.client import main as client_main


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_cache()
    set_disk_cache(None)
    yield
    clear_cache()
    set_disk_cache(None)


@pytest.fixture
def accepted(monkeypatch):
    """The ports of every connection any service accepts, in order."""
    ports = []
    setup = server._Handler.setup

    def counting(handler):
        ports.append(handler.server.server_address[1])
        setup(handler)

    monkeypatch.setattr(server._Handler, "setup", counting)
    return ports


@contextmanager
def running(port=0, **kwargs):
    svc = HissService(port=port, qos_threshold=10.0, **kwargs).start()
    try:
        yield svc
    finally:
        if not svc._draining:
            svc.stop()


@contextmanager
def scripted(serve):
    """A bare listener that hands each accepted connection to ``serve``.

    Yields its URL and the list of accepted connections; each connection
    is closed once ``serve`` returns.
    """
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    accepted = []

    def loop():
        while True:
            try:
                connection, _ = listener.accept()
            except OSError:
                return
            accepted.append(connection)
            with connection:
                serve(connection)

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", accepted
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        listener.close()
        thread.join(timeout=15)
    assert not thread.is_alive()


def closed_port() -> int:
    """A local port nothing listens on."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestOneConnection:
    def test_calls_share_one_accepted_connection(self, accepted):
        with running() as svc, ServiceClient(svc.url) as client:
            body = client.submit(["fig4"], quick=True, horizon_ms=1.0)
            client.wait(body["job"]["id"], timeout_s=120, poll_s=0.02)
            for _ in range(10):
                assert client.health()["status"] == "ok"
            client.result(body["job"]["id"])
            client.metrics(text=True)
            requests = svc.metrics.counter("service.http.requests").value
            port = svc.port
        assert requests > 13
        assert accepted == [port]

    def test_a_connection_the_server_closed_is_reopened(self, accepted):
        with running() as first:
            client = ServiceClient(first.url)
            assert client.health()["status"] == "ok"
            port = first.port
        with running(port=port) as second, client:
            # The kept-alive socket now leads nowhere: the call fails on it
            # before any status line and is sent again on a new connection.
            assert client.health()["status"] == "ok"
            assert second.metrics.counter("service.http.requests").value == 1
        assert accepted == [port, port]

    def test_a_fresh_connection_that_fails_raises(self):
        def hang_up(connection):
            connection.recv(65536)

        with scripted(hang_up) as (url, requests), ServiceClient(url, timeout_s=10) as client:
            with pytest.raises(http.client.RemoteDisconnected):
                client.health()
        assert len(requests) == 1  # not sent again

    def test_a_per_call_timeout_applies_to_a_reused_connection(self):
        replied = threading.Event()

        def answer_once(connection):
            connection.recv(65536)
            connection.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: 2\r\n\r\n{}"
            )
            connection.recv(65536)  # the second request: never answered
            replied.wait(10)

        with scripted(answer_once) as (url, requests), ServiceClient(
            url, timeout_s=30
        ) as client:
            assert client.health() == {}
            begin = time.monotonic()
            with pytest.raises(OSError):  # socket.timeout, TimeoutError from 3.10
                client._get("/healthz", timeout_s=0.2)
            elapsed_s = time.monotonic() - begin
            replied.set()
        assert elapsed_s < 5
        assert len(requests) == 1  # both requests went over one connection

    def test_threads_share_one_client_safely(self, accepted):
        with running() as svc, ServiceClient(svc.url) as client:
            job_ids = [
                client.submit(["fig4"], quick=True, horizon_ms=h)["job"]["id"]
                for h in (1.0, 1.5)
            ]
            for job_id in job_ids:
                client.wait(job_id, timeout_s=120, poll_s=0.02)
            accepted.clear()
            failures = []

            def poll(job_id):
                try:
                    for _ in range(25):
                        assert client.status(job_id)["id"] == job_id
                        assert client.experiments()["count"] > 0
                except Exception as error:  # reported below
                    failures.append(error)

            threads = [
                threading.Thread(target=poll, args=(job_ids[i % 2],))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert failures == []
        assert len(accepted) == 4  # one connection per thread


class TestErrors:
    def test_429_carries_retry_after_and_trace_id(self, accepted):
        with running(queue_limit=1) as svc, ServiceClient(svc.url) as client:
            svc.scheduler.pause()
            client.submit(["table1"])
            with pytest.raises(ServiceRejected) as excinfo:
                client.submit(["ipi"], horizon_ms=1.0, trace_id="00c0ffee00c0ffee")
            rejection = excinfo.value
            assert rejection.status == 429
            assert rejection.reason == "queue-full"
            assert rejection.retry_after_s > 0
            assert rejection.retry_after_s == pytest.approx(
                rejection.body["retry_after_s"], abs=1e-3
            )
            assert rejection.trace_id == "00c0ffee00c0ffee"
            assert "[trace 00c0ffee00c0ffee]" in str(rejection)
            svc.scheduler.resume()
        assert len(accepted) == 1

    def test_error_replies_raise_service_error(self, accepted, monkeypatch):
        with running() as svc, ServiceClient(svc.url) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(["figZZ"], trace_id="00000000000000aa")
            assert excinfo.value.status == 400
            assert excinfo.value.body["error"] == "bad-spec"
            assert excinfo.value.trace_id == "00000000000000aa"

            with pytest.raises(ServiceError) as excinfo:
                client.status("job-nope")
            assert excinfo.value.status == 404
            trace_id = excinfo.value.trace_id  # minted: the call sent none
            assert trace_id and len(trace_id) == 16
            assert excinfo.value.body == {
                "error": "unknown-job", "detail": "job-nope", "trace_id": trace_id,
            }
            assert str(excinfo.value) == f"HTTP 404: job-nope [trace {trace_id}]"

            def broken_plan(spec):
                raise ZeroDivisionError("float division by zero")

            monkeypatch.setattr(server, "plan_spec", broken_plan)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(["fig4"], trace_id="00000000000000bb")
            assert excinfo.value.status == 500
            assert excinfo.value.body["error"] == "internal"
            assert excinfo.value.trace_id == "00000000000000bb"
            assert not isinstance(excinfo.value, ServiceRejected)
            # Each error reply left the connection usable.
            assert client.health()["status"] == "ok"
        assert len(accepted) == 1


    def test_404_and_409_name_the_trace_id_in_body_and_header(self):
        with running() as svc, ServiceClient(svc.url) as client:
            svc.scheduler.pause()
            job_id = client.submit(["ipi"], horizon_ms=1.0)["job"]["id"]
            connection = http.client.HTTPConnection(svc.host, svc.port, timeout=30)
            try:
                for path, status, error in (
                    ("/v1/jobs/job-nope", 404, "unknown-job"),
                    ("/v1/nowhere", 404, "not-found"),
                    (f"/v1/jobs/{job_id}/result", 409, "not-done"),
                    ("/v1/alerts", 404, "slo-disabled"),
                ):
                    connection.request(
                        "GET", path, headers={server.TRACE_HEADER: "00000000000000cc"}
                    )
                    response = connection.getresponse()
                    body = json.loads(response.read())
                    assert response.status == status, path
                    assert body["error"] == error
                    assert body["trace_id"] == "00000000000000cc"
                    assert response.getheader(server.TRACE_HEADER) == "00000000000000cc"
            finally:
                connection.close()
                svc.scheduler.resume()


class TestDraining:
    def test_a_draining_service_closes_each_connection(self, monkeypatch):
        with running() as svc, ServiceClient(svc.url) as client:
            gate = threading.Event()
            run_batch = svc.scheduler._run_batch

            def held(batch):
                gate.wait(30)
                run_batch(batch)

            monkeypatch.setattr(svc.scheduler, "_run_batch", held)
            client.submit(["fig4"], quick=True, horizon_ms=1.0)
            stopper = threading.Thread(target=svc.stop)
            stopper.start()
            try:
                deadline = time.monotonic() + 10
                while client.health()["status"] != "draining":
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                connection = http.client.HTTPConnection(svc.host, svc.port, timeout=10)
                try:
                    connection.request("GET", "/healthz")
                    response = connection.getresponse()
                    assert json.loads(response.read())["status"] == "draining"
                    assert response.getheader("Connection") == "close"
                    assert connection.sock is None  # http.client saw the close
                finally:
                    connection.close()
            finally:
                gate.set()
                stopper.join(timeout=60)
        assert not stopper.is_alive()

    def test_no_handler_answers_after_stop(self):
        with running() as svc:
            client = ServiceClient(svc.url, timeout_s=10)
            assert client.health()["status"] == "ok"
        # The idle kept-alive connection ended with the service, so the
        # next call finds nothing listening instead of a stale handler.
        with client, pytest.raises(ConnectionRefusedError):
            client.health()


class TestCli:
    def test_an_unreachable_daemon_is_one_error_line(self, capsys):
        url = f"http://127.0.0.1:{closed_port()}"
        assert client_main(["--url", url, "health"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"hiss client: error: {url}: ") and err.count("\n") == 1
        assert "Connection refused" in err
