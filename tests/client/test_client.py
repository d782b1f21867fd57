"""MerlinClient: retry schedules, Retry-After handling, typed errors.

The retry tests run against a scripted stdlib server that answers from
a canned response list — no engine, no sleeping (the policy's ``sleep``
is injected), so the schedule itself is what gets asserted.
"""

from __future__ import annotations

import json
import random
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.client import (
    ClientResponse,
    ClientTransportError,
    MerlinClient,
    RetryPolicy,
)
from repro.resilience.errors import (
    MerlinError,
    MerlinInputError,
    MerlinResourceError,
    UnknownPathError,
)


# ----------------------------------------------------------------------
# backoff policy
# ----------------------------------------------------------------------

def test_delay_schedule_is_seeded_and_replayable():
    policy = RetryPolicy(seed=7)
    a = [policy.delay_s(i, random.Random(7)) for i in range(1, 5)]
    b = [policy.delay_s(i, random.Random(7)) for i in range(1, 5)]
    assert a == b


def test_delay_ceiling_grows_exponentially_then_caps():
    policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.4)
    rng = random.Random(1)
    for attempt, ceiling in ((1, 0.1), (2, 0.2), (3, 0.4), (4, 0.4),
                             (10, 0.4)):
        draws = [policy.delay_s(attempt, rng) for _ in range(50)]
        assert all(0.0 <= d <= ceiling for d in draws)


def test_retry_after_floors_the_jittered_delay():
    policy = RetryPolicy(base_delay_s=0.01, max_delay_s=0.05)
    rng = random.Random(3)
    assert all(policy.delay_s(1, rng, retry_after_s=2.5) >= 2.5
               for _ in range(20))


# ----------------------------------------------------------------------
# response decoding
# ----------------------------------------------------------------------

def _envelope(error=None, result=None):
    return {"api_version": "v1", "request_id": "r-1", "result": result,
            "error": error, "degraded": False, "timing_ms": 0.1}


def test_error_record_reads_the_envelope_detail():
    record = MerlinInputError("bad", stage="net").record
    response = ClientResponse(400, _envelope(error={
        "category": "input", "code": "merlin_input", "message": "bad",
        "detail": record.to_dict()}), headers={})
    rebuilt = response.error_record()
    assert rebuilt == record
    with pytest.raises(MerlinInputError, match="bad"):
        response.raise_for_error()


def test_error_record_needs_the_envelope_detail():
    # A bare pre-v1 style body carries no envelope error: no record, and
    # raise_for_error falls back to a plain MerlinError.
    record = UnknownPathError("gone", stage="http").record
    response = ClientResponse(
        404, {"error": "gone", "error_detail": record.to_dict()},
        headers={})
    assert response.error_record() is None
    assert not response.ok
    with pytest.raises(MerlinError, match="HTTP 404"):
        response.raise_for_error()


def test_ok_requires_2xx_and_a_null_error():
    assert ClientResponse(200, _envelope(result={}), {}).ok
    assert not ClientResponse(200, _envelope(error={"code": "x"}), {}).ok
    assert not ClientResponse(503, _envelope(result={}), {}).ok


# ----------------------------------------------------------------------
# the retry loop, against a scripted server
# ----------------------------------------------------------------------

class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers from the server's ``script`` list, one entry per request:
    ``(status, headers_dict, body_dict)``.  Repeats the last entry when
    the script runs out."""

    def _answer(self) -> None:
        server = self.server
        entry = server.script[min(server.served, len(server.script) - 1)]
        server.served += 1
        status, headers, body = entry
        blob = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(blob)

    def do_GET(self):  # noqa: N802 (stdlib casing)
        self._answer()

    def do_POST(self):  # noqa: N802 (stdlib casing)
        self._answer()

    def log_message(self, fmt, *args):  # quiet
        pass


class _scripted_server:
    def __init__(self, script):
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0),
                                         _ScriptedHandler)
        self.httpd.script = script
        self.httpd.served = 0
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc_info):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5)

    @property
    def url(self):
        return f"http://127.0.0.1:{self.httpd.server_port}"

    @property
    def served(self):
        return self.httpd.served


def _client(url, sleeps, **kwargs):
    policy = RetryPolicy(sleep=sleeps.append, **kwargs)
    return MerlinClient(url, timeout_s=5, retry=policy)


def test_503_then_200_is_retried_once():
    script = [(503, {}, _envelope(error={"code": "pool_unavailable"})),
              (200, {}, _envelope(result={"ok": True}))]
    sleeps = []
    with _scripted_server(script) as server:
        response = _client(server.url, sleeps).request("GET", "/v1/stats")
        assert server.served == 2
    assert response.status == 200 and response.retries == 1
    assert len(sleeps) == 1


def test_429_retry_honors_the_servers_retry_after():
    script = [(429, {"Retry-After": "7"},
               _envelope(error={"code": "admission_rejected"})),
              (200, {}, _envelope(result={"ok": True}))]
    sleeps = []
    with _scripted_server(script) as server:
        response = _client(server.url, sleeps).request(
            "POST", "/v1/optimize", {"net": {}})
    assert response.status == 200 and response.retries == 1
    assert sleeps == [pytest.approx(7.0, abs=0.05)] or sleeps[0] >= 7.0


def test_400_is_returned_immediately_without_retry():
    script = [(400, {}, _envelope(error={"code": "malformed_net"}))]
    sleeps = []
    with _scripted_server(script) as server:
        response = _client(server.url, sleeps).request(
            "POST", "/v1/optimize", {"net": {}})
        assert server.served == 1
    assert response.status == 400 and response.retries == 0
    assert sleeps == []


def test_exhausted_retries_return_the_last_rejection():
    script = [(429, {"Retry-After": "1"},
               _envelope(error={"code": "admission_rejected"}))]
    sleeps = []
    with _scripted_server(script) as server:
        response = _client(server.url, sleeps,
                           max_attempts=3).request("GET", "/v1/stats")
        assert server.served == 3
    assert response.status == 429 and response.retries == 2
    assert len(sleeps) == 2  # no sleep after the final attempt


def test_unreachable_server_raises_transport_error():
    # Grab a port and close it so nothing listens there.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    sleeps = []
    client = _client(f"http://127.0.0.1:{port}", sleeps, max_attempts=2)
    with pytest.raises(ClientTransportError, match="after 2 attempts"):
        client.request("GET", "/v1/healthz")
    assert len(sleeps) == 1


def test_transport_error_is_a_resource_category():
    assert issubclass(ClientTransportError, MerlinResourceError)


def test_healthz_is_false_when_nothing_listens():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    client = MerlinClient(f"http://127.0.0.1:{port}",
                          retry=RetryPolicy(max_attempts=1))
    assert client.healthz() is False
