"""Graceful drain of the front end, plus the SIGTERM path end to end.

The drain contract: new work answers **503 + Retry-After** with the
``server_draining`` code, probes keep answering, in-flight requests run
to completion, and memory-tier cache entries the disk tier has not seen
are flushed before the listener closes.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

from tests.conftest import build_net
from repro.client import MerlinClient, RetryPolicy
from repro.core.config import MerlinConfig
from repro.net import net_to_dict
from repro.serve.embedded import EmbeddedAsyncServer
from repro.service import OptimizationService, ResultCache
from repro.tech.technology import default_technology

TECH = default_technology()
CONFIG = MerlinConfig.test_preset()
SERVICE_KWARGS = dict(tech=TECH, config=CONFIG, workers=1)


def _client(server):
    client = MerlinClient(server.base_url,
                          retry=RetryPolicy(max_attempts=1))
    assert client.wait_healthy(timeout_s=10)
    return client


def _post_net(client, seed):
    return client.request("POST", "/v1/optimize",
                          {"net": net_to_dict(build_net(3, seed=seed))})


def test_drain_refuses_then_flushes_and_stops(tmp_path):
    disk = str(tmp_path / "cache")
    with EmbeddedAsyncServer(cache=ResultCache(disk_dir=disk),
                             **SERVICE_KWARGS) as server:
        client = _client(server)
        assert _post_net(client, seed=83).status == 200
        for name in os.listdir(disk):
            if name.endswith(".json"):
                os.unlink(os.path.join(disk, name))

        # Flip the gate by hand first: the refusal path must answer
        # while the listener is still up.
        server.server._draining = True
        refused = _post_net(client, seed=84)
        assert refused.status == 503
        assert refused.error["code"] == "server_draining"
        assert int(refused.headers.get("Retry-After", 0)) >= 1
        health = client.request("GET", "/v1/healthz").result
        assert health["status"] == "draining"
        assert client.stats()["counters"]["serve.drain.refusals"] >= 1

        report = server.drain(timeout_s=5.0)
        assert report["drained"] is True and report["in_flight"] == 0
        assert report["flushed"] == 1  # re-persisted from the LRU

        # The listener is gone: probes now fail at the transport layer.
        assert client.healthz() is False


def test_drain_waits_for_in_flight_requests():
    # Gate the compute on an event so the request is *provably* in
    # flight when the drain starts — no timing poll, no flake.
    service = OptimizationService(**SERVICE_KWARGS)
    entered, release = threading.Event(), threading.Event()
    original = service.optimize

    def gated(net, **kwargs):
        entered.set()
        assert release.wait(timeout=60)
        return original(net, **kwargs)

    service.optimize = gated
    with EmbeddedAsyncServer(service=service) as server:
        client = _client(server)
        outcome = {}

        def slow_request():
            outcome["response"] = _post_net(client, seed=82)

        worker = threading.Thread(target=slow_request)
        worker.start()
        assert entered.wait(timeout=30)  # admitted, inside the handler

        drain_box = {}
        drainer = threading.Thread(
            target=lambda: drain_box.update(server.drain(timeout_s=60.0)))
        drainer.start()
        # The drain is now waiting on the gated request, not cutting it
        # off; release the compute and everything unwinds.
        deadline = time.monotonic() + 10.0
        while not server.server.draining and time.monotonic() < deadline:
            time.sleep(0.005)
        release.set()
        drainer.join(timeout=60)
        worker.join(timeout=60)

        assert not drainer.is_alive() and not worker.is_alive()
        assert drain_box["drained"] is True
        assert outcome["response"].status == 200  # finished, not cut off
    service.close()


# ----------------------------------------------------------------------
# SIGTERM end to end (the CLI's blocking entry point)
# ----------------------------------------------------------------------

def test_sigterm_drains_the_cli_server():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
         "--port", "0", "--preset", "test", "--workers", "1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    try:
        # A host that cannot build the compiled curve kernel warns on
        # stderr before the banner.
        banner = ""
        for _ in range(10):
            banner += proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            if match:
                break
        assert match, f"no listen banner: {banner!r}"
        client = MerlinClient(f"http://127.0.0.1:{match.group(1)}",
                              retry=RetryPolicy(max_attempts=1))
        assert client.wait_healthy(timeout_s=30)
        assert client.stats()["mode"] == "async-sharded"
        assert _post_net(client, seed=85).status == 200

        proc.send_signal(signal.SIGTERM)
        remainder = proc.stdout.read()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup
            proc.kill()
            proc.wait()
    assert "drained:" in remainder  # the drain report was printed
    assert proc.returncode == 0
