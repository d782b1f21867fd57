"""The HTTP front end: v1 endpoint semantics (envelopes, body parsing,
status mapping, closure), admission control, shard failover, and cache
affinity."""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request

import pytest

from tests.conftest import build_net
from repro.client import MerlinClient, RetryPolicy
from repro.core.config import MerlinConfig
from repro.loadgen import (
    WorkloadSpec,
    check_equivalence,
    compare_signature_maps,
    generate_workload,
    run_workload,
)
from repro.net import net_to_dict
from repro.resilience.errors import MerlinInputError
from repro.resilience.faults import FaultPlan, FaultSpec, use_fault_plan
from repro.routing.export import tree_from_dict, tree_signature
from repro.routing.validate import validate_tree
from repro.serve import AsyncShardedServer, build_shard_services
from repro.serve.embedded import EmbeddedAsyncServer
from repro.service import OptimizationService, ResultCache
from repro.service.protocol import MAX_BODY_BYTES
from repro.tech.technology import default_technology

TECH = default_technology()
CONFIG = MerlinConfig.test_preset()

SERVICE_KWARGS = dict(tech=TECH, config=CONFIG, workers=1)


@pytest.fixture()
def server():
    with EmbeddedAsyncServer(shards=2, **SERVICE_KWARGS) as embedded:
        client = MerlinClient(embedded.base_url,
                              retry=RetryPolicy(max_attempts=1))
        assert client.wait_healthy(timeout_s=10)
        yield embedded


@pytest.fixture()
def single():
    """One shard over a caller-owned service, for per-service stats."""
    service = OptimizationService(cache=ResultCache(), **SERVICE_KWARGS)
    try:
        with EmbeddedAsyncServer(services=[service]) as embedded:
            yield embedded
    finally:
        service.close()


def _no_retry_client(server):
    return MerlinClient(server.base_url,
                        retry=RetryPolicy(max_attempts=1))


def _post_raw(url, raw):
    """POST raw bytes (the client only sends JSON it encoded itself)."""
    request = urllib.request.Request(
        url, data=raw, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), \
                dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


ENVELOPE_KEYS = {"api_version", "request_id", "result", "error",
                 "degraded", "timing_ms"}


def _assert_envelope(body):
    assert set(body) == ENVELOPE_KEYS
    assert body["api_version"] == "v1"
    assert isinstance(body["request_id"], str) and body["request_id"]
    assert isinstance(body["timing_ms"], (int, float))
    assert (body["result"] is None) != (body["error"] is None)


def test_v1_optimize_round_trip_and_envelope(server):
    client = _no_retry_client(server)
    net = build_net(3, seed=31)
    response = client.request("POST", "/v1/optimize",
                              {"net": net_to_dict(net), "timeout_s": 30})
    assert response.status == 200 and response.ok
    body = response.body
    _assert_envelope(body)
    assert body["error"] is None and body["degraded"] is False
    assert body["result"]["ok"] and not body["result"]["cached"]
    tree = tree_from_dict(body["result"]["tree"], net, TECH.buffers)
    validate_tree(tree)
    assert tree_signature(tree) == body["result"]["tree_signature"]


def test_second_post_is_a_cache_hit_with_identical_signature(single):
    client = _no_retry_client(single)
    net = build_net(3, seed=12)
    cold = client.optimize(net)
    warm = client.optimize(net)
    assert warm["cached"] is True
    assert warm["tree_signature"] == cold["tree_signature"]
    assert warm["tree"] == cold["tree"]

    (shard,) = client.stats()["shards"]
    assert shard["cache"]["hits"] == 1
    assert shard["cache"]["misses"] == 1
    assert shard["counters"]["service.cache.hits"] == 1
    assert shard["execution_mode"] == "serial"
    assert shard["workers"] == 1


def test_bare_net_payload_is_accepted(server):
    client = _no_retry_client(server)
    response = client.request("POST", "/v1/optimize",
                              net_to_dict(build_net(2, seed=13)))
    assert response.status == 200 and response.result["ok"]


def test_equivalent_requests_share_one_shard_cache(server):
    client = _no_retry_client(server)
    net = build_net(4, seed=32)
    cold = client.optimize(net)
    assert cold["cached"] is False
    # A renamed twin must route to the same shard and hit its LRU.
    twin = net_to_dict(net)
    twin["name"] = "disguised"
    twin["sinks"] = [{**s, "name": f"zz{i}"}
                     for i, s in enumerate(twin["sinks"])]
    warm = client.optimize(twin)
    assert warm["cached"] is True
    assert warm["tree_signature"] == cold["tree_signature"]


def test_probes_bypass_admission_and_stats_reports_the_tier(server):
    client = _no_retry_client(server)
    health = client.request("GET", "/v1/healthz")
    assert health.status == 200
    _assert_envelope(health.body)
    assert health.result["status"] == "ok"
    response = client.request("GET", "/v1/stats")
    assert response.status == 200
    _assert_envelope(response.body)
    stats = response.result
    assert stats["mode"] == "async-sharded"
    assert stats["shard_count"] == 2
    assert stats["queue_limit"] > 0
    assert len(stats["shards"]) == 2
    assert all("cache" in shard for shard in stats["shards"])


_GOOD_NET = net_to_dict(build_net(2, seed=18))


def test_bad_inputs_produce_the_v1_error_envelope(server):
    client = _no_retry_client(server)
    bad_timeout = ("MerlinInputError", "merlin_input", "timeout_s")
    for body, (kind, code, message) in (
        ({"net": {"name": "broken"}},
         ("MalformedNetError", "malformed_net", "invalid net payload")),
        ({"net": _GOOD_NET, "timeout_s": "abc"}, bad_timeout),
        ({"net": _GOOD_NET, "timeout_s": -1}, bad_timeout),
        ({"net": _GOOD_NET, "timeout_s": 0}, bad_timeout),
        ({"net": _GOOD_NET, "timeout_s": True}, bad_timeout),
        ({"net": _GOOD_NET, "timeout_s": [5]}, bad_timeout),
    ):
        response = client.request("POST", "/v1/optimize", body)
        assert response.status == 400, body
        _assert_envelope(response.body)
        error = response.error
        assert set(error) == {"category", "code", "message", "detail"}
        assert error["code"] == code
        assert error["detail"]["kind"] == kind
        assert message in error["message"]
        record = response.error_record()
        assert record is not None and record.category == "input"


def _raw_exchange(server, request):
    """Send raw request bytes; return (status, envelope) of the reply."""
    with socket.create_connection(("127.0.0.1", server.server.port),
                                  timeout=30) as sock:
        sock.sendall(request)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    head, _, blob = reply.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head else None
    return status, (json.loads(blob) if blob else None)


@pytest.mark.parametrize("request_bytes, message", [
    (b"POST /v1/optimize HTTP/1.1\r\nX-Padding: " + b"a" * 70_000
     + b"\r\n\r\n", "line exceeds"),
    (b"POST /v1/optimize HTTP/1.1\r\nContent-Length: "
     + str(MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n", "body exceeds"),
], ids=["header-line-over-limit", "content-length-over-limit"])
def test_oversized_transport_input_is_a_v1_400(server, request_bytes,
                                               message):
    status, body = _raw_exchange(server, request_bytes)
    assert status == 400
    _assert_envelope(body)
    assert body["error"]["category"] == "input"
    assert body["error"]["detail"]["stage"] == "http"
    assert message in body["error"]["message"]
    # The connection handler survived: the next request is served.
    assert _no_retry_client(server).healthz() is True


def test_unparseable_bodies_are_400(server):
    url = f"{server.base_url}/v1/optimize"
    for raw, message in ((b"{not json", "not valid JSON"),
                         (b"", "empty request body")):
        status, body, _ = _post_raw(url, raw)
        assert status == 400
        _assert_envelope(body)
        assert body["error"]["category"] == "input"
        assert message in body["error"]["message"]


def test_input_errors_are_400_with_a_field_precise_detail(server):
    client = _no_retry_client(server)
    net_payload = net_to_dict(build_net(3, seed=15))
    del net_payload["sinks"][1]["load"]
    response = client.request("POST", "/v1/optimize", {"net": net_payload})
    assert response.status == 400
    error = response.error
    assert "invalid net payload" in error["message"]
    assert error["category"] == "input"
    assert "sink #1" in error["detail"]["message"]
    assert "'load'" in error["detail"]["message"]


def test_unknown_paths_answer_the_envelope_404(server):
    client = _no_retry_client(server)
    response = client.request("GET", "/nowhere")
    assert response.status == 404
    _assert_envelope(response.body)
    assert response.error["code"] == "unknown_path"
    assert response.error["category"] == "input"
    assert "/nowhere" in response.error["message"]
    response = client.request("GET", "/v1/optimize")  # wrong method
    assert response.status == 404
    # The unversioned pre-v1 paths are unknown paths like any other.
    net = {"net": net_to_dict(build_net(3, seed=33))}
    for method, path, payload in (("POST", "/optimize", net),
                                  ("GET", "/healthz", None)):
        response = client.request(method, path, payload)
        assert response.status == 404
        assert response.error["code"] == "unknown_path"


def test_every_response_is_json_content_type(server):
    client = _no_retry_client(server)
    net = {"net": net_to_dict(build_net(2, seed=14))}
    for response in (
        client.request("GET", "/v1/healthz"),
        client.request("GET", "/v1/stats"),
        client.request("POST", "/v1/optimize", net),
        client.request("POST", "/v1/optimize", {"net": {}}),
        client.request("GET", "/nope"),
    ):
        assert response.headers["Content-Type"] == "application/json"
        assert int(response.headers["Content-Length"]) > 0


# ----------------------------------------------------------------------
# Error-taxonomy status mapping on a failing or degrading service
# ----------------------------------------------------------------------

def _resource_error_runner(job):
    from repro.resilience.errors import PoolUnavailableError

    raise PoolUnavailableError("pool exhausted", stage="pool")


def _internal_error_runner(job):
    from repro.resilience.errors import MerlinInternalError

    raise MerlinInternalError("invariant violated", stage="engine")


def _optimize_once(service, seed):
    try:
        with EmbeddedAsyncServer(services=[service]) as embedded:
            return _no_retry_client(embedded).request(
                "POST", "/v1/optimize",
                {"net": net_to_dict(build_net(3, seed=seed))})
    finally:
        service.close()


def _response_for_runner(runner, monkeypatch):
    from repro.service import engine as engine_mod

    monkeypatch.setattr(engine_mod, "_JOB_RUNNER", runner)
    service = OptimizationService(cache=ResultCache(), **SERVICE_KWARGS)
    return _optimize_once(service, seed=16)


def test_resource_errors_are_503(monkeypatch):
    response = _response_for_runner(_resource_error_runner, monkeypatch)
    assert response.status == 503
    _assert_envelope(response.body)
    assert response.error["category"] == "resource"
    assert response.error["detail"]["kind"] == "PoolUnavailableError"


def test_internal_errors_are_500(monkeypatch):
    response = _response_for_runner(_internal_error_runner, monkeypatch)
    assert response.status == 500
    _assert_envelope(response.body)
    assert response.error["category"] == "internal"


def test_degraded_results_are_200_and_carry_the_degradation_detail():
    from repro.baselines.star import buffered_star

    service = OptimizationService(cache=ResultCache(), budget_ops=1,
                                  **SERVICE_KWARGS)
    response = _optimize_once(service, seed=17)
    assert response.status == 200
    _assert_envelope(response.body)
    assert response.body["degraded"] is True
    result = response.result
    assert result["ok"] and result["degraded"]
    assert result["degradation"]["rung"] == "buffered_star"
    assert result["tree_signature"] == tree_signature(
        buffered_star(build_net(3, seed=17), TECH))


# ----------------------------------------------------------------------
# POST /v1/closure
# ----------------------------------------------------------------------

def test_closure_endpoint_runs_a_named_circuit(server):
    client = _no_retry_client(server)
    response = client.request("POST", "/v1/closure",
                              {"circuit": "b9", "order": "criticality",
                               "batch_size": 4})
    assert response.status == 200
    _assert_envelope(response.body)
    body = response.result
    assert body["converged"] is True
    assert body["circuit"] == "b9"
    assert body["policy"] == "criticality"
    assert body["iterations"]
    slacks = [it["worst_slack"] for it in body["iterations"]]
    assert all(slacks[i] <= slacks[i + 1] + 1e-6
               for i in range(len(slacks) - 1))
    assert body["nets_optimized"] == len(body["signatures"])
    assert "trees" not in body  # opt-in via include_trees


def test_closure_endpoint_accepts_an_inline_netlist(server):
    from repro.netlist.generator import CircuitSpec, generate_circuit
    from repro.netlist.io import netlist_to_dict

    spec = CircuitSpec(name="http_inline", primary_inputs=4,
                       primary_outputs=3, logic_gates=10, levels=3,
                       max_fanout=4, seed=7)
    body = _no_retry_client(server).closure(
        {"netlist": netlist_to_dict(generate_circuit(spec)),
         "include_trees": True})
    assert body["circuit"] == "http_inline"
    assert body["converged"] is True
    assert sorted(body["trees"]) == sorted(body["signatures"])


@pytest.mark.parametrize("request_body, message", [
    ({"circuit": "nope"}, "unknown circuit"),
    ({"circuit": "b9", "order": "bogus"}, "unknown ordering policy"),
    ({"circuit": "b9", "target_scale": 2.0}, "target_scale"),
])
def test_closure_endpoint_rejects_bad_requests(server, request_body,
                                               message):
    response = _no_retry_client(server).request(
        "POST", "/v1/closure", request_body)
    assert response.status == 400
    _assert_envelope(response.body)
    assert response.error["category"] == "input"
    assert message in response.error["message"]


def test_admission_fault_forces_429_with_retry_after(server):
    client = _no_retry_client(server)
    net = build_net(3, seed=34)
    plan = FaultPlan(specs=(
        FaultSpec(site="serve.admission", kind="error", times=None),))
    with use_fault_plan(plan):
        response = client.request("POST", "/v1/optimize",
                                  {"net": net_to_dict(net)})
    assert response.status == 429
    assert response.error["code"] == "admission_rejected"
    retry_after = response.headers.get("Retry-After")
    assert retry_after is not None and int(retry_after) >= 1
    # Probes stay green while the gate rejects work.
    with use_fault_plan(plan):
        assert client.healthz() is True
    stats = client.stats()
    assert stats["counters"]["serve.rejected"] >= 1


def test_client_retries_through_a_bounded_admission_fault(server):
    # The fault clears after one hit; a retrying client recovers on the
    # second attempt without caller involvement.
    sleeps = []
    client = MerlinClient(
        server.base_url,
        retry=RetryPolicy(max_attempts=3, sleep=sleeps.append))
    net = build_net(3, seed=35)
    plan = FaultPlan(specs=(
        FaultSpec(site="serve.admission", kind="error", times=1),))
    with use_fault_plan(plan):
        response = client.request("POST", "/v1/optimize",
                                  {"net": net_to_dict(net)})
    assert response.status == 200 and response.retries == 1
    # Retry-After floors the backoff delay at >= 1 s.
    assert len(sleeps) == 1 and sleeps[0] >= 1.0


def test_downed_shard_fails_over_to_the_next_on_the_ring(server):
    client = _no_retry_client(server)
    nets = [build_net(3, seed=40 + i) for i in range(4)]
    plan = FaultPlan(specs=(
        FaultSpec(site="serve.shard", kind="error", times=None,
                  match="0"),))
    with use_fault_plan(plan):
        for net in nets:
            result = client.optimize(net)
            assert result["ok"]
    stats = client.stats()
    counters = stats["counters"]
    # Shard 0 took nothing; every request landed on shard 1, and the
    # requests originally routed to shard 0 were counted as failovers.
    assert counters.get("serve.shard.0.requests", 0) == 0
    assert counters["serve.shard.1.requests"] == len(nets)
    assert counters.get("serve.shard.failovers", 0) >= 1


#: The replay behind the failover proof: twins and repeats, so every
#: equivalence class is answered by several requests.
REPLAY = WorkloadSpec(requests=64, distinct_nets=4, min_sinks=2,
                      max_sinks=3, seed=11, twin_fraction=0.25,
                      repeat_fraction=0.4)


@pytest.fixture(scope="module")
def fault_free_replay():
    workload = generate_workload(REPLAY)
    with EmbeddedAsyncServer(shards=2, **SERVICE_KWARGS) as clean_server:
        clean = run_workload(clean_server.base_url, workload,
                             concurrency=4)
    assert clean.counts()["ok"] == len(workload)
    return workload, clean


@pytest.mark.parametrize("times", [6, None], ids=["burst", "permanent"])
def test_shard_crash_mid_replay_is_invisible(fault_free_replay, times):
    workload, clean = fault_free_replay
    plan = FaultPlan(seed=5, specs=(
        FaultSpec(site="serve.shard", kind="error", match="0",
                  times=times),))
    with EmbeddedAsyncServer(shards=2, **SERVICE_KWARGS) as server:
        with use_fault_plan(plan):
            chaotic = run_workload(server.base_url, workload,
                                   concurrency=4)
        failovers = server.server.stats()["counters"].get(
            "serve.shard.failovers", 0)

    # The fault fired, yet no client saw it: every answer is ok and
    # byte-identical to the fault-free replay (failover shards share the
    # deterministic engine, so which shard answered cannot matter).
    assert failovers >= 1
    counts = chaotic.counts()
    assert counts["ok"] == counts["requests"] == len(workload)
    assert check_equivalence(workload, chaotic) == []
    assert compare_signature_maps(clean.signature_map(),
                                  chaotic.signature_map()) == []
    assert set(clean.signature_map()) == set(chaotic.signature_map())


def test_all_shards_down_is_a_structured_503(server):
    client = _no_retry_client(server)
    net = build_net(3, seed=44)
    plan = FaultPlan(specs=(
        FaultSpec(site="serve.shard", kind="error", times=None),))
    with use_fault_plan(plan):
        response = client.request("POST", "/v1/optimize",
                                  {"net": net_to_dict(net)})
    assert response.status == 503
    assert response.error["code"] == "shard_unavailable"
    assert response.error["category"] == "resource"


def test_mixed_technology_shards_are_refused():
    thin = TECH.with_buffers(TECH.buffers.subset(4))
    services = [
        OptimizationService(tech=TECH, config=CONFIG, workers=1,
                            cache=ResultCache()),
        OptimizationService(tech=thin, config=CONFIG, workers=1,
                            cache=ResultCache()),
    ]
    try:
        with pytest.raises(MerlinInputError, match="one technology"):
            AsyncShardedServer(services)
    finally:
        for service in services:
            service.close()


def test_build_shard_services_gives_each_shard_its_own_cache():
    services = build_shard_services(3, cache_capacity=8, **SERVICE_KWARGS)
    try:
        assert len(services) == 3
        caches = [s.cache for s in services]
        assert all(caches[i] is not caches[j]
                   for i in range(len(caches))
                   for j in range(i + 1, len(caches)))
        fingerprints = {s.tech_fingerprint for s in services}
        assert len(fingerprints) == 1
    finally:
        for service in services:
            service.close()
