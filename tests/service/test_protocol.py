"""The v1 wire protocol: codes, statuses, envelopes, path routing.

These are the schema goldens the front end inherits — it renders
through this module, so pinning the shapes here pins them on the wire.
"""

from __future__ import annotations

import pytest

from repro.resilience.errors import (
    AdmissionRejectedError,
    MerlinInputError,
    UnknownPathError,
)
from repro.service.protocol import (
    API_VERSION,
    MAX_BODY_BYTES,
    EndpointOutcome,
    envelope,
    error_body,
    error_code,
    new_request_id,
    parse_json_bytes,
    split_path,
    status_for,
)


# ----------------------------------------------------------------------
# error codes and status mapping
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind, code", [
    ("MalformedNetError", "malformed_net"),
    ("MerlinInputError", "merlin_input"),
    ("PoolUnavailableError", "pool_unavailable"),
    ("JobTimeoutError", "job_timeout"),
    ("AdmissionRejectedError", "admission_rejected"),
    ("UnknownPathError", "unknown_path"),
    ("ShardUnavailableError", "shard_unavailable"),
])
def test_error_code_is_snake_case_without_suffix(kind, code):
    assert error_code(kind) == code


def test_status_follows_category_with_kind_overrides():
    assert status_for(MerlinInputError("x", stage="t").record) == 400
    assert status_for(
        AdmissionRejectedError("full", stage="t").record) == 429
    assert status_for(UnknownPathError("gone", stage="t").record) == 404


# ----------------------------------------------------------------------
# envelope rendering
# ----------------------------------------------------------------------

def test_success_envelope_golden_shape():
    outcome = EndpointOutcome(200, {"answer": 42})
    body = envelope(outcome, "rid-1", 1.23456)
    assert body == {
        "api_version": API_VERSION,
        "request_id": "rid-1",
        "result": {"answer": 42},
        "error": None,
        "degraded": False,
        "timing_ms": 1.235,
    }


def test_error_envelope_nulls_result_even_when_outcome_kept_one():
    record = MerlinInputError("bad sink", stage="net").record
    # Whatever a handler left in outcome.result, the renderer must null
    # it on failure so result/error stay exclusive.
    outcome = EndpointOutcome(400, {"ok": False}, record)
    body = envelope(outcome, "rid-2", 0.5)
    assert body["result"] is None
    assert body["error"] == error_body(record)
    assert set(body["error"]) == {"category", "code", "message", "detail"}
    assert body["error"]["category"] == "input"
    assert body["error"]["code"] == "merlin_input"
    assert body["error"]["detail"] == record.to_dict()


def test_exactly_one_of_result_and_error_is_non_null():
    ok = envelope(EndpointOutcome(200, {"x": 1}), "r", 0.0)
    bad = envelope(EndpointOutcome(
        400, None, MerlinInputError("no", stage="t").record), "r", 0.0)
    assert (ok["result"] is None) != (ok["error"] is None)
    assert (bad["result"] is None) != (bad["error"] is None)


# ----------------------------------------------------------------------
# path classification
# ----------------------------------------------------------------------

def test_split_path_serves_only_the_v1_endpoints():
    assert split_path("/v1/optimize") == "optimize"
    assert split_path("/v1/healthz") == "healthz"
    assert split_path("/v1/nope") is None
    for path in ("/optimize", "/closure", "/stats", "/healthz",
                 "/nowhere"):
        assert split_path(path) is None


# ----------------------------------------------------------------------
# body parsing
# ----------------------------------------------------------------------

def test_parse_json_bytes_accepts_json_and_names_each_rejection():
    assert parse_json_bytes(b'{"a": 1}') == {"a": 1}
    with pytest.raises(MerlinInputError, match="empty request body"):
        parse_json_bytes(b"")
    with pytest.raises(MerlinInputError, match="exceeds"):
        parse_json_bytes(b"x" * (MAX_BODY_BYTES + 1))
    with pytest.raises(MerlinInputError, match="not valid JSON"):
        parse_json_bytes(b"{broken")


def test_request_ids_are_unique_and_process_tagged():
    import os

    ids = {new_request_id() for _ in range(64)}
    assert len(ids) == 64
    assert all(rid.startswith(f"{os.getpid():x}-") for rid in ids)
