"""The versioned v1 service protocol.

This module is the single definition of the service's wire surface: the
async front end (:mod:`repro.serve`) parses requests, runs the
work-bearing endpoints, and renders bodies through the functions here,
and the v1 schema tests pin *this* module.

**The v1 envelope.**  Every ``/v1/*`` response is one JSON object::

    {
      "api_version": "v1",
      "request_id":  "<per-process unique id>",
      "result":      {...} | null,     # endpoint payload on success
      "error":       {...} | null,     # uniform error body on failure
      "degraded":    false,            # degradation-ladder fallback?
      "timing_ms":   1.234             # server-side handling time
    }

Exactly one of ``result``/``error`` is non-null.  The error body is a
uniform projection of the :mod:`repro.resilience.errors` taxonomy::

    {"category": "input",           # input | resource | internal
     "code":     "malformed_net",   # snake_case of the MerlinError kind
     "message":  "...",
     "detail":   {kind, category, stage, message, degraded}}

Status codes follow the category — **400** input, **503** resource,
**500** internal — with two kind-specific overrides: a full admission
queue (``admission_rejected``) is **429** + ``Retry-After``, and an
unknown path (``unknown_path``) is **404**, also carried in the v1
envelope so clients never see an unstructured error.  That includes the
unversioned pre-v1 paths (``/optimize`` and friends).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from repro.instrument import names as metric
from repro.net import net_from_dict
from repro.resilience.errors import (
    ErrorRecord,
    FaultInjected,
    MerlinInputError,
    UnknownPathError,
    classify,
)
from repro.resilience.faults import fault_point

#: The one supported API version; bump only with a new path prefix.
API_VERSION = "v1"

#: Path prefix of the versioned surface.
V1_PREFIX = f"/{API_VERSION}/"

#: Endpoints of the v1 surface, by (method, name).
ENDPOINTS = {
    ("POST", "optimize"),
    ("POST", "closure"),
    ("GET", "stats"),
    ("GET", "healthz"),
}

#: Request bodies above this size are rejected outright (a net of tens of
#: thousands of sinks is far beyond what the DP can serve anyway).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: HTTP status per error-taxonomy category: the client's fault is 400,
#: a transient capacity problem (timeout, dead pool, exhausted budget
#: that could not even degrade) is 503 retry-later, everything else is
#: an honest 500.
STATUS_BY_CATEGORY = {
    "input": 400,
    "resource": 503,
    "internal": 500,
}

#: Kind-specific status overrides (checked before the category map).
STATUS_BY_KIND = {
    "AdmissionRejectedError": 429,
    "UnknownPathError": 404,
}

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")

_request_counter = itertools.count(1)
_request_counter_lock = threading.Lock()


def new_request_id() -> str:
    """A process-unique request id (pid + monotone counter, no RNG —
    replayable logs stay diffable across identical runs)."""
    with _request_counter_lock:
        serial = next(_request_counter)
    return f"{os.getpid():x}-{serial:08x}"


def error_code(kind: str) -> str:
    """The wire ``code`` of a taxonomy kind: snake_case, no ``_error``
    suffix (``MalformedNetError`` -> ``malformed_net``)."""
    code = _CAMEL_BOUNDARY.sub("_", kind).lower()
    if code.endswith("_error"):
        code = code[: -len("_error")]
    return code


def status_for(record: ErrorRecord) -> int:
    """HTTP status of a failure record (kind override, else category)."""
    return STATUS_BY_KIND.get(
        record.kind, STATUS_BY_CATEGORY.get(record.category, 500))


def error_body(record: ErrorRecord) -> Dict[str, Any]:
    """The uniform v1 error object for one failure record."""
    return {
        "category": record.category,
        "code": error_code(record.kind),
        "message": record.message,
        "detail": record.to_dict(),
    }


@dataclass
class EndpointOutcome:
    """What one endpoint handler produced, before rendering.

    ``result`` is the envelope's ``result`` payload and ``error`` the
    structured failure record; the renderer nulls ``result`` whenever
    ``error`` is set, so the two stay exclusive on the wire.
    """

    status: int
    result: Optional[Dict[str, Any]]
    error: Optional[ErrorRecord] = None
    degraded: bool = False
    #: When set, front ends emit a ``Retry-After: <seconds>`` header.
    retry_after_s: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def envelope(outcome: EndpointOutcome, request_id: str,
             timing_ms: float) -> Dict[str, Any]:
    """Render an outcome as the v1 response envelope."""
    return {
        "api_version": API_VERSION,
        "request_id": request_id,
        "result": outcome.result if outcome.error is None else None,
        "error": (None if outcome.error is None
                  else error_body(outcome.error)),
        "degraded": outcome.degraded,
        "timing_ms": round(timing_ms, 3),
    }


def split_path(path: str) -> Optional[str]:
    """The endpoint name a request path addresses, or None for paths
    the v1 surface does not serve (the method check is the caller's)."""
    if not path.startswith(V1_PREFIX):
        return None
    name = path[len(V1_PREFIX):]
    return name if name in {endpoint for _, endpoint in ENDPOINTS} \
        else None


def parse_json_bytes(raw: bytes) -> Any:
    """Decode a request body; raises :class:`MerlinInputError` with the
    historical messages on empty/oversized/non-JSON input."""
    if not raw:
        raise MerlinInputError("empty request body (expected net JSON)",
                               stage="http")
    if len(raw) > MAX_BODY_BYTES:
        raise MerlinInputError(
            f"request body exceeds {MAX_BODY_BYTES} bytes", stage="http")
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MerlinInputError(
            f"request body is not valid JSON: {exc}", stage="http")


def _prefixed(record: ErrorRecord, prefix: str) -> ErrorRecord:
    return replace(record, message=f"{prefix}: {record.message}")


# -- work-bearing endpoint handlers (blocking; called from the async ----
# -- front end's handler threads) ---------------------------------------


def handle_optimize(service: Any, body: Any,
                    path: str = "/v1/optimize") -> EndpointOutcome:
    """``POST optimize``: one net (plus an optional ``timeout_s``)
    through the shared service."""
    service._record(metric.service_endpoint_requests("optimize"))
    try:
        fault_point("service.http", key=path)
    except FaultInjected as exc:
        service._record(metric.SERVICE_ERRORS)
        return EndpointOutcome(500, None, exc.record)
    try:
        net_data = body.get("net", body) if isinstance(body, dict) else body
        net = net_from_dict(net_data)
    except (ValueError, TypeError, AttributeError) as exc:
        # MalformedNetError carries the offending field in its message;
        # surface it verbatim so clients can fix the input.
        service._record(metric.SERVICE_ERRORS)
        return EndpointOutcome(
            400, None,
            _prefixed(classify(exc, stage="net"), "invalid net payload"))
    timeout_s = body.get("timeout_s") if isinstance(body, dict) else None
    if timeout_s is not None and (
            isinstance(timeout_s, bool)
            or not isinstance(timeout_s, (int, float))
            or not 0 < timeout_s < math.inf):
        service._record(metric.SERVICE_ERRORS)
        return EndpointOutcome(400, None, MerlinInputError(
            "timeout_s must be null or a finite number > 0, got "
            f"{timeout_s!r}", stage="http").record)
    result = service.optimize(net, timeout_s=timeout_s)
    if result.ok:
        return EndpointOutcome(200, result.to_dict(),
                               degraded=result.degraded)
    record = result.error_record
    return EndpointOutcome(status_for(record), None, record)


def handle_closure(service: Any, body: Any,
                   path: str = "/v1/closure") -> EndpointOutcome:
    """``POST closure``: full-netlist timing closure through the shared
    service.

    The pipeline import is deferred to request time — ``pipeline`` and
    ``service`` share a layer, and the lazy edge keeps the protocol
    module importable without dragging the whole closure stack in.
    """
    from repro.pipeline import ClosureConfig, run_closure

    service._record(metric.service_endpoint_requests("closure"))
    try:
        fault_point("service.http", key=path)
    except FaultInjected as exc:
        service._record(metric.SERVICE_ERRORS)
        return EndpointOutcome(500, None, exc.record)
    try:
        if not isinstance(body, dict):
            raise MerlinInputError(
                "closure request body must be a JSON object", stage="http")
        netlist = _closure_netlist(body)
        closure = ClosureConfig(
            order=str(body.get("order", "criticality")),
            min_sinks=int(body.get("min_sinks", 2)),
            target_scale=float(body.get("target_scale", 0.88)),
            batch_size=(None if body.get("batch_size") is None
                        else int(body["batch_size"])),
            max_iterations=int(body.get("max_iterations", 10)),
        )
    except (ValueError, TypeError, KeyError) as exc:
        service._record(metric.SERVICE_ERRORS)
        return EndpointOutcome(
            400, None,
            _prefixed(classify(exc, stage="http"),
                      "invalid closure request"))
    try:
        result = run_closure(netlist, closure=closure, service=service)
    except MerlinInputError as exc:
        service._record(metric.SERVICE_ERRORS)
        return EndpointOutcome(400, None, classify(exc, stage="pipeline"))
    except Exception as exc:  # noqa: BLE001 — honest 500, not a hang
        service._record(metric.SERVICE_ERRORS)
        return EndpointOutcome(
            500, None,
            _prefixed(classify(exc, stage="pipeline"), "closure failed"))
    return EndpointOutcome(200, result.to_dict(
        include_trees=bool(body.get("include_trees", False))))


def handle_unknown(path: str, method: str = "GET") -> EndpointOutcome:
    """Any path/method combination no surface serves: a 404 that still
    speaks the uniform v1 error envelope."""
    record = UnknownPathError(
        f"unknown path {path!r} for {method}", stage="http").record
    return EndpointOutcome(404, None, record)


def _closure_netlist(body: Dict[str, Any]):
    """Resolve a closure request body to a placed-ready ``Netlist``."""
    from repro.experiments.circuits import resolve_circuit_spec
    from repro.netlist.generator import generate_circuit
    from repro.netlist.io import netlist_from_dict

    if isinstance(body.get("netlist"), dict):
        return netlist_from_dict(body["netlist"])
    circuit = body.get("circuit")
    if not isinstance(circuit, str) or not circuit:
        raise MerlinInputError(
            "closure request needs a 'circuit' name/shape or an inline "
            "'netlist' object", stage="http")
    seed = int(body.get("seed", 1999))
    return generate_circuit(resolve_circuit_spec(circuit, seed))


def timing_ms_since(started_perf_counter: float) -> float:
    """Milliseconds elapsed since a ``time.perf_counter()`` mark."""
    return (time.perf_counter() - started_perf_counter) * 1000.0
