""":class:`MerlinClient` — the typed v1 API client (stdlib only).

Retry semantics: a request is retried only when retrying can plausibly
change the answer — HTTP **429** (queue full; the server names a
``Retry-After``) , **503** (transient resource exhaustion), and
transport-level failures (connection refused/reset while a server
restarts).  Input errors (4xx other than 429) and internal errors (500)
are *not* retried: the same request would fail the same way, and
hammering a broken server helps nobody.

Backoff between attempts is exponential with full jitter, drawn from a
**seeded** ``random.Random`` (the repo-wide determinism rule: replayed
load runs sleep the same schedule).  A server-provided ``Retry-After``
floors the computed delay — the server knows its queue better than the
client's guess.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Union

from repro.net import Net, net_to_dict
from repro.resilience.errors import (
    ErrorRecord,
    MerlinError,
    MerlinResourceError,
    error_from_record,
)

#: Statuses worth retrying (see module docstring).
RETRYABLE_STATUSES = (429, 503)


class ClientTransportError(MerlinResourceError):
    """The server could not be reached (or retries ran out trying)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded jittered exponential backoff.

    ``sleep`` is injectable so tests assert the schedule without
    actually sleeping.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    seed: int = 1999
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def delay_s(self, attempt: int, rng: random.Random,
                retry_after_s: Optional[float] = None) -> float:
        """Delay before retry number ``attempt`` (1-based): full-jitter
        exponential backoff, floored by the server's ``Retry-After``."""
        ceiling = min(self.max_delay_s,
                      self.base_delay_s * (2 ** (attempt - 1)))
        delay = rng.uniform(0.0, ceiling)
        if retry_after_s is not None:
            delay = max(delay, retry_after_s)
        return delay


@dataclass
class ClientResponse:
    """One decoded v1 response."""

    status: int
    body: Dict[str, Any]
    headers: Dict[str, str]
    #: Retries performed before this answer arrived (0 = first try).
    retries: int = 0

    @property
    def result(self) -> Optional[Dict[str, Any]]:
        return self.body.get("result")

    @property
    def error(self) -> Optional[Dict[str, Any]]:
        return self.body.get("error")

    @property
    def request_id(self) -> Optional[str]:
        return self.body.get("request_id")

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300 and self.error is None

    def error_record(self) -> Optional[ErrorRecord]:
        """The structured failure, rebuilt from the envelope."""
        error = self.body.get("error")
        if isinstance(error, dict) and isinstance(error.get("detail"), dict):
            return ErrorRecord.from_dict(error["detail"])
        return None

    def raise_for_error(self) -> None:
        """Raise the typed taxonomy error this response carries, if any."""
        if self.ok:
            return
        record = self.error_record()
        if record is not None:
            raise error_from_record(record)
        raise MerlinError(f"HTTP {self.status}: {self.body!r}",
                          stage="client")


class MerlinClient:
    """Talk v1 to a MERLIN front end at ``base_url``.

    The client is stateless apart from its RNG, so one instance may be
    shared across threads for *distinct* requests; the load harness
    gives each worker its own (seeded) client so replayed schedules
    stay per-worker deterministic.
    """

    def __init__(self, base_url: str,
                 timeout_s: float = 60.0,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self._rng = random.Random(self.retry.seed)

    # -- endpoint methods ----------------------------------------------

    def optimize(self, net: Union[Net, Mapping[str, Any]],
                 timeout_s: Optional[float] = None) -> Dict[str, Any]:
        """Optimize one net; returns the result payload (tree, signature,
        evaluation, ``cached``) or raises the typed taxonomy error."""
        payload: Dict[str, Any] = {
            "net": net_to_dict(net) if isinstance(net, Net) else dict(net)}
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        response = self.request("POST", "/v1/optimize", payload)
        response.raise_for_error()
        assert response.result is not None
        return response.result

    def closure(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        """Run full-netlist timing closure; returns the closure report."""
        response = self.request("POST", "/v1/closure", dict(body))
        response.raise_for_error()
        assert response.result is not None
        return response.result

    def stats(self) -> Dict[str, Any]:
        response = self.request("GET", "/v1/stats")
        response.raise_for_error()
        assert response.result is not None
        return response.result

    def healthz(self) -> bool:
        try:
            response = self.request("GET", "/v1/healthz")
        except MerlinError:
            return False
        return response.ok

    def wait_healthy(self, timeout_s: float = 10.0,
                     interval_s: float = 0.05) -> bool:
        """Poll ``/v1/healthz`` until it answers ok or ``timeout_s``
        passes (servers bind asynchronously in tests and CI)."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                if self._request_once("GET", "/v1/healthz").ok:
                    return True
            except (ClientTransportError, MerlinError):
                pass
            if time.monotonic() >= deadline:
                return False
            self.retry.sleep(interval_s)

    # -- transport ------------------------------------------------------

    def request(self, method: str, path: str,
                payload: Optional[Mapping[str, Any]] = None
                ) -> ClientResponse:
        """One logical request, with the retry policy applied."""
        attempts = max(1, self.retry.max_attempts)
        last: Optional[ClientResponse] = None
        last_exc: Optional[Exception] = None
        for attempt in range(1, attempts + 1):
            try:
                response = self._request_once(method, path, payload)
            except ClientTransportError as exc:
                last, last_exc = None, exc
                if attempt < attempts:
                    self.retry.sleep(self.retry.delay_s(attempt, self._rng))
                continue
            if response.status not in RETRYABLE_STATUSES:
                response.retries = attempt - 1
                return response
            last, last_exc = response, None
            if attempt < attempts:
                retry_after = _parse_retry_after(response.headers)
                self.retry.sleep(
                    self.retry.delay_s(attempt, self._rng, retry_after))
        if last is not None:
            last.retries = attempts - 1
            return last
        raise ClientTransportError(
            f"{method} {self.base_url}{path} failed after {attempts} "
            f"attempts: {last_exc}", stage="client")

    def _request_once(self, method: str, path: str,
                      payload: Optional[Mapping[str, Any]] = None
                      ) -> ClientResponse:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers,
                                         method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as raw:
                return _decode(raw.status, raw.read(), raw.headers)
        except urllib.error.HTTPError as exc:
            # Non-2xx still carries a JSON envelope — decode, don't raise.
            return _decode(exc.code, exc.read(), exc.headers)
        except (urllib.error.URLError, ConnectionError, TimeoutError,
                OSError) as exc:
            raise ClientTransportError(
                f"{method} {url}: {exc}", stage="client")


def _decode(status: int, blob: bytes, headers: Any) -> ClientResponse:
    try:
        body = json.loads(blob) if blob else {}
    except json.JSONDecodeError:
        body = {"raw": blob.decode("utf-8", "replace")}
    if not isinstance(body, dict):
        body = {"raw": body}
    return ClientResponse(status=status, body=body,
                          headers={k: v for k, v in headers.items()})


def _parse_retry_after(headers: Mapping[str, str]) -> Optional[float]:
    for name, value in headers.items():
        if name.lower() == "retry-after":
            try:
                return float(value)
            except ValueError:
                return None
    return None
