"""The asyncio HTTP front end (``merlin-repro serve``).

Architecture — one event loop, one service::

    client -> asyncio.start_server -> admission control
           -> ThreadPoolExecutor (HANDLER_THREADS) -> OptimizationService
                                                      (LRU + optional disk)

* **Transport**: a deliberately small HTTP/1.1 server on
  ``asyncio.start_server`` (stdlib only, ``Connection: close``).  The
  event loop never runs engine work — it parses, admits, and awaits.
  A header line over ``MAX_HEADER_LINE_BYTES`` or a ``Content-Length``
  over the body cap answers **400** before any body is buffered.
* **Admission control**: work-bearing endpoints (``optimize``,
  ``closure``) pass a bounded in-flight gate; beyond ``queue_limit``
  the request is rejected immediately with **429** + ``Retry-After``
  (estimated from the recent latency series) instead of queueing
  unboundedly.  Probes (``healthz``, ``stats``) bypass the gate so
  health stays observable under overload.  The ``serve.admission``
  fault site forces 429s for chaos drills.
* **Execution**: admitted requests run on one small thread pool over
  one :class:`OptimizationService` (at the served default ``workers=1``
  a handler thread runs the DP inline; with a warm process pool it
  waits on it).  The service's canonical cache key already sends every
  repeat and renamed or translated twin to one entry.
* **Tiered cache**: the service's LRU over an optional checksummed disk
  directory (``ResultCache(disk_dir=...)``), which several servers may
  share.
* **Graceful drain**: :meth:`AsyncServer.drain` (SIGTERM under
  :func:`serve_async`) finishes in-flight work, refuses new requests
  with **503** + ``Retry-After``, and flushes the memory cache to the
  disk tier before the listener closes.

Endpoint semantics — parsing, handlers, envelopes, error bodies — come
from :mod:`repro.service.protocol`.  The engine is deterministic, so the
server answers a request with the tree a direct
:meth:`OptimizationService.optimize_many` call computes for it.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from threading import Lock
from typing import Any, Dict, Optional, Tuple

from repro.instrument import names as metric
from repro.instrument.recorder import Recorder
from repro.resilience.errors import (
    AdmissionRejectedError,
    FaultInjected,
    MerlinInputError,
    ServerDrainingError,
    classify,
)
from repro.resilience.faults import fault_point
from repro.service import protocol
from repro.service.engine import OptimizationService

#: Default bound on concurrently admitted work-bearing requests.
DEFAULT_QUEUE_LIMIT = 64

#: Handler threads of the one executor.  At the served default
#: ``workers=1`` a handler thread runs each cold solve inline and holds
#: its thread for the whole solve, while a cache hit needs a free thread
#: to answer at all; four threads let hits through beside up to three
#: cold solves.
HANDLER_THREADS = 4

#: Longest request or header line the transport reads (asyncio's
#: ``StreamReader`` limit); a longer one answers 400.
MAX_HEADER_LINE_BYTES = 64 * 1024

#: GIL switch interval of the ``merlin-repro serve`` process.  Cold
#: solves run the pure-Python DP on handler threads and keep the GIL for
#: whole switch slices, so the event loop answering a cache hit waits
#: behind them.  On the closed-loop ``serve`` benchmark (server on one
#: vCPU) the served p50 was ~15 ms at the default 5 ms slice, ~7 ms at
#: 0.2 ms and ~6 ms at 0.1 ms; 0.05 ms cost throughput and cold
#: latency.  Set by :func:`serve_async` only: :class:`AsyncServer` also
#: runs inside other processes.
SERVE_SWITCH_INTERVAL_S = 0.0001

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}


class AsyncServer:
    """Own the listener, the admission gate, and the handler executor
    over one :class:`OptimizationService`.

    The caller owns the service's lifetime unless :meth:`close` is asked
    to shut it down.
    """

    def __init__(self, service: OptimizationService,
                 host: str = "127.0.0.1", port: int = 0,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 recorder: Optional[Recorder] = None) -> None:
        if queue_limit < 1:
            raise MerlinInputError(
                f"queue_limit must be >= 1, got {queue_limit}")
        self.service = service
        self.host = host
        self.queue_limit = queue_limit
        self._requested_port = port
        self._executor = ThreadPoolExecutor(
            max_workers=HANDLER_THREADS, thread_name_prefix="merlin-serve")
        self._in_flight = 0  # event-loop-confined; no lock needed
        self.recorder = recorder or Recorder()
        self._recorder_lock = Lock()  # executor threads record too
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port,
            limit=MAX_HEADER_LINE_BYTES)

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def drain(self, timeout_s: float = 30.0) -> Dict[str, Any]:
        """Graceful shutdown: refuse new work with 503 + ``Retry-After``,
        let in-flight requests finish (bounded by ``timeout_s``), flush
        the memory cache tier to the disk tier, stop listening.  Returns
        a small report for logs/tests."""
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while self._in_flight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.02)
        flushed = self.service.cache.flush()
        await self.stop()
        return {"in_flight": self._in_flight, "flushed": flushed,
                "drained": self._in_flight == 0}

    @property
    def draining(self) -> bool:
        return self._draining

    def close(self, close_service: bool = False) -> None:
        """Tear down the executor (and optionally the service)."""
        self._executor.shutdown(wait=False, cancel_futures=True)
        if close_service:
            self.service.close()

    # -- transport ------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await self._read_request(reader)
            except MerlinInputError as exc:
                response = _render(protocol.EndpointOutcome(
                    400, None, classify(exc, stage="http")),
                    time.perf_counter())
            else:
                if request is None:
                    return
                response = await self._handle_request(*request)
            writer.write(response)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Tuple[str, str, bytes]]:
        """(method, path, body) of one request, or None for an empty or
        garbled request line.  Raises :class:`MerlinInputError` for a
        line over ``MAX_HEADER_LINE_BYTES`` or a ``Content-Length`` over
        the body cap, before reading any body."""
        request_line = await _read_line(reader)
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = 0
        if length > protocol.MAX_BODY_BYTES:
            raise MerlinInputError(
                f"request body exceeds {protocol.MAX_BODY_BYTES} bytes",
                stage="http")
        raw = await reader.readexactly(length) if length > 0 else b""
        return method, path, raw

    # -- request handling ----------------------------------------------

    async def _handle_request(self, method: str, path: str,
                              raw: bytes) -> bytes:
        started = time.perf_counter()
        endpoint = protocol.split_path(path)
        outcome: Optional[protocol.EndpointOutcome] = None
        body: Any = None
        if method == "POST" and endpoint is not None:
            try:
                body = protocol.parse_json_bytes(raw)
            except MerlinInputError as exc:
                outcome = protocol.EndpointOutcome(
                    400, None, classify(exc, stage="http"))
        if outcome is None:
            outcome = await self._dispatch(method, endpoint, body, path)
        self._record_series(metric.SERVE_REQUEST_LATENCY_S,
                            time.perf_counter() - started)
        return _render(outcome, started)

    async def _dispatch(self, method: str, endpoint: Optional[str],
                        body: Any, path: str) -> protocol.EndpointOutcome:
        if (method, endpoint) not in protocol.ENDPOINTS:
            return protocol.handle_unknown(path, method)
        if endpoint == "healthz":
            return protocol.EndpointOutcome(200, self._healthz_body())
        if endpoint == "stats":
            return protocol.EndpointOutcome(200, self.stats())
        rejected = self._admission_outcome(path)
        if rejected is not None:
            return rejected
        self._in_flight += 1
        self._record(metric.SERVE_ADMITTED)
        self._record_series(metric.SERVE_QUEUE_DEPTH, self._in_flight)
        handler = protocol.handle_optimize if endpoint == "optimize" \
            else protocol.handle_closure
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, handler, self.service, body, path)
        finally:
            self._in_flight -= 1

    def _healthz_body(self) -> Dict[str, Any]:
        status = "draining" if self._draining else "ok"
        return {"status": status, "draining": self._draining}

    # -- admission ------------------------------------------------------

    def _admission_outcome(self, path: str
                           ) -> Optional[protocol.EndpointOutcome]:
        """The rejection outcome for a work-bearing request, or None to
        admit it.  Draining beats everything: new work gets 503 +
        ``Retry-After``; a full queue (or an injected admission fault)
        gets 429 + ``Retry-After``."""
        if self._draining:
            self._record(metric.SERVE_DRAIN_REFUSALS)
            record = ServerDrainingError(
                "front end is draining for shutdown; retry elsewhere",
                stage="serve.drain").record
            return protocol.EndpointOutcome(
                503, None, record,
                retry_after_s=self._retry_after_estimate())
        try:
            fault_point("serve.admission", key=path)
        except FaultInjected as exc:
            return self._reject(
                f"admission rejected by injected fault: {exc}")
        if self._in_flight < self.queue_limit:
            return None
        return self._reject(
            f"request queue full ({self._in_flight} in flight, "
            f"limit {self.queue_limit})")

    def _reject(self, reason: str) -> protocol.EndpointOutcome:
        self._record(metric.SERVE_REJECTED)
        record = AdmissionRejectedError(
            reason, stage="serve.admission").record
        return protocol.EndpointOutcome(
            429, None, record, retry_after_s=self._retry_after_estimate())

    def _retry_after_estimate(self) -> float:
        """Seconds until a queue slot plausibly frees: the mean recent
        request latency, floored at one second (the header is integral
        anyway and sub-second retry storms help nobody)."""
        with self._recorder_lock:
            stats = self.recorder.series.get(metric.SERVE_REQUEST_LATENCY_S)
            mean = stats.mean if stats is not None and stats.count else 0.0
        return max(1.0, mean)

    # -- observability ---------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The ``GET /v1/stats`` body: front-end gate counters plus the
        service's own :meth:`OptimizationService.stats` report.
        ``shard_count`` (always 1) and the one-entry ``shards`` list keep
        the shape existing readers of this endpoint parse."""
        with self._recorder_lock:
            report = self.recorder.report()
        return {
            "mode": "async-sharded",
            "shard_count": 1,
            "queue_limit": self.queue_limit,
            "in_flight": self._in_flight,
            "draining": self._draining,
            "counters": report["counters"],
            "latency": report["series"],
            "shards": [self.service.stats()],
        }

    def _record(self, name: str, n: int = 1) -> None:
        with self._recorder_lock:
            self.recorder.incr(name, n)

    def _record_series(self, name: str, value: float) -> None:
        with self._recorder_lock:
            self.recorder.record(name, value)


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # StreamReader's way of saying "over the limit"
        raise MerlinInputError(
            f"request or header line exceeds {MAX_HEADER_LINE_BYTES} "
            "bytes", stage="http") from None


def _render(outcome: protocol.EndpointOutcome, started: float) -> bytes:
    """The full HTTP response carrying ``outcome`` in the v1 envelope."""
    blob = json.dumps(protocol.envelope(
        outcome, protocol.new_request_id(),
        protocol.timing_ms_since(started))).encode("utf-8")
    head = (f"HTTP/1.1 {outcome.status} "
            f"{_REASONS.get(outcome.status, 'Error')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(blob)}\r\n"
            "Connection: close\r\n")
    if outcome.retry_after_s is not None:
        retry_after = max(1, math.ceil(outcome.retry_after_s))
        head += f"Retry-After: {retry_after}\r\n"
    return head.encode("latin-1") + b"\r\n" + blob


def serve_async(host: str, port: int, service: OptimizationService,
                queue_limit: int = DEFAULT_QUEUE_LIMIT,
                drain_timeout_s: float = 30.0) -> None:
    """Blocking entry point behind ``merlin-repro serve``; the caller
    owns ``service``.

    SIGTERM triggers a graceful drain (in-flight requests finish, new
    ones get 503 + ``Retry-After``, the disk cache tier is flushed)
    before the process exits; Ctrl-C stays an immediate stop.  Runs
    with the GIL switch interval at :data:`SERVE_SWITCH_INTERVAL_S`.
    """
    server = AsyncServer(service, host=host, port=port,
                         queue_limit=queue_limit)

    async def _main() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        sigterm = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, sigterm.set)
        except (NotImplementedError, ValueError):
            pass  # platforms/threads without signal support
        print(f"merlin-repro service listening on http://{host}:"
              f"{server.port}  (queue limit {server.queue_limit}; "
              "POST /v1/optimize, POST /v1/closure, GET /v1/stats, "
              "GET /v1/healthz; SIGTERM drains, Ctrl-C stops)")
        serve_task = asyncio.ensure_future(server.serve_forever())
        drain_task = asyncio.ensure_future(sigterm.wait())
        done, _ = await asyncio.wait(
            {serve_task, drain_task},
            return_when=asyncio.FIRST_COMPLETED)
        if drain_task in done:
            report = await server.drain(timeout_s=drain_timeout_s)
            print(f"drained: in_flight={report['in_flight']} "
                  f"flushed={report['flushed']}")
        serve_task.cancel()
        drain_task.cancel()
        for task in (serve_task, drain_task):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(SERVE_SWITCH_INTERVAL_S)
    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        sys.setswitchinterval(switch_interval)
        server.close()
