"""The asyncio sharded HTTP front end (``merlin-repro serve``).

Architecture — one event loop, N worker-pool shards::

    client -> asyncio.start_server -> admission control -> hash ring
                                                             |
                            +---------------+----------------+
                            v               v                v
                       shard 0         shard 1   ...    shard N-1
                    (ThreadPool +   (ThreadPool +     (ThreadPool +
                     OptimizationService, own LRU, shared disk tier)

* **Transport**: a deliberately small HTTP/1.1 server on
  ``asyncio.start_server`` (stdlib only, ``Connection: close``).  The
  event loop never runs engine work — it parses, routes, and awaits.
  A header line over ``MAX_HEADER_LINE_BYTES`` or a ``Content-Length``
  over the body cap answers **400** before any body is buffered.
* **Admission control**: work-bearing endpoints (``optimize``,
  ``closure``) pass a bounded in-flight gate; beyond ``queue_limit``
  the request is rejected immediately with **429** + ``Retry-After``
  (estimated from the recent latency series) instead of queueing
  unboundedly.  Probes (``healthz``, ``stats``) bypass the gate so
  health stays observable under overload.
* **Sharding**: requests are routed by their canonical net signature
  (:meth:`OptimizationService.canonical_key_for`) over a consistent
  hash ring, so equivalent requests — renamed/translated twins
  included — always hit the same shard and its warm LRU.  Shards are
  plain :class:`OptimizationService` instances; each runs requests on
  its own small thread pool (at the served default ``workers=1`` the
  threads run the DP inline; with a warm process pool they wait on it).
* **Tiered cache**: shard LRU (hot, per-shard) over an optional shared
  checksummed disk directory (warm, cross-shard) — pass ``disk_dir`` to
  :func:`build_shard_services`.  Keys agree byte-for-byte across tiers
  because both come from :mod:`repro.service.canonical`.
* **Failover**: a shard marked down by the ``serve.shard`` fault site
  fails over to the next shard on the ring (counted by
  ``serve.shard.failovers``); only when every shard is down does the
  client see a **503** ``shard_unavailable``.  The ``serve.admission``
  fault site forces 429s for chaos drills.
* **Graceful drain**: :meth:`AsyncShardedServer.drain` (SIGTERM under
  :func:`serve_async`) finishes in-flight work, refuses new requests
  with **503** + ``Retry-After``, and flushes shard memory caches to
  the shared disk tier before the listener closes.

Endpoint semantics — parsing, handlers, envelopes, error bodies — come
from :mod:`repro.service.protocol`.  The engine is deterministic, so
every shard answers a request with the tree a direct
:meth:`OptimizationService.optimize_many` call computes for it.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from threading import Lock
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.instrument import names as metric
from repro.instrument.recorder import Recorder
from repro.net import net_from_dict
from repro.resilience.errors import (
    AdmissionRejectedError,
    FaultInjected,
    MerlinInputError,
    ServerDrainingError,
    ShardUnavailableError,
    classify,
)
from repro.resilience.faults import fault_point
from repro.service import protocol
from repro.service.cache import ResultCache
from repro.service.engine import OptimizationService

#: Default bound on concurrently admitted work-bearing requests.
DEFAULT_QUEUE_LIMIT = 64

#: Default handler threads per shard.  At the served default
#: ``workers=1`` a shard thread runs the DP inline, so a shard computes
#: at most this many cold nets at once; cache hits are quick.
DEFAULT_SHARD_THREADS = 2

#: Longest request or header line the transport reads (asyncio's
#: ``StreamReader`` limit); a longer one answers 400.
MAX_HEADER_LINE_BYTES = 64 * 1024

#: GIL switch interval of the ``merlin-repro serve`` process.  Cold
#: solves run the pure-Python DP on shard threads and keep the GIL for
#: whole switch slices, so the event loop answering a cache hit waits
#: behind them.  On the closed-loop ``serve`` benchmark (server on one
#: vCPU) the served p50 was ~15 ms at the default 5 ms slice, ~7 ms at
#: 0.2 ms and ~6 ms at 0.1 ms; 0.05 ms cost throughput and cold
#: latency.  Set by :func:`serve_async` only: :class:`AsyncShardedServer`
#: also runs inside other processes.
SERVE_SWITCH_INTERVAL_S = 0.0001

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}


def build_shard_services(
        shards: int,
        cache_capacity: int = 256,
        disk_dir: Optional[str] = None,
        service_factory: Optional[Callable[[ResultCache],
                                           OptimizationService]] = None,
        **service_kwargs: Any) -> List[OptimizationService]:
    """Construct ``shards`` identically-configured services.

    Each shard gets its own in-memory LRU; ``disk_dir`` (optional) is
    shared across all of them as the warm tier.  Extra keyword arguments
    go to :class:`OptimizationService` verbatim; ``service_factory``
    takes over construction entirely when the caller needs presets.
    """
    if shards < 1:
        raise MerlinInputError(f"need >= 1 shard, got {shards}")
    services = []
    for _ in range(shards):
        cache = ResultCache(capacity=cache_capacity, disk_dir=disk_dir)
        if service_factory is not None:
            services.append(service_factory(cache))
        else:
            services.append(OptimizationService(cache=cache,
                                                **service_kwargs))
    return services


class AsyncShardedServer:
    """Own the listener, the admission gate, the ring, and the shards.

    The caller owns the services' lifetime unless :meth:`close` is asked
    to shut them down (the blocking :func:`serve_async` does).
    """

    def __init__(self, services: Sequence[OptimizationService],
                 host: str = "127.0.0.1", port: int = 0,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 shard_threads: int = DEFAULT_SHARD_THREADS,
                 recorder: Optional[Recorder] = None) -> None:
        from repro.serve.sharding import ConsistentHashRing

        if not services:
            raise MerlinInputError("need at least one shard service")
        if queue_limit < 1:
            raise MerlinInputError(
                f"queue_limit must be >= 1, got {queue_limit}")
        fingerprints = {s.tech_fingerprint for s in services}
        if len(fingerprints) != 1:
            # Mixed technologies would make ring keys and shard cache
            # keys disagree — refuse loudly instead of mis-caching.
            raise MerlinInputError(
                "all shard services must share one technology "
                f"(got {len(fingerprints)} distinct fingerprints)")
        self.services = list(services)
        self.host = host
        self.queue_limit = queue_limit
        self._requested_port = port
        self._ring = ConsistentHashRing(len(self.services))
        self._executors = [
            ThreadPoolExecutor(max_workers=max(1, shard_threads),
                               thread_name_prefix=f"merlin-shard-{i}")
            for i in range(len(self.services))]
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
        every shard's memory cache tier to the disk tier, stop listening.
        Returns a small report for logs/tests."""
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while self._in_flight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.02)
        flushed = sum(service.cache.flush() for service in self.services
                      if service.cache is not None)
        await self.stop()
        return {"in_flight": self._in_flight, "flushed": flushed,
                "drained": self._in_flight == 0}

    @property
    def draining(self) -> bool:
        return self._draining

    def close(self, close_services: bool = False) -> None:
        """Tear down executors (and optionally the shard services)."""
        for executor in self._executors:
            executor.shutdown(wait=False, cancel_futures=True)
        if close_services:
            for service in self.services:
                service.close()

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
        try:
            if endpoint == "optimize":
                shard = self._route_optimize(body)
                return await self._run_on_shard(
                    shard, lambda svc: protocol.handle_optimize(
                        svc, body, path))
            shard = self._route_closure(body)
            return await self._run_on_shard(
                shard, lambda svc: protocol.handle_closure(svc, body, path))
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

    # -- routing + shard execution --------------------------------------

    def _route_optimize(self, body: Any) -> int:
        """Shard index for an optimize body: the ring position of its
        canonical key.  Unparseable nets route to shard 0 — every shard
        produces the identical 400, so routing is irrelevant there."""
        try:
            net_data = body.get("net", body) if isinstance(body, dict) \
                else body
            net = net_from_dict(net_data)
        except (ValueError, TypeError, AttributeError):
            return 0
        key = self.services[0].canonical_key_for(net)
        return self._ring.shard_for(key)

    def _route_closure(self, body: Any) -> int:
        """Closure spans many nets, so the whole request pins to one
        shard, chosen by a digest of its (sorted-key) body so replays
        route identically."""
        try:
            blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
        except (TypeError, ValueError):
            return 0
        return self._ring.shard_for(
            hashlib.sha256(blob.encode("utf-8")).hexdigest())

    async def _run_on_shard(
            self, shard: int,
            handler: Callable[[OptimizationService],
                              protocol.EndpointOutcome]
    ) -> protocol.EndpointOutcome:
        loop = asyncio.get_running_loop()
        for step in range(len(self.services)):
            index = (shard + step) % len(self.services)
            try:
                fault_point("serve.shard", key=str(index))
            except FaultInjected:
                # Shard down: degrade to the next shard on the ring
                # (identical answers — the engine is deterministic and
                # the disk tier, when present, is shared).
                if step == 0:
                    self._record(metric.SERVE_SHARD_FAILOVERS)
                continue
            self._record(metric.serve_shard_requests(index))
            return await loop.run_in_executor(
                self._executors[index], handler, self.services[index])
        record = ShardUnavailableError(
            f"shard {shard} is down and no failover shard is available",
            stage="serve.shard").record
        return protocol.EndpointOutcome(503, None, record)

    # -- observability ---------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The ``GET /v1/stats`` body: front-end gate/ring counters plus
        every shard's own :meth:`OptimizationService.stats` report."""
        with self._recorder_lock:
            report = self.recorder.report()
        return {
            "mode": "async-sharded",
            "shard_count": len(self.services),
            "queue_limit": self.queue_limit,
            "in_flight": self._in_flight,
            "draining": self._draining,
            "counters": report["counters"],
            "latency": report["series"],
            "shards": [service.stats() for service in self.services],
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


def serve_async(host: str, port: int,
                services: Optional[Sequence[OptimizationService]] = None,
                shards: int = 2,
                queue_limit: int = DEFAULT_QUEUE_LIMIT,
                cache_capacity: int = 256,
                disk_dir: Optional[str] = None,
                service_factory: Optional[Callable[[ResultCache],
                                                   OptimizationService]]
                = None,
                drain_timeout_s: float = 30.0,
                **service_kwargs: Any) -> None:
    """Blocking entry point behind ``merlin-repro serve``.

    SIGTERM triggers a graceful drain (in-flight requests finish, new
    ones get 503 + ``Retry-After``, the disk cache tier is flushed)
    before the process exits; Ctrl-C stays an immediate stop.  Runs
    with the GIL switch interval at :data:`SERVE_SWITCH_INTERVAL_S`.
    """
    owned = services is None
    if services is None:
        services = build_shard_services(
            shards, cache_capacity=cache_capacity, disk_dir=disk_dir,
            service_factory=service_factory, **service_kwargs)
    server = AsyncShardedServer(services, host=host, port=port,
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
              f"{server.port}  ({len(server.services)} shards, queue "
              f"limit {server.queue_limit}; POST /v1/optimize, "
              f"POST /v1/closure, GET /v1/stats, GET /v1/healthz; "
              "SIGTERM drains, Ctrl-C stops)")
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
        server.close(close_services=owned)
