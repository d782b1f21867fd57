"""Run the front end in-process, on a background thread.

Tests, the load harness's self-serve mode, and the CI smoke jobs all
need a bound, serving front end without shelling out: this context
manager owns the thread/loop plumbing so call sites stay three lines.

::

    with EmbeddedAsyncServer(shards=4, workers=1) as server:
        report = run_workload(server.base_url, workload)

    with EmbeddedAsyncServer(services=[service]) as server:
        MerlinClient(server.base_url).optimize(net)
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Optional, Sequence

from repro.service.engine import OptimizationService
from repro.serve.server import (
    DEFAULT_QUEUE_LIMIT,
    AsyncShardedServer,
    build_shard_services,
)


class EmbeddedAsyncServer:
    """An :class:`AsyncShardedServer` on a daemon event-loop thread.

    Pass ready-made ``services`` (their lifetime stays yours) or let the
    constructor build ``shards`` services from ``service_kwargs`` (then
    they are closed on exit).
    """

    def __init__(self, services: Optional[Sequence[OptimizationService]]
                 = None, shards: int = 2,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 host: str = "127.0.0.1",
                 **service_kwargs: Any) -> None:
        self._owns_services = services is None
        if services is None:
            services = build_shard_services(shards, **service_kwargs)
        self.server = AsyncShardedServer(
            services, host=host, queue_limit=queue_limit)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._host = host

    def __enter__(self) -> "EmbeddedAsyncServer":
        started = threading.Event()
        failure: list = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.server.start())
            except Exception as exc:  # pragma: no cover - bind failures
                failure.append(exc)
                started.set()
                return
            started.set()
            loop.run_forever()
            # Drain the stop() scheduled by __exit__ before closing.
            loop.run_until_complete(self.server.stop())
            loop.close()

        self._thread = threading.Thread(target=_run, daemon=True,
                                        name="merlin-async-serve")
        self._thread.start()
        if not started.wait(timeout=30) or failure:
            raise RuntimeError(
                f"async server failed to start: {failure or 'timeout'}")
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
        self.server.close(close_services=self._owns_services)

    def drain(self, timeout_s: float = 30.0) -> dict:
        """Run the server's graceful drain from the caller's thread."""
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(timeout_s=timeout_s), self._loop)
        return future.result(timeout=timeout_s + 30)

    @property
    def base_url(self) -> str:
        return f"http://{self._host}:{self.server.port}"

