"""The async serving tier behind ``merlin-repro serve``.

Serves :mod:`repro.service` over HTTP from one asyncio listener with
bounded admission in front of one
:class:`repro.service.OptimizationService`:

* :mod:`repro.serve.server` — :class:`AsyncServer`, the stdlib asyncio
  HTTP front end (bounded queue -> 429 + ``Retry-After``, a handler
  thread pool over the service, graceful drain) speaking the v1
  protocol (:mod:`repro.service.protocol`);
* :mod:`repro.serve.embedded` — :class:`EmbeddedAsyncServer`, the same
  server on a background thread for tests and the load harness.

Typical embedded use (tests, the load harness)::

    from repro.serve import AsyncServer
    from repro.service import OptimizationService

    server = AsyncServer(OptimizationService(workers=1), queue_limit=32)
    await server.start()          # server.port is now bound
"""

from repro.serve.server import DEFAULT_QUEUE_LIMIT, AsyncServer, serve_async

__all__ = [
    "AsyncServer",
    "DEFAULT_QUEUE_LIMIT",
    "serve_async",
]
