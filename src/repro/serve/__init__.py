"""The async sharded serving tier behind ``merlin-repro serve``.

Serves :mod:`repro.service` over HTTP from N worker-pool shards behind
one asyncio listener with bounded admission:

* :mod:`repro.serve.sharding` — :class:`ConsistentHashRing`, routing
  canonical net signatures to shards with cache affinity and minimal
  remapping on resize;
* :mod:`repro.serve.server` — :class:`AsyncShardedServer`, the stdlib
  asyncio HTTP front end (bounded queue -> 429 + ``Retry-After``,
  per-shard thread pools over :class:`repro.service.OptimizationService`
  instances, shard-down failover along the ring) speaking the v1
  protocol (:mod:`repro.service.protocol`);
* :mod:`repro.serve.embedded` — :class:`EmbeddedAsyncServer`, the same
  server on a background thread for tests and the load harness.

Typical embedded use (tests, the load harness)::

    from repro.serve import AsyncShardedServer, build_shard_services

    services = build_shard_services(shards=4, workers=1)
    server = AsyncShardedServer(services, queue_limit=32)
    await server.start()          # server.port is now bound
"""

from repro.serve.server import (
    DEFAULT_QUEUE_LIMIT,
    AsyncShardedServer,
    build_shard_services,
    serve_async,
)
from repro.serve.sharding import ConsistentHashRing

__all__ = [
    "AsyncShardedServer",
    "ConsistentHashRing",
    "DEFAULT_QUEUE_LIMIT",
    "build_shard_services",
    "serve_async",
]
