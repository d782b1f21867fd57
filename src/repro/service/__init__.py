"""The net-optimization service layer: batching, caching, serving.

Turns the one-shot MERLIN engine into a long-lived multi-net service:

* :mod:`repro.service.canonical` — canonical net signatures (translation/
  rename-normalized geometry + tech/config/objective fingerprints);
* :mod:`repro.service.cache` — :class:`ResultCache`, an in-memory LRU
  with an optional on-disk JSON tier, keyed by canonical signature;
* :mod:`repro.service.engine` — :class:`OptimizationService` /
  :func:`optimize_many`, the warm-process-pool batch engine with per-job
  timeout, error isolation, and serial degradation;
* :mod:`repro.service.protocol` — the versioned v1 wire surface
  (envelope, error bodies, endpoint handlers); the HTTP front end behind
  ``merlin-repro serve`` lives in :mod:`repro.serve`.

Typical library use::

    from repro.service import OptimizationService

    with OptimizationService(workers=4) as service:
        results = service.optimize_many(nets)   # warm pool, cache-aware
        again = service.optimize(nets[0])       # cache hit, bit-identical
"""

from repro.service.cache import ResultCache
from repro.service.canonical import (
    canonical_key,
    canonical_request,
    technology_fingerprint,
)
from repro.service.engine import (
    OptimizationService,
    ServiceResult,
    optimize_many,
)
from repro.service.protocol import API_VERSION, EndpointOutcome, envelope

__all__ = [
    "ResultCache",
    "canonical_key",
    "canonical_request",
    "technology_fingerprint",
    "OptimizationService",
    "ServiceResult",
    "optimize_many",
    "API_VERSION",
    "EndpointOutcome",
    "envelope",
]
