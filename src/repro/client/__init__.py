"""Typed stdlib HTTP client for the MERLIN v1 serving API.

:class:`MerlinClient` is the one sanctioned way for in-repo code (the
load harness, the CLI, service tests, CI smoke jobs) to talk to a
running front end.  Raw ``urllib`` call sites drift out of sync with
the envelope; the client centralizes:

* envelope decoding into :class:`ClientResponse`;
* error mapping back onto the :mod:`repro.resilience.errors` taxonomy
  (a 400 raises :class:`~repro.resilience.errors.MerlinInputError`
  subclasses, a 429 raises ``AdmissionRejectedError``, and so on —
  reconstructed from the wire record, so callers catch typed errors);
* bounded retries with seeded, jittered exponential backoff on 429/503
  and transport failures, honoring ``Retry-After``.
"""

from repro.client.http import (
    ClientResponse,
    ClientTransportError,
    MerlinClient,
    RetryPolicy,
)

__all__ = [
    "ClientResponse",
    "ClientTransportError",
    "MerlinClient",
    "RetryPolicy",
]
