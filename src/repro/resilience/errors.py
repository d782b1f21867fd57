"""The structured MERLIN error taxonomy.

Every failure the service layer can surface falls in one of three
categories, and the category — not the concrete class — is what
operational policy keys on:

* ``input``    — the request itself is wrong (malformed payload,
  impossible configuration).  Retrying is pointless; the HTTP front end
  maps these to **400**.
* ``resource`` — the request is fine but the system could not finish it
  (worker death, timeout, exhausted compute budget, no pool).  Retrying
  later may succeed; mapped to **503**.
* ``internal`` — the system broke its own invariants (corrupted cache
  entry, injected fault, engine bug).  Mapped to **500**.

Backward compatibility is structural: :class:`MerlinInputError` is a
``ValueError`` and the two other category bases are ``RuntimeError``
subclasses, so pre-taxonomy call sites catching the bare builtins keep
working unchanged.

:class:`ErrorRecord` is the picklable/JSON-able projection of an
exception that crosses process and wire boundaries (the service's
per-job error records, the HTTP error bodies).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Type

CATEGORY_INPUT = "input"
CATEGORY_RESOURCE = "resource"
CATEGORY_INTERNAL = "internal"

CATEGORIES = (CATEGORY_INPUT, CATEGORY_RESOURCE, CATEGORY_INTERNAL)


class MerlinError(Exception):
    """Base of the taxonomy; never raised directly by library code.

    ``stage`` names where in the pipeline the failure happened
    ("canonicalize", "engine", "pool", "cache", an injection site…) and
    is carried into the :class:`ErrorRecord`.
    """

    category: str = CATEGORY_INTERNAL

    def __init__(self, message: str, *, stage: Optional[str] = None) -> None:
        super().__init__(message)
        self.stage = stage

    @property
    def record(self) -> "ErrorRecord":
        return ErrorRecord(
            kind=type(self).__name__,
            category=self.category,
            stage=self.stage or "",
            message=str(self),
        )


class MerlinInputError(MerlinError, ValueError):
    """The request is invalid; retrying the same request cannot help."""

    category = CATEGORY_INPUT


class MerlinResourceError(MerlinError, RuntimeError):
    """The system ran out of something (workers, time, compute budget)."""

    category = CATEGORY_RESOURCE


class MerlinInternalError(MerlinError, RuntimeError):
    """The system violated its own invariants."""

    category = CATEGORY_INTERNAL


# -- concrete kinds ----------------------------------------------------


class MalformedNetError(MerlinInputError):
    """A net payload failed to deserialize; the message names the
    offending sink/field."""


class JobTimeoutError(MerlinResourceError):
    """A service job exceeded its per-job timeout."""


class WorkerCrashError(MerlinResourceError):
    """A pool worker process died while holding a job."""


class PoolUnavailableError(MerlinResourceError):
    """No process pool could be (re)built for pool-only work."""


class BudgetExhaustedError(MerlinResourceError):
    """A cooperative compute budget (op count or wall deadline) ran out
    inside the engine; the degradation ladder catches this."""


class CacheCorruptionError(MerlinInternalError):
    """A disk-cache entry failed its checksum or schema check."""


class AdmissionRejectedError(MerlinResourceError):
    """The serving tier's bounded request queue is full; the request was
    rejected before any work happened.  The HTTP front ends map this to
    **429** with a ``Retry-After`` header (retrying later is exactly the
    right response, unlike the generic 503 resource failures)."""


class UnknownPathError(MerlinInputError):
    """The request named an HTTP path no front end serves (404)."""


class ServerDrainingError(MerlinResourceError):
    """The front end is draining for shutdown: in-flight requests run to
    completion but new work is refused with **503** + ``Retry-After``
    (another replica — or the same one after restart — should take it)."""


class JournalCorruptError(MerlinInputError):
    """A closure journal failed its checksum/structure check somewhere
    other than the torn final line; resuming over it would lose state."""


class FaultInjected(MerlinInternalError):
    """An error deliberately raised by the fault-injection framework."""


#: Concrete classes resolvable by name from a wire-format record.
_KINDS: Dict[str, Type[MerlinError]] = {
    cls.__name__: cls
    for cls in (
        MerlinError, MerlinInputError, MerlinResourceError,
        MerlinInternalError, MalformedNetError, JobTimeoutError,
        WorkerCrashError, PoolUnavailableError, BudgetExhaustedError,
        CacheCorruptionError, AdmissionRejectedError, UnknownPathError,
        ServerDrainingError, JournalCorruptError, FaultInjected,
    )
}

_CATEGORY_BASES: Dict[str, Type[MerlinError]] = {
    CATEGORY_INPUT: MerlinInputError,
    CATEGORY_RESOURCE: MerlinResourceError,
    CATEGORY_INTERNAL: MerlinInternalError,
}


@dataclass(frozen=True)
class ErrorRecord:
    """Picklable, JSON-able projection of one failure.

    ``degraded`` marks records attached to *successful* but degraded
    answers (the ladder's attempt log); records describing outright
    failures leave it False.
    """

    kind: str
    category: str
    stage: str
    message: str
    degraded: bool = False

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise MerlinInputError(
                f"unknown error category {self.category!r}; "
                f"expected one of {CATEGORIES}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "category": self.category,
            "stage": self.stage,
            "message": self.message,
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ErrorRecord":
        return cls(
            kind=str(data.get("kind", "MerlinError")),
            category=str(data.get("category", CATEGORY_INTERNAL)),
            stage=str(data.get("stage", "")),
            message=str(data.get("message", "")),
            degraded=bool(data.get("degraded", False)),
        )

    def with_stage(self, stage: str) -> "ErrorRecord":
        return replace(self, stage=stage)


def classify(exc: BaseException, stage: str = "") -> ErrorRecord:
    """Project any exception onto the taxonomy.

    Typed :class:`MerlinError` instances keep their own kind/category
    (their own ``stage`` wins over the argument); builtins are sorted by
    the conventional meaning of their class — value/type/lookup errors
    are bad input, memory/OS/timeout pressure is a resource problem, and
    anything else is an internal failure.
    """
    if isinstance(exc, MerlinError):
        record = exc.record
        if not record.stage and stage:
            record = record.with_stage(stage)
        return record
    if isinstance(exc, (ValueError, TypeError, KeyError, IndexError)):
        category = CATEGORY_INPUT
    elif isinstance(exc, (MemoryError, OSError, TimeoutError)):
        category = CATEGORY_RESOURCE
    else:
        category = CATEGORY_INTERNAL
    return ErrorRecord(
        kind=type(exc).__name__,
        category=category,
        stage=stage,
        message=str(exc) or repr(exc),
    )


def error_from_record(record: ErrorRecord) -> MerlinError:
    """Reconstruct a raisable typed error from a wire-format record.

    Unknown kinds fall back to the record's category base class, so a
    newer service cannot produce records an older client cannot raise.
    """
    cls = _KINDS.get(record.kind)
    if cls is None or cls.category != record.category:
        cls = _CATEGORY_BASES.get(record.category, MerlinInternalError)
    return cls(record.message, stage=record.stage or None)
