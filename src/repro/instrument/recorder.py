"""Counters, series, events, and hierarchical timing spans.

The engine is instrumented against one tiny interface (``incr`` /
``record`` / ``event`` / ``span`` plus the ``enabled`` flag) with two
implementations:

* :class:`Recorder` — accumulates everything in plain dicts and can dump
  a JSON-serializable report.
* :class:`NullRecorder` — the module-wide default.  Every method is a
  no-op and ``enabled`` is False, so instrumented call sites reduce to
  one attribute check; expensive metric *inputs* (curve sizes, order
  snapshots) must be guarded by ``if rec.enabled:`` at the call site and
  therefore cost nothing when disabled.

A recorder is activated either by passing it explicitly through
``MerlinConfig.recorder`` or by installing it as the process-wide active
recorder with :func:`use_recorder`; low-level code (curve pruning, the
*PTREE kernels) always reads the active recorder so it needs no plumbing
through every call signature.  The engine is single-threaded; the active
recorder is a plain module global, not a context-var.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional


class SeriesStats:
    """Streaming summary of one observed value series."""

    __slots__ = ("count", "total", "minimum", "maximum", "last")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.last = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.last = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "last": self.last,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "SeriesStats":
        stats = cls()
        stats.count = int(data["count"])
        stats.total = float(data["total"])
        stats.minimum = float(data["min"])
        stats.maximum = float(data["max"])
        stats.last = float(data["last"])
        return stats


class SpanStats:
    """Aggregate of every execution of one span path."""

    __slots__ = ("count", "total_s")

    def __init__(self, count: int = 0, total_s: float = 0.0) -> None:
        self.count = count
        self.total_s = total_s

    def as_dict(self) -> Dict[str, float]:
        return {"count": self.count, "total_s": self.total_s}

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "SpanStats":
        return cls(count=int(data["count"]), total_s=float(data["total_s"]))


class _Span:
    """Context manager for one live span; created by :meth:`Recorder.span`."""

    __slots__ = ("_rec", "_name", "_path", "_start")

    def __init__(self, rec: "Recorder", name: str) -> None:
        self._rec = rec
        self._name = name
        self._path = ""
        self._start = 0.0

    def __enter__(self) -> "_Span":
        stack = self._rec._span_stack
        self._path = f"{stack[-1]}/{self._name}" if stack else self._name
        stack.append(self._path)
        self._start = self._rec._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = self._rec._clock() - self._start
        self._rec._span_stack.pop()
        stats = self._rec.spans.get(self._path)
        if stats is None:
            stats = self._rec.spans[self._path] = SpanStats()
        stats.count += 1
        stats.total_s += elapsed


class _NullSpan:
    """Reusable do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: Current schema version of :meth:`Recorder.report`.
REPORT_VERSION = 1


class NullRecorder:
    """The disabled recorder: every operation is a cheap no-op."""

    __slots__ = ()
    enabled = False

    def incr(self, name: str, n: int = 1) -> None:
        return None

    def record(self, name: str, value: float) -> None:
        return None

    def event(self, name: str, **fields: Any) -> None:
        return None

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


#: Shared no-op instance; identity-compared nowhere, safe to reuse.
NULL_RECORDER = NullRecorder()


class Recorder:
    """Accumulates counters, series, events, and timing spans.

    ``clock`` is injectable for deterministic tests; it defaults to
    :func:`time.perf_counter`.
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.counters: Dict[str, int] = {}
        self.series: Dict[str, SeriesStats] = {}
        self.events: Dict[str, List[Dict[str, Any]]] = {}
        self.spans: Dict[str, SpanStats] = {}
        self._span_stack: List[str] = []
        self._clock = clock or time.perf_counter

    # -- write API -----------------------------------------------------

    def incr(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def record(self, name: str, value: float) -> None:
        """Observe ``value`` on series ``name``."""
        stats = self.series.get(name)
        if stats is None:
            stats = self.series[name] = SeriesStats()
        stats.observe(value)

    def event(self, name: str, **fields: Any) -> None:
        """Append one structured record to the ``name`` event stream.

        Field values must be JSON-serializable; the caller guards the
        (possibly expensive) field construction with ``rec.enabled``.
        """
        self.events.setdefault(name, []).append(fields)

    def span(self, name: str) -> _Span:
        """Open a timing span; nest via ``with`` to build span paths."""
        return _Span(self, name)

    # -- read API ------------------------------------------------------

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def report(self) -> Dict[str, Any]:
        """A JSON-serializable snapshot of everything recorded."""
        return {
            "version": REPORT_VERSION,
            "counters": dict(self.counters),
            "series": {k: v.as_dict() for k, v in self.series.items()},
            "spans": {k: v.as_dict() for k, v in self.spans.items()},
            "events": {k: [dict(e) for e in v]
                       for k, v in self.events.items()},
        }


# ----------------------------------------------------------------------
# The process-wide active recorder
# ----------------------------------------------------------------------

_ACTIVE: Any = NULL_RECORDER


def active_recorder() -> Any:
    """The currently installed recorder (the no-op one by default)."""
    return _ACTIVE


def install_recorder(recorder: Any) -> Any:
    """Install ``recorder`` as the active one; return the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder if recorder is not None else NULL_RECORDER
    return previous


@contextmanager
def use_recorder(recorder: Any) -> Iterator[Any]:
    """Scope ``recorder`` as the active recorder for a ``with`` block."""
    previous = install_recorder(recorder)
    try:
        yield recorder
    finally:
        install_recorder(previous)
