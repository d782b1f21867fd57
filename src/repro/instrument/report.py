"""Serialize, load, and validate instrumentation reports.

A *report* is the plain-dict snapshot produced by
:meth:`repro.instrument.Recorder.report`; this module owns its JSON
framing and the deterministic merge of per-worker reports, so the
``net --stats`` CLI flag and the :mod:`repro.parallel` drivers emit one
format.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable

from repro.instrument.recorder import (
    REPORT_VERSION,
    Recorder,
    SeriesStats,
    SpanStats,
)

_SECTIONS = ("counters", "series", "spans", "events")


def report_to_json(report: Dict[str, Any], indent: int = 2) -> str:
    """Render ``report`` as deterministic (sorted-key) JSON."""
    validate_report(report)
    return json.dumps(report, indent=indent, sort_keys=True)


def report_from_json(text: str) -> Dict[str, Any]:
    """Parse and validate a JSON report string."""
    report = json.loads(text)
    validate_report(report)
    return report


def dump_report(report: Dict[str, Any], path: str) -> None:
    """Write ``report`` to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report_to_json(report))
        handle.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    """Read a JSON report from ``path``."""
    with open(path, encoding="utf-8") as handle:
        return report_from_json(handle.read())


def validate_report(report: Any) -> None:
    """Raise ``ValueError`` unless ``report`` has the expected shape."""
    if not isinstance(report, dict):
        raise ValueError("report must be a dict")
    if report.get("version") != REPORT_VERSION:
        raise ValueError(
            f"unsupported report version: {report.get('version')!r}")
    for section in _SECTIONS:
        if not isinstance(report.get(section), dict):
            raise ValueError(f"report section {section!r} missing or invalid")


def merge_reports(reports: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-worker reports into one, deterministically.

    The merge is a pure fold over ``reports`` *in the given order* —
    callers (the :mod:`repro.parallel` drivers) pass reports in task
    submission order, so the merged output is independent of worker
    scheduling and completion order.  Counters and span aggregates sum;
    series combine their streaming summaries (``last`` takes the value
    from the last report that observed the series); event streams
    concatenate.
    """
    merged = Recorder()
    for report in reports:
        validate_report(report)
        for name, value in report["counters"].items():
            merged.incr(str(name), int(value))
        for name, data in report["series"].items():
            incoming = SeriesStats.from_dict(data)
            if incoming.count == 0:
                continue
            stats = merged.series.get(str(name))
            if stats is None:
                merged.series[str(name)] = incoming
                continue
            stats.count += incoming.count
            stats.total += incoming.total
            stats.minimum = min(stats.minimum, incoming.minimum)
            stats.maximum = max(stats.maximum, incoming.maximum)
            stats.last = incoming.last
        for name, data in report["spans"].items():
            incoming_span = SpanStats.from_dict(data)
            span = merged.spans.get(str(name))
            if span is None:
                merged.spans[str(name)] = incoming_span
            else:
                span.count += incoming_span.count
                span.total_s += incoming_span.total_s
        for name, events in report["events"].items():
            merged.events.setdefault(str(name), []).extend(
                dict(e) for e in events)
    return merged.report()
