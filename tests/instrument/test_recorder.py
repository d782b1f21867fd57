"""Unit tests for the repro.instrument layer itself."""

from __future__ import annotations

import json

import pytest

from repro.instrument import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    active_recorder,
    dump_report,
    install_recorder,
    load_report,
    merge_reports,
    report_from_json,
    report_to_json,
    use_recorder,
    validate_report,
)


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestCounters:
    def test_default_zero(self):
        assert Recorder().counter("nope") == 0

    def test_incr_aggregates(self):
        rec = Recorder()
        rec.incr("a")
        rec.incr("a")
        rec.incr("a", 5)
        rec.incr("b", 2)
        assert rec.counter("a") == 7
        assert rec.counter("b") == 2


class TestSeries:
    def test_streaming_stats(self):
        rec = Recorder()
        for value in (4.0, 1.0, 7.0):
            rec.record("s", value)
        stats = rec.series["s"]
        assert stats.count == 3
        assert stats.total == 12.0
        assert stats.minimum == 1.0
        assert stats.maximum == 7.0
        assert stats.mean == 4.0
        assert stats.last == 7.0


class TestEvents:
    def test_append_order_preserved(self):
        rec = Recorder()
        rec.event("e", index=1)
        rec.event("e", index=2)
        assert [entry["index"] for entry in rec.events["e"]] == [1, 2]


class TestSpans:
    def test_nested_spans_build_paths(self):
        rec = Recorder(clock=FakeClock())
        with rec.span("outer"):
            with rec.span("inner"):
                pass
            with rec.span("inner"):
                pass
        assert set(rec.spans) == {"outer", "outer/inner"}
        assert rec.spans["outer"].count == 1
        assert rec.spans["outer/inner"].count == 2

    def test_span_timing_uses_clock(self):
        # Each clock read advances 1s; a span reads twice (enter + exit),
        # and the inner spans' reads land inside the outer window.
        rec = Recorder(clock=FakeClock(step=1.0))
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        assert rec.spans["outer/inner"].total_s == pytest.approx(1.0)
        assert rec.spans["outer"].total_s == pytest.approx(3.0)

    def test_sibling_spans_share_path(self):
        rec = Recorder(clock=FakeClock())
        for _ in range(3):
            with rec.span("leaf"):
                pass
        assert rec.spans["leaf"].count == 3


class TestNullRecorder:
    def test_disabled_flag(self):
        assert NullRecorder().enabled is False
        assert Recorder().enabled is True

    def test_all_operations_are_noops(self):
        rec = NullRecorder()
        rec.incr("a")
        rec.record("s", 1.0)
        rec.event("e", x=1)
        with rec.span("t"):
            pass
        # No storage at all: the null recorder has no attributes to grow.
        assert not hasattr(rec, "counters")

    def test_uninstalled_recorder_stays_empty(self):
        """Instrumented engine code writes to the *active* recorder, so a
        recorder that was never installed must stay empty."""
        from repro.curves.ops import join_solutions
        from repro.curves.solution import SinkLeaf, Solution
        from repro.geometry.point import Point

        bystander = Recorder()
        p = Point(0, 0)
        join_solutions(Solution(p, 1.0, 2.0, 3.0, SinkLeaf(0)),
                       Solution(p, 1.0, 2.0, 3.0, SinkLeaf(1)))
        assert bystander.counters == {}
        assert bystander.series == {}
        assert bystander.events == {}
        assert bystander.spans == {}


class TestActiveRecorder:
    def test_default_is_null(self):
        assert active_recorder() is NULL_RECORDER

    def test_use_recorder_scopes_and_restores(self):
        rec = Recorder()
        with use_recorder(rec) as installed:
            assert installed is rec
            assert active_recorder() is rec
            inner = Recorder()
            with use_recorder(inner):
                assert active_recorder() is inner
            assert active_recorder() is rec
        assert active_recorder() is NULL_RECORDER

    def test_use_recorder_restores_on_exception(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with use_recorder(rec):
                raise RuntimeError("boom")
        assert active_recorder() is NULL_RECORDER

    def test_install_none_means_null(self):
        previous = install_recorder(None)
        try:
            assert active_recorder() is NULL_RECORDER
        finally:
            install_recorder(previous)


class TestReport:
    def _populated(self) -> Recorder:
        rec = Recorder(clock=FakeClock())
        rec.incr("c.a", 3)
        rec.record("s.x", 1.5)
        rec.record("s.x", 2.5)
        rec.event("e.run", index=1, cost=-3.25, order=[2, 0, 1])
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        return rec

    def test_report_is_json_serializable(self):
        report = self._populated().report()
        json.dumps(report)  # must not raise
        validate_report(report)

    def test_round_trip_through_dict(self):
        # Merging one report rebuilds a recorder from the plain dict.
        report = self._populated().report()
        assert merge_reports([report]) == report

    def test_round_trip_through_json_text(self):
        report = self._populated().report()
        text = report_to_json(report)
        assert report_from_json(text) == report

    def test_round_trip_through_file(self, tmp_path):
        report = self._populated().report()
        path = str(tmp_path / "report.json")
        dump_report(report, path)
        assert load_report(path) == report

    def test_validate_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_report([])
        with pytest.raises(ValueError):
            validate_report({"version": 999, "counters": {}, "series": {},
                             "spans": {}, "events": {}})
        with pytest.raises(ValueError):
            validate_report({"version": 1, "counters": {}})
