"""End-to-end instrumentation of the MERLIN engine (acceptance test).

One instrumented ``merlin()`` run on a 15-sink net must yield a JSON
stats report containing per-iteration outer-loop records, per-level
curve-size/prune-ratio counters, and timing spans separating
``bubble_construct`` from *PTREE routing — and recording must never
change engine results.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import MerlinConfig
from repro.core.merlin import merlin
from repro.curves.curve import CurveConfig
from repro.instrument import Recorder, names as metric, report_to_json
from repro.instrument.report import report_from_json
from repro.routing.export import tree_signature
from repro.tech.technology import default_technology
from tests.conftest import build_net

#: Smallest knobs that still exercise every instrumented code path on a
#: 15-sink net in well under a second.
TINY = MerlinConfig(
    alpha=2, max_candidates=4,
    curve=CurveConfig(load_step=8.0, area_step=240.0, max_solutions=4),
    library_subset=2, relocation_rounds=1, max_iterations=3)


@pytest.fixture(scope="module")
def recorded_run():
    net = build_net(15, seed=4)  # seed 4: takes 2 outer iterations
    rec = Recorder()
    result = merlin(net, default_technology(),
                    config=TINY.with_(recorder=rec))
    return net, rec, result


class TestFifteenSinkReport:
    def test_report_is_valid_json(self, recorded_run):
        _, rec, _ = recorded_run
        report = report_from_json(report_to_json(rec.report()))
        assert report["version"] == 1

    def test_per_iteration_outer_loop_records(self, recorded_run):
        net, rec, result = recorded_run
        report = rec.report()
        events = report["events"][metric.EVENT_MERLIN_ITERATION]
        assert len(events) == result.iterations >= 2
        for index, entry in enumerate(events, start=1):
            assert entry["index"] == index
            assert entry["cost"] == pytest.approx(
                result.cost_trace[index - 1])
            assert sorted(entry["order"]) == list(range(len(net)))
        assert report["counters"][metric.MERLIN_ITERATIONS] == \
            result.iterations

    def test_per_level_curve_size_and_prune_counters(self, recorded_run):
        net, rec, _ = recorded_run
        report = rec.report()
        series = report["series"]
        # Aggregate pre/post/ratio series exist and are consistent.
        pre = series[metric.BUBBLE_CURVE_SIZE_PRE]
        post = series[metric.BUBBLE_CURVE_SIZE_POST]
        ratio = series[metric.BUBBLE_PRUNE_RATIO]
        assert pre["count"] == post["count"] == ratio["count"] > 0
        assert post["total"] <= pre["total"]
        assert 0.0 < ratio["mean"] <= 1.0
        # Every hierarchy level from 2 up to n reported both sides.
        for size in range(2, len(net) + 1):
            assert metric.level_curve_size_pre(size) in series
            assert metric.level_curve_size_post(size) in series
        # Prune counters from the curve layer made it through.
        counters = report["counters"]
        assert counters[metric.CURVE_PRUNE_CALLS] > 0
        assert counters[metric.CURVE_PRUNE_REMOVED] > 0

    def test_timing_spans_bubble_vs_ptree(self, recorded_run):
        _, rec, result = recorded_run
        spans = rec.report()["spans"]
        bubble_path = f"{metric.SPAN_MERLIN}/{metric.SPAN_BUBBLE_CONSTRUCT}"
        ptree_path = f"{bubble_path}/{metric.SPAN_PTREE}"
        assert spans[metric.SPAN_MERLIN]["count"] == 1
        assert spans[bubble_path]["count"] == result.iterations
        assert spans[ptree_path]["count"] > 0
        # Nesting sanity: inner time cannot exceed outer time.
        assert spans[ptree_path]["total_s"] <= \
            spans[bubble_path]["total_s"] <= \
            spans[metric.SPAN_MERLIN]["total_s"]

    def test_dp_volume_counters_present(self, recorded_run):
        _, rec, _ = recorded_run
        counters = rec.report()["counters"]
        for name in (metric.BUBBLE_CELLS, metric.BUBBLE_LEVELS,
                     metric.BUBBLE_RANGES, metric.BUBBLE_RANGE_MEMO_HITS,
                     metric.PTREE_JOIN_CALLS, metric.PTREE_JOIN_PAIRS,
                     metric.PTREE_BUFFER_OFFERS, metric.PTREE_BASE_CURVES):
            assert counters[name] > 0, name
        assert counters[metric.PTREE_BASE_CURVES] == 15


class TestDisabledIsFree:
    def test_results_identical_with_and_without_recorder(self):
        net = build_net(15, seed=4)
        tech = default_technology()
        plain = merlin(net, tech, config=TINY)
        recorded = merlin(net, tech, config=TINY.with_(recorder=Recorder()))
        assert tree_signature(plain.tree) == tree_signature(recorded.tree)
        assert plain.cost_trace == recorded.cost_trace
        assert plain.iterations == recorded.iterations
        assert [o.seq for o in plain.order_trace] == \
            [o.seq for o in recorded.order_trace]

    def test_no_active_recorder_leaks_after_run(self):
        from repro.instrument import NULL_RECORDER, active_recorder

        net = build_net(4, seed=1)
        merlin(net, default_technology(),
               config=MerlinConfig.test_preset().with_(recorder=Recorder()))
        assert active_recorder() is NULL_RECORDER


class TestCliStats:
    def test_stats_flag_writes_json_report(self, tmp_path, capsys):
        from repro.cli import main

        out_path = str(tmp_path / "stats.json")
        assert main(["net", "--sinks", "4", "--seed", "2", "--stats",
                     "--stats-out", out_path]) == 0
        with open(out_path, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["version"] == 1
        assert report["counters"][metric.MERLIN_ITERATIONS] >= 1
        # All three flows were timed for apples-to-apples comparison.
        from repro.baselines.flows import ALL_FLOWS
        for flow in ALL_FLOWS:
            assert metric.span_flow(flow) in report["spans"]
            assert metric.flow_runtime(flow) in report["series"]

    def test_stats_flag_prints_json_to_stdout(self, capsys):
        from repro.cli import main

        assert main(["net", "--sinks", "3", "--seed", "1", "--stats"]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{"):]
        report = json.loads(payload)
        assert report["version"] == 1
