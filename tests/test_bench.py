"""Tests for the benchmark harness (``python -m repro.bench``).

The harness doubles as the cross-backend equivalence gate, so what
matters here is (a) the suite actually runs and records the agreed
schema, and (b) divergences are detected and turned into a non-zero
exit — not the timing numbers themselves.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro import bench
from repro.core.config import MerlinConfig
from repro.curves.curve import resolve_backend

TINY_CASE = {
    "name": "tiny4",
    "sinks": 4,
    "seed": 2,
    "config": MerlinConfig.test_preset(),
}

TINY_PARALLEL = {
    "name": "tinypar",
    "sinks": 4,
    "seed": 5,
    "config": MerlinConfig.test_preset(),
    "seeds": (None, 1),
}

TINY_CLOSURE = {
    "name": "tinyclose",
    "circuit": "8:3:4:3",
    "seed": 3,
    "config": MerlinConfig.test_preset(),
    "orders": ("criticality",),
    "batch": None,
}

BACKENDS = ["python", "numpy"]


def test_engine_case_schema_and_equivalence():
    result = bench.run_engine_case(TINY_CASE, BACKENDS)
    assert result["kind"] == "engine"
    assert result["signatures_match"] is True
    for backend in BACKENDS:
        run = result["runs"][backend]
        assert run["wall_s"] > 0
        assert run["signature"]
        assert "counters" in run["instrument"]
    assert result["runs"]["numpy"]["resolved_backend"] == \
        resolve_backend("numpy")
    assert result["numpy_speedup"] > 0
    for backend in BACKENDS:
        spans = result["runs"][backend]["kernel_spans"]
        assert list(spans) == list(bench.KERNEL_SPANS)
        assert all(seconds > 0 for seconds in spans.values()), spans


def test_quick_suite_times_a_fast_preset_six_sink_net():
    """The regime that sets the served tail: the served preset at six
    sinks, beside the tiny test-preset case."""
    cases = {case["name"]: case for case in bench._engine_cases(True)}
    assert cases["fast6"]["sinks"] == 6
    assert cases["fast6"]["config"] == MerlinConfig.fast_preset()
    assert cases["quick6"]["config"] == MerlinConfig.test_preset()


def test_parallel_case_worker_invariance():
    result = bench.run_parallel_case(TINY_PARALLEL, [1, 2], "python")
    assert result["kind"] == "multi_start"
    assert result["worker_invariant"] is True
    assert result["start_labels"] == ["tsp", "seed=1"]
    assert result["runs"]["1"]["signatures"] == \
        result["runs"]["2"]["signatures"]


def test_closure_case_schema_and_contracts():
    result = bench.run_closure_case(TINY_CLOSURE, "python")
    assert result["kind"] == "closure"
    assert result["all_converged"] is True
    assert result["monotone"] is True
    run = result["runs"]["criticality"]
    assert run["wall_s"] > 0
    assert run["converged"] is True
    assert run["iterations"] >= 1


def test_check_suite_flags_divergence():
    ok_engine = {"name": "a", "kind": "engine", "signatures_match": True}
    ok_par = {"name": "b", "kind": "multi_start", "worker_invariant": True}
    ok_close = {"name": "c", "kind": "closure", "all_converged": True,
                "monotone": True}
    suite = {"cases": [ok_engine, ok_par, ok_close]}
    assert bench.check_suite(suite) == []

    bad = copy.deepcopy(suite)
    bad["cases"][0]["signatures_match"] = False
    bad["cases"][1]["worker_invariant"] = False
    bad["cases"][2]["monotone"] = False
    failures = bench.check_suite(bad)
    assert len(failures) == 3
    assert "a" in failures[0] and "b" in failures[1] and "c" in failures[2]


def _fake_suite(calibration, **timings):
    """A minimal suite dict whose tracked timings are exactly
    ``timings`` (keys are closure order names for brevity)."""
    return {
        "environment": {"calibration_s": calibration},
        "cases": [{
            "name": "t",
            "kind": "closure",
            "backend": "numpy",
            "runs": {order: {"wall_s": wall}
                     for order, wall in timings.items()},
        }],
    }


def test_tracked_timings_cover_every_case_kind():
    suite = {"cases": [
        {"name": "e", "kind": "engine",
         "runs": {
             "python": {"wall_s": 1.0},
             "numpy": {"wall_s": 0.5, "instrument": {"spans": {
                 "merlin/bubble_construct/ptree":
                     {"count": 3, "total_s": 0.3},
                 "merlin/bubble_construct/ptree/curves.kernel.prune":
                     {"count": 9, "total_s": 0.1},
                 "merlin/bubble_construct/curves.kernel.prune":
                     {"count": 2, "total_s": 0.05},
             }}},
         }},
        {"name": "m", "kind": "multi_start",
         "runs": {"1": {"wall_s": 2.0}, "2": {"wall_s": 1.5}}},
        {"name": "s", "kind": "service", "backend": "numpy",
         "cold_wall_s": 3.0, "warm_wall_s": 0.25},
        {"name": "c", "kind": "closure", "backend": "numpy",
         "runs": {"criticality": {"wall_s": 4.0}}},
    ]}
    timings = bench.tracked_timings(suite)
    assert timings == {
        "engine/e/python": 1.0, "engine/e/numpy": 0.5,
        "star_ptree.run/e/numpy": 0.3,
        "curves.prune/e/numpy": pytest.approx(0.15),
        "multi_start/m/w1": 2.0, "multi_start/m/w2": 1.5,
        "service/s/numpy/cold": 3.0, "service/s/numpy/warm": 0.25,
        "closure/c/numpy/criticality": 4.0,
    }


class TestCompareToBaseline:
    def test_regression_over_threshold_fails(self):
        baseline = _fake_suite(1.0, criticality=1.0)
        current = _fake_suite(1.0, criticality=1.5)
        failures = bench.compare_to_baseline(current, baseline)
        assert len(failures) == 1
        assert "closure/t/numpy/criticality" in failures[0]

    def test_within_threshold_passes(self):
        baseline = _fake_suite(1.0, criticality=1.0)
        current = _fake_suite(1.0, criticality=1.1)
        assert bench.compare_to_baseline(current, baseline) == []

    def test_calibration_ratio_excuses_a_slower_machine(self):
        # 2x slower across the board, including the calibration probe:
        # not a code regression.
        baseline = _fake_suite(1.0, criticality=1.0)
        current = _fake_suite(2.0, criticality=2.0)
        assert bench.compare_to_baseline(current, baseline) == []

    def test_calibration_cannot_hide_a_real_regression(self):
        baseline = _fake_suite(1.0, criticality=1.0)
        current = _fake_suite(2.0, criticality=3.0)
        assert len(bench.compare_to_baseline(current, baseline)) == 1

    def test_sub_floor_timings_are_ignored(self):
        # Tiny timings are all noise — never gate on them.
        baseline = _fake_suite(1.0, criticality=0.010)
        current = _fake_suite(1.0, criticality=0.040)
        assert bench.compare_to_baseline(current, baseline) == []

    def test_keys_missing_from_either_side_are_ignored(self):
        baseline = _fake_suite(1.0, criticality=1.0)
        current = _fake_suite(1.0, fanout=99.0)
        assert bench.compare_to_baseline(current, baseline) == []


def test_main_writes_versioned_json(tmp_path, monkeypatch):
    out = tmp_path / "BENCH_test.json"
    monkeypatch.setattr(bench, "_engine_cases", lambda quick: [TINY_CASE])
    monkeypatch.setattr(bench, "_parallel_cases",
                        lambda quick: [TINY_PARALLEL])
    monkeypatch.setattr(bench, "_closure_cases",
                        lambda quick: [TINY_CLOSURE])
    code = bench.main(["--quick", "--tag", "test", "--out", str(out),
                       "--workers", "1"])
    assert code == 0
    suite = json.loads(out.read_text())
    assert suite["version"] == bench.BENCH_VERSION
    assert suite["tag"] == "test"
    assert suite["environment"]["python"]
    assert suite["environment"]["calibration_s"] > 0
    assert {c["kind"] for c in suite["cases"]} == \
        {"engine", "multi_start", "service", "closure"}

    # Round trip through the --baseline gate.  Comparing a run against
    # itself on a shared CI box is jitter-prone, so pad the baseline
    # timings 3x: the gate must load the file, match keys, and pass.
    padded = copy.deepcopy(suite)
    for case in padded["cases"]:
        for run in case.get("runs", {}).values():
            run["wall_s"] *= 3.0
            for span in run.get("instrument", {}).get("spans", {}).values():
                span["total_s"] *= 3.0
        for key in ("cold_wall_s", "warm_wall_s"):
            if key in case:
                case[key] *= 3.0
    baseline = tmp_path / "BENCH_baseline.json"
    baseline.write_text(json.dumps(padded))
    # Both runs share the first run's calibration probe, so the gate's
    # calibration rescale is exactly 1 and cannot shrink the 3x pad
    # when the host's speed moves between the two probes.
    probe = suite["environment"]["calibration_s"]
    monkeypatch.setattr(bench, "calibration_seconds",
                        lambda repeats=3: probe)
    again = tmp_path / "BENCH_again.json"
    code = bench.main(["--quick", "--tag", "test", "--out", str(again),
                       "--workers", "1", "--baseline", str(baseline)])
    assert code == 0


def test_main_rejects_unknown_backend(capsys):
    with pytest.raises(SystemExit):
        bench.main(["--backends", "fortran"])


@pytest.mark.parametrize("flags", [
    ["--workers", "x"], ["--workers", ","], ["--workers", "0"],
    ["--workers", "1,-2"], ["--workers", "1,"], ["--workers", "1.5"],
    ["--backends", ","]])
def test_main_rejects_bad_lists_before_any_case_runs(flags, monkeypatch,
                                                     capsys):
    def run_suite(*args):
        raise AssertionError("a case ran before the flags were checked")

    monkeypatch.setattr(bench, "run_suite", run_suite)
    with pytest.raises(SystemExit) as exc:
        bench.main(flags)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
