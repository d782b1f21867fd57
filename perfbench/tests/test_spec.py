"""Shape of ``BENCHMARK.json`` and the per-layer links of ``spec.py``."""

import re

from spec import BENCHMARK, END_TO_END, LINKS, PER_LAYER, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_keys_and_limits():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    assert isinstance(BENCHMARK["run_seconds"], int)
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert BENCHMARK["paths"] == ["perfbench"]
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_names_units_and_directions():
    names = [*WORKLOADS, *END_TO_END, *PER_LAYER]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")


def test_setup_time_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())


def test_every_per_layer_metric_names_what_it_should_move():
    assert set(LINKS) == set(PER_LAYER)
    for name, (layer, links) in LINKS.items():
        assert layer, name
        assert links, name
        for end_to_end, workload in links:
            assert end_to_end in END_TO_END, (name, end_to_end)
            assert workload in WORKLOADS, (name, workload)
