"""The harness's own arithmetic: percentile rule, failure accounting and
the layer add-up."""

import pytest

import inputs
import layers
import run
from metrics import (Tally, layer_table, percentile, span_self_times,
                     supported_percentile)
from spec import BENCHMARK


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (1000, 99.0), (200, 95.0), (199, 90.0), (100, 90.0),
    (99, 75.0), (20, 50.0), (19, None), (0, None)])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_each_workload_tail_is_supported_by_the_inputs_a_run_takes():
    sizes = inputs.sizes(BENCHMARK["run_seconds"])
    # Every closure answers 27 nets.
    samples = {"solve": sizes["solve"], "serve": sizes["serve"],
               "closure": sizes["closure"] * 27}
    assert {w: supported_percentile(n) for w, n in samples.items()} == \
        run.TAIL_PERCENTILE


def test_a_run_measures_the_same_inputs_whatever_the_host_speed():
    assert inputs.sizes(35) == {"solve": 105, "serve": 875, "closure": 2}
    assert inputs.sizes(35) == inputs.sizes(35.0)


def test_each_failed_operation_counts_once():
    tally = Tally()
    tally.attempt(4)
    tally.fail("request0", "HTTP 429: queue full")
    tally.fail("request1", "HTTP 0: transport error")
    tally.fail("request2", "tree signature differs from the reference")
    tally.fail("request2", "cost differs from the reference")
    assert (tally.attempted, tally.failed) == (4, 3)


def test_span_self_times_add_up_to_the_top_level_spans():
    spans = {
        "merlin": 10.0,
        "merlin/bubble_construct": 8.0,
        "merlin/bubble_construct/ptree": 5.0,
        "merlin/bubble_construct/ptree/curves.kernel.join": 2.0,
        "merlin/bubble_construct/finalize": 1.0,
        "merlin/bubble_construct/finalize/curves.kernel.prune": 0.25,
        "merlin/bubble_construct/ptree/curves.kernel.prune": 0.5,
    }
    own = span_self_times(spans)
    assert own == {"merlin": 2.0, "bubble_construct": 2.0, "ptree": 2.5,
                   "curves.kernel.join": 2.0, "finalize": 0.75,
                   "curves.kernel.prune": 0.75}
    assert sum(own.values()) == pytest.approx(spans["merlin"])


def test_layer_table_rows_and_remainder_add_up_to_the_wall():
    rows, rest = layer_table(4.0, [("a", 1.0), ("b", 2.5)])
    assert [r.share for r in rows] == [0.25, 0.625]
    assert rest.seconds == pytest.approx(0.5)
    assert sum(r.seconds for r in rows) + rest.seconds == pytest.approx(4.0)
    rows, rest = layer_table(1.0, [("a", 1.5)])
    assert rest.seconds == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        layer_table(0.0, [])


def test_serve_latency_splits_into_client_serve_service_and_engine():
    trace = {"wall_s": 10.0, "untraced_s": 9.9, "clients": 2, "ops": 300,
             "layers": {"_client_total_s": 18.0, "_handle_total_s": 15.0,
                        "_service_total_s": 12.0, "_job_total_s": 9.0}}
    wall, rows, rest = layers.table("serve", trace)
    assert wall == 20.0
    assert {r.name: r.seconds for r in rows} == {
        "client": 3.0, "serve": 3.0, "service": 3.0, "service.engine": 9.0}
    assert rest.seconds == pytest.approx(2.0)
    metrics = layers.per_layer_metrics("serve", trace)
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.1)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.1 / 9.9)
    assert metrics["curves.kernel.join_s"] == 0.0


def test_solve_engine_figures_are_reported_per_net():
    raw = {name: 0.0 for name in layers.PER_LAYER}
    raw.update({"curves.kernel.prune_s": 2.0, "core.merlin.iterations": 40,
                "core.star_ptree.shadow_skip_ratio": 0.5,
                "routing.evaluate_ms": 1.0, "_spans_total_s": 2.0})
    trace = {"wall_s": 4.0, "untraced_s": 3.2, "ops": 20, "layers": raw}
    metrics = layers.per_layer_metrics("solve", trace)
    assert metrics["curves.kernel.prune_s"] == pytest.approx(0.1)
    assert metrics["core.merlin.iterations"] == pytest.approx(2.0)
    assert metrics["core.star_ptree.shadow_skip_ratio"] == 0.5
    # 2.0 s of kernels + 20 evaluate calls of 1 ms out of a 4.0 s wall.
    assert metrics["trace.unattributed_frac"] == pytest.approx(1.98 / 4.0)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.25)
