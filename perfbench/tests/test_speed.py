"""Reference-time arithmetic: a host that is uniformly slower stretches
the work and the probes alike, and the two cancel."""

import signal
import time

import pytest

import worker
from speed import (INTERVAL_S, LOCAL_PROBES, OUTLIER, REFERENCE_PROBE_S,
                   WINDOW_PAD_S, Sampler)


def sampled(*seconds):
    host = Sampler()
    host.samples = list(seconds)
    host.starts = [float(i) for i in range(len(seconds))]
    return host


def test_factor_is_reference_over_the_mean_probe():
    assert sampled(REFERENCE_PROBE_S, 3 * REFERENCE_PROBE_S).factor() == \
        pytest.approx(0.5)


def test_a_slower_host_and_slower_work_cancel():
    fast = sampled(*[REFERENCE_PROBE_S] * 4)
    slow = sampled(*[2 * REFERENCE_PROBE_S] * 4)
    windows = [(0.0, 1.0), (1.0, 3.0)]
    on_fast = worker.timed_phase(3.0, [1.0, 2.0], windows, fast)
    on_slow = worker.timed_phase(6.0, [2.0, 4.0], windows, slow)
    for phase in (on_fast, on_slow):
        assert phase["elapsed_s"] == pytest.approx(3.0)
        assert phase["latencies"] == pytest.approx([1.0, 2.0])
    assert on_slow["wall_latencies"] == [2.0, 4.0]


def test_a_latency_is_scaled_by_the_probes_around_it():
    n = LOCAL_PROBES + 2
    host = sampled(*[REFERENCE_PROBE_S] * n, *[2 * REFERENCE_PROBE_S] * n)
    host.starts = [i * WINDOW_PAD_S / 2 for i in range(2 * n)]
    step = WINDOW_PAD_S / 2
    assert host.factor() == pytest.approx(2 / 3)
    # Probes 0..n-1 lie within the pad around [2, n - 3] (in steps).
    assert host.factor(2 * step, (n - 3) * step) == pytest.approx(1.0)
    assert host.factor((n + 2) * step, None) == pytest.approx(0.5)
    # Too few probes around it: the whole phase's speed.
    assert host.factor(0.0, 0.0) == pytest.approx(2 / 3)


def test_a_stalled_probe_counts_as_a_few_medians():
    host = sampled(*[REFERENCE_PROBE_S] * 9, 100 * REFERENCE_PROBE_S)
    assert host.factor() == pytest.approx(10 / (9 + OUTLIER))


def test_probe_time_inside_an_interval_is_found():
    host = sampled(0.1, 0.2, 0.3)  # probes start at 0, 1 and 2 s
    assert host.probe_s(0.5, 2.0) == pytest.approx(0.2)
    assert host.probe_s(0.0) == pytest.approx(0.6)
    assert host.probe_s(2.5) == 0.0


def test_sampler_probes_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Sampler() as host:
        end = time.perf_counter() + 3 * INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(host.samples) >= 2
    assert host.starts == sorted(host.starts)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with Sampler(enabled=False) as idle:
        pass
    assert len(idle.samples) == 1
