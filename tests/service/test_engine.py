"""OptimizationService: cache semantics, isolation, timeouts, fallback.

Failure injection: inline-path (``workers=1``) tests monkeypatch the
engine's ``_run_job``; pool-path tests arm a ``FaultPlan`` at the
``service.job`` site, which the pool's initializer installs in every
worker, so every test runs under any start method.  One pool-path test
swaps in a stand-in pool whose futures have already failed, which
starts no process at all.
"""

from __future__ import annotations

from concurrent.futures import Future

import pytest

import repro
from tests.conftest import build_net
from repro.core.config import MerlinConfig
from repro.experiments.nets import make_experiment_net
from repro.instrument import names as metric
from repro.net import Net, Sink
from repro.resilience.errors import MerlinInputError
from repro.resilience.faults import FaultPlan, FaultSpec, use_fault_plan
from repro.routing.validate import validate_tree
from repro.service import OptimizationService, ResultCache
from repro.service import engine as engine_mod
from repro.tech.technology import default_technology

TECH = default_technology()
CONFIG = MerlinConfig.test_preset()
_RUN_JOB = engine_mod._run_job


def _service(**kwargs):
    kwargs.setdefault("tech", TECH)
    kwargs.setdefault("config", CONFIG)
    kwargs.setdefault("cache", ResultCache())
    kwargs.setdefault("workers", 1)
    return OptimizationService(**kwargs)


def _poison_runner(job):
    if "poison" in job.net.name:
        raise RuntimeError("injected failure")
    return _RUN_JOB(job)


def _job_fault(kind, match, **kwargs):
    """A plan that fires at every ``service.job`` hit of nets whose name
    contains ``match``."""
    return use_fault_plan(FaultPlan(specs=(FaultSpec(
        site="service.job", kind=kind, times=None, match=match,
        **kwargs),)))


def _moved(net, dx, dy, name):
    """``net`` translated by (dx, dy), with itself and its sinks renamed:
    a canonical twin of it."""
    return Net(name=name, source=net.source.translated(dx, dy),
               sinks=tuple(Sink(f"{name}_s{k}", s.position.translated(dx, dy),
                                s.load, s.required_time)
                           for k, s in enumerate(net.sinks)))


def _assert_in_own_frame(result, net):
    assert result.ok
    assert result.tree.net is net
    assert result.tree.root.position == net.source
    validate_tree(result.tree)


# ----------------------------------------------------------------------
# Cache semantics (the acceptance criterion)
# ----------------------------------------------------------------------

def test_cache_hit_is_bit_identical_to_cold_run():
    with _service() as service:
        net = build_net(3, seed=5)
        cold = service.optimize(net)
        hit = service.optimize(net)
    assert cold.ok and not cold.cached
    assert hit.ok and hit.cached
    assert hit.signature == cold.signature  # bit-identical topology
    assert hit.cost == cold.cost
    assert hit.evaluation == cold.evaluation
    validate_tree(hit.tree)


def test_cache_counters_track_hits_and_misses():
    with _service() as service:
        net = build_net(3, seed=5)
        service.optimize(net)
        service.optimize(net)
        stats = service.stats()
    assert stats["counters"][metric.SERVICE_CACHE_MISSES] == 1
    assert stats["counters"][metric.SERVICE_CACHE_HITS] == 1
    assert stats["cache"]["hits"] == 1 and stats["cache"]["misses"] == 1
    assert stats["latency"][metric.SERVICE_REQUEST_LATENCY_S]["count"] == 2


def test_translated_net_hits_and_rebuilds_in_its_own_frame():
    with _service() as service:
        net = build_net(3, seed=6)
        moved = Net(
            name="moved",
            source=net.source.translated(500.0, -250.0),
            sinks=tuple(
                Sink(s.name, s.position.translated(500.0, -250.0),
                     s.load, s.required_time)
                for s in net.sinks
            ),
        )
        cold = service.optimize(net)
        hit = service.optimize(moved)
    assert hit.cached
    # Same topology, shifted frame: signatures differ by the offset but
    # the rebuilt tree is structurally valid for the *new* net ...
    validate_tree(hit.tree)
    assert hit.tree.net is moved
    # ... and translation-invariant metrics are preserved exactly.
    assert hit.evaluation == cold.evaluation
    assert hit.cost == cold.cost


def test_disk_cache_survives_service_restart(tmp_path):
    disk = str(tmp_path / "results")
    net = build_net(3, seed=7)
    with _service(cache=ResultCache(disk_dir=disk)) as first:
        cold = first.optimize(net)
    with _service(cache=ResultCache(disk_dir=disk)) as second:
        warm = second.optimize(net)
    assert warm.cached
    assert warm.signature == cold.signature


# ----------------------------------------------------------------------
# Batch execution
# ----------------------------------------------------------------------

def test_optimize_many_returns_results_in_order():
    nets = [build_net(3, seed=s, name=f"net{s}") for s in (1, 2, 3)]
    with _service(workers=2) as service:
        results = service.optimize_many(nets)
    assert [r.net_name for r in results] == ["net1", "net2", "net3"]
    assert all(r.ok for r in results)
    for result in results:
        validate_tree(result.tree)


def test_pool_and_serial_agree():
    nets = [build_net(3, seed=s, name=f"net{s}") for s in (4, 5)]
    with _service(workers=1) as serial:
        inline = serial.optimize_many(nets)
    with _service(workers=2) as pooled:
        warm = pooled.optimize_many(nets)
    assert [r.signature for r in inline] == [r.signature for r in warm]


def test_duplicate_nets_in_one_batch_hit_within_the_batch():
    net = build_net(3, seed=8)
    with _service() as service:
        results = service.optimize_many([net, net])
    assert not results[0].cached and results[1].cached
    assert results[0].signature == results[1].signature


def test_twin_answers_in_its_own_frame_after_its_entry_is_evicted():
    # b's miss evicts a's entry before the twin is answered.
    a, b = build_net(3, seed=5), build_net(3, seed=6)
    twin = _moved(a, 500.0, -250.0, "a_twin")
    with _service(cache=ResultCache(capacity=1)) as service:
        first, _, answer = service.optimize_many([a, b, twin])
        stats = service.stats()
    _assert_in_own_frame(answer, twin)
    assert answer.cached  # no DP ran for it
    assert answer.cost == first.cost
    assert answer.evaluation == first.evaluation
    assert stats["counters"][metric.SERVICE_JOBS] == 2
    assert stats["counters"][metric.SERVICE_CACHE_HITS] == 1


def test_degraded_twin_answers_in_its_own_frame():
    net = make_experiment_net("a", 4, 3)
    twin = _moved(net, 1000.0, 500.0, "twin")
    with _service(budget_ops=1) as service:
        first, answer = service.optimize_many([net, twin])
    _assert_in_own_frame(answer, twin)
    assert first.degraded and answer.degraded
    assert not answer.cached  # degraded answers never count as cached
    assert answer.degradation == first.degradation


# ----------------------------------------------------------------------
# Error isolation and timeouts
# ----------------------------------------------------------------------

def test_worker_exception_is_isolated_serial(monkeypatch):
    monkeypatch.setattr(engine_mod, "_run_job", _poison_runner)
    nets = [build_net(3, seed=1, name="ok1"),
            build_net(3, seed=2, name="poison"),
            build_net(3, seed=3, name="ok2")]
    with _service() as service:
        results = service.optimize_many(nets)
        stats = service.stats()
    assert [r.ok for r in results] == [True, False, True]
    assert "injected failure" in results[1].error
    assert stats["counters"][metric.SERVICE_JOB_FAILURES] == 1
    assert stats["counters"][metric.SERVICE_ERRORS] == 1


def test_worker_exception_is_isolated_in_the_pool():
    nets = [build_net(3, seed=1, name="ok1"),
            build_net(3, seed=2, name="poison"),
            build_net(3, seed=3, name="ok2")]
    with _job_fault("error", "poison", message="injected failure"), \
            _service(workers=2) as service:
        results = service.optimize_many(nets)
    assert [r.ok for r in results] == [True, False, True]
    assert "injected failure" in results[1].error
    for result in (results[0], results[2]):
        validate_tree(result.tree)


def test_job_timeout_does_not_fail_the_batch():
    nets = [build_net(3, seed=1, name="slow"),
            build_net(3, seed=2, name="fast")]
    with _job_fault("hang", "slow", hang_s=1.5), \
            _service(workers=2) as service:
        results = service.optimize_many(nets, timeout_s=0.25)
        stats = service.stats()
    assert not results[0].ok
    assert "timed out" in results[0].error
    assert results[1].ok
    assert stats["counters"][metric.SERVICE_JOB_TIMEOUTS] == 1


class _RaisedPool:
    """A stand-in pool: every submitted job has already raised ``exc``."""

    def __init__(self, exc):
        self.exc = exc

    def submit(self, fn, *args):
        future = Future()
        future.set_exception(self.exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_a_jobs_own_timeout_error_is_a_job_failure_in_the_pool():
    # Classified as on the inline path, not as a pool timeout.
    nets = [build_net(3, seed=1, name="a"), build_net(3, seed=2, name="b")]
    with _service(workers=2) as service:
        service._pool = _RaisedPool(TimeoutError("upstream read timed out"))
        results = service.optimize_many(nets)
        counters = service.stats()["counters"]
    assert [(r.ok, r.error_kind, r.error_stage) for r in results] == \
        [(False, "TimeoutError", "engine")] * 2
    assert "upstream read timed out" in results[0].error
    assert counters[metric.SERVICE_JOB_FAILURES] == 2
    assert metric.SERVICE_JOB_TIMEOUTS not in counters


def test_failed_jobs_are_not_cached(monkeypatch):
    monkeypatch.setattr(engine_mod, "_run_job", _poison_runner)
    net = build_net(3, seed=2, name="poison")
    with _service() as service:
        first = service.optimize(net)
        monkeypatch.setattr(engine_mod, "_run_job", _RUN_JOB)
        second = service.optimize(net)
    assert not first.ok
    assert second.ok and not second.cached  # the failure never cached


def test_twin_of_a_failed_job_carries_its_error_record(monkeypatch):
    monkeypatch.setattr(engine_mod, "_run_job", _poison_runner)
    net = build_net(3, seed=2, name="poison")
    with _service() as service:
        first, twin = service.optimize_many(
            [net, _moved(net, 10.0, 20.0, "twin")])
        counters = service.stats()["counters"]
    assert not first.ok and not twin.ok
    assert twin.error_record == first.error_record
    assert counters[metric.SERVICE_JOBS] == 1
    assert counters[metric.SERVICE_ERRORS] == 2


# ----------------------------------------------------------------------
# Degradation and lifecycle
# ----------------------------------------------------------------------

def test_serial_fallback_when_pool_unavailable():
    with _service(workers=4) as service:
        service._pool_disabled = "forced by test"
        results = service.optimize_many(
            [build_net(3, seed=s) for s in (1, 2)])
        stats = service.stats()
    assert all(r.ok for r in results)
    assert stats["execution_mode"] == "serial"
    assert stats["pool_disabled_reason"] == "forced by test"


def test_a_pool_shut_down_under_a_batch_is_rebuilt_and_counted():
    # As when another thread discards the warm pool between this batch
    # acquiring it and submitting to it.
    with _service(workers=2) as service:
        service.optimize_many([build_net(3, seed=s) for s in (1, 2)])
        service._pool.shutdown(wait=True)
        results = service.optimize_many(
            [build_net(3, seed=s) for s in (3, 4)])
        counters = service.stats()["counters"]
    assert all(r.ok for r in results)
    assert counters[metric.RESILIENCE_POOL_REBUILDS] == 1
    assert counters[metric.RESILIENCE_JOB_RETRIES] == 2


def test_workers_default_comes_from_config():
    service = _service(config=CONFIG.with_(workers=3), workers=None)
    assert service.workers == 3
    service.close()


def test_workers_validation():
    with pytest.raises(ValueError):
        _service(workers=0)


@pytest.mark.parametrize("kwargs,message", [
    (dict(budget_ops=-5), "budget_ops must be >= 0"),
    (dict(deadline_s=-1.0), "deadline_s must be >= 0"),
    (dict(job_timeout_s=0, workers=2), "job_timeout_s must be > 0"),
    (dict(job_timeout_s=-1.0), "job_timeout_s must be > 0"),
], ids=["budget", "deadline", "timeout-zero", "timeout-negative"])
def test_bad_limits_fail_the_constructor_not_every_job(kwargs, message):
    # Left to the jobs, a negative budget or deadline would fail each
    # one as the client's input error, a non-positive timeout as a
    # JobTimeoutError.
    with pytest.raises(MerlinInputError, match=message):
        _service(**kwargs)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("timeout_s", [0, -1, float("nan")],
                         ids=["zero", "negative", "nan"])
def test_a_bad_per_call_timeout_fails_the_call_not_its_jobs(timeout_s,
                                                           workers):
    # The per-call timeout gets the constructor's check, before any job
    # runs: on a pool it would time every job out, inline it was ignored.
    nets = [build_net(3, seed=s) for s in (1, 2)]
    with _service(workers=workers) as service:
        with pytest.raises(MerlinInputError, match="timeout_s must be > 0"):
            service.optimize_many(nets, timeout_s=timeout_s)
        with pytest.raises(MerlinInputError, match="timeout_s must be > 0"):
            repro.optimize(nets[0], service=service, timeout_s=timeout_s)
        stats = service.stats()
    assert metric.SERVICE_REQUESTS not in stats["counters"]
    assert stats["execution_mode"] != "pool"


def test_close_is_idempotent():
    service = _service(workers=2)
    service.optimize(build_net(3, seed=1))
    service.close()
    service.close()

