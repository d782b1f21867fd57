"""Chaos suite: injected faults against the full service stack.

The acceptance scenarios of the resilience work:

* a **killed worker** (hard ``os._exit`` mid-pool) must not lose or
  corrupt any job — the pool rebuilds and every result matches the
  clean run bit for bit;
* a **corrupted disk-cache entry** (torn file or injected read
  corruption) must be quarantined and recomputed, never replayed;
* a **hung job** must surface as a resource-category timeout;
* an **exhausted budget** must yield a valid ``degraded`` tree whose
  signature matches the buffered-star fallback — and must not be
  cached;
* with **no plan installed** the whole framework must be invisible.

Everything runs under fixed fault seeds and is asserted twice where
determinism is the claim.  The pool's initializer installs the active
plan in every worker, so the pool-path scenarios run under any start
method.
"""

from __future__ import annotations

import json
import os

from tests.conftest import build_net
from repro.baselines.star import buffered_star
from repro.core.config import MerlinConfig
from repro.instrument import names as metric
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    use_fault_plan,
)
from repro.routing.export import tree_signature
from repro.routing.validate import validate_tree
from repro.service import OptimizationService, ResultCache
from repro.service import engine as engine_mod
from repro.service.cache import QUARANTINE_DIR
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


def _nets(n=3):
    return [build_net(3, seed=40 + i, name=f"chaos{i}") for i in range(n)]


def _clean_signatures(nets):
    with _service() as service:
        return [service.optimize(net).signature for net in nets]


# ----------------------------------------------------------------------
# Killed worker
# ----------------------------------------------------------------------

def test_killed_worker_results_match_the_clean_run(tmp_path):
    nets = _nets()
    clean = _clean_signatures(nets)

    def chaos_run(ledger):
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(site="service.worker", kind="crash", times=1,
                      ledger=ledger),
        ))
        with use_fault_plan(plan):
            with _service(workers=2) as service:
                results = service.optimize_many(nets)
                stats = service.stats()
        return results, stats

    results, stats = chaos_run(str(tmp_path / "crash1.ledger"))
    assert [r.ok for r in results] == [True, True, True]
    assert [r.signature for r in results] == clean
    assert not any(r.degraded for r in results)
    for r in results:
        validate_tree(r.tree)
    assert stats["counters"][metric.RESILIENCE_POOL_REBUILDS] >= 1
    assert stats["counters"][metric.RESILIENCE_JOB_RETRIES] >= 1

    # Same plan, fresh ledger: deterministic under the fixed fault seed.
    again, stats2 = chaos_run(str(tmp_path / "crash2.ledger"))
    assert [r.signature for r in again] == clean
    assert (stats2["counters"][metric.RESILIENCE_POOL_REBUILDS]
            == stats["counters"][metric.RESILIENCE_POOL_REBUILDS])


def test_repeated_crashes_fall_back_to_inline_and_still_answer(tmp_path):
    # Every pool attempt dies: after pool_retries rebuilds the service
    # must finish the jobs serially inline rather than failing them.
    nets = _nets(2)
    clean = _clean_signatures(nets)
    plan = FaultPlan(seed=1, specs=(
        FaultSpec(site="service.worker", kind="crash", times=None,
                  ledger=str(tmp_path / "crash.ledger")),
    ))
    with use_fault_plan(plan):
        with _service(workers=2, pool_retries=1) as service:
            results = service.optimize_many(nets)
            stats = service.stats()
    assert [r.ok for r in results] == [True, True]
    assert [r.signature for r in results] == clean
    assert stats["counters"][metric.RESILIENCE_POOL_REBUILDS] >= 2


# ----------------------------------------------------------------------
# Corrupted cache entries
# ----------------------------------------------------------------------

def test_torn_disk_entry_is_quarantined_and_recomputed(tmp_path):
    disk = str(tmp_path / "cache")
    net = build_net(3, seed=50)
    with _service(cache=ResultCache(disk_dir=disk)) as service:
        cold = service.optimize(net)
        (entry,) = [f for f in os.listdir(disk) if f.endswith(".json")]
        path = os.path.join(disk, entry)
        blob = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(blob[: len(blob) // 2])  # torn mid-write
        service.cache.clear()  # force the next get to the disk tier

        warm = service.optimize(net)
        stats = service.stats()

    assert warm.ok and warm.signature == cold.signature
    assert not warm.cached  # the corrupt entry was NOT replayed
    assert stats["cache"]["corruptions"] == 1
    assert stats["cache"]["quarantined"] == 1
    assert stats["counters"][metric.RESILIENCE_CACHE_CORRUPTIONS] == 1
    assert stats["counters"][metric.RESILIENCE_CACHE_QUARANTINED] == 1
    quarantined = os.listdir(os.path.join(disk, QUARANTINE_DIR))
    assert quarantined == [entry]
    # The recompute overwrote the entry with a valid one.
    fresh = json.load(open(os.path.join(disk, entry), encoding="utf-8"))
    assert fresh["version"] == 2


def test_injected_read_corruption_behaves_like_a_torn_file(tmp_path):
    disk = str(tmp_path / "cache")
    net = build_net(3, seed=51)
    plan = FaultPlan(seed=2, specs=(
        FaultSpec(site="service.cache.read", kind="corrupt", times=1),
    ))
    with _service(cache=ResultCache(disk_dir=disk)) as service:
        cold = service.optimize(net)
        service.cache.clear()
        with use_fault_plan(plan):
            warm = service.optimize(net)
        stats = service.stats()
    assert warm.ok and warm.signature == cold.signature
    assert stats["cache"]["corruptions"] == 1
    assert stats["counters"][metric.RESILIENCE_CACHE_CORRUPTIONS] == 1


def test_injected_write_corruption_never_reaches_a_reader(tmp_path):
    disk = str(tmp_path / "cache")
    net = build_net(3, seed=52)
    plan = FaultPlan(seed=3, specs=(
        FaultSpec(site="service.cache.write", kind="corrupt", times=1),
    ))
    with _service(cache=ResultCache(disk_dir=disk)) as service:
        with use_fault_plan(plan):
            cold = service.optimize(net)  # the disk write was mangled
        service.cache.clear()
        warm = service.optimize(net)  # detects, quarantines, recomputes
        stats = service.stats()
    assert warm.ok and warm.signature == cold.signature
    assert stats["cache"]["corruptions"] == 1


# ----------------------------------------------------------------------
# Hangs and timeouts
# ----------------------------------------------------------------------

def test_hung_worker_surfaces_as_a_resource_timeout():
    plan = FaultPlan(seed=4, specs=(
        FaultSpec(site="service.worker", kind="hang", hang_s=2.0,
                  times=None),
    ))
    net = build_net(3, seed=53)
    with use_fault_plan(plan):
        with _service(workers=2) as service:
            result = service.optimize(net, timeout_s=0.1)
            stats = service.stats()
    assert not result.ok
    assert result.error_kind == "JobTimeoutError"
    assert result.error_category == "resource"
    assert result.error_stage == "pool"
    assert "timed out" in result.error
    assert stats["counters"][metric.SERVICE_JOB_TIMEOUTS] == 1


# ----------------------------------------------------------------------
# Budget exhaustion through the service
# ----------------------------------------------------------------------

def test_exhausted_budget_degrades_to_star_and_is_never_cached():
    net = build_net(3, seed=54)
    star_sig = tree_signature(buffered_star(net, TECH))
    with _service(budget_ops=1) as service:
        first = service.optimize(net)
        second = service.optimize(net)
        stats = service.stats()
    for result in (first, second):
        assert result.ok
        assert result.degraded
        assert result.signature == star_sig
        assert result.degradation["rung"] == "buffered_star"
        assert "budget exhausted" in result.degradation["reason"]
        assert not result.cached  # degraded answers must not be cached
        validate_tree(result.tree)
    assert stats["cache"]["size"] == 0
    assert stats["counters"][metric.RESILIENCE_DEGRADED] == 2
    assert stats["counters"][metric.RESILIENCE_BUDGET_EXHAUSTED] >= 2
    assert stats["budget_ops"] == 1
    # The degradation detail survives the wire format too.
    body = first.to_dict()
    assert body["degraded"] is True
    assert body["degradation"]["attempts"]


def test_degraded_and_full_quality_answers_do_not_cross_pollinate():
    net = build_net(3, seed=55)
    cache = ResultCache()
    with _service(cache=cache) as full_service:
        full = full_service.optimize(net)
    with _service(cache=cache, budget_ops=1) as tight_service:
        degraded = tight_service.optimize(net)
    assert degraded.cached and degraded.signature == full.signature, (
        "a full-quality cache entry SHOULD satisfy a budgeted request — "
        "the budget is not part of the problem")
    assert not degraded.degraded


# ----------------------------------------------------------------------
# The no-fault golden path
# ----------------------------------------------------------------------

def test_no_plan_no_budget_results_are_untouched():
    nets = _nets()
    baseline = _clean_signatures(nets)
    with _service() as service:
        results = service.optimize_many(nets)
        stats = service.stats()
    assert [r.signature for r in results] == baseline
    assert not any(r.degraded for r in results)
    counters = stats["counters"]
    for name in (metric.RESILIENCE_FAULTS_INJECTED,
                 metric.RESILIENCE_POOL_REBUILDS,
                 metric.RESILIENCE_DEGRADED,
                 metric.RESILIENCE_CACHE_CORRUPTIONS):
        assert counters.get(name, 0) == 0


# ----------------------------------------------------------------------
# Structured per-job error records
# ----------------------------------------------------------------------

def _input_poison_runner(job):
    from repro.resilience.errors import MalformedNetError

    if "poison" in job.net.name:
        raise MalformedNetError("sink #0: load must be non-negative",
                                stage="net")
    return _RUN_JOB(job)


def test_optimize_many_reports_structured_records_per_job(monkeypatch):
    good = build_net(3, seed=56, name="fine")
    bad = build_net(3, seed=57, name="poison")
    monkeypatch.setattr(engine_mod, "_run_job", _input_poison_runner)
    with _service() as service:
        fine, poisoned = service.optimize_many([good, bad])
    assert fine.ok and not fine.degraded
    assert not poisoned.ok
    assert poisoned.error_kind == "MalformedNetError"
    assert poisoned.error_category == "input"
    assert poisoned.error_stage == "net"
    detail = poisoned.to_dict()["error_detail"]
    assert detail["kind"] == "MalformedNetError"
    assert detail["category"] == "input"
