"""Chaos coverage for the closure pipeline: faults mid-closure.

The closure driver inherits the service's resilience story; these tests
prove the *pipeline-level* consequences:

* a **killed worker** mid-closure is retried by the service — closure
  converges to the same trees as a clean run;
* a **hung worker** (every job timing out) leaves the nets on their
  star estimates — closure still terminates with a valid, empty-tree
  result instead of spinning on the failing nets;
* an **exhausted budget** degrades nets down the ladder — closure
  accepts the degraded trees (tagged in ``degraded_nets``) and the
  service never caches them, so a later iteration (or run) recomputes
  at full quality rather than replaying the fallback.

The pool's initializer installs the active fault plan in every worker,
so the pool-path scenarios run under any start method.
"""

from __future__ import annotations

import pytest

from repro.core.config import MerlinConfig
from repro.instrument import names as metric
from repro.netlist.generator import CircuitSpec, generate_circuit
from repro.pipeline import ClosureConfig, run_closure
from repro.resilience.faults import FaultPlan, FaultSpec, use_fault_plan
from repro.routing.validate import validate_tree
from repro.service import OptimizationService, ResultCache
from repro.tech.technology import default_technology

TECH = default_technology()
CFG = MerlinConfig.test_preset()
SPEC = CircuitSpec(name="chaos_closure", primary_inputs=4,
                   primary_outputs=3, logic_gates=10, levels=3,
                   max_fanout=4, seed=3)


def _service(**kwargs):
    kwargs.setdefault("tech", TECH)
    kwargs.setdefault("config", CFG)
    kwargs.setdefault("cache", ResultCache())
    kwargs.setdefault("workers", 1)
    return OptimizationService(**kwargs)


def test_killed_worker_mid_closure_still_converges_clean(tmp_path):
    clean = run_closure(generate_circuit(SPEC), config=CFG,
                        closure=ClosureConfig(), workers=1)

    plan = FaultPlan(seed=1, specs=(
        FaultSpec(site="service.worker", kind="crash", times=1,
                  ledger=str(tmp_path / "closure.ledger")),
    ))
    with use_fault_plan(plan):
        with _service(workers=2) as service:
            chaotic = run_closure(generate_circuit(SPEC), service=service,
                                  closure=ClosureConfig())
            stats = service.stats()

    assert chaotic.converged
    assert not chaotic.degraded_nets
    assert chaotic.signatures() == clean.signatures()
    assert chaotic.critical_delay == clean.critical_delay
    assert stats["counters"][metric.RESILIENCE_POOL_REBUILDS] >= 1


def test_hung_workers_mid_closure_terminate_with_a_valid_result():
    # Every job hangs past the service timeout: all optimizations fail,
    # the nets keep their star estimates, and closure must converge
    # (the failed attempts are recorded, so nothing is retried forever).
    plan = FaultPlan(seed=4, specs=(
        FaultSpec(site="service.worker", kind="hang", hang_s=0.5,
                  times=None),
    ))
    with use_fault_plan(plan):
        with _service(workers=2, job_timeout_s=0.05) as service:
            outcome = run_closure(generate_circuit(SPEC), service=service,
                                  closure=ClosureConfig())

    assert outcome.converged
    assert outcome.nets_optimized == 0
    assert not outcome.trees
    # With nothing optimized the final delay is the star estimate.
    assert outcome.critical_delay == pytest.approx(outcome.estimate_delay)
    failed = {name for it in outcome.iterations for name in it.failed}
    assert failed  # the failures were reported, not swallowed
    assert outcome.iterations_to_converge <= 2


def test_budget_exhaustion_degrades_and_is_never_cached():
    with _service(budget_ops=1) as service:
        outcome = run_closure(generate_circuit(SPEC), service=service,
                              closure=ClosureConfig())
        stats = service.stats()

    assert outcome.converged
    for tree in outcome.trees.values():
        validate_tree(tree)
    delays = [it.critical_delay for it in outcome.iterations]
    assert all(delays[i] >= delays[i + 1] - 1e-6
               for i in range(len(delays) - 1))
    # Every optimized net rode the ladder, and none of those degraded
    # payloads went into the cache — a later iteration or run recomputes
    # them at full quality instead of replaying the fallback.
    if outcome.trees:
        assert outcome.degraded_nets == set(outcome.trees)
    assert stats["cache"]["size"] == 0
    assert stats["counters"][metric.RESILIENCE_DEGRADED] >= 1


def test_degraded_nets_are_recomputed_at_full_quality_later():
    cache = ResultCache()
    with _service(cache=cache, budget_ops=1) as tight:
        degraded_run = run_closure(generate_circuit(SPEC), service=tight,
                                   closure=ClosureConfig())
    with _service(cache=cache) as full:
        clean_run = run_closure(generate_circuit(SPEC), service=full,
                                closure=ClosureConfig())

    assert not clean_run.degraded_nets
    # The degraded run left nothing in the shared cache, so the clean
    # run computed everything fresh (zero hits) at full quality.
    assert sum(it.cache_hits for it in clean_run.iterations) == 0
    if degraded_run.trees and clean_run.trees:
        assert degraded_run.signatures() != clean_run.signatures()
