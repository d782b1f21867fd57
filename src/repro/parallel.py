"""Process-parallel outer search: multi-seed starts.

The MERLIN engine is a deterministic, single-threaded function of
``(net, initial order, config)``.  What *is* embarrassingly parallel is
the outer search around it: restarting from several initial sink orders
(the paper's E4 ablation shows the local search is robust to the start,
but restarts still hedge against bad local optima).  This module fans
those whole-run units across a ``ProcessPoolExecutor``; batches of
distinct nets go through ``OptimizationService.optimize_many``.

Determinism is preserved by construction:

* Each task is one complete ``merlin()`` run — no shared mutable state
  crosses a process boundary, so a task's result is bit-identical to
  running it inline (``workers=1`` literally runs the same code path in
  this process, no pool involved).
* Results are collected **by task index**, not completion order, so the
  returned list, the best-pick tie-breaking (lowest cost, then lowest
  task index), and the merged instrumentation report are independent of
  worker scheduling.
* Each worker runs with its own fresh :class:`~repro.instrument.Recorder`
  (the parent's recorder — a live object full of open spans — is never
  pickled); per-task reports are merged in submission order via
  :func:`repro.instrument.merge_reports`.

Worker count resolution: an explicit ``workers=`` argument wins,
otherwise ``config.workers`` (default 1).  Counts above the task count
are clamped; 1 runs inline.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import MerlinConfig
from repro.core.merlin import merlin
from repro.core.objective import Objective
from repro.instrument import Recorder, merge_reports
from repro.net import Net
from repro.orders.heuristics import random_order
from repro.orders.order import Order
from repro.orders.tsp import tsp_order
from repro.resilience.errors import MerlinInputError
from repro.resilience.faults import fault_point
from repro.routing.export import tree_signature
from repro.routing.tree import RoutingTree
from repro.tech.technology import Technology


@dataclass(frozen=True)
class ParallelTask:
    """One independent MERLIN run (picklable unit of work)."""

    net: Net
    tech: Technology
    config: MerlinConfig
    objective: Objective
    #: None → the engine's default (TSP) initial order.
    initial_order: Optional[Order] = None
    #: Free-form tag carried through to the result ("seed=3", net name…).
    label: str = ""


@dataclass
class TaskResult:
    """The picklable summary a worker sends back for one task.

    Carries the routing tree and the scalar outcome, but not the engine's
    internal solution curves (deep recursive traceback chains that are
    expensive — and pointless — to pickle).
    """

    label: str
    net_name: str
    cost: float
    signature: str
    iterations: int
    converged: bool
    cost_trace: List[float]
    tree: RoutingTree
    #: Per-task instrumentation snapshot (always recorded in the worker).
    report: Dict[str, Any] = field(repr=False, default_factory=dict)


@dataclass
class ParallelOutcome:
    """What a driver returns: per-task results plus the deterministic
    cross-task aggregates."""

    #: One entry per task, in submission order.
    results: List[TaskResult]
    #: Lowest cost; ties broken by submission order.
    best: TaskResult
    #: All per-task reports merged in submission order.
    report: Dict[str, Any]


def _run_task(task: ParallelTask) -> TaskResult:
    """Execute one task with a fresh recorder (runs in the worker)."""
    fault_point("parallel.task", key=task.label or task.net.name)
    recorder = Recorder()
    config = task.config.with_(recorder=recorder)
    result = merlin(task.net, task.tech, config=config,
                    objective=task.objective,
                    initial_order=task.initial_order)
    return TaskResult(
        label=task.label,
        net_name=task.net.name,
        cost=task.objective.cost(result.best.solution),
        signature=tree_signature(result.tree),
        iterations=result.iterations,
        converged=result.converged,
        cost_trace=list(result.cost_trace),
        tree=result.tree,
        report=recorder.report(),
    )


def resolve_workers(workers: Optional[int], config: Optional[MerlinConfig],
                    n_tasks: int) -> int:
    """Effective worker count: explicit arg, else config, clamped."""
    if workers is None:
        workers = config.workers if config is not None else 1
    if workers < 1:
        raise MerlinInputError("workers must be >= 1")
    return max(1, min(workers, n_tasks))


def run_tasks(tasks: Sequence[ParallelTask],
              workers: Optional[int] = None) -> ParallelOutcome:
    """Run ``tasks`` across processes; see the module docstring.

    The parent's ``config.recorder`` (if any) is ignored — every worker
    records into its own fresh recorder and the merged report is
    returned on the outcome.
    """
    tasks = list(tasks)
    if not tasks:
        raise MerlinInputError("no tasks to run")
    n = resolve_workers(workers, tasks[0].config, len(tasks))
    stripped = [
        t if t.config.recorder is None
        else ParallelTask(net=t.net, tech=t.tech,
                          config=t.config.with_(recorder=None),
                          objective=t.objective,
                          initial_order=t.initial_order, label=t.label)
        for t in tasks
    ]
    if n == 1:
        results = [_run_task(t) for t in stripped]
    else:
        with ProcessPoolExecutor(max_workers=n) as pool:
            # pool.map yields in submission order regardless of which
            # worker finishes first — the determinism hinge.
            results = list(pool.map(_run_task, stripped))
    best = min(results, key=lambda r: r.cost)
    report = merge_reports(r.report for r in results)
    return ParallelOutcome(results=results, best=best, report=report)


def multi_start_orders(net: Net, seeds: Sequence[Optional[int]]
                       ) -> List[Tuple[str, Order]]:
    """The initial orders a multi-start sweep runs: seed ``None`` is the
    deterministic TSP order, integers are seeded random shuffles."""
    orders: List[Tuple[str, Order]] = []
    for seed in seeds:
        if seed is None:
            orders.append(("tsp", tsp_order(net)))
        else:
            orders.append((f"seed={seed}", random_order(net, seed=seed)))
    return orders


def run_multi_start(net: Net, tech: Technology,
                    config: Optional[MerlinConfig] = None,
                    objective: Optional[Objective] = None,
                    seeds: Sequence[Optional[int]] = (None, 1, 2, 3),
                    workers: Optional[int] = None) -> ParallelOutcome:
    """Restart MERLIN from several initial orders; keep the best tree."""
    config = config or MerlinConfig()
    objective = objective or Objective.max_required_time()
    tasks = [
        ParallelTask(net=net, tech=tech, config=config,
                     objective=objective, initial_order=order, label=label)
        for label, order in multi_start_orders(net, seeds)
    ]
    return run_tasks(tasks, workers=workers)


def default_worker_count() -> int:
    """A sensible pool size for this machine (used by CLI ``--workers 0``)."""
    return max(1, os.cpu_count() or 1)
