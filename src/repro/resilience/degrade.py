"""The graceful-degradation ladder: always answer with a valid tree.

``run_with_ladder`` wraps the engine in a sequence of progressively
cheaper strategies ("rungs") and returns the first one that completes
within its compute budget:

1. ``multi_start``     — restarts from several initial orders (only when
   the caller asked for seeds); the full-quality path.
2. ``single_start``    — one deterministic MERLIN run from the TSP
   order; what the service runs by default.
3. ``coarse_curves``   — one MERLIN iteration under aggressively
   coarsened knobs (4x curve quantization steps, thinned candidates and
   library, α ≤ 3): the DP's pseudo-polynomial terms shrink by orders
   of magnitude, trading quality for a much smaller op count.
4. ``buffered_star``   — the O(n) search-free baseline
   (:func:`repro.baselines.star.buffered_star`); cannot exhaust any
   budget and cannot fail on a valid net.

Budget semantics: every rung (and every start within the multi-start
rung) is charged against a *child* of the caller's budget — a fresh ops
counter over a shared absolute deadline (see
:meth:`~repro.resilience.budget.ComputeBudget.child`).  Ops exhaustion
is therefore deterministic per rung, while wall-clock keeps draining
across rungs so the ladder cannot extend a deadline by falling.

The outcome is always tagged: ``degraded=False`` with ``rung`` naming
the first (intended) strategy when nothing failed — bit-identical to
calling that strategy directly, which keeps golden signatures stable —
or ``degraded=True`` with the machine-readable ``attempts`` log and a
human-readable ``reason`` otherwise.

Layering note: this module sits low (``resilience`` is rank 1) so the
engine can import the taxonomy; its imports of the engine, the parallel
drivers and the star baseline are deliberately lazy (function-body),
the sanctioned pattern the ``LAY-UPWARD`` rule exempts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.instrument import names as metric
from repro.instrument.recorder import active_recorder
from repro.resilience.budget import ComputeBudget
from repro.resilience.errors import (
    BudgetExhaustedError,
    MerlinInputError,
    classify,
)

RUNG_MULTI_START = "multi_start"
RUNG_SINGLE_START = "single_start"
RUNG_COARSE = "coarse_curves"
RUNG_STAR = "buffered_star"

#: Ladder order, top (best quality) to bottom (cheapest).
LADDER_RUNGS = (RUNG_MULTI_START, RUNG_SINGLE_START, RUNG_COARSE, RUNG_STAR)


@dataclass
class LadderOutcome:
    """What :func:`run_with_ladder` returns, whichever rung answered."""

    tree: Any
    signature: str
    cost: float
    iterations: int
    converged: bool
    #: The rung that produced :attr:`tree` (one of :data:`LADDER_RUNGS`).
    rung: str
    #: True when any higher rung failed before this one answered.
    degraded: bool
    #: Human-readable summary of why degradation happened (None when not).
    reason: Optional[str] = None
    #: One entry per failed rung: ``{"rung": ..., "error": record dict}``.
    attempts: List[Dict[str, Any]] = field(default_factory=list)
    cost_trace: List[float] = field(default_factory=list)


def coarsened_config(config: Any) -> Any:
    """The ``coarse_curves`` rung's knobs: ``config`` with every
    pseudo-polynomial term cut hard (4x coarser curve quantization,
    candidate/library thinning, α ≤ 3, a single outer iteration)."""
    curve = dataclasses.replace(
        config.curve,
        load_step=config.curve.load_step * 4,
        area_step=config.curve.area_step * 4,
        max_solutions=max(2, min(config.curve.max_solutions, 4)),
    )
    changes: Dict[str, Any] = {
        "curve": curve,
        "max_iterations": 1,
        "alpha": min(config.alpha, 3),
        "relocation_rounds": min(config.relocation_rounds, 1),
        "wire_width_options": (config.wire_width_options[0],),
    }
    if config.max_candidates is None or config.max_candidates > 5:
        changes["max_candidates"] = 5
    if config.library_subset is None or config.library_subset > 3:
        changes["library_subset"] = 3
    return config.with_(**changes)


def run_with_ladder(net: Any, tech: Any, config: Any = None,
                    objective: Any = None,
                    budget: Optional[ComputeBudget] = None,
                    seeds: Optional[Sequence[Optional[int]]] = None,
                    workers: Optional[int] = None) -> LadderOutcome:
    """Optimize ``net`` down the degradation ladder; see module docstring.

    ``seeds`` (two or more entries) enables the ``multi_start`` top
    rung; otherwise the ladder starts at ``single_start``.  ``budget``
    is optional — without one the first rung simply runs to completion
    and only genuine engine failures cause degradation.
    """
    from repro.core.config import MerlinConfig
    from repro.core.objective import Objective

    config = config or MerlinConfig()
    objective = objective or Objective.max_required_time()
    if budget is not None:
        budget.start()

    rungs: List[Tuple[str, Callable[[], LadderOutcome]]] = []
    if seeds is not None and len(seeds) >= 2:
        rungs.append((RUNG_MULTI_START, lambda: _run_multi_start(
            net, tech, config, objective, budget, seeds, workers)))
    rungs.append((RUNG_SINGLE_START, lambda: _run_merlin(
        net, tech, config, objective, budget, RUNG_SINGLE_START)))
    rungs.append((RUNG_COARSE, lambda: _run_merlin(
        net, tech, coarsened_config(config), objective, budget,
        RUNG_COARSE)))

    rec = active_recorder()
    attempts: List[Dict[str, Any]] = []
    outcome: Optional[LadderOutcome] = None
    for rung, runner in rungs:
        try:
            outcome = runner()
            break
        except MerlinInputError:
            # Bad input fails every rung identically; degrading would
            # only mask it. Let the caller's error isolation handle it.
            raise
        except BudgetExhaustedError as exc:
            if rec.enabled:
                rec.incr(metric.RESILIENCE_BUDGET_EXHAUSTED)
            attempts.append({"rung": rung,
                             "error": classify(exc, stage=rung).to_dict()})
        except Exception as exc:
            attempts.append({"rung": rung,
                             "error": classify(exc, stage=rung).to_dict()})
    if outcome is None:
        outcome = _run_star(net, tech, objective)

    if attempts:
        outcome.degraded = True
        outcome.attempts = attempts
        outcome.reason = "; ".join(
            f"{a['rung']}: {a['error']['message']}" for a in attempts)
        if rec.enabled:
            rec.incr(metric.RESILIENCE_DEGRADED)
            rec.event(metric.EVENT_DEGRADATION,
                      net=net.name, rung=outcome.rung,
                      reason=outcome.reason, attempts=len(attempts))
    return outcome


# -- rung runners ------------------------------------------------------


def _child_budget(budget: Optional[ComputeBudget]) -> Optional[ComputeBudget]:
    return budget.child() if budget is not None else None


def _run_merlin(net: Any, tech: Any, config: Any, objective: Any,
                budget: Optional[ComputeBudget], rung: str) -> LadderOutcome:
    from repro.core.merlin import merlin
    from repro.routing.export import tree_signature

    result = merlin(net, tech,
                    config=config.with_(budget=_child_budget(budget)),
                    objective=objective)
    return LadderOutcome(
        tree=result.tree,
        signature=tree_signature(result.tree),
        cost=objective.cost(result.best.solution),
        iterations=result.iterations,
        converged=result.converged,
        rung=rung,
        degraded=False,
        cost_trace=list(result.cost_trace),
    )


def _run_multi_start(net: Any, tech: Any, config: Any, objective: Any,
                     budget: Optional[ComputeBudget],
                     seeds: Sequence[Optional[int]],
                     workers: Optional[int]) -> LadderOutcome:
    from repro import parallel

    # Each start charges its own child budget (fresh ops counter), so
    # exhaustion is per-start deterministic and independent of whether
    # the starts run serially or across a pool.
    tasks = [
        parallel.ParallelTask(
            net=net, tech=tech,
            config=config.with_(budget=_child_budget(budget)),
            objective=objective, initial_order=order, label=label)
        for label, order in parallel.multi_start_orders(net, seeds)
    ]
    result = parallel.run_tasks(tasks, workers=workers)
    best = result.best
    return LadderOutcome(
        tree=best.tree,
        signature=best.signature,
        cost=best.cost,
        iterations=best.iterations,
        converged=best.converged,
        rung=RUNG_MULTI_START,
        degraded=False,
        cost_trace=list(best.cost_trace),
    )


def _run_star(net: Any, tech: Any, objective: Any) -> LadderOutcome:
    """The budget-free floor: cannot fail on a valid net."""
    from repro.baselines.star import buffered_star
    from repro.routing.evaluate import evaluate_tree
    from repro.routing.export import tree_signature

    tree = buffered_star(net, tech)
    evaluation = evaluate_tree(tree, tech)
    return LadderOutcome(
        tree=tree,
        signature=tree_signature(tree),
        cost=_evaluation_cost(objective, evaluation),
        iterations=0,
        converged=False,
        rung=RUNG_STAR,
        degraded=False,
    )


def _evaluation_cost(objective: Any, evaluation: Any) -> float:
    """The objective scalar computed from a tree evaluation (the star
    rung has no DP solution to ask :meth:`Objective.cost` about)."""
    if objective.kind == "min_area":
        return float(evaluation.buffer_area)
    return -float(evaluation.required_time_at_driver)
