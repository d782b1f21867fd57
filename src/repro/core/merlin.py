"""MERLIN: the outer local-neighborhood-search engine (Figure 14).

MERLIN repeatedly calls BUBBLE_CONSTRUCT; each call optimizes over the
whole neighborhood ``N(Π)`` of the current order and returns the order
realized by its best tree.  When that order differs from the input the
search has moved to a strictly better neighbor (Theorem 7) and iterates;
when it is unchanged a local optimum over the neighborhood structure has
been reached and the loop stops.

Implementation notes:

* The loop is additionally bounded by ``config.max_iterations`` (the paper
  bounds it by 3 in the Table 2 flow) and by a numeric
  strict-improvement check — with quantized curves a cosmetic order change
  at equal cost could otherwise cycle.
* The :class:`~repro.core.star_ptree.PTreeContext` (candidate geometry,
  sink base-curve caches) is shared across iterations, the practical core
  of the paper's keep-last-iteration's-curves speed-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.bubble_construct import (
    BubbleConstructResult,
    bubble_construct,
    make_context,
)
from repro.core.config import MerlinConfig
from repro.core.objective import Objective
from repro.instrument import names as metric
from repro.instrument.recorder import active_recorder, use_recorder
from repro.net import Net
from repro.orders.order import Order
from repro.orders.tsp import tsp_order
from repro.routing.tree import RoutingTree
from repro.tech.technology import Technology

#: Minimum cost improvement (ps or um^2, depending on the objective)
#: counted as progress; protects the loop against quantization noise.
_IMPROVEMENT_EPS = 1e-9


@dataclass
class MerlinResult:
    """The outcome of a full MERLIN run on one net."""

    #: Best tree found across all iterations.
    tree: RoutingTree
    #: The inner result that produced :attr:`tree`.
    best: BubbleConstructResult
    #: Number of BUBBLE_CONSTRUCT invocations ("Loops" column of Table 1).
    iterations: int
    #: True when the loop stopped at an order fixed point (rather than the
    #: iteration cap).
    converged: bool
    #: Objective cost after each iteration (strictly decreasing until the
    #: final visit, per Theorem 7).
    cost_trace: List[float] = field(default_factory=list)
    #: The sink order at the start of each iteration.
    order_trace: List[Order] = field(default_factory=list)


def merlin(net: Net, tech: Technology,
           config: Optional[MerlinConfig] = None,
           objective: Optional[Objective] = None,
           initial_order: Optional[Order] = None) -> MerlinResult:
    """Run MERLIN on ``net``; see module docstring.

    ``initial_order`` defaults to the TSP order, matching the paper's
    experimental setup (which also reports that the initial order has very
    little effect on the final quality — ablation E4 reproduces this).
    """
    config = config or MerlinConfig()
    objective = objective or Objective.max_required_time()
    rec = config.recorder if config.recorder is not None \
        else active_recorder()
    with use_recorder(rec), rec.span(metric.SPAN_MERLIN):
        order = initial_order or tsp_order(net)
        context = make_context(net, tech, config)

        best: Optional[BubbleConstructResult] = None
        best_cost = float("inf")
        cost_trace: List[float] = []
        order_trace: List[Order] = []
        converged = False
        iterations = 0

        budget = config.budget
        while iterations < config.max_iterations:
            if budget is not None:
                # One charge per outer iteration; the inner DP charges
                # the same budget per cell/range, so exhaustion can land
                # mid-iteration too.
                budget.charge(1, what="merlin.iteration")
            iterations += 1
            order_trace.append(order)
            result = bubble_construct(net, order, tech, config=config,
                                      objective=objective, context=context)
            cost = objective.cost(result.solution)
            cost_trace.append(cost)
            improved = cost < best_cost - _IMPROVEMENT_EPS
            if improved:
                best = result
                best_cost = cost
            if rec.enabled:
                rec.incr(metric.MERLIN_ITERATIONS)
                rec.event(metric.EVENT_MERLIN_ITERATION,
                          index=iterations, cost=cost,
                          order=list(order.seq),
                          order_out=list(result.order_out.seq),
                          improved=improved,
                          constraint_met=result.constraint_met)
            if result.order_out.seq == order.seq:
                converged = True
                break
            if not improved and best is not None:
                # The neighbor's optimum is no better than what we already
                # hold; by Theorem 7 this only happens at the final visit.
                converged = True
                break
            order = result.order_out

        assert best is not None  # the loop always runs at least once
    return MerlinResult(
        tree=best.tree,
        best=best,
        iterations=iterations,
        converged=converged,
        cost_trace=cost_trace,
        order_trace=order_trace,
    )
