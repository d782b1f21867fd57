"""BUBBLE_CONSTRUCT: the inner optimization engine (Figure 9).

Given a net, an initial sink order Π, a candidate set P and a buffer
library B, BUBBLE_CONSTRUCT computes — in one bottom-up dynamic program —
the non-inferior set of hierarchical buffered routing trees over the
*entire neighborhood* ``N(Π)`` of sink orders (Theorem 4), where the
hierarchy is a Cα_Tree and each hierarchy level is routed by *PTREE.

Table layout
------------
``Γ[(l, e, r)][c]`` is the solution curve for the sub-group of ``l`` sinks
with grouping structure ``e`` whose span ends at order position ``r``
(0-based), rooted at candidate index ``c``.  Construction proceeds by
increasing ``l``; a parent group Ω of ``L`` sinks absorbs exactly one
already-built child group ω (possibly a single sink) plus the remaining
``L - l ≤ α - 1`` sinks of its level, routed in the effective bubble-out
order by *PTREE (see :mod:`repro.core.grouping`).

Identical level sub-problems shared between neighboring orders are
computed once (Lemma 7) via a memo keyed by the level's leaf identity.

Cross-iteration sharing
-----------------------
MERLIN's outer loop re-runs BUBBLE_CONSTRUCT with a (usually slightly)
changed order against the same :class:`PTreeContext`.  Both the Γ table
and the range memo are therefore additionally keyed by *content* on the
shared context: a sink's content is its fingerprint ``(index, x, y,
load, required_time)``, and a group cell's content is — inductively —
its ``(size, e)`` plus the ordered fingerprints of its member sinks
(group validity, the level plan, and the active-candidate box are all
parent-relative, so nothing else can influence the cell).  When a new
iteration presents a group whose member fingerprints are unchanged, its
Γ slice (and any sub-range) is reused without touching the DP — the
paper's "keep the curves of the last iteration" speed-up applied at
every table granularity.  Mutating a sink changes its fingerprint and
invalidates exactly the cells that contain it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import MerlinConfig
from repro.core.grouping import (
    Group,
    child_sizes,
    enumerate_groups,
    level_plan,
)
from repro.core.objective import Objective
from repro.core.star_ptree import LeafCurves, PTreeContext
from repro.instrument import names as metric
from repro.instrument.recorder import active_recorder, use_recorder
from repro.curves.solution import DriverArm, Solution
from repro.geometry.candidates import generate_candidates
from repro.geometry.point import Point
from repro.net import Net
from repro.orders.order import Order
from repro.routing.builder import build_tree
from repro.routing.sink_order import extract_sink_order
from repro.routing.tree import RoutingTree
from repro.tech.technology import Technology


@dataclass
class BubbleConstructResult:
    """Everything one BUBBLE_CONSTRUCT invocation produces."""

    #: The extracted best tree (line 23).
    tree: RoutingTree
    #: The winning final solution (line 21).
    solution: Solution
    #: The sink order realized by the tree — possibly a neighbor of the
    #: input order; MERLIN feeds this into the next iteration.
    order_out: Order
    #: The full final non-inferior curve at the driver (for trade-off plots
    #: and for variant II area scans).
    final_solutions: List[Solution]
    #: True when the winning solution satisfies the objective's constraint;
    #: False means no curve point was feasible and the reported solution is
    #: the unconstrained best.
    constraint_met: bool
    #: Instrumentation: table cells, *PTREE invocations, memo hits.
    stats: Dict[str, int] = field(default_factory=dict)


def bubble_construct(net: Net, order: Order, tech: Technology,
                     config: Optional[MerlinConfig] = None,
                     objective: Optional[Objective] = None,
                     context: Optional[PTreeContext] = None,
                     ) -> BubbleConstructResult:
    """Run BUBBLE_CONSTRUCT on ``net`` with initial order ``order``.

    Parameters
    ----------
    context:
        A prepared :class:`PTreeContext`; pass the same one across MERLIN
        iterations to reuse the candidate geometry and sink base-curve
        caches (the paper's "keep the solution curves of the very last
        iteration" speed-up, applied at the base-curve level where the
        sharing is exact).
    """
    config = config or MerlinConfig()
    objective = objective or Objective.max_required_time()
    n = len(net)
    if len(order) != n:
        raise ValueError(f"order has {len(order)} elements, net has {n} sinks")
    context = context or make_context(net, tech, config)

    rec = config.recorder if config.recorder is not None \
        else active_recorder()
    with use_recorder(rec), rec.span(metric.SPAN_BUBBLE_CONSTRUCT):
        engine = _Engine(net, order, config, context)
        gamma_final = engine.run()
        with rec.span(metric.SPAN_FINALIZE):
            final = _finalize(net, context, gamma_final)
    if rec.enabled:
        rec.incr(metric.BUBBLE_CELLS, engine.stats["cells"])
        rec.incr(metric.BUBBLE_RANGES, engine.stats["ranges"])
        rec.incr(metric.BUBBLE_RANGE_MEMO_HITS,
                 engine.stats["range_memo_hits"])
        rec.incr(metric.BUBBLE_LEVELS, engine.stats["levels"])
        rec.incr(metric.BUBBLE_GAMMA_MEMO_HITS,
                 engine.stats["gamma_memo_hits"])
    for curve_solutions in (final,):
        if not curve_solutions:
            raise RuntimeError(
                f"net {net.name}: empty final solution curve — the candidate "
                "set or curve capacity is too small")

    best = objective.select(final)
    constraint_met = best is not None
    if best is None:
        # Constraint unreachable: report the best-trade-off solution (near
        # the curve's best required time at the least area) rather than
        # the raw maximum, which may pay hundreds of um^2 for noise-level
        # required-time gains.
        best = Objective.best_tradeoff(tolerance=25.0).select(final)
    tree = build_tree(net, best)
    return BubbleConstructResult(
        tree=tree,
        solution=best,
        order_out=Order.from_sequence(extract_sink_order(tree)),
        final_solutions=final,
        constraint_met=constraint_met,
        stats=engine.stats,
    )


def make_context(net: Net, tech: Technology,
                 config: MerlinConfig) -> PTreeContext:
    """Build the per-net :class:`PTreeContext` (candidates + tech prep)."""
    candidates = generate_candidates(
        net.source, net.sink_positions,
        strategy=config.candidate_strategy,
        max_candidates=config.max_candidates,
    )
    if net.source not in candidates:
        candidates.append(net.source)
    if config.library_subset is not None:
        tech = tech.with_buffers(tech.buffers.subset(config.library_subset))
    return PTreeContext(candidates, tech, config.curve,
                        config.relocation_rounds,
                        wire_widths=config.wire_width_options)


class _Engine:
    """One DP run: owns the Γ table and the cross-level range memos.

    Lemma 7 says identical sub-problems among neighborhood members are
    processed once.  The engine realizes that with *range memoization*:
    every *PTREE sub-range is keyed by its leaf content — the sink
    fingerprint for a sink leaf, the group's ``(size, e)`` plus ordered
    member fingerprints for a sub-group leaf — so contiguous sink runs
    and group contexts shared between different hierarchy levels, different
    grouping structures, *and different MERLIN iterations* are computed
    once.  Both memos (ranges, and whole Γ cells in
    :meth:`_build_parent`) live on the shared :class:`PTreeContext`; the
    content keys make the sharing exact — see the module docstring.
    """

    #: Soft cap on each context-attached memo; cleared wholesale when
    #: exceeded (keys are content tuples, so there is no useful LRU
    #: structure worth maintaining at this size).
    MEMO_CAP = 50_000

    def __init__(self, net: Net, order: Order, config: MerlinConfig,
                 context: PTreeContext):
        self.net = net
        self.order = order
        self.config = config
        self.context = context
        #: Cooperative compute budget; charged once per parent cell and
        #: per computed range, the DP's natural units of work.
        self.budget = config.budget
        self.stats: Dict[str, int] = {
            "cells": 0, "ranges": 0, "range_memo_hits": 0, "levels": 0,
            "gamma_memo_hits": 0,
        }
        self.rec = active_recorder()
        if config.active_margin_frac is None:
            self._margin = None
        else:
            self._margin = (config.active_margin_frac
                            * net.bounding_box.half_perimeter)
        try:
            self._source_index: Optional[int] = \
                context.candidates.index(net.source)
        except ValueError:
            self._source_index = None
        # Γ[(l, e, r)] -> frozen per-candidate solution lists.
        self.gamma: Dict[Tuple[int, int, int], List[List[Solution]]] = {}
        if not hasattr(context, "range_memo"):
            context.range_memo = {}  # type: ignore[attr-defined]
        if not hasattr(context, "gamma_memo"):
            context.gamma_memo = {}  # type: ignore[attr-defined]
        if not hasattr(context, "sink_base_cache"):
            context.sink_base_cache = {}  # type: ignore[attr-defined]
        self._range_memo: Dict[tuple, List[List[Solution]]] = \
            context.range_memo  # type: ignore[attr-defined]
        self._gamma_memo: Dict[tuple, List[List[Solution]]] = \
            context.gamma_memo  # type: ignore[attr-defined]
        self._sink_base: Dict[tuple, LeafCurves] = \
            context.sink_base_cache  # type: ignore[attr-defined]
        n = len(net)
        #: Per-sink content fingerprints: identity, geometry, and timing —
        #: everything a sink contributes to any curve containing it.
        self._fps: List[tuple] = []
        for i in range(n):
            sink = net.sink(i)
            self._fps.append((i, sink.position.x, sink.position.y,
                              sink.load, sink.required_time))
        #: Everything else a cell's content can depend on.  The curve
        #: config, candidate set, wire widths, and tech are fixed per
        #: context; the per-run knobs are the group-shape parameters and
        #: the active-box margin (``relocation_rounds`` lives on the
        #: context itself).
        self._salt = (n, config.alpha, config.enable_bubbling, self._margin)
        #: Per-run cache: leaf id -> content id (the group translation
        #: walks member positions, so amortize it per run).
        self._content_ids: Dict[tuple, tuple] = {}

    # -- content keys ---------------------------------------------------

    def _content_id(self, leaf_id: tuple) -> tuple:
        """Order-independent content of one range leaf."""
        cached = self._content_ids.get(leaf_id)
        if cached is None:
            if leaf_id[0] == "s":
                cached = ("s", self._fps[leaf_id[1]])
            else:
                _, size, e, r = leaf_id
                group = Group(size=size, e=e, r=r)
                fps = self._fps
                order = self.order
                cached = ("g", size, e, tuple(
                    fps[order[q]] for q in group.member_positions))
            self._content_ids[leaf_id] = cached
        return cached

    def _group_content_key(self, group: Group) -> tuple:
        """Content key of one Γ cell (see the module docstring)."""
        fps = self._fps
        order = self.order
        return (self._salt, group.size, group.e,
                tuple(fps[order[q]] for q in group.member_positions))

    # -- base curves ---------------------------------------------------

    def sink_base(self, sink_index: int) -> LeafCurves:
        fp = self._fps[sink_index]
        cached = self._sink_base.get(fp)
        if cached is None:
            sink = self.net.sink(sink_index)
            cached = self.context.sink_base_curves(
                sink_index, sink.position, sink.load, sink.required_time)
            self._sink_base[fp] = cached
        return cached

    # -- DP ------------------------------------------------------------

    def run(self) -> List[List[Solution]]:
        n = len(self.net)
        bubbling = self.config.enable_bubbling
        # INITIALIZATION (lines 1-4): single-sink groups for every valid
        # grouping structure and span position.
        for group in enumerate_groups(n, 1, bubbling):
            position = group.member_positions[0]
            self.gamma[_key(group)] = self.sink_base(self.order[position])
            self.stats["cells"] += 1

        # CONSTRUCTION (lines 5-20).
        for parent_size in range(2, n + 1):
            for parent in enumerate_groups(n, parent_size, bubbling):
                self._build_parent(parent)
        return self.gamma[(n, 0, n - 1)]

    def _build_parent(self, parent: Group) -> None:
        rec = self.rec
        memo = self._gamma_memo
        mkey = self._group_content_key(parent)
        cached = memo.get(mkey)
        if cached is not None:
            # Unchanged member fingerprints: the whole cell (including
            # every level routing below it) is reused from a previous
            # iteration; no budget is charged, like range-memo hits.
            self.gamma[_key(parent)] = cached
            self.stats["gamma_memo_hits"] += 1
            return
        if self.budget is not None:
            self.budget.charge(1, what="bubble.cell")
        curves = self.context.new_curves()
        contributed = False
        for child_size in child_sizes(parent.size, self.config.alpha):
            for child in self._children(parent, child_size):
                plan = level_plan(parent, child)
                if plan is None:
                    continue
                child_gamma = self.gamma.get(_key(child))
                if child_gamma is None:
                    continue
                result = self._route_level(plan, child)
                contributed = True
                for curve, solutions in zip(curves, result):
                    curve.extend(solutions)
        if not contributed:
            return
        if rec.enabled:
            pre = sum(len(curve) for curve in curves)
        for curve in curves:
            curve.prune()
        blocks = self.context.freeze_curves(curves)
        self.gamma[_key(parent)] = blocks
        if len(memo) >= self.MEMO_CAP:
            memo.clear()
        memo[mkey] = blocks
        self.stats["cells"] += 1
        if rec.enabled:
            post = sum(len(curve) for curve in curves)
            rec.record(metric.BUBBLE_CURVE_SIZE_PRE, pre)
            rec.record(metric.BUBBLE_CURVE_SIZE_POST, post)
            rec.record(metric.BUBBLE_PRUNE_RATIO,
                       post / pre if pre else 1.0)
            rec.record(metric.level_curve_size_pre(parent.size), pre)
            rec.record(metric.level_curve_size_post(parent.size), post)

    def _children(self, parent: Group, child_size: int):
        """Valid child groups whose span lies inside the parent's span."""
        codes = (0, 1, 2, 3) if self.config.enable_bubbling else (0,)
        from repro.core.grouping import make_group

        n = len(self.net)
        for e in codes:
            for r in range(parent.span_left, parent.r + 1):
                child = make_group(r, child_size, e, n)
                if child is not None and child.span_left >= parent.span_left:
                    yield child

    def _route_level(self, plan, child: Group) -> List[List[Solution]]:
        """Route one hierarchy level through the memoized range DP."""
        leaf_ids: List[tuple] = []
        for kind, q in plan.leaves:
            if kind == "sink":
                leaf_ids.append(("s", self.order[q]))
            else:
                leaf_ids.append(("g",) + _key(child))
        self.stats["levels"] += 1
        # Top-level span per hierarchy level; the recursion below it is
        # untimed so nested ranges are not double-counted.
        with self.rec.span(metric.SPAN_PTREE):
            return self._range(tuple(leaf_ids))

    def _range(self, leaf_ids: tuple) -> List[List[Solution]]:
        """S(·, i, j) for a leaf run, shared across all levels (Lemma 7)."""
        if len(leaf_ids) == 1:
            kind = leaf_ids[0][0]
            if kind == "s":
                return self.sink_base(leaf_ids[0][1])
            return self.gamma[leaf_ids[0][1:]]

        memo = self._range_memo
        content_id = self._content_id
        mkey = (self._salt,) + tuple(content_id(part) for part in leaf_ids)
        cached = memo.get(mkey)
        if cached is not None:
            self.stats["range_memo_hits"] += 1
            return cached

        if self.budget is not None:
            self.budget.charge(1, what="bubble.range")
        active = self._active_for(leaf_ids)
        curves = self.context.new_curves()
        for u in range(1, len(leaf_ids)):
            self.context.join_into(curves, self._range(leaf_ids[:u]),
                                   self._range(leaf_ids[u:]), active)
        self.context.finish_range(curves, active)
        result = self.context.freeze_curves(curves)
        if len(memo) >= self.MEMO_CAP:
            memo.clear()
        memo[mkey] = result
        self.stats["ranges"] += 1
        return result

    def _active_for(self, leaf_ids: tuple) -> Optional[List[int]]:
        """Active candidate indices for a range (None = all)."""
        if self._margin is None:
            return None
        positions: List[Point] = []
        for part in leaf_ids:
            if part[0] == "s":
                positions.append(self.net.sink(part[1]).position)
            else:
                group = Group(size=part[1], e=part[2], r=part[3])
                positions.extend(
                    self.net.sink(self.order[q]).position
                    for q in group.member_positions)
        active = self.context.active_indices(positions, self._margin)
        if (self._source_index is not None
                and self._source_index not in active):
            active.append(self._source_index)
        return active


def _key(group: Group) -> Tuple[int, int, int]:
    return (group.size, group.e, group.r)


def _finalize(net: Net, context: PTreeContext,
              gamma_final: List[List[Solution]]) -> List[Solution]:
    """Lines 21: extend every final curve point to the source and apply the
    driver's gate delay; return the driver-level non-inferior curve."""
    from repro.curves.curve import SolutionCurve
    from repro.curves.ops import extend_solution

    tech = context.tech
    source = net.source
    curve = SolutionCurve(source, context.curve_config)
    for idx, solutions in enumerate(gamma_final):
        for solution in solutions:
            at_source = extend_solution(solution, source, tech)
            delay = tech.driver_delay(
                at_source.load,
                drive_resistance=net.driver_resistance,
                intrinsic=net.driver_intrinsic,
            )
            final = Solution(
                root=source,
                load=at_source.load,
                required_time=at_source.required_time - delay,
                area=at_source.area,
                detail=DriverArm(child=at_source,
                                 wire_length=source.manhattan_to(
                                     solution.root)),
            )
            curve.add(final)
    curve.prune()
    return curve.solutions
