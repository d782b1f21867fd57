"""Full-netlist timing closure: the paper's Table 2, iterated to a fixpoint.

:func:`run_closure` promotes the engine from "optimize one net" to
"close timing on a whole design":

1. place the netlist and derive a deliberately over-constrained timing
   target (``target_scale`` x the pre-optimization STA critical delay,
   exactly like :func:`repro.netlist.flow_runner.run_circuit_flow`);
2. run STA, select the *stale* multi-sink nets (never optimized, or
   timing-failing with materially drifted required times), and rank
   them with the configured ordering policy
   (:mod:`repro.pipeline.ordering`);
3. batch the top of the ranking through
   :meth:`repro.service.OptimizationService.optimize_many` — warm pool,
   canonical-net cache, per-job compute budgets, per-net ``min_area``
   objectives carrying each net's own required-time floor;
4. re-time with the optimized trees' **exact** per-sink delays and
   iterate until the critical delay stops improving (worst-slack
   fixpoint), no stale nets remain, or the iteration cap is hit.

Monotonicity contract: the reported critical delay never increases
across iterations — an iteration whose re-timing comes out *worse*
(possible when shifting required times lead the per-net optimizer
astray) is rolled back to the previous tree set and closure stops.
Equivalently, the circuit's worst slack is non-decreasing iteration
over iteration.

Failure containment mirrors the service contract: a net whose job
fails keeps its star estimate (still a valid circuit, just unoptimized
there); degraded answers are accepted into the tree set but — because
the service never caches degraded payloads — are recomputed at full
quality if their net is ever re-selected in a later iteration.

Every iteration emits a :class:`ClosureIteration` report and, when a
recorder is active, ``pipeline.*`` counters/series plus one
``pipeline.iteration`` event (:mod:`repro.instrument.names`).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.objective import Objective
from repro.instrument import names as metric
from repro.instrument.recorder import Recorder, active_recorder
from repro.net import Net
from repro.netlist.flow_runner import _to_routing_net
from repro.netlist.netlist import CircuitNet, Netlist
from repro.netlist.placement import place_netlist
from repro.netlist.sta import NetDelayFn, StaResult, run_sta, star_net_delay
from repro.pipeline.journal import ClosureJournal, read_journal
from repro.pipeline.ordering import build_context, get_ordering
from repro.resilience.errors import MerlinInputError
from repro.routing.export import tree_from_dict, tree_signature, tree_to_dict
from repro.routing.tree import RoutingTree


@dataclass(frozen=True)
class ClosureConfig:
    """Knobs of one timing-closure run (validated on construction)."""

    #: Registered ordering-policy name (see ``repro.pipeline.ordering``).
    order: str = "criticality"
    #: Nets below this sink count are left on their star estimates.
    min_sinks: int = 2
    #: Timing target as a fraction of the pre-optimization critical
    #: delay; < 1 over-constrains so optimizers must *improve* delay.
    target_scale: float = 0.88
    #: Nets re-optimized per iteration (None = every stale candidate).
    batch_size: Optional[int] = None
    #: Hard cap on closure iterations.
    max_iterations: int = 10
    #: Required-time drift (ps) below which an already-optimized net is
    #: not considered stale — the fixpoint detector.
    retime_tolerance_ps: float = 0.5
    #: Critical-delay improvement (ps) below which a full-coverage
    #: iteration declares convergence.
    improvement_tolerance_ps: float = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.target_scale <= 1.0:
            raise MerlinInputError("target_scale must be in (0, 1]")
        if self.min_sinks < 1:
            raise MerlinInputError("min_sinks must be >= 1")
        if self.max_iterations < 1:
            raise MerlinInputError("max_iterations must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise MerlinInputError("batch_size must be >= 1 (or None)")
        if self.retime_tolerance_ps < 0:
            raise MerlinInputError("retime_tolerance_ps must be >= 0")


@dataclass
class ClosureIteration:
    """One STA -> rank -> optimize -> re-time round's report."""

    index: int
    #: Stale nets eligible this round (before the batch cut).
    candidates: int
    #: Net names actually sent to the service, in policy order.
    selected: List[str]
    #: Jobs that produced a tree (cache hits included).
    reoptimized: int
    #: Jobs answered from the canonical-net cache.
    cache_hits: int
    #: Nets answered by a degradation-ladder fallback this round.
    degraded: List[str]
    #: Nets whose job failed (they keep their previous/star delays).
    failed: List[str]
    #: STA critical delay (ps) after this round's re-timing.
    critical_delay: float
    #: Circuit worst slack (ps) after this round (target fixed).
    worst_slack: float
    #: Total inserted buffer area (um^2) after this round.
    buffer_area: float
    wall_s: float
    #: True when this round's trees were discarded (worse re-timing).
    rolled_back: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "candidates": self.candidates,
            "selected": list(self.selected),
            "reoptimized": self.reoptimized,
            "cache_hits": self.cache_hits,
            "degraded": list(self.degraded),
            "failed": list(self.failed),
            "critical_delay": self.critical_delay,
            "worst_slack": self.worst_slack,
            "buffer_area": self.buffer_area,
            "wall_s": self.wall_s,
            "rolled_back": self.rolled_back,
        }


@dataclass
class ClosureResult:
    """The converged (or capped) outcome of one closure run."""

    circuit: str
    policy: str
    #: Pre-optimization STA critical delay (star estimates, ps).
    estimate_delay: float
    #: The timing target the run closed against (ps).
    target: float
    converged: bool
    iterations: List[ClosureIteration]
    critical_delay: float
    worst_slack: float
    gate_area: float
    buffer_area: float
    total_area: float
    #: Nets holding an optimized tree at the end.
    nets_optimized: int
    runtime_s: float
    #: Final STA (exact optimized delays where available).
    sta: StaResult = field(repr=False)
    #: Optimized tree per net name (the final accepted set).
    trees: Dict[str, RoutingTree] = field(default_factory=dict, repr=False)
    #: Nets whose final tree came from the degradation ladder.
    degraded_nets: Set[str] = field(default_factory=set)

    @property
    def iterations_to_converge(self) -> int:
        return len(self.iterations)

    def signatures(self) -> Dict[str, str]:
        """Deterministic topology fingerprint per optimized net."""
        return {name: tree_signature(tree)
                for name, tree in sorted(self.trees.items())}

    def to_dict(self, include_trees: bool = False) -> Dict[str, Any]:
        """JSON report (the ``POST /closure`` response body)."""
        data: Dict[str, Any] = {
            "circuit": self.circuit,
            "policy": self.policy,
            "estimate_delay": self.estimate_delay,
            "target": self.target,
            "converged": self.converged,
            "iterations": [it.to_dict() for it in self.iterations],
            "iterations_to_converge": self.iterations_to_converge,
            "critical_delay": self.critical_delay,
            "worst_slack": self.worst_slack,
            "gate_area": self.gate_area,
            "buffer_area": self.buffer_area,
            "total_area": self.total_area,
            "nets_optimized": self.nets_optimized,
            "degraded_nets": sorted(self.degraded_nets),
            "runtime_s": self.runtime_s,
            "signatures": self.signatures(),
        }
        if include_trees:
            data["trees"] = {name: tree_to_dict(tree)
                             for name, tree in sorted(self.trees.items())}
        return data


def run_closure(netlist: Netlist,
                tech: Optional[Any] = None,
                config: Optional[Any] = None,
                closure: Optional[ClosureConfig] = None,
                service: Optional[Any] = None,
                workers: Optional[int] = None,
                recorder: Optional[Recorder] = None,
                journal_path: Optional[str] = None,
                resume: bool = False) -> ClosureResult:
    """Close timing on ``netlist``; see the module docstring.

    Pass a long-lived :class:`~repro.service.OptimizationService` to
    share its warm pool and cache across closure runs (its tech/config
    then apply, and ``tech``/``config``/``workers`` must be omitted);
    otherwise a transient service is spun up and shut down here.

    ``journal_path`` makes the run crash-safe: each completed iteration
    is sealed into a write-ahead journal
    (:mod:`repro.pipeline.journal`).  With ``resume=True`` the journal
    is replayed first — completed iterations are *restored*
    bit-identically, not recomputed — and the loop continues from the
    crash point.  Resuming refuses a journal written for a different
    circuit, policy, closure config, or technology.
    """
    from repro.service.engine import OptimizationService
    from repro.tech.technology import default_technology

    closure = closure or ClosureConfig()
    policy = get_ordering(closure.order)
    if resume and journal_path is None:
        raise MerlinInputError("resume=True requires journal_path")
    if service is not None:
        if tech is not None or config is not None or workers is not None:
            raise MerlinInputError(
                "run_closure(service=...) uses the service's own "
                "tech/config/workers; configure the service instead")
        return _run(netlist, service, closure, policy,
                    recorder or active_recorder(),
                    journal_path=journal_path, resume=resume)
    tech = tech or default_technology()
    with OptimizationService(tech=tech, config=config,
                             workers=workers) as transient:
        return _run(netlist, transient, closure, policy,
                    recorder or active_recorder(),
                    journal_path=journal_path, resume=resume)


def _run(netlist: Netlist, service: Any, closure: ClosureConfig,
         policy: Any, rec: Recorder,
         journal_path: Optional[str] = None,
         resume: bool = False) -> ClosureResult:
    start = time.perf_counter()
    tech = service.tech
    place_netlist(netlist)
    estimate = run_sta(netlist, tech)
    target = closure.target_scale * estimate.critical_delay
    star = star_net_delay(netlist, tech)

    eligible = [net for net in netlist.nets
                if len(net.sinks) >= closure.min_sinks]
    #: net name -> exact per-sink delays of the accepted optimized tree.
    delays: Dict[str, List[float]] = {}
    trees: Dict[str, RoutingTree] = {}
    buffer_areas: Dict[str, float] = {}
    degraded: Set[str] = set()
    #: net name -> required-time vector at the last optimization attempt
    #: (failures included, so a persistently failing job is not retried
    #: until its timing context actually changes).
    attempted: Dict[str, Tuple[float, ...]] = {}

    def net_delay(net: CircuitNet, sink_name: str) -> float:
        arrivals = delays.get(net.name)
        if arrivals is None:
            return star(net, sink_name)
        return arrivals[net.sinks.index(sink_name)]

    iterations: List[ClosureIteration] = []
    converged = False
    sta = run_sta(netlist, tech, net_delay=net_delay, target=target)
    previous_delay = sta.critical_delay

    journal: Optional[ClosureJournal] = None
    start_index = 0
    if journal_path is not None:
        header = _journal_header(netlist, service, closure, policy,
                                 estimate.critical_delay, target)
        if resume:
            replay = read_journal(journal_path, rec)
            _check_journal_header(journal_path, replay.header, header)
            if replay.records:
                state = replay.records[-1]["state"]
                delays.update({name: [float(d) for d in arr]
                               for name, arr in state["delays"].items()})
                buffer_areas.update({name: float(area) for name, area
                                     in state["buffer_areas"].items()})
                degraded.update(state["degraded"])
                attempted.update({name: tuple(vec) for name, vec
                                  in state["attempted"].items()})
                previous_delay = float(state["previous_delay"])
                # The restored delays drive the re-timing, so this STA
                # lands exactly where the journaled iteration left it.
                sta = run_sta(netlist, tech, net_delay=net_delay,
                              target=target)
                trees.update(_restore_trees(netlist, state["trees"],
                                            sta, tech))
                iterations.extend(ClosureIteration(**record["report"])
                                  for record in replay.records)
                start_index = replay.last_index + 1
                converged = replay.stopped
            journal = ClosureJournal.resume(journal_path, replay)
        else:
            journal = ClosureJournal.create(journal_path, header)

    try:
        if not converged:
            converged = _iterate(
                netlist, service, closure, policy, rec, tech, target,
                eligible, delays, trees, buffer_areas, degraded, attempted,
                net_delay, iterations, journal, start_index,
                previous_delay, lambda: run_sta(
                    netlist, tech, net_delay=net_delay, target=target))
    finally:
        if journal is not None:
            journal.close()

    sta = run_sta(netlist, tech, net_delay=net_delay, target=target)
    gate_area = netlist.gate_area
    buffer_area = sum(buffer_areas.values())
    return ClosureResult(
        circuit=netlist.name,
        policy=policy.name,
        estimate_delay=estimate.critical_delay,
        target=target,
        converged=converged,
        iterations=iterations,
        critical_delay=sta.critical_delay,
        worst_slack=sta.worst_slack,
        gate_area=gate_area,
        buffer_area=buffer_area,
        total_area=gate_area + buffer_area,
        nets_optimized=len(trees),
        runtime_s=time.perf_counter() - start,
        sta=sta,
        trees=trees,
        degraded_nets=degraded,
    )


def _iterate(netlist: Netlist, service: Any, closure: ClosureConfig,
             policy: Any, rec: Recorder, tech: Any, target: float,
             eligible: List[CircuitNet],
             delays: Dict[str, List[float]],
             trees: Dict[str, RoutingTree],
             buffer_areas: Dict[str, float],
             degraded: Set[str],
             attempted: Dict[str, Tuple[float, ...]],
             net_delay: NetDelayFn,
             iterations: List[ClosureIteration],
             journal: Optional[ClosureJournal],
             start_index: int, previous_delay: float,
             retime: Any) -> bool:
    """The STA -> rank -> optimize -> re-time loop (state mutated in
    place); returns the converged flag."""
    converged = False
    sta = retime()
    for index in range(start_index, closure.max_iterations):
        iter_start = time.perf_counter()
        candidates = [net for net in eligible
                      if _is_stale(net, sta, attempted, closure)]
        if not candidates:
            converged = True
            break
        context = build_context(netlist, sta, candidates, iteration=index)
        ranked = policy.rank(context)
        selected = ranked if closure.batch_size is None \
            else ranked[:closure.batch_size]
        by_name = {net.name: net for net in candidates}

        jobs: List[Net] = []
        objectives: List[Objective] = []
        for name in selected:
            circuit_net = by_name[name]
            jobs.append(_to_routing_net(netlist, circuit_net, sta))
            objectives.append(Objective.min_area(
                required_time_floor=sta.arrival[circuit_net.driver]))
            attempted[name] = tuple(
                sta.required[s] for s in circuit_net.sinks)

        results = service.optimize_many(jobs, objectives=objectives)

        snapshot = (dict(delays), dict(trees), dict(buffer_areas),
                    set(degraded))
        cache_hits = 0
        round_degraded: List[str] = []
        round_failed: List[str] = []
        reoptimized = 0
        for name, result in zip(selected, results):
            if not result.ok:
                round_failed.append(name)
                continue
            reoptimized += 1
            cache_hits += int(result.cached)
            arrivals = result.evaluation["sink_arrivals"]
            delays[name] = [arrivals[str(i)]
                            for i in range(len(by_name[name].sinks))]
            trees[name] = result.tree
            buffer_areas[name] = result.evaluation["buffer_area"]
            if result.degraded:
                degraded.add(name)
                round_degraded.append(name)
            else:
                degraded.discard(name)

        sta = run_sta(netlist, tech, net_delay=net_delay, target=target)
        rolled_back = False
        if sta.critical_delay > previous_delay \
                + closure.improvement_tolerance_ps:
            # Worse circuit after this round: discard its trees and stop
            # (keeps the critical delay monotone non-increasing, i.e.
            # the worst slack monotone non-decreasing).  Restored in
            # place — the caller's net_delay closure shares these dicts.
            delays.clear(), delays.update(snapshot[0])
            trees.clear(), trees.update(snapshot[1])
            buffer_areas.clear(), buffer_areas.update(snapshot[2])
            degraded.clear(), degraded.update(snapshot[3])
            sta = run_sta(netlist, tech, net_delay=net_delay, target=target)
            rolled_back = True
            if rec.enabled:
                rec.incr(metric.PIPELINE_ROLLBACKS)

        improvement = previous_delay - sta.critical_delay
        previous_delay = sta.critical_delay
        report = ClosureIteration(
            index=index,
            candidates=len(candidates),
            selected=list(selected),
            reoptimized=reoptimized,
            cache_hits=cache_hits,
            degraded=round_degraded if not rolled_back else [],
            failed=round_failed,
            critical_delay=sta.critical_delay,
            worst_slack=sta.worst_slack,
            buffer_area=sum(buffer_areas.values()),
            wall_s=time.perf_counter() - iter_start,
            rolled_back=rolled_back,
        )
        iterations.append(report)
        if rec.enabled:
            rec.incr(metric.PIPELINE_ITERATIONS)
            rec.incr(metric.PIPELINE_NETS_REOPTIMIZED, reoptimized)
            rec.event(metric.EVENT_CLOSURE_ITERATION,
                      index=index, policy=policy.name,
                      candidates=len(candidates),
                      selected=len(selected),
                      critical_delay=sta.critical_delay,
                      worst_slack=sta.worst_slack,
                      cache_hits=cache_hits,
                      rolled_back=rolled_back)
        # A rolled-back round stops closure (monotonicity); a
        # full-coverage round with no measurable gain is the fixpoint.
        stop = rolled_back or (len(selected) == len(candidates)
                               and improvement
                               <= closure.improvement_tolerance_ps)
        if journal is not None:
            journal.append_iteration(
                index,
                _journal_state(delays, trees, buffer_areas, degraded,
                               attempted, previous_delay),
                report.to_dict(), stop)
        if stop:
            converged = True
            break
    return converged


def _journal_header(netlist: Netlist, service: Any,
                    closure: ClosureConfig, policy: Any,
                    estimate_delay: float, target: float
                    ) -> Dict[str, Any]:
    """The run identity a journal pins (and ``--resume`` checks)."""
    return {
        "circuit": netlist.name,
        "nets": len(netlist.nets),
        "policy": policy.name,
        "closure": dataclasses.asdict(closure),
        "tech": service.tech_fingerprint,
        "estimate_delay": estimate_delay,
        "target": target,
    }


def _check_journal_header(path: str, stored: Dict[str, Any],
                          expected: Dict[str, Any]) -> None:
    """Refuse to resume a journal written for a different run."""
    for key in ("circuit", "policy", "closure", "tech"):
        if stored.get(key) != expected[key]:
            raise MerlinInputError(
                f"journal {path!r} was written for a different run: "
                f"{key} is {stored.get(key)!r} there but "
                f"{expected[key]!r} here")


def _journal_state(delays: Dict[str, List[float]],
                   trees: Dict[str, RoutingTree],
                   buffer_areas: Dict[str, float],
                   degraded: Set[str],
                   attempted: Dict[str, Tuple[float, ...]],
                   previous_delay: float) -> Dict[str, Any]:
    """JSON snapshot of the loop state at the end of one iteration."""
    return {
        "delays": {name: list(arr)
                   for name, arr in sorted(delays.items())},
        "trees": {name: tree_to_dict(tree)
                  for name, tree in sorted(trees.items())},
        "buffer_areas": dict(sorted(buffer_areas.items())),
        "degraded": sorted(degraded),
        "attempted": {name: list(vec)
                      for name, vec in sorted(attempted.items())},
        "previous_delay": previous_delay,
    }


def _restore_trees(netlist: Netlist, tree_dicts: Dict[str, Any],
                   sta: StaResult, tech: Any) -> Dict[str, RoutingTree]:
    """Rebuild the accepted tree set from journaled ``tree_to_dict``
    exports (placement is deterministic, so frames line up exactly)."""
    by_name = {net.name: net for net in netlist.nets}
    trees: Dict[str, RoutingTree] = {}
    for name, data in tree_dicts.items():
        circuit_net = by_name.get(name)
        if circuit_net is None:
            raise MerlinInputError(
                f"journaled tree for unknown net {name!r}")
        routing_net = _to_routing_net(netlist, circuit_net, sta)
        trees[name] = tree_from_dict(data, routing_net, tech.buffers)
    return trees


def _is_stale(net: CircuitNet, sta: StaResult,
              attempted: Dict[str, Tuple[float, ...]],
              closure: ClosureConfig) -> bool:
    """Does ``net`` need (re-)optimization under the current STA?

    Never-attempted nets always qualify.  An attempted net re-qualifies
    only when it is still timing-failing (some sink slack < 0) *and*
    its required times have drifted materially since the last attempt —
    otherwise re-running the engine would reproduce the same tree (or
    churn on sub-tolerance noise forever).
    """
    previous = attempted.get(net.name)
    if previous is None:
        return True
    if min(sta.slack(s) for s in net.sinks) >= 0.0:
        return False
    drift = max(abs(sta.required[s] - prev)
                for s, prev in zip(net.sinks, previous))
    return drift > closure.retime_tolerance_ps
