"""The three experimental setups of the paper's section IV.

* **Flow I** — fanout optimization with LTTREE (required-time sink order),
  then buffer placement at sink centroids and per-stage routing with PTREE
  (TSP sink order), mirroring "LTTREE + PTREE".
* **Flow II** — routing with PTREE (TSP order), then buffer insertion with
  van Ginneken's algorithm on the fixed tree: "PTREE + Buffer Insertion".
* **Flow III** — MERLIN: unified hierarchical buffered routing with local
  neighborhood search.

All flows return the same :class:`FlowResult` so the Table 1/2 harnesses
can report them uniformly; every returned tree is validated and evaluated
with the *same* Elmore/gate-delay models, so measured differences are
algorithmic only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baselines.lttree import FanoutNode, lttree_fanout
from repro.baselines.ptree import ptree_route
from repro.baselines.van_ginneken import van_ginneken_insert
from repro.core.config import MerlinConfig
from repro.core.merlin import merlin
from repro.core.objective import Objective
from repro.geometry.point import Point
from repro.instrument import names as metric
from repro.instrument.recorder import active_recorder, use_recorder
from repro.net import Net, Sink
from repro.orders.tsp import tsp_order
from repro.routing.evaluate import TreeEvaluation, evaluate_tree
from repro.routing.tree import (
    BufferNode,
    RoutingTree,
    SinkNode,
    SourceNode,
    SteinerNode,
    TreeNode,
)
from repro.routing.validate import validate_tree
from repro.tech.technology import Technology

#: Canonical flow names, matching the paper's tables.
FLOW_I = "flow1_lttree_ptree"
FLOW_II = "flow2_ptree_vg"
FLOW_III = "flow3_merlin"
ALL_FLOWS = (FLOW_I, FLOW_II, FLOW_III)


@dataclass
class FlowResult:
    """One flow's outcome on one net."""

    flow: str
    net: Net
    tree: RoutingTree
    evaluation: TreeEvaluation
    runtime_s: float
    #: MERLIN convergence loop count (1 for the sequential flows).
    loops: int = 1
    #: Flow-specific extras (e.g. MERLIN cost trace).
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def delay(self) -> float:
        return self.evaluation.delay

    @property
    def buffer_area(self) -> float:
        return self.evaluation.buffer_area


def run_flow(flow: str, net: Net, tech: Technology,
             config: Optional[MerlinConfig] = None,
             objective: Optional[Objective] = None) -> FlowResult:
    """Run one of the three flows on ``net`` and evaluate the result."""
    config = config or MerlinConfig()
    objective = objective or Objective.max_required_time()
    rec = config.recorder if config.recorder is not None \
        else active_recorder()
    start = time.perf_counter()
    loops = 1
    extra: Dict[str, object] = {}

    with use_recorder(rec), rec.span(metric.span_flow(flow)):
        if flow == FLOW_I:
            tree = _run_flow1(net, tech, config)
        elif flow == FLOW_II:
            routed = ptree_route(net, tech, order=tsp_order(net),
                                 config=config)
            inserted = van_ginneken_insert(routed.tree, tech, config=config,
                                           objective=objective)
            tree = inserted.tree
        elif flow == FLOW_III:
            result = merlin(net, tech, config=config, objective=objective)
            tree = result.tree
            loops = result.iterations
            extra["cost_trace"] = result.cost_trace
            extra["converged"] = result.converged
        else:
            raise ValueError(
                f"unknown flow: {flow!r} (expected one of {ALL_FLOWS})")

    runtime = time.perf_counter() - start
    if rec.enabled:
        rec.record(metric.flow_runtime(flow), runtime)
    validate_tree(tree)
    evaluation = evaluate_tree(tree, tech)
    return FlowResult(flow=flow, net=net, tree=tree, evaluation=evaluation,
                      runtime_s=runtime, loops=loops, extra=extra)


def run_all_flows(net: Net, tech: Technology,
                  config: Optional[MerlinConfig] = None,
                  objective: Optional[Objective] = None
                  ) -> Dict[str, FlowResult]:
    """Run Flows I–III on ``net``; keyed by flow name."""
    return {flow: run_flow(flow, net, tech, config, objective)
            for flow in ALL_FLOWS}


# ----------------------------------------------------------------------
# Flow I: LTTREE topology -> placement -> per-stage PTREE routing
# ----------------------------------------------------------------------

def _run_flow1(net: Net, tech: Technology, config: MerlinConfig) -> RoutingTree:
    """Embed the LT-Tree fanout topology into the plane.

    Buffers are placed at the centroid of the sinks they transitively
    drive (the classic post-fanout placement heuristic), then each stage's
    fanout net — its direct sinks plus the next buffer in the chain — is
    routed with PTREE in TSP order.
    """
    fanout = lttree_fanout(net, tech, config=config)
    root = SourceNode(net.source)
    for child in _embed_stage(fanout.root, net.source, net, tech, config):
        root.add_child(child)
    return RoutingTree(net=net, root=root)


def _embed_stage(stage: FanoutNode, driver_pos: Point, net: Net,
                 tech: Technology, config: MerlinConfig) -> List[TreeNode]:
    """Route one fanout stage; return the routed subtrees (driver excluded)."""
    pseudo_sinks: List[Sink] = []
    index_map: Dict[int, int] = {}
    for pseudo, real in enumerate(stage.sink_indices):
        sink = net.sink(real)
        pseudo_sinks.append(Sink(name=f"ps{pseudo}", position=sink.position,
                                 load=sink.load,
                                 required_time=sink.required_time))
        index_map[pseudo] = real

    buffer_pseudo_index: Optional[int] = None
    child = stage.child
    if child is not None:
        position = _stage_centroid(child, net)
        buffer_pseudo_index = len(pseudo_sinks)
        pseudo_sinks.append(Sink(
            name="pbuf", position=position,
            load=child.buffer.input_cap if child.buffer else 0.0,
            required_time=_logic_required_time(child, net, tech)))

    if not pseudo_sinks:
        raise ValueError("fanout stage drives nothing")

    driver_res = (stage.buffer.drive_resistance if stage.buffer
                  else net.driver_resistance)
    driver_int = (stage.buffer.intrinsic_delay if stage.buffer
                  else net.driver_intrinsic)
    pseudo_net = Net(name=f"{net.name}__stage", source=driver_pos,
                     sinks=tuple(pseudo_sinks),
                     driver_resistance=driver_res,
                     driver_intrinsic=driver_int)
    routed = ptree_route(pseudo_net, tech, order=tsp_order(pseudo_net),
                         config=config)

    subtrees: List[TreeNode] = []
    for top_child in routed.tree.root.children:
        subtrees.append(_rewrite(top_child, index_map, buffer_pseudo_index,
                                 child, net, tech, config))
    return subtrees


def _rewrite(node: TreeNode, index_map: Dict[int, int],
             buffer_pseudo_index: Optional[int], child: Optional[FanoutNode],
             net: Net, tech: Technology, config: MerlinConfig) -> TreeNode:
    """Map pseudo-net nodes back to real sinks / the next chain buffer."""
    if isinstance(node, SinkNode):
        if node.sink_index == buffer_pseudo_index:
            assert child is not None
            buffer_node = BufferNode(node.position, child.buffer)
            for subtree in _embed_stage(child, node.position, net, tech,
                                        config):
                buffer_node.add_child(subtree)
            return buffer_node
        return SinkNode(node.position, index_map[node.sink_index])
    clone = SteinerNode(node.position)
    for sub in node.children:
        clone.add_child(_rewrite(sub, index_map, buffer_pseudo_index, child,
                                 net, tech, config))
    return clone


def _stage_centroid(stage: FanoutNode, net: Net) -> Point:
    """Placement heuristic: centroid of all transitively driven sinks."""
    sinks = stage.all_sinks()
    xs = sum(net.sink(i).position.x for i in sinks) / len(sinks)
    ys = sum(net.sink(i).position.y for i in sinks) / len(sinks)
    return Point(xs, ys)


def _logic_required_time(stage: FanoutNode, net: Net,
                         tech: Technology) -> float:
    """Zero-wire required time at this stage's buffer input."""
    direct = [net.sink(i) for i in stage.sink_indices]
    load = sum(s.load for s in direct)
    req = min((s.required_time for s in direct), default=float("inf"))
    if stage.child is not None:
        load += (stage.child.buffer.input_cap if stage.child.buffer else 0.0)
        req = min(req, _logic_required_time(stage.child, net, tech))
    if stage.buffer is None:
        return req
    return req - tech.buffer_delay(stage.buffer, load)
