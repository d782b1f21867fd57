"""Elmore evaluation of complete routing trees.

The evaluator recomputes, from the materialized tree alone, the same
quantities the dynamic program tracked incrementally: downstream loads,
per-sink delays, the required time at the driver, buffer area and wire
length.  Agreement between the two is one of the library's strongest
correctness checks (tested in ``tests/integration``).

Delay semantics
---------------
Arrival time is 0 at the driver input.  The driver contributes
``driver_delay(load at source output)``; every wire edge contributes its
Elmore delay ``R_wire * (C_wire/2 + C_downstream)``; every buffer
contributes ``buffer_delay(load at buffer output)``.  The *required time at
the driver input* is ``min_i (r_i - arrival_i)``; the reported *delay* of a
net is ``max_i r_i - required_time_at_driver`` — the critical path length
with required-time offsets, which is monotone-consistent with the paper's
objective of maximizing the driver required time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.net import Net
from repro.routing.tree import (
    BufferNode,
    RoutingTree,
    SinkNode,
    SourceNode,
    TreeNode,
)
from repro.tech.technology import Technology


@dataclass(frozen=True)
class TreeEvaluation:
    """Everything the experiments report about one routing tree."""

    #: Arrival time (ps) at every sink, measured from the driver input.
    sink_arrivals: Dict[int, float]
    #: min_i (r_i - arrival_i): latest moment the signal may reach the
    #: driver input with every sink still meeting its requirement.
    required_time_at_driver: float
    #: Capacitance (fF) presented to the driver output.
    driver_load: float
    #: Total inserted buffer area (um^2).
    buffer_area: float
    #: Total routed wire length (um).
    wire_length: float
    #: Number of inserted buffers.
    buffer_count: int
    #: max_i r_i - required_time_at_driver: the net's critical delay (ps).
    delay: float

    @property
    def slack_is_met(self) -> bool:
        """True when the signal may arrive at time 0 or later (r_root >= 0)."""
        return self.required_time_at_driver >= 0.0


def evaluate_tree(tree: RoutingTree, tech: Technology) -> TreeEvaluation:
    """Evaluate ``tree`` under ``tech``; see module docstring for semantics."""
    net = tree.net
    loads = _downstream_loads(tree, tech)
    arrivals: Dict[int, float] = {}
    root = tree.root

    if isinstance(root, SourceNode):
        start_delay = tech.driver_delay(
            loads[id(root)],
            drive_resistance=net.driver_resistance,
            intrinsic=net.driver_intrinsic,
        )
        _propagate(root, start_delay, loads, arrivals, tech)
        driver_load = loads[id(root)]
    else:
        # Partial tree: no driver stage; arrival starts at 0 at the root's
        # input, so the load it presents is what the root shows upstream:
        # a root buffer's input capacitance, not the load it drives.
        _propagate(root, 0.0, loads, arrivals, tech)
        driver_load = (root.buffer.input_cap if isinstance(root, BufferNode)
                       else loads[id(root)])

    missing = set(range(len(net.sinks))) - set(arrivals)
    if missing:
        raise ValueError(f"tree does not reach sinks {sorted(missing)}")

    required = min(net.sink(i).required_time - arrivals[i] for i in arrivals)
    return TreeEvaluation(
        sink_arrivals=arrivals,
        required_time_at_driver=required,
        driver_load=driver_load,
        buffer_area=tree.buffer_area,
        wire_length=tree.wire_length,
        buffer_count=len(tree.buffer_nodes),
        delay=net.max_required_time - required,
    )


def _downstream_loads(tree: RoutingTree, tech: Technology) -> Dict[int, float]:
    """Map ``id(node)`` to the capacitance driven *from* that node.

    For a buffer node the value is the load at the buffer *output*; the
    load the buffer presents upstream is its input capacitance.  For the
    source node the value is the load at the driver output.
    """
    net = tree.net
    loads: Dict[int, float] = {}

    def visit(node: TreeNode) -> float:
        """Return the cap ``node`` presents to its driving wire."""
        downstream = 0.0
        for child in node.children:
            wire_cap = (tech.wire_cap(node.edge_length(child))
                        * child.upstream_width)
            downstream += wire_cap + visit(child)
        loads[id(node)] = downstream
        if isinstance(node, SinkNode):
            presented = net.sink(node.sink_index).load
            loads[id(node)] = presented  # a sink drives nothing
            return presented
        if isinstance(node, BufferNode):
            return node.buffer.input_cap
        return downstream

    visit(tree.root)
    return loads


def _propagate(node: TreeNode, arrival: float, loads: Dict[int, float],
               arrivals: Dict[int, float], tech: Technology) -> None:
    """Push arrival times down the tree (iterative to spare the stack)."""
    stack = [(node, arrival)]
    while stack:
        current, time_here = stack.pop()
        if isinstance(current, SinkNode):
            arrivals[current.sink_index] = time_here
            continue
        if isinstance(current, BufferNode):
            time_here += tech.buffer_delay(current.buffer, loads[id(current)])
        for child in current.children:
            length = current.edge_length(child)
            child_cap = (child.buffer.input_cap if isinstance(child, BufferNode)
                         else loads[id(child)])
            width = child.upstream_width
            edge_res = tech.wire.resistance(length) / width
            edge_cap = tech.wire.capacitance(length) * width
            edge_delay = edge_res * (0.5 * edge_cap + child_cap)
            stack.append((child, time_here + edge_delay))
