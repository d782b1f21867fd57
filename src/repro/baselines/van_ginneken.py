"""van Ginneken [Gi90]: buffer insertion on a fixed routing tree.

Flow II of the paper's experiments: first a routing tree is built (PTREE),
then buffers are inserted on its wires — the classic bottom-up dynamic
program over (load, required time) curves, here carried as the library's
standard three-dimensional solutions so the area axis stays available.

Candidate buffer sites are the tree's internal nodes plus evenly spaced
split points along each edge's L-shaped embedding (``segment_length``
microns apart, capped per edge).  Because the topology is fixed, the DP is
linear in the number of sites — fast, but unable to reshape the routing
around the buffers, which is precisely the gap MERLIN's unified
construction closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import MerlinConfig
from repro.core.objective import Objective
from repro.curves.curve import SolutionCurve
from repro.curves.ops import (
    buffer_solution,
    extend_solution,
    join_solutions,
)
from repro.curves.solution import DriverArm, Solution, sink_leaf_solution
from repro.geometry.point import Point
from repro.routing.builder import build_tree
from repro.routing.tree import (
    BufferNode,
    RoutingTree,
    SinkNode,
    SourceNode,
    TreeNode,
)
from repro.tech.technology import Technology
from repro.units import fzero


@dataclass
class VanGinnekenResult:
    """Outcome of one buffer-insertion run."""

    tree: RoutingTree
    solution: Solution
    final_solutions: List[Solution]


def van_ginneken_insert(tree: RoutingTree, tech: Technology,
                        config: Optional[MerlinConfig] = None,
                        objective: Optional[Objective] = None,
                        segment_length: float = 400.0,
                        max_segments_per_edge: int = 4,
                        ) -> VanGinnekenResult:
    """Insert buffers into (a copy of) ``tree``.

    ``tree`` must be unbuffered (Steiner/sink nodes under a source root);
    passing an already-buffered tree is a flow-composition error and is
    rejected rather than silently double-buffered.
    """
    config = config or MerlinConfig()
    objective = objective or Objective.max_required_time()
    if segment_length <= 0:
        raise ValueError("segment_length must be positive")
    if max_segments_per_edge < 1:
        raise ValueError("max_segments_per_edge must be >= 1")
    for node in tree.walk():
        if isinstance(node, BufferNode):
            raise ValueError("van Ginneken insertion expects an unbuffered tree")

    buffers = list(tech.buffers if config.library_subset is None
                   else tech.buffers.subset(config.library_subset))
    net = tree.net
    inserter = _Inserter(net, tech, buffers, config, segment_length,
                         max_segments_per_edge)

    root = tree.root
    if not isinstance(root, SourceNode):
        raise ValueError("van Ginneken insertion expects a source-rooted tree")
    merged = inserter.node_curve(root)

    driver_curve = SolutionCurve(net.source, config.curve)
    for solution in merged:
        delay = tech.driver_delay(solution.load,
                                  drive_resistance=net.driver_resistance,
                                  intrinsic=net.driver_intrinsic)
        driver_curve.add(Solution(
            root=net.source,
            load=solution.load,
            required_time=solution.required_time - delay,
            area=solution.area,
            detail=DriverArm(solution, 0.0),
        ))
    driver_curve.prune()
    finals = driver_curve.solutions
    if not finals:
        raise RuntimeError(f"net {net.name}: buffer insertion lost all solutions")
    best = objective.select(finals)
    if best is None:
        # Same fallback as BUBBLE_CONSTRUCT: unreachable constraint ->
        # best trade-off near the achievable optimum.
        best = Objective.best_tradeoff(tolerance=25.0).select(finals)
    return VanGinnekenResult(tree=build_tree(net, best), solution=best,
                             final_solutions=finals)


class _Inserter:
    """Bottom-up curve propagation over the fixed topology."""

    def __init__(self, net, tech: Technology, buffers, config: MerlinConfig,
                 segment_length: float, max_segments: int):
        self.net = net
        self.tech = tech
        self.buffers = buffers
        self.config = config
        self.segment_length = segment_length
        self.max_segments = max_segments

    def node_curve(self, node: TreeNode) -> List[Solution]:
        """Non-inferior solutions for the subtree rooted at ``node``."""
        if isinstance(node, SinkNode):
            return [self._sink_solution(node)]
        if not node.children:
            raise ValueError(
                f"{node.kind} at {node.position} has no children — "
                "malformed input tree")

        child_curves: List[List[Solution]] = []
        for child in node.children:
            child_curves.append(self.edge_curve(node, child))

        merged = child_curves[0]
        for other in child_curves[1:]:
            curve = SolutionCurve(node.position, self.config.curve)
            for a in merged:
                for b in other:
                    curve.add(join_solutions(a, b))
            curve.prune()
            merged = curve.solutions
        return merged

    def edge_curve(self, parent: TreeNode, child: TreeNode) -> List[Solution]:
        """Propagate the child subtree's curve up the edge to ``parent``."""
        base = self.node_curve(child)
        points = _split_points(child.position, parent.position,
                               self.segment_length, self.max_segments)
        current = base
        for point in points:
            current = self._hop(current, point)
        return self._hop(current, parent.position)

    def _hop(self, solutions: List[Solution], point: Point) -> List[Solution]:
        """Extend to ``point`` and offer each buffer there; prune."""
        curve = SolutionCurve(point, self.config.curve)
        for solution in solutions:
            moved = extend_solution(solution, point, self.tech)
            curve.add(moved)
            for buffer in self.buffers:
                curve.add(buffer_solution(moved, buffer, self.tech))
        curve.prune()
        return curve.solutions

    def _sink_solution(self, node: SinkNode) -> Solution:
        sink = self.net.sink(node.sink_index)
        return sink_leaf_solution(node.position, node.sink_index,
                                  sink.load, sink.required_time)


def _split_points(frm: Point, to: Point, spacing: float,
                  max_segments: int) -> List[Point]:
    """Evenly spaced interior points along the L-shaped path ``frm → to``.

    The bend is placed at ``(to.x, frm.y)`` (horizontal first when walking
    from the child up toward the parent); the choice is delay-neutral under
    Elmore with uniform parasitics, so any fixed convention is fine.
    """
    import math

    total = frm.manhattan_to(to)
    if fzero(total):
        return []
    # Fewest segments of length <= spacing, capped.
    segments = min(max_segments, max(1, math.ceil(total / spacing)))
    if segments <= 1:
        return []
    corner = Point(to.x, frm.y)
    leg1 = frm.manhattan_to(corner)
    points: List[Point] = []
    for i in range(1, segments):
        distance = total * i / segments
        if distance <= leg1 and leg1 > 0:
            t = distance / leg1
            points.append(Point(frm.x + (corner.x - frm.x) * t, frm.y))
        else:
            remaining = distance - leg1
            leg2 = corner.manhattan_to(to)
            t = remaining / leg2 if leg2 > 0 else 0.0
            points.append(Point(corner.x, corner.y + (to.y - corner.y) * t))
    return points
