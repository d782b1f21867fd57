"""*PTREE: the buffered P-Tree dynamic program (section 3.2.3).

Given an ordered list of *leaves* — sinks, or the virtual leaf of a nested
sub-group — and a candidate-location set P, *PTREE computes, for every
``p ∈ P``, the three-dimensional non-inferior solution curve of buffered
rectilinear routing trees rooted at ``p`` that drive all leaves in order.
It is the routing engine of every Cα_Tree hierarchy level inside
BUBBLE_CONSTRUCT, and (run once over all sinks with the virtual leaf absent)
also serves as a standalone buffered router.

The recursion follows the paper:

* base — every leaf provides a per-candidate base curve (for a sink: the
  wire from the candidate to the pin, with or without a buffer; for a
  sub-group: the group's Γ slice);
* join — ``S_b(p,i,j) = min over u { S(p,i,u) + S(p,u+1,j) }``;
* relocation — ``S(p,i,j) = min over p' { d(p,p') + S(p',i,j) }``,
  implemented as a bounded number of relaxation passes (DESIGN.md
  substitution #6);
* buffering — each sub-solution root may be driven by any library buffer
  (that is the ``*``); inferior options are pruned per Definition 6.

This module is the library's hottest code path, but it no longer owns
the inner loops: every curve operation goes through the
:class:`repro.curves.contract.CurveKernel` selected by
``CurveConfig.backend`` — loops over deferred live curves
(:class:`repro.curves.kernels.DeferredKernel`, the default) or over
``SolutionCurve`` (:mod:`repro.curves.backend_python`), bit-identical by
contract.
What stays here is the DP structure and the per-net precomputation:
tables indexed by candidate *index*, wire resistances/capacitances
between candidates precomputed, per-buffer delays precomputed as affine
coefficients in the load (both shipped gate-delay models are affine in
load, as Elmore-style models must be for this factorization; a custom
non-affine model would need to drop this fast path).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.curves import contract
from repro.curves.contract import BufferParams
from repro.curves.curve import CurveConfig, SolutionCurve
from repro.curves.solution import Extend, Solution, sink_leaf_solution
from repro.geometry.point import Point
from repro.instrument import names as metric
from repro.instrument.recorder import active_recorder
from repro.tech.buffer import Buffer
from repro.tech.technology import Technology
from repro.units import fzero

#: A leaf's base solutions, indexed by candidate index.  Each entry is a
#: frozen curve block: its surviving solutions in curve order.
LeafCurves = List[Sequence[Solution]]


class PTreeContext:
    """Precomputed per-net state shared by every *PTREE invocation.

    Holds the candidate set, the pairwise wire resistance/capacitance
    matrices, the (possibly thinned) buffer list with per-buffer delay
    coefficients, the curve configuration, and the resolved kernel
    backend with its preprocessed library.  BUBBLE_CONSTRUCT creates
    one context per net and reuses it across all hierarchy levels and all
    MERLIN iterations (the candidate set does not change between
    iterations).
    """

    def __init__(self, candidates: Sequence[Point], tech: Technology,
                 curve_config: CurveConfig, relocation_rounds: int = 1,
                 use_buffers: bool = True,
                 wire_widths: Sequence[float] = (1.0,)):
        if not candidates:
            raise ValueError("candidate set must not be empty")
        if relocation_rounds < 0:
            raise ValueError("relocation_rounds must be >= 0")
        if not wire_widths or any(w <= 0 for w in wire_widths):
            raise ValueError("wire_widths must be positive and non-empty")
        self.candidates: List[Point] = list(candidates)
        self.tech = tech
        self.curve_config = curve_config
        self.relocation_rounds = relocation_rounds
        self.wire_widths: Tuple[float, ...] = tuple(wire_widths)
        #: The kernel running every curve operation.
        self.kernel = contract.get_kernel(curve_config.backend)
        # With buffering disabled the DP degenerates to plain PTREE
        # [LCLH96] — the routing baseline of Flows I and II.
        buffers = list(tech.buffers) if use_buffers else []
        self.buffer_params: List[BufferParams] = [
            _affine_params(b, tech) for b in buffers
        ]
        #: Preprocessed buffer library (affine params, quantized cap
        #: keys).
        self.library = contract.KernelLibrary(self.buffer_params,
                                              curve_config)
        k = len(self.candidates)
        self.wire_res: List[List[float]] = [[0.0] * k for _ in range(k)]
        self.wire_cap: List[List[float]] = [[0.0] * k for _ in range(k)]
        res_per_um = tech.wire.resistance_per_um
        cap_per_um = tech.wire.capacitance_per_um
        for i, a in enumerate(self.candidates):
            for j, b in enumerate(self.candidates):
                length = a.manhattan_to(b)
                self.wire_res[i][j] = res_per_um * length
                self.wire_cap[i][j] = cap_per_um * length

    @property
    def k(self) -> int:
        return len(self.candidates)

    @property
    def buffers(self) -> List[Buffer]:
        return [params[0] for params in self.buffer_params]

    def new_curves(self) -> List[SolutionCurve]:
        """One empty live curve per candidate, in the kernel's format."""
        kernel = self.kernel
        config = self.curve_config
        return [kernel.new_curve(p, config) for p in self.candidates]

    def freeze_curves(self, curves: List[SolutionCurve]) -> LeafCurves:
        """Freeze live curves into per-candidate frozen blocks.

        Every backend freezes to plain lists of the surviving solutions.
        One memo serves the whole group, since the deferred backend's
        relocated entries point into sibling curves.
        """
        kernel = self.kernel
        memo: dict = {}
        return [kernel.freeze(curve, memo) for curve in curves]

    def thaw_curves(self, curves) -> List[SolutionCurve]:
        """Hand live curves back to backend-agnostic callers.

        The deferred backend's pending curves are materialized into
        equivalent :class:`SolutionCurve` instances (same buckets, same
        dict order); python-backend curves pass through unchanged.
        """
        kernel = self.kernel
        return [kernel.thaw(curve) for curve in curves]

    # ------------------------------------------------------------------
    # Base-curve construction
    # ------------------------------------------------------------------

    def sink_base_curves(self, sink_index: int, position: Point, load: float,
                         required_time: float) -> LeafCurves:
        """Per-candidate base curves for one sink (lines 1–4, Figure 9).

        For every candidate ``p``: the direct wire from ``p`` to the pin,
        optionally driven by each library buffer at ``p``; then the
        relocation closure so multi-hop buffered paths to a distant sink
        are available (cached once per net by the caller).
        """
        active_recorder().incr(metric.PTREE_BASE_CURVES)
        curves = self.new_curves()
        tech = self.tech
        pin = sink_leaf_solution(position, sink_index, load, required_time)
        for idx, p in enumerate(self.candidates):
            curve = curves[idx]
            length = p.manhattan_to(position)
            if fzero(length):
                curve.add(pin)
                self._buffer_all(curve, (pin,))
            else:
                base_cap = tech.wire_cap(length)
                base_res = tech.wire.resistance(length)
                for width in self.wire_widths:
                    cap = base_cap * width
                    res = base_res / width
                    direct = Solution(
                        p, load + cap,
                        required_time - res * (0.5 * cap + load),
                        0.0, Extend(pin, length, width))
                    curve.add(direct)
                    self._buffer_all(curve, (direct,))
            curve.prune()
        self._relocate(curves)
        return self.freeze_curves(curves)

    # ------------------------------------------------------------------
    # The DP proper
    # ------------------------------------------------------------------

    def run(self, leaf_curves: Sequence[LeafCurves]) -> List[SolutionCurve]:
        """Run *PTREE over ``leaf_curves``; return final curves per candidate.

        ``leaf_curves[i][c]`` is leaf ``i``'s base solution list at
        candidate index ``c``.  Base curves must already be
        relocation-closed (sink caches and Γ slices both are).

        This standalone entry point recomputes every sub-range;
        BUBBLE_CONSTRUCT instead drives :meth:`join_into` /
        :meth:`finish_range` through its cross-level range memo
        (Lemma 7 sharing).
        """
        count = len(leaf_curves)
        if count == 0:
            raise ValueError("*PTREE needs at least one leaf")
        if count == 1:
            return self.thaw_curves(self._curves_from_lists(leaf_curves[0]))

        with active_recorder().span(metric.SPAN_PTREE):
            # table[(i, j)] = per-candidate solution lists for leaves i..j.
            table: Dict[Tuple[int, int], List[List[Solution]]] = {}
            for i, base in enumerate(leaf_curves):
                table[(i, i)] = list(base)

            result: Optional[List[SolutionCurve]] = None
            for length in range(2, count + 1):
                for i in range(count - length + 1):
                    j = i + length - 1
                    curves = self.new_curves()
                    for u in range(i, j):
                        self.join_into(curves, table[(i, u)],
                                       table[(u + 1, j)])
                    self.finish_range(curves)
                    if length == count:
                        result = curves
                    else:
                        table[(i, j)] = self.freeze_curves(curves)
            assert result is not None
            return self.thaw_curves(result)

    def active_indices(self, points: Sequence[Point],
                       margin: float) -> List[int]:
        """Candidate indices inside the bounding box of ``points`` + margin.

        Restricting a sub-range's root candidates to the neighborhood of
        its own pins is the classic pruning that keeps the DP's k² terms
        affordable; roots outside the box are still reachable for enclosing
        ranges through their own (larger) boxes plus root relocation.  The
        returned list is never empty: when the margin excludes everything,
        the nearest candidate to the box center is used.
        """
        if not points:
            return list(range(self.k))
        xmin = min(p.x for p in points) - margin
        xmax = max(p.x for p in points) + margin
        ymin = min(p.y for p in points) - margin
        ymax = max(p.y for p in points) + margin
        active = [i for i, c in enumerate(self.candidates)
                  if xmin <= c.x <= xmax and ymin <= c.y <= ymax]
        if not active:
            center = Point(0.5 * (xmin + xmax), 0.5 * (ymin + ymax))
            active = [min(range(self.k),
                          key=lambda i: self.candidates[i].manhattan_to(center))]
        return active

    def join_into(self, curves: List[SolutionCurve], lefts: LeafCurves,
                  rights: LeafCurves,
                  active: Optional[List[int]] = None) -> None:
        """Accumulate the cross-product join of two sub-ranges.

        The ``S_b(p,i,j) = S(p,i,u) + S(p,u+1,j)`` step for one split
        point ``u``, delegated per candidate to the kernel's ``join``.
        """
        rec = active_recorder()
        if not rec.enabled:
            self._join_impl(curves, lefts, rights, active)
            return
        pairs = 0
        indices = range(len(curves)) if active is None else active
        for c in indices:
            if lefts[c] and rights[c]:
                pairs += len(lefts[c]) * len(rights[c])
        with rec.span(metric.SPAN_KERNEL_JOIN):
            self._join_impl(curves, lefts, rights, active)
        rec.incr(metric.PTREE_JOIN_CALLS)
        rec.incr(metric.PTREE_JOIN_PAIRS, pairs)

    def _join_impl(self, curves, lefts, rights, active) -> None:
        kernel_join = self.kernel.join
        indices = range(len(curves)) if active is None else active
        for c in indices:
            left_list = lefts[c]
            right_list = rights[c]
            if not left_list or not right_list:
                continue
            kernel_join(curves[c], left_list, right_list)

    def finish_range(self, curves: List[SolutionCurve],
                     active: Optional[List[int]] = None) -> None:
        """Post-join steps for one range: buffering, relocation, pruning."""
        indices = range(len(curves)) if active is None else active
        for c in indices:
            curve = curves[c]
            curve.prune()
            self._buffer_all(curve, list(curve))
            curve.prune()
        self._relocate(curves, active)

    # ------------------------------------------------------------------
    # Kernel delegation
    # ------------------------------------------------------------------

    def _buffer_all(self, curve: SolutionCurve, solutions) -> None:
        """Offer every library buffer at the root of each solution."""
        rec = active_recorder()
        if not rec.enabled:
            self.kernel.add_buffer(curve, self.library, solutions)
            return
        rec.incr(metric.PTREE_BUFFER_OFFERS,
                 len(solutions) * len(self.buffer_params))
        with rec.span(metric.SPAN_KERNEL_BUFFER):
            self.kernel.add_buffer(curve, self.library, solutions)

    def _relocate(self, curves: List[SolutionCurve],
                  active: Optional[List[int]] = None) -> None:
        """Relaxation passes of ``S(p) = min{d(p,p') + S(p')}`` over P.

        Targets are restricted to the active set; sources may be any
        candidate holding solutions (so results computed inside a child's
        tighter active box can migrate outward).
        """
        rec = active_recorder()
        targets = list(range(len(curves))) if active is None else active
        kernel = self.kernel
        library = self.library
        for _ in range(self.relocation_rounds):
            if rec.enabled:
                with rec.span(metric.SPAN_KERNEL_RELOCATE):
                    changed = kernel.relocate_round(curves, targets, self,
                                                    library)
            else:
                changed = kernel.relocate_round(curves, targets, self,
                                                library)
            for curve in curves:
                curve.prune()
            if not changed:
                break

    def _curves_from_lists(self, lists: LeafCurves) -> List[SolutionCurve]:
        curves = self.new_curves()
        for curve, solutions in zip(curves, lists):
            curve.extend(solutions)
            curve.prune()
        return curves


def _affine_params(buffer: Buffer, tech: Technology) -> BufferParams:
    """Probe the gate-delay model into affine (intercept, slope) form."""
    d0 = tech.buffer_delay(buffer, 0.0)
    d1 = tech.buffer_delay(buffer, 1.0)
    return (buffer, buffer.input_cap, buffer.area, d0, d1 - d0)
