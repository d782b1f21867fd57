"""The ``"numpy"`` curve kernel: deferred live curves, plain frozen lists.

Binds the kernels of :mod:`repro.curves.kernels` to the
:class:`~repro.curves.contract.CurveKernel` contract.  Live curves are
:class:`~repro.curves.kernels.PendingCurve` (bucket maps of deferred
entry tuples, so candidates that lose a bucket or the prune never
become a :class:`~repro.curves.solution.Solution`); frozen blocks are
plain lists of the survivors, materialized at :meth:`freeze`.  The
served default backend; its registry name is historical and it needs
no NumPy (see :mod:`repro.curves.kernels`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.curves import kernels
from repro.curves.contract import CurveKernel, KernelLibrary, register_kernel
from repro.curves.curve import CurveConfig, SolutionCurve
from repro.curves.solution import Solution
from repro.geometry.point import Point


@register_kernel
class NumpyKernel(CurveKernel):
    """Deferred-entry implementation of the kernel contract."""

    name = "numpy"

    def new_curve(self, root: Point,
                  config: CurveConfig) -> kernels.PendingCurve:
        return kernels.PendingCurve(root, config)

    def merge(self, curve: kernels.PendingCurve, block) -> int:
        return curve.extend(block)

    def join(self, curve: kernels.PendingCurve, lefts, rights) -> None:
        kernels.pending_join(curve, lefts, rights)

    def add_buffer(self, curve: kernels.PendingCurve,
                   library: KernelLibrary, sources=None) -> int:
        if sources is None:
            sources = list(curve)
        return kernels.pending_buffer(curve, sources, library)

    def relocate_round(self, curves: Sequence[kernels.PendingCurve],
                       targets: Sequence[int], geom,
                       library: KernelLibrary) -> bool:
        snapshots = [list(curve) for curve in curves]
        changed = False
        for to_idx in targets:
            if kernels.pending_relocate(
                    curves[to_idx], to_idx, snapshots, geom.wire_res,
                    geom.wire_cap, geom.candidates, geom.wire_widths,
                    library):
                changed = True
        return changed

    def prune(self, curve: kernels.PendingCurve) -> None:
        curve.prune()

    def freeze(self, curve: kernels.PendingCurve,
               memo: Optional[dict] = None) -> List[Solution]:
        return curve.freeze(memo)

    def thaw(self, curve: kernels.PendingCurve) -> SolutionCurve:
        return curve.to_solution_curve()
