"""NumPy curve kernel: deferred structure-of-arrays blocks.

Binds the batched kernels of :mod:`repro.curves.kernels` to the
:class:`~repro.curves.contract.CurveKernel` contract.  Live curves are
:class:`~repro.curves.kernels.PendingCurve` (bucket maps of deferred
entry tuples, so candidates that lose a bucket or the prune never
become a :class:`~repro.curves.solution.Solution`); frozen blocks are
:class:`~repro.curves.kernels.CurveSoA` — lists of the survivors,
materialized at :meth:`freeze`, whose attribute columns the batched
kernels build per use.  Registered only when NumPy imported;
:func:`repro.curves.contract.get_kernel` degrades ``"numpy"`` to
``"python"`` otherwise.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.curves import kernels
from repro.curves.contract import (
    BufferParams,
    CurveKernel,
    KernelLibrary,
    register_kernel,
)
from repro.curves.curve import CurveConfig, SolutionCurve
from repro.geometry.point import Point


class NumpyKernelLibrary(KernelLibrary):
    """Kernel library plus per-buffer column vectors.

    Extends the shared preprocessing (cap keys, shadow table) with the
    NumPy column vectors the batched buffering/relocation kernels
    broadcast over — the union of :class:`KernelLibrary` and
    :class:`~repro.curves.kernels.BufferVectors`.
    """

    __slots__ = ("caps", "areas", "d0", "slope")

    def __init__(self, buffer_params: Sequence[BufferParams],
                 curve_config: CurveConfig):
        super().__init__(buffer_params, curve_config)
        vecs = kernels.BufferVectors(self.params)
        self.caps = vecs.caps
        self.areas = vecs.areas
        self.d0 = vecs.d0
        self.slope = vecs.slope


if kernels.numpy_available():

    @register_kernel
    class NumpyKernel(CurveKernel):
        """Vectorized implementation of the kernel contract."""

        name = "numpy"

        def make_library(self, buffer_params: Sequence[BufferParams],
                         curve_config: CurveConfig) -> NumpyKernelLibrary:
            return NumpyKernelLibrary(buffer_params, curve_config)

        def new_curve(self, root: Point,
                      config: CurveConfig) -> kernels.PendingCurve:
            return kernels.PendingCurve(root, config)

        def merge(self, curve: kernels.PendingCurve, block) -> int:
            return curve.extend(block)

        def join(self, curve: kernels.PendingCurve, lefts, rights) -> None:
            kernels.pending_join(curve, lefts, rights)

        def add_buffer(self, curve: kernels.PendingCurve,
                       library: NumpyKernelLibrary, sources=None,
                       from_curve: bool = False) -> int:
            if sources is None:
                sources = list(curve)
                from_curve = True
            return kernels.pending_buffer(curve, sources, library,
                                          from_curve=from_curve)

        def relocate_round(self, curves: Sequence[kernels.PendingCurve],
                           targets: Sequence[int], geom,
                           library: NumpyKernelLibrary) -> bool:
            snapshots = kernels.pending_snapshots(curves)
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
                   memo: Optional[dict] = None) -> kernels.CurveSoA:
            return curve.freeze(memo)

        def thaw(self, curve: kernels.PendingCurve) -> SolutionCurve:
            return curve.to_solution_curve()
