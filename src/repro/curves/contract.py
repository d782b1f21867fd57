"""The curve-kernel contract: one interface, two kernels.

The *PTREE dynamic program runs on six operations over live curves and
frozen blocks:

``new_curve``
    one empty live curve at a candidate root;
``join``
    cross-product combine two frozen blocks into a live curve
    (``S_b(p,i,j) = S(p,i,u) + S(p,u+1,j)``);
``add_buffer``
    offer every library buffer at the root of each solution
    (the ``*`` of *PTREE);
``relocate_round``
    one relaxation pass of ``S(p) = min{d(p,p') + S(p')}`` over the
    candidate set;
``freeze`` / ``thaw``
    snapshot a pruned live curve into a frozen block — its surviving
    :class:`~repro.curves.solution.Solution` objects in curve order,
    on both kernels — and hand a live curve to kernel-agnostic callers
    as a :class:`SolutionCurve`.

Folding a block into a live curve and pruning it are the live curve's
own ``extend`` and ``prune``.  :func:`get_kernel` maps each
``CurveConfig.backend`` value (:data:`~repro.curves.curve.BACKENDS`) to
its kernel: ``"python"`` (:mod:`repro.curves.backend_python`, pure
Python scalar loops over :class:`~repro.curves.curve.SolutionCurve`,
the reference oracle) and ``"numpy"``
(:class:`repro.curves.kernels.DeferredKernel`, deferred live curves
whose four hot loops are compiled C, the served default; the name is
historical).  Where the C loops cannot be built, ``"numpy"`` runs the
oracle (:func:`~repro.curves.curve.resolve_backend`).  The kernels are
bit-identical by contract: the golden suites and ``bench check_suite``
pin equal tree signatures.  Engine layers (``core``, ``routing``,
``service``, ``pipeline``) never see representation details (the
``LAY-KERNEL`` staticcheck rule enforces this).

The contract also owns :class:`KernelLibrary`, the per-net buffer
library preprocessing shared by both backends: the affine per-buffer
parameters and their quantized load-bucket keys.  Both kernels offer
every buffer at every source and let the bucket map keep the best
offer per cell.
"""

from __future__ import annotations

import functools
import importlib.util
from typing import Dict, List, Optional, Sequence, Tuple

from repro.curves.curve import (
    BACKENDS,
    CurveConfig,
    SolutionCurve,
    resolve_backend,
)
from repro.geometry.point import Point
from repro.tech.buffer import Buffer

__all__ = [
    "BufferParams",
    "CurveKernel",
    "KernelLibrary",
    "get_kernel",
    "numpy_available",
]

#: Per-buffer precomputed parameters:
#: (buffer, input_cap, area, delay_intercept, delay_slope).
BufferParams = Tuple[Buffer, float, float, float, float]


def numpy_available() -> bool:
    """True when NumPy is installed, for benchmark environment records;
    no backend uses it.  Asks the import system without importing NumPy
    (a blocked import answers False)."""
    return importlib.util.find_spec("numpy") is not None


class KernelLibrary:
    """Preprocessed buffer library shared by every kernel operation.

    ``params`` keeps the affine per-buffer tuples; ``cap_keys`` their
    quantized input-capacitance (load) bucket halves, which are the
    load half of every buffer offer's bucket key.
    """

    __slots__ = ("params", "cap_keys")

    def __init__(self, buffer_params: Sequence[BufferParams],
                 curve_config: CurveConfig):
        self.params: List[BufferParams] = list(buffer_params)
        inv_load = 1.0 / curve_config.load_step
        self.cap_keys: List[int] = [round(p[1] * inv_load)
                                    for p in self.params]

    def __len__(self) -> int:
        return len(self.params)


class CurveKernel:
    """Abstract curve kernel.

    Stateless; per-net state lives in the library and the curves.
    ``Curve`` below means the kernel's live-curve type; ``Block`` its
    frozen-curve type.  Both must satisfy the small structural protocol
    the engine relies on: live curves expose ``add`` / ``extend`` /
    ``prune`` / ``solutions`` / ``root`` and iterate their survivors;
    frozen blocks are ``Solution`` lists in curve order (ascending
    ``(load, -required_time, area)``).
    """

    def new_curve(self, root: Point, config: CurveConfig):
        """One empty live curve rooted at ``root``."""
        raise NotImplementedError

    def join(self, curve, lefts, rights) -> None:
        """Accumulate the cross product of two frozen blocks into
        ``curve`` (left-major stream order)."""
        raise NotImplementedError

    def add_buffer(self, curve, library: KernelLibrary,
                   sources=None) -> None:
        """Offer every library buffer at the root of each source.

        ``sources=None`` buffers the curve's own current contents (the
        caller must have pruned first).
        """
        raise NotImplementedError

    def relocate_round(self, curves: Sequence, targets: Sequence[int],
                       geom, library: KernelLibrary) -> bool:
        """One relaxation pass over all target candidates.

        ``geom`` supplies the candidate geometry (duck-typed
        :class:`repro.core.star_ptree.PTreeContext`: ``wire_res``,
        ``wire_cap``, ``candidates``, ``wire_widths``).  Sources are
        snapshotted once for the whole pass, so updates within the pass
        do not feed later targets.  Returns True when any curve changed.
        """
        raise NotImplementedError

    def freeze(self, curve, memo: Optional[dict] = None):
        """Snapshot a (pruned) live curve into the frozen block format.

        Curves frozen together pass one ``memo`` (a fresh dict the
        caller owns for the whole group), so a backend whose live
        entries point into sibling curves materializes each shared
        source once; None uses a private memo.
        """
        raise NotImplementedError

    def thaw(self, curve) -> SolutionCurve:
        """Hand a live curve to backend-agnostic callers as an
        equivalent :class:`SolutionCurve` (same buckets, same order)."""
        raise NotImplementedError


@functools.cache
def _kernels() -> Dict[str, CurveKernel]:
    """``CurveConfig.backend`` value -> kernel, built on first use."""
    # Deferred: both kernel modules import this one for the base class,
    # so importing them at module scope would cycle.
    from repro.curves.backend_python import PythonKernel
    from repro.curves.kernels import DeferredKernel

    return {"python": PythonKernel(), "numpy": DeferredKernel()}


def get_kernel(name: str) -> CurveKernel:
    """The kernel serving the ``CurveConfig.backend`` value ``name``."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown curve kernel {name!r}; expected one of {BACKENDS}")
    return _kernels()[resolve_backend(name)]
