"""The curve-kernel contract: one array-level interface, two backends.

The *PTREE dynamic program is, operationally, five operations over
solution-curve blocks:

``merge``
    fold an already frozen block into a live curve (table reuse);
``join``
    cross-product combine two frozen blocks into a live curve
    (``S_b(p,i,j) = S(p,i,u) + S(p,u+1,j)``);
``add_buffer``
    offer every library buffer at the root of each solution
    (the ``*`` of *PTREE);
``relocate_round``
    one relaxation pass of ``S(p) = min{d(p,p') + S(p')}`` over the
    candidate set;
``prune`` / ``freeze`` / ``thaw``
    cull dominated entries, snapshot a live curve into a frozen block —
    its surviving :class:`~repro.curves.solution.Solution` objects in
    curve order, on every backend — and hand a live curve to
    backend-agnostic callers as a :class:`SolutionCurve` (thaw).

This module pins that interface as :class:`CurveKernel` and keeps a
registry of implementations, mirroring how staticcheck rules register:
each backend module defines a subclass decorated with
:func:`register_kernel`, and the engine resolves one by name at context
creation.  Two backends ship, both pure Python — ``"python"``
(:mod:`repro.curves.backend_python`, scalar loops over
:class:`~repro.curves.curve.SolutionCurve`, the reference oracle) and
``"numpy"`` (:mod:`repro.curves.backend_numpy`, deferred live curves
from :mod:`repro.curves.kernels`, the served default; the name is
historical) — and are bit-identical by contract:
the golden suites and ``bench check_suite`` pin equal tree signatures.
A native or GPU backend is a third registration away; engine layers
(``core``, ``routing``, ``service``, ``pipeline``) never see
representation details (the ``LAY-KERNEL`` staticcheck rule enforces
this).

The contract also owns :class:`KernelLibrary`, the per-net buffer
library preprocessing shared by both backends — notably the Li & Shi
predecessor ("shadow") table: for each buffer ``j``, the earlier
library buffers whose quantized input capacitance lands in the same
load bucket.  When such a predecessor's offer (for the same source)
achieved the same area bucket with a required time at least as high,
offer ``j`` maps to the same curve cell with a value the bucket map
would reject — so it is skipped before any key is built.  The skip
condition compares *computed* candidate attributes, never re-derived
real-arithmetic bounds, so it is exact under floating point and cannot
perturb results.
"""

from __future__ import annotations

import importlib.util
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.curves.curve import CurveConfig, SolutionCurve
from repro.curves.kernels import BACKENDS, resolve_backend
from repro.geometry.point import Point
from repro.tech.buffer import Buffer

__all__ = [
    "BACKENDS",
    "BufferParams",
    "CurveKernel",
    "KernelLibrary",
    "get_kernel",
    "kernel_names",
    "numpy_available",
    "register_kernel",
    "resolve_backend",
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
    quantized input-capacitance (load) bucket halves; ``shadows[j]`` the
    indices of earlier buffers with the *same* load bucket — the only
    predecessors whose offers can collide with buffer ``j``'s in the
    bucket map, and therefore the only ones the Li & Shi skip must
    consult.  With typical libraries and quantization steps most shadow
    lists are empty and the skip costs one truthiness test per offer.
    """

    __slots__ = ("params", "cap_keys", "shadows", "has_shadows")

    def __init__(self, buffer_params: Sequence[BufferParams],
                 curve_config: CurveConfig):
        self.params: List[BufferParams] = list(buffer_params)
        inv_load = 1.0 / curve_config.load_step
        self.cap_keys: List[int] = [round(p[1] * inv_load)
                                    for p in self.params]
        by_key: Dict[int, List[int]] = {}
        shadows: List[Tuple[int, ...]] = []
        for j, key in enumerate(self.cap_keys):
            earlier = by_key.setdefault(key, [])
            shadows.append(tuple(earlier))
            earlier.append(j)
        self.shadows: List[Tuple[int, ...]] = shadows
        #: False when no two buffers share a load bucket — the skip can
        #: never fire, so hot loops drop its bookkeeping entirely.
        self.has_shadows: bool = any(shadows)

    def __len__(self) -> int:
        return len(self.params)


class CurveKernel:
    """Abstract curve-kernel backend.

    One instance per registered backend (stateless; per-net state lives
    in the library and the curves).  ``Curve`` below means the backend's
    live-curve type; ``Block`` its frozen-curve type.  Both must satisfy
    the small structural protocol the engine relies on: live curves
    expose ``add`` / ``extend`` / ``prune`` / ``solutions`` / ``root``
    and iterate their survivors; frozen blocks are ``Solution`` lists
    in curve order (ascending ``(load, -required_time, area)``).
    """

    #: Registry name; also the ``CurveConfig.backend`` value it serves.
    name: str = ""

    def make_library(self, buffer_params: Sequence[BufferParams],
                     curve_config: CurveConfig) -> KernelLibrary:
        """Preprocess the buffer library once per net."""
        return KernelLibrary(buffer_params, curve_config)

    def new_curve(self, root: Point, config: CurveConfig):
        """One empty live curve rooted at ``root``."""
        raise NotImplementedError

    def merge(self, curve, block) -> int:
        """Fold a frozen block into a live curve; return entries stored."""
        raise NotImplementedError

    def join(self, curve, lefts, rights) -> None:
        """Accumulate the cross product of two frozen blocks into
        ``curve`` (left-major stream order)."""
        raise NotImplementedError

    def add_buffer(self, curve, library: KernelLibrary,
                   sources=None) -> int:
        """Offer every library buffer at the root of each source.

        ``sources=None`` buffers the curve's own current contents (the
        caller must have pruned first).  Returns the number of offers
        skipped by the shadow table (0 when it never fired).
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

    def prune(self, curve) -> None:
        """Cull 3-D dominated entries and enforce the capacity cap."""
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


_REGISTRY: Dict[str, CurveKernel] = {}


def register_kernel(cls: Type[CurveKernel]) -> Type[CurveKernel]:
    """Class decorator registering a :class:`CurveKernel` implementation
    under its ``name`` (last registration wins, like staticcheck rules)."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty name")
    _REGISTRY[cls.name] = cls()
    return cls


def kernel_names() -> List[str]:
    """Registered backend names (built-ins always present)."""
    _load_builtins()
    return sorted(_REGISTRY)


def get_kernel(name: str) -> CurveKernel:
    """Resolve a backend name to its registered kernel."""
    _load_builtins()
    kernel = _REGISTRY.get(name)
    if kernel is None:
        raise ValueError(
            f"unknown curve kernel {name!r}; registered: {kernel_names()}")
    return kernel


def _load_builtins() -> None:
    # Imported lazily: the backend modules import this one for the
    # decorator, so importing them at module scope would cycle.
    import repro.curves.backend_python  # noqa: F401
    import repro.curves.backend_numpy  # noqa: F401
