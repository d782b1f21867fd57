"""Deferred-entry curve kernel — the ``"numpy"`` backend.

The engines spend nearly all of their time in four loops over solution
attributes: the cross-product *join*, the *buffer* offer, the root
*relocation* relaxation, and the 3-D Pareto *prune*.  Each loop touches
only the ``(load, required_time, area)`` triples; the traceback detail of
a solution matters only if the solution survives to the very end of the
DP.  That split is what this module exploits:

* live curves under accumulation are :class:`PendingCurve` instances
  whose bucket map holds lightweight ``(load, area, req, ctx, i)``
  entries: the attribute triple plus a *traceback context* — ``ctx``
  describes the batch that produced the entry and ``i`` is its flat
  position inside that batch.  No :class:`Solution` (or its detail
  record) is constructed while candidates are generated and culled;
* frozen curves are plain :class:`Solution` lists: the survivors,
  resolved by :func:`resolve_entry` at freeze time.  Only survivors are
  ever materialized, and a frozen block keeps neither the entries nor
  the batch contexts they pointed into, so the Γ, range and sink memos
  hold about what the python backend's solution lists hold.

The four loops are compiled C (``_deferred.c``, built and loaded by
:mod:`repro.curves.native`), sequential sweeps over the bucket map in
the style of Li & Shi's buffer insertion; this module keeps the
representation, the freeze/thaw boundary and :class:`DeferredKernel`,
which binds them to the :class:`~repro.curves.contract.CurveKernel`
contract.  Where the extension cannot be built, ``"numpy"`` runs the
python oracle instead (:func:`repro.curves.curve.resolve_backend`).
The name ``"numpy"`` (a public ``CurveConfig.backend`` value) dates
from when these loops had NumPy vector twins.

This module is representation-internal: engine layers reach it only
through :func:`repro.curves.contract.get_kernel` (enforced by the
``LAY-KERNEL`` staticcheck rule).

Bit-identical results
---------------------
The deferred backend is a drop-in replacement for the python backend,
verified by the golden fingerprints, which requires exact — not
approximate — equivalence:

* Every attribute triple is computed with the same float64 operations,
  in the same order, as the python backend's loops (the C build fuses
  no multiply-add), and bucket keys round half to even like ``round``.
* Candidates reach the bucket map in the python backend's stream order
  under the same rule — replace the incumbent iff the required time is
  strictly higher — so the final bucket map (contents *and* dict
  insertion order) matches.
* The prune keeps ``curve._pareto_prune``'s survivors in its sweep
  order, and the capacity thin mirrors ``curve._thin``.  Every
  insertion computes its bucket key from exactly the ``load`` and
  ``area`` floats it stores, so ``(load, area)`` is unique within a
  bucket map: sorting on ``(load, area)`` alone is the reference's
  ``(load, area, -required_time)`` order, and every survivor keeps
  the key it was stored under.
* The Li & Shi shadow skip (see :mod:`repro.curves.contract`) is not
  needed: it only drops offers the bucket map would reject, so the
  compiled buffer offer makes every offer and reports no skips.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.curves.contract import CurveKernel, KernelLibrary
from repro.curves.curve import CurveConfig, SolutionCurve
from repro.curves.native import deferred as _deferred
from repro.curves.solution import Buffered, Extend, Join, Solution
from repro.geometry.point import Point
from repro.instrument import names as metric
from repro.instrument.recorder import active_recorder


def _entry_order(t) -> Tuple[float, float, float]:
    """Freeze order of pending entries — matches ``Solution.key``."""
    return (t[0], -t[2], t[1])


# ----------------------------------------------------------------------
# Pending entries: deferred materialization
# ----------------------------------------------------------------------
#
# A pending entry is the 5-tuple ``(load, area, req, ctx, i)``, stored
# under the bucket key ``(round(load * inv_load), round(area * inv_area))``
# of its own two leading floats — so no two entries of one curve share
# ``(load, area)``, and the prune sorts entries without a key function.
# ``ctx`` is None when ``i`` already is the materialized Solution;
# otherwise it is one of:
#
#   ("join", root, lefts, rights, nb)
#       flat i -> Join(lefts[i // nb], rights[i % nb])
#   ("buf", root, sources, buffer_params)
#       flat i -> Buffered(resolve(sources[i // m]), buffer i % m)
#   ("ext1", root, src, length, width)
#       the moved solution of one relocation offer
#   ("buf1", root, src, buffer)
#       a buffer driving one already-described source (relocation)
#
# Sources inside a context are Solutions (frozen blocks and sink pins
# are materialized) or entries of the same live curves — the curve's
# own, or a sibling's for relocation.  Chains therefore end within one
# group of curves frozen together, and ``PendingCurve.freeze`` resolves
# that group with one shared ``id()``-keyed memo.

def resolve_entry(entry, memo: dict) -> Solution:
    """Materialize a pending entry into a :class:`Solution`.

    Memoized by entry identity, so shared sources materialize once: a
    memo shared by sibling curves makes a relocated solution point at
    the very object its source curve freezes, as on the python backend.
    Floats are taken from the sources wherever the python loops reuse
    them (a buffer's input cap, a moved source's area, the smaller
    required time of a join), so survivors hold no more float objects
    than the python backend's.
    """
    ctx = entry[3]
    if ctx is None:
        return entry[4]
    key = id(entry)
    sol = memo.get(key)
    if sol is not None:
        return sol
    kind = ctx[0]
    root = ctx[1]
    i = entry[4]
    if kind == "join":
        _, _, lefts, rights, nb = ctx
        ai, bi = divmod(i, nb)
        left = lefts[ai]
        right = rights[bi]
        l_req = left.required_time
        r_req = right.required_time
        sol = Solution(root, entry[0], l_req if l_req < r_req else r_req,
                       entry[1], Join(left, right))
    elif kind == "buf":
        _, _, sources, buffer_params = ctx
        si, bj = divmod(i, len(buffer_params))
        src = sources[si]
        if not isinstance(src, Solution):
            src = resolve_entry(src, memo)
        params = buffer_params[bj]
        sol = Solution(root, params[1], entry[2], entry[1],
                       Buffered(src, params[0]))
    elif kind == "ext1":
        _, _, src_e, length, width = ctx
        src = resolve_entry(src_e, memo)
        sol = Solution(root, entry[0], entry[2], src.area,
                       Extend(src, length, width))
    else:  # "buf1"
        _, _, src_e, buffer = ctx
        sol = Solution(root, entry[0], entry[2], entry[1],
                       Buffered(resolve_entry(src_e, memo), buffer))
    memo[key] = sol
    return sol


class PendingCurve:
    """Engine-internal live curve for the deferred backend.

    Same bucket-map semantics as :class:`~repro.curves.curve.SolutionCurve`
    — per ``(load bucket, area bucket)`` cell, keep the entry with the
    strictly highest required time, first occupant winning ties — but the
    stored values are pending-entry tuples, so generating and culling
    candidates never constructs :class:`Solution` objects.  Survivors
    materialize only at the freeze/thaw boundary (:meth:`freeze`,
    :attr:`solutions`, :meth:`to_solution_curve`).

    Iterating a ``PendingCurve`` yields the raw entry tuples, which the
    compiled buffer offer accepts as sources.
    """

    __slots__ = ("root", "config", "_by_bucket", "_pruned",
                 "_inv_load", "_inv_area")

    def __init__(self, root, config):
        self.root = root
        self.config = config
        self._by_bucket: dict = {}
        self._pruned = True
        self._inv_load = 1.0 / config.load_step
        self._inv_area = 1.0 / config.area_step

    def __len__(self) -> int:
        return len(self._by_bucket)

    def __iter__(self):
        return iter(self._by_bucket.values())

    def __bool__(self) -> bool:
        return bool(self._by_bucket)

    def add(self, solution: Solution) -> bool:
        """Insert one already-materialized solution."""
        return self.extend((solution,)) > 0

    def extend(self, solutions) -> int:
        """Merge materialized solutions; return how many entries stored."""
        by_bucket = self._by_bucket
        get = by_bucket.get
        inv_load = self._inv_load
        inv_area = self._inv_area
        stored = 0
        for s in solutions:
            req = s.required_time
            key = (round(s.load * inv_load), round(s.area * inv_area))
            incumbent = get(key)
            if incumbent is None or incumbent[2] < req:
                by_bucket[key] = (s.load, s.area, req, None, s)
                stored += 1
        if stored:
            self._pruned = False
        return stored

    def prune(self) -> None:
        """Remove 3-D dominated entries and enforce the capacity cap.

        Mirrors ``SolutionCurve.prune`` (same survivors, same resulting
        dict order, same instrumentation) over pending entries.
        """
        if self._pruned:
            return
        rec = active_recorder()
        if rec.enabled:
            with rec.span(metric.SPAN_KERNEL_PRUNE):
                self._prune_impl(rec)
        else:
            self._prune_impl(rec)

    def _prune_impl(self, rec) -> None:
        before = len(self._by_bucket)
        self._by_bucket = _deferred.prune(self._by_bucket,
                                          self.config.max_solutions)
        self._pruned = True
        if rec.enabled:
            kept = len(self._by_bucket)
            rec.incr(metric.CURVE_PRUNE_CALLS)
            rec.incr(metric.CURVE_PRUNE_REMOVED, before - kept)
            rec.record(metric.CURVE_PRUNE_SURVIVOR_RATIO,
                       kept / before if before else 1.0)

    def freeze(self, memo: Optional[dict] = None) -> List[Solution]:
        """Freeze into a list of materialized survivors.

        ``memo`` is the :func:`resolve_entry` memo shared by every curve
        frozen together: relocated entries point into sibling curves, so
        one memo materializes each shared source once.  Curve order is
        ``SolutionCurve.solutions``'s: a stable sort of the dict values
        by ``(load, -required_time, area)``.
        """
        if memo is None:
            memo = {}
        return [resolve_entry(t, memo) for t in
                sorted(self._by_bucket.values(), key=_entry_order)]

    @property
    def solutions(self) -> List[Solution]:
        """Materialized survivors, sorted by ascending load."""
        return self.freeze()

    def to_solution_curve(self) -> SolutionCurve:
        """Materialize into an equivalent :class:`SolutionCurve`.

        Preserves bucket keys, dict order, and the pruned flag, so
        backend-agnostic callers receive exactly the live-curve state the
        python backend would have produced.
        """
        curve = SolutionCurve(self.root, self.config)
        memo: dict = {}
        curve._by_bucket = {key: resolve_entry(t, memo)
                            for key, t in self._by_bucket.items()}
        curve._pruned = self._pruned
        return curve


# ----------------------------------------------------------------------
# The contract binding
# ----------------------------------------------------------------------

class DeferredKernel(CurveKernel):
    """The ``"numpy"`` kernel: :class:`PendingCurve` live curves whose
    candidates materialize only if they survive, frozen into plain
    lists of the survivors."""

    def new_curve(self, root: Point, config: CurveConfig) -> PendingCurve:
        return PendingCurve(root, config)

    def join(self, curve: PendingCurve, lefts, rights) -> None:
        _deferred.join(curve, lefts, rights)

    def add_buffer(self, curve: PendingCurve, library: KernelLibrary,
                   sources=None) -> int:
        _deferred.add_buffer(curve, curve if sources is None else sources,
                             library.params, library.cap_keys)
        return 0

    def relocate_round(self, curves: Sequence[PendingCurve],
                       targets: Sequence[int], geom,
                       library: KernelLibrary) -> bool:
        # Target-independent offer keys, computed once for the round;
        # then one call per target.
        params = library.params
        snapshots = [_deferred.snapshot(curve, params, library.cap_keys)
                     for curve in curves]
        relocate = _deferred.relocate
        changed = False
        for to_idx in targets:
            if relocate(curves[to_idx], to_idx, snapshots, params,
                        geom.wire_res, geom.wire_cap, geom.candidates,
                        geom.wire_widths):
                changed = True
        return changed

    def freeze(self, curve: PendingCurve,
               memo: Optional[dict] = None) -> List[Solution]:
        return curve.freeze(memo)

    def thaw(self, curve: PendingCurve) -> SolutionCurve:
        return curve.to_solution_curve()
