"""Deferred-entry curve kernels — the ``"numpy"`` backend internals.

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

Every kernel is a sequential sweep over bucketed or sorted lists, in
the style of Li & Shi's buffer insertion.  The registry name
``"numpy"`` (a public ``CurveConfig.backend`` value) dates from when
these loops had NumPy vector twins; on the curves the served presets
build — prune inputs of a few hundred entries, joins of a few dozen
pairs — the scalar sweeps measured faster at every size, so the
backend needs no third-party package.

This module is representation-internal: engine layers reach it only
through the backend objects registered in
:mod:`repro.curves.contract` (enforced by the ``LAY-KERNEL``
staticcheck rule).

Bit-identical results
---------------------
The deferred backend is a drop-in replacement for the python backend,
verified by the golden fingerprints, which requires exact — not
approximate — equivalence:

* Every attribute triple is computed with the same float64 operations,
  in the same order, as the python backend's loops.
* Candidates reach the bucket map in the python backend's stream order
  under the same rule — replace the incumbent iff the required time is
  strictly higher — so the final bucket map (contents *and* dict
  insertion order) matches.
* The prune keeps ``curve._pareto_prune``'s survivors in its sweep
  order, and the capacity thin mirrors ``curve._thin``.  Every
  insertion computes its bucket key from exactly the ``load`` and
  ``area`` floats it stores, so ``(load, area)`` is unique within a
  bucket map: sorting the entry tuples themselves is the reference's
  ``(load, area, -required_time)`` order and never compares past
  ``area``.
* Li & Shi-style shadow skips (see :mod:`repro.curves.contract`) only
  drop a buffer offer when an earlier offer of the same source provably
  landed the same bucket key with a required time at least as high — a
  candidate the bucket map would have rejected anyway.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple

from repro.curves.solution import Buffered, Extend, Join, Solution
from repro.instrument import names as metric
from repro.instrument.recorder import active_recorder

#: Backend names accepted by :class:`repro.curves.curve.CurveConfig`.
BACKENDS = ("python", "numpy")


def resolve_backend(requested: str) -> str:
    """Validate a requested backend name; every listed backend runs as
    named (neither needs a third-party package)."""
    if requested not in BACKENDS:
        raise ValueError(
            f"unknown curve backend {requested!r}; expected one of {BACKENDS}")
    return requested


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

    Iterating a ``PendingCurve`` yields the raw entry tuples; that is the
    engine-facing snapshot format the pending kernels consume.
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
        # Plain tuple sort: (load, area) is unique per curve, so this is
        # the reference's (load, area, -req) order.
        survivors = _pending_prune(sorted(self._by_bucket.values()))
        if len(survivors) > self.config.max_solutions:
            survivors = _pending_thin(survivors, self.config.max_solutions)
        inv_load = self._inv_load
        inv_area = self._inv_area
        self._by_bucket = {
            (round(t[0] * inv_load), round(t[1] * inv_area)): t
            for t in survivors}
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

    def to_solution_curve(self):
        """Materialize into an equivalent :class:`SolutionCurve`.

        Preserves bucket keys, dict order, and the pruned flag, so
        backend-agnostic callers receive exactly the live-curve state the
        python backend would have produced.
        """
        from repro.curves.curve import SolutionCurve

        curve = SolutionCurve(self.root, self.config)
        memo: dict = {}
        curve._by_bucket = {key: resolve_entry(t, memo)
                            for key, t in self._by_bucket.items()}
        curve._pruned = self._pruned
        return curve


# ----------------------------------------------------------------------
# The three DP combinators over pending curves
# ----------------------------------------------------------------------

def pending_join(curve: PendingCurve, lefts, rights) -> None:
    """Cross-product join of two frozen blocks into ``curve``.

    The python backend's double loop (left-major): loads and areas add,
    required time takes the branch minimum; accepted candidates store a
    pending entry indexing into the flattened cross product.
    """
    nb = len(rights)
    ctx = ("join", curve.root, lefts, rights, nb)
    by_bucket = curve._by_bucket
    get = by_bucket.get
    inv_load = curve._inv_load
    inv_area = curve._inv_area
    stored = 0
    i = 0
    for a in lefts:
        a_load = a.load
        a_req = a.required_time
        a_area = a.area
        for b in rights:
            load = a_load + b.load
            b_req = b.required_time
            req = a_req if a_req < b_req else b_req
            area = a_area + b.area
            key = (round(load * inv_load), round(area * inv_area))
            incumbent = get(key)
            if incumbent is None or incumbent[2] < req:
                by_bucket[key] = (load, area, req, ctx, i)
                stored += 1
            i += 1
    if stored:
        curve._pruned = False


def pending_buffer(curve: PendingCurve, sources, lib) -> int:
    """Offer every library buffer at the root of each source.

    ``sources`` holds pending entries (``list(curve)``) or plain
    Solutions (sink base construction).  Stream order is source-major,
    buffer-minor — the python backend's order.  ``lib`` is a
    :class:`repro.curves.contract.KernelLibrary`, whose shadow table
    enables the Li & Shi predecessor skips.  Returns the number of
    offers skipped by the shadow table.
    """
    sources = list(sources)
    buffer_params = lib.params
    m = len(buffer_params)
    if not sources or m == 0:
        return 0
    by_bucket = curve._by_bucket
    get = by_bucket.get
    inv_area = curve._inv_area
    cap_keys = lib.cap_keys
    solution_sources = isinstance(sources[0], Solution)
    ctx = ("buf", curve.root, sources, buffer_params)
    stored = 0
    skipped = 0
    i = 0
    if not lib.has_shadows:
        # No two buffers share a load bucket — the shadow skip can never
        # fire, so run the lean loop without its per-offer bookkeeping.
        pairs = list(zip(cap_keys, buffer_params))
        for s in sources:
            if solution_sources:
                load, area, req = s.load, s.area, s.required_time
            else:
                load, area, req = s[0], s[1], s[2]
            for ck, (buffer, input_cap, buf_area, d0, slope) in pairs:
                new_req = req - d0 - slope * load
                new_area = area + buf_area
                key = (ck, round(new_area * inv_area))
                incumbent = get(key)
                if incumbent is None or incumbent[2] < new_req:
                    by_bucket[key] = (input_cap, new_area, new_req, ctx, i)
                    stored += 1
                i += 1
        if stored:
            curve._pruned = False
        return 0
    shadows = lib.shadows
    reqs_j = [0.0] * m
    akeys_j = [0] * m
    for s in sources:
        if solution_sources:
            load, area, req = s.load, s.area, s.required_time
        else:
            load, area, req = s[0], s[1], s[2]
        for bj, (buffer, input_cap, buf_area, d0,
                 slope) in enumerate(buffer_params):
            new_req = req - d0 - slope * load
            new_area = area + buf_area
            akey = round(new_area * inv_area)
            reqs_j[bj] = new_req
            akeys_j[bj] = akey
            hit = False
            for pi in shadows[bj]:
                if akeys_j[pi] == akey and reqs_j[pi] >= new_req:
                    hit = True
                    break
            if hit:
                skipped += 1
                i += 1
                continue
            key = (cap_keys[bj], akey)
            incumbent = get(key)
            if incumbent is None or incumbent[2] < new_req:
                by_bucket[key] = (input_cap, new_area, new_req, ctx, i)
                stored += 1
            i += 1
    if stored:
        curve._pruned = False
    return skipped


def relocation_snapshot(curve: PendingCurve, lib) -> list:
    """Snapshot ``curve`` as a relocation source for one relaxation round.

    Moving an entry over a wire changes its load and required time but
    not its area, so the area half of every offer's bucket key is the
    same for each target and wire width.  Each snapshot item is computed
    once per round as ``(entry, load, req, area_key, offers)``, with one
    ``(bucket_key, input_cap, area, buffer, d0, slope)`` offer per
    library buffer.  The curves of one round share one
    :class:`CurveConfig`, so the keys hold for every target.
    """
    inv_area = curve._inv_area
    flat = [(ck,) + p for ck, p in zip(lib.cap_keys, lib.params)]
    snapshot = []
    for t in curve._by_bucket.values():
        area = t[1]
        snapshot.append((t, t[0], t[2], round(area * inv_area), [
            ((ck, round((b_area := area + buf_area) * inv_area)),
             input_cap, b_area, buffer, d0, slope)
            for ck, buffer, input_cap, buf_area, d0, slope in flat]))
    return snapshot


def pending_relocate(curve: PendingCurve, to_idx: int, snapshots,
                     wire_res, wire_cap, candidates, wire_widths) -> bool:
    """One target's relocation relaxation over every other snapshot.

    ``snapshots`` are :func:`relocation_snapshot` lists.  The python
    backend's stream — sources ascending, then wire widths, then
    snapshot entries, each offering the unbuffered move followed by
    every buffer.  Buffered offers share one deferred moved entry, like
    the python loop shares the moved solution.  No shadow skip: with the
    bucket key precomputed it would trade one dict lookup for another
    offer's required time, and the bucket map rejects whatever it would
    skip.  Returns True when any bucket accepted an entry.
    """
    root = curve.root
    by_bucket = curve._by_bucket
    inv_load = curve._inv_load
    changed = False
    get = by_bucket.get
    for frm_idx, snapshot in enumerate(snapshots):
        if frm_idx == to_idx or not snapshot:
            continue
        base_res = wire_res[frm_idx][to_idx]
        base_cap = wire_cap[frm_idx][to_idx]
        length = candidates[frm_idx].manhattan_to(root)
        for width in wire_widths:
            res = base_res / width
            cap = base_cap * width
            half_self = 0.5 * cap
            for t, s_load, s_req, akey, offers in snapshot:
                load = s_load + cap
                req = s_req - res * (half_self + s_load)
                moved_t = None
                key = (round(load * inv_load), akey)
                incumbent = get(key)
                if incumbent is None or incumbent[2] < req:
                    moved_t = (load, t[1], req,
                               ("ext1", root, t, length, width), 0)
                    by_bucket[key] = moved_t
                    changed = True
                for b_key, input_cap, b_area, buffer, d0, slope in offers:
                    b_req = req - d0 - slope * load
                    incumbent = get(b_key)
                    if incumbent is None or incumbent[2] < b_req:
                        if moved_t is None:
                            moved_t = (load, t[1], req,
                                       ("ext1", root, t, length, width), 0)
                        by_bucket[b_key] = (input_cap, b_area, b_req,
                                            ("buf1", root, moved_t, buffer),
                                            0)
                        changed = True
    if changed:
        curve._pruned = False
    return changed


# ----------------------------------------------------------------------
# Pruning helpers (pending entries)
# ----------------------------------------------------------------------

def _pending_prune(entries: list) -> list:
    """Sweep over entries sorted by ``(load, area)`` — the pending mirror
    of ``repro.curves.curve._pareto_prune``, same survivors in the same
    order.

    Every earlier entry has load no larger, so an entry is dominated iff
    an earlier survivor has area no larger and required time no lower.
    The sweep keeps only the 2-D frontier of the survivors so far —
    areas and required times both strictly rising, except that an equal
    area may repeat — and a new survivor overwrites the frontier points
    it dominates with one slice assignment.
    """
    kept = []
    areas: List[float] = []
    reqs: List[float] = []
    for t in entries:
        area = t[1]
        req = t[2]
        idx = bisect_right(areas, area)
        if idx and reqs[idx - 1] >= req:
            continue  # dominated
        kept.append(t)
        end = bisect_right(reqs, req, idx)
        areas[idx:end] = (area,)
        reqs[idx:end] = (req,)
    return kept


def _pending_thin(entries: list, cap: int) -> list:
    """Capacity cap over pruned entries in sweep order — mirrors
    ``curve._thin``."""
    # Single fused pass; strict comparisons keep the first occurrence,
    # matching max()/min() tie behavior.  The sweep order is ascending
    # load, so the first entry has the least load.
    first = entries[0]
    by_req = by_area = 0
    best_req, best_area = first[2], first[1]
    for i in range(1, len(entries)):
        t = entries[i]
        if t[2] > best_req:
            best_req = t[2]
            by_req = i
        if t[1] < best_area:
            best_area = t[1]
            by_area = i
    # Positional dedup, mirroring curve._thin (no id()-derived keys).
    forced = {i: entries[i] for i in dict.fromkeys((by_req, 0, by_area))}
    # Already in curve._thin's (load, required_time) order: equal-load
    # survivors have strictly rising area, hence strictly rising
    # required time.
    rest = [t for i, t in enumerate(entries) if i not in forced]
    slots = cap - len(forced)
    if slots <= 0:
        picked = []
    elif len(rest) <= slots:
        picked = rest
    else:
        stride = len(rest) / slots
        picked = [rest[int(i * stride)] for i in range(slots)]
    return list(forced.values()) + picked
