"""Vectorized (NumPy) curve kernels — the ``"numpy"`` backend internals.

The engines spend nearly all of their time in four loops over solution
attributes: the cross-product *join*, the *buffer* offer, the root
*relocation* relaxation, and the 3-D Pareto *prune*.  Each loop touches
only the ``(load, required_time, area)`` triples; the traceback detail of
a solution matters only if the solution survives to the very end of the
DP.  That split is what this module exploits:

* live curves under accumulation are :class:`PendingCurve` instances
  whose bucket map holds lightweight ``(load, req, area, ctx, i)``
  entries: the attribute triple plus a *traceback context* — ``ctx``
  describes the batch that produced the entry and ``i`` is its flat
  position inside that batch.  No :class:`Solution` (or its detail
  record) is constructed while candidates are generated and culled;
* frozen curves are :class:`CurveSoA` blocks: the survivors, resolved
  into solutions by :func:`resolve_entry` at freeze time, whose three
  attribute columns are built when a batched kernel needs them.  Only
  survivors are ever materialized, and a frozen block keeps neither the
  entries nor the batch contexts they pointed into, so the Γ, range and
  sink memos hold about what the python backend's solution lists hold;
* candidate triples are produced by whole-array arithmetic, and bucket
  acceptance for a whole batch is resolved at once by a grouped arg-max
  (:func:`_winner_stream`).

Small batches (a few dozen elements) stay on scalar loops — array
setup would cost more than it saves — but also store deferred entries,
so both paths feed the same representation.

This module is representation-internal: engine layers reach it only
through the backend objects registered in
:mod:`repro.curves.contract` (enforced by the ``LAY-KERNEL``
staticcheck rule).

Bit-identical results
---------------------
The numpy backend is a drop-in replacement verified by the golden
fingerprints, which requires exact — not approximate — equivalence:

* All attribute arithmetic uses float64 with the same operation order and
  associativity as the scalar code, so every produced triple is
  bit-identical (NumPy does not contract ``a - b*c`` into an FMA).
* Bucket keys use :func:`numpy.rint`, which rounds half-to-even exactly
  like Python's :func:`round`.
* Sequentially inserting a candidate stream into a bucket map — where a
  candidate replaces the incumbent iff it has strictly higher required
  time — ends, per bucket, with the *first* candidate attaining the
  maximum required time, and new buckets appear in first-occurrence
  order.  :func:`_winner_stream` computes exactly that fixed point, so
  the final bucket map (contents *and* dict insertion order) matches the
  scalar loop.
* The scalar Pareto staircase keeps an entry iff no earlier entry in
  ``(load, area, -required_time)`` order dominates it; dominance is
  transitive, so "dominated by a kept earlier entry" equals "dominated by
  *any* earlier entry", which the vectorized prune evaluates as one
  boolean matrix.
* Li & Shi-style shadow skips (see :mod:`repro.curves.contract`) only
  drop a buffer offer when an earlier offer of the same batch provably
  landed the same bucket key with a required time at least as high — a
  candidate the bucket map would have rejected anyway.

Availability
------------
NumPy is an optional extra (``pip install repro[fast]``).  The default
backend is ``"numpy"`` whenever NumPy imports and ``"python"`` otherwise
(:func:`default_backend`); an explicit ``"numpy"`` request without NumPy
degrades to ``"python"`` with a single logged event — never an
ImportError.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from itertools import repeat
from typing import List, Optional, Sequence, Tuple

from repro.curves.solution import Buffered, Extend, Join, Solution
from repro.instrument import names as metric
from repro.instrument.recorder import active_recorder

try:  # pragma: no cover - exercised via tests that stub _np to None
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

logger = logging.getLogger(__name__)

#: Backend names accepted by :class:`repro.curves.curve.CurveConfig`.
BACKENDS = ("python", "numpy")

#: Minimum batch sizes (stream elements) below which the scalar loops
#: win; measured on CPython 3.11 + NumPy 2.x.  Results are identical
#: either way — these trade nothing but speed.
JOIN_MIN_PAIRS = 128
BUFFER_MIN_OFFERS = 128
RELOCATE_MIN_STREAM = 192
EXTEND_MIN_ITEMS = 64
PRUNE_MIN_ITEMS = 40
#: Pending-entry prune crossover sits higher: its scalar sweep is a
#: decorated C tuple sort over plain floats (no attribute access), so
#: the lexsort-based vector path only wins on larger fronts.
PENDING_PRUNE_MIN_ITEMS = 96

_fallback_logged = False


def numpy_available() -> bool:
    """True when the NumPy runtime was importable."""
    return _np is not None


def default_backend() -> str:
    """The backend a :class:`~repro.curves.curve.CurveConfig` gets when
    none is named: ``"numpy"`` whenever NumPy imports, else ``"python"``
    (so the default never triggers the fallback warning)."""
    return "numpy" if _np is not None else "python"


def resolve_backend(requested: str) -> str:
    """Map a requested backend name to the one that will actually run.

    ``"numpy"`` without NumPy installed degrades gracefully to
    ``"python"``, emitting a single log record per process (and never an
    ImportError) so batch runs are not flooded.
    """
    global _fallback_logged
    if requested not in BACKENDS:
        raise ValueError(
            f"unknown curve backend {requested!r}; expected one of {BACKENDS}")
    if requested == "numpy" and _np is None:
        if not _fallback_logged:
            _fallback_logged = True
            logger.warning(
                "curve backend 'numpy' requested but NumPy is not "
                "installed; falling back to the pure-Python backend "
                "(pip install repro[fast] to enable it)")
        return "python"
    return requested


def _entry_order(t) -> Tuple[float, float, float]:
    """Freeze order of pending entries — matches ``Solution.key``."""
    return (t[0], -t[1], t[2])


class CurveSoA(list):
    """A frozen curve: its materialized survivors, in curve order.

    A plain :class:`Solution` list (ascending ``(load, -required_time,
    area)``), so it stands in anywhere the engine consumes a frozen
    ``List[Solution]`` and costs what the python backend's frozen lists
    cost.  The attribute columns the batched joins and merges broadcast
    over come from :meth:`columns`, built per use: rebuilding a column
    set costs microseconds, while caching one on every memoized block
    held ~0.8 MiB near the memory peak of a 5-sink net.
    """

    __slots__ = ()

    def columns(self):
        """The ``(3, n)`` float64 rows: loads, required times, areas."""
        return _np.array([[s.load for s in self],
                          [s.required_time for s in self],
                          [s.area for s in self]], dtype=_np.float64)


def as_soa(solutions) -> CurveSoA:
    """Return ``solutions`` as a :class:`CurveSoA`, converting if needed."""
    if isinstance(solutions, CurveSoA):
        return solutions
    return CurveSoA(solutions)


class BufferVectors:
    """Per-library-buffer affine delay parameters as column vectors.

    Built once per net (the buffer library is fixed), consumed by the
    batched buffer-offer and relocation kernels so a whole
    ``(solutions, buffers)`` matrix is produced with a handful of
    broadcast operations instead of a per-buffer column loop.
    ``params`` keeps the original ``(buffer, input_cap, area, d0, slope)``
    tuples for scalar fallbacks and traceback resolution.

    :class:`repro.curves.contract.KernelLibrary` subclasses extend this
    with the quantized cap keys and the Li & Shi shadow table; the
    kernels below accept either (the extras are looked up with
    ``getattr``).
    """

    __slots__ = ("params", "caps", "areas", "d0", "slope")

    def __init__(self, buffer_params):
        self.params = list(buffer_params)
        if _np is not None:
            self.caps = _np.array([p[1] for p in self.params])
            self.areas = _np.array([p[2] for p in self.params])
            self.d0 = _np.array([p[3] for p in self.params])
            self.slope = _np.array([p[4] for p in self.params])

    def __len__(self) -> int:
        return len(self.params)


class TupleSoA:
    """Lazy attribute vectors over a list of pending-entry tuples.

    The relocation pass snapshots every live curve once per round and
    reads each snapshot from multiple targets; this wrapper builds the
    three attribute vectors at most once per snapshot.
    """

    __slots__ = ("entries", "_loads", "_reqs", "_areas")

    def __init__(self, entries: list):
        self.entries = entries
        self._loads = None
        self._reqs = None
        self._areas = None

    def _build(self) -> None:
        flat = [x for t in self.entries for x in (t[0], t[1], t[2])]
        matrix = _np.array(flat, dtype=_np.float64).reshape(
            len(self.entries), 3)
        self._loads = _np.ascontiguousarray(matrix[:, 0])
        self._reqs = _np.ascontiguousarray(matrix[:, 1])
        self._areas = _np.ascontiguousarray(matrix[:, 2])

    @property
    def loads(self):
        if self._loads is None:
            self._build()
        return self._loads

    @property
    def reqs(self):
        if self._reqs is None:
            self._build()
        return self._reqs

    @property
    def areas(self):
        if self._areas is None:
            self._build()
        return self._areas

    def __len__(self) -> int:
        return len(self.entries)


# ----------------------------------------------------------------------
# Batched bucket-winner selection
# ----------------------------------------------------------------------

def _winner_stream(inv_load: float, inv_area: float, loads, reqs, areas):
    """Reduce a candidate stream to its per-bucket winners.

    Returns six parallel lists — flat stream index, the two bucket key
    halves, and the attribute triple — one row per bucket, in
    first-occurrence order of the bucket within the stream.  Merging the
    rows into a bucket map (replace iff strictly higher required time)
    yields exactly the state sequential scalar insertion would have
    reached, including dict insertion order.
    """
    # Quantized bucket keys; rint == round-half-to-even == Python round().
    klo = _np.rint(loads * inv_load).astype(_np.int64)
    kar = _np.rint(areas * inv_area).astype(_np.int64)
    packed = klo * (1 << 32) + kar
    n = len(packed)
    # One stable sort by (bucket, -req, position): the head of each
    # bucket block is its winner — the first stream entry attaining the
    # bucket's maximum required time.
    positions = _np.arange(n)
    perm = _np.lexsort((positions, -reqs, packed))
    sorted_keys = packed[perm]
    head = _np.empty(n, dtype=bool)
    head[0] = True
    head[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = _np.flatnonzero(head)
    winners = perm[starts]
    # Replay winners in first-occurrence order so newly created buckets
    # enter the dict exactly where the scalar loop would have put them.
    firsts = _np.minimum.reduceat(perm, starts)
    winners = winners[_np.argsort(firsts, kind="stable")]
    return (winners.tolist(), klo[winners].tolist(), kar[winners].tolist(),
            loads[winners].tolist(), reqs[winners].tolist(),
            areas[winners].tolist())


def _merge_entries(curve, keys, entries) -> int:
    """Merge a winner stream (parallel key/entry iterators, C-level zip
    tuples) into a pending curve's bucket map; return how many stored."""
    by_bucket = curve._by_bucket
    if not by_bucket:
        # First batch into a fresh curve: winners already carry unique
        # keys in first-occurrence order — build the dict directly.
        by_bucket.update(zip(keys, entries))
        stored = len(by_bucket)
    else:
        stored = 0
        get = by_bucket.get
        for key, entry in zip(keys, entries):
            incumbent = get(key)
            if incumbent is None or incumbent[1] < entry[1]:
                by_bucket[key] = entry
                stored += 1
    if stored:
        curve._pruned = False
    return stored


def batch_insert(curve, block: CurveSoA) -> int:
    """Insert a frozen block into a :class:`SolutionCurve` at once.

    Only per-bucket winners that beat the curve's incumbent (or open a
    new bucket) are stored.  Returns the number of solutions stored —
    non-zero exactly when the scalar loop would have had at least one
    successful ``accept_key``.
    """
    if not block:
        return 0
    stream = _winner_stream(curve._inv_load, curve._inv_area,
                            *block.columns())
    by_bucket = curve._by_bucket
    stored = 0
    for w, key_l, key_a, _load, req, _area in zip(*stream):
        key = (key_l, key_a)
        incumbent = by_bucket.get(key)
        if incumbent is None or incumbent.required_time < req:
            by_bucket[key] = block[w]
            stored += 1
    if stored:
        curve._pruned = False
    return stored


# ----------------------------------------------------------------------
# Pending entries: deferred materialization
# ----------------------------------------------------------------------
#
# A pending entry is the 5-tuple ``(load, req, area, ctx, i)``.  ``ctx``
# is None when ``i`` already is the materialized Solution; otherwise it
# is one of:
#
#   ("join", root, lefts, rights, nb)
#       flat i -> Join(lefts[i // nb], rights[i % nb])
#   ("buf", root, sources, buffer_params)
#       flat i -> Buffered(resolve(sources[i // m]), buffer i % m)
#   ("ext1", root, src, length, width)
#       the moved solution of one scalar relocation offer
#   ("buf1", root, src, buffer)
#       a buffer driving one already-described source (scalar relocation)
#   ("reloc", root, starts, blocks, opts, moved_loads, moved_reqs,
#    buffer_params)
#       flat i -> row i // opts of the stream: option 0 is the
#       unbuffered moved solution, option j a buffer driving it
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
    Floats are taken from the sources wherever the scalar loops reuse
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
                       entry[2], Join(left, right))
    elif kind == "buf":
        _, _, sources, buffer_params = ctx
        si, bj = divmod(i, len(buffer_params))
        src = sources[si]
        if not isinstance(src, Solution):
            src = resolve_entry(src, memo)
        params = buffer_params[bj]
        sol = Solution(root, params[1], entry[1], entry[2],
                       Buffered(src, params[0]))
    elif kind == "ext1":
        _, _, src_e, length, width = ctx
        src = resolve_entry(src_e, memo)
        sol = Solution(root, entry[0], entry[1], src.area,
                       Extend(src, length, width))
    elif kind == "buf1":
        _, _, src_e, buffer = ctx
        sol = Solution(root, entry[0], entry[1], entry[2],
                       Buffered(resolve_entry(src_e, memo), buffer))
    else:  # "reloc"
        _, _, starts, blocks, opts, moved_loads, moved_reqs, \
            buffer_params = ctx
        row, opt = divmod(i, opts)
        # Every option of one stream row shares its moved solution.
        moved_key = (id(ctx), row)
        moved = memo.get(moved_key)
        if moved is None:
            start, sources, length, width = blocks[
                bisect_right(starts, row) - 1]
            src = resolve_entry(sources[row - start], memo)
            moved = Solution(root, float(moved_loads[row]),
                             float(moved_reqs[row]), src.area,
                             Extend(src, length, width))
            memo[moved_key] = moved
        if opt == 0:
            sol = moved
        else:
            params = buffer_params[opt - 1]
            sol = Solution(root, params[1], entry[1], entry[2],
                           Buffered(moved, params[0]))
    memo[key] = sol
    return sol


class PendingCurve:
    """Engine-internal live curve for the numpy backend.

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
                 "_inv_load", "_inv_area", "_cache")

    def __init__(self, root, config):
        self.root = root
        self.config = config
        self._by_bucket: dict = {}
        self._pruned = True
        self._inv_load = 1.0 / config.load_step
        self._inv_area = 1.0 / config.area_step
        #: Attribute vectors (loads, reqs, areas) aligned with the bucket
        #: map's dict order, produced as a by-product of the vectorized
        #: prune.  Valid only while ``_pruned`` is True; consumed by the
        #: buffer and relocation-snapshot stages to skip re-extraction.
        self._cache = None

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
        """Merge materialized solutions; return how many entries stored.

        A large :class:`CurveSoA` block is reduced to its per-bucket
        winners over its columns first, so only those get an entry.
        """
        if isinstance(solutions, CurveSoA) \
                and len(solutions) >= EXTEND_MIN_ITEMS:
            win, klo, kar, loads, reqs, areas = _winner_stream(
                self._inv_load, self._inv_area, *solutions.columns())
            return _merge_entries(
                self, zip(klo, kar),
                zip(loads, reqs, areas, repeat(None),
                    map(solutions.__getitem__, win)))
        by_bucket = self._by_bucket
        get = by_bucket.get
        inv_load = self._inv_load
        inv_area = self._inv_area
        stored = 0
        for s in solutions:
            req = s.required_time
            key = (round(s.load * inv_load), round(s.area * inv_area))
            incumbent = get(key)
            if incumbent is None or incumbent[1] < req:
                by_bucket[key] = (s.load, req, s.area, None, s)
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
        items = list(self._by_bucket.items())
        result = _pending_prune_vector(items, self.config.max_solutions)
        if result is None:
            survivors = _pending_prune_scalar(items)
            if len(survivors) > self.config.max_solutions:
                survivors = _pending_thin(survivors,
                                          self.config.max_solutions)
            self._cache = None
        else:
            survivors, self._cache = result
        self._by_bucket = dict(survivors)
        self._pruned = True
        if rec.enabled:
            kept = len(self._by_bucket)
            rec.incr(metric.CURVE_PRUNE_CALLS)
            rec.incr(metric.CURVE_PRUNE_REMOVED, before - kept)
            rec.record(metric.CURVE_PRUNE_SURVIVOR_RATIO,
                       kept / before if before else 1.0)

    def freeze(self, memo: Optional[dict] = None) -> CurveSoA:
        """Freeze into a :class:`CurveSoA` block of materialized survivors.

        ``memo`` is the :func:`resolve_entry` memo shared by every curve
        frozen together: relocated entries point into sibling curves, so
        one memo materializes each shared source once.  Curve order is
        ``SolutionCurve.solutions``'s: a stable sort of the dict values
        by ``(load, -required_time, area)``.
        """
        if memo is None:
            memo = {}
        return CurveSoA(resolve_entry(t, memo) for t in
                        sorted(self._by_bucket.values(), key=_entry_order))

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

    Equivalent to the scalar double loop (left-major): loads and areas
    add, required time takes the branch minimum; winners store a pending
    entry indexing into the flattened cross product.
    """
    lefts = as_soa(lefts)
    rights = as_soa(rights)
    nb = len(rights)
    ctx = ("join", curve.root, lefts, rights, nb)
    by_bucket = curve._by_bucket
    inv_load = curve._inv_load
    inv_area = curve._inv_area
    if len(lefts) * nb < JOIN_MIN_PAIRS:
        stored = 0
        get = by_bucket.get
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
                if incumbent is None or incumbent[1] < req:
                    by_bucket[key] = (load, req, area, ctx, i)
                    stored += 1
                i += 1
        if stored:
            curve._pruned = False
        return
    l_loads, l_reqs, l_areas = lefts.columns()
    r_loads, r_reqs, r_areas = rights.columns()
    loads = _np.add.outer(l_loads, r_loads).ravel()
    reqs = _np.minimum.outer(l_reqs, r_reqs).ravel()
    areas = _np.add.outer(l_areas, r_areas).ravel()
    win, klo, kar, w_loads, w_reqs, w_areas = _winner_stream(
        inv_load, inv_area, loads, reqs, areas)
    _merge_entries(curve, zip(klo, kar),
                   zip(w_loads, w_reqs, w_areas, repeat(ctx), win))


def pending_buffer(curve: PendingCurve, sources, lib,
                   from_curve: bool = False) -> int:
    """Offer every library buffer at the root of each source.

    ``sources`` holds pending entries (``list(curve)``) or plain
    Solutions (sink base construction).  Stream order is source-major,
    buffer-minor — the scalar ``_buffer_all`` order.  ``from_curve``
    asserts that ``sources`` is the curve's own bucket map in dict order,
    allowing the prune-time attribute cache to be reused.  ``lib`` is a
    :class:`BufferVectors` (or a richer
    :class:`repro.curves.contract.KernelLibrary`, whose shadow table
    enables the Li & Shi predecessor skips on the scalar path).  Returns
    the number of offers skipped by the shadow table.
    """
    sources = list(sources)
    buffer_params = lib.params
    ns = len(sources)
    m = len(buffer_params)
    if ns == 0 or m == 0:
        return 0
    by_bucket = curve._by_bucket
    inv_load = curve._inv_load
    inv_area = curve._inv_area
    solution_sources = isinstance(sources[0], Solution)
    if ns * m < BUFFER_MIN_OFFERS:
        cap_keys = getattr(lib, "cap_keys", None)
        if cap_keys is None:
            cap_keys = [round(p[1] * inv_load) for p in buffer_params]
        # When no two buffers share a load bucket the shadow skip can
        # never fire; drop its per-offer bookkeeping entirely.
        shadows = (lib.shadows
                   if getattr(lib, "has_shadows", False) else None)
        ctx = ("buf", curve.root, sources, buffer_params)
        get = by_bucket.get
        stored = 0
        skipped = 0
        i = 0
        if shadows is None:
            pairs = list(zip(cap_keys, buffer_params))
            for s in sources:
                if solution_sources:
                    load, req, area = s.load, s.required_time, s.area
                else:
                    load, req, area = s[0], s[1], s[2]
                for ck, (buffer, input_cap, buf_area, d0, slope) in pairs:
                    new_req = req - d0 - slope * load
                    new_area = area + buf_area
                    key = (ck, round(new_area * inv_area))
                    incumbent = get(key)
                    if incumbent is None or incumbent[1] < new_req:
                        by_bucket[key] = (input_cap, new_req, new_area,
                                          ctx, i)
                        stored += 1
                    i += 1
            if stored:
                curve._pruned = False
            return 0
        reqs_j = [0.0] * m
        akeys_j = [0] * m
        for s in sources:
            if solution_sources:
                load, req, area = s.load, s.required_time, s.area
            else:
                load, req, area = s[0], s[1], s[2]
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
                if incumbent is None or incumbent[1] < new_req:
                    by_bucket[key] = (input_cap, new_req, new_area, ctx, i)
                    stored += 1
                i += 1
        if stored:
            curve._pruned = False
        return skipped
    if (from_curve and curve._pruned and curve._cache is not None
            and len(curve._cache[0]) == ns):
        base_loads, base_reqs, base_areas = curve._cache
    elif solution_sources:
        base_loads, base_reqs, base_areas = CurveSoA(sources).columns()
    else:
        base = TupleSoA(sources)
        base_loads, base_reqs, base_areas = base.loads, base.reqs, base.areas
    loads = _np.broadcast_to(lib.caps, (ns, m))
    reqs = (base_reqs[:, None] - lib.d0) \
        - lib.slope * base_loads[:, None]
    areas = base_areas[:, None] + lib.areas
    ctx = ("buf", curve.root, sources, buffer_params)
    win, klo, kar, w_loads, w_reqs, w_areas = _winner_stream(
        inv_load, inv_area, loads.reshape(-1), reqs.ravel(), areas.ravel())
    _merge_entries(curve, zip(klo, kar),
                   zip(w_loads, w_reqs, w_areas, repeat(ctx), win))
    return 0


def pending_snapshots(curves: Sequence[PendingCurve]) -> List[TupleSoA]:
    """Snapshot every live curve for one relocation round.

    Curves that are freshly pruned donate their prune-time attribute
    cache (same dict order), so the snapshot's vectors come for free.
    """
    snaps = []
    for curve in curves:
        snap = TupleSoA(list(curve))
        if curve._pruned and curve._cache is not None \
                and len(curve._cache[0]) == len(snap.entries):
            snap._loads, snap._reqs, snap._areas = curve._cache
        snaps.append(snap)
    return snaps


def pending_relocate(curve: PendingCurve, to_idx: int,
                     snapshots: Sequence[TupleSoA], wire_res, wire_cap,
                     candidates, wire_widths, lib) -> bool:
    """One target's relocation relaxation, batched over all sources.

    Builds the scalar stream — sources ascending, then wire widths, then
    snapshot solutions, each offering the unbuffered move followed by
    every buffer — as one concatenated triple batch.  Returns the scalar
    loop's ``changed`` flag (any bucket accepted an entry).
    """
    buffer_params = lib.params
    m = len(buffer_params)
    opts = 1 + m
    root = curve.root
    stream_total = 0
    for frm_idx, snapshot in enumerate(snapshots):
        if frm_idx != to_idx:
            stream_total += len(snapshot) * len(wire_widths) * opts
    if stream_total == 0:
        return False
    if stream_total < RELOCATE_MIN_STREAM:
        return _pending_relocate_scalar(
            curve, to_idx, snapshots, wire_res, wire_cap, candidates,
            wire_widths, lib)
    blocks = []       # (first stream row, snapshot entries, length, width)
    starts = []
    sizes = []        # per-block source count
    block_res = []    # per-block scalar wire parameters
    block_cap = []
    src_loads = []
    src_reqs = []
    src_areas = []
    row = 0
    for frm_idx, snapshot in enumerate(snapshots):
        if frm_idx == to_idx or not snapshot.entries:
            continue
        base_res = wire_res[frm_idx][to_idx]
        base_cap = wire_cap[frm_idx][to_idx]
        length = candidates[frm_idx].manhattan_to(root)
        ns = len(snapshot.entries)
        for width in wire_widths:
            blocks.append((row, snapshot.entries, length, width))
            starts.append(row)
            sizes.append(ns)
            block_res.append(base_res / width)
            block_cap.append(base_cap * width)
            src_loads.append(snapshot.loads)
            src_reqs.append(snapshot.reqs)
            src_areas.append(snapshot.areas)
            row += ns
    if not blocks:
        return False
    cat_loads = _np.concatenate(src_loads)
    cat_reqs = _np.concatenate(src_reqs)
    cat_areas = _np.concatenate(src_areas)
    sizes = _np.array(sizes)
    res_rep = _np.repeat(_np.array(block_res), sizes)
    cap_rep = _np.repeat(_np.array(block_cap), sizes)
    moved_load = cat_loads + cap_rep
    moved_req = cat_reqs - res_rep * (0.5 * cap_rep + cat_loads)
    n = len(cat_loads)
    loads = _np.empty((n, opts))
    reqs = _np.empty((n, opts))
    areas = _np.empty((n, opts))
    loads[:, 0] = moved_load
    reqs[:, 0] = moved_req
    areas[:, 0] = cat_areas
    if m:
        loads[:, 1:] = lib.caps
        reqs[:, 1:] = (moved_req[:, None] - lib.d0) \
            - lib.slope * moved_load[:, None]
        areas[:, 1:] = cat_areas[:, None] + lib.areas
    # The context keeps only the moved columns (n,), never the (n, opts)
    # stream: traceback rebuilds a buffered option from its moved row.
    ctx = ("reloc", root, starts, blocks, opts, moved_load, moved_req,
           buffer_params)
    win, klo, kar, w_loads, w_reqs, w_areas = _winner_stream(
        curve._inv_load, curve._inv_area, loads.ravel(), reqs.ravel(),
        areas.ravel())
    return _merge_entries(
        curve, zip(klo, kar),
        zip(w_loads, w_reqs, w_areas, repeat(ctx), win)) > 0


def _pending_relocate_scalar(curve: PendingCurve, to_idx: int,
                             snapshots, wire_res, wire_cap, candidates,
                             wire_widths, lib) -> bool:
    """Scalar relocation for small streams; stores deferred entries
    (sharing the intermediate moved entry, like the old eager path
    shared the moved solution)."""
    buffer_params = lib.params
    m = len(buffer_params)
    cap_keys = getattr(lib, "cap_keys", None)
    root = curve.root
    by_bucket = curve._by_bucket
    inv_load = curve._inv_load
    inv_area = curve._inv_area
    if cap_keys is None:
        cap_keys = [round(p[1] * inv_load) for p in buffer_params]
    # When no two buffers share a load bucket the shadow skip can never
    # fire; run the lean loop without its per-offer bookkeeping.
    shadows = lib.shadows if getattr(lib, "has_shadows", False) else None
    pairs = list(zip(cap_keys, buffer_params))
    changed = False
    get = by_bucket.get
    reqs_j = [0.0] * m
    akeys_j = [0] * m
    for frm_idx, snapshot in enumerate(snapshots):
        if frm_idx == to_idx or not snapshot.entries:
            continue
        base_res = wire_res[frm_idx][to_idx]
        base_cap = wire_cap[frm_idx][to_idx]
        length = candidates[frm_idx].manhattan_to(root)
        for width in wire_widths:
            res = base_res / width
            cap = base_cap * width
            half_self = 0.5 * cap
            for t in snapshot.entries:
                s_load = t[0]
                load = s_load + cap
                req = t[1] - res * (half_self + s_load)
                area = t[2]
                moved_t = None
                key = (round(load * inv_load), round(area * inv_area))
                incumbent = get(key)
                if incumbent is None or incumbent[1] < req:
                    moved_t = (load, req, area,
                               ("ext1", root, t, length, width), 0)
                    by_bucket[key] = moved_t
                    changed = True
                if shadows is None:
                    for ck, (buffer, input_cap, buf_area, d0,
                             slope) in pairs:
                        b_req = req - d0 - slope * load
                        b_area = area + buf_area
                        b_key = (ck, round(b_area * inv_area))
                        incumbent = get(b_key)
                        if incumbent is None or incumbent[1] < b_req:
                            if moved_t is None:
                                moved_t = (load, req, area,
                                           ("ext1", root, t, length,
                                            width), 0)
                            by_bucket[b_key] = (
                                input_cap, b_req, b_area,
                                ("buf1", root, moved_t, buffer), 0)
                            changed = True
                    continue
                for bj, (buffer, input_cap, buf_area, d0,
                         slope) in enumerate(buffer_params):
                    b_req = req - d0 - slope * load
                    b_area = area + buf_area
                    akey = round(b_area * inv_area)
                    reqs_j[bj] = b_req
                    akeys_j[bj] = akey
                    hit = False
                    for pi in shadows[bj]:
                        if akeys_j[pi] == akey and reqs_j[pi] >= b_req:
                            hit = True
                            break
                    if hit:
                        continue
                    b_key = (cap_keys[bj], akey)
                    incumbent = get(b_key)
                    if incumbent is None or incumbent[1] < b_req:
                        if moved_t is None:
                            moved_t = (load, req, area,
                                       ("ext1", root, t, length, width), 0)
                        by_bucket[b_key] = (input_cap, b_req, b_area,
                                            ("buf1", root, moved_t, buffer),
                                            0)
                        changed = True
    if changed:
        curve._pruned = False
    return changed


# ----------------------------------------------------------------------
# Pruning helpers (pending entries)
# ----------------------------------------------------------------------

def _survivor_indices(loads, areas, reqs):
    """Indices of 3-D Pareto survivors, in ``(load, area, -req)`` order.

    A numpy ``lexsort`` replaces the Python attribute-key sort (the
    expensive part of the scalar prune at scale), then the staircase
    sweep of ``curve._pareto_prune`` runs over the sorted columns as
    plain floats: entry i is dominated iff some kept earlier entry has
    ``area <= area_i`` and ``req >= req_i`` (earlier position already
    guarantees ``load <= load_i``).  Restricting dominators to *kept*
    entries loses nothing, by transitivity: a removed dominator is
    itself dominated by a kept entry that also dominates i.
    """
    n = len(loads)
    order = _np.lexsort((_np.arange(n), -reqs, areas, loads))
    s_areas = areas[order].tolist()
    s_reqs = reqs[order].tolist()
    kept_pos: List[int] = []
    keep = kept_pos.append
    stair_areas: List[float] = []    # ascending
    stair_reqs: List[float] = []     # prefix-max of required times
    br = bisect_right
    pos = -1
    for area, req in zip(s_areas, s_reqs):
        pos += 1
        idx = br(stair_areas, area)
        if idx and stair_reqs[idx - 1] >= req:
            continue  # dominated
        keep(pos)
        stair_areas.insert(idx, area)
        best_before = stair_reqs[idx - 1] if idx else float("-inf")
        stair_reqs.insert(idx, max(best_before, req))
        for later in range(idx + 1, len(stair_reqs)):
            if stair_reqs[later] >= stair_reqs[later - 1]:
                break
            stair_reqs[later] = stair_reqs[later - 1]
    return order[kept_pos]


def pareto_prune_items(items) -> Optional[list]:
    """Vectorized staircase prune over ``(key, Solution)`` items.

    Returns survivors in the scalar sweep's order, or None when the batch
    is too small to be worth vectorizing (caller runs the scalar sweep).
    """
    n = len(items)
    if n < PRUNE_MIN_ITEMS:
        return None
    flat = [x for kv in items
            for x in (kv[1].load, kv[1].area, kv[1].required_time)]
    matrix = _np.array(flat, dtype=_np.float64).reshape(n, 3)
    keep = _survivor_indices(matrix[:, 0], matrix[:, 1], matrix[:, 2])
    return [items[i] for i in keep.tolist()]


def _pending_prune_vector(items, cap: int):
    """Vectorized prune + capacity thin over ``(key, entry)`` items.

    Returns ``(survivors, (loads, reqs, areas))`` — the surviving items
    in the scalar sweep's order plus their attribute vectors in that same
    order — or None when the batch is outside the vectorization window.
    Thinning replicates ``curve._thin`` exactly: the three extreme points
    (first-occurrence ties, like ``max``/``min``) are forced, the rest is
    index-even sampled along the ``(load, required_time)``-sorted front.
    """
    n = len(items)
    if n < PENDING_PRUNE_MIN_ITEMS:
        return None
    flat = [x for kv in items for x in (kv[1][0], kv[1][2], kv[1][1])]
    matrix = _np.array(flat, dtype=_np.float64).reshape(n, 3)
    keep = _survivor_indices(matrix[:, 0], matrix[:, 1], matrix[:, 2])
    s_loads = matrix[:, 0][keep]
    s_areas = matrix[:, 1][keep]
    s_reqs = matrix[:, 2][keep]
    k = len(keep)
    if k <= cap:
        survivors = [items[i] for i in keep.tolist()]
        return survivors, (s_loads, s_reqs, s_areas)
    forced = []
    for i in (int(_np.argmax(s_reqs)), int(_np.argmin(s_loads)),
              int(_np.argmin(s_areas))):
        if i not in forced:
            forced.append(i)
    rest_mask = _np.ones(k, dtype=bool)
    rest_mask[forced] = False
    rest = _np.flatnonzero(rest_mask)
    rorder = _np.lexsort((_np.arange(len(rest)),
                          s_reqs[rest], s_loads[rest]))
    rest_sorted = rest[rorder]
    slots = cap - len(forced)
    nr = len(rest_sorted)
    if slots <= 0:
        picked = []
    elif nr <= slots:
        picked = rest_sorted.tolist()
    else:
        stride = nr / slots
        picked = [int(rest_sorted[int(i * stride)]) for i in range(slots)]
    sel = _np.array(forced + picked, dtype=_np.intp)
    survivors = [items[i] for i in keep[sel].tolist()]
    return survivors, (s_loads[sel], s_reqs[sel], s_areas[sel])


def _pending_prune_scalar(items) -> list:
    """Scalar staircase sweep over ``(key, entry)`` items — the pending
    mirror of ``repro.curves.curve._pareto_prune``."""
    # Decorated sort: C tuple comparison, no per-item key callable; the
    # index tiebreak keeps the stable order sorted(key=...) would give
    # and stops comparison ever reaching the (unorderable) items.
    order = [(kv[1][0], kv[1][2], -kv[1][1], i)
             for i, kv in enumerate(items)]
    order.sort()
    kept = []
    stair_areas: List[float] = []
    stair_reqs: List[float] = []
    for _load, area, _neg_req, i in order:
        key, t = items[i]
        req = t[1]
        idx = bisect_right(stair_areas, area)
        if idx > 0 and stair_reqs[idx - 1] >= req:
            continue  # dominated
        kept.append((key, t))
        stair_areas.insert(idx, area)
        best_before = stair_reqs[idx - 1] if idx > 0 else float("-inf")
        stair_reqs.insert(idx, max(best_before, req))
        for later in range(idx + 1, len(stair_reqs)):
            if stair_reqs[later] >= stair_reqs[later - 1]:
                break
            stair_reqs[later] = stair_reqs[later - 1]
    return kept


def _pending_thin(items: list, cap: int) -> list:
    """Capacity cap over pending items — mirrors ``curve._thin``."""
    # Single fused pass; strict comparisons keep the first occurrence,
    # matching max()/min() tie behavior.
    first = items[0][1]
    by_req = by_load = by_area = 0
    best_req, best_load, best_area = first[1], first[0], first[2]
    for i in range(1, len(items)):
        t = items[i][1]
        if t[1] > best_req:
            best_req = t[1]
            by_req = i
        if t[0] < best_load:
            best_load = t[0]
            by_load = i
        if t[2] < best_area:
            best_area = t[2]
            by_area = i
    # Positional dedup, mirroring curve._thin (no id()-derived keys).
    forced = {i: items[i] for i in dict.fromkeys((by_req, by_load, by_area))}
    rest = [kv for i, kv in enumerate(items) if i not in forced]
    slots = cap - len(forced)
    rest.sort(key=lambda kv: (kv[1][0], kv[1][1]))
    if slots <= 0:
        picked = []
    elif len(rest) <= slots:
        picked = rest
    else:
        stride = len(rest) / slots
        picked = [rest[int(i * stride)] for i in range(slots)]
    return list(forced.values()) + picked
