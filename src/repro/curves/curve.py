"""The :class:`SolutionCurve` container and its pruning rules."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.curves import kernels
from repro.curves.solution import Solution
from repro.geometry.point import Point
from repro.instrument import names as metric
from repro.instrument.recorder import active_recorder


@dataclass(frozen=True)
class CurveConfig:
    """Quantization and capacity parameters for solution curves.

    The paper's pseudo-polynomial bounds assume capacitances are mapped to
    polynomially-bounded integers; ``load_step`` and ``area_step`` implement
    that mapping (bucket widths in fF and um^2).  Within one
    ``(load bucket, area bucket)`` cell only the best-required-time solution
    is kept, which realizes the O(n·m·q) curve bound of Lemma 10.

    ``max_solutions`` is a hard safety cap applied after Pareto pruning;
    when it trips, solutions are thinned evenly along the area axis while
    the three extreme points (best required time, min load, min area) are
    always retained, so both objective variants keep their optima.

    ``backend`` selects the curve-kernel implementation: ``"numpy"``
    (vectorized structure-of-arrays kernels; the default whenever NumPy
    imports) or ``"python"`` (dependency-free scalar loops; the default
    otherwise, and the reference the numpy kernels must match).  Results
    are bit-identical either way (see :mod:`repro.curves.kernels`).
    Requesting ``"numpy"`` without NumPy installed degrades gracefully to
    ``"python"``.
    """

    load_step: float = 1.0
    area_step: float = 30.0
    max_solutions: int = 64
    backend: str = field(default_factory=kernels.default_backend)

    def __post_init__(self) -> None:
        if self.load_step <= 0 or self.area_step <= 0:
            raise ValueError("quantization steps must be positive")
        if self.max_solutions < 3:
            raise ValueError("max_solutions must be >= 3")
        if self.backend not in kernels.BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {kernels.BACKENDS}")

    def resolved_backend(self) -> str:
        """The backend that will actually run (after NumPy availability)."""
        return kernels.resolve_backend(self.backend)

    def bucket(self, solution: Solution) -> Tuple[int, int]:
        """Return the (load, area) quantization bucket of ``solution``."""
        return (round(solution.load / self.load_step),
                round(solution.area / self.area_step))


class SolutionCurve:
    """A set of mutually non-inferior solutions sharing one root location.

    Insertion keeps the bucket invariant eagerly (cheap); full 3-D Pareto
    pruning and the capacity cap are applied by :meth:`prune`, which the DP
    calls once per table cell (lines 19–20 of BUBBLE_CONSTRUCT).

    The ``accept_key``/``add_keyed`` pair is the hot-path API: the DP
    computes candidate attribute triples arithmetically, asks
    :meth:`accept_key` whether such a solution would survive the bucket
    check, and only constructs the :class:`Solution` (and its traceback
    record) when the answer is a key.
    """

    __slots__ = ("root", "config", "_by_bucket", "_pruned",
                 "_inv_load", "_inv_area", "_numpy")

    def __init__(self, root: Point, config: Optional[CurveConfig] = None):
        self.root = root
        self.config = config or CurveConfig()
        self._by_bucket: Dict[Tuple[int, int], Solution] = {}
        self._pruned = True
        self._inv_load = 1.0 / self.config.load_step
        self._inv_area = 1.0 / self.config.area_step
        self._numpy = self.config.resolved_backend() == "numpy"

    def __len__(self) -> int:
        return len(self._by_bucket)

    def __iter__(self) -> Iterator[Solution]:
        return iter(self._by_bucket.values())

    def __bool__(self) -> bool:
        return bool(self._by_bucket)

    @property
    def solutions(self) -> List[Solution]:
        """The current solutions, sorted by ascending load."""
        return sorted(self._by_bucket.values(), key=Solution.key)

    # ------------------------------------------------------------------
    # Hot-path API
    # ------------------------------------------------------------------

    def accept_key(self, load: float, required_time: float,
                   area: float) -> Optional[Tuple[int, int]]:
        """Return the bucket key when a solution with these attributes
        would be kept, else None (bucket incumbent is at least as good)."""
        key = (round(load * self._inv_load), round(area * self._inv_area))
        incumbent = self._by_bucket.get(key)
        if incumbent is None or incumbent.required_time < required_time:
            return key
        return None

    def add_keyed(self, key: Tuple[int, int], solution: Solution) -> None:
        """Store ``solution`` under a key obtained from :meth:`accept_key`."""
        self._by_bucket[key] = solution
        self._pruned = False

    # ------------------------------------------------------------------
    # Convenience API
    # ------------------------------------------------------------------

    def would_accept(self, load: float, required_time: float,
                     area: float) -> bool:
        """Boolean form of :meth:`accept_key`."""
        return self.accept_key(load, required_time, area) is not None

    def add(self, solution: Solution) -> bool:
        """Insert ``solution``; return True when it was kept.

        Within its quantization bucket the solution must beat the incumbent
        required time to be kept (ties keep the incumbent, matching "only
        non-inferior solutions are stored").
        """
        if solution.root != self.root:
            raise ValueError(
                f"solution rooted at {solution.root} added to curve at {self.root}")
        key = self.accept_key(solution.load, solution.required_time,
                              solution.area)
        if key is None:
            return False
        self.add_keyed(key, solution)
        return True

    def extend(self, solutions) -> int:
        """Insert many solutions; return how many were stored.

        On the numpy backend a :class:`~repro.curves.kernels.CurveSoA`
        input is inserted as one vectorized batch (same final curve
        state; the returned count then reflects per-bucket winners
        rather than every transiently accepted solution).
        """
        if (self._numpy and isinstance(solutions, kernels.CurveSoA)
                and len(solutions) >= kernels.EXTEND_MIN_ITEMS):
            return kernels.batch_insert(self, solutions)
        return sum(1 for s in solutions if self.add(s))

    def prune(self) -> None:
        """Remove 3-D dominated solutions and enforce the capacity cap."""
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
        survivors = None
        if self._numpy:
            survivors = kernels.pareto_prune_items(
                list(self._by_bucket.items()))
        if survivors is None:
            survivors = _pareto_prune(self._by_bucket)
        if len(survivors) > self.config.max_solutions:
            survivors = _thin(survivors, self.config.max_solutions)
        self._by_bucket = dict(survivors)
        self._pruned = True
        if rec.enabled:
            kept = len(self._by_bucket)
            rec.incr(metric.CURVE_PRUNE_CALLS)
            rec.incr(metric.CURVE_PRUNE_REMOVED, before - kept)
            rec.record(metric.CURVE_PRUNE_SURVIVOR_RATIO,
                       kept / before if before else 1.0)

    def best_required_time(self) -> Optional[Solution]:
        """Return the solution with the highest required time, if any."""
        if not self._by_bucket:
            return None
        return max(self._by_bucket.values(),
                   key=lambda s: (s.required_time, -s.area, -s.load))

    def is_non_inferior_set(self) -> bool:
        """True when no stored solution dominates another (test hook)."""
        sols = list(self._by_bucket.values())
        for i, a in enumerate(sols):
            for j, b in enumerate(sols):
                if i != j and a.dominates(b):
                    return False
        return True


def _pareto_prune(by_bucket: Dict[Tuple[int, int], Solution]
                  ) -> List[Tuple[Tuple[int, int], Solution]]:
    """Drop bucket entries whose solution is 3-D dominated by another.

    Sweep in ascending (load, area) order: every already-kept entry has
    load no larger than the current one, so the current entry is dominated
    iff some kept entry with ``area <= current.area`` has
    ``required_time >= current.required_time``.  That query is answered by
    a *staircase*: kept (area, best required time) pairs with areas strictly
    increasing and prefix-maximal required times.  An entry processed
    earlier can never be dominated by a later one (the later has larger
    load, or equal load and larger area), so a single pass suffices —
    O(s log s) instead of the pairwise O(s^2).
    """
    items = sorted(by_bucket.items(),
                   key=lambda kv: (kv[1].load, kv[1].area,
                                   -kv[1].required_time))
    kept: List[Tuple[Tuple[int, int], Solution]] = []
    stair_areas: List[float] = []    # ascending
    stair_reqs: List[float] = []     # prefix-max of required times
    for key, sol in items:
        idx = bisect_right(stair_areas, sol.area)
        if idx > 0 and stair_reqs[idx - 1] >= sol.required_time:
            continue  # dominated
        kept.append((key, sol))
        # Insert into the staircase, preserving both invariants; the
        # insertion point is the same index the dominance query used.
        pos = idx
        stair_areas.insert(pos, sol.area)
        best_before = stair_reqs[pos - 1] if pos > 0 else float("-inf")
        stair_reqs.insert(pos, max(best_before, sol.required_time))
        for later in range(pos + 1, len(stair_reqs)):
            if stair_reqs[later] >= stair_reqs[later - 1]:
                break
            stair_reqs[later] = stair_reqs[later - 1]
    return kept


def _thin(items: List[Tuple[Tuple[int, int], Solution]], cap: int
          ) -> List[Tuple[Tuple[int, int], Solution]]:
    """Reduce ``items`` to ``cap`` entries, preserving the front's shape.

    The input is already a 3-D Pareto front; the cap is enforced by
    index-even sampling along the load-sorted front, which keeps points in
    every load regime (what parent joins at different distances care
    about) rather than clustering around one region.  The three extreme
    points — best required time, minimum load, minimum area — are always
    retained so both objective variants keep their optima.
    """
    indices = range(len(items))
    by_req = max(indices, key=lambda i: items[i][1].required_time)
    by_load = min(indices, key=lambda i: items[i][1].load)
    by_area = min(indices, key=lambda i: items[i][1].area)
    # Positional dedup (insertion-ordered, like the extremes above) —
    # not id()-keyed, so nothing here depends on allocation addresses.
    forced = {i: items[i] for i in dict.fromkeys((by_req, by_load, by_area))}
    rest = [kv for i, kv in enumerate(items) if i not in forced]
    slots = cap - len(forced)
    rest.sort(key=lambda kv: (kv[1].load, kv[1].required_time))
    if slots <= 0:
        picked = []
    elif len(rest) <= slots:
        picked = rest
    else:
        stride = len(rest) / slots
        picked = [rest[int(i * stride)] for i in range(slots)]
    return list(forced.values()) + picked
