"""Pure arithmetic of the benchmark: percentiles, failure accounting and
the layer table.  Nothing here imports the program, so the harness's own
logic is unit-tested without running a workload."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles a tail timing may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile in ``n`` samples
    (rounded first, so 99.9% of 10 000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly ranked above the nearest-rank ``p``-th percentile."""
    return n - _rank(n, p)


def supported_percentile(n: int) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` that still has
    :data:`MIN_SAMPLES_BEYOND` samples beyond it in a sample of ``n``
    (None when not even the median has)."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND:
            return p
    return None


@dataclass
class Tally:
    """Operations attempted and the ones that failed.

    An operation fails at most once however many checks it breaks: a
    request refused after its retries, a transport error, and a wrong
    signature on one request each make one failure, and a request that
    is both refused and mis-answered is still one.
    """

    attempted: int = 0
    #: operation id -> every reason it failed.
    failures: Dict[str, List[str]] = field(default_factory=dict)

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, op: str, reason: str) -> None:
        self.failures.setdefault(op, []).append(reason)

    @property
    def failed(self) -> int:
        return len(self.failures)


def span_self_times(spans: Dict[str, float]) -> Dict[str, float]:
    """Self seconds per span *name* from ``{path: total seconds}``.

    Span paths nest with ``/`` (``merlin/bubble_construct/ptree``).  A
    path's self time is its total minus its direct children's totals;
    self times of paths sharing a last component are summed, so the
    values add up to the total of the top-level spans.
    """
    child_total: Dict[str, float] = {}
    for path, total in spans.items():
        parent, _, _ = path.rpartition("/")
        if parent:
            child_total[parent] = child_total.get(parent, 0.0) + total
    by_name: Dict[str, float] = {}
    for path, total in spans.items():
        name = path.rpartition("/")[2]
        by_name[name] = by_name.get(name, 0.0) + total \
            - child_total.get(path, 0.0)
    return by_name


@dataclass(frozen=True)
class LayerRow:
    name: str
    seconds: float
    share: float


def layer_table(wall_s: float, layers: Sequence[Tuple[str, float]]
                ) -> Tuple[List[LayerRow], LayerRow]:
    """Rows of ``(layer, self seconds)`` as shares of ``wall_s`` plus the
    remainder no layer covers; rows and remainder add up to the wall.
    A negative remainder means the layers overlap or were measured on a
    different clock than the wall."""
    if wall_s <= 0.0:
        raise ValueError("wall time must be positive")
    rows = [LayerRow(name, seconds, seconds / wall_s)
            for name, seconds in layers]
    remainder = wall_s - sum(row.seconds for row in rows)
    return rows, LayerRow("(no layer)", remainder, remainder / wall_s)


def overhead_frac(traced_s: float, untraced_s: float) -> float:
    """Tracing overhead as a share of the untraced time."""
    return (traced_s - untraced_s) / untraced_s
