"""Drive a MERLIN front end with a workload; measure what matters.

The harness replays a :class:`~repro.loadgen.workload.Workload` against
a running server through :class:`~repro.client.MerlinClient` with a
bounded worker pool, and produces a :class:`LoadReport`:

* per-request outcomes (status, latency, retries, ``cached``, tree
  signature) in request order — the raw record;
* latency percentiles (p50/p95/p99), a log-bucketed histogram, and a
  wall-clock time series (per-second request count + mean latency) —
  the trend view;
* throughput (completed requests / wall seconds).

Reports back two kinds of claims:

* **Performance** — :func:`write_bench_serve` freezes a report into
  ``BENCH_serve.json`` (with the same machine-calibration probe the
  bench suite uses, so the committed numbers can be rescaled to other
  hosts instead of hand-waved).
* **Correctness** — :func:`check_equivalence` asserts every
  cache-equivalent request group (repeats, renamed/translated twins)
  returned one tree signature, and :func:`compare_signature_maps`
  diffs two signature maps of the same workload (a replay against a
  reference run).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.client import MerlinClient, RetryPolicy
from repro.loadgen.workload import Workload

#: Histogram bucket upper bounds, milliseconds (last bucket is +inf).
HISTOGRAM_BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                        500.0, 1000.0, 2000.0, 5000.0)

#: Schema version of the BENCH_serve.json artifact.
BENCH_SERVE_VERSION = 1


@dataclass
class RequestOutcome:
    """One request's fate, in workload order."""

    index: int
    kind: str
    status: int
    ok: bool
    latency_s: float
    start_offset_s: float
    retries: int = 0
    cached: Optional[bool] = None
    signature: Optional[str] = None
    error_code: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index, "kind": self.kind, "status": self.status,
            "ok": self.ok, "latency_s": round(self.latency_s, 6),
            "start_offset_s": round(self.start_offset_s, 6),
            "retries": self.retries, "cached": self.cached,
            "signature": self.signature, "error_code": self.error_code,
        }


@dataclass
class LoadReport:
    """Everything one workload replay produced."""

    target: str
    concurrency: int
    wall_s: float
    spec: Dict[str, Any]
    outcomes: List[RequestOutcome] = field(default_factory=list)

    # -- aggregates -----------------------------------------------------

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def latencies_ms(self, ok_only: bool = True) -> List[float]:
        return sorted(o.latency_s * 1000.0 for o in self.outcomes
                      if o.ok or not ok_only)

    def percentiles_ms(self) -> Dict[str, float]:
        values = self.latencies_ms()
        return {
            "p50": percentile(values, 50.0),
            "p95": percentile(values, 95.0),
            "p99": percentile(values, 99.0),
            "mean": (sum(values) / len(values)) if values else 0.0,
            "max": values[-1] if values else 0.0,
        }

    def histogram_ms(self) -> List[Dict[str, Any]]:
        """Log-bucketed latency histogram (successful requests)."""
        values = self.latencies_ms()
        buckets = []
        lower = 0.0
        remaining = list(values)
        for upper in HISTOGRAM_BUCKETS_MS:
            count = sum(1 for v in remaining if lower <= v < upper)
            buckets.append({"le_ms": upper, "count": count})
            lower = upper
        buckets.append({"le_ms": None,
                        "count": sum(1 for v in values
                                     if v >= HISTOGRAM_BUCKETS_MS[-1])})
        return buckets

    def time_series(self, bucket_s: float = 1.0) -> List[Dict[str, Any]]:
        """Per-wall-clock-bucket request count and mean latency."""
        series: Dict[int, List[float]] = {}
        for outcome in self.outcomes:
            series.setdefault(int(outcome.start_offset_s // bucket_s),
                              []).append(outcome.latency_s * 1000.0)
        return [{"t_s": bucket * bucket_s,
                 "count": len(lat),
                 "mean_ms": round(sum(lat) / len(lat), 3)}
                for bucket, lat in sorted(series.items())]

    def counts(self) -> Dict[str, int]:
        outcomes = self.outcomes
        return {
            "requests": len(outcomes),
            "ok": self.completed,
            "errors": sum(1 for o in outcomes if not o.ok),
            "rejected_429": sum(1 for o in outcomes if o.status == 429),
            "retried": sum(1 for o in outcomes if o.retries > 0),
            "cache_hits": sum(1 for o in outcomes if o.cached),
        }

    def signature_map(self) -> Dict[str, str]:
        """Request index -> tree signature (successes only); the unit of
        cross-run identity comparison."""
        return {str(o.index): o.signature for o in self.outcomes
                if o.ok and o.signature is not None}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "concurrency": self.concurrency,
            "wall_s": round(self.wall_s, 6),
            "spec": self.spec,
            "throughput_rps": round(self.throughput_rps, 3),
            "percentiles_ms": {k: round(v, 3) for k, v in
                               self.percentiles_ms().items()},
            "counts": self.counts(),
            "histogram_ms": self.histogram_ms(),
            "time_series": self.time_series(),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


def percentile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending list (0 when
    empty) — the numpy ``linear`` method, without numpy."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (q / 100.0) * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    weight = rank - low
    return sorted_values[low] * (1.0 - weight) + \
        sorted_values[high] * weight


class _WorkerClients:
    """One lazily-built :class:`MerlinClient` per harness worker thread
    (each with its own retry RNG, so replays keep per-worker
    deterministic backoff schedules)."""

    def __init__(self, factory: Callable[[int], MerlinClient]) -> None:
        self._factory = factory
        self._serial = itertools.count()
        self._local = threading.local()

    def get(self) -> MerlinClient:
        if not hasattr(self._local, "client"):
            self._local.client = self._factory(next(self._serial))
        return self._local.client


def _fire_request(clients: _WorkerClients, index: int,
                  request: Dict[str, Any],
                  started: float) -> RequestOutcome:
    """Issue one workload request; always returns an outcome (transport
    errors surface as status 0)."""
    offset = time.perf_counter() - started
    t0 = time.perf_counter()
    try:
        response = clients.get().request("POST", request["path"],
                                         request["body"])
        status, ok, retries = response.status, response.ok, response.retries
        result = response.result if isinstance(response.result, dict) \
            else {}
        error = response.error if isinstance(response.error, dict) else {}
    except Exception as exc:  # noqa: BLE001 — a dead server is data here
        status, ok, retries = 0, False, 0
        result, error = {}, {"code": "transport",
                             "message": str(exc)}
    latency = time.perf_counter() - t0
    return RequestOutcome(
        index=index,
        kind=request.get("kind", "fresh"),
        status=status,
        ok=ok,
        latency_s=latency,
        start_offset_s=offset,
        retries=retries,
        cached=result.get("cached"),
        signature=result.get("tree_signature"),
        error_code=error.get("code"),
    )


def run_workload(base_url: str, workload: Workload, concurrency: int = 4,
                 timeout_s: float = 120.0,
                 client_factory: Optional[Callable[[int], MerlinClient]]
                 = None) -> LoadReport:
    """Replay ``workload`` against ``base_url``; returns the report.

    Requests are submitted in workload order to a pool of ``concurrency``
    workers, each owning one :class:`MerlinClient` whose retry RNG is
    seeded from the workload seed plus the worker index — replays of a
    recorded workload produce the same retry schedules."""
    spec_seed = workload.spec.seed
    if client_factory is None:
        def client_factory(worker: int) -> MerlinClient:
            return MerlinClient(
                base_url, timeout_s=timeout_s,
                retry=RetryPolicy(seed=spec_seed + worker))
    clients = _WorkerClients(client_factory)
    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=max(1, concurrency),
                            thread_name_prefix="loadgen") as pool:
        futures = [pool.submit(_fire_request, clients, i, request, started)
                   for i, request in enumerate(workload.requests)]
        outcomes = [future.result() for future in futures]
    wall = time.perf_counter() - started
    return LoadReport(target=base_url, concurrency=concurrency,
                      wall_s=wall, spec=asdict(workload.spec),
                      outcomes=outcomes)


# -- correctness gates --------------------------------------------------


def check_equivalence(workload: Workload, report: LoadReport) -> List[str]:
    """Failures of within-replay identity: every cache-equivalent group
    (fresh + repeats + twins) must produce exactly one tree signature."""
    by_index = {o.index: o for o in report.outcomes}
    failures = []
    for base, indices in workload.equivalence_classes().items():
        signatures = {}
        for index in indices:
            outcome = by_index.get(index)
            if outcome is not None and outcome.ok and outcome.signature:
                signatures.setdefault(outcome.signature, []).append(index)
        if len(signatures) > 1:
            failures.append(
                f"equivalence class of request {base} returned "
                f"{len(signatures)} distinct signatures: "
                f"{sorted(signatures)}")
    return failures


def compare_signature_maps(left: Dict[str, str], right: Dict[str, str],
                           ) -> List[str]:
    """Cross-run identity failures: requests answered by both runs must
    carry identical tree signatures."""
    failures = []
    for key in sorted(set(left) & set(right), key=int):
        if left[key] != right[key]:
            failures.append(f"request {key}: {left[key]!r} != "
                            f"{right[key]!r}")
    return failures


# -- artifacts ----------------------------------------------------------


def build_bench_serve(report: LoadReport, tag: str = "serve",
                      extra: Optional[Dict[str, Any]] = None,
                      ) -> Dict[str, Any]:
    """The BENCH_serve.json document for one replay (environment and
    calibration included, outcomes elided — the summary is the claim)."""
    from repro.bench import calibration_seconds, environment_info

    environment = environment_info()
    environment["calibration_s"] = calibration_seconds()
    document = {
        "version": BENCH_SERVE_VERSION,
        "kind": "serve",
        "tag": tag,
        "environment": environment,
        "target": report.target,
        "concurrency": report.concurrency,
        "spec": report.spec,
        "wall_s": round(report.wall_s, 3),
        "throughput_rps": round(report.throughput_rps, 3),
        "percentiles_ms": {k: round(v, 3) for k, v in
                           report.percentiles_ms().items()},
        "counts": report.counts(),
        "histogram_ms": report.histogram_ms(),
        "time_series": report.time_series(),
    }
    if extra:
        document.update(extra)
    return document


def write_bench_serve(report: LoadReport, path: str, tag: str = "serve",
                      extra: Optional[Dict[str, Any]] = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(build_bench_serve(report, tag, extra), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")


def render_trend(report: LoadReport, width: int = 40) -> str:
    """A terminal trend summary: headline claim, histogram bars, and
    the per-second time series."""
    pct = report.percentiles_ms()
    counts = report.counts()
    lines = [
        f"target {report.target}  concurrency {report.concurrency}",
        f"{counts['ok']}/{counts['requests']} ok in "
        f"{report.wall_s:.2f}s  ->  {report.throughput_rps:.1f} req/s",
        f"latency ms  p50 {pct['p50']:.1f}  p95 {pct['p95']:.1f}  "
        f"p99 {pct['p99']:.1f}  max {pct['max']:.1f}",
        f"cache hits {counts['cache_hits']}  retried {counts['retried']}"
        f"  429s {counts['rejected_429']}  errors {counts['errors']}",
        "",
        "latency histogram:",
    ]
    buckets = [b for b in report.histogram_ms() if b["count"]]
    peak = max((b["count"] for b in buckets), default=1)
    for bucket in buckets:
        label = ("inf" if bucket["le_ms"] is None
                 else f"{bucket['le_ms']:.0f}")
        bar = "#" * max(1, round(width * bucket["count"] / peak))
        lines.append(f"  <= {label:>5} ms  {bucket['count']:>5}  {bar}")
    lines.append("")
    lines.append("per-second trend (count @ mean ms):")
    for point in report.time_series():
        lines.append(f"  t={point['t_s']:>5.1f}s  {point['count']:>4} req"
                     f" @ {point['mean_ms']:.1f} ms")
    return "\n".join(lines)
