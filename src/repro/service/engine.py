"""The batch optimization engine: a warm process pool behind a cache.

:class:`OptimizationService` is the long-lived object the ROADMAP's
serving axis asks for.  Construction is cheap; the first cache-missing
job spawns a ``ProcessPoolExecutor`` **once**, and every subsequent
batch streams jobs into the same warm workers — the process-spawn and
import cost that dominates short jobs is paid once per service lifetime
instead of once per net (the bench harness's ``service`` scenario
measures exactly this against per-net cold fan-out).

Contract per job:

* **Cache first.**  Each net is canonicalized
  (:mod:`repro.service.canonical`); a hit rebuilds the stored tree in
  the requesting net's coordinate frame and skips the DP entirely.  An
  exact repeat rebuilds with a zero offset and is bit-identical —
  same ``tree_signature`` — to the cold run that populated the entry.
  Canonical twins *within one batch* are deduplicated too: the DP runs
  once and the twins resolve from the freshly cached entry.
* **Error isolation.**  A job that raises (in a worker or inline)
  yields a ``ServiceResult`` with ``ok=False`` and a structured
  :class:`~repro.resilience.errors.ErrorRecord` (kind / category /
  stage); the other jobs of the batch are unaffected.
* **Crash recovery.**  A worker process that *dies*
  (``BrokenProcessPool``) does not fail its job: the pool is rebuilt
  with bounded exponential backoff and every uncollected job is
  resubmitted; after ``pool_retries`` rebuilds the survivors run
  serially inline.  Either way the caller gets real results, and
  ``resilience.pool.rebuilds`` / ``resilience.job.retries`` record the
  event.
* **Per-job timeout.**  ``timeout_s`` bounds the wait for each result.
  ``ProcessPoolExecutor`` cannot kill a running task, so a timed-out
  job's worker finishes (and is discarded) in the background; its slot
  returns to the pool when it does.
* **Graceful degradation.**  When process pools are unavailable
  (sandboxes, restricted platforms) or ``workers == 1``, jobs run
  serially inline — same results, no pool, timeouts not enforceable.
  Independently, ``budget_ops`` / ``deadline_s`` bound each job's
  *compute*: on exhaustion the job walks the degradation ladder
  (:mod:`repro.resilience.degrade`) and returns a valid tree tagged
  ``degraded`` instead of failing.  Degraded payloads are never
  cached — the budget is not part of the cache key, and a degraded
  answer must not satisfy a future full-quality lookup.

Determinism: results are collected by submission index (never completion
order), and workers run with ``config.recorder`` stripped, exactly like
:mod:`repro.parallel`.

Chaos hooks: job dispatch and worker entry pass through the
``service.job`` / ``service.worker`` fault points
(:mod:`repro.resilience.faults`).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from threading import Lock
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.config import MerlinConfig
from repro.core.objective import Objective
from repro.instrument import Recorder
from repro.instrument import names as metric
from repro.net import Net
from repro.resilience.budget import ComputeBudget
from repro.resilience.degrade import run_with_ladder
from repro.resilience.errors import (
    ErrorRecord,
    JobTimeoutError,
    MerlinInputError,
    classify,
)
from repro.resilience.faults import fault_point
from repro.routing.evaluate import evaluate_tree
from repro.routing.export import (
    evaluation_to_dict,
    tree_from_dict,
    tree_signature,
    tree_to_dict,
)
from repro.routing.tree import RoutingTree
from repro.service.cache import ResultCache
from repro.service.canonical import canonical_key, technology_fingerprint
from repro.tech.technology import Technology, default_technology

#: Backoff before pool rebuild r (1-based) is
#: ``min(_POOL_BACKOFF_CAP_S, backoff_base * 2**(r-1))``.
_POOL_BACKOFF_CAP_S = 1.0


@dataclass(frozen=True)
class _Job:
    """One cache-missing optimization (picklable unit of pool work).

    The compute budget crosses the process boundary as plain numbers;
    the worker constructs its own :class:`ComputeBudget` at job start
    (a live budget's deadline anchor is process-local).
    """

    net: Net
    tech: Technology
    config: MerlinConfig
    objective: Objective
    budget_ops: Optional[int] = None
    deadline_s: Optional[float] = None


def _run_job(job: _Job) -> Dict[str, Any]:
    """Run one job down the degradation ladder; return the payload.

    With no budget configured the ladder's first rung is a plain
    ``merlin()`` run and the payload is bit-identical to the
    pre-resilience engine (golden signatures unchanged).  The tree is
    exported together with the source it was computed at, so a cache
    hit from a translate-equivalent net can rebuild it in its own frame
    (offset = new source - stored source; zero for repeats).
    """
    start = time.perf_counter()
    fault_point("service.job", key=job.net.name)
    budget: Optional[ComputeBudget] = None
    if job.budget_ops is not None or job.deadline_s is not None:
        budget = ComputeBudget(max_ops=job.budget_ops,
                               deadline_s=job.deadline_s)
    outcome = run_with_ladder(job.net, job.tech, config=job.config,
                              objective=job.objective, budget=budget)
    evaluation = evaluate_tree(outcome.tree, job.tech)
    payload: Dict[str, Any] = {
        "source": [job.net.source.x, job.net.source.y],
        "tree": tree_to_dict(outcome.tree),
        "evaluation": evaluation_to_dict(evaluation),
        "cost": outcome.cost,
        "iterations": outcome.iterations,
        "converged": outcome.converged,
        "cost_trace": list(outcome.cost_trace),
        "degraded": outcome.degraded,
        "engine_wall_s": time.perf_counter() - start,
    }
    if outcome.degraded:
        payload["degradation"] = {
            "rung": outcome.rung,
            "reason": outcome.reason,
            "attempts": list(outcome.attempts),
        }
    return payload


def _invoke_job(job: _Job) -> Dict[str, Any]:
    """Pool entry point: resolves the runner at call time in the worker,
    so tests can monkeypatch ``_JOB_RUNNER`` (inherited via fork) to
    inject failures and stalls without touching the engine."""
    fault_point("service.worker", key=job.net.name)
    return _JOB_RUNNER(job)


#: Indirection target of :func:`_invoke_job`; tests swap this.
_JOB_RUNNER = _run_job

#: A finished job is either a payload dict or a structured error.
_Outcome = Union[Dict[str, Any], ErrorRecord]


@dataclass
class ServiceResult:
    """The service's answer for one net (one entry per requested net)."""

    net_name: str
    #: False when the job errored or timed out (see :attr:`error`).
    ok: bool
    #: True when the answer came from the canonical-net cache.
    cached: bool
    #: Wall-clock seconds from request to answer (queueing included).
    elapsed_s: float
    error: Optional[str] = None
    #: Taxonomy projection of the failure (``ok=False`` only).
    error_kind: Optional[str] = None
    error_category: Optional[str] = None
    error_stage: Optional[str] = None
    signature: Optional[str] = None
    cost: Optional[float] = None
    iterations: Optional[int] = None
    converged: Optional[bool] = None
    #: True when a degradation-ladder fallback produced the tree.
    degraded: bool = False
    #: Ladder detail (rung, reason, attempts) when :attr:`degraded`.
    degradation: Optional[Dict[str, Any]] = field(default=None, repr=False)
    tree: Optional[RoutingTree] = field(default=None, repr=False)
    evaluation: Optional[Dict[str, Any]] = field(default=None, repr=False)

    @property
    def error_record(self) -> Optional[ErrorRecord]:
        """The failure as a structured record (None when ``ok``)."""
        if self.ok:
            return None
        return ErrorRecord(
            kind=self.error_kind or "MerlinError",
            category=self.error_category or "internal",
            stage=self.error_stage or "service",
            message=self.error or "",
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable body (the ``POST /v1/optimize`` result)."""
        data: Dict[str, Any] = {
            "net": self.net_name,
            "ok": self.ok,
            "cached": self.cached,
            "elapsed_s": self.elapsed_s,
        }
        if not self.ok:
            data["error"] = self.error
            record = self.error_record
            if record is not None:
                data["error_detail"] = record.to_dict()
            return data
        data.update({
            "tree_signature": self.signature,
            "cost": self.cost,
            "iterations": self.iterations,
            "converged": self.converged,
            "degraded": self.degraded,
            "tree": tree_to_dict(self.tree),
            "evaluation": self.evaluation,
        })
        if self.degraded and self.degradation is not None:
            data["degradation"] = self.degradation
        return data


class OptimizationService:
    """Long-lived, cache-fronted, pool-backed multi-net optimizer.

    Usable as a context manager; :meth:`close` shuts the warm pool down.
    All entry points are thread-safe (the HTTP front end calls
    :meth:`optimize` from many handler threads).

    Resilience knobs:

    ``budget_ops`` / ``deadline_s``
        Per-job compute budget handed to the degradation ladder (see
        module docstring).  ``budget_ops`` is deterministic;
        ``deadline_s`` is wall-clock.
    ``pool_retries``
        How many times a broken pool is rebuilt (with exponential
        backoff) before the surviving jobs run serially inline.
    ``pool_retry_backoff_s``
        Base of the backoff; rebuild ``r`` sleeps
        ``min(1.0, base * 2**(r-1))`` seconds.  Tests set 0.
    """

    def __init__(self, tech: Optional[Technology] = None,
                 config: Optional[MerlinConfig] = None,
                 objective: Optional[Objective] = None,
                 cache: Optional[ResultCache] = None,
                 workers: Optional[int] = None,
                 job_timeout_s: Optional[float] = None,
                 recorder: Optional[Recorder] = None,
                 budget_ops: Optional[int] = None,
                 deadline_s: Optional[float] = None,
                 pool_retries: int = 2,
                 pool_retry_backoff_s: float = 0.05) -> None:
        self.tech = tech or default_technology()
        # Workers never share the parent's recorder (unpicklable, racy);
        # budgets are per-job, never part of the shared config.
        self.config = (config or MerlinConfig()).with_(recorder=None,
                                                       budget=None)
        self.objective = objective or Objective.max_required_time()
        self.cache = cache if cache is not None else ResultCache()
        self.workers = workers if workers is not None else self.config.workers
        if self.workers < 1:
            raise MerlinInputError("workers must be >= 1")
        if pool_retries < 0:
            raise MerlinInputError("pool_retries must be >= 0")
        self.job_timeout_s = job_timeout_s
        self.budget_ops = budget_ops
        self.deadline_s = deadline_s
        self.pool_retries = pool_retries
        self.pool_retry_backoff_s = pool_retry_backoff_s
        self.recorder = recorder or Recorder()
        if self.cache.recorder is None:
            self.cache.recorder = self.recorder
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_disabled: Optional[str] = None
        self._lock = Lock()
        # The technology never changes over the service's lifetime, so
        # its (library-sized) fingerprint is computed once and reused by
        # every canonical-key construction.
        self._tech_fingerprint = technology_fingerprint(self.tech)

    @property
    def tech_fingerprint(self) -> str:
        """Precomputed :func:`technology_fingerprint` of this service's
        technology (shared with front ends that canonicalize for
        routing, so shard keys and cache keys agree byte-for-byte)."""
        return self._tech_fingerprint

    def canonical_key_for(self, net: Net,
                          objective: Optional[Objective] = None) -> str:
        """The canonical cache key this service would use for ``net``."""
        return canonical_key(
            net, self.tech, self.config,
            objective if objective is not None else self.objective,
            tech_fingerprint_hex=self._tech_fingerprint)

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "OptimizationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the warm pool (idempotent; service stays usable
        serially afterwards only via a fresh pool on next use)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _acquire_pool(self) -> Optional[ProcessPoolExecutor]:
        """The warm pool, spawned on first use; None => run serially."""
        if self.workers == 1:
            return None
        with self._lock:
            if self._pool is not None:
                return self._pool
            if self._pool_disabled is not None:
                return None
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            except (OSError, ImportError, NotImplementedError) as exc:
                # No process support here: degrade to serial, remember why.
                self._pool_disabled = repr(exc)
                return None
            return self._pool

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        with self._lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    # -- the service API ------------------------------------------------

    def optimize(self, net: Net,
                 timeout_s: Optional[float] = None,
                 objective: Optional[Objective] = None) -> ServiceResult:
        """Optimize one net (cache-aware); single-net :meth:`optimize_many`."""
        objectives = [objective] if objective is not None else None
        return self.optimize_many([net], timeout_s=timeout_s,
                                  objectives=objectives)[0]

    def optimize_many(self, nets: Sequence[Net],
                      timeout_s: Optional[float] = None,
                      objectives: Optional[
                          Sequence[Optional[Objective]]] = None
                      ) -> List[ServiceResult]:
        """Optimize ``nets``; returns one result per net, in order.

        ``timeout_s`` (default: the service's ``job_timeout_s``) bounds
        each job individually; see the module docstring for semantics.

        ``objectives``, when given, must align with ``nets`` and
        overrides the service objective per job (``None`` entries keep
        the default).  The objective is part of the canonical cache
        key, so per-job overrides never poison cached answers computed
        under a different selection rule — the timing-closure pipeline
        relies on this to pass each net its own required-time floor.
        """
        nets = list(nets)
        if objectives is None:
            objectives = [None] * len(nets)
        elif len(objectives) != len(nets):
            raise MerlinInputError(
                f"objectives ({len(objectives)}) must align with nets "
                f"({len(nets)})")
        job_objectives = [obj if obj is not None else self.objective
                          for obj in objectives]
        timeout_s = timeout_s if timeout_s is not None else self.job_timeout_s
        started = [time.perf_counter()] * len(nets)
        results: List[Optional[ServiceResult]] = [None] * len(nets)
        keys: List[Optional[str]] = [None] * len(nets)
        misses: List[int] = []
        duplicates: List[int] = []
        dispatched: set = set()

        for i, net in enumerate(nets):
            started[i] = time.perf_counter()
            self._record(metric.SERVICE_REQUESTS)
            try:
                key = canonical_key(
                    net, self.tech, self.config, job_objectives[i],
                    tech_fingerprint_hex=self._tech_fingerprint)
            except Exception as exc:  # un-canonicalizable input
                self._record(metric.SERVICE_ERRORS)
                results[i] = self._error_result(
                    net, started[i], classify(exc, stage="canonicalize"))
                continue
            keys[i] = key
            payload = self.cache.get(key)
            if payload is not None:
                self._record(metric.SERVICE_CACHE_HITS)
                results[i] = self._from_payload(net, payload, cached=True,
                                                started=started[i])
            elif key in dispatched:
                # Canonical twin of an earlier miss in this same batch:
                # run the DP once, resolve this one from the cache after.
                duplicates.append(i)
            else:
                self._record(metric.SERVICE_CACHE_MISSES)
                dispatched.add(key)
                misses.append(i)

        if misses:
            self._run_misses(nets, misses, keys, started, results, timeout_s,
                             job_objectives)
        for i in duplicates:
            self._resolve_duplicate(nets[i], i, keys, started, results)

        for i, result in enumerate(results):
            assert result is not None
            self._record_series(metric.SERVICE_REQUEST_LATENCY_S,
                                result.elapsed_s)
        return [r for r in results if r is not None]

    def stats(self) -> Dict[str, Any]:
        """Everything ``GET /stats`` reports."""
        with self._lock:
            mode = "pool" if self._pool is not None else (
                "serial" if self.workers == 1 or self._pool_disabled
                else "pool-cold")
            disabled = self._pool_disabled
            report = self.recorder.report()
        return {
            "workers": self.workers,
            "execution_mode": mode,
            "pool_disabled_reason": disabled,
            "job_timeout_s": self.job_timeout_s,
            "budget_ops": self.budget_ops,
            "deadline_s": self.deadline_s,
            "pool_retries": self.pool_retries,
            "cache": self.cache.stats(),
            "counters": report["counters"],
            "latency": report["series"],
        }

    # -- miss execution -------------------------------------------------

    def _make_job(self, net: Net,
                  objective: Optional[Objective] = None) -> _Job:
        return _Job(net=net, tech=self.tech, config=self.config,
                    objective=objective if objective is not None
                    else self.objective,
                    budget_ops=self.budget_ops,
                    deadline_s=self.deadline_s)

    def _run_misses(self, nets: Sequence[Net], misses: List[int],
                    keys: List[Optional[str]], started: List[float],
                    results: List[Optional[ServiceResult]],
                    timeout_s: Optional[float],
                    objectives: Optional[Sequence[Objective]] = None) -> None:
        jobs = {i: self._make_job(
            nets[i], objectives[i] if objectives is not None else None)
            for i in misses}
        if (len(misses) == 1 and timeout_s is None
                and self._pool is None):
            # Singleton batch, no deadline, no warm pool yet: spawning a
            # multi-process pool costs more than the job itself, so run
            # it inline (bit-identical results — the pool exists for
            # parallelism and timeout enforcement, and neither applies).
            # A timeout, or an already-warm pool, keeps the pool path.
            i = misses[0]
            self._finish_job(nets[i], i, keys, started, results,
                             self._run_inline(jobs[i]))
            return
        pool = self._acquire_pool()
        if pool is None:
            for i in misses:
                self._finish_job(nets[i], i, keys, started, results,
                                 self._run_inline(jobs[i]))
            return

        pending = list(misses)
        rebuilds = 0
        while pending:
            try:
                futures = {i: pool.submit(_invoke_job, jobs[i])
                           for i in pending}
            except RuntimeError:  # pool already shut down
                self._discard_pool(pool)
                pool = self._acquire_pool()
                if pool is None:
                    for i in pending:
                        self._finish_job(nets[i], i, keys, started, results,
                                         self._run_inline(jobs[i]))
                    return
                continue
            broken = False
            for i in pending:
                future = futures[i]
                try:
                    outcome: _Outcome = future.result(timeout=timeout_s)
                except FutureTimeoutError:
                    future.cancel()
                    self._record(metric.SERVICE_JOB_TIMEOUTS)
                    self._record(metric.SERVICE_ERRORS)
                    outcome = JobTimeoutError(
                        f"job timed out after {timeout_s}s "
                        f"(worker still draining)", stage="pool").record
                except BrokenProcessPool:
                    # A worker died.  Do NOT fail the job: rebuild the
                    # pool (bounded, with backoff) and resubmit every
                    # job not yet collected — this one included.
                    broken = True
                    break
                except Exception as exc:
                    self._record(metric.SERVICE_JOB_FAILURES)
                    self._record(metric.SERVICE_ERRORS)
                    outcome = classify(exc, stage="engine")
                self._finish_job(nets[i], i, keys, started, results, outcome)
            if not broken:
                return
            pending = [i for i in pending if results[i] is None]
            self._discard_pool(pool)
            rebuilds += 1
            self._record(metric.RESILIENCE_POOL_REBUILDS)
            self._record(metric.RESILIENCE_JOB_RETRIES, len(pending))
            if rebuilds > self.pool_retries:
                # Retry budget spent: the pool path is not trustworthy
                # right now — finish the survivors serially inline.
                for i in pending:
                    self._finish_job(nets[i], i, keys, started, results,
                                     self._run_inline(jobs[i]))
                return
            backoff = min(_POOL_BACKOFF_CAP_S,
                          self.pool_retry_backoff_s * (2 ** (rebuilds - 1)))
            if backoff > 0:
                time.sleep(backoff)
            pool = self._acquire_pool()
            if pool is None:
                for i in pending:
                    self._finish_job(nets[i], i, keys, started, results,
                                     self._run_inline(jobs[i]))
                return

    def _run_inline(self, job: _Job) -> _Outcome:
        """Serial fallback: payload dict on success, structured error
        record on failure (same isolation contract as the pool path)."""
        try:
            return _JOB_RUNNER(job)
        except Exception as exc:
            self._record(metric.SERVICE_JOB_FAILURES)
            self._record(metric.SERVICE_ERRORS)
            return classify(exc, stage="engine")

    def _finish_job(self, net: Net, i: int, keys: List[Optional[str]],
                    started: List[float],
                    results: List[Optional[ServiceResult]],
                    outcome: _Outcome) -> None:
        """Record one job's outcome: payload dict = success (cached for
        next time unless degraded), ErrorRecord = failure."""
        self._record(metric.SERVICE_JOBS)
        if isinstance(outcome, ErrorRecord):
            results[i] = self._error_result(net, started[i], outcome)
            return
        self._record_series(metric.SERVICE_JOB_LATENCY_S,
                            outcome.get("engine_wall_s", 0.0))
        key = keys[i]
        if outcome.get("degraded"):
            # A degraded payload must never serve a future full-quality
            # lookup: the budget is excluded from the canonical key.
            self._record(metric.RESILIENCE_DEGRADED)
            for attempt in (outcome.get("degradation") or {}).get(
                    "attempts", ()):
                if attempt.get("error", {}).get("kind") \
                        == "BudgetExhaustedError":
                    self._record(metric.RESILIENCE_BUDGET_EXHAUSTED)
        elif key is not None:
            self.cache.put(key, outcome)
        results[i] = self._from_payload(net, outcome, cached=False,
                                        started=started[i])

    def _resolve_duplicate(self, net: Net, i: int,
                           keys: List[Optional[str]], started: List[float],
                           results: List[Optional[ServiceResult]]) -> None:
        """Answer a within-batch canonical twin from the entry its
        primary just cached (or mirror the primary's outcome when no
        entry exists — failures, degraded answers)."""
        key = keys[i]
        payload = self.cache.get(key) if key is not None else None
        if payload is not None:
            self._record(metric.SERVICE_CACHE_HITS)
            results[i] = self._from_payload(net, payload, cached=True,
                                            started=started[i])
            return
        primary = next((r for j, r in enumerate(results)
                        if r is not None and keys[j] == key and j != i),
                       None)
        if primary is not None and primary.ok:
            # Degraded primary: nothing was cached; mirror its answer by
            # rebuilding from this net's own frame is not possible here,
            # so re-present the primary's tree data for this twin.
            results[i] = ServiceResult(
                net_name=net.name,
                ok=True,
                cached=False,
                elapsed_s=time.perf_counter() - started[i],
                signature=primary.signature,
                cost=primary.cost,
                iterations=primary.iterations,
                converged=primary.converged,
                degraded=primary.degraded,
                degradation=primary.degradation,
                tree=primary.tree,
                evaluation=primary.evaluation,
            )
            return
        self._record(metric.SERVICE_ERRORS)
        record = primary.error_record if primary is not None else None
        if record is None:
            record = ErrorRecord(
                kind="MerlinInternalError", category="internal",
                stage="service",
                message="canonically identical job in this batch failed")
        results[i] = self._error_result(net, started[i], record)

    # -- result assembly ------------------------------------------------

    def _from_payload(self, net: Net, payload: Dict[str, Any], cached: bool,
                      started: float) -> ServiceResult:
        """Rebuild a tree-bearing result in ``net``'s coordinate frame."""
        sx, sy = payload["source"]
        offset = (net.source.x - sx, net.source.y - sy)
        tree = tree_from_dict(payload["tree"], net, self.tech.buffers,
                              offset=offset)
        return ServiceResult(
            net_name=net.name,
            ok=True,
            cached=cached,
            elapsed_s=time.perf_counter() - started,
            signature=tree_signature(tree),
            cost=payload["cost"],
            iterations=payload["iterations"],
            converged=payload["converged"],
            degraded=bool(payload.get("degraded", False)),
            degradation=payload.get("degradation"),
            tree=tree,
            evaluation=payload["evaluation"],
        )

    def _error_result(self, net: Net, started: float,
                      error: Union[str, ErrorRecord]) -> ServiceResult:
        if isinstance(error, str):
            error = ErrorRecord(kind="MerlinInternalError",
                                category="internal", stage="service",
                                message=error)
        return ServiceResult(
            net_name=net.name,
            ok=False,
            cached=False,
            elapsed_s=time.perf_counter() - started,
            error=error.message,
            error_kind=error.kind,
            error_category=error.category,
            error_stage=error.stage,
        )

    # -- recorder (thread-safe wrappers) --------------------------------

    def _record(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.recorder.incr(name, n)

    def _record_series(self, name: str, value: float) -> None:
        with self._lock:
            self.recorder.record(name, value)


def optimize_many(nets: Sequence[Net], tech: Optional[Technology] = None,
                  config: Optional[MerlinConfig] = None,
                  objective: Optional[Objective] = None,
                  workers: Optional[int] = None,
                  cache: Optional[ResultCache] = None,
                  timeout_s: Optional[float] = None,
                  budget_ops: Optional[int] = None,
                  deadline_s: Optional[float] = None) -> List[ServiceResult]:
    """One-shot convenience: optimize ``nets`` through a transient
    :class:`OptimizationService` (spawn pool, stream jobs, shut down).

    Long-running callers should hold an :class:`OptimizationService` of
    their own so the pool and cache stay warm across batches.
    """
    with OptimizationService(tech=tech, config=config, objective=objective,
                             cache=cache, workers=workers,
                             budget_ops=budget_ops,
                             deadline_s=deadline_s) as service:
        return service.optimize_many(nets, timeout_s=timeout_s)
