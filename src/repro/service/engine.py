"""The batch optimization engine: a warm process pool behind a cache.

:class:`OptimizationService` is the long-lived object the ROADMAP's
serving axis asks for.  Construction is cheap.  With ``workers > 1`` the
first cache-missing batch of two or more nets (or any miss under a
timeout) spawns a ``ProcessPoolExecutor`` **once**, and every later
batch streams jobs into the same warm workers, so process spawn and
import are paid once per service lifetime.  A one-net batch with no
timeout on a service without a pool runs inline instead: spawning the
pool would cost more than the job.  The bench harness's ``service``
scenario times a fresh service per net (one inline solve each) against
one service solving the whole batch.

Contract per job:

* **Cache first.**  Each net is canonicalized
  (:mod:`repro.service.canonical`); a hit rebuilds the stored tree in
  the requesting net's coordinate frame and skips the DP entirely.  An
  exact repeat rebuilds with a zero offset and is bit-identical —
  same ``tree_signature`` — to the cold run that populated the entry.
  Canonical twins *within one batch* are deduplicated too: the DP runs
  once per canonical key, and every twin's answer is rebuilt in its own
  frame from that job's payload (or carries that job's error record).
* **Error isolation.**  A job that raises (in a worker or inline)
  yields a ``ServiceResult`` with ``ok=False`` and a structured
  :class:`~repro.resilience.errors.ErrorRecord` (kind / category /
  stage); the other jobs of the batch are unaffected.
* **Crash recovery.**  A worker process that *dies*
  (``BrokenProcessPool``), or a pool shut down under a batch, does not
  fail its jobs: the pool is rebuilt with bounded exponential backoff
  (0.05 s, doubling, capped at 1 s) and every uncollected job is
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
(:mod:`repro.resilience.faults`).  The pool's initializer installs, in
every worker, the fault plan that was active when the pool was created,
so a plan reaches the workers under any start method.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from threading import Lock
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

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
from repro.resilience.faults import (
    active_fault_plan,
    fault_point,
    install_fault_plan,
)
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
#: ``min(_POOL_BACKOFF_CAP_S, _POOL_BACKOFF_BASE_S * 2**(r-1))``.
_POOL_BACKOFF_BASE_S = 0.05
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
    """Pool entry point: the ``service.worker`` fault site, then the job."""
    fault_point("service.worker", key=job.net.name)
    return _run_job(job)


def _check_timeout(name: str, value: Optional[float]) -> None:
    """Reject a timeout that is neither None nor a finite number > 0."""
    if value is not None and (isinstance(value, bool)
                              or not isinstance(value, (int, float))
                              or not 0 < value < math.inf):
        raise MerlinInputError(
            f"{name} must be > 0 and finite, got {value!r}")


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
        How many times a broken pool is rebuilt before the surviving
        jobs run serially inline; rebuild ``r`` first sleeps
        ``min(1.0, 0.05 * 2**(r-1))`` seconds.
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
                 pool_retries: int = 2) -> None:
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
        # Checked here, not only by the ComputeBudget each job builds:
        # a bad setting would otherwise fail every request as the
        # client's input error.
        if budget_ops is not None and budget_ops < 0:
            raise MerlinInputError("budget_ops must be >= 0")
        if deadline_s is not None and deadline_s < 0:
            raise MerlinInputError("deadline_s must be >= 0")
        _check_timeout("job_timeout_s", job_timeout_s)
        self.job_timeout_s = job_timeout_s
        self.budget_ops = budget_ops
        self.deadline_s = deadline_s
        self.pool_retries = pool_retries
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
        technology (the closure journal stamps it into its header)."""
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
                # The initializer hands every worker the caller's fault
                # plan, which a spawned or forkserver worker would not
                # otherwise see.
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=install_fault_plan,
                    initargs=(active_fault_plan(),))
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
        _check_timeout("timeout_s", timeout_s)
        job_objectives = [obj if obj is not None else self.objective
                          for obj in objectives]
        timeout_s = timeout_s if timeout_s is not None else self.job_timeout_s
        started = [time.perf_counter()] * len(nets)
        results: List[Optional[ServiceResult]] = [None] * len(nets)
        # Per canonical key missed in this batch: its one job, and the
        # nets that job answers (the miss first, then its twins).
        jobs: Dict[str, _Job] = {}
        waiting: Dict[str, List[int]] = {}

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
            if key in jobs:
                waiting[key].append(i)
                continue
            payload = self.cache.get(key)
            if payload is not None:
                self._record(metric.SERVICE_CACHE_HITS)
                results[i] = self._from_payload(net, payload, cached=True,
                                                started=started[i])
            else:
                self._record(metric.SERVICE_CACHE_MISSES)
                jobs[key] = _Job(net=net, tech=self.tech, config=self.config,
                                 objective=job_objectives[i],
                                 budget_ops=self.budget_ops,
                                 deadline_s=self.deadline_s)
                waiting[key] = [i]

        for key, outcome in self._run_misses(jobs, timeout_s):
            self._finish_job(key, outcome)
            for n, i in enumerate(waiting[key]):
                results[i] = self._answer(nets[i], started[i], outcome,
                                          twin=n > 0)

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

    def _run_misses(self, jobs: Dict[str, _Job], timeout_s: Optional[float]
                    ) -> Iterator[Tuple[str, _Outcome]]:
        """Run each job once; yield ``(key, outcome)`` in batch order.

        Jobs go to the warm pool while it is usable.  A pool that breaks
        (a worker died) or is already shut down fails no job: it is
        rebuilt, after a backoff, at most ``pool_retries`` times, and
        every uncollected job is resubmitted.  Whatever is left then
        runs inline, as everything does when there is no pool.
        """
        pending = list(jobs)
        # A lone miss with no timeout and no warm pool runs inline:
        # spawning the pool costs more than the job, and the results are
        # the same either way.
        lone = len(pending) == 1 and timeout_s is None and self._pool is None
        pool = self._acquire_pool() if pending and not lone else None
        rebuilds = 0
        while pending and pool is not None:
            try:
                futures = [pool.submit(_invoke_job, jobs[key])
                           for key in pending]
            except RuntimeError:  # shut down or broken under us
                futures = []
            collected = 0
            for key, future in zip(pending, futures):
                # Wait, then read the finished future: a job's own
                # TimeoutError, re-raised by result(), is the same class
                # as the futures timeout (Python >= 3.11).
                if wait((future,), timeout=timeout_s).not_done:
                    future.cancel()
                    self._record(metric.SERVICE_JOB_TIMEOUTS)
                    self._record(metric.SERVICE_ERRORS)
                    outcome: _Outcome = JobTimeoutError(
                        f"job timed out after {timeout_s}s "
                        f"(worker still draining)", stage="pool").record
                else:
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:  # a worker died: rebuild
                        break
                    except Exception as exc:
                        outcome = self._job_failed(exc)
                collected += 1
                yield key, outcome
            pending = pending[collected:]
            if not pending:
                break
            self._discard_pool(pool)
            rebuilds += 1
            self._record(metric.RESILIENCE_POOL_REBUILDS)
            self._record(metric.RESILIENCE_JOB_RETRIES, len(pending))
            pool = None
            if rebuilds <= self.pool_retries:
                time.sleep(min(_POOL_BACKOFF_CAP_S,
                               _POOL_BACKOFF_BASE_S * 2 ** (rebuilds - 1)))
                pool = self._acquire_pool()
        for key in pending:
            try:
                outcome = _run_job(jobs[key])
            except Exception as exc:
                outcome = self._job_failed(exc)
            yield key, outcome

    def _job_failed(self, exc: Exception) -> ErrorRecord:
        """Count a job that raised (in a worker or inline); classify it."""
        self._record(metric.SERVICE_JOB_FAILURES)
        self._record(metric.SERVICE_ERRORS)
        return classify(exc, stage="engine")

    def _finish_job(self, key: str, outcome: _Outcome) -> None:
        """Count one job's outcome; cache its payload unless degraded."""
        self._record(metric.SERVICE_JOBS)
        if isinstance(outcome, ErrorRecord):
            return
        self._record_series(metric.SERVICE_JOB_LATENCY_S,
                            outcome.get("engine_wall_s", 0.0))
        if outcome.get("degraded"):
            # A degraded payload must never serve a future full-quality
            # lookup: the budget is excluded from the canonical key.
            self._record(metric.RESILIENCE_DEGRADED)
            for attempt in (outcome.get("degradation") or {}).get(
                    "attempts", ()):
                if attempt.get("error", {}).get("kind") \
                        == "BudgetExhaustedError":
                    self._record(metric.RESILIENCE_BUDGET_EXHAUSTED)
        else:
            self.cache.put(key, outcome)

    # -- result assembly ------------------------------------------------

    def _answer(self, net: Net, started: float, outcome: _Outcome,
                twin: bool) -> ServiceResult:
        """``net``'s answer from the outcome of its canonical key's job.

        A twin of a full-quality answer counts as a cache hit, since no
        DP ran for it; a twin of a failed job counts as one more error.
        """
        if isinstance(outcome, ErrorRecord):
            if twin:
                self._record(metric.SERVICE_ERRORS)
            return self._error_result(net, started, outcome)
        cached = twin and not outcome.get("degraded")
        if cached:
            self._record(metric.SERVICE_CACHE_HITS)
        return self._from_payload(net, outcome, cached=cached,
                                  started=started)

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
                      error: ErrorRecord) -> ServiceResult:
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
