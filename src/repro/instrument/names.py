"""Stable metric names emitted by the instrumented engine.

These constants are the *interface contract* of the instrumentation
layer: the ``net --stats`` report, the ``/v1/stats`` counters and the
repository benchmark's layer metrics key on these exact strings, so
renaming one is a breaking change and must be treated like renaming a
public function.  Every catalogued metric has a reader in the program,
its tests or the benchmark (the ``REG-DEAD-METRIC`` staticcheck rule
holds it to that); a metric nothing reads is deleted, not kept.

Naming scheme: ``<subsystem>.<thing>[.<aspect>]``, all lowercase, dots as
separators.  Timing spans use bare subsystem names; nested spans are
reported under their slash-joined path (e.g.
``merlin/bubble_construct/ptree``).
"""

from __future__ import annotations

# -- counters ----------------------------------------------------------

#: Outer-loop BUBBLE_CONSTRUCT invocations ("Loops" column of Table 1).
MERLIN_ITERATIONS = "merlin.iterations"

#: Γ-table cells materialized (single-sink base cells + parent cells).
BUBBLE_CELLS = "bubble.cells"
#: Hierarchy levels routed (one *PTREE range per level).
BUBBLE_LEVELS = "bubble.levels"
#: Distinct *PTREE sub-ranges computed (after memoization).
BUBBLE_RANGES = "bubble.ranges"
#: Range-memo hits — the Lemma 7 sharing actually realized.
BUBBLE_RANGE_MEMO_HITS = "bubble.range_memo_hits"

#: *PTREE join invocations (one per split point per range).
PTREE_JOIN_CALLS = "ptree.join.calls"
#: Candidate solution pairs enumerated across all joins.
PTREE_JOIN_PAIRS = "ptree.join.pairs"
#: Buffer options offered at range roots (per ``_buffer_all`` call site).
PTREE_BUFFER_OFFERS = "ptree.buffer.offers"
#: Sink base curves built (cache misses; hits stay silent).
PTREE_BASE_CURVES = "ptree.base_curves"

#: Γ-table cells reused across MERLIN iterations via the content-keyed
#: group memo (leaf fingerprints unchanged → prior slice reused).
BUBBLE_GAMMA_MEMO_HITS = "bubble.gamma_memo_hits"

#: SolutionCurve.prune invocations that had work to do.
CURVE_PRUNE_CALLS = "curve.prune.calls"
#: Solutions discarded by those prunes (dominated or over-cap).
CURVE_PRUNE_REMOVED = "curve.prune.removed"

#: Optimization-service requests served (HTTP and library entry points).
SERVICE_REQUESTS = "service.requests"
#: Requests rejected or failed (bad payload, engine error, timeout).
SERVICE_ERRORS = "service.errors"
#: Canonical-net cache hits (memory or disk) — no DP run needed.
SERVICE_CACHE_HITS = "service.cache.hits"
#: Canonical-net cache misses — a full engine run was paid.
SERVICE_CACHE_MISSES = "service.cache.misses"
#: Batch-engine jobs dispatched (cache misses that became pool work).
SERVICE_JOBS = "service.jobs"
#: Jobs that raised inside a worker (isolated, not fatal to the batch).
SERVICE_JOB_FAILURES = "service.job.failures"
#: Jobs abandoned after exceeding the per-job timeout.
SERVICE_JOB_TIMEOUTS = "service.job.timeouts"

#: Requests accepted by the async front end's admission control.
SERVE_ADMITTED = "serve.admitted"
#: Requests rejected with 429 because the bounded queue was full.
SERVE_REJECTED = "serve.rejected"
#: Requests refused with 503 because the front end was draining.
SERVE_DRAIN_REFUSALS = "serve.drain.refusals"

#: Timing-closure pipeline iterations executed (STA -> pick -> optimize).
PIPELINE_ITERATIONS = "pipeline.iterations"
#: Nets (re-)optimized by the closure pipeline, summed over iterations.
PIPELINE_NETS_REOPTIMIZED = "pipeline.nets.reoptimized"
#: Iterations whose re-timing got *worse* and were rolled back.
PIPELINE_ROLLBACKS = "pipeline.rollbacks"
#: Torn/corrupt final journal lines discarded by the reader.
PIPELINE_JOURNAL_TORN = "pipeline.journal.torn"

#: Faults fired by the injection framework (chaos runs only; zero in
#: production unless a FaultPlan is active).
RESILIENCE_FAULTS_INJECTED = "resilience.faults.injected"
#: Warm-pool rebuilds after a worker process died (BrokenProcessPool).
RESILIENCE_POOL_REBUILDS = "resilience.pool.rebuilds"
#: Jobs resubmitted to a rebuilt pool (each retry of each job counts).
RESILIENCE_JOB_RETRIES = "resilience.job.retries"
#: Disk-cache entries that failed their checksum/schema check.
RESILIENCE_CACHE_CORRUPTIONS = "resilience.cache.corruptions"
#: Corrupt disk-cache entries moved aside into the quarantine directory.
RESILIENCE_CACHE_QUARANTINED = "resilience.cache.quarantined"
#: Memory-tier entries written to the disk tier by a shutdown flush.
RESILIENCE_CACHE_FLUSHED = "resilience.cache.flushed"
#: Jobs answered by a degradation-ladder fallback (valid but degraded).
RESILIENCE_DEGRADED = "resilience.degraded"
#: Ladder rungs abandoned because their compute budget ran out.
RESILIENCE_BUDGET_EXHAUSTED = "resilience.budget.exhausted"

# -- series (value distributions) --------------------------------------

#: Curve sizes summed over candidates for one parent Γ cell, pre-prune.
BUBBLE_CURVE_SIZE_PRE = "bubble.curve_size_pre"
#: Same cell, post-prune.
BUBBLE_CURVE_SIZE_POST = "bubble.curve_size_post"
#: post/pre survivor ratio per parent Γ cell.
BUBBLE_PRUNE_RATIO = "bubble.prune_ratio"
#: Per-prune survivor ratio (kept/before) across every curve prune.
CURVE_PRUNE_SURVIVOR_RATIO = "curve.prune.survivor_ratio"
#: End-to-end latency (s) of one service request (cache hits included).
SERVICE_REQUEST_LATENCY_S = "service.request.latency_s"
#: End-to-end latency (s) of one async-front-end request.
SERVE_REQUEST_LATENCY_S = "serve.request.latency_s"
#: Queue depth (in-flight requests) sampled at each admission decision.
SERVE_QUEUE_DEPTH = "serve.queue.depth"
#: Engine wall-clock (s) of one service job (cache misses only).
SERVICE_JOB_LATENCY_S = "service.job.latency_s"


def service_endpoint_requests(endpoint: str) -> str:
    """Per-endpoint request counter (``service.endpoint.<name>.requests``,
    endpoint names without the leading slash: optimize, stats, healthz)."""
    return f"service.endpoint.{endpoint}.requests"


def resilience_fault(site: str) -> str:
    """Per-site injected-fault counter
    (``resilience.fault.<site>.injected``)."""
    return f"resilience.fault.{site}.injected"


def level_curve_size_pre(level_size: int) -> str:
    """Per-level pre-prune curve-size series (level = group size)."""
    return f"bubble.level.{level_size}.curve_size_pre"


def level_curve_size_post(level_size: int) -> str:
    """Per-level post-prune curve-size series."""
    return f"bubble.level.{level_size}.curve_size_post"


def flow_runtime(flow: str) -> str:
    """Per-flow runtime series name (``flow.<name>.runtime_s``)."""
    return f"flow.{flow}.runtime_s"


# -- events ------------------------------------------------------------

#: One record per MERLIN outer-loop iteration
#: (fields: index, cost, order, improved).
EVENT_MERLIN_ITERATION = "merlin.iteration"
#: One record per degraded answer
#: (fields: net, rung, reason, attempts).
EVENT_DEGRADATION = "resilience.degradation"
#: One record per closure-pipeline iteration (fields: index, policy,
#: candidates, selected, critical_delay, worst_slack, cache_hits).
EVENT_CLOSURE_ITERATION = "pipeline.iteration"

# -- span names --------------------------------------------------------

SPAN_MERLIN = "merlin"
SPAN_BUBBLE_CONSTRUCT = "bubble_construct"
SPAN_PTREE = "ptree"
SPAN_FINALIZE = "finalize"

#: Kernel-contract operation spans (recorded only when a recorder is
#: enabled; the spans attribute hot-path regressions to the operation —
#: join vs buffer vs relocate vs prune — not just to the scenario).
SPAN_KERNEL_JOIN = "curves.kernel.join"
SPAN_KERNEL_BUFFER = "curves.kernel.buffer"
SPAN_KERNEL_RELOCATE = "curves.kernel.relocate"
SPAN_KERNEL_PRUNE = "curves.kernel.prune"


def span_flow(flow: str) -> str:
    """Span name wrapping one baseline/MERLIN flow run."""
    return f"flow.{flow}"
