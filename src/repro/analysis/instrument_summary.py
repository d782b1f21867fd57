"""Human-readable summaries of recorded instrumentation reports.

Consumes the JSON report produced by :meth:`repro.instrument.Recorder.
report` (or the recorder itself) and renders where the work went: timing
spans, DP volume counters, prune effectiveness, per-level curve growth,
and the MERLIN convergence trace.  This is the analysis-side counterpart
of the ``--stats`` CLI flag.
"""

from __future__ import annotations

from typing import Any, Dict, List, Union

from repro.instrument import names as metric
from repro.instrument.recorder import Recorder
from repro.instrument.report import coerce_recorder


def derived_metrics(source: Union[Recorder, Dict[str, Any], str]
                    ) -> Dict[str, float]:
    """Ratios the raw counters imply, keyed by stable derived names.

    * ``memo_hit_rate`` — fraction of *PTREE range lookups answered by
      the Lemma 7 memo (hits / (hits + computed)).
    * ``prune_survival`` — overall fraction of solutions surviving curve
      pruning (1 - removed / considered).
    * ``join_pairs_per_call`` — mean cross-product size per join.
    * ``ptree_time_fraction`` — *PTREE routing seconds over total
      ``bubble_construct`` seconds (span-path based).
    * ``curve_op_mix_*`` — fraction of kernel curve operations that were
      extends / joins / buffer insertions (DP work profile).
    * ``buffer_shadow_skip_ratio`` — fraction of candidate buffer offers
      the Li & Shi predecessor test discarded before insertion.
    * ``relocate_passes_total`` / ``vg_hops_total`` — relocation sweep
      and van Ginneken bottom-up hop volume.
    * ``dp_reuse_hits_total`` — Γ-cell memo plus neighborhood-search
      reuse hits across MERLIN iterations.
    * ``flow_runtime_total_s`` / ``merlin_*`` / ``finalize_time_fraction``
      / ``kernel_span_mix_*`` — whole-run profile: where the wall-clock
      went and how far the cost converged.
    * ``service_*`` / ``serve_*`` / ``cache_flushed_entries_total`` —
      serving-tier health: admission pressure, job latency, and drain
      accounting.
    * ``pipeline_*`` — timing-closure loop health: cache leverage,
      degradation/failure fractions, rollback rate, best delay reached,
      and write-ahead journal activity.
    """
    rec = coerce_recorder(source)
    counters = rec.counters
    out: Dict[str, float] = {}

    hits = counters.get(metric.BUBBLE_RANGE_MEMO_HITS, 0)
    computed = counters.get(metric.BUBBLE_RANGES, 0)
    if hits + computed:
        out["memo_hit_rate"] = hits / (hits + computed)

    prunes = counters.get(metric.CURVE_PRUNE_CALLS, 0)
    removed = counters.get(metric.CURVE_PRUNE_REMOVED, 0)
    ratio_series = rec.series.get(metric.CURVE_PRUNE_SURVIVOR_RATIO)
    if prunes and ratio_series is not None:
        out["prune_survival"] = ratio_series.mean
        out["pruned_solutions_total"] = float(removed)

    calls = counters.get(metric.PTREE_JOIN_CALLS, 0)
    pairs = counters.get(metric.PTREE_JOIN_PAIRS, 0)
    if calls:
        out["join_pairs_per_call"] = pairs / calls

    bubble_s = sum(s.total_s for path, s in rec.spans.items()
                   if path.split("/")[-1] == metric.SPAN_BUBBLE_CONSTRUCT)
    ptree_s = sum(s.total_s for path, s in rec.spans.items()
                  if path.split("/")[-1] == metric.SPAN_PTREE)
    if bubble_s > 0:
        out["ptree_time_fraction"] = ptree_s / bubble_s

    extends = counters.get(metric.OPS_EXTEND, 0)
    joins = counters.get(metric.OPS_JOIN, 0)
    buffers = counters.get(metric.OPS_BUFFER, 0)
    ops_total = extends + joins + buffers
    if ops_total:
        out["curve_ops_total"] = float(ops_total)
        out["curve_op_mix_extend"] = extends / ops_total
        out["curve_op_mix_join"] = joins / ops_total
        out["curve_op_mix_buffer"] = buffers / ops_total

    skips = counters.get(metric.PTREE_BUFFER_SHADOW_SKIPS, 0)
    if buffers + skips:
        out["buffer_shadow_skip_ratio"] = skips / (buffers + skips)

    passes = counters.get(metric.PTREE_RELOCATE_PASSES, 0)
    if passes:
        out["relocate_passes_total"] = float(passes)

    reuse = (counters.get(metric.BUBBLE_GAMMA_MEMO_HITS, 0)
             + counters.get(metric.BUBBLE_NEIGHBORHOOD_HITS, 0))
    if reuse:
        out["dp_reuse_hits_total"] = float(reuse)

    hops = counters.get(metric.VG_HOPS, 0)
    if hops:
        out["vg_hops_total"] = float(hops)

    _derive_run_metrics(rec, counters, out)
    _derive_serving_metrics(rec, counters, out)
    _derive_pipeline_metrics(rec, counters, out)
    return out


def _span_seconds(rec: Recorder, leaf: str) -> float:
    """Total seconds of every span whose path ends in ``leaf``."""
    return sum(s.total_s for path, s in rec.spans.items()
               if path.split("/")[-1] == leaf)


def _derive_run_metrics(rec: Recorder, counters: Dict[str, int],
                        out: Dict[str, float]) -> None:
    """Whole-run summaries: flow runtime, convergence, span profile."""
    flow = rec.series.get(metric.FLOW_RUNTIME_S)
    if flow is not None:
        out["flow_runtime_total_s"] = flow.total

    cost = rec.series.get(metric.MERLIN_ITERATION_COST)
    if cost is not None and cost.count:
        out["merlin_final_cost"] = cost.last
        out["merlin_cost_improvement"] = cost.maximum - cost.last

    merlin_s = _span_seconds(rec, metric.SPAN_MERLIN)
    finalize_s = _span_seconds(rec, metric.SPAN_FINALIZE)
    if merlin_s > 0:
        out["finalize_time_fraction"] = finalize_s / merlin_s

    join_s = _span_seconds(rec, metric.SPAN_KERNEL_JOIN)
    buffer_s = _span_seconds(rec, metric.SPAN_KERNEL_BUFFER)
    relocate_s = _span_seconds(rec, metric.SPAN_KERNEL_RELOCATE)
    prune_s = _span_seconds(rec, metric.SPAN_KERNEL_PRUNE)
    kernel_s = join_s + buffer_s + relocate_s + prune_s
    if kernel_s > 0:
        out["kernel_span_mix_join"] = join_s / kernel_s
        out["kernel_span_mix_buffer"] = buffer_s / kernel_s
        out["kernel_span_mix_relocate"] = relocate_s / kernel_s
        out["kernel_span_mix_prune"] = prune_s / kernel_s


def _derive_serving_metrics(rec: Recorder, counters: Dict[str, int],
                            out: Dict[str, float]) -> None:
    """Service/serving-tier health: admission, jobs, drain."""
    requests = counters.get(metric.SERVICE_REQUESTS, 0)
    jobs = counters.get(metric.SERVICE_JOBS, 0)
    if requests:
        out["service_jobs_per_request"] = jobs / requests
    job_latency = rec.series.get(metric.SERVICE_JOB_LATENCY_S)
    if job_latency is not None and job_latency.count:
        out["service_job_latency_mean_s"] = job_latency.mean

    admitted = counters.get(metric.SERVE_ADMITTED, 0)
    rejected = counters.get(metric.SERVE_REJECTED, 0)
    if admitted + rejected:
        out["serve_rejection_rate"] = rejected / (admitted + rejected)
    depth = rec.series.get(metric.SERVE_QUEUE_DEPTH)
    if depth is not None and depth.count:
        out["serve_queue_depth_peak"] = depth.maximum

    refusals = counters.get(metric.SERVE_DRAIN_REFUSALS, 0)
    if refusals:
        out["serve_drain_refusals_total"] = float(refusals)
    flushed = counters.get(metric.RESILIENCE_CACHE_FLUSHED, 0)
    if flushed:
        out["cache_flushed_entries_total"] = float(flushed)


def _derive_pipeline_metrics(rec: Recorder, counters: Dict[str, int],
                             out: Dict[str, float]) -> None:
    """Timing-closure loop health: progress, fallbacks, the journal."""
    iterations = counters.get(metric.PIPELINE_ITERATIONS, 0)
    reoptimized = counters.get(metric.PIPELINE_NETS_REOPTIMIZED, 0)
    if reoptimized:
        hits = counters.get(metric.PIPELINE_CACHE_HITS, 0)
        out["pipeline_cache_hit_rate"] = hits / reoptimized
        out["pipeline_degraded_fraction"] = \
            counters.get(metric.PIPELINE_NETS_DEGRADED, 0) / reoptimized
    failed = counters.get(metric.PIPELINE_NETS_FAILED, 0)
    if reoptimized + failed:
        out["pipeline_failed_fraction"] = failed / (reoptimized + failed)
    if iterations:
        out["pipeline_rollback_rate"] = \
            counters.get(metric.PIPELINE_ROLLBACKS, 0) / iterations
    delay = rec.series.get(metric.PIPELINE_ITERATION_DELAY_PS)
    if delay is not None and delay.count:
        out["pipeline_best_delay_ps"] = delay.minimum
    wall = rec.series.get(metric.PIPELINE_ITERATION_WALL_S)
    if wall is not None and wall.count:
        out["pipeline_iteration_wall_mean_s"] = wall.mean

    records = counters.get(metric.PIPELINE_JOURNAL_RECORDS, 0)
    replayed = counters.get(metric.PIPELINE_JOURNAL_REPLAYED, 0)
    torn = counters.get(metric.PIPELINE_JOURNAL_TORN, 0)
    if records or replayed or torn:
        out["pipeline_journal_records_total"] = float(records)
        out["pipeline_journal_replayed_total"] = float(replayed)
        out["pipeline_journal_torn_total"] = float(torn)


def summarize_report(source: Union[Recorder, Dict[str, Any], str]) -> str:
    """Render one recorded run as a plain-text summary."""
    rec = coerce_recorder(source)
    lines: List[str] = []

    if rec.spans:
        lines.append("Timing spans (path: count, total seconds):")
        for path in sorted(rec.spans,
                           key=lambda p: -rec.spans[p].total_s):
            span = rec.spans[path]
            lines.append(f"  {path:42s} {span.count:7d}  {span.total_s:9.4f}s")

    if rec.counters:
        lines.append("Counters:")
        for name in sorted(rec.counters):
            lines.append(f"  {name:42s} {rec.counters[name]:12d}")

    level_series = sorted(
        (name for name in rec.series
         if name.startswith("bubble.level.")
         and name.endswith(".curve_size_post")),
        key=lambda name: int(name.split(".")[2]))
    if level_series:
        lines.append("Per-level curve sizes (level: cells, mean pre -> "
                     "mean post):")
        for post_name in level_series:
            size = int(post_name.split(".")[2])
            pre = rec.series.get(metric.level_curve_size_pre(size))
            post = rec.series[post_name]
            pre_mean = pre.mean if pre is not None else float("nan")
            lines.append(f"  level {size:3d}: {post.count:5d} cells, "
                         f"{pre_mean:8.1f} -> {post.mean:8.1f}")

    derived = derived_metrics(rec)
    if derived:
        lines.append("Derived:")
        for name in sorted(derived):
            lines.append(f"  {name:42s} {derived[name]:12.4f}")

    iterations = rec.events.get(metric.EVENT_MERLIN_ITERATION, [])
    if iterations:
        lines.append("MERLIN iterations:")
        for entry in iterations:
            lines.append(
                f"  #{entry.get('index')}: cost={entry.get('cost'):.3f} "
                f"improved={entry.get('improved')} "
                f"order={entry.get('order')}")
    for entry in rec.events.get(metric.EVENT_MERLIN_RESULT, []):
        lines.append(
            f"Result: net={entry.get('net')} sinks={entry.get('sinks')} "
            f"iterations={entry.get('iterations')} "
            f"converged={entry.get('converged')} "
            f"best_cost={entry.get('best_cost'):.3f}")

    if not lines:
        return "(empty report)"
    return "\n".join(lines)
