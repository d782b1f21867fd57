"""Benchmark harness: ``python -m repro.bench``.

Runs a pinned suite of nets across curve-kernel backends and worker
counts — plus a service-throughput scenario (warm persistent pool vs
per-net cold fan-out vs cache hits) — records engine wall-clock plus
instrumentation counters, and writes a versioned ``BENCH_<tag>.json``
so every future PR has a trajectory to beat.

The suite is *pinned*: net generators, seeds, and configs are fixed
here, so two runs of the same code measure the same work.  Besides
timing, the harness is a cross-backend equivalence gate — it exits
non-zero if the numpy backend's tree signature diverges from python's,
or if any worker count changes a multi-start outcome.  CI runs
``python -m repro.bench --quick`` for exactly that check.

Timing-regression gate: ``--baseline BENCH_quick.json`` compares the
run's tracked wall-clock timings against a committed snapshot and fails
on >20% slowdowns.  Raw seconds are not comparable across machines, so
both suites carry a *calibration* measurement — a fixed pure-Python
workload timed at suite start — and every comparison is normalized by
the calibration ratio first (a machine 2x slower overall is allowed 2x
the baseline seconds).  Sub-50ms timings are skipped as noise.  Beyond
end-to-end wall clocks, the engine cases track two recorder-span
aggregates (``star_ptree.run``, ``curves.prune``) so DP-internal
regressions cannot hide in harness noise; service and closure cases
run once per backend with backend-qualified keys.

Usage::

    python -m repro.bench                  # full pinned suite
    python -m repro.bench --quick          # CI-sized subset
    python -m repro.bench --tag pr2        # writes BENCH_pr2.json
    python -m repro.bench --backends python,numpy --out /tmp/b.json
    python -m repro.bench --quick --baseline BENCH_quick.json
    python -m repro.bench --quick --profile 25   # cProfile top-25
    merlin-repro bench --quick                   # same flags via the CLI
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro import parallel
from repro.core.config import MerlinConfig
from repro.core.merlin import merlin
from repro.core.objective import Objective
from repro.curves.curve import BACKENDS, CurveConfig
from repro.experiments.nets import make_experiment_net
from repro.instrument import Recorder
from repro.instrument import names as metric
from repro.routing.export import tree_signature
from repro.tech.technology import default_technology

BENCH_VERSION = 3

#: A tracked timing below this (after calibration scaling) is treated
#: as noise and excluded from the regression gate.
MIN_TRACKED_SECONDS = 0.05

#: Allowed slowdown of a tracked timing vs the (calibration-scaled)
#: baseline before the gate fails.
REGRESSION_THRESHOLD = 0.20

#: The curve-kernel spans every engine case reports as its span table
#: (seconds per kernel operation, and their share of the wall).
KERNEL_SPANS = (metric.SPAN_KERNEL_JOIN, metric.SPAN_KERNEL_BUFFER,
                metric.SPAN_KERNEL_RELOCATE, metric.SPAN_KERNEL_PRUNE)

#: The headline single-engine config: paper-faithful fine quantization
#: (pseudo-polynomial buckets small relative to sink loads) — large
#: curves, where the curve kernels dominate the solve.
_HEAVY_CURVE = CurveConfig(load_step=0.25, area_step=10.0,
                           max_solutions=160)


def _engine_cases(quick: bool) -> List[Dict[str, Any]]:
    """Single-run cases: one net + config, timed per backend."""
    if quick:
        return [{
            "name": "quick6",
            "sinks": 6,
            "seed": 11,
            "config": MerlinConfig.test_preset(),
        }, {
            # The served preset at the net size that sets the served
            # tail: a cold solve bound by the curve kernels.
            "name": "fast6",
            "sinks": 6,
            "seed": 1,
            "config": MerlinConfig.fast_preset(),
        }]
    return [{
        # The pinned 15-sink net of the PR-2 acceptance criterion.
        "name": "bench15",
        "sinks": 15,
        "seed": 7,
        "config": MerlinConfig(
            alpha=3, max_candidates=5, library_subset=4,
            max_iterations=1, curve=_HEAVY_CURVE),
    }]


def _parallel_cases(quick: bool) -> List[Dict[str, Any]]:
    """Multi-start cases: one net swept across worker counts."""
    if quick:
        return [{
            "name": "multistart5",
            "sinks": 5,
            "seed": 3,
            "config": MerlinConfig.test_preset(),
            "seeds": (None, 1),
        }]
    return [{
        "name": "multistart8",
        "sinks": 8,
        "seed": 3,
        "config": MerlinConfig(alpha=3, max_candidates=5,
                               library_subset=4, max_iterations=2),
        "seeds": (None, 1, 2, 3),
    }]


def _service_cases(quick: bool) -> List[Dict[str, Any]]:
    """Service-throughput cases: a stream of distinct nets optimized
    through the warm-pool batch engine vs per-net cold pools."""
    if quick:
        return [{
            "name": "service6",
            "n_nets": 6,
            "sinks": 3,
            "config": MerlinConfig.test_preset(),
            "workers": 2,
        }]
    return [{
        # >= 20 nets: the PR-3 acceptance criterion's batch size.
        "name": "service24",
        "n_nets": 24,
        "sinks": 4,
        "config": MerlinConfig.test_preset(),
        "workers": 2,
    }]


def _with_backend(config: MerlinConfig, backend: str) -> MerlinConfig:
    return config.with_(
        curve=dataclasses.replace(config.curve, backend=backend))


def _trimmed_report(recorder: Recorder) -> Dict[str, Any]:
    """Counters and span aggregates only (events are too bulky here)."""
    report = recorder.report()
    return {"counters": report["counters"], "spans": report["spans"]}


def run_engine_case(case: Dict[str, Any],
                    backends: Sequence[str]) -> Dict[str, Any]:
    """Time one pinned net per backend; cross-check tree signatures."""
    net = make_experiment_net(case["name"], case["sinks"], case["seed"])
    tech = default_technology()
    objective = Objective.max_required_time()
    runs: Dict[str, Any] = {}
    for backend in backends:
        recorder = Recorder()
        config = _with_backend(case["config"], backend).with_(
            recorder=recorder)
        start = time.perf_counter()
        result = merlin(net, tech, config=config, objective=objective)
        wall = time.perf_counter() - start
        instrument = _trimmed_report(recorder)
        runs[backend] = {
            "wall_s": wall,
            "resolved_backend": config.curve.resolved_backend(),
            "cost": objective.cost(result.best.solution),
            "signature": tree_signature(result.tree),
            "iterations": result.iterations,
            "kernel_spans": {
                span: _span_total(instrument["spans"], span)
                for span in KERNEL_SPANS},
            "instrument": instrument,
        }
        print(f"  {case['name']:12s} backend={backend:7s} "
              f"wall={wall:8.2f}s cost={runs[backend]['cost']:.3f}")
        for span, seconds in runs[backend]["kernel_spans"].items():
            print(f"  {'':12s}   {span:24s} {seconds:8.3f}s "
                  f"{100.0 * seconds / wall:5.1f}%")
    signatures = {r["signature"] for r in runs.values()}
    out: Dict[str, Any] = {
        "name": case["name"],
        "sinks": case["sinks"],
        "net_seed": case["seed"],
        "kind": "engine",
        "runs": runs,
        "signatures_match": len(signatures) == 1,
    }
    if "python" in runs and "numpy" in runs:
        out["numpy_speedup"] = (runs["python"]["wall_s"]
                                / runs["numpy"]["wall_s"])
        print(f"  {case['name']:12s} numpy speedup: "
              f"{out['numpy_speedup']:.2f}x")
    return out


def run_parallel_case(case: Dict[str, Any],
                      worker_counts: Sequence[int],
                      backend: str) -> Dict[str, Any]:
    """Sweep one multi-start workload across worker counts."""
    net = make_experiment_net(case["name"], case["sinks"], case["seed"])
    tech = default_technology()
    config = _with_backend(case["config"], backend)
    runs: Dict[str, Any] = {}
    for workers in worker_counts:
        start = time.perf_counter()
        outcome = parallel.run_multi_start(
            net, tech, config=config, seeds=case["seeds"], workers=workers)
        wall = time.perf_counter() - start
        runs[str(workers)] = {
            "wall_s": wall,
            "signatures": [r.signature for r in outcome.results],
            "best_label": outcome.best.label,
            "best_cost": outcome.best.cost,
            "merged_counters": outcome.report["counters"],
        }
        print(f"  {case['name']:12s} workers={workers} wall={wall:8.2f}s "
              f"best={outcome.best.label}")
    baseline = runs[str(worker_counts[0])]
    invariant = all(
        r["signatures"] == baseline["signatures"]
        and r["best_label"] == baseline["best_label"]
        and r["merged_counters"] == baseline["merged_counters"]
        for r in runs.values())
    return {
        "name": case["name"],
        "sinks": case["sinks"],
        "net_seed": case["seed"],
        "kind": "multi_start",
        "backend": backend,
        "start_labels": [label for label, _ in
                         parallel.multi_start_orders(net, case["seeds"])],
        "runs": runs,
        "worker_invariant": invariant,
    }


def run_service_case(case: Dict[str, Any], backend: str) -> Dict[str, Any]:
    """Measure the batch engine three ways on one pinned net stream.

    * ``cold``: a fresh service (fresh cache, no pool) per net — a
      one-net ``optimize`` on it runs inline, so this pass times service
      construction plus one serial solve per net, with no process spawn;
    * ``warm``: one persistent service solves the whole batch in one
      ``optimize_many`` — at ``workers > 1`` that spawns its pool once
      and runs the nets in parallel;
    * ``cache``: the same warm service asked again — every net is a
      canonical-cache hit, no DP at all.

    All three must produce identical tree signatures (checked).
    """
    from repro.service import OptimizationService, ResultCache

    config = _with_backend(case["config"], backend)
    nets = [
        make_experiment_net(f"{case['name']}_n{i}", case["sinks"], 100 + i)
        for i in range(case["n_nets"])
    ]
    tech = default_technology()

    start = time.perf_counter()
    cold_results = []
    for net in nets:
        with OptimizationService(tech=tech, config=config,
                                 cache=ResultCache(),
                                 workers=case["workers"]) as svc:
            cold_results.append(svc.optimize(net))
    cold_wall = time.perf_counter() - start

    warm_service = OptimizationService(tech=tech, config=config,
                                       cache=ResultCache(),
                                       workers=case["workers"])
    with warm_service:
        start = time.perf_counter()
        warm_results = warm_service.optimize_many(nets)
        warm_wall = time.perf_counter() - start
        start = time.perf_counter()
        cache_results = warm_service.optimize_many(nets)
        cache_wall = time.perf_counter() - start
        cache_stats = warm_service.cache.stats()

    all_ok = all(r.ok for r in cold_results + warm_results + cache_results)
    signatures_match = (
        [r.signature for r in cold_results]
        == [r.signature for r in warm_results]
        == [r.signature for r in cache_results])
    all_cached = all(r.cached for r in cache_results)
    out = {
        "name": case["name"],
        "kind": "service",
        "n_nets": len(nets),
        "sinks": case["sinks"],
        "workers": case["workers"],
        "backend": backend,
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "cache_wall_s": cache_wall,
        "warm_speedup": cold_wall / warm_wall if warm_wall > 0 else None,
        "cache_speedup": (warm_wall / cache_wall if cache_wall > 0
                          else None),
        "cache_stats": cache_stats,
        "all_ok": all_ok,
        "all_cached_on_second_pass": all_cached,
        "signatures_match": signatures_match,
        "signatures": [r.signature for r in cold_results],
    }
    print(f"  {case['name']:12s} backend={backend:7s} nets={len(nets)} "
          f"cold={cold_wall:7.2f}s warm={warm_wall:7.2f}s "
          f"cache={cache_wall:7.3f}s "
          f"warm_speedup={out['warm_speedup']:.2f}x")
    return out


def _closure_cases(quick: bool) -> List[Dict[str, Any]]:
    """Timing-closure cases: the full pipeline on a pinned circuit,
    once per ordering policy."""
    if quick:
        return [{
            "name": "closure_b9",
            "circuit": "b9",
            "seed": 1999,
            "config": MerlinConfig.test_preset(),
            "orders": ("criticality", "fanout"),
            "batch": 4,
        }]
    return [{
        "name": "closure_C432",
        "circuit": "C432",
        "seed": 1999,
        "config": MerlinConfig.test_preset(),
        "orders": ("criticality", "fanout", "slack_weighted", "learned"),
        "batch": 6,
    }]


def run_closure_case(case: Dict[str, Any], backend: str) -> Dict[str, Any]:
    """Close timing on one pinned circuit under each ordering policy.

    Besides wall-clock, this checks the pipeline's core contracts: every
    policy converges, and the per-iteration critical delay is monotone
    non-increasing (the worst-slack guarantee).
    """
    from repro.experiments.circuits import resolve_circuit_spec
    from repro.netlist.generator import generate_circuit
    from repro.pipeline import ClosureConfig, run_closure

    config = _with_backend(case["config"], backend)
    spec = resolve_circuit_spec(case["circuit"], case["seed"])
    runs: Dict[str, Any] = {}
    monotone = True
    for order in case["orders"]:
        netlist = generate_circuit(spec)
        start = time.perf_counter()
        result = run_closure(
            netlist, config=config, workers=1,
            closure=ClosureConfig(order=order, batch_size=case["batch"]))
        wall = time.perf_counter() - start
        delays = [it.critical_delay for it in result.iterations]
        monotone &= all(delays[i] >= delays[i + 1] - 1e-6
                        for i in range(len(delays) - 1))
        runs[order] = {
            "wall_s": wall,
            "iterations": result.iterations_to_converge,
            "converged": result.converged,
            "critical_delay": result.critical_delay,
            "worst_slack": result.worst_slack,
            "buffer_area": result.buffer_area,
            "nets_optimized": result.nets_optimized,
            "signatures": result.signatures(),
        }
        print(f"  {case['name']:12s} backend={backend:7s} "
              f"order={order:14s} wall={wall:7.2f}s "
              f"iters={result.iterations_to_converge} "
              f"delay={result.critical_delay:9.1f}ps")
    return {
        "name": case["name"],
        "kind": "closure",
        "circuit": case["circuit"],
        "seed": case["seed"],
        "backend": backend,
        "batch": case["batch"],
        "runs": runs,
        "all_converged": all(r["converged"] for r in runs.values()),
        "monotone": monotone,
    }


def calibration_seconds(repeats: int = 3) -> float:
    """Seconds for a fixed pure-Python workload on this machine.

    Used to normalize tracked timings across machines: the workload
    (dict/loop/float churn, roughly the engine's instruction mix) is
    pinned, so its wall-clock measures the host, not the code under
    test.  Best-of-``repeats`` to shed scheduler noise.  The serving
    load harness stamps the same probe into BENCH_serve.json, so the
    timing artifacts stay comparable.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0.0
        table: Dict[int, float] = {}
        for i in range(120_000):
            key = (i * 2654435761) % 4093
            acc += table.get(key, 0.0) * 0.5 + (key % 97) * 1e-3
            table[key] = acc % 1000.0
        best = min(best, time.perf_counter() - start)
    return best


def environment_info() -> Dict[str, Any]:
    """Host facts recorded beside every timing artifact."""
    import os
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def run_suite(quick: bool, backends: Sequence[str],
              worker_counts: Sequence[int], tag: str) -> Dict[str, Any]:
    cases: List[Dict[str, Any]] = []
    for case in _engine_cases(quick):
        cases.append(run_engine_case(case, backends))
    # Worker sweeps exercise the parallel driver on the served default
    # backend (that is how multi-start would actually be run).
    par_backend = "numpy" if "numpy" in backends else backends[0]
    for case in _parallel_cases(quick):
        cases.append(run_parallel_case(case, worker_counts, par_backend))
    # Service and closure run once per backend: the tracked timings are
    # backend-qualified, and check_suite pins the trees bit-identical
    # across the per-backend case instances.
    for case in _service_cases(quick):
        for backend in backends:
            cases.append(run_service_case(case, backend))
    for case in _closure_cases(quick):
        for backend in backends:
            cases.append(run_closure_case(case, backend))
    environment = environment_info()
    environment["calibration_s"] = calibration_seconds()
    return {
        "version": BENCH_VERSION,
        "tag": tag,
        "quick": quick,
        "backends": list(backends),
        "worker_counts": list(worker_counts),
        "environment": environment,
        "cases": cases,
    }


def check_suite(suite: Dict[str, Any]) -> List[str]:
    """Return the list of equivalence failures (empty = all good)."""
    failures = []
    for case in suite["cases"]:
        if case["kind"] == "engine" and not case["signatures_match"]:
            failures.append(
                f"{case['name']}: tree signatures diverge across backends")
        if case["kind"] == "multi_start" and not case["worker_invariant"]:
            failures.append(
                f"{case['name']}: outcome changed with worker count")
        if case["kind"] == "service":
            if not case["signatures_match"]:
                failures.append(
                    f"{case['name']}: cold/warm/cache trees diverge")
            if not case["all_ok"]:
                failures.append(f"{case['name']}: a service job failed")
            if not case["all_cached_on_second_pass"]:
                failures.append(
                    f"{case['name']}: second pass missed the result cache")
        if case["kind"] == "closure":
            if not case["all_converged"]:
                failures.append(
                    f"{case['name']}: a closure policy failed to converge")
            if not case["monotone"]:
                failures.append(
                    f"{case['name']}: critical delay increased across "
                    f"closure iterations")
    # Cross-backend equivalence: when a service/closure case ran once
    # per backend, every instance must produce identical trees.
    service_sigs: Dict[str, set] = {}
    closure_sigs: Dict[str, set] = {}
    for case in suite["cases"]:
        if case["kind"] == "service" and "signatures" in case:
            service_sigs.setdefault(case["name"], set()).add(
                tuple(case["signatures"]))
        if case["kind"] == "closure" and "runs" in case:
            closure_sigs.setdefault(case["name"], set()).add(
                tuple((order, tuple(run["signatures"]))
                      for order, run in sorted(case["runs"].items())))
    for name, sigs in sorted(service_sigs.items()):
        if len(sigs) > 1:
            failures.append(
                f"{name}: service trees diverge across backends")
    for name, sigs in sorted(closure_sigs.items()):
        if len(sigs) > 1:
            failures.append(
                f"{name}: closure trees diverge across backends")
    return failures


def _span_total(spans: Dict[str, Any], leaf: str) -> float:
    """Sum the recorded seconds of every span path ending in ``leaf``
    (span paths are slash-joined nesting chains)."""
    return sum(entry["total_s"] for path, entry in spans.items()
               if path == leaf or path.endswith("/" + leaf))


def tracked_timings(suite: Dict[str, Any]) -> Dict[str, float]:
    """The wall-clock measurements the regression gate watches,
    keyed ``kind/case/variant`` (stable across runs of one suite
    shape).

    Engine cases additionally track two recorder-span aggregates —
    ``star_ptree.run`` (total *PTREE DP time) and ``curves.prune``
    (total kernel prune time) — so a regression inside the DP cannot
    hide behind noise in the end-to-end wall clock.  Service and
    closure keys are backend-qualified (the suite runs those cases once
    per backend).
    """
    timings: Dict[str, float] = {}
    for case in suite["cases"]:
        name = case["name"]
        if case["kind"] == "engine":
            for backend, run in case["runs"].items():
                timings[f"engine/{name}/{backend}"] = run["wall_s"]
                spans = run.get("instrument", {}).get("spans", {})
                ptree = _span_total(spans, "ptree")
                if ptree:
                    timings[f"star_ptree.run/{name}/{backend}"] = ptree
                prune = _span_total(spans, "curves.kernel.prune")
                if prune:
                    timings[f"curves.prune/{name}/{backend}"] = prune
        elif case["kind"] == "multi_start":
            for workers, run in case["runs"].items():
                timings[f"multi_start/{name}/w{workers}"] = run["wall_s"]
        elif case["kind"] == "service":
            backend = case.get("backend", "default")
            timings[f"service/{name}/{backend}/cold"] = case["cold_wall_s"]
            timings[f"service/{name}/{backend}/warm"] = case["warm_wall_s"]
        elif case["kind"] == "closure":
            backend = case.get("backend", "default")
            for order, run in case["runs"].items():
                timings[f"closure/{name}/{backend}/{order}"] = run["wall_s"]
    return timings


def compare_to_baseline(current: Dict[str, Any], baseline: Dict[str, Any],
                        threshold: float = REGRESSION_THRESHOLD,
                        min_seconds: float = MIN_TRACKED_SECONDS,
                        ) -> List[str]:
    """Regressions of ``current`` vs ``baseline`` (empty = gate passes).

    Every baseline timing is first rescaled by the machines'
    calibration ratio (see :func:`calibration_seconds`), so a uniformly
    slower host does not read as a code regression; only timings above
    ``min_seconds`` on both sides participate.  Keys present in only
    one suite are ignored — shape changes are reviewed via the JSON
    diff, not the gate.
    """
    current_cal = current.get("environment", {}).get("calibration_s")
    baseline_cal = baseline.get("environment", {}).get("calibration_s")
    scale = (current_cal / baseline_cal
             if current_cal and baseline_cal else 1.0)
    current_t = tracked_timings(current)
    baseline_t = tracked_timings(baseline)
    failures = []
    for key in sorted(set(current_t) & set(baseline_t)):
        allowed = baseline_t[key] * scale
        if allowed < min_seconds or current_t[key] < min_seconds:
            continue
        if current_t[key] > allowed * (1.0 + threshold):
            failures.append(
                f"{key}: {current_t[key]:.3f}s vs allowed "
                f"{allowed * (1.0 + threshold):.3f}s (baseline "
                f"{baseline_t[key]:.3f}s x calibration {scale:.2f})")
    return failures


def build_parser() -> argparse.ArgumentParser:
    """The arguments of ``python -m repro.bench`` (``merlin-repro bench``
    hands its argv to :func:`main`)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="MERLIN pinned benchmark suite")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized subset (small net, seconds not "
                             "minutes)")
    parser.add_argument("--tag", default="local",
                        help="suffix of the BENCH_<tag>.json output")
    parser.add_argument("--out", default=None,
                        help="explicit output path (default "
                             "BENCH_<tag>.json in the current directory)")
    parser.add_argument("--backends", default=None,
                        help="comma-separated backend list (default: "
                             "python,numpy)")
    parser.add_argument("--workers", default="1,2",
                        help="comma-separated worker counts for the "
                             "multi-start sweep (default 1,2)")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="compare tracked timings against this "
                             "committed BENCH_*.json snapshot "
                             "(calibration-normalized) and fail on "
                             ">20%% regressions")
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="run the suite under cProfile and report "
                             "the top N functions by cumulative time "
                             "(0 = off)")
    parser.add_argument("--profile-format", choices=["text", "json"],
                        default="text",
                        help="profile report format (default text)")
    return parser


def profile_rows(profiler, top: int) -> List[Dict[str, Any]]:
    """Top ``top`` functions of a finished cProfile run, by cumulative
    time — plain dicts so callers can render text or JSON."""
    import pstats

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    stats.calc_callees()
    rows: List[Dict[str, Any]] = []
    for func in stats.fcn_list[:top]:
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, line, name = func
        rows.append({
            "function": name,
            "file": filename,
            "line": line,
            "ncalls": nc,
            "primitive_calls": cc,
            "tottime_s": round(tt, 6),
            "cumtime_s": round(ct, 6),
        })
    return rows


def _emit_profile(profiler, top: int, fmt: str) -> None:
    rows = profile_rows(profiler, top)
    if fmt == "json":
        print(json.dumps({"version": 1, "sort": "cumulative",
                          "rows": rows}, indent=2))
        return
    print(f"profile: top {len(rows)} functions by cumulative time")
    print(f"{'cumtime':>9s} {'tottime':>9s} {'ncalls':>9s}  function")
    for row in rows:
        where = f"{row['file']}:{row['line']}" if row["line"] else row["file"]
        print(f"{row['cumtime_s']:9.3f} {row['tottime_s']:9.3f} "
              f"{row['ncalls']:9d}  {row['function']}  ({where})")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.backends:
        backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    else:
        backends = list(BACKENDS)
    if not backends:
        parser.error("--backends names no backend")  # exits 2
    for backend in backends:
        if backend not in BACKENDS:
            parser.error(f"unknown backend {backend!r}")  # exits 2
    worker_counts = []
    for entry in args.workers.split(","):
        try:
            count = int(entry)
        except ValueError:
            count = 0
        if count < 1:
            parser.error(f"--workers entries must be integers >= 1, "
                         f"got {entry!r}")  # exits 2
        worker_counts.append(count)

    profiler = None
    if args.profile > 0:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        suite = run_suite(args.quick, backends, worker_counts, args.tag)
    finally:
        if profiler is not None:
            profiler.disable()
    if profiler is not None:
        _emit_profile(profiler, args.profile, args.profile_format)
    out_path = args.out or f"BENCH_{args.tag}.json"
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(suite, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_path}")

    failures = check_suite(suite)
    for failure in failures:
        print(f"EQUIVALENCE FAILURE: {failure}", file=sys.stderr)

    if args.baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read baseline {args.baseline!r}: {exc}",
                  file=sys.stderr)
            return 1
        regressions = compare_to_baseline(suite, baseline)
        for regression in regressions:
            print(f"TIMING REGRESSION: {regression}", file=sys.stderr)
        if not regressions:
            print(f"timing gate passed against {args.baseline} "
                  f"({len(tracked_timings(suite))} tracked timings)")
        failures.extend(regressions)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
