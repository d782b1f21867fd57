"""Command-line interface: regenerate the paper's tables and ablations.

Usage (after ``pip install -e .``)::

    merlin-repro table1 [--quick] [--seed N]
    merlin-repro table2 [--quick] [--seed N]
    merlin-repro net --sinks N [--seed N] [--net-file FILE] [--stats]
    merlin-repro ablation {candidates,orders,alpha,bubbling,convergence,curves}
    merlin-repro serve --port N [--workers K] [--cache-dir DIR]
                       [--budget-ops N] [--deadline S] [--pool-retries N]
                       [--shards N] [--queue-limit N]
    merlin-repro loadgen [--url URL | (self-serve)]
                         [--requests N] [--concurrency C] [--record FILE]
                         [--replay FILE] [--out BENCH_serve.json]
    merlin-repro closure --circuit b9 [--order criticality] [--batch N]
                         [--json] [--list-orders]
                         [--journal FILE | --resume FILE]
    merlin-repro check [--format json] [--rules ID,...] [paths ...]
    merlin-repro bench [--quick] [--backends LIST] [--baseline FILE]
                       [--profile N [--profile-format json]]

``python -m repro ...`` is equivalent.

``--backend`` and ``--workers`` are thin overrides of the
``MerlinConfig.backend`` / ``MerlinConfig.workers`` fields — library
users get the same knobs without the CLI.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.config import MerlinConfig
from repro.tech.technology import default_technology


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="merlin-repro",
        description="MERLIN (DAC 1999) reproduction experiment driver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_t1 = sub.add_parser("table1", help="per-net Flow I/II/III comparison")
    p_t1.add_argument("--quick", action="store_true",
                      help="6-net subset instead of all 18")
    p_t1.add_argument("--seed", type=int, default=1999)

    p_t2 = sub.add_parser("table2", help="post-layout circuit comparison")
    p_t2.add_argument("--quick", action="store_true",
                      help="4-circuit subset instead of all 15")
    p_t2.add_argument("--seed", type=int, default=1999)

    p_net = sub.add_parser("net", help="optimize one synthetic net verbosely")
    p_net.add_argument("--sinks", type=int, default=7)
    p_net.add_argument("--seed", type=int, default=1)
    p_net.add_argument("--net-file", metavar="FILE", default=None,
                       help="optimize the net in FILE (net interchange "
                            "JSON, see net_to_dict) instead of a synthetic "
                            "one; malformed input exits 2 with a one-line "
                            "error naming the offending field")
    p_net.add_argument("--backend", choices=["python", "numpy"],
                       default=None,
                       help="curve-kernel backend override (default: the "
                            "config's backend, i.e. python; numpy degrades "
                            "to python when NumPy is unavailable)")
    p_net.add_argument("--multi-start", type=int, default=0, metavar="K",
                       help="restart MERLIN from K initial orders (TSP "
                            "plus K-1 seeded shuffles) and keep the best "
                            "tree, instead of running the flow comparison")
    p_net.add_argument("--workers", type=int, default=None,
                       help="process fan-out override for --multi-start "
                            "(default: the config's workers, i.e. 1; "
                            "0 = one per CPU)")
    p_net.add_argument("--dot", action="store_true",
                       help="print the winning tree as Graphviz DOT")
    p_net.add_argument("--stats", action="store_true",
                       help="record engine instrumentation and dump a "
                            "JSON stats report after the run")
    p_net.add_argument("--stats-out", metavar="FILE", default=None,
                       help="write the JSON report to FILE instead of "
                            "stdout (implies --stats)")

    p_ab = sub.add_parser("ablation", help="prose-claim ablations (E3-E8)")
    p_ab.add_argument("which", choices=["candidates", "orders", "alpha",
                                        "bubbling", "convergence", "curves"])
    p_ab.add_argument("--sinks", type=int, default=6)
    p_ab.add_argument("--seed", type=int, default=1)

    p_srv = sub.add_parser(
        "serve", help="run the sharded asyncio HTTP optimization service "
                      "(v1 API: POST /v1/optimize, POST /v1/closure, "
                      "GET /v1/stats, GET /v1/healthz)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8731)
    p_srv.add_argument("--async", action="store_true",
                       help="accepted for compatibility; the sharded "
                            "asyncio front end is the only one")
    p_srv.add_argument("--shards", type=int, default=2, metavar="N",
                       help="worker-pool shards (default 2)")
    p_srv.add_argument("--queue-limit", type=int, default=64, metavar="N",
                       help="max in-flight requests before answering "
                            "429 + Retry-After (default 64)")
    p_srv.add_argument("--workers", type=int, default=None,
                       help="warm-pool size per shard (default: the "
                            "config's workers; 0 = one per CPU; 1 = "
                            "serial)")
    p_srv.add_argument("--backend", choices=["python", "numpy"],
                       default=None,
                       help="curve-kernel backend override")
    p_srv.add_argument("--preset", choices=["fast", "test", "paper"],
                       default="fast",
                       help="MerlinConfig preset the service optimizes "
                            "with (part of the cache key)")
    p_srv.add_argument("--job-timeout", type=float, default=None,
                       metavar="S", help="per-request engine timeout "
                                         "(seconds; default none)")
    p_srv.add_argument("--budget-ops", type=int, default=None, metavar="N",
                       help="deterministic per-job compute budget; on "
                            "exhaustion the job degrades down the ladder "
                            "instead of failing (default: unlimited)")
    p_srv.add_argument("--deadline", type=float, default=None, metavar="S",
                       help="per-job wall-clock deadline in seconds, "
                            "same degradation semantics as --budget-ops")
    p_srv.add_argument("--pool-retries", type=int, default=2, metavar="N",
                       help="rebuild a crashed worker pool up to N times "
                            "before finishing jobs serially (default 2)")
    p_srv.add_argument("--cache-capacity", type=int, default=256,
                       help="in-memory LRU entries (default 256)")
    p_srv.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persist results as JSON under DIR (off by "
                            "default)")
    p_srv.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="S",
                       help="max seconds to wait for in-flight requests "
                            "when SIGTERM starts a graceful drain "
                            "(default 30)")

    p_lg = sub.add_parser(
        "loadgen", help="seeded load generation / replay against a "
                        "serving front end (latency percentiles, "
                        "BENCH_serve.json, equivalence-class gate)")
    p_lg.add_argument("--url", default=None, metavar="URL",
                      help="target an already-running front end; without "
                           "it a sharded server is spun up in-process "
                           "for the run")
    p_lg.add_argument("--requests", type=int, default=64)
    p_lg.add_argument("--nets", type=int, default=16, metavar="N",
                      help="distinct underlying nets (default 16)")
    p_lg.add_argument("--min-sinks", type=int, default=4)
    p_lg.add_argument("--max-sinks", type=int, default=10)
    p_lg.add_argument("--seed", type=int, default=1999)
    p_lg.add_argument("--twin-fraction", type=float, default=0.25,
                      help="fraction of renamed cache-equivalent twins "
                           "(default 0.25)")
    p_lg.add_argument("--repeat-fraction", type=float, default=0.25,
                      help="fraction of verbatim repeats (default 0.25)")
    p_lg.add_argument("--translate-twins", action="store_true",
                      help="also translate twins (cache-realistic but "
                           "not bit-stable across replays; see "
                           "repro.loadgen.workload)")
    p_lg.add_argument("--concurrency", type=int, default=4)
    p_lg.add_argument("--record", metavar="FILE", default=None,
                      help="save the generated workload JSON to FILE")
    p_lg.add_argument("--replay", metavar="FILE", default=None,
                      help="replay the recorded workload in FILE instead "
                           "of generating one")
    p_lg.add_argument("--out", metavar="FILE", default=None,
                      help="write the BENCH_serve.json artifact to FILE")
    p_lg.add_argument("--tag", default="serve",
                      help="tag stored in the artifact (default serve)")
    p_lg.add_argument("--no-check", action="store_true",
                      help="skip the per-replay equivalence-class "
                           "signature gate")
    p_lg.add_argument("--shards", type=int, default=2,
                      help="shards of the in-process server "
                           "(self-serve mode)")
    p_lg.add_argument("--queue-limit", type=int, default=64)
    p_lg.add_argument("--workers", type=int, default=1,
                      help="warm-pool size per service (default 1)")
    p_lg.add_argument("--preset", choices=["fast", "test", "paper"],
                      default="fast",
                      help="MerlinConfig preset of in-process services "
                           "(default fast)")
    p_lg.add_argument("--backend", choices=["python", "numpy"],
                      default=None)

    p_cls = sub.add_parser(
        "closure", help="full-netlist timing closure (place, STA, "
                        "iterated batched re-optimization)")
    p_cls.add_argument("--circuit", default="b9", metavar="SPEC",
                       help="Table 2 circuit name (e.g. b9, C432) or a "
                            "custom seed-spec 'gates:levels:pis:pos"
                            "[:max_fanout]' (default b9)")
    p_cls.add_argument("--seed", type=int, default=1999,
                       help="circuit-generator seed (default 1999)")
    p_cls.add_argument("--netlist-file", metavar="FILE", default=None,
                       help="close timing on the netlist interchange "
                            "JSON in FILE instead of a generated circuit")
    p_cls.add_argument("--order", default="criticality",
                       help="net-ordering policy; see --list-orders "
                            "(default criticality)")
    p_cls.add_argument("--list-orders", action="store_true",
                       help="list registered ordering policies and exit")
    p_cls.add_argument("--batch", type=int, default=None, metavar="N",
                       help="nets re-optimized per iteration "
                            "(default: every stale candidate)")
    p_cls.add_argument("--max-iterations", type=int, default=10)
    p_cls.add_argument("--target-scale", type=float, default=0.88,
                       help="timing target as a fraction of the "
                            "pre-optimization critical delay "
                            "(default 0.88)")
    p_cls.add_argument("--min-sinks", type=int, default=2,
                       help="only optimize nets with at least this many "
                            "sinks (default 2)")
    p_cls.add_argument("--preset", choices=["fast", "test", "paper"],
                       default="fast",
                       help="MerlinConfig preset for the per-net "
                            "optimizations (default fast)")
    p_cls.add_argument("--backend", choices=["python", "numpy"],
                       default=None,
                       help="curve-kernel backend override")
    p_cls.add_argument("--workers", type=int, default=None,
                       help="service warm-pool size (default: the "
                            "config's workers; 0 = one per CPU)")
    p_cls.add_argument("--json", action="store_true",
                       help="print the full closure report as JSON "
                            "instead of the iteration table")
    p_cls.add_argument("--journal", metavar="FILE", default=None,
                       help="write a crash-safe write-ahead journal: "
                            "each completed iteration is checksummed "
                            "and fsync'd to FILE")
    p_cls.add_argument("--resume", metavar="FILE", default=None,
                       help="resume a crashed run from its journal: "
                            "completed iterations replay bit-identically "
                            "and the loop continues from the crash point")

    p_chk = sub.add_parser(
        "check", help="run the domain static analyzer "
                      "(determinism / pool-safety / numerics / layering)")
    from repro.staticcheck.cli import add_arguments as _add_check_arguments

    _add_check_arguments(p_chk)

    p_bench = sub.add_parser(
        "bench", help="pinned benchmark suite with equivalence + timing "
                      "gates (same flags as python -m repro.bench)")
    from repro.bench import add_arguments as _add_bench_arguments

    _add_bench_arguments(p_bench)

    args = parser.parse_args(argv)
    if args.command == "check":
        return _run_check(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "table1":
        return _run_table1(args)
    if args.command == "table2":
        return _run_table2(args)
    if args.command == "net":
        return _run_net(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "loadgen":
        return _run_loadgen(args)
    if args.command == "closure":
        return _run_closure(args)
    return _run_ablation(args)


def _run_check(args) -> int:
    from repro.staticcheck.cli import run_from_args

    return run_from_args(args)


def _run_bench(args) -> int:
    from repro.bench import run_from_args

    return run_from_args(args)


def _run_table1(args) -> int:
    from repro.experiments.table1 import format_table1, run_table1

    rows = run_table1(quick=args.quick, seed=args.seed)
    print(format_table1(rows))
    return 0


def _run_table2(args) -> int:
    from repro.experiments.table2 import format_table2, run_table2

    rows = run_table2(quick=args.quick, seed=args.seed)
    print(format_table2(rows))
    return 0


def _load_net_file(path: str):
    """Read a net interchange JSON file; raises ValueError with a
    one-line, human-readable message on any malformed input."""
    import json

    from repro.net import net_from_dict

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read net file {path!r}: "
                         f"{exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"net file {path!r} is not valid JSON: "
                         f"{exc}") from exc
    if isinstance(data, dict) and isinstance(data.get("net"), dict):
        data = data["net"]  # accept the service's request wrapper too
    return net_from_dict(data)


def _run_net(args) -> int:
    from repro.baselines.flows import ALL_FLOWS, run_flow
    from repro.experiments.nets import make_experiment_net
    from repro.routing.export import tree_to_dot

    if args.net_file is not None:
        try:
            net = _load_net_file(args.net_file)
        except ValueError as exc:
            # One line, no traceback: the message already names the
            # offending file/field (MalformedNetError is a ValueError).
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        net = make_experiment_net(f"net_s{args.seed}", args.sinks, args.seed)
    tech = default_technology()
    config = MerlinConfig().with_(max_iterations=3)
    if args.backend is not None:
        config = config.with_(backend=args.backend)
    if args.multi_start:
        return _run_multi_start(args, net, tech, config)
    recorder = None
    if args.stats or args.stats_out:
        import os

        from repro.instrument import Recorder

        if args.stats_out:
            out_dir = os.path.dirname(os.path.abspath(args.stats_out))
            if not os.path.isdir(out_dir):
                # Fail before the (slow) run, not after it.
                print(f"error: --stats-out directory does not exist: "
                      f"{out_dir}", file=sys.stderr)
                return 2
        recorder = Recorder()
        config = config.with_(recorder=recorder)
    last = None
    for flow in ALL_FLOWS:
        result = run_flow(flow, net, tech, config=config)
        print(f"{flow:22s} delay={result.delay:9.1f} ps  "
              f"buffer_area={result.buffer_area:8.1f} um^2  "
              f"runtime={result.runtime_s:7.2f} s  loops={result.loops}")
        last = result
    if args.dot and last is not None:
        print(tree_to_dot(last.tree.simplified()))
    if recorder is not None:
        from repro.instrument import dump_report, report_to_json

        report = recorder.report()
        if args.stats_out:
            dump_report(report, args.stats_out)
            print(f"stats report written to {args.stats_out}")
        else:
            print(report_to_json(report))
    return 0


def _run_multi_start(args, net, tech, config) -> int:
    import time

    from repro import parallel

    workers = _resolve_cli_workers(args.workers, config)
    seeds = [None] + list(range(1, args.multi_start))
    start = time.perf_counter()
    outcome = parallel.run_multi_start(net, tech, config=config,
                                       seeds=seeds, workers=workers)
    wall = time.perf_counter() - start
    for result in outcome.results:
        marker = " <- best" if result is outcome.best else ""
        print(f"{result.label:12s} cost={result.cost:12.3f}  "
              f"iterations={result.iterations}{marker}")
    print(f"{len(outcome.results)} starts, workers={workers}, "
          f"wall={wall:.2f}s")
    return 0


def _resolve_cli_workers(cli_workers, config) -> int:
    """CLI worker override: None = config's value, 0 = one per CPU."""
    from repro import parallel

    if cli_workers is None:
        return config.workers
    if cli_workers == 0:
        return parallel.default_worker_count()
    return cli_workers


def _resolve_preset_config(preset: str, backend):
    presets = {
        "fast": MerlinConfig.fast_preset,
        "test": MerlinConfig.test_preset,
        "paper": MerlinConfig.paper_preset,
    }
    config = presets[preset]()
    if backend is not None:
        config = config.with_(backend=backend)
    return config


def _run_serve(args) -> int:
    from repro.serve import serve_async
    from repro.service import OptimizationService

    config = _resolve_preset_config(args.preset, args.backend)
    workers = _resolve_cli_workers(args.workers, config)

    def service_factory(cache) -> OptimizationService:
        return OptimizationService(
            tech=default_technology(),
            config=config,
            cache=cache,
            workers=workers,
            job_timeout_s=args.job_timeout,
            budget_ops=args.budget_ops,
            deadline_s=args.deadline,
            pool_retries=args.pool_retries,
        )

    serve_async(args.host, args.port,
                shards=args.shards,
                queue_limit=args.queue_limit,
                cache_capacity=args.cache_capacity,
                disk_dir=args.cache_dir,
                service_factory=service_factory,
                drain_timeout_s=args.drain_timeout)
    return 0


def _run_loadgen(args) -> int:
    from repro.loadgen import (
        WorkloadSpec,
        check_equivalence,
        generate_workload,
        load_workload,
        render_trend,
        run_workload,
        save_workload,
        write_bench_serve,
    )
    from repro.resilience.errors import MerlinInputError

    if args.replay is not None:
        try:
            workload = load_workload(args.replay)
        except (OSError, ValueError, KeyError, TypeError,
                MerlinInputError) as exc:
            print(f"error: cannot load workload {args.replay!r}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        try:
            spec = WorkloadSpec(
                requests=args.requests, distinct_nets=args.nets,
                min_sinks=args.min_sinks, max_sinks=args.max_sinks,
                seed=args.seed, twin_fraction=args.twin_fraction,
                repeat_fraction=args.repeat_fraction,
                translate_twins=args.translate_twins)
        except MerlinInputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        workload = generate_workload(spec)
    if args.record is not None:
        save_workload(workload, args.record)
        print(f"workload recorded to {args.record} "
              f"({len(workload)} requests)")

    config = _resolve_preset_config(args.preset, args.backend)
    service_kwargs = {"config": config, "workers": args.workers,
                      "tech": default_technology()}
    mode = "replay"
    if args.url is not None:
        report = run_workload(args.url, workload,
                              concurrency=args.concurrency)
    else:
        mode = "self-serve"
        from repro.serve.embedded import EmbeddedAsyncServer

        with EmbeddedAsyncServer(shards=args.shards,
                                 queue_limit=args.queue_limit,
                                 **service_kwargs) as server:
            report = run_workload(server.base_url, workload,
                                  concurrency=args.concurrency)
    failures = [] if args.no_check else check_equivalence(workload, report)
    print(render_trend(report))
    if args.out is not None:
        write_bench_serve(report, args.out, tag=args.tag,
                          extra={"mode": mode, "shards": args.shards,
                                 "preset": args.preset})
        print(f"artifact written to {args.out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _run_closure(args) -> int:
    import json

    from repro.experiments.circuits import resolve_circuit_spec
    from repro.netlist.generator import generate_circuit
    from repro.pipeline import ClosureConfig, available_orderings, run_closure
    from repro.pipeline.ordering import ORDERING_POLICIES
    from repro.resilience.errors import MerlinInputError

    if args.list_orders:
        for name in available_orderings():
            print(f"{name:16s} {ORDERING_POLICIES[name].describe}")
        return 0
    if args.netlist_file is not None:
        from repro.netlist.io import netlist_from_dict

        try:
            with open(args.netlist_file, "r", encoding="utf-8") as handle:
                netlist = netlist_from_dict(json.load(handle))
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load netlist {args.netlist_file!r}: "
                  f"{exc}", file=sys.stderr)
            return 2
    else:
        try:
            spec = resolve_circuit_spec(args.circuit, args.seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        netlist = generate_circuit(spec)

    presets = {
        "fast": MerlinConfig.fast_preset,
        "test": MerlinConfig.test_preset,
        "paper": MerlinConfig.paper_preset,
    }
    config = presets[args.preset]()
    if args.backend is not None:
        config = config.with_(backend=args.backend)
    workers = _resolve_cli_workers(args.workers, config)
    if args.journal is not None and args.resume is not None:
        print("error: --journal and --resume are mutually exclusive "
              "(--resume reuses and extends its own journal)",
              file=sys.stderr)
        return 2
    journal_path = args.resume if args.resume is not None else args.journal
    try:
        closure = ClosureConfig(
            order=args.order,
            min_sinks=args.min_sinks,
            target_scale=args.target_scale,
            batch_size=args.batch,
            max_iterations=args.max_iterations,
        )
        result = run_closure(netlist, config=config, closure=closure,
                             workers=workers, journal_path=journal_path,
                             resume=args.resume is not None)
    except MerlinInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"circuit {result.circuit}: {len(netlist.gates)} gates, "
          f"{result.nets_optimized} nets optimized, policy "
          f"{result.policy}")
    print(f"estimate {result.estimate_delay:9.1f} ps  ->  target "
          f"{result.target:9.1f} ps")
    for it in result.iterations:
        note = "  (rolled back)" if it.rolled_back else ""
        print(f"iter {it.index}: {len(it.selected)}/{it.candidates} nets  "
              f"delay={it.critical_delay:9.1f} ps  "
              f"slack={it.worst_slack:+9.1f} ps  "
              f"cache_hits={it.cache_hits}  wall={it.wall_s:6.2f} s{note}")
    status = "converged" if result.converged else "iteration cap hit"
    print(f"{status} after {result.iterations_to_converge} iterations: "
          f"delay {result.critical_delay:.1f} ps, worst slack "
          f"{result.worst_slack:+.1f} ps, buffer area "
          f"{result.buffer_area:.1f} um^2 "
          f"({len(result.degraded_nets)} degraded nets)")
    return 0


def _run_ablation(args) -> int:
    from repro.experiments import ablations
    from repro.experiments.nets import make_experiment_net

    net = make_experiment_net(f"ablation_s{args.seed}", args.sinks, args.seed)
    runners = {
        "candidates": (ablations.candidate_ablation,
                       "E3: candidate-location strategy"),
        "orders": (ablations.initial_order_ablation,
                   "E4: initial-order sensitivity"),
        "alpha": (ablations.alpha_ablation, "E5: alpha sweep"),
        "bubbling": (ablations.bubbling_ablation,
                     "bubbling vs fixed order"),
        "convergence": (ablations.convergence_trace,
                        "E7: MERLIN cost trace"),
        "curves": (ablations.curve_size_profile,
                   "E8: curve size vs quantization"),
    }
    runner, title = runners[args.which]
    rows = runner(net)
    print(ablations.format_ablation(rows, title))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
