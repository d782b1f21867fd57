"""Command-line interface: regenerate the paper's tables and ablations.

Usage (after ``pip install -e .``)::

    merlin-repro table1 [--quick] [--seed N]
    merlin-repro table2 [--quick] [--seed N]
    merlin-repro net --sinks N [--seed N] [--net-file FILE] [--stats]
    merlin-repro ablation {candidates,orders,alpha,bubbling,convergence,curves}
    merlin-repro serve --port N [--workers K] [--cache-dir DIR]
                       [--budget-ops N] [--deadline S] [--pool-retries N]
                       [--queue-limit N]
    merlin-repro loadgen [--url URL | (self-serve)]
                         [--requests N] [--concurrency C] [--record FILE]
                         [--replay FILE] [--out BENCH_serve.json]
    merlin-repro closure --circuit b9 [--order criticality] [--batch N]
                         [--json] [--list-orders]
                         [--journal FILE | --resume FILE]
    merlin-repro check [--format json] [--rules ID,...] [paths ...]
    merlin-repro bench [--quick] [--backends LIST] [--baseline FILE]
                       [--profile N [--profile-format json]]

``python -m repro ...`` is equivalent.  ``check`` and ``bench`` own
their parsers: ``main`` hands them the rest of argv, so no other
subcommand imports the analyzer or the bench harness.

``--workers`` is a thin override of ``MerlinConfig.workers``: 0 means
one per CPU, and a negative count is a usage error (exit 2).  The
curve kernel is ``CurveConfig.backend``: subcommands run its default
(``"numpy"``), library users pick the scalar reference with
``config.with_(curve=dataclasses.replace(config.curve,
backend="python"))``, and ``bench --backends`` runs both.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro.core.config import MerlinConfig
from repro.tech.technology import default_technology


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["check"]:
        from repro.staticcheck.cli import run_cli

        return run_cli(argv[1:])
    if argv[:1] == ["bench"]:
        from repro.bench import main as bench_main

        return bench_main(argv[1:])

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
    p_net.add_argument("--sinks", type=_at_least(1), default=7)
    p_net.add_argument("--seed", type=int, default=1)
    p_net.add_argument("--net-file", metavar="FILE", default=None,
                       help="optimize the net in FILE (net interchange "
                            "JSON, see net_to_dict) instead of a synthetic "
                            "one; malformed input exits 2 with a one-line "
                            "error naming the offending field")
    p_net.add_argument("--multi-start", type=_at_least(0), default=0,
                       metavar="K",
                       help="restart MERLIN from K initial orders (TSP "
                            "plus K-1 seeded shuffles) and keep the best "
                            "tree, instead of running the flow comparison")
    p_net.add_argument("--workers", type=_at_least(0), default=None,
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
    p_ab.add_argument("--sinks", type=_at_least(1), default=6)
    p_ab.add_argument("--seed", type=int, default=1)

    p_srv = sub.add_parser(
        "serve", help="run the asyncio HTTP optimization service "
                      "(v1 API: POST /v1/optimize, POST /v1/closure, "
                      "GET /v1/stats, GET /v1/healthz)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=_at_least(0, maximum=65535),
                       default=8731)
    p_srv.add_argument("--async", action="store_true",
                       help="accepted for compatibility; the asyncio "
                            "front end is the only one")
    p_srv.add_argument("--queue-limit", type=_at_least(1), default=64,
                       metavar="N",
                       help="max in-flight requests before answering "
                            "429 + Retry-After (default 64)")
    p_srv.add_argument("--workers", type=_at_least(0), default=None,
                       help="warm-pool size of the service (default: the "
                            "config's workers; 0 = one per CPU; 1 = "
                            "serial).  The pool starts on the first miss "
                            "under a timeout (--job-timeout, or a "
                            "request's timeout_s); until then each "
                            "request's miss runs inline on its handler "
                            "thread")
    p_srv.add_argument("--preset", choices=["fast", "test", "paper"],
                       default="fast",
                       help="MerlinConfig preset the service optimizes "
                            "with (part of the cache key)")
    p_srv.add_argument("--job-timeout", type=_seconds(positive=True),
                       default=None,
                       metavar="S", help="per-request engine timeout "
                                         "(seconds; default none)")
    p_srv.add_argument("--budget-ops", type=_at_least(0), default=None,
                       metavar="N",
                       help="deterministic per-job compute budget; on "
                            "exhaustion the job degrades down the ladder "
                            "instead of failing (default: unlimited)")
    p_srv.add_argument("--deadline", type=_seconds(), default=None,
                       metavar="S",
                       help="per-job wall-clock deadline in seconds, "
                            "same degradation semantics as --budget-ops")
    p_srv.add_argument("--pool-retries", type=_at_least(0), default=2,
                       metavar="N",
                       help="rebuild a crashed worker pool up to N times "
                            "before finishing jobs serially (default 2)")
    p_srv.add_argument("--cache-capacity", type=_at_least(1), default=512,
                       help="in-memory LRU entries (default 512)")
    p_srv.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persist results as JSON under DIR (off by "
                            "default)")
    p_srv.add_argument("--drain-timeout", type=_seconds(), default=30.0,
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
                           "it a server is spun up in-process for the run")
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
    p_lg.add_argument("--concurrency", type=_at_least(1), default=4)
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
    p_lg.add_argument("--queue-limit", type=_at_least(1), default=64)
    p_lg.add_argument("--workers", type=_at_least(0), default=1,
                      help="warm-pool size of the in-process service "
                           "(default 1; 0 = one per CPU)")
    p_lg.add_argument("--preset", choices=["fast", "test", "paper"],
                      default="fast",
                      help="MerlinConfig preset of the in-process service "
                           "(default fast)")

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
    p_cls.add_argument("--workers", type=_at_least(0), default=None,
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

    # Listed for --help only: main() dispatched both above.
    sub.add_parser("check", help="run the domain static analyzer "
                                 "(determinism / pool-safety / numerics "
                                 "/ layering)")
    sub.add_parser("bench", help="pinned benchmark suite with equivalence "
                                 "+ timing gates (same flags as python -m "
                                 "repro.bench)")

    args = parser.parse_args(argv)
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


def _at_least(minimum: int, maximum: Optional[int] = None):
    """An argparse type for a count flag: an integer >= ``minimum``
    (and <= ``maximum`` when given); anything else is a usage error,
    exit 2 (the constructors' own range checks would end in a
    traceback)."""
    bound = (f">= {minimum}" if maximum is None
             else f"from {minimum} to {maximum}")

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum or (maximum is not None and value > maximum):
            raise argparse.ArgumentTypeError(
                f"must be an integer {bound}, got {text!r}")
        return value

    return count


def _seconds(positive: bool = False):
    """The float counterpart of :func:`_at_least` for a duration flag:
    a finite number of seconds >= 0 (> 0 when ``positive``)."""
    bound = "> 0" if positive else ">= 0"

    def seconds(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value)
                and (value > 0 if positive else value >= 0)):
            raise argparse.ArgumentTypeError(
                f"must be a finite number of seconds {bound}, "
                f"got {text!r}")
        return value

    return seconds


def _resolve_cli_workers(cli_workers, config) -> int:
    """CLI worker override: None = config's value, 0 = one per CPU."""
    from repro import parallel

    if cli_workers is None:
        return config.workers
    if cli_workers == 0:
        return parallel.default_worker_count()
    return cli_workers


def _resolve_preset_config(preset: str) -> MerlinConfig:
    presets = {
        "fast": MerlinConfig.fast_preset,
        "test": MerlinConfig.test_preset,
        "paper": MerlinConfig.paper_preset,
    }
    return presets[preset]()


def _run_serve(args) -> int:
    from repro.serve import serve_async
    from repro.service import OptimizationService, ResultCache

    config = _resolve_preset_config(args.preset)
    with OptimizationService(
            tech=default_technology(),
            config=config,
            cache=ResultCache(capacity=args.cache_capacity,
                              disk_dir=args.cache_dir),
            workers=_resolve_cli_workers(args.workers, config),
            job_timeout_s=args.job_timeout,
            budget_ops=args.budget_ops,
            deadline_s=args.deadline,
            pool_retries=args.pool_retries) as service:
        serve_async(args.host, args.port, service,
                    queue_limit=args.queue_limit,
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

    config = _resolve_preset_config(args.preset)
    mode = "replay"
    if args.url is not None:
        report = run_workload(args.url, workload,
                              concurrency=args.concurrency)
    else:
        mode = "self-serve"
        from repro.serve.embedded import EmbeddedAsyncServer

        with EmbeddedAsyncServer(
                queue_limit=args.queue_limit, config=config,
                workers=_resolve_cli_workers(args.workers, config),
                tech=default_technology()) as server:
            report = run_workload(server.base_url, workload,
                                  concurrency=args.concurrency)
    failures = [] if args.no_check else check_equivalence(workload, report)
    print(render_trend(report))
    if args.out is not None:
        write_bench_serve(report, args.out, tag=args.tag,
                          extra={"mode": mode, "preset": args.preset})
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

    config = _resolve_preset_config(args.preset)
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
