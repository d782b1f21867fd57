"""The repository benchmark: ``solve``, ``serve`` and ``closure``.

Run from the repository root::

    python3 perfbench/run.py --workload solve --seed 7 --seconds 35
    python3 perfbench/run.py --workload serve --trace 1   # per-layer run
    python3 perfbench/run.py --workload all               # every workload

The program runs from this checkout's ``src`` in worker processes (and,
for ``serve``, as a ``serve --async`` subprocess).  Every answer is
checked; answers to the pinned timed inputs also against
``reference.json``, and ``--seed`` picks extra held-out inputs.
``solve`` and ``closure`` report reference time (``speed.py``),
``serve`` wall time (``serve_load.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).  The exit code is 0 only when
every answer is correct, 1 when some answer is wrong, and 2 when the
benchmark could not run.  ``--write-reference`` recomputes
``reference.json`` from the pinned inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

import checks
import common
import inputs
import layers
import serve_load
import speed
from metrics import Tally, percentile, samples_beyond, supported_percentile
from spec import END_TO_END, PER_LAYER, WORKLOADS

#: A one-workload run must end within 180 s; this leaves a margin.
RUN_BUDGET_S = 170.0

#: The percentile each workload reports as ``tail_ms``: the highest one
#: with ten samples beyond it in the smallest sample a run takes
#: (``solve``: 100 nets, ``serve``: 200 requests, ``closure``: two
#: closures of 27 nets).
TAIL_PERCENTILE = {"solve": 90.0, "serve": 95.0, "closure": 75.0}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=inputs.INPUT_SEED,
                        help="seed of the held-out inputs (the timed "
                             "inputs are pinned; see inputs.py)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="sizes the fixed amount of work a run "
                             "measures (see inputs.sizes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute the reference answers and exit")
    return parser.parse_args(argv)


def environment(served: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Host and served defaults a figure is only comparable under."""
    from repro.core.config import MerlinConfig
    from repro.curves import contract

    config = MerlinConfig()
    preset = next((name for name, make in (
        ("fast", MerlinConfig.fast_preset), ("test", MerlinConfig.test_preset),
        ("paper", MerlinConfig.paper_preset)) if make() == config), "custom")
    numpy_version = None
    if contract.numpy_available():
        import numpy

        numpy_version = numpy.__version__
    env = {"python": platform.python_version(), "numpy": numpy_version,
           "nproc": os.cpu_count(),
           "backend": config.curve.resolved_backend(), "preset": preset,
           "shards": None, "workers_per_shard": config.workers}
    env.update(served or {})
    return env


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> Dict[str, Any]:
    """Run one workload; returns its raw result plus set-up times."""
    from repro.bench import calibration_seconds

    calibration = [calibration_seconds()]
    if workload == "serve":
        result = serve_load.run_serve(
            seed, seconds, trace, checks.load_reference(),
            timeout_s=deadline - time.perf_counter())
    else:
        args = [workload, str(seed), str(seconds)]
        setups = [common.run_worker(
            [*args, "setup"], deadline - time.perf_counter())[0]
            for _ in range(common.SETUP_SPAWNS - 1)]
        setup, result = common.run_worker(
            [*args, "1" if trace else "0"], deadline - time.perf_counter())
        result["setups"] = setups + [setup]
    calibration.append(calibration_seconds())
    result["calibration_s"] = calibration
    return result


def timings(workload: str, latencies: List[float], cold: List[bool],
            elapsed_s: float) -> Dict[str, float]:
    """Throughput and latency figures of one timed phase."""
    return {
        "nets_per_s": len(latencies) / elapsed_s,
        "p50_ms": 1000.0 * percentile(latencies, 50),
        "tail_ms": 1000.0 * percentile(latencies,
                                       TAIL_PERCENTILE[workload]),
        "cold_p50_ms": 1000.0 * percentile(
            [t for t, first in zip(latencies, cold) if first], 50),
    }


def end_to_end(workload: str, result: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics (timings as the workload reports them)."""
    return {
        "setup_s": statistics.median(result["setups"]),
        "peak_rss_mb": result["peak_rss_mb"],
        **timings(workload, result["latencies"], result["cold"],
                  result["elapsed_s"]),
    }


def render(workload: str, seed: int, result: Dict[str, Any],
           e2e: Dict[str, float], per_layer: Optional[Dict[str, float]]
           ) -> str:
    env = result["environment"]
    n = len(result["latencies"])
    n_cold = sum(result["cold"])
    tail = TAIL_PERCENTILE[workload]
    supported = supported_percentile(n) or 0.0
    failed = len(result["failures"])

    wall = timings(workload, result["wall_latencies"], result["cold"],
                   result["wall_s"])
    probes = result["probes"]

    def row(name: str, value: Optional[float], unit: str, note: str) -> str:
        shown = f"{value:12.4f}" if value is not None else f"{'n/a':>12}"
        if name in wall:
            note = f"wall {wall[name]:.4f}; {note}"
        return f"  {name:<12} {shown} {unit:<6} {note}"

    walls = result.get("closure_walls")
    lines = [
        f"== {workload} (seed {seed}{', traced' if per_layer else ''}) ==",
        "environment: " + ", ".join(f"{k} {v}" for k, v in env.items())
        + ", calibration {:.4f} s -> {:.4f} s".format(
            *result["calibration_s"]),
        f"host speed: {len(probes)} probes, median "
        f"{1000.0 * statistics.median(probes):.2f} ms, range "
        f"{1000.0 * min(probes):.2f}-{1000.0 * max(probes):.2f} ms "
        f"(reference {1000.0 * speed.REFERENCE_PROBE_S:g} ms); timings "
        f"below in reference time"
        f"{' (cache hits in wall time)' if workload == 'serve' else ''}, "
        f"wall time beside them",
        row("setup_s", e2e["setup_s"], "s",
            f"median of {len(result['setups'])} fresh starts"),
        row("peak_rss_mb", e2e["peak_rss_mb"], "MiB", ""),
        row("error_frac", failed / result["attempted"], "ratio",
            f"{failed} of {result['attempted']} operations failed"),
        row("nets_per_s", e2e["nets_per_s"], "1/s",
            f"{n} nets in {result['elapsed_s']:.2f} s"),
        row("rps", e2e["nets_per_s"] if workload == "serve" else None,
            "1/s", "2 closed-loop clients" if workload == "serve"
            else "no HTTP front end on this workload"),
        row("p50_ms", e2e["p50_ms"], "ms", f"n={n}"),
        row("tail_ms", e2e["tail_ms"], "ms",
            f"p{tail:g}, {samples_beyond(n, tail)} of n={n} beyond"
            + ("" if supported >= tail else
               f"; UNSUPPORTED: this sample supports only p{supported:g}")),
        row("p95_ms", 1000.0 * percentile(result["latencies"], 95)
            if supported >= 95.0 else None, "ms",
            f"n={n}" if supported >= 95.0 else
            f"n={n} has fewer than 10 samples beyond p95"),
        row("cold_p50_ms", e2e["cold_p50_ms"], "ms", f"n={n_cold}"),
        row("closure_s", statistics.median(result["closure_times"])
            if walls else None, "s",
            f"wall {statistics.median(walls):.4f}; median of {len(walls)} "
            f"closures" if walls else "no closure on this workload"),
    ]
    for reason in [f"{op}: {'; '.join(r)}" for op, r
                   in list(result["failures"].items())[:5]]:
        lines.append(f"  FAILED {reason}")
    if per_layer is not None:
        trace = result["trace"]
        wall, rows, rest = layers.table(workload, trace)
        lines.append(f"  layer self time over the traced wall "
                     f"({wall:.3f} s):")
        for layer in [*rows, rest]:
            lines.append(f"    {layer.name:<24} {layer.seconds:10.4f} s "
                         f"{100.0 * layer.share:6.1f}%")
        lines.append(f"    tracing overhead: "
                     f"{100.0 * per_layer['trace.overhead_frac']:+.1f}% "
                     f"({trace['wall_s']:.3f} s traced vs "
                     f"{trace['untraced_s']:.3f} s untraced, wall)")
        lines.append("  per-layer metrics:")
        for name, value in per_layer.items():
            lines.append(f"    {name:<44} {value:14.6g} {PER_LAYER[name]}")
    return "\n".join(lines)


def write_reference() -> None:
    """Answer every pinned input once and store the answers."""
    import repro
    from repro.net import net_from_dict
    from repro.service import OptimizationService
    from repro.tech.technology import default_technology
    from worker import closure_once

    digest = checks.signature_digest
    solve = []
    for net in inputs.solve_nets():
        outcome = repro.optimize(net)
        solve.append([digest(outcome.signature), outcome.cost])
    service = OptimizationService()
    serve = []
    for request in inputs.serve_workload().requests:
        if request["kind"] == "fresh":
            answer = service.optimize(net_from_dict(request["body"]["net"]))
            serve.append([digest(answer.signature), answer.cost])
    unchecked = {"signatures": {}, "critical_delay": 0.0}
    closure = closure_once(Tally(), default_technology(), "reference",
                           unchecked)["result"]
    data = {
        "version": checks.REFERENCE_VERSION,
        "seed": inputs.INPUT_SEED,
        "fingerprints": inputs.fingerprints(),
        "solve": solve,
        "serve": serve,
        "closure": {
            "signatures": {name: digest(sig) for name, sig
                           in closure.signatures().items()},
            "critical_delay": closure.critical_delay,
        },
    }
    with open(checks.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _terminated(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)  # unwinds, so child processes stop


def main(argv: Optional[List[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    args = parse_args(argv)
    selected = list(WORKLOADS) if args.workload == "all" \
        else [args.workload]
    deadline = time.perf_counter() + RUN_BUDGET_S * len(selected)
    try:
        common.import_program()
        if args.write_reference:
            write_reference()
            return 0
        reference = checks.load_reference()
        drifted = [name for name, value in inputs.fingerprints().items()
                   if reference["fingerprints"].get(name) != value]
        if drifted:
            raise common.BenchError(
                f"input generators drifted for {drifted}: the committed "
                f"fingerprints no longer match; refusing to measure a "
                f"different workload")
        outputs = {}
        for workload in selected:
            result = run_one(workload, args.seed, args.seconds,
                             bool(args.trace), deadline)
            result["environment"] = environment(result.get("environment"))
            e2e = end_to_end(workload, result)
            per_layer = layers.per_layer_metrics(workload, result["trace"]) \
                if args.trace else None
            print(render(workload, args.seed, result, e2e, per_layer))
            outputs[workload] = (result, per_layer or e2e)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a crash is "could not run", never a result
        traceback.print_exc()
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    metrics: Dict[str, Any] = {}
    for workload, (_, values) in outputs.items():
        prefix = "" if len(outputs) == 1 else f"{workload}."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    attempted = sum(r["attempted"] for r, _ in outputs.values())
    failed = sum(len(r["failures"]) for r, _ in outputs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
