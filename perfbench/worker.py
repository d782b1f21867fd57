"""Worker process of the in-process workloads, ``solve`` and ``closure``.

Spawned by ``run.py`` as ``worker.py WORKLOAD SEED SECONDS MODE``.  It
imports the program (the set-up the driver times up to the ``ready``
message) and runs the workload untraced; MODE ``1`` then runs the same
inputs again under a :class:`repro.instrument.Recorder`, and MODE
``setup`` stops after the ``ready`` message.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import checks
import common
import inputs
from layers import engine_layers, median_ms, public_timings
from metrics import Tally
from speed import Sampler

#: A run stops short of its inputs (see ``inputs.sizes``) once it has
#: taken this many times ``--seconds``, so that a much slower program
#: still ends within the time a run has.
MAX_STRETCH = 2.5

# -- solve ---------------------------------------------------------------

def solve_pass(repro: Any, nets: List[Any], budget_s: Optional[float],
               config: Any = None, sample: bool = True) -> Dict[str, Any]:
    """Solve ``nets`` one after another (stopping once ``MAX_STRETCH``
    times ``budget_s`` has passed), sampling the host's speed."""
    answers, latencies, windows = [], [], []
    with Sampler(sample) as host:
        started = time.perf_counter()
        for net in nets:
            t0 = time.perf_counter()
            outcome = repro.optimize(net, config=config)
            t1 = time.perf_counter()
            latencies.append(t1 - t0 - host.probe_s(t0, t1))
            windows.append((t0, t1))
            answers.append(outcome)
            if budget_s is not None and \
                    t1 - started >= MAX_STRETCH * budget_s:
                break
        ended = time.perf_counter()
    wall = ended - started - host.probe_s(started, ended)
    return timed_phase(wall, latencies, windows, host, answers=answers)


def timed_phase(wall_s: float, latencies: List[float],
                windows: List[Tuple[float, float]], host: Sampler,
                **extra: Any) -> Dict[str, Any]:
    """A timed phase's wall figures (probes taken out) and its reference
    figures (speed.py): the phase scaled by the host's speed over all of
    it, each latency by the speed over its window."""
    return {"wall_s": wall_s, "wall_latencies": latencies,
            "elapsed_s": wall_s * host.factor(),
            "latencies": [t * host.factor(*window)
                          for t, window in zip(latencies, windows)],
            "probes": host.samples, **extra}


def check_solve(tally: Tally, tech: Any, nets: List[Any], answers: List[Any],
                expected: Optional[List[Any]], tag: str) -> None:
    for i, (net, outcome) in enumerate(zip(nets, answers)):
        tally.attempt()
        checks.check_answer(tally, f"{tag}{i}:{net.name}", outcome.tree, tech,
                            outcome.signature, outcome.cost,
                            outcome.evaluation,
                            expected[i] if expected is not None else None)


def run_solve(seed: int, seconds: float, trace: bool,
              reference: Dict[str, Any]) -> Dict[str, Any]:
    repro = common.import_program()
    from repro.core.config import MerlinConfig
    from repro.instrument import Recorder
    from repro.tech.technology import default_technology

    tech = default_technology()
    budget = seconds / 2 if trace else seconds
    nets = inputs.solve_nets()[:inputs.sizes(budget)["solve"]]
    expected = reference["solve"]
    tally = Tally()
    run = solve_pass(repro, nets, budget)
    done = nets[:len(run["answers"])]
    check_solve(tally, tech, done, run["answers"], expected, "net")
    result: Dict[str, Any] = {
        key: run[key] for key in ("elapsed_s", "wall_s", "latencies",
                                  "wall_latencies", "probes")}
    result.update(cold=[True] * len(done),
                  peak_rss_mb=common.peak_rss_mb_self())
    if trace:
        rec = Recorder()
        traced = solve_pass(repro, done, None, MerlinConfig(recorder=rec),
                            sample=False)
        check_solve(tally, tech, done, traced["answers"], expected, "traced")
        layers = engine_layers(rec.report())
        layers.update(public_timings(tech, MerlinConfig(),
                                     [(net, a.tree) for net, a
                                      in zip(done, run["answers"])]))
        result["trace"] = {
            "wall_s": sum(traced["wall_latencies"]),
            "untraced_s": sum(run["wall_latencies"]),
            "ops": len(done), "layers": layers,
        }
    holdout = inputs.solve_holdout(seed)
    check_solve(tally, tech, holdout, solve_pass(repro, holdout, None)[
        "answers"], None, "holdout")
    result["attempted"] = tally.attempted
    result["failures"] = tally.failures
    return result


# -- closure -------------------------------------------------------------

def recording_service(host: Sampler, **kwargs: Any) -> Any:
    """An :class:`OptimizationService` that keeps every answer, with its
    objective and its latency, and the total wall time of its
    ``optimize_many`` calls (``host``'s probes taken out of both)."""
    from repro.service import OptimizationService

    class RecordingService(OptimizationService):
        def __init__(self, **kw: Any) -> None:
            super().__init__(**kw)
            self.answers: List[Any] = []
            self.objectives: List[Any] = []
            self.latencies: List[float] = []
            self.windows: List[Tuple[float, float]] = []
            self.batch_s = 0.0

        def optimize_many(self, nets: Any, timeout_s: Any = None,
                          objectives: Any = None, **kw: Any) -> Any:
            started = time.perf_counter()
            results = super().optimize_many(nets, timeout_s, objectives,
                                            **kw)
            ended = time.perf_counter()
            self.batch_s += ended - started - host.probe_s(started, ended)
            self.latencies.extend(
                r.elapsed_s - host.probe_s(started, started + r.elapsed_s)
                for r in results)
            self.windows.extend([(started, ended)] * len(results))
            self.answers.extend(zip(nets, results))
            self.objectives.extend(objectives or [None] * len(nets))
            return results

    return RecordingService(**kwargs)


def closure_once(tally: Tally, tech: Any, tag: str,
                 expected: Dict[str, Any], rec: Any = None
                 ) -> Dict[str, Any]:
    import repro.pipeline.closure as closure_module
    from repro.instrument import use_recorder
    from repro.pipeline import ClosureConfig, run_closure

    netlist = inputs.closure_netlist()
    config = ClosureConfig(order=inputs.CLOSURE_ORDER,
                           batch_size=inputs.CLOSURE_BATCH)
    host = Sampler(enabled=rec is None)
    service = recording_service(host, recorder=rec)
    sta_s: List[float] = []
    real_sta = closure_module.run_sta

    def timed_sta(*args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        try:
            return real_sta(*args, **kwargs)
        finally:
            sta_s.append(time.perf_counter() - started)

    with host:
        started = time.perf_counter()
        if rec is None:
            result = run_closure(netlist, service=service, closure=config)
        else:
            # Time every STA call the closure makes, with its own
            # arguments.
            closure_module.run_sta = timed_sta
            try:
                with use_recorder(rec):
                    result = run_closure(netlist, service=service,
                                         closure=config, recorder=rec)
            finally:
                closure_module.run_sta = real_sta
        ended = time.perf_counter()
    wall = ended - started - host.probe_s(started, ended)
    service.close()

    for i, (net, answer) in enumerate(service.answers):
        op = f"{tag}.net{i}:{net.name}"
        tally.attempt()
        if not answer.ok or answer.degraded:
            tally.fail(op, f"answer not ok: {answer.error}")
            continue
        checks.check_answer(tally, op, answer.tree, tech, answer.signature,
                            answer.cost, answer.evaluation)
    op = f"{tag}.closure"
    tally.attempt()
    delays = [it.critical_delay for it in result.iterations]
    if not result.converged:
        tally.fail(op, "closure did not converge")
    if any(b > a + 1e-6 for a, b in zip(delays, delays[1:])):
        tally.fail(op, f"critical delay rose across iterations: {delays}")
    final = {name: checks.signature_digest(sig)
             for name, sig in result.signatures().items()}
    if final != expected["signatures"]:
        tally.fail(op, "final signatures differ from the reference")
    if not checks.same(result.critical_delay, expected["critical_delay"]):
        tally.fail(op, f"critical delay {result.critical_delay} != "
                       f"reference {expected['critical_delay']}")
    return timed_phase(wall, service.latencies, service.windows, host,
                       service=service, result=result, sta_s=sta_s)


def run_closure_workload(seed: int, seconds: float, trace: bool,
                         reference: Dict[str, Any]) -> Dict[str, Any]:
    common.import_program()
    from repro.instrument import Recorder
    from repro.tech.technology import default_technology

    del seed  # closure has no held-out part; see inputs.CLOSURE_CIRCUIT
    tech = default_technology()
    expected = reference["closure"]
    tally = Tally()
    runs: List[Dict[str, Any]] = []
    started = time.perf_counter()
    for _ in range(1 if trace else inputs.sizes(seconds)["closure"]):
        runs.append(closure_once(tally, tech, f"closure{len(runs)}",
                                 expected))
        if time.perf_counter() - started >= MAX_STRETCH * seconds:
            break
    walls = [r["wall_s"] for r in runs]
    result: Dict[str, Any] = {
        "elapsed_s": sum(r["elapsed_s"] for r in runs),
        "wall_s": sum(walls),
        "closure_times": [r["elapsed_s"] for r in runs],
        "closure_walls": walls,
        "latencies": [t for r in runs for t in r["latencies"]],
        "wall_latencies": [t for r in runs for t in r["wall_latencies"]],
        "probes": [p for r in runs for p in r["probes"]],
        "cold": [not answer.cached for r in runs
                 for _, answer in r["service"].answers],
        "peak_rss_mb": common.peak_rss_mb_self(),
    }
    if trace:
        rec = Recorder()
        traced = closure_once(tally, tech, "traced", expected, rec)
        report = rec.report()
        service = traced["service"]
        counters = report["counters"]
        series = report["series"]
        jobs = series.get("service.job.latency_s", {"count": 0, "total": 0.0})
        requests = series.get("service.request.latency_s",
                              {"count": 0, "total": 0.0})
        cache = service.cache.stats()
        keys = {service.canonical_key_for(net, objective) for (net, _),
                objective in zip(service.answers, service.objectives)}
        lookups = cache["hits"] + cache["misses"]
        sta = traced["sta_s"]
        layers = engine_layers(report)
        layers.update(public_timings(
            tech, service.config,
            [(net, answer.tree) for net, answer in service.answers]))
        layers.update({
            "service.cache.hit_ratio":
                cache["hits"] / lookups if lookups else 0.0,
            "service.cache.writes": cache["size"] + cache["evictions"],
            "service.engine.jobs": counters.get("service.jobs", 0),
            "service.engine.useful_ratio":
                len(keys) / counters["service.jobs"]
                if counters.get("service.jobs") else 0.0,
            "service.engine.job_s":
                jobs["total"] / jobs["count"] if jobs["count"] else 0.0,
            "service.request_ms": 1000.0 * requests["total"]
                / requests["count"] if requests["count"] else 0.0,
            "pipeline.iterations": counters.get("pipeline.iterations", 0),
            "pipeline.nets_reoptimized":
                counters.get("pipeline.nets.reoptimized", 0),
            "pipeline.rollbacks": counters.get("pipeline.rollbacks", 0),
            "pipeline.self_s": traced["wall_s"] - service.batch_s,
            "netlist.sta_ms": median_ms(sta),
            "_sta_total_s": sum(sta),
            "_job_total_s": jobs["total"],
            "_batch_total_s": service.batch_s,
        })
        result["trace"] = {"wall_s": traced["wall_s"],
                           "untraced_s": runs[0]["wall_s"], "ops": 1,
                           "layers": layers}
    result["attempted"] = tally.attempted
    result["failures"] = tally.failures
    return result


def main(argv: List[str]) -> int:
    workload, seed, seconds, mode = argv
    common.import_program()
    if workload == "closure":
        import repro.pipeline  # noqa: F401  (part of this workload's set-up)
    from repro.tech.technology import default_technology

    default_technology()
    common.emit("ready")
    if mode == "setup":
        return 0
    reference = checks.load_reference()
    run = {"solve": run_solve, "closure": run_closure_workload}[workload]
    result = run(int(seed), float(seconds), mode == "1", reference)
    common.emit("result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
