"""The ``serve`` workload: ``merlin-repro serve --async`` with its served
defaults, driven over HTTP by two closed-loop :class:`MerlinClient`\\ s.

Closed loop, because callers of ``/v1/optimize`` are synchronous clients
that wait for each reply; two clients, one per CPU of the host the
benchmark was sized on.  The clients run on one CPU and the server on
the others (see :func:`cpu_split`).  One client sends the stream's
first-sight requests in order.  The other sends its repeats and twins
in order, each once every first-sight request before it has been
answered, so cache hits run while the next cold solve holds the GIL.  The one
exception is a repeat or twin right behind its own first-sight request
in the stream (5 of the first 40 first-sight requests): it is sent as
soon as that request is out, so the engine solves the net twice at
once, a fixed number of duplicate solves per stream.

The server's CPU cannot be probed for its speed (speed.py) while the
server keeps it busy, so a :class:`speed.ProcessSampler` probes the
client CPU, which drifts with it (correlation 0.94 over 5-second
windows).  The run's throughput and the latency of a first-sight
request, a cold solve, are reported in reference time; the latency of a
repeat or twin, a cache hit, in wall time, because it waits mostly on
the server's GIL hand-offs (5 ms switch interval), which do not speed
up with the host.  In two ten-run sets rps, p95 and cold p50 spread
0.02-0.13 (quartile distance over median) against 0.11-0.22 in wall
time, and p50 0.02-0.03 as in wall time; scaling the hits too made p50
ten times noisier.

Two earlier client schedules made runs of one stream disagree.  With
one shared cursor, whether two cold solves overlapped varied from run
to run.  With repeats held back only until their first-sight request had
been *sent*, whether a repeat found its net still being solved depended
on how fast the server was at that moment, and a slow spell fed itself:
more duplicate solves, slower solves, more duplicates.  Runs fell into
two modes, 13 and 20 requests per second.
"""

from __future__ import annotations

import bisect
import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

import checks
import common
import inputs
import speed
from layers import public_timings
from metrics import Tally

SERVER_ARGS = ("-m", "repro", "serve", "--async", "--port", "0")
CLIENTS = 2
#: A run stops sending its requests (see ``inputs.sizes``) once it has
#: taken this many times ``--seconds``.
MAX_STRETCH = 2.5

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


def cpu_split() -> Optional[Tuple[Set[int], Set[int]]]:
    """(client CPUs, server CPUs): the first CPU this process may use for
    the load generator, the others for the server; None with one CPU.

    Unpinned on the 2-vCPU VM the benchmark was sized on, the server's
    threads ran on both vCPUs, and every GIL handoff between them waited
    for the hypervisor to wake the other vCPU: the latency of a cold
    solve among cache hits moved by up to 40% between runs minutes
    apart.  Pinned, it moved by about 10%.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


class Server:
    """One ``serve --async`` subprocess on ``cpus`` (any CPU when None),
    healthy once constructed."""

    def __init__(self, timeout_s: float, cpus: Optional[Set[int]]) -> None:
        from repro.client import MerlinClient

        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *SERVER_ARGS], cwd=str(common.ROOT),
            env=common.program_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        if cpus:
            # Before the server has started a thread: all inherit this.
            os.sched_setaffinity(self.proc.pid, cpus)
        self._errors = common.Drain(self.proc.stderr)
        self._watchdog = threading.Timer(timeout_s, self.proc.kill)
        self._watchdog.start()
        try:
            assert self.proc.stdout is not None
            line = self.proc.stdout.readline()
            match = _LISTENING.search(line)
            if match is None:
                raise common.BenchError(f"server did not start: {line!r} "
                                        f"{self._errors.text}")
            self.url = f"http://{match.group(1)}:{match.group(2)}"
            common.Drain(self.proc.stdout)
            if not MerlinClient(self.url).wait_healthy(timeout_s=60.0):
                raise common.BenchError(f"server never healthy: "
                                        f"{self._errors.text}")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb_pid(self.proc.pid)

    def close(self) -> None:
        """SIGTERM (a graceful drain) and wait until the server is gone."""
        self._watchdog.cancel()
        common.stop(self.proc)


@dataclass
class Reply:
    latency_s: float
    status: int = 0
    retries: int = 0
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: perf_counter() when the request went out.
    sent: float = 0.0


def drive(url: str, requests: List[Dict[str, Any]], seconds: float,
          seed: int) -> Dict[str, Any]:
    """Send ``requests`` (see the module docstring), all of them unless
    ``MAX_STRETCH`` times ``seconds`` passes first (``seconds`` 0: no
    limit).  Returns the wall time and the replies by stream index."""
    from repro.client import ClientTransportError, MerlinClient, RetryPolicy

    fresh = [i for i, r in enumerate(requests) if r["kind"] == "fresh"]
    others = [i for i, r in enumerate(requests) if r["kind"] != "fresh"]
    #: first-sight request -> the repeat or twin right behind it
    shadows = {i - 1: i for i in others if requests[i]["base"] == i - 1}
    replies: Dict[int, Reply] = {}
    frontier = threading.Condition()
    in_flight = [-1]  # the first-sight request out, -1 for none
    answered = [0]  # first-sight requests answered so far
    stopped = [False]
    started = time.perf_counter()

    def over() -> bool:
        return bool(seconds) and \
            time.perf_counter() >= started + MAX_STRETCH * seconds

    def send(client: Any, index: int) -> None:
        request = requests[index]
        t0 = time.perf_counter()
        try:
            response = client.request("POST", request["path"],
                                      request["body"])
        except ClientTransportError as exc:
            replies[index] = Reply(time.perf_counter() - t0, error=str(exc),
                                   sent=t0)
            return
        replies[index] = Reply(time.perf_counter() - t0, response.status,
                               response.retries, response.result,
                               None if response.ok else str(response.error),
                               sent=t0)

    def first_sight(client: Any) -> None:
        try:
            for count, index in enumerate(fresh, 1):
                if over():
                    break
                with frontier:
                    in_flight[0] = index
                    frontier.notify_all()
                send(client, index)
                with frontier:
                    in_flight[0] = -1
                    answered[0] = count
                    frontier.notify_all()
        finally:
            with frontier:
                stopped[0] = True
                frontier.notify_all()

    def repeats(client: Any) -> None:
        sent = set()
        pending = iter(others)
        index = next(pending, None)

        def choice() -> Optional[int]:
            shadow = shadows.get(in_flight[0])
            if shadow is not None and shadow not in sent:
                return shadow
            if index is not None and \
                    answered[0] >= bisect.bisect_left(fresh, index):
                return index
            return None

        while True:
            with frontier:
                frontier.wait_for(lambda: choice() is not None
                                  or stopped[0])
                chosen = choice()
                if chosen is None:
                    return
                sent.add(chosen)
                while index in sent:
                    index = next(pending, None)
            if over():
                return
            send(client, chosen)

    threads = [threading.Thread(target=role, args=(MerlinClient(
        url, retry=RetryPolicy(seed=seed * 7 + k)),), daemon=True)
        for k, role in enumerate((first_sight, repeats))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"wall_s": time.perf_counter() - started,
            "replies": dict(sorted(replies.items()))}


def check_replies(tally: Tally, tech: Any, requests: List[Dict[str, Any]],
                  replies: Dict[int, Reply],
                  expected: Optional[List[Any]], tag: str = "request"
                  ) -> None:
    """Check every reply; a request fails once however many checks it
    breaks.  Within one equivalence class (a first-sight net with its
    repeats and renamed twins) every answer must carry one signature.
    Byte-identical answers within a class share one verdict."""
    from repro.net import net_from_dict
    from repro.routing.export import tree_from_dict

    ordinal: Dict[int, int] = {}
    for index, request in enumerate(requests):
        if request["kind"] == "fresh":
            ordinal[index] = len(ordinal)
    class_signature: Dict[int, str] = {}
    verdicts: Dict[Any, List[str]] = {}
    for index, reply in replies.items():
        request = requests[index]
        op = f"{tag}{index}"
        tally.attempt()
        if reply.error is not None or reply.status != 200:
            tally.fail(op, f"HTTP {reply.status}: {reply.error}")
            continue
        result = reply.result or {}
        base = request["base"]
        answer = [result.get(key) for key in
                  ("tree_signature", "cost", "tree", "evaluation", "degraded")]
        key = (base, json.dumps(answer, sort_keys=True))
        if key not in verdicts:
            rank = ordinal[base]
            ref = expected[rank] if expected is not None and \
                rank < len(expected) else None
            verdict = Tally()
            if result.get("degraded"):
                verdict.fail(op, "degraded answer")
            net = net_from_dict(request["body"]["net"])
            tree = tree_from_dict(result["tree"], net, tech.buffers)
            checks.check_answer(verdict, op, tree, tech,
                                result["tree_signature"], result["cost"],
                                result["evaluation"], ref)
            verdicts[key] = verdict.failures.get(op, [])
        for reason in verdicts[key]:
            tally.fail(op, reason)
        first = class_signature.setdefault(base, result["tree_signature"])
        if result["tree_signature"] != first:
            tally.fail(op, f"signature differs within class {base}")


def first_trees(tech: Any, requests: List[Dict[str, Any]],
                replies: Dict[int, Reply]) -> List[Any]:
    """``(net, tree)`` of every first-sight request answered."""
    from repro.net import net_from_dict
    from repro.routing.export import tree_from_dict

    pairs = []
    for index, reply in replies.items():
        request = requests[index]
        if request["kind"] == "fresh" and reply.result is not None:
            net = net_from_dict(request["body"]["net"])
            pairs.append((net, tree_from_dict(reply.result["tree"], net,
                                              tech.buffers)))
    return pairs


def _series(stats: Dict[str, Any], name: str) -> Dict[str, float]:
    return stats.get("latency", {}).get(name, {"count": 0, "total": 0.0})


def _shard_sum(stats: Dict[str, Any], pick: Any) -> float:
    return sum(pick(shard) for shard in stats["shards"])


def stats_layers(before: Dict[str, Any], after: Dict[str, Any],
                 replies: Dict[int, Reply], requests: List[Dict[str, Any]]
                 ) -> Dict[str, float]:
    """Per-layer figures from ``/v1/stats`` deltas and client timings."""
    def delta(pick: Any) -> float:
        return pick(after) - pick(before)

    def series_delta(name: str) -> Dict[str, float]:
        return {key: delta(lambda s: _series(s, name)[key])
                for key in ("count", "total")}

    def shard_series(name: str) -> Dict[str, float]:
        return {key: delta(lambda s: _shard_sum(
                    s, lambda sh: sh["latency"].get(
                        name, {"count": 0, "total": 0.0})[key]))
                for key in ("count", "total")}

    def shard_counter(name: str) -> float:
        return delta(lambda s: _shard_sum(
            s, lambda sh: sh["counters"].get(name, 0)))

    def cache(key: str) -> float:
        return delta(lambda s: _shard_sum(s, lambda sh: sh["cache"][key]))

    def counter(name: str) -> float:
        return delta(lambda s: s["counters"].get(name, 0))

    def mean_ms(series: Dict[str, float]) -> float:
        return 1000.0 * series["total"] / series["count"] \
            if series["count"] else 0.0

    handle = series_delta("serve.request.latency_s")
    depth = series_delta("serve.queue.depth")
    service = shard_series("service.request.latency_s")
    job = shard_series("service.job.latency_s")
    jobs = shard_counter("service.jobs")
    lookups = cache("hits") + cache("misses")
    per_shard = [counter(f"serve.shard.{i}.requests")
                 for i in range(after["shard_count"])]
    done = list(replies.values())
    client_ms = 1000.0 * sum(r.latency_s for r in done) / len(done)
    classes = {requests[i]["base"] for i in replies}
    return {
        "service.cache.hit_ratio": cache("hits") / lookups if lookups else 0.0,
        "service.cache.writes": cache("size") + cache("evictions"),
        "service.engine.jobs": jobs,
        "service.engine.useful_ratio": len(classes) / jobs if jobs else 0.0,
        "service.engine.job_s": job["total"] / job["count"]
        if job["count"] else 0.0,
        "service.request_ms": mean_ms(service),
        "serve.handle_ms": mean_ms(handle),
        "serve.dispatch_ms": mean_ms(handle) - mean_ms(service),
        "serve.queue_depth.mean": depth["total"] / depth["count"]
        if depth["count"] else 0.0,
        "serve.queue_depth.max":
            _series(after, "serve.queue.depth").get("max", 0.0),
        "serve.rejected": counter("serve.rejected"),
        "serve.shard.failovers": counter("serve.shard.failovers"),
        "serve.shard.imbalance": max(per_shard) / (sum(per_shard)
                                                   / len(per_shard))
        if sum(per_shard) else 0.0,
        "client.transport_ms": client_ms - mean_ms(handle),
        "client.retries": sum(r.retries for r in done),
        "_client_total_s": sum(r.latency_s for r in done),
        "_handle_total_s": handle["total"],
        "_service_total_s": service["total"],
        "_job_total_s": job["total"],
    }


def run_serve(seed: int, seconds: float, trace: bool,
              reference: Dict[str, Any], timeout_s: float) -> Dict[str, Any]:
    """Spawn the server ``SETUP_SPAWNS`` times, drive the last one."""
    from repro.client import MerlinClient
    from repro.core.config import MerlinConfig
    from repro.tech.technology import default_technology

    tech = default_technology()
    requests = inputs.serve_workload().requests[
        :inputs.sizes(seconds)["serve"]]
    holdout = inputs.serve_holdout(seed).requests
    split = cpu_split()
    client_cpus, server_cpus = split or (None, None)
    setups: List[float] = []
    for _ in range(common.SETUP_SPAWNS - 1):
        server = Server(timeout_s, server_cpus)
        setups.append(server.setup_s)
        server.close()
    server = Server(timeout_s, server_cpus)
    try:
        setups.append(server.setup_s)
        client = MerlinClient(server.url)
        before = client.stats()
        stats_s = 0.0
        own_cpus = os.sched_getaffinity(0)
        if client_cpus:  # the client threads drive() starts inherit it
            os.sched_setaffinity(0, client_cpus)
        try:
            with speed.ProcessSampler(client_cpus) as host:
                run = drive(server.url, requests, seconds, seed)
        finally:
            os.sched_setaffinity(0, own_cpus)
        if trace:
            t0 = time.perf_counter()
            after = client.stats()
            stats_s = 2 * (time.perf_counter() - t0)
        peak = server.peak_rss_mb()
        held = drive(server.url, holdout, 0.0, seed)
    finally:
        server.close()
    replies = run["replies"]
    tally = Tally()
    check_replies(tally, tech, requests, replies, reference["serve"])
    check_replies(tally, tech, holdout, held["replies"], None, "holdout")
    cold = [requests[i]["kind"] == "fresh" for i in replies]
    # Reference time for the throughput and first-sight requests, wall
    # time for cache hits: see the module docstring.
    result: Dict[str, Any] = {
        "setups": setups, "wall_s": run["wall_s"],
        "elapsed_s": run["wall_s"] * host.factor(),
        "wall_latencies": [r.latency_s for r in replies.values()],
        "latencies": [r.latency_s * host.factor(r.sent, r.sent + r.latency_s)
                      if first else r.latency_s
                      for r, first in zip(replies.values(), cold)],
        "probes": host.samples, "cold": cold,
        "peak_rss_mb": peak, "attempted": tally.attempted,
        "failures": tally.failures,
        "environment": {"shards": before["shard_count"],
                        "workers_per_shard": before["shards"][0]["workers"],
                        "server_cpus": sorted(server_cpus or []),
                        "client_cpus": sorted(client_cpus or [])},
    }
    if trace:
        layers = stats_layers(before, after, replies, requests)
        layers.update(public_timings(tech, MerlinConfig(), first_trees(
            tech, requests, replies)))
        result["trace"] = {"wall_s": run["wall_s"] + stats_s,
                           "untraced_s": run["wall_s"], "clients": CLIENTS,
                           "ops": len(replies), "layers": layers}
    return result
