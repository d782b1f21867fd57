"""Workload inputs, built with the program's own generators.

The timed inputs of every workload are pinned to :data:`INPUT_SEED`.  Per
input, cost on the fast preset spreads several-fold (3-sink nets:
0.13-0.85 s; the C1908 closure: 14-31 s over four circuit seeds) while a
run holds ~100 nets or one or two closures, so a per-run draw of inputs
moved the figures more than any change worth detecting (over five seeds,
quartile spread over median: ``solve`` nets_per_s 15%, ``serve`` rps
42%; five runs of one input set: 9% and 7%).  The ``--seed`` of a run
picks its *held-out* inputs instead: a few more nets (``solve``) or
requests (``serve``) drawn from that seed, answered after the timed
phase and checked like every other answer, but not timed.

The fingerprint of the pinned inputs is committed in ``reference.json``;
each run regenerates them and refuses to measure when a program-side
generator (``make_experiment_net``, ``generate_workload``,
``generate_circuit``) has drifted.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

#: Seed of the pinned timed inputs, whose answers ``reference.json`` holds.
INPUT_SEED = 1999

#: ``solve`` nets have this many sinks.  Cost per net grows about
#: tenfold per added sink (4 sinks: 1.6-6.1 s, 5 sinks: 4.5-10.8 s), so
#: a run could hold only a handful of larger nets.
SOLVE_SINKS = 3
#: Length of the ``solve`` net stream; a run answers a prefix of it.
SOLVE_STREAM = 400
#: Held-out nets a ``solve`` run answers after its timed phase.
SOLVE_HOLDOUT = 4

#: ``serve`` request stream: a tenth first-sight 3-sink nets, the rest
#: verbatim repeats or renamed twins of earlier ones.  A tenth puts the
#: cold solves (and the duplicates among them) at the 90th-plus
#: percentiles, so p95 lies among them and the median among cache hits.
SERVE_STREAM = 3000
SERVE_SINKS = 3
SERVE_REPEAT_FRACTION = 0.45
SERVE_TWIN_FRACTION = 0.45
#: Held-out requests a ``serve`` run sends after its timed phase, a third
#: of them first-sight, and the offset that keeps their nets apart from
#: the timed ones.
SERVE_HOLDOUT = 12
SERVE_HOLDOUT_SEED_OFFSET = 1_000_000

#: ``closure`` input: no held-out part, since one closure takes ~20 s.
CLOSURE_CIRCUIT = "C1908"
CLOSURE_ORDER = "criticality"
CLOSURE_BATCH = 4

#: A run measures a fixed amount of work, sized from ``--seconds`` by
#: these rates (about what the VM the benchmark was sized on managed),
#: never by the clock: with a time limit instead, a run answered more or
#: fewer of the pinned inputs as the host sped up or slowed down, and its
#: percentiles were taken over different inputs from run to run.
SOLVE_NETS_PER_S = 3.0
SERVE_REQUESTS_PER_S = 25.0
CLOSURE_S = 17.5


def sizes(seconds: float) -> Dict[str, int]:
    """Inputs a run of ``seconds`` measures: ``solve`` nets, ``serve``
    requests and ``closure`` closures."""
    return {"solve": min(SOLVE_STREAM, round(seconds * SOLVE_NETS_PER_S)),
            "serve": min(SERVE_STREAM,
                         round(seconds * SERVE_REQUESTS_PER_S)),
            "closure": max(1, round(seconds / CLOSURE_S))}


def _nets(seed: int, start: int, count: int) -> List[Any]:
    from repro.experiments.nets import make_experiment_net

    return [make_experiment_net(f"solve{i:04d}", SOLVE_SINKS,
                                seed=seed * 1_000_003 + i)
            for i in range(start, start + count)]


def solve_nets(count: int = SOLVE_STREAM) -> List[Any]:
    """The timed ``solve`` stream: ``count`` distinct nets."""
    return _nets(INPUT_SEED, 0, count)


def solve_holdout(seed: int) -> List[Any]:
    """Held-out ``solve`` nets of ``seed`` (past the timed stream)."""
    return _nets(seed, SOLVE_STREAM, SOLVE_HOLDOUT)


def _workload(requests: int, seed: int, repeats: float, twins: float) -> Any:
    from repro.loadgen.workload import WorkloadSpec, generate_workload

    return generate_workload(WorkloadSpec(
        requests=requests, distinct_nets=requests,
        min_sinks=SERVE_SINKS, max_sinks=SERVE_SINKS, seed=seed,
        twin_fraction=twins, repeat_fraction=repeats))


def serve_workload() -> Any:
    """The timed ``serve`` request stream (a ``loadgen`` Workload)."""
    return _workload(SERVE_STREAM, INPUT_SEED, SERVE_REPEAT_FRACTION,
                     SERVE_TWIN_FRACTION)


def serve_holdout(seed: int) -> Any:
    """Held-out ``serve`` requests of ``seed``."""
    return _workload(SERVE_HOLDOUT, seed + SERVE_HOLDOUT_SEED_OFFSET,
                     1 / 3, 1 / 3)


def closure_netlist() -> Any:
    """A fresh (unplaced) copy of the ``closure`` circuit."""
    from repro.experiments.circuits import resolve_circuit_spec
    from repro.netlist.generator import generate_circuit

    return generate_circuit(resolve_circuit_spec(CLOSURE_CIRCUIT,
                                                 INPUT_SEED))


def digest(data: Any) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprints() -> Dict[str, str]:
    """Fingerprint of every workload's pinned inputs."""
    from repro.net import net_to_dict
    from repro.netlist.io import netlist_to_dict

    return {
        "solve": digest([net_to_dict(net) for net in solve_nets()]),
        "serve": digest(serve_workload().to_dict()),
        "closure": digest(netlist_to_dict(closure_netlist())),
    }
