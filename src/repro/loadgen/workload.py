"""Seeded serving workloads: generate, record, replay.

A *workload* is an ordered list of HTTP requests (path + JSON body)
that a harness (:mod:`repro.loadgen.harness`) fires at a running MERLIN
front end.  Workloads are pure functions of their
:class:`WorkloadSpec` — same spec, same seed, byte-identical request
list — and they serialize to JSON, so a recorded workload replays
exactly in CI months later regardless of generator drift (the recorded
file, not the generator, is the contract).

Shape of the traffic: mostly distinct optimize requests over seeded
experiment nets (:func:`repro.experiments.nets.make_experiment_net`),
salted with two kinds of repeats that a serving tier must handle well:

* **exact repeats** — the same net again (an LRU hit);
* **disguised repeats** — an earlier net with every name rewritten
  (``twin_fraction``).  These exercise the whole point of canonical
  signatures: the cache must see through the disguise, so twins hit the
  same cache entry even though their JSON labels differ everywhere.

Twins are rename-only by default.  The canonical cache also identifies
*translated* twins, but translation changes the absolute coordinates
the engine computes with, and last-ulp arithmetic differences can flip
DP tie-breaks between equally-good trees — so a translated twin may
legitimately compute a *different* valid tree than its base, and which
one seeds the cache depends on arrival order.  A workload that must
support a bit-identity gate (replay == reference run, signature for
signature) therefore keeps ``translate_twins`` off; turn it on only for
cache-realism load runs where the comparison is "one signature per
equivalence class *per replay*" rather than across replays.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.experiments.nets import make_experiment_net
from repro.net import net_to_dict
from repro.resilience.errors import MerlinInputError

#: Bump when the workload JSON schema changes.
WORKLOAD_VERSION = 1


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything a workload is derived from (all determinism lives
    here)."""

    requests: int = 64
    #: Distinct underlying nets; the rest of the traffic repeats them.
    distinct_nets: int = 16
    min_sinks: int = 4
    max_sinks: int = 10
    seed: int = 1999
    #: Fraction of requests that are renamed twins of an earlier request
    #: (cache-equivalent, JSON-labels-different).
    twin_fraction: float = 0.25
    #: Fraction that repeat an earlier request verbatim.
    repeat_fraction: float = 0.25
    #: Also translate twins (see module docstring: breaks cross-replay
    #: bit-identity, keep off for gated workloads).
    translate_twins: bool = False

    def __post_init__(self) -> None:
        if self.requests < 1 or self.distinct_nets < 1:
            raise MerlinInputError("workload needs >= 1 request and net")
        if not 2 <= self.min_sinks <= self.max_sinks:
            raise MerlinInputError(
                f"bad sink range [{self.min_sinks}, {self.max_sinks}]")
        if not 0.0 <= self.twin_fraction + self.repeat_fraction <= 1.0:
            raise MerlinInputError(
                "twin_fraction + repeat_fraction must be within [0, 1]")


@dataclass
class Workload:
    """An ordered, replayable request list."""

    spec: WorkloadSpec
    #: One entry per request: {"path", "body", "kind", "base"} where
    #: ``kind`` is fresh|repeat|twin and ``base`` is the index of the
    #: fresh request a repeat/twin is equivalent to (itself when fresh).
    requests: List[Dict[str, Any]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.requests)

    def equivalence_classes(self) -> Dict[int, List[int]]:
        """Request indices grouped by the fresh request they are
        cache-equivalent to (harnesses assert equal tree signatures
        within each class)."""
        classes: Dict[int, List[int]] = {}
        for index, request in enumerate(self.requests):
            classes.setdefault(request["base"], []).append(index)
        return classes

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": WORKLOAD_VERSION,
            "spec": asdict(self.spec),
            "requests": self.requests,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Workload":
        version = int(data.get("version", 0))
        if version != WORKLOAD_VERSION:
            raise MerlinInputError(
                f"workload version {version} unsupported "
                f"(expected {WORKLOAD_VERSION})")
        return cls(spec=WorkloadSpec(**data["spec"]),
                   requests=list(data["requests"]))


def _twin_body(body: Dict[str, Any], rng: random.Random, serial: int,
               translate: bool) -> Dict[str, Any]:
    """A disguise of an optimize body with the same canonical signature:
    every label rewritten, and (``translate`` only) the whole net moved
    rigidly."""
    net = body["net"]
    dx = dy = 0.0
    if translate:
        dx = round(rng.uniform(-4000.0, 4000.0), 3)
        dy = round(rng.uniform(-4000.0, 4000.0), 3)
    twin = dict(net)
    twin["name"] = f"{net['name']}__twin{serial}"
    twin["source"] = [net["source"][0] + dx, net["source"][1] + dy]
    twin["sinks"] = [
        {**sink,
         "name": f"t{serial}s{i}",
         "position": [sink["position"][0] + dx, sink["position"][1] + dy]}
        for i, sink in enumerate(net["sinks"])
    ]
    return {"net": twin}


def generate_workload(spec: WorkloadSpec) -> Workload:
    """Expand ``spec`` into its (deterministic) request list."""
    rng = random.Random(spec.seed)
    fresh_bodies: List[Dict[str, Any]] = []
    fresh_indices: List[int] = []
    requests: List[Dict[str, Any]] = []
    for index in range(spec.requests):
        roll = rng.random()
        can_reuse = bool(fresh_bodies)
        if can_reuse and roll < spec.repeat_fraction:
            pick = rng.randrange(len(fresh_bodies))
            requests.append({"path": "/v1/optimize",
                             "body": fresh_bodies[pick],
                             "kind": "repeat",
                             "base": fresh_indices[pick]})
            continue
        if can_reuse and roll < spec.repeat_fraction + spec.twin_fraction:
            pick = rng.randrange(len(fresh_bodies))
            requests.append({"path": "/v1/optimize",
                             "body": _twin_body(fresh_bodies[pick], rng,
                                                index,
                                                spec.translate_twins),
                             "kind": "twin",
                             "base": fresh_indices[pick]})
            continue
        net_id = len(fresh_bodies)
        if net_id >= spec.distinct_nets:
            # Net pool exhausted: a would-be-fresh request becomes a
            # verbatim repeat of a (seeded) earlier net.
            pick = rng.randrange(len(fresh_bodies))
            requests.append({"path": "/v1/optimize",
                             "body": fresh_bodies[pick],
                             "kind": "repeat",
                             "base": fresh_indices[pick]})
            continue
        sinks = spec.min_sinks + (net_id % (spec.max_sinks
                                            - spec.min_sinks + 1))
        net = make_experiment_net(f"load{net_id:04d}", sinks,
                                  seed=spec.seed * 100_003 + net_id)
        fresh_bodies.append({"net": net_to_dict(net)})
        fresh_indices.append(index)
        requests.append({"path": "/v1/optimize", "body": fresh_bodies[-1],
                         "kind": "fresh", "base": index})
    return Workload(spec=spec, requests=requests)


def save_workload(workload: Workload, path: str) -> None:
    """Record a workload to JSON (the replay contract)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(workload.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_workload(path: str) -> Workload:
    """Load a recorded workload for replay."""
    with open(path, "r", encoding="utf-8") as handle:
        return Workload.from_dict(json.load(handle))


def resolve_workload(path: Optional[str] = None,
                     spec: Optional[WorkloadSpec] = None) -> Workload:
    """The harness's front door: replay ``path`` when given, else
    generate from ``spec`` (or the default spec)."""
    if path is not None:
        return load_workload(path)
    return generate_workload(spec or WorkloadSpec())
