"""What the benchmark measures.

Workloads, metric names, units, directions and bounds live in
``BENCHMARK.json`` and are read from there.  This module adds what that
file has no keys for: each per-layer metric's layer and the end-to-end
metrics and workloads it should move.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from common import ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

WORKLOADS: List[str] = [w["name"] for w in BENCHMARK["workloads"]]
#: end-to-end metric -> unit
END_TO_END: Dict[str, str] = {m["name"]: m["unit"]
                              for m in BENCHMARK["end_to_end"]}
#: per-layer metric -> unit
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"]
                             for m in BENCHMARK["per_layer"]}

_ENGINE = (("nets_per_s", "solve"), ("nets_per_s", "closure"),
           ("cold_p50_ms", "serve"))
_SOLVE = (("nets_per_s", "solve"),)
_CLOSURE = (("nets_per_s", "closure"),)
_TRACE = (("nets_per_s", "solve"), ("nets_per_s", "closure"),
          ("p50_ms", "serve"))

#: per-layer metric -> (layer, ((end-to-end metric, workload), ...))
LINKS: Dict[str, Tuple[str, Tuple[Tuple[str, str], ...]]] = {
    "curves.kernel.join_s": ("curves", _ENGINE),
    "curves.kernel.buffer_s": ("curves", _ENGINE),
    "curves.kernel.relocate_s": ("curves", _ENGINE),
    "curves.kernel.prune_s": ("curves", _ENGINE),
    "curves.kernel.prune_calls": ("curves", _SOLVE),
    "curves.prune.survivor_ratio": ("curves", _SOLVE),
    "core.star_ptree.self_s": ("core.star_ptree", _SOLVE),
    "core.star_ptree.join_pairs": ("core.star_ptree", _SOLVE),
    "core.star_ptree.shadow_skip_ratio": ("core.star_ptree", _SOLVE),
    "core.bubble_construct.self_s": ("core.bubble_construct", _SOLVE),
    "core.bubble_construct.cells": ("core.bubble_construct", _SOLVE),
    "core.finalize_s": ("core.bubble_construct", _SOLVE),
    "core.merlin.iterations": ("core.merlin", _CLOSURE + _SOLVE),
    "core.merlin.self_s": ("core.merlin", _CLOSURE + _SOLVE),
    "routing.evaluate_ms": ("routing", (("p50_ms", "serve"),
                                        ("nets_per_s", "closure"))),
    "routing.rebuild_ms": ("routing", (("p50_ms", "serve"),
                                       ("nets_per_s", "closure"))),
    "service.canonical.key_ms": ("service.canonical", (
        ("p50_ms", "serve"), ("nets_per_s", "closure"))),
    "service.cache.hit_ratio": ("service.cache", (
        ("p50_ms", "serve"), ("nets_per_s", "serve"))),
    "service.cache.writes": ("service.cache", _CLOSURE),
    "service.engine.jobs": ("service.engine", (
        ("nets_per_s", "serve"), ("nets_per_s", "closure"))),
    "service.engine.useful_ratio": ("service.engine", (
        ("nets_per_s", "serve"), ("cold_p50_ms", "serve"),
        ("tail_ms", "serve"))),
    "service.engine.job_s": ("service.engine", (
        ("cold_p50_ms", "serve"), ("tail_ms", "serve"),
        ("nets_per_s", "closure"))),
    "service.request_ms": ("service.engine", (
        ("p50_ms", "serve"), ("nets_per_s", "closure"))),
    "serve.handle_ms": ("serve", (("p50_ms", "serve"),
                                  ("tail_ms", "serve"))),
    "serve.dispatch_ms": ("serve", (("p50_ms", "serve"),
                                    ("tail_ms", "serve"))),
    "serve.queue_depth.mean": ("serve", (("tail_ms", "serve"),)),
    "serve.queue_depth.max": ("serve", (("tail_ms", "serve"),)),
    "serve.rejected": ("serve", (("tail_ms", "serve"),)),
    "serve.shard.failovers": ("serve", (("tail_ms", "serve"),)),
    "serve.shard.imbalance": ("serve", (("tail_ms", "serve"),
                                        ("p50_ms", "serve"))),
    "client.transport_ms": ("client", (("p50_ms", "serve"),)),
    "client.retries": ("client", (("p50_ms", "serve"),)),
    "pipeline.iterations": ("pipeline", _CLOSURE),
    "pipeline.nets_reoptimized": ("pipeline", _CLOSURE),
    "pipeline.rollbacks": ("pipeline", _CLOSURE),
    "pipeline.self_s": ("pipeline", _CLOSURE),
    "netlist.sta_ms": ("netlist.sta", _CLOSURE),
    "trace.unattributed_frac": ("trace", _TRACE),
    "trace.overhead_frac": ("trace", _TRACE),
}
