"""How a traced run's raw figures become layer self times and the
per-layer metrics of ``BENCHMARK.json``.

A layer not on a workload's path reports 0 there.  The engine layers
(``curves``, ``core.*``) on ``serve`` run inside the server's shards,
which carry no engine spans yet, so they report 0 there too.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Tuple

from metrics import LayerRow, layer_table, overhead_frac, span_self_times
from spec import PER_LAYER

#: Engine figures that add up over a run; on ``solve`` they are
#: reported per net, on ``closure`` per closure run.
_PER_OP = ("curves.kernel.join_s", "curves.kernel.buffer_s",
           "curves.kernel.relocate_s", "curves.kernel.prune_s",
           "curves.kernel.prune_calls", "core.star_ptree.self_s",
           "core.star_ptree.join_pairs", "core.bubble_construct.self_s",
           "core.bubble_construct.cells", "core.finalize_s",
           "core.merlin.iterations", "core.merlin.self_s")

#: Layer-table rows taken straight from engine self times.
_ENGINE_ROWS = (("curves.kernel.join", "curves.kernel.join_s"),
                ("curves.kernel.buffer", "curves.kernel.buffer_s"),
                ("curves.kernel.relocate", "curves.kernel.relocate_s"),
                ("curves.kernel.prune", "curves.kernel.prune_s"),
                ("core.star_ptree", "core.star_ptree.self_s"),
                ("core.bubble_construct", "core.bubble_construct.self_s"),
                ("core.finalize", "core.finalize_s"),
                ("core.merlin", "core.merlin.self_s"))

#: Each public function is timed this often per input in a traced run.
PUBLIC_REPEATS = 3


def timed(fn: Any, *args: Any) -> float:
    """Seconds one call of ``fn(*args)`` takes."""
    started = time.perf_counter()
    fn(*args)
    return time.perf_counter() - started


def median_ms(samples: List[float]) -> float:
    return 1000.0 * statistics.median(samples) if samples else 0.0


def public_timings(tech: Any, config: Any, pairs: List[Any]
                   ) -> Dict[str, float]:
    """Median ms per call of ``evaluate_tree``, the cache-hit rebuild
    (``tree_from_dict`` + ``tree_signature``) and ``canonical_key`` on
    the workload's own ``(net, tree)`` pairs."""
    from repro.core.objective import Objective
    from repro.routing.evaluate import evaluate_tree
    from repro.routing.export import tree_from_dict, tree_signature, \
        tree_to_dict
    from repro.service.canonical import canonical_key

    def rebuild(data: Any, net: Any) -> None:
        tree_signature(tree_from_dict(data, net, tech.buffers))

    objective = Objective.max_required_time()
    evaluate: List[float] = []
    rebuilt: List[float] = []
    keyed: List[float] = []
    for net, tree in pairs:
        data = tree_to_dict(tree)
        for _ in range(PUBLIC_REPEATS):
            evaluate.append(timed(evaluate_tree, tree, tech))
            rebuilt.append(timed(rebuild, data, net))
            keyed.append(timed(canonical_key, net, tech, config, objective))
    return {"routing.evaluate_ms": median_ms(evaluate),
            "routing.rebuild_ms": median_ms(rebuilt),
            "service.canonical.key_ms": median_ms(keyed)}


def engine_layers(report: Dict[str, Any]) -> Dict[str, float]:
    """Engine self seconds and counters from a recorder report (run
    totals)."""
    spans = {path: s["total_s"] for path, s in report["spans"].items()}
    own = span_self_times(spans)
    counters = report["counters"]
    survivors = report["series"].get("curve.prune.survivor_ratio")
    offers = counters.get("ptree.buffer.offers", 0)
    return {
        "curves.kernel.join_s": own.get("curves.kernel.join", 0.0),
        "curves.kernel.buffer_s": own.get("curves.kernel.buffer", 0.0),
        "curves.kernel.relocate_s": own.get("curves.kernel.relocate", 0.0),
        "curves.kernel.prune_s": own.get("curves.kernel.prune", 0.0),
        "curves.kernel.prune_calls": counters.get("curve.prune.calls", 0),
        "curves.prune.survivor_ratio":
            survivors["mean"] if survivors else 0.0,
        "core.star_ptree.self_s": own.get("ptree", 0.0),
        "core.star_ptree.join_pairs": counters.get("ptree.join.pairs", 0),
        "core.star_ptree.shadow_skip_ratio":
            counters.get("ptree.buffer.shadow_skips", 0) / offers
            if offers else 0.0,
        "core.bubble_construct.self_s": own.get("bubble_construct", 0.0),
        "core.bubble_construct.cells": counters.get("bubble.cells", 0),
        "core.finalize_s": own.get("finalize", 0.0),
        "core.merlin.iterations": counters.get("merlin.iterations", 0),
        "core.merlin.self_s": own.get("merlin", 0.0),
        "_spans_total_s": sum(own.values()),
    }


def table(workload: str, trace: Dict[str, Any]
          ) -> Tuple[float, List[LayerRow], LayerRow]:
    """(wall, layer rows, remainder) of one traced run, in seconds.

    ``solve``: the wall is the summed optimize() time; ``closure``: the
    traced closure's wall; ``serve``: client-seconds (two clients times
    the wall), whose remainder is time a client spent not waiting on a
    reply (mostly the repeat client held back behind the first-sight
    one).
    """
    raw = trace["layers"]
    rows: List[Tuple[str, float]] = []
    if workload in ("solve", "closure"):
        rows += [(name, raw[key]) for name, key in _ENGINE_ROWS]
    if workload == "solve":
        rows.append(("routing.evaluate",
                     raw["routing.evaluate_ms"] * trace["ops"] / 1000.0))
        wall = trace["wall_s"]
    elif workload == "closure":
        rows += [
            ("service.engine", raw["_job_total_s"] - raw["_spans_total_s"]),
            ("service", raw["_batch_total_s"] - raw["_job_total_s"]),
            ("netlist.sta", raw["_sta_total_s"])]
        wall = trace["wall_s"]
    else:
        rows += [
            ("client", raw["_client_total_s"] - raw["_handle_total_s"]),
            ("serve", raw["_handle_total_s"] - raw["_service_total_s"]),
            ("service", raw["_service_total_s"] - raw["_job_total_s"]),
            ("service.engine", raw["_job_total_s"])]
        wall = trace["clients"] * trace["wall_s"]
    layer_rows, rest = layer_table(wall, rows)
    return wall, layer_rows, rest


def per_layer_metrics(workload: str, trace: Dict[str, Any]
                      ) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced run (0 where the
    layer is not on the workload's path)."""
    raw = trace["layers"]
    ops = trace["ops"] if workload == "solve" else 1
    values = {name: 0.0 for name in PER_LAYER}
    for name, value in raw.items():
        if name in values:
            values[name] = value / ops if name in _PER_OP else value
    _, _, rest = table(workload, trace)
    values["trace.unattributed_frac"] = rest.share
    values["trace.overhead_frac"] = overhead_frac(trace["wall_s"],
                                                  trace["untraced_s"])
    return values
