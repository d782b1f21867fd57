"""End-to-end: a workload replayed over HTTP answers what the engine does.

The in-suite (small) version of the ``async-serve-smoke`` CI job: the
same workload goes once through the sharded front end and once straight
into :meth:`OptimizationService.optimize_many`, and every request must
carry the same tree signature both ways.
"""

from __future__ import annotations

from repro.core.config import MerlinConfig
from repro.loadgen import (
    WorkloadSpec,
    check_equivalence,
    compare_signature_maps,
    generate_workload,
    run_workload,
)
from repro.net import net_from_dict
from repro.serve.embedded import EmbeddedAsyncServer
from repro.service import OptimizationService

SPEC = WorkloadSpec(requests=6, distinct_nets=2, min_sinks=2, max_sinks=3,
                    seed=3, twin_fraction=0.3, repeat_fraction=0.3)
SERVICE_KWARGS = dict(config=MerlinConfig.test_preset(), workers=1)


def test_replay_matches_direct_optimize_many():
    workload = generate_workload(SPEC)
    with EmbeddedAsyncServer(shards=2, **SERVICE_KWARGS) as server:
        report = run_workload(server.base_url, workload, concurrency=2)
    counts = report.counts()
    assert counts["ok"] == counts["requests"] == len(workload)
    assert check_equivalence(workload, report) == []

    nets = [net_from_dict(request["body"]["net"])
            for request in workload.requests]
    with OptimizationService(**SERVICE_KWARGS) as service:
        direct = {str(index): result.signature for index, result
                  in enumerate(service.optimize_many(nets))}
    assert compare_signature_maps(direct, report.signature_map()) == []
    assert report.signature_map() == direct
