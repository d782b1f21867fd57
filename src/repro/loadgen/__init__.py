"""Seeded load generation and replay for the serving tier.

Two pieces, composable from the CLI (``merlin-repro loadgen``), from
tests, and from CI:

* :mod:`repro.loadgen.workload` — :class:`WorkloadSpec` /
  :func:`generate_workload` / ``save_workload``/``load_workload``:
  deterministic request lists (fresh nets, verbatim repeats, and
  renamed/translated cache-equivalent twins) that record to JSON and
  replay byte-identically;
* :mod:`repro.loadgen.harness` — :func:`run_workload` drives any v1
  front end through :class:`repro.client.MerlinClient` and yields a
  :class:`LoadReport` (p50/p95/p99, histogram, per-second trend,
  throughput), :func:`write_bench_serve` freezes it into
  ``BENCH_serve.json``, :func:`check_equivalence` asserts one signature
  per cache-equivalence class.
"""

from repro.loadgen.harness import (
    LoadReport,
    RequestOutcome,
    build_bench_serve,
    check_equivalence,
    compare_signature_maps,
    percentile,
    render_trend,
    run_workload,
    write_bench_serve,
)
from repro.loadgen.workload import (
    Workload,
    WorkloadSpec,
    generate_workload,
    load_workload,
    resolve_workload,
    save_workload,
)

__all__ = [
    "LoadReport",
    "RequestOutcome",
    "Workload",
    "WorkloadSpec",
    "build_bench_serve",
    "check_equivalence",
    "compare_signature_maps",
    "generate_workload",
    "load_workload",
    "percentile",
    "render_trend",
    "resolve_workload",
    "run_workload",
    "save_workload",
    "write_bench_serve",
]
