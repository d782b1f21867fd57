"""Domain-aware static analysis for the MERLIN reproduction.

MERLIN's correctness contract is invariant-driven: non-inferior solution
curves (Definition 6, Lemmas 9/10), bit-identical results across curve
backends and worker counts, and a strict µm/fF/kΩ/ps unit discipline.
``repro.staticcheck`` enforces — *statically*, before code reaches the
warm process pool — the coding patterns those invariants depend on:

* **determinism** — no unseeded module-level ``random`` calls, no
  wall-clock reads in the engine packages, no iteration over bare sets
  feeding order-sensitive construction, no ``id()``/``hash()``-derived
  ordering or keying (the PR-1 hash-randomization bug, as a rule);
* **pool safety** — callables shipped to worker processes must be
  module-level (picklable), and live recorder objects must never be
  captured into worker payloads;
* **numerics** — no exact ``==``/``!=`` between float expressions in
  the curve/engine packages; use the quantized comparators in
  :mod:`repro.units`;
* **layering** — ``core``/``curves``/``geometry``/``tech`` must never
  import ``service``/``cli``/``api``/``bench``, and the module-level
  import graph across ``repro.*`` must stay acyclic;
* **async safety** — no blocking calls inside the serving tier's
  coroutines, no discarded coroutine objects, no unlocked state shared
  between the event loop and shard worker threads;
* **registry contracts** — fault-site, instrument-metric, and
  kernel/ordering string keys must match a real registration on the
  other side of the string.

The engine is stdlib-``ast`` only (no new dependencies) and analyzes
in two phases: per-file facts collected behind a content-hash
incremental cache (``.staticcheck-cache.json``), then whole-program
passes over the merged fact base.  It runs as
``merlin-repro check [--format json] [--rules ...] [paths]``.  Inline
suppressions use ``# staticcheck: ignore[RULE-ID]`` comments; project
defaults live in the ``[tool.staticcheck]`` block of ``pyproject.toml``;
a committed ``staticcheck-baseline.json`` ratchets tolerated findings.
"""

from __future__ import annotations

from repro.staticcheck.config import CheckConfig, load_config
from repro.staticcheck.engine import (
    CheckResult,
    Finding,
    ModuleInfo,
    ProjectRule,
    Rule,
    all_rules,
    collect_modules,
    parse_module,
    register,
    render_json,
    render_text,
    run_check,
)
from repro.staticcheck.facts import FileFacts, ProjectFacts

# Importing the rules package registers every shipped rule.
import repro.staticcheck.rules  # noqa: F401  (import for side effect)

__all__ = [
    "CheckConfig",
    "CheckResult",
    "FileFacts",
    "Finding",
    "ModuleInfo",
    "ProjectFacts",
    "ProjectRule",
    "Rule",
    "all_rules",
    "collect_modules",
    "load_config",
    "main",
    "parse_module",
    "register",
    "render_json",
    "render_text",
    "run_check",
]


def main(argv=None) -> int:
    """Console entry point (also reachable as ``merlin-repro check``)."""
    from repro.staticcheck.cli import run_cli

    return run_cli(argv)
