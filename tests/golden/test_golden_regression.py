"""Golden-regression tests: pin the exact engine output on fixed nets.

Each case runs the full ``merlin()`` engine on a small seeded net with
the deterministic ``test_preset`` configuration and compares the result
against a checked-in golden: exact tree topology (via
:func:`repro.routing.export.tree_signature`), buffer count, total buffer
area, wire length, objective value, and the convergence trace.  Any
behavior change — intended or not — shows up as a golden diff, which is
what makes perf refactors provably behavior-preserving.

To regenerate after an *intended* behavior change::

    PYTHONPATH=src python tests/golden/test_golden_regression.py

then review the diff of ``goldens.json`` like any other code change.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

from repro.core.config import MerlinConfig
from repro.core.merlin import merlin
from repro.core.objective import Objective
from repro.routing.export import tree_signature
from repro.tech.technology import default_technology

sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from conftest import build_net  # noqa: E402

GOLDENS_PATH = os.path.join(os.path.dirname(__file__), "goldens.json")

#: (name, sinks, seed) — small enough to stay fast, varied enough to
#: exercise single-level, multi-level, and bubbling-active hierarchies.
CASES = (
    ("golden_3s", 3, 11),
    ("golden_4s", 4, 42),
    ("golden_5s", 5, 5),
    ("golden_6s", 6, 7),
)

#: Both curve-kernel backends must reproduce the same goldens — the
#: bit-identity contract of the deferred kernels.
BACKENDS = ("python", "numpy")


def _run_case(name: str, sinks: int, seed: int,
              backend: str = "python") -> dict:
    net = build_net(sinks, seed=seed, name=name)
    tech = default_technology()
    config = MerlinConfig.test_preset()
    config = config.with_(curve=dataclasses.replace(
        config.curve, backend=backend))
    objective = Objective.max_required_time()
    result = merlin(net, tech, config=config, objective=objective)
    return {
        "signature": tree_signature(result.tree),
        "buffer_count": len(result.tree.buffer_nodes),
        "buffer_area": result.tree.buffer_area,
        "wire_length": result.tree.wire_length,
        "objective_cost": objective.cost(result.best.solution),
        "iterations": result.iterations,
        "converged": result.converged,
        "cost_trace": list(result.cost_trace),
        "final_order": list(result.best.order_out.seq),
    }


def _load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name,sinks,seed", CASES,
                         ids=[c[0] for c in CASES])
def test_merlin_matches_golden(name: str, sinks: int, seed: int,
                               backend: str):
    golden = _load_goldens()[name]
    actual = _run_case(name, sinks, seed, backend=backend)

    # Exact structural facts first — these give the sharpest diffs.
    assert actual["signature"] == golden["signature"]
    assert actual["buffer_count"] == golden["buffer_count"]
    assert actual["iterations"] == golden["iterations"]
    assert actual["converged"] == golden["converged"]
    assert actual["final_order"] == golden["final_order"]

    # Scalars: tight relative tolerance absorbs libm variation across
    # platforms while still catching any real behavior change.
    assert actual["buffer_area"] == pytest.approx(
        golden["buffer_area"], rel=1e-9)
    assert actual["wire_length"] == pytest.approx(
        golden["wire_length"], rel=1e-9)
    assert actual["objective_cost"] == pytest.approx(
        golden["objective_cost"], rel=1e-9)
    assert actual["cost_trace"] == pytest.approx(
        golden["cost_trace"], rel=1e-9)


def test_goldens_cover_all_cases():
    goldens = _load_goldens()
    assert sorted(goldens) == sorted(c[0] for c in CASES)


def test_instrumentation_does_not_change_goldens():
    """Recording must be pure observation: a fully instrumented run
    produces bit-identical trees and costs (acceptance criterion)."""
    from repro.instrument import Recorder

    name, sinks, seed = CASES[1]
    golden = _load_goldens()[name]
    net = build_net(sinks, seed=seed, name=name)
    config = MerlinConfig.test_preset().with_(recorder=Recorder())
    result = merlin(net, default_technology(), config=config,
                    objective=Objective.max_required_time())
    assert tree_signature(result.tree) == golden["signature"]
    assert result.cost_trace == pytest.approx(golden["cost_trace"],
                                              rel=1e-12)


def regenerate() -> None:
    goldens = {name: _run_case(name, sinks, seed)
               for name, sinks, seed in CASES}
    with open(GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDENS_PATH} ({len(goldens)} cases)")


if __name__ == "__main__":
    regenerate()
