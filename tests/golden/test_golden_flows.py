"""Golden-regression tests for the circuit-level harnesses.

Pins the exact outputs of :func:`repro.netlist.flow_runner.
run_circuit_flow` (the Table 2 core) and :func:`repro.pipeline.
run_closure` (the timing-closure driver) on seeded fixture circuits:
post-layout critical delay, total/buffer area, per-net tree signatures,
and — for closure — the iteration trajectory.  Any behavior change in
placement, STA, the per-net objective derivation, the service plumbing,
or the engine itself shows up as a golden diff.

To regenerate after an *intended* behavior change::

    PYTHONPATH=src python tests/golden/test_golden_flows.py

then review the diff of ``goldens_flows.json`` like any other code
change.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.baselines.flows import FLOW_II, FLOW_III
from repro.core.config import MerlinConfig
from repro.netlist.flow_runner import run_circuit_flow
from repro.netlist.generator import CircuitSpec, generate_circuit
from repro.pipeline import ClosureConfig, run_closure
from repro.routing.export import tree_signature
from repro.tech.technology import default_technology

GOLDENS_PATH = os.path.join(os.path.dirname(__file__), "goldens_flows.json")

TECH = default_technology()
CFG = MerlinConfig.test_preset()

#: Seeded fixture circuits (small enough that the full suite stays in
#: CI-smoke territory, distinct from the learned ranker's training set).
SPECS = {
    "flows_a": CircuitSpec(name="flows_a", primary_inputs=4,
                           primary_outputs=3, logic_gates=12, levels=3,
                           max_fanout=4, seed=3),
    "flows_b": CircuitSpec(name="flows_b", primary_inputs=5,
                           primary_outputs=4, logic_gates=16, levels=4,
                           max_fanout=5, seed=21),
}

#: (case name, spec key, flow) for the run_circuit_flow goldens.
FLOW_CASES = (
    ("flow2_a", "flows_a", FLOW_II),
    ("flow3_a", "flows_a", FLOW_III),
    ("flow3_b", "flows_b", FLOW_III),
)

#: (case name, spec key, order, batch) for the closure goldens.
CLOSURE_CASES = (
    ("closure_a_crit", "flows_a", "criticality", None),
    ("closure_b_crit_batch2", "flows_b", "criticality", 2),
    ("closure_b_fanout", "flows_b", "fanout", None),
)


def _run_flow_case(spec_key: str, flow: str) -> dict:
    result = run_circuit_flow(generate_circuit(SPECS[spec_key]), flow,
                              TECH, CFG)
    return {
        "critical_delay": result.critical_delay,
        "total_area": result.total_area,
        "buffer_area": result.buffer_area,
        "nets_optimized": result.nets_optimized,
        "signatures": {name: tree_signature(r.tree)
                       for name, r in sorted(result.per_net.items())},
    }


def _run_closure_case(spec_key: str, order: str, batch) -> dict:
    result = run_closure(
        generate_circuit(SPECS[spec_key]), config=CFG, workers=1,
        closure=ClosureConfig(order=order, batch_size=batch))
    return {
        "converged": result.converged,
        "iterations": result.iterations_to_converge,
        "estimate_delay": result.estimate_delay,
        "critical_delay": result.critical_delay,
        "worst_slack": result.worst_slack,
        "buffer_area": result.buffer_area,
        "nets_optimized": result.nets_optimized,
        "delay_trajectory": [it.critical_delay
                             for it in result.iterations],
        "signatures": result.signatures(),
    }


def _load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name,spec_key,flow", FLOW_CASES,
                         ids=[c[0] for c in FLOW_CASES])
def test_circuit_flow_matches_golden(name, spec_key, flow):
    golden = _load_goldens()[name]
    actual = _run_flow_case(spec_key, flow)
    assert actual["signatures"] == golden["signatures"]
    assert actual["nets_optimized"] == golden["nets_optimized"]
    assert actual["critical_delay"] == pytest.approx(
        golden["critical_delay"], rel=1e-9)
    assert actual["total_area"] == pytest.approx(
        golden["total_area"], rel=1e-9)
    assert actual["buffer_area"] == pytest.approx(
        golden["buffer_area"], rel=1e-9)


@pytest.mark.parametrize("name,spec_key,order,batch", CLOSURE_CASES,
                         ids=[c[0] for c in CLOSURE_CASES])
def test_closure_matches_golden(name, spec_key, order, batch):
    golden = _load_goldens()[name]
    actual = _run_closure_case(spec_key, order, batch)
    assert actual["signatures"] == golden["signatures"]
    assert actual["converged"] == golden["converged"]
    assert actual["iterations"] == golden["iterations"]
    assert actual["nets_optimized"] == golden["nets_optimized"]
    assert actual["delay_trajectory"] == pytest.approx(
        golden["delay_trajectory"], rel=1e-9)
    for scalar in ("estimate_delay", "critical_delay", "worst_slack",
                   "buffer_area"):
        assert actual[scalar] == pytest.approx(golden[scalar], rel=1e-9)


def test_goldens_cover_all_cases():
    goldens = _load_goldens()
    expected = [c[0] for c in FLOW_CASES] + [c[0] for c in CLOSURE_CASES]
    assert sorted(goldens) == sorted(expected)


def regenerate() -> None:
    goldens = {}
    for name, spec_key, flow in FLOW_CASES:
        goldens[name] = _run_flow_case(spec_key, flow)
        print(f"regenerated {name}")
    for name, spec_key, order, batch in CLOSURE_CASES:
        goldens[name] = _run_closure_case(spec_key, order, batch)
        print(f"regenerated {name}")
    with open(GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDENS_PATH}")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))
    regenerate()
