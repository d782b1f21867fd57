"""Tests for repro.netlist.flow_runner (the Table 2 harness core)."""

import pytest

from repro.baselines.flows import FLOW_I, FLOW_II
from repro.core.config import MerlinConfig
from repro.netlist.flow_runner import run_circuit_flow
from repro.netlist.generator import CircuitSpec, generate_circuit
from repro.tech.technology import default_technology

TECH = default_technology()
CFG = MerlinConfig.test_preset()
SPEC = CircuitSpec(name="runner", primary_inputs=4, primary_outputs=3,
                   logic_gates=12, levels=3, max_fanout=4, seed=3)


@pytest.fixture(scope="module")
def flow2_result():
    return run_circuit_flow(generate_circuit(SPEC), FLOW_II, TECH, CFG)


class TestRunCircuitFlow:
    def test_optimizes_every_multi_sink_net(self, flow2_result):
        circuit = generate_circuit(SPEC)
        multi = sum(1 for n in circuit.nets if len(n.sinks) >= 2)
        assert flow2_result.nets_optimized == multi

    def test_total_area_is_gates_plus_buffers(self, flow2_result):
        circuit = generate_circuit(SPEC)
        assert flow2_result.total_area == pytest.approx(
            circuit.gate_area + flow2_result.buffer_area)

    def test_per_net_results_validated_trees(self, flow2_result):
        from repro.routing.validate import validate_tree

        assert flow2_result.per_net
        for result in flow2_result.per_net.values():
            validate_tree(result.tree)

    def test_critical_delay_positive_and_finite(self, flow2_result):
        assert 0.0 < flow2_result.critical_delay < 1e9

    def test_final_sta_uses_optimized_delays(self, flow2_result):
        """Buffered routing must beat the crude star estimates."""
        circuit = generate_circuit(SPEC)
        from repro.netlist.placement import place_netlist
        from repro.netlist.sta import run_sta

        place_netlist(circuit)
        baseline = run_sta(circuit, TECH)
        assert flow2_result.critical_delay < baseline.critical_delay

    def test_min_sinks_filter(self):
        result = run_circuit_flow(generate_circuit(SPEC), FLOW_II, TECH,
                                  CFG, min_sinks=1000)
        assert result.nets_optimized == 0

    def test_flow1_also_runs(self):
        result = run_circuit_flow(generate_circuit(SPEC), FLOW_I, TECH, CFG)
        assert result.nets_optimized > 0
        assert result.flow == FLOW_I
