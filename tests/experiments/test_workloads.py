"""Tests for the experiment workload generators (nets and circuits)."""

import math

import pytest

from repro import units
from repro.experiments.circuits import TABLE2_CIRCUIT_SHAPES, table2_circuits
from repro.experiments.nets import (
    TABLE1_NET_SPECS,
    make_experiment_net,
    table1_nets,
)


class TestTable1Nets:
    def test_eighteen_nets_with_paper_names(self):
        nets = table1_nets()
        assert len(nets) == 18
        assert nets[0].circuit == "C432" and nets[0].name == "net1"
        assert nets[-1].circuit == "C7552" and nets[-1].name == "net18"

    def test_quick_subset(self):
        assert len(table1_nets(quick=True)) == 6

    def test_quick_nets_are_the_full_suites_nets(self):
        full = table1_nets()
        for k, item in enumerate(table1_nets(quick=True)):
            assert item.name == full[3 * k].name
            assert item.net == full[3 * k].net

    def test_sink_counts_scale_with_paper(self):
        """Scaled counts preserve the paper's size ordering (roughly)."""
        specs = list(TABLE1_NET_SPECS)
        for _, _, paper_n, scaled_n in specs:
            assert 5 <= scaled_n <= 12
            assert scaled_n <= paper_n
        biggest = max(specs, key=lambda s: s[2])
        assert biggest[3] == max(s[3] for s in specs)

    def test_deterministic_in_seed(self):
        a = table1_nets(seed=5)[0].net
        b = table1_nets(seed=5)[0].net
        c = table1_nets(seed=6)[0].net
        assert a.sinks == b.sinks
        assert a.sinks != c.sinks

    def test_box_sizing_rule(self):
        """Wire delay across the box ~ gate delay (paper's setup)."""
        net = make_experiment_net("x", 8, seed=1)
        box = net.bounding_box
        side = max(box.width, box.height)
        assert side == pytest.approx(units.GATE_EQUIVALENT_BOX_SIDE,
                                     rel=0.35)

    def test_loads_in_mapped_pin_range(self):
        for item in table1_nets():
            for sink in item.net.sinks:
                assert 4.0 <= sink.load <= 45.0

    def test_required_times_spread(self):
        net = make_experiment_net("x", 10, seed=3)
        reqs = [s.required_time for s in net.sinks]
        assert max(reqs) > min(reqs)  # sinks differ in criticality


class TestTable2Circuits:
    def test_fifteen_paper_names(self):
        circuits = table2_circuits()
        names = [c.name for c in circuits]
        assert len(names) == 15
        for expected in ("C1355", "C6288", "dalu", "k2", "t481"):
            assert expected in names

    def test_quick_subset(self):
        assert len(table2_circuits(quick=True)) == 4

    def test_shapes_match_specs(self):
        circuits = table2_circuits()
        by_name = {c.name: c for c in circuits}
        for name, gates, _, pis, pos in TABLE2_CIRCUIT_SHAPES:
            circuit = by_name[name]
            assert len(circuit.logic_gates) == gates
            assert len(circuit.primary_inputs) == pis
            assert len(circuit.primary_outputs) == pos

    def test_all_acyclic(self):
        for circuit in table2_circuits():
            circuit.topological_gates()

    def test_deterministic(self):
        a = table2_circuits(seed=3)[0]
        b = table2_circuits(seed=3)[0]
        assert [n.sinks for n in a.nets] == [n.sinks for n in b.nets]
