"""Tests for repro.routing.evaluate — hand-computed Elmore references."""

import pytest

from repro.geometry.point import Point
from repro.net import Net, Sink
from repro.routing.evaluate import evaluate_tree
from repro.routing.tree import (
    BufferNode,
    RoutingTree,
    SinkNode,
    SourceNode,
    SteinerNode,
)
from repro.tech.buffer import Buffer
from repro.tech.delay import LinearGateDelay
from repro.tech.library import make_library
from repro.tech.technology import Technology
from repro.tech.wire import WireParasitics

#: Round-number parasitics so delays are hand-checkable.
TECH = Technology(
    wire=WireParasitics(resistance_per_um=1e-3, capacitance_per_um=0.1),
    buffers=make_library(4),
    gate_delay=LinearGateDelay(),
    driver_resistance=2.0,
    driver_intrinsic=50.0,
)
BUF = Buffer("B", input_cap=5.0, drive_resistance=1.0,
             intrinsic_delay=20.0, area=30.0)


def single_sink_tree(length=100.0, load=10.0, req=1000.0):
    net = Net("n", Point(0, 0),
              (Sink("a", Point(length, 0), load=load, required_time=req),))
    root = SourceNode(Point(0, 0))
    root.add_child(SinkNode(Point(length, 0), 0))
    return net, RoutingTree(net=net, root=root)


class TestSingleWire:
    def test_hand_computed_arrival(self):
        """driver: 50 + 2*(10 + 10) = 90; wire: 0.1*(5 + 10) = 1.5."""
        net, tree = single_sink_tree()
        ev = evaluate_tree(tree, TECH)
        assert ev.driver_load == pytest.approx(20.0)   # 10 fF wire + 10 sink
        assert ev.sink_arrivals[0] == pytest.approx(91.5)
        assert ev.required_time_at_driver == pytest.approx(1000.0 - 91.5)
        assert ev.delay == pytest.approx(91.5)

    def test_zero_length_wire(self):
        net = Net("n", Point(0, 0),
                  (Sink("a", Point(0, 0), load=10.0, required_time=100.0),))
        root = SourceNode(Point(0, 0))
        root.add_child(SinkNode(Point(0, 0), 0))
        ev = evaluate_tree(RoutingTree(net=net, root=root), TECH)
        # Only the driver delay: 50 + 2*10 = 70.
        assert ev.sink_arrivals[0] == pytest.approx(70.0)


class TestBufferedPath:
    def test_buffer_decouples_downstream_load(self):
        """source -> 100um -> buffer -> 100um -> sink."""
        net = Net("n", Point(0, 0),
                  (Sink("a", Point(200, 0), load=10.0, required_time=1000.0),))
        root = SourceNode(Point(0, 0))
        buffer_node = BufferNode(Point(100, 0), BUF)
        root.add_child(buffer_node)
        buffer_node.add_child(SinkNode(Point(200, 0), 0))
        ev = evaluate_tree(RoutingTree(net=net, root=root), TECH)
        # Driver sees wire (10 fF) + buffer input (5 fF) = 15 fF.
        assert ev.driver_load == pytest.approx(15.0)
        # driver 50 + 2*15 = 80; wire1 0.1*(5+5) = 1; buffer 20 + 1*20 = 40
        # (buffer load: 10 fF wire + 10 fF sink); wire2 0.1*(5+10) = 1.5.
        assert ev.sink_arrivals[0] == pytest.approx(80 + 1 + 40 + 1.5)
        assert ev.buffer_count == 1
        assert ev.buffer_area == 30.0

    def test_partial_tree_rooted_at_a_buffer_presents_its_input_cap(self):
        """A partial tree's arrivals start at its root's input, so a root
        buffer presents its input capacitance, not the load it drives."""
        net = Net("n", Point(0, 0),
                  (Sink("a", Point(100, 0), load=10.0, required_time=1000.0),))
        buffer_node = BufferNode(Point(0, 0), BUF)
        buffer_node.add_child(SinkNode(Point(100, 0), 0))
        ev = evaluate_tree(RoutingTree(net=net, root=buffer_node), TECH)
        assert ev.driver_load == pytest.approx(5.0)
        # buffer 20 + 1*(10 + 10) = 40; wire 0.1*(5 + 10) = 1.5.
        assert ev.sink_arrivals[0] == pytest.approx(41.5)


class TestBranching:
    def test_two_branch_steiner(self):
        net = Net("n", Point(0, 0), (
            Sink("a", Point(100, 50), load=10.0, required_time=500.0),
            Sink("b", Point(100, -50), load=20.0, required_time=800.0),
        ))
        root = SourceNode(Point(0, 0))
        steiner = SteinerNode(Point(100, 0))
        root.add_child(steiner)
        steiner.add_child(SinkNode(Point(100, 50), 0))
        steiner.add_child(SinkNode(Point(100, -50), 1))
        ev = evaluate_tree(RoutingTree(net=net, root=root), TECH)
        # Trunk load: 10 (wire) + [5 + 10] + [5 + 20] = 50 fF.
        assert ev.driver_load == pytest.approx(50.0)
        # Arrivals differ only in the leaf wires' Elmore terms.
        trunk = 50 + 2 * 50 + 0.1 * (5 + 40)
        assert ev.sink_arrivals[0] == pytest.approx(trunk + 0.05 * (2.5 + 10))
        assert ev.sink_arrivals[1] == pytest.approx(trunk + 0.05 * (2.5 + 20))
        # Required time limited by the tighter sink (a).
        assert ev.required_time_at_driver == pytest.approx(
            500.0 - ev.sink_arrivals[0])

    def test_missing_sink_detected(self):
        net = Net("n", Point(0, 0), (
            Sink("a", Point(100, 0), load=10.0, required_time=500.0),
            Sink("b", Point(0, 100), load=10.0, required_time=500.0),
        ))
        root = SourceNode(Point(0, 0))
        root.add_child(SinkNode(Point(100, 0), 0))
        with pytest.raises(ValueError, match="does not reach"):
            evaluate_tree(RoutingTree(net=net, root=root), TECH)


class TestDriverOverrides:
    def test_net_driver_params_override_technology(self):
        net, tree = single_sink_tree()
        strong = Net(net.name, net.source, net.sinks,
                     driver_resistance=0.5, driver_intrinsic=10.0)
        fast = evaluate_tree(RoutingTree(net=strong, root=tree.root), TECH)
        slow = evaluate_tree(tree, TECH)
        assert fast.sink_arrivals[0] < slow.sink_arrivals[0]

    def test_delay_is_max_req_minus_driver_req(self):
        net, tree = single_sink_tree()
        ev = evaluate_tree(tree, TECH)
        assert ev.delay == pytest.approx(
            net.max_required_time - ev.required_time_at_driver)
