"""Apply one experimental flow to every multi-sink net of a circuit.

This is the Table 2 harness core: place the circuit, derive per-sink
required times from a pre-optimization STA (star-topology estimates, zero
worst slack), optimize every multi-sink net with the chosen flow, then
re-run STA with the optimized trees' exact per-sink delays and report the
post-layout circuit delay and area — the quantities the paper's Table 2
tabulates per circuit and flow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baselines.flows import FlowResult, run_flow
from repro.core.config import MerlinConfig
from repro.core.objective import Objective
from repro.net import Net, Sink
from repro.netlist.netlist import CircuitNet, Netlist
from repro.netlist.placement import place_netlist
from repro.netlist.sta import StaResult, run_sta, star_net_delay

@dataclass
class CircuitFlowResult:
    """Post-layout metrics of one circuit optimized with one flow."""

    circuit: str
    flow: str
    #: STA critical delay with the optimized nets' exact delays (ps).
    critical_delay: float
    #: Gate area + inserted buffer area (um^2).
    total_area: float
    buffer_area: float
    runtime_s: float
    nets_optimized: int
    #: Total MERLIN loops across nets (1 per net for sequential flows).
    total_loops: int
    sta: StaResult
    per_net: Dict[str, FlowResult] = field(default_factory=dict)


def run_circuit_flow(netlist: Netlist, flow: str, tech,
                     config: Optional[MerlinConfig] = None,
                     objective: Optional[Objective] = None,
                     min_sinks: int = 2,
                     target_scale: float = 0.88) -> CircuitFlowResult:
    """Run ``flow`` over every net of ``netlist`` with >= ``min_sinks`` sinks.

    Timing-closure setup: required times are derived from a pre-
    optimization STA whose target is ``target_scale`` times the estimated
    critical delay — the circuit is deliberately over-constrained, the
    standard way to make optimizers *improve* delay rather than merely
    meet it.  When no explicit ``objective`` is given, each net is then
    optimized to *meet its (tightened) timing with minimum buffer area*:
    slack-rich nets get few or no buffers, critical-cone nets cannot meet
    the floor and fall back to their best achievable required time, so
    buffer area concentrates exactly where delay improves.
    """
    config = config or MerlinConfig()
    if not 0.0 < target_scale <= 1.0:
        raise ValueError("target_scale must be in (0, 1]")
    start = time.perf_counter()
    place_netlist(netlist)
    estimate = run_sta(netlist, tech)
    baseline_sta = run_sta(netlist, tech,
                           target=target_scale * estimate.critical_delay)
    star_delay = star_net_delay(netlist, tech)

    selected: List[CircuitNet] = [
        net for net in netlist.nets if len(net.sinks) >= min_sinks]
    jobs = [_to_routing_net(netlist, net, baseline_sta) for net in selected]
    objectives = [
        objective if objective is not None else Objective.min_area(
            required_time_floor=baseline_sta.arrival[net.driver])
        for net in selected]

    per_net: Dict[str, FlowResult] = {}
    total_loops = 0
    for circuit_net, net, net_objective in zip(selected, jobs, objectives):
        result = run_flow(flow, net, tech, config=config,
                          objective=net_objective)
        per_net[circuit_net.name] = result
        total_loops += result.loops

    def optimized_delay(net: CircuitNet, sink_name: str) -> float:
        result = per_net.get(net.name)
        if result is None:
            return star_delay(net, sink_name)
        sink_index = net.sinks.index(sink_name)
        return result.evaluation.sink_arrivals[sink_index]

    final_sta = run_sta(netlist, tech, net_delay=optimized_delay)
    buffer_area = sum(r.evaluation.buffer_area for r in per_net.values())
    runtime = time.perf_counter() - start
    return CircuitFlowResult(
        circuit=netlist.name,
        flow=flow,
        critical_delay=final_sta.critical_delay,
        total_area=netlist.gate_area + buffer_area,
        buffer_area=buffer_area,
        runtime_s=runtime,
        nets_optimized=len(per_net),
        total_loops=total_loops,
        sta=final_sta,
        per_net=per_net,
    )


def _to_routing_net(netlist: Netlist, circuit_net: CircuitNet,
                    sta: StaResult) -> Net:
    """Build the per-net optimization problem from circuit context."""
    driver = netlist.gates[circuit_net.driver]
    sinks = []
    for sink_name in circuit_net.sinks:
        gate = netlist.gates[sink_name]
        sinks.append(Sink(
            name=sink_name,
            position=gate.position,
            load=gate.cell.input_cap,
            required_time=sta.required[sink_name],
        ))
    return Net(
        name=circuit_net.name,
        source=driver.position,
        sinks=tuple(sinks),
        driver_resistance=driver.cell.drive_resistance,
        driver_intrinsic=driver.cell.intrinsic_delay,
    )
