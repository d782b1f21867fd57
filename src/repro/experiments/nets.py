"""The Table 1 net suite.

The paper extracts 18 nets from mapped ISCAS-85 circuits; sink loads and
required times come from technology mapping, and sink positions are drawn
randomly inside a bounding box sized so the interconnect delay roughly
equals a gate delay.  The mapped circuits are not available offline, so
this module generates 18 seeded nets with the same circuit/net naming, the
same bounding-box sizing rule, mapping-plausible load and required-time
spreads, and sink counts scaled down from the paper's 9–73 to 5–12
(DESIGN.md substitution #1 — the pure-Python DP is O(n⁴...); the
comparison shape, not the absolute scale, is the reproduction target).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import units
from repro.geometry.point import Point
from repro.net import Net, Sink

#: (source circuit, net name, paper sink count, scaled sink count)
TABLE1_NET_SPECS: Tuple[Tuple[str, str, int, int], ...] = (
    ("C432", "net1", 16, 8),
    ("C432", "net2", 16, 8),
    ("C432", "net3", 10, 6),
    ("C1355", "net4", 9, 5),
    ("C1355", "net5", 9, 5),
    ("C1355", "net6", 13, 7),
    ("C3540", "net7", 12, 6),
    ("C3540", "net8", 35, 10),
    ("C3540", "net9", 73, 12),
    ("C5315", "net10", 49, 10),
    ("C5315", "net11", 21, 8),
    ("C5315", "net12", 50, 10),
    ("C6288", "net13", 16, 8),
    ("C6288", "net14", 20, 8),
    ("C6288", "net15", 60, 11),
    ("C7552", "net16", 12, 6),
    ("C7552", "net17", 16, 8),
    ("C7552", "net18", 23, 9),
)


@dataclass(frozen=True)
class ExperimentNet:
    """One Table 1 workload item."""

    circuit: str
    net: Net
    paper_sinks: int

    @property
    def name(self) -> str:
        return self.net.name

    @property
    def sinks(self) -> int:
        return len(self.net)


def make_experiment_net(name: str, n_sinks: int, seed: int,
                        box_side: Optional[float] = None) -> Net:
    """Generate one seeded net with the paper's sizing rule.

    * Sink positions uniform in a box whose side defaults to
      ``GATE_EQUIVALENT_BOX_SIDE * sqrt(n/8)`` — larger nets get more area,
      keeping wire delay per net comparable to a gate delay.
    * Loads log-uniform over 4–45 fF (mapped-pin-like spread).
    * Required times normal around a net-specific mean with ~15% spread —
      mapped nets see sinks at different logic depths.
    * The driver sits on the box's lower-left corner region, like a cell
      driving a fanout cone placed ahead of it.
    """
    rng = random.Random(seed)
    if box_side is None:
        box_side = units.GATE_EQUIVALENT_BOX_SIDE * math.sqrt(n_sinks / 8.0)
    base_required = rng.uniform(750.0, 1150.0)
    sinks: List[Sink] = []
    for i in range(n_sinks):
        load = math.exp(rng.uniform(math.log(4.0), math.log(45.0)))
        required = rng.gauss(base_required, 0.15 * base_required)
        sinks.append(Sink(
            name=f"{name}_s{i}",
            position=Point(rng.uniform(0.0, box_side),
                           rng.uniform(0.0, box_side)),
            load=load,
            required_time=required,
        ))
    source = Point(rng.uniform(0.0, 0.15 * box_side),
                   rng.uniform(0.0, 0.15 * box_side))
    return Net(name=name, source=source, sinks=tuple(sinks))


def table1_nets(quick: bool = False, seed: int = 1999) -> List[ExperimentNet]:
    """The 18-net Table 1 suite (or a 6-net quick subset).

    ``seed`` offsets every net's generator seed, so alternative suites for
    robustness checks are one argument away.  The quick subset is every
    third net of the full suite, each seeded by its index there, so a
    quick net equals the full-suite net of the same name.
    """
    nets = []
    for index, (circuit, net_name, paper_n, scaled_n) in \
            enumerate(TABLE1_NET_SPECS):
        if quick and index % 3:
            continue
        net = make_experiment_net(
            name=net_name,
            n_sinks=scaled_n,
            seed=seed + 7919 * index,
        )
        nets.append(ExperimentNet(circuit=circuit, net=net,
                                  paper_sinks=paper_n))
    return nets
