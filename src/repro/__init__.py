"""MERLIN reproduction: hierarchical buffered routing tree generation.

A from-scratch Python implementation of *"MERLIN: Semi-Order-Independent
Hierarchical Buffered Routing Tree Generation Using Local Neighborhood
Search"* (Salek, Lou, Pedram — DAC 1999), together with every substrate the
paper's evaluation depends on: the P-Tree router of Lillis et al., Touati's
LT-Tree fanout optimization, van Ginneken buffer insertion, an Elmore/
4-parameter timing model, a synthetic 0.35um buffer library, and a
netlist/STA/placement flow for the circuit-level experiment.

Quick start::

    from repro import Net, Sink, Point, optimize

    net = Net("demo", source=Point(0, 0), sinks=(
        Sink("a", Point(900, 300), load=12.0, required_time=900.0),
        Sink("b", Point(300, 1200), load=20.0, required_time=880.0),
    ))
    outcome = optimize(net)
    print(outcome.tree.buffer_area, outcome.iterations)

:func:`optimize` is the facade over every execution path (single run,
multi-start restarts, the cached batch service); ``merlin()`` remains
the bare deterministic engine underneath it.

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro.geometry.point import Point
from repro.net import Net, Sink, make_net
from repro.tech.technology import Technology, default_technology
from repro.core.config import MerlinConfig
from repro.core.objective import Objective
from repro.core.merlin import MerlinResult, merlin
from repro.core.bubble_construct import BubbleConstructResult, bubble_construct
from repro.routing.evaluate import TreeEvaluation, evaluate_tree
from repro.routing.tree import RoutingTree
from repro.instrument import NullRecorder, Recorder, use_recorder
from repro.resilience import (
    ComputeBudget,
    FaultPlan,
    MerlinError,
    MerlinInputError,
    MerlinInternalError,
    MerlinResourceError,
)
from repro.api import OptimizeOutcome, optimize
from repro.service import (
    OptimizationService,
    ResultCache,
    ServiceResult,
)

__version__ = "1.3.0"

__all__ = [
    "Point",
    "Net",
    "Sink",
    "make_net",
    "Technology",
    "default_technology",
    "MerlinConfig",
    "Objective",
    "MerlinResult",
    "merlin",
    "BubbleConstructResult",
    "bubble_construct",
    "TreeEvaluation",
    "evaluate_tree",
    "RoutingTree",
    "Recorder",
    "NullRecorder",
    "use_recorder",
    "ComputeBudget",
    "FaultPlan",
    "MerlinError",
    "MerlinInputError",
    "MerlinResourceError",
    "MerlinInternalError",
    "optimize",
    "OptimizeOutcome",
    "OptimizationService",
    "ServiceResult",
    "ResultCache",
    "__version__",
]
