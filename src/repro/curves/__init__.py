"""Three-dimensional non-inferior solution curves.

Every dynamic-programming table in the library stores, per candidate root
location, a *solution curve*: the set of non-inferior
``(load, required time, total buffer area)`` triples of partial buffered
routing structures (Figure 8 of the paper).  A solution σ2 is *inferior* to
σ1 iff σ1 is no worse on all three axes (Definition 6); pruning inferior
solutions preserves optimality (Lemma 9) and, once loads and areas are
quantized to pseudo-polynomially many buckets, bounds every curve to
O(n·m·q) entries (Lemma 10).

The load and required-time axes make the principle of dynamic programming
valid (a sub-solution's interaction with the rest of the tree is fully
captured by its root load and required time); the area axis supports both
problem variants (max required time under an area budget, min area over a
required-time floor).
"""

from repro.curves.solution import (
    Solution,
    SinkLeaf,
    Extend,
    Join,
    Buffered,
    DriverArm,
    sink_leaf_solution,
    check_solution,
)
from repro.curves.curve import BACKENDS, CurveConfig, SolutionCurve
from repro.curves.kernels import PendingCurve
from repro.curves.contract import numpy_available
from repro.curves.ops import extend_curve, join_curves, buffered_options

__all__ = [
    "BACKENDS",
    "PendingCurve",
    "numpy_available",
    "Solution",
    "SinkLeaf",
    "Extend",
    "Join",
    "Buffered",
    "DriverArm",
    "sink_leaf_solution",
    "check_solution",
    "CurveConfig",
    "SolutionCurve",
    "extend_curve",
    "join_curves",
    "buffered_options",
]
