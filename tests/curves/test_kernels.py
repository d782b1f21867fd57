"""Unit tests for the deferred curve kernels (the ``"numpy"`` backend).

The contract under test is *bit-identity*: every kernel must reproduce
the python backend's results exactly — same surviving solutions, same
bucket keys, same dict insertion order — so the engine's output is
independent of ``CurveConfig.backend``.  Golden regressions cover the
end-to-end engine; these tests pin the individual kernels against their
``SolutionCurve`` references on adversarial random batches.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import tracemalloc

import pytest

from repro.core.bubble_construct import bubble_construct, make_context
from repro.core.config import MerlinConfig
from repro.curves import kernels
from repro.curves.curve import CurveConfig, SolutionCurve
from repro.curves.solution import Join, SinkLeaf, Solution
from repro.experiments.nets import make_experiment_net
from repro.geometry.point import Point
from repro.orders.order import Order
from repro.tech.technology import default_technology

P = Point(0, 0)


def _random_solutions(rng, n, span=30):
    """Integer-valued attributes force heavy bucket collisions."""
    return [
        Solution(P, float(rng.randint(0, span)),
                 float(rng.randint(-span, span)),
                 float(rng.randint(0, span)), SinkLeaf(i))
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# Backend names
# ----------------------------------------------------------------------

def test_unknown_backend_rejected_by_config():
    with pytest.raises(ValueError, match="unknown backend"):
        CurveConfig(backend="fortran")


# ----------------------------------------------------------------------
# PendingCurve vs SolutionCurve (deferred materialization)
# ----------------------------------------------------------------------

def _scalar_join(curve: SolutionCurve, lefts, rights) -> None:
    """The python backend's join loop (left-major), verbatim."""
    for left in lefts:
        for right in rights:
            load = left.load + right.load
            req = min(left.required_time, right.required_time)
            area = left.area + right.area
            key = curve.accept_key(load, req, area)
            if key is not None:
                curve.add_keyed(key, Solution(curve.root, load, req, area,
                                              Join(left, right)))


def _contents(curve: SolutionCurve):
    return [(key, s.load, s.required_time, s.area)
            for key, s in curve._by_bucket.items()]


@pytest.mark.parametrize("n_left,n_right", [(3, 4), (14, 13), (25, 24)])
def test_pending_join_matches_scalar(n_left, n_right):
    """From a handful of pairs up to hundreds, as the DP's joins run."""
    rng = random.Random(n_left * 100 + n_right)
    lefts = _random_solutions(rng, n_left)
    rights = _random_solutions(rng, n_right)
    config = CurveConfig(load_step=2.0, area_step=3.0, max_solutions=24,
                         backend="python")

    scalar = SolutionCurve(P, config)
    _scalar_join(scalar, lefts, rights)
    scalar.prune()

    pending = kernels.PendingCurve(P, config)
    kernels.pending_join(pending, lefts, rights)
    pending.prune()

    assert _contents(pending.to_solution_curve()) == _contents(scalar)


@pytest.mark.parametrize("n", [5, 80, 300])
def test_pending_extend_and_prune_match_scalar(n):
    rng = random.Random(n)
    sols = _random_solutions(rng, n)
    config = CurveConfig(load_step=2.0, area_step=3.0, max_solutions=16,
                         backend="python")

    scalar = SolutionCurve(P, config)
    for s in sols:
        scalar.add(s)
    scalar.prune()

    pending = kernels.PendingCurve(P, config)
    pending.extend(sols)
    pending.prune()

    assert _contents(pending.to_solution_curve()) == _contents(scalar)
    # Materialized survivors are the scalar backend's actual solutions.
    assert pending.solutions == scalar.solutions


def test_pending_prune_records_instrumentation():
    from repro.instrument import Recorder, names as metric
    from repro.instrument.recorder import use_recorder

    rng = random.Random(9)
    pending = kernels.PendingCurve(
        P, CurveConfig(load_step=1.0, area_step=1.0, max_solutions=8))
    rec = Recorder()
    with use_recorder(rec):
        pending.extend(_random_solutions(rng, 120))
        pending.prune()
    assert rec.counter(metric.CURVE_PRUNE_CALLS) == 1
    assert rec.counter(metric.CURVE_PRUNE_REMOVED) >= 0


# ----------------------------------------------------------------------
# Memory: frozen blocks hold what the python backend's lists hold
# ----------------------------------------------------------------------

def _config(backend: str) -> MerlinConfig:
    config = MerlinConfig()
    return config.with_(
        curve=dataclasses.replace(config.curve, backend=backend))


def _context_bytes(backend: str, net, tech) -> int:
    """Traced bytes a :class:`PTreeContext` still holds (its Γ, range
    and sink memos) after one BUBBLE_CONSTRUCT, once garbage is gone."""
    config = _config(backend)
    order = Order.identity(len(net))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        context = make_context(net, tech, config)
        bubble_construct(net, order, tech, config, context=context)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert context.gamma_memo  # the memos under measurement exist
    return retained


def test_numpy_context_retains_about_what_python_does():
    """Frozen deferred blocks keep only their survivors, never the batch
    contexts their entries pointed into."""
    tech = default_technology()
    net = make_experiment_net("mem2", 3, seed=2)
    for backend in ("python", "numpy"):  # warm one-time caches
        bubble_construct(net, Order.identity(len(net)), tech,
                         _config(backend))
    python_bytes = _context_bytes("python", net, tech)
    numpy_bytes = _context_bytes("numpy", net, tech)
    assert numpy_bytes <= 1.5 * python_bytes, (numpy_bytes, python_bytes)
