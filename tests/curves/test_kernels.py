"""Unit tests for the vectorized curve kernels (numpy backend).

The contract under test is *bit-identity*: every kernel must reproduce
the scalar backend's results exactly — same surviving solutions, same
bucket keys, same dict insertion order — so the engine's output is
independent of ``CurveConfig.backend``.  Golden regressions cover the
end-to-end engine; these tests pin the individual kernels against their
scalar references on adversarial random batches.
"""

from __future__ import annotations

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

np = pytest.importorskip("numpy")

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
# Backend resolution and graceful degradation
# ----------------------------------------------------------------------

def test_resolve_backend_passthrough():
    assert kernels.resolve_backend("python") == "python"
    assert kernels.resolve_backend("numpy") == "numpy"


def test_unknown_backend_rejected_by_config():
    with pytest.raises(ValueError, match="unknown backend"):
        CurveConfig(backend="fortran")


def test_missing_numpy_degrades_with_single_log(monkeypatch, caplog):
    monkeypatch.setattr(kernels, "_np", None)
    monkeypatch.setattr(kernels, "_fallback_logged", False)
    with caplog.at_level("WARNING", logger="repro.curves.kernels"):
        assert kernels.resolve_backend("numpy") == "python"
        assert kernels.resolve_backend("numpy") == "python"
    assert len([r for r in caplog.records
                if "falling back" in r.message.lower()
                or "numpy" in r.message.lower()]) == 1
    # And the config-level resolution degrades the same way.
    assert CurveConfig(backend="numpy").resolved_backend() == "python"


# ----------------------------------------------------------------------
# SoA mirrors
# ----------------------------------------------------------------------

def test_curve_soa_columns_match_solutions():
    rng = random.Random(3)
    sols = _random_solutions(rng, 17)
    soa = kernels.CurveSoA(sols)
    assert list(soa) == sols
    assert len(soa) == len(sols)
    loads, reqs, areas = soa.columns()
    assert loads.tolist() == [s.load for s in sols]
    assert reqs.tolist() == [s.required_time for s in sols]
    assert areas.tolist() == [s.area for s in sols]


def test_buffer_vectors_align_with_params():
    params = [(object(), 2.0, 40.0, 18.0, 0.7),
              (object(), 5.0, 90.0, 11.0, 0.3)]
    vecs = kernels.BufferVectors(params)
    assert len(vecs) == 2
    assert vecs.caps.tolist() == [2.0, 5.0]
    assert vecs.areas.tolist() == [40.0, 90.0]
    assert vecs.d0.tolist() == [18.0, 11.0]
    assert vecs.slope.tolist() == [0.7, 0.3]


# ----------------------------------------------------------------------
# Winner-stream vs sequential scalar insertion
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_winner_stream_matches_sequential_insertion(seed):
    """Grouped argmax == inserting the stream one by one, including the
    dict insertion order of newly created buckets."""
    rng = random.Random(seed)
    n = rng.randint(1, 400)
    loads = np.array([float(rng.randint(0, 25)) for _ in range(n)])
    reqs = np.array([float(rng.randint(-25, 25)) for _ in range(n)])
    areas = np.array([float(rng.randint(0, 25)) for _ in range(n)])
    inv_load, inv_area = 1.0 / 2.0, 1.0 / 3.0

    # Scalar reference: first entry strictly beating the incumbent wins.
    ref = {}
    for i in range(n):
        key = (round(loads[i] * inv_load), round(areas[i] * inv_area))
        cur = ref.get(key)
        if cur is None or reqs[cur] < reqs[i]:
            ref[key] = i

    win, klo, kar, w_loads, w_reqs, w_areas = kernels._winner_stream(
        inv_load, inv_area, loads, reqs, areas)
    got = dict(zip(zip(klo, kar), win))
    assert got == ref
    assert list(got) == list(ref)  # same first-occurrence key order
    assert w_loads == [loads[i] for i in win]
    assert w_reqs == [reqs[i] for i in win]
    assert w_areas == [areas[i] for i in win]


# ----------------------------------------------------------------------
# Vectorized prune vs scalar staircase
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_survivor_indices_match_scalar_staircase(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(1, 500)
    items = []
    for i in range(n):
        entry = (float(rng.randint(0, 30)), float(rng.randint(-30, 30)),
                 float(rng.randint(0, 30)), None, i)
        items.append(((i, i), entry))
    loads = np.array([kv[1][0] for kv in items])
    reqs = np.array([kv[1][1] for kv in items])
    areas = np.array([kv[1][2] for kv in items])

    keep = kernels._survivor_indices(loads, areas, reqs)
    vector = [items[i] for i in keep.tolist()]
    scalar = kernels._pending_prune_scalar(items)
    assert vector == scalar


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
    """Covers both the scalar dispatch (small) and vector (large) paths."""
    rng = random.Random(n_left * 100 + n_right)
    lefts = _random_solutions(rng, n_left)
    rights = _random_solutions(rng, n_right)
    config = CurveConfig(load_step=2.0, area_step=3.0, max_solutions=24,
                         backend="python")

    scalar = SolutionCurve(P, config)
    _scalar_join(scalar, lefts, rights)
    scalar.prune()

    pending = kernels.PendingCurve(P, config)
    kernels.pending_join(pending, kernels.CurveSoA(lefts),
                         kernels.CurveSoA(rights))
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
    pending.extend(kernels.CurveSoA(sols))
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
        pending.extend(kernels.CurveSoA(_random_solutions(rng, 120)))
        pending.prune()
    assert rec.counter(metric.CURVE_PRUNE_CALLS) == 1
    assert rec.counter(metric.CURVE_PRUNE_REMOVED) >= 0


def test_solution_curve_batch_extend_matches_scalar_adds():
    """SolutionCurve.extend with a CurveSoA batch == one-by-one add."""
    rng = random.Random(21)
    sols = _random_solutions(rng, kernels.EXTEND_MIN_ITEMS + 40)
    config_np = CurveConfig(load_step=2.0, area_step=3.0,
                            max_solutions=32, backend="numpy")
    config_py = CurveConfig(load_step=2.0, area_step=3.0,
                            max_solutions=32, backend="python")

    batched = SolutionCurve(P, config_np)
    batched.extend(kernels.CurveSoA(sols))
    sequential = SolutionCurve(P, config_py)
    for s in sols:
        sequential.add(s)

    assert _contents(batched) == _contents(sequential)


# ----------------------------------------------------------------------
# Memory: frozen blocks hold what the python backend's lists hold
# ----------------------------------------------------------------------

def _context_bytes(backend: str, net, tech) -> int:
    """Traced bytes a :class:`PTreeContext` still holds (its Γ, range
    and sink memos) after one BUBBLE_CONSTRUCT, once garbage is gone."""
    config = MerlinConfig(backend=backend)
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
    """Frozen numpy blocks keep only their survivors, never the batch
    contexts — such as a relocation stream's ``(n, opts)`` arrays —
    their entries pointed into."""
    tech = default_technology()
    net = make_experiment_net("mem2", 3, seed=2)
    for backend in ("python", "numpy"):  # warm one-time caches
        bubble_construct(net, Order.identity(len(net)), tech,
                         MerlinConfig(backend=backend))
    python_bytes = _context_bytes("python", net, tech)
    numpy_bytes = _context_bytes("numpy", net, tech)
    assert numpy_bytes <= 1.5 * python_bytes, (numpy_bytes, python_bytes)
