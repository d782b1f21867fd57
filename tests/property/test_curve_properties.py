"""Property-based tests for the solution-curve machinery (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import contract
from repro.curves.curve import CurveConfig, SolutionCurve
from repro.curves.solution import SinkLeaf, Solution
from repro.geometry.point import Point

P = Point(0, 0)

#: Every pruning property must hold identically on both curve-kernel
#: backends (bit-identity contract of the deferred kernels).
BACKENDS = ("python", "numpy")


def _pruned(backend: str, sols, **config) -> SolutionCurve:
    """``sols`` added one by one to a live curve of ``backend``'s kernel,
    pruned, and handed back as a :class:`SolutionCurve`."""
    kernel = contract.get_kernel(backend)
    curve = kernel.new_curve(P, CurveConfig(backend=backend, **config))
    for s in sols:
        curve.add(s)
    curve.prune()
    return kernel.thaw(curve)

# Integer-valued attributes: the exactness property below compares the
# bucketed curve against an un-bucketed reference, which is only a fair
# comparison when every attribute difference exceeds the bucket width
# (exactly the paper's "capacitances mapped to integers" assumption).
attr = st.integers(min_value=0, max_value=60).map(float)
req_attr = st.integers(min_value=-60, max_value=60).map(float)
solutions = st.builds(
    lambda load, req, area: Solution(P, load, req, area, SinkLeaf(0)),
    attr, req_attr, attr)
solution_lists = st.lists(solutions, min_size=1, max_size=60)


def brute_force_pareto(sols):
    """Reference: triples that are not dominated by a distinct triple."""
    triples = {(s.load, s.required_time, s.area) for s in sols}
    kept = set()
    for t in triples:
        dominated = any(
            o != t and o[0] <= t[0] and o[1] >= t[1] and o[2] <= t[2]
            for o in triples)
        if not dominated:
            kept.add(t)
    return kept


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=200, deadline=None)
@given(sols=solution_lists)
def test_prune_leaves_exactly_the_pareto_front(backend, sols):
    """With fine buckets and no cap, prune == brute-force Pareto."""
    curve = _pruned(backend, sols, load_step=0.5, area_step=0.5,
                    max_solutions=10 ** 6)
    kept = {(s.load, s.required_time, s.area) for s in curve}
    assert kept == brute_force_pareto(sols)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(sols=solution_lists)
def test_pruned_curve_is_mutually_non_inferior(backend, sols):
    curve = _pruned(backend, sols, load_step=2.0, area_step=30.0,
                    max_solutions=16)
    assert curve.is_non_inferior_set()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(sols=solution_lists)
def test_best_required_time_never_lost(backend, sols):
    """Lemma 9-flavored: pruning (even with cap) keeps the req optimum."""
    curve = _pruned(backend, sols, load_step=5.0, area_step=50.0,
                    max_solutions=4)
    best_kept = max(s.required_time for s in curve)
    assert best_kept == max(s.required_time for s in sols)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(sols=solution_lists)
def test_min_area_never_lost(backend, sols):
    """The area optimum survives for the variant II objective."""
    curve = _pruned(backend, sols, load_step=5.0, area_step=50.0,
                    max_solutions=4)
    # Bucketing keeps the best-req representative per (load, area) bucket,
    # so the minimum surviving area is within one bucket of the true one.
    assert min(s.area for s in curve) <= min(s.area for s in sols) + 50.0


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(sols=solution_lists)
def test_capacity_cap_respected(backend, sols):
    curve = _pruned(backend, sols, load_step=1e-6, area_step=1e-6,
                    max_solutions=5)
    assert len(curve) <= 5


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(sols=solution_lists)
def test_prune_idempotent(backend, sols):
    # A fresh curve of the survivors: re-pruning the thawed curve itself
    # would return at once, since it is already marked pruned.
    cfg = dict(load_step=3.0, area_step=40.0, max_solutions=8)
    curve = _pruned(backend, sols, **cfg)
    again = _pruned(backend, list(curve), **cfg)
    assert sorted(s.key() for s in again) == sorted(s.key() for s in curve)


@settings(max_examples=150, deadline=None)
@given(solutions, solutions)
def test_dominance_is_antisymmetric_up_to_ties(a, b):
    if a.dominates(b) and b.dominates(a):
        assert (a.load, a.required_time, a.area) == \
            (b.load, b.required_time, b.area)


@settings(max_examples=150, deadline=None)
@given(solutions, solutions, solutions)
def test_dominance_is_transitive(a, b, c):
    if a.dominates(b) and b.dominates(c):
        assert a.dominates(c)
