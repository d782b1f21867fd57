"""Property-based invariants for merge (join) + prune in repro.curves.

The satellite contract behind every DP step: after any combination of
merging (cross-product join at a shared root) and pruning, the surviving
set is mutually non-inferior, and pruning never removes the
best-required-time solution of what was inserted (Lemma 9).  These run
through the *public* curve/ops API, the same path the engines use.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import contract
from repro.curves.curve import CurveConfig, SolutionCurve
from repro.curves.ops import (
    buffer_solution,
    buffered_options,
    extend_solution,
    join_curves,
    join_solutions,
)
from repro.curves.solution import SinkLeaf, Solution
from repro.geometry.point import Point
from repro.tech.technology import default_technology

P = Point(0, 0)
TECH = default_technology()
SMALL_TECH = TECH.with_buffers(TECH.buffers.subset(3))

# Integer-valued attributes keep bucket rounding out of the equality
# arguments (the paper's "capacitances mapped to integers" assumption).
attr = st.integers(min_value=0, max_value=60).map(float)
req_attr = st.integers(min_value=-60, max_value=60).map(float)
solutions = st.builds(
    lambda load, req, area: Solution(P, load, req, area, SinkLeaf(0)),
    attr, req_attr, attr)
solution_lists = st.lists(solutions, min_size=1, max_size=12)

#: A curve config with fine buckets and a generous cap: pruning decisions
#: below are driven by dominance, not quantization.
FINE = CurveConfig(load_step=0.5, area_step=0.5, max_solutions=10 ** 6)
#: A realistic config: coarse buckets plus a tight cap.
COARSE = CurveConfig(load_step=4.0, area_step=50.0, max_solutions=6)

#: Every merge/prune property must hold identically on both curve-kernel
#: backends (bit-identity contract of the deferred kernels).
BACKENDS = ("python", "numpy")


def _with_backend(config: CurveConfig, backend: str) -> CurveConfig:
    return dataclasses.replace(config, backend=backend)


def _pruned_curve(sols, config, backend: str = "python") -> SolutionCurve:
    """``sols`` merged into a live curve of ``backend``'s kernel, pruned,
    and handed back as a :class:`SolutionCurve`."""
    kernel = contract.get_kernel(backend)
    curve = kernel.new_curve(P, _with_backend(config, backend))
    for s in sols:
        curve.add(s)
    curve.prune()
    return kernel.thaw(curve)


def _curve_contents(curve: SolutionCurve):
    """Bucket keys and attribute triples, in dict (insertion) order."""
    return [(key, s.load, s.required_time, s.area)
            for key, s in curve._by_bucket.items()]


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=150, deadline=None)
@given(lefts=solution_lists, rights=solution_lists)
def test_merge_then_prune_is_non_inferior(backend, lefts, rights):
    """Joined-and-pruned sets contain no dominated solution."""
    merged = list(join_curves(lefts, rights))
    for config in (FINE, COARSE):
        assert _pruned_curve(merged, config, backend).is_non_inferior_set()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=150, deadline=None)
@given(lefts=solution_lists, rights=solution_lists)
def test_merge_then_prune_keeps_best_required_time(backend, lefts, rights):
    """Pruning a merged set never loses its required-time optimum."""
    merged = list(join_curves(lefts, rights))
    best = max(s.required_time for s in merged)
    for config in (FINE, COARSE):
        curve = _pruned_curve(merged, config, backend)
        assert max(s.required_time for s in curve) == best


@settings(max_examples=150, deadline=None)
@given(lefts=solution_lists, rights=solution_lists)
def test_backends_agree_on_curve_contents(lefts, rights):
    """The deferred backend's pruned curve is *identical* to python's —
    same buckets, same solutions, same dict order."""
    merged = list(join_curves(lefts, rights))
    for config in (FINE, COARSE):
        py = _pruned_curve(merged, config, "python")
        np_ = _pruned_curve(merged, config, "numpy")
        assert _curve_contents(py) == _curve_contents(np_)


@settings(max_examples=150, deadline=None)
@given(solutions, solutions)
def test_join_arithmetic(a, b):
    """Loads/areas add, required time is the binding (minimum) branch."""
    joined = join_solutions(a, b)
    assert joined.load == a.load + b.load
    assert joined.area == a.area + b.area
    assert joined.required_time == min(a.required_time, b.required_time)
    assert joined.root == a.root


@settings(max_examples=150, deadline=None)
@given(solution_lists, solution_lists)
def test_join_is_commutative_on_attributes(lefts, rights):
    """A ⋈ B and B ⋈ A produce the same attribute multiset."""
    ab = sorted((s.load, s.required_time, s.area)
                for s in join_curves(lefts, rights))
    ba = sorted((s.load, s.required_time, s.area)
                for s in join_curves(rights, lefts))
    assert ab == ba


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(sol=solutions)
def test_buffered_options_then_prune_non_inferior(backend, sol):
    """Offering the library at a root and pruning stays non-inferior and
    keeps the best achievable required time."""
    options = buffered_options(sol, SMALL_TECH)
    best = max(s.required_time for s in options)
    curve = _pruned_curve(options, FINE, backend)
    assert curve.is_non_inferior_set()
    assert max(s.required_time for s in curve) == best


@settings(max_examples=100, deadline=None)
@given(solutions)
def test_buffer_decouples_load(sol):
    """A buffered solution presents exactly the buffer's input cap."""
    buffer = SMALL_TECH.buffers[0]
    buffered = buffer_solution(sol, buffer, SMALL_TECH)
    assert buffered.load == buffer.input_cap
    assert buffered.area == sol.area + buffer.area
    assert buffered.required_time < sol.required_time  # delay is positive


@settings(max_examples=100, deadline=None)
@given(solutions,
       st.integers(min_value=0, max_value=2000).map(float),
       st.integers(min_value=0, max_value=2000).map(float))
def test_extend_monotone_and_identity(sol, dx, dy):
    """Wire extension only degrades: load grows, required time shrinks;
    zero-length extension is the exact identity."""
    assert extend_solution(sol, sol.root, TECH) is sol
    moved = extend_solution(sol, Point(sol.root.x + dx, sol.root.y + dy),
                            TECH)
    if dx == 0 and dy == 0:
        assert moved is sol
    else:
        assert moved.load > sol.load
        assert moved.required_time < sol.required_time
        assert moved.area == sol.area


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(a=solution_lists, b=solution_lists, c=solution_lists)
def test_merge_prune_merge_keeps_feasible_best(backend, a, b, c):
    """Pruning between joins cannot beat-or-lose the direct optimum:
    the best required time of (A ⋈ B ⋈ C) survives staged pruning."""
    direct_best = max(s.required_time
                      for s in join_curves(join_curves(a, b), c))
    staged = _pruned_curve(join_curves(a, b), FINE, backend)
    final = _pruned_curve(join_curves(staged.solutions, c), FINE, backend)
    assert max(s.required_time for s in final) == direct_best
