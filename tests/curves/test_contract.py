"""Property tests for the curve-kernel contract (:mod:`repro.curves.contract`).

Two families of guarantees:

* **Registry** — backends register like staticcheck rules and resolve
  by name.
* **Bit-identity** — for every registered backend, the block-level
  ``merge / join / add_buffer / relocate_round / prune / freeze``
  pipeline must equal a solution-object reference path written directly
  against :class:`~repro.curves.curve.SolutionCurve` (no kernels
  involved), on random curves.  The reference here is deliberately naive — the point
  is that neither the deferred entries nor the shadow-table skips
  may change a single surviving solution, its attributes, or its
  traceback topology.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bubble_construct import bubble_construct
from repro.core.config import MerlinConfig
from repro.curves import contract
from repro.curves.curve import CurveConfig, SolutionCurve
from repro.curves.solution import Buffered, Extend, Join, SinkLeaf, Solution
from repro.experiments.nets import make_experiment_net
from repro.geometry.point import Point
from repro.orders.order import Order
from repro.tech.technology import default_technology

P = Point(0, 0)
Q = Point(40, 30)


def _sig(s: Solution) -> tuple:
    """Structural signature: attributes plus the full traceback tree.

    Solutions compare by identity (they are ``__slots__`` hot-path
    objects), so bit-identity across independently materialized paths is
    asserted on this recursive value instead.
    """
    d = s.detail
    if isinstance(d, SinkLeaf):
        tail = ("sink", d.sink_index)
    elif isinstance(d, Extend):
        tail = ("extend", d.length, d.width, _sig(d.child))
    elif isinstance(d, Join):
        tail = ("join", _sig(d.left), _sig(d.right))
    elif isinstance(d, Buffered):
        tail = ("buffered", d.buffer.name, _sig(d.child))
    else:  # DriverArm: the root of a final (driver-level) solution
        tail = ("driver", _sig(d.child))
    return (s.root, s.load, s.required_time, s.area, tail)


def _sigs(solutions) -> list:
    return [_sig(s) for s in solutions]

BACKENDS = ["python", "numpy"]


def _random_solutions(rng, n, span=30, root=P):
    """Integer-valued attributes force heavy bucket collisions."""
    return [
        Solution(root, float(rng.randint(0, span)),
                 float(rng.randint(-span, span)),
                 float(rng.randint(0, span)), SinkLeaf(i))
        for i in range(n)
    ]


def _buffer_params(n=6):
    """Affine (buffer, input_cap, area, d0, slope) tuples from the
    default library — including repeated-cap cells so the shadow table
    is non-trivial when quantization is coarse."""
    tech = default_technology()
    bufs = list(tech.buffers)[:n]
    return [(b, b.input_cap, b.area, b.intrinsic_delay, b.drive_resistance)
            for b in bufs]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_builtin_backends_are_registered():
    names = contract.kernel_names()
    assert "python" in names
    assert "numpy" in names
    for name in names:
        kernel = contract.get_kernel(name)
        assert isinstance(kernel, contract.CurveKernel)
        assert kernel.name == name


def test_get_kernel_is_idempotent_singleton():
    assert contract.get_kernel("python") is contract.get_kernel("python")


def test_get_kernel_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown curve kernel"):
        contract.get_kernel("fortran")  # staticcheck: ignore[REG-DANGLING-KEY]


def test_register_kernel_requires_a_name():
    with pytest.raises(ValueError, match="non-empty name"):
        @contract.register_kernel
        class Nameless(contract.CurveKernel):
            pass


def test_library_shadow_table_marks_same_bucket_predecessors():
    params = _buffer_params(6)
    coarse = CurveConfig(load_step=1e9)  # every cap lands in bucket 0
    lib = contract.KernelLibrary(params, coarse)
    assert lib.has_shadows
    assert lib.shadows[0] == ()
    assert all(lib.shadows[j] == tuple(range(j))
               for j in range(len(params)))

    fine = CurveConfig(load_step=1e-6)  # every cap in its own bucket
    lib = contract.KernelLibrary(params, fine)
    assert not lib.has_shadows
    assert all(s == () for s in lib.shadows)


# ----------------------------------------------------------------------
# Block pipeline vs solution-object reference
# ----------------------------------------------------------------------

def _ref_join(curve: SolutionCurve, lefts, rights) -> None:
    for a in lefts:
        for b in rights:
            load = a.load + b.load
            req = min(a.required_time, b.required_time)
            area = a.area + b.area
            key = curve.accept_key(load, req, area)
            if key is not None:
                curve.add_keyed(key, Solution(curve.root, load, req, area,
                                              Join(a, b)))


def _ref_buffer(curve: SolutionCurve, params) -> None:
    for s in list(curve):
        for buffer, input_cap, buf_area, d0, slope in params:
            req = s.required_time - d0 - slope * s.load
            area = s.area + buf_area
            key = curve.accept_key(input_cap, req, area)
            if key is not None:
                curve.add_keyed(key, Solution(curve.root, input_cap, req,
                                              area, Buffered(s, buffer)))


def _ref_relocate(curves, geom, params) -> None:
    """One relaxation pass: every curve offers each snapshot solution of
    every other curve, moved over the wire, unbuffered and buffered."""
    snapshots = [list(curve) for curve in curves]
    for to_idx, curve in enumerate(curves):
        for frm_idx, snapshot in enumerate(snapshots):
            if frm_idx == to_idx:
                continue
            length = geom.candidates[frm_idx].manhattan_to(curve.root)
            for width in geom.wire_widths:
                res = geom.wire_res[frm_idx][to_idx] / width
                cap = geom.wire_cap[frm_idx][to_idx] * width
                for s in snapshot:
                    moved = Solution(
                        curve.root, s.load + cap,
                        s.required_time - res * (0.5 * cap + s.load),
                        s.area, Extend(s, length, width))
                    curve.add(moved)
                    for buffer, input_cap, buf_area, d0, slope in params:
                        curve.add(Solution(
                            curve.root, input_cap,
                            moved.required_time - d0 - slope * moved.load,
                            moved.area + buf_area, Buffered(moved, buffer)))


class _Geometry:
    """The candidate geometry ``relocate_round`` reads: P and Q, two
    wire widths."""

    def __init__(self):
        wire = default_technology().wire
        self.candidates = [P, Q]
        self.wire_widths = (1.0, 2.0)
        length = P.manhattan_to(Q)
        self.wire_res = [[0.0, wire.resistance_per_um * length],
                         [wire.resistance_per_um * length, 0.0]]
        self.wire_cap = [[0.0, wire.capacitance_per_um * length],
                         [wire.capacitance_per_um * length, 0.0]]


def _folded(sols, config, root=P) -> list:
    curve = SolutionCurve(root, config)
    for s in sols:
        curve.add(s)
    curve.prune()
    return curve.solutions


def _reference(lefts, rights, siblings, params, config) -> list:
    """The whole pipeline on materialized Solution objects only."""
    curve = SolutionCurve(P, config)
    _ref_join(curve, _folded(lefts, config), _folded(rights, config))
    curve.prune()
    _ref_buffer(curve, params)
    curve.prune()
    sibling = SolutionCurve(Q, config)
    sibling.extend(_folded(siblings, config, root=Q))
    _ref_relocate([curve, sibling], _Geometry(), params)
    curve.prune()
    sibling.prune()
    merged = SolutionCurve(P, config)
    merged.extend(curve.solutions)
    merged.prune()
    return merged.solutions + sibling.solutions


def _block_of(kernel, sols, config, root=P):
    curve = kernel.new_curve(root, config)
    for s in sols:
        curve.add(s)
    kernel.prune(curve)
    return kernel.freeze(curve)


@pytest.mark.parametrize("backend", BACKENDS)
# Seed 38 keeps a buffered relocation survivor whose source area a and
# buffer area b have (a + b) - b != a in floating point, so a traceback
# that re-derives the moved area instead of carrying it shows up.
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 38])
def test_block_pipeline_matches_solution_reference(backend, seed):
    """join -> prune -> add_buffer -> prune -> relocate_round -> prune
    -> freeze -> merge -> freeze on kernel blocks == the naive
    Solution-object path.

    Sizes are drawn from a handful to hundreds of entries, and the
    coarse load step makes several buffers share a load bucket,
    so the Li & Shi shadow skip actually fires on at least one seed.
    The relocation round runs between the joined curve at P and a
    sibling curve at Q, whose blocks are frozen with one shared memo.
    """
    rng = random.Random(seed)
    config = CurveConfig(load_step=2.0, area_step=3.0, max_solutions=24,
                         backend=backend)
    lefts = _random_solutions(rng, rng.randint(2, 40))
    rights = _random_solutions(rng, rng.randint(2, 40))
    siblings = _random_solutions(rng, rng.randint(2, 40), root=Q)
    params = _buffer_params()

    kernel = contract.get_kernel(backend)
    library = kernel.make_library(params, config)
    curve = kernel.new_curve(P, config)
    kernel.join(curve, _block_of(kernel, lefts, config),
                _block_of(kernel, rights, config))
    kernel.prune(curve)
    kernel.add_buffer(curve, library)
    kernel.prune(curve)
    sibling = kernel.new_curve(Q, config)
    kernel.merge(sibling, _block_of(kernel, siblings, config, root=Q))
    kernel.relocate_round([curve, sibling], [0, 1], _Geometry(), library)
    kernel.prune(curve)
    kernel.prune(sibling)
    memo: dict = {}
    block = kernel.freeze(curve, memo)
    sibling_block = kernel.freeze(sibling, memo)
    merged = kernel.new_curve(P, config)
    kernel.merge(merged, block)
    kernel.prune(merged)
    got = list(kernel.freeze(merged)) + list(sibling_block)

    want = _reference(lefts, rights, siblings, params,
                      CurveConfig(load_step=2.0, area_step=3.0,
                                  max_solutions=24, backend="python"))
    # Attributes AND the traceback topology (Join/Buffered trees)
    # must match, in curve order.
    assert _sigs(got) == _sigs(want)


@pytest.mark.parametrize("backend", BACKENDS)
def test_thaw_round_trips_the_live_curve(backend):
    rng = random.Random(11)
    config = CurveConfig(load_step=2.0, area_step=3.0, max_solutions=16,
                         backend=backend)
    kernel = contract.get_kernel(backend)
    curve = kernel.new_curve(P, config)
    for s in _random_solutions(rng, 60):
        curve.add(s)
    kernel.prune(curve)
    thawed = kernel.thaw(curve)
    assert isinstance(thawed, SolutionCurve)
    assert _sigs(thawed.solutions) == \
        _sigs(kernel.freeze(curve))


@pytest.mark.parametrize("backend", BACKENDS)
def test_shadow_skip_never_changes_the_curve(backend):
    """With a huge load step every buffer shares one load bucket — the
    adversarial case for the predecessor skip.  The surviving curve must
    equal the no-shadow reference exactly."""
    rng = random.Random(17)
    config = CurveConfig(load_step=500.0, area_step=3.0, max_solutions=24,
                         backend=backend)
    params = _buffer_params()
    sources = _random_solutions(rng, 30)

    kernel = contract.get_kernel(backend)
    library = kernel.make_library(params, config)
    assert library.has_shadows
    curve = kernel.new_curve(P, config)
    for s in sources:
        curve.add(s)
    kernel.prune(curve)
    pruned_sources = list(kernel.freeze(curve))
    kernel.add_buffer(curve, library)
    kernel.prune(curve)
    got = list(kernel.freeze(curve))

    ref = SolutionCurve(P, CurveConfig(load_step=500.0, area_step=3.0,
                                       max_solutions=24, backend="python"))
    for s in pruned_sources:
        ref.add(s)
    ref.prune()
    _ref_buffer(ref, params)
    ref.prune()
    assert _sigs(got) == _sigs(ref.solutions)


@pytest.mark.parametrize("seed", [5, 7, 8])
def test_bubble_construct_tracebacks_match_across_backends(seed):
    """The whole driver-level curve of one BUBBLE_CONSTRUCT — every
    attribute of every Solution down to the sink leaves — is the same
    on both backends, not only the extracted tree's signature."""
    tech = default_technology()
    net = make_experiment_net(f"xb{seed}", 3, seed=seed)
    finals = {
        backend: _sigs(bubble_construct(
            net, Order.identity(len(net)), tech,
            MerlinConfig(backend=backend)).final_solutions)
        for backend in ("python", "numpy")
    }
    assert finals["numpy"] == finals["python"]
