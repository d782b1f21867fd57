"""Property tests for the curve-kernel contract (:mod:`repro.curves.contract`).

Two families of guarantees:

* **Kernel table** — every ``CurveConfig.backend`` value resolves to
  its kernel, and nothing else does.
* **Bit-identity** — for both kernels, the block-level
  ``join / add_buffer / relocate_round / freeze`` pipeline (with the
  live curves' own ``extend`` and ``prune``) must equal a
  solution-object reference path written directly
  against :class:`~repro.curves.curve.SolutionCurve` (no kernels
  involved), on random curves.  The reference here is deliberately
  naive — the point is that the deferred entries may not change a
  single surviving solution, its attributes, or its traceback
  topology.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bubble_construct import bubble_construct
from repro.core.config import MerlinConfig
from repro.curves import contract, native
from repro.curves.curve import BACKENDS as CONFIG_BACKENDS
from repro.curves.curve import CurveConfig, SolutionCurve, resolve_backend
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
    default library — including repeated-cap cells, so coarse
    quantization puts several buffers in one load bucket."""
    tech = default_technology()
    bufs = list(tech.buffers)[:n]
    return [(b, b.input_cap, b.area, b.intrinsic_delay, b.drive_resistance)
            for b in bufs]


# ----------------------------------------------------------------------
# Kernel table
# ----------------------------------------------------------------------

def test_builtin_backends_are_registered():
    assert sorted(CONFIG_BACKENDS) == sorted(BACKENDS)
    table = contract._kernels()
    assert sorted(table) == sorted(BACKENDS)
    assert len({type(k) for k in table.values()}) == len(table)
    for name in CONFIG_BACKENDS:
        kernel = contract.get_kernel(name)
        assert isinstance(kernel, contract.CurveKernel)
        assert kernel is table[resolve_backend(name)]


def test_get_kernel_is_idempotent_singleton():
    assert contract.get_kernel("python") is contract.get_kernel("python")


def test_get_kernel_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown curve kernel"):
        contract.get_kernel("fortran")


def test_kernel_contract_is_the_six_engine_operations():
    ops = {name for name, value in vars(contract.CurveKernel).items()
           if callable(value) and not name.startswith("_")}
    assert ops == {"new_curve", "join", "add_buffer", "relocate_round",
                   "freeze", "thaw"}


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
    """The candidate geometry ``relocate_round`` reads: the candidates
    (P and Q by default) and two wire widths."""

    def __init__(self, candidates=(P, Q)):
        wire = default_technology().wire
        self.candidates = list(candidates)
        self.wire_widths = (1.0, 2.0)
        self.wire_res = [[wire.resistance_per_um * a.manhattan_to(b)
                          for b in candidates] for a in candidates]
        self.wire_cap = [[wire.capacitance_per_um * a.manhattan_to(b)
                          for b in candidates] for a in candidates]


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
    curve.prune()
    return kernel.freeze(curve)


@pytest.mark.parametrize("backend", BACKENDS)
# Seed 38 keeps a buffered relocation survivor whose source area a and
# buffer area b have (a + b) - b != a in floating point, so a traceback
# that re-derives the moved area instead of carrying it shows up.
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 38])
def test_block_pipeline_matches_solution_reference(backend, seed):
    """join -> prune -> add_buffer -> prune -> relocate_round -> prune
    -> freeze -> extend -> freeze on kernel blocks == the naive
    Solution-object path.

    Sizes are drawn from a handful to hundreds of entries, and the
    coarse load step makes several buffers share a load bucket, so
    their offers compete for the same cells.
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
    library = contract.KernelLibrary(params, config)
    curve = kernel.new_curve(P, config)
    kernel.join(curve, _block_of(kernel, lefts, config),
                _block_of(kernel, rights, config))
    curve.prune()
    kernel.add_buffer(curve, library)
    curve.prune()
    sibling = kernel.new_curve(Q, config)
    sibling.extend(_block_of(kernel, siblings, config, root=Q))
    kernel.relocate_round([curve, sibling], [0, 1], _Geometry(), library)
    curve.prune()
    sibling.prune()
    memo: dict = {}
    block = kernel.freeze(curve, memo)
    sibling_block = kernel.freeze(sibling, memo)
    merged = kernel.new_curve(P, config)
    merged.extend(block)
    merged.prune()
    got = list(kernel.freeze(merged)) + list(sibling_block)

    want = _reference(lefts, rights, siblings, params,
                      CurveConfig(load_step=2.0, area_step=3.0,
                                  max_solutions=24, backend="python"))
    # Attributes AND the traceback topology (Join/Buffered trees)
    # must match, in curve order.
    assert _sigs(got) == _sigs(want)


def _relocated_blocks(backend, load_step, seed) -> list:
    """Two relaxation rounds over five candidate curves; every curve is
    pruned after each round and all are frozen with one shared memo."""
    rng = random.Random(seed)
    roots = [P, Q, Point(-25, 60), Point(70, -10), Point(15, 15)]
    config = CurveConfig(load_step=load_step, area_step=3.0,
                         max_solutions=24, backend=backend)
    kernel = contract.get_kernel(backend)
    library = contract.KernelLibrary(_buffer_params(), config)
    curves = []
    for root in roots:
        curve = kernel.new_curve(root, config)
        curve.extend(_block_of(
            kernel, _random_solutions(rng, rng.randint(1, 30), root=root),
            config, root=root))
        curves.append(curve)
    geom = _Geometry(roots)
    for targets in ([0, 1, 2, 3, 4], [1, 3, 4]):
        kernel.relocate_round(curves, targets, geom, library)
        for curve in curves:
            curve.prune()
    memo: dict = {}
    return [kernel.freeze(curve, memo) for curve in curves]


# load_step=500 puts every buffer in one load bucket; 0.05 gives every
# buffer its own.
@pytest.mark.parametrize("load_step", [0.05, 500.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relocate_round_matches_python_over_many_targets(load_step, seed):
    """Each source snapshot feeds three or four targets and both wire
    widths, so offer keys computed once per round are reused across
    targets; the frozen blocks must equal the python backend's."""
    got = _relocated_blocks("numpy", load_step, seed)
    want = _relocated_blocks("python", load_step, seed)
    assert [_sigs(block) for block in got] == \
        [_sigs(block) for block in want]


@pytest.mark.parametrize("max_solutions", [8, 10 ** 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prune_matches_python_with_many_equal_loads(seed, max_solutions):
    """Buffer offers all carry one of a few input caps as their load, so
    half of a real prune input shares its load exactly with other
    entries; the sort on (load, area) and the thin must still match the
    python backend's prune — keys, order and solutions — with and
    without the capacity cap."""
    rng = random.Random(seed)
    params = _buffer_params()
    caps = [p[1] for p in params]
    sources = _random_solutions(rng, 40)
    # Loads exactly equal to buffer caps, as buffered entries have.
    pins = [Solution(P, rng.choice(caps), float(rng.randint(-30, 30)),
                     float(rng.randint(0, 30)), SinkLeaf(i))
            for i in range(60)]
    results = {}
    for backend in BACKENDS:
        config = CurveConfig(load_step=0.05, area_step=0.5,
                             max_solutions=max_solutions, backend=backend)
        kernel = contract.get_kernel(backend)
        curve = kernel.new_curve(P, config)
        curve.extend(sources)
        kernel.add_buffer(curve, contract.KernelLibrary(params, config),
                          sources)
        curve.extend(pins)
        curve.prune()
        results[backend] = [(key, _sig(s)) for key, s in
                            kernel.thaw(curve)._by_bucket.items()]
    loads = [sig[1] for _, sig in results["python"]]
    assert len(set(loads)) < len(loads)  # equal loads survive the prune
    assert results["numpy"] == results["python"]


_quarters = st.integers(min_value=0, max_value=240).map(lambda k: k / 4)
_attrs = st.tuples(_quarters,
                   st.integers(min_value=-240, max_value=240).map(
                       lambda k: k / 4),
                   _quarters)
_blocks = st.lists(_attrs, min_size=1, max_size=10)
_curve = st.integers(min_value=0, max_value=2)
_ops = st.lists(st.one_of(
    st.tuples(st.just("merge"), _curve, _blocks),
    st.tuples(st.just("join"), _curve, _blocks, _blocks),
    st.tuples(st.just("buffer"), _curve),
    st.tuples(st.just("relocate"),
              st.lists(_curve, min_size=1, max_size=3, unique=True)),
    st.tuples(st.just("prune"), _curve)), min_size=1, max_size=10)


def _block(attrs) -> list:
    return [Solution(P, load, req, area, SinkLeaf(i))
            for i, (load, req, area) in enumerate(attrs)]


@pytest.mark.skipif(native.deferred is None,
                    reason="the compiled loops could not be built here, "
                           "so 'numpy' runs the python oracle")
@settings(max_examples=150, deadline=None)
@given(ops=_ops, load_step=st.sampled_from([0.5, 2.0, 500.0]),
       area_step=st.sampled_from([0.5, 3.0]),
       n_buffers=st.integers(min_value=1, max_value=6))
def test_numpy_keys_stay_the_buckets_of_their_entries(
        ops, load_step, area_step, n_buffers):
    """Any sequence of extend/join/add_buffer/relocate_round/prune on the
    numpy backend leaves every key equal to its entry's bucket, so
    (load, area) is unique per curve — the invariant its prune's plain
    tuple sort relies on."""
    roots = [P, Q, Point(-20, 55)]
    config = CurveConfig(load_step=load_step, area_step=area_step,
                         max_solutions=12)
    kernel = contract.get_kernel("numpy")
    library = contract.KernelLibrary(_buffer_params(n_buffers), config)
    curves = [kernel.new_curve(root, config) for root in roots]
    geom = _Geometry(roots)
    for op in ops:
        if op[0] == "merge":
            curves[op[1]].extend(_block(op[2]))
        elif op[0] == "join":
            kernel.join(curves[op[1]], _block(op[2]), _block(op[3]))
        elif op[0] == "buffer":
            kernel.add_buffer(curves[op[1]], library)
        elif op[0] == "relocate":
            kernel.relocate_round(curves, op[1], geom, library)
        else:
            curves[op[1]].prune()
        for curve in curves:
            entries = list(curve._by_bucket.items())
            assert [key for key, _ in entries] == [
                (round(t[0] * curve._inv_load),
                 round(t[1] * curve._inv_area)) for _, t in entries]
            assert len({t[:2] for _, t in entries}) == len(entries)


@pytest.mark.parametrize("backend", BACKENDS)
def test_thaw_round_trips_the_live_curve(backend):
    rng = random.Random(11)
    config = CurveConfig(load_step=2.0, area_step=3.0, max_solutions=16,
                         backend=backend)
    kernel = contract.get_kernel(backend)
    curve = kernel.new_curve(P, config)
    for s in _random_solutions(rng, 60):
        curve.add(s)
    curve.prune()
    thawed = kernel.thaw(curve)
    assert isinstance(thawed, SolutionCurve)
    assert _sigs(thawed.solutions) == \
        _sigs(kernel.freeze(curve))


@pytest.mark.parametrize("backend", BACKENDS)
def test_add_buffer_matches_reference_with_one_load_bucket(backend):
    """With a huge load step every buffer shares one load bucket, so all
    of a source's offers compete for the same cells.  The surviving
    curve must equal the solution-object reference exactly."""
    rng = random.Random(17)
    config = CurveConfig(load_step=500.0, area_step=3.0, max_solutions=24,
                         backend=backend)
    params = _buffer_params()
    sources = _random_solutions(rng, 30)

    kernel = contract.get_kernel(backend)
    library = contract.KernelLibrary(params, config)
    assert len(set(library.cap_keys)) == 1
    curve = kernel.new_curve(P, config)
    for s in sources:
        curve.add(s)
    curve.prune()
    pruned_sources = list(kernel.freeze(curve))
    kernel.add_buffer(curve, library)
    curve.prune()
    got = list(kernel.freeze(curve))

    ref = SolutionCurve(P, CurveConfig(load_step=500.0, area_step=3.0,
                                       max_solutions=24, backend="python"))
    for s in pruned_sources:
        ref.add(s)
    ref.prune()
    _ref_buffer(ref, params)
    ref.prune()
    assert _sigs(got) == _sigs(ref.solutions)


def _config(backend: str) -> MerlinConfig:
    config = MerlinConfig()
    return config.with_(
        curve=dataclasses.replace(config.curve, backend=backend))


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
            _config(backend)).final_solutions)
        for backend in ("python", "numpy")
    }
    assert finals["numpy"] == finals["python"]
