"""Unit tests for the deferred curve kernel (the ``"numpy"`` backend).

The contract under test is *bit-identity*: the kernel must reproduce
the python backend's results exactly — same surviving solutions, same
bucket keys, same dict insertion order — so the engine's output is
independent of ``CurveConfig.backend``.  Golden regressions cover the
end-to-end engine; these tests pin the kernel's operations, run through
the :mod:`repro.curves.contract` interface, against their
``SolutionCurve`` references on adversarial batches, and check that the
compiled loops are what actually runs (:mod:`repro.curves.native`).
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
import warnings
from itertools import product

import pytest

import repro
from repro.core.bubble_construct import bubble_construct, make_context
from repro.core.config import MerlinConfig
from repro.curves import contract, kernels, native
from repro.curves.backend_python import PythonKernel
from repro.curves.curve import CurveConfig, SolutionCurve
from repro.curves.solution import Join, SinkLeaf, Solution
from repro.experiments.nets import make_experiment_net
from repro.geometry.point import Point
from repro.orders.order import Order
from repro.tech.technology import default_technology

P = Point(0, 0)
Q = Point(40, 30)
BACKENDS = ("python", "numpy")


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

    kernel = contract.get_kernel("numpy")
    pending = kernel.new_curve(P, config)
    kernel.join(pending, lefts, rights)
    pending.prune()

    assert _contents(kernel.thaw(pending)) == _contents(scalar)


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

    kernel = contract.get_kernel("numpy")
    pending = kernel.new_curve(P, config)
    pending.extend(sols)
    pending.prune()

    assert _contents(kernel.thaw(pending)) == _contents(scalar)
    # Materialized survivors are the scalar backend's actual solutions.
    assert pending.solutions == scalar.solutions


def test_pending_prune_records_instrumentation():
    from repro.instrument import Recorder, names as metric
    from repro.instrument.recorder import use_recorder

    rng = random.Random(9)
    pending = contract.get_kernel("numpy").new_curve(
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


# ----------------------------------------------------------------------
# The compiled loops: ties, non-finite keys, and what actually runs
# ----------------------------------------------------------------------

class _Geometry:
    """P and Q joined by a wire of capacitance 2.0 (one wire width)."""

    candidates = [P, Q]
    wire_widths = (1.0,)
    wire_res = [[0.0, 0.25], [0.25, 0.0]]
    wire_cap = [[0.0, 2.0], [2.0, 0.0]]


def _library(config, input_caps=(1.0, 3.0, 5.0), areas=(2.0, 4.0, 2.0)):
    """Buffers with the given input caps and areas (the default
    technology's buffer objects and delay coefficients)."""
    buffers = list(default_technology().buffers)
    params = [(b, cap, area, b.intrinsic_delay, b.drive_resistance)
              for b, cap, area in zip(buffers, input_caps, areas)]
    return contract.KernelLibrary(params, config)


def _bucket_map(kernel, curve) -> list:
    return [(key, s.load, s.required_time, s.area)
            for key, s in kernel.thaw(curve)._by_bucket.items()]


def _tie_pipeline(backend: str) -> list:
    """join -> prune -> add_buffer -> prune -> relocate_round -> prune,
    the bucket map recorded after every step."""
    rng = random.Random(5)
    odd = (1.0, 3.0, 5.0, 7.0)
    even = (0.0, 2.0, 4.0)
    lefts = [Solution(P, load, float(rng.randint(-20, 20)), area,
                      SinkLeaf(i))
             for i, (load, area) in enumerate(product(odd, odd))]
    rights = [Solution(P, load, float(rng.randint(-20, 20)), area,
                       SinkLeaf(i))
              for i, (load, area) in enumerate(product(even, even))]
    siblings = [Solution(Q, load, float(rng.randint(-20, 20)), area,
                         SinkLeaf(i))
                for i, (load, area) in enumerate(product(odd, odd))]
    config = CurveConfig(load_step=2.0, area_step=2.0, max_solutions=64,
                         backend=backend)
    kernel = contract.get_kernel(backend)
    library = _library(config)
    curve = kernel.new_curve(P, config)
    sibling = kernel.new_curve(Q, config)
    steps = []
    kernel.join(curve, lefts, rights)
    steps.append(_bucket_map(kernel, curve))
    curve.prune()
    steps.append(_bucket_map(kernel, curve))
    kernel.add_buffer(curve, library)
    steps.append(_bucket_map(kernel, curve))
    curve.prune()
    sibling.extend(siblings)
    sibling.prune()
    kernel.relocate_round([curve, sibling], [0, 1], _Geometry(), library)
    steps.append(_bucket_map(kernel, curve) + _bucket_map(kernel, sibling))
    curve.prune()
    sibling.prune()
    steps.append(_bucket_map(kernel, curve) + _bucket_map(kernel, sibling))
    return steps


def test_half_bucket_ties_round_half_to_even_like_python():
    """With steps of 2.0, loads and areas 1, 3, 5 and 7 sit on
    half-bucket boundaries: ``round`` keys them 0, 2, 2 and 4, where
    rounding half away from zero would give 1, 2, 3 and 4.  Every join
    sum, buffer offer and moved entry lands on such a boundary."""
    want = _tie_pipeline("python")
    ties = [load for _, load, _, _ in want[0] if (load / 2.0) % 1 == 0.5]
    assert ties and {1.0, 5.0} & set(ties)  # keys 0 and 2, not 1 and 3
    assert _tie_pipeline("numpy") == want


def _non_finite_join(kernel, config, bad):
    curve = kernel.new_curve(P, config)
    kernel.join(curve, [Solution(P, bad, 0.0, 1.0, SinkLeaf(0))],
                [Solution(P, 1.0, 0.0, 1.0, SinkLeaf(1))])


def _non_finite_buffer(kernel, config, bad):
    curve = kernel.new_curve(P, config)
    kernel.add_buffer(curve, _library(config),
                      [Solution(P, 1.0, 0.0, bad, SinkLeaf(0))])


def _non_finite_relocate(kernel, config, bad):
    geom = _Geometry()
    geom.wire_cap = [[0.0, bad], [bad, 0.0]]
    curves = [kernel.new_curve(root, config) for root in (P, Q)]
    curves[1].add(Solution(Q, 1.0, 0.0, 1.0, SinkLeaf(0)))
    kernel.relocate_round(curves, [0], geom, _library(config))


@pytest.mark.parametrize("bad,error", [(math.inf, OverflowError),
                                       (-math.inf, OverflowError),
                                       (math.nan, ValueError)])
@pytest.mark.parametrize("operation", [_non_finite_join, _non_finite_buffer,
                                       _non_finite_relocate])
def test_non_finite_key_inputs_raise_what_round_raises(operation, bad,
                                                       error):
    """A non-finite load or area cannot be keyed: ``round`` raises, and
    the compiled loops raise the same error instead of casting."""
    messages = {}
    for backend in BACKENDS:
        config = CurveConfig(backend=backend)
        with pytest.raises(error) as info:
            operation(contract.get_kernel(backend), config, bad)
        messages[backend] = str(info.value)
    assert messages["numpy"] == messages["python"]


def _cannot_build() -> list:
    """What this host lacks to build the extension (empty: nothing)."""
    missing = []
    cc = sysconfig.get_config_var("CC")
    if not cc or shutil.which(shlex.split(cc)[0]) is None:
        missing.append(f"the C compiler {cc!r}")
    if not os.path.isfile(os.path.join(sysconfig.get_paths()["include"],
                                       "Python.h")):
        missing.append("Python.h")
    return missing


def test_numpy_backend_runs_the_compiled_loops():
    missing = _cannot_build()
    if missing:
        pytest.skip(f"this host lacks {' and '.join(missing)}, so "
                    f"'numpy' runs the python oracle kernel")
    assert native.deferred is not None
    assert native.deferred.__file__.endswith(
        sysconfig.get_config_var("EXT_SUFFIX"))
    assert os.path.basename(native.deferred.__file__) == \
        native.artifact_name(native.SOURCE.read_bytes())
    assert CurveConfig().resolved_backend() == "numpy"
    kernel = contract.get_kernel("numpy")
    assert isinstance(kernel, kernels.DeferredKernel)
    assert kernels._deferred is native.deferred
    curve = kernel.new_curve(P, CurveConfig())
    kernel.join(curve, [Solution(P, 1.0, 0.0, 0.0, SinkLeaf(0))],
                [Solution(P, 2.0, 1.0, 0.0, SinkLeaf(1))])
    assert [t[3][0] for t in curve] == ["join"]  # a pending entry


def test_failed_build_warns_once_and_runs_the_oracle(tmp_path,
                                                     monkeypatch):
    """A compiler that does not exist: one RuntimeWarning naming the
    command, ``"numpy"`` resolves to the python oracle, and the trees
    are the compiled kernel's."""
    config = MerlinConfig.test_preset()
    net = make_experiment_net("fallback", 4, seed=3)
    compiled = repro.optimize(net, config=config).signature

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        module = native.load(compiler="/nonexistent/cc", dirs=[tmp_path])
    assert module is None
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "/nonexistent/cc" in str(caught[0].message)

    monkeypatch.setattr(native, "deferred", module)
    assert config.curve.resolved_backend() == "python"
    assert isinstance(contract.get_kernel("numpy"), PythonKernel)
    assert repro.optimize(net, config=config).signature == compiled


def test_unwritable_first_directory_builds_in_the_next(tmp_path):
    if _cannot_build():
        pytest.skip("no C compiler or Python.h on this host")
    blocked = tmp_path / "a-file"
    blocked.write_text("")
    cache = tmp_path / "cache"
    module = native.load(dirs=[blocked / "pycache", cache])
    assert module is not None
    assert os.path.dirname(module.__file__) == str(cache)


_CONCURRENT_LOAD = """
import sys
from repro.curves import native

print(native.load(dirs=[sys.argv[1]]).__file__)
"""


def test_concurrent_first_imports_load_one_artifact(tmp_path):
    """Four processes find an empty cache at once: one builds under the
    lock, the others wait for it, and all load the same complete file."""
    if _cannot_build():
        pytest.skip("no C compiler or Python.h on this host")
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))}
    procs = [subprocess.Popen(
        [sys.executable, "-c", _CONCURRENT_LOAD, str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        for _ in range(4)]
    outputs = [proc.communicate(timeout=300) for proc in procs]
    assert [proc.returncode for proc in procs] == [0] * 4, outputs
    paths = {out.strip() for out, _ in outputs}
    assert len(paths) == 1
    built = sorted(p.name for p in tmp_path.iterdir()
                   if not p.name.endswith(".lock"))
    assert built == [os.path.basename(paths.pop())]
