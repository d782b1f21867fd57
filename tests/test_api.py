"""The ``repro.optimize`` facade: routing, parity, and guard rails."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

import repro
from tests.conftest import build_net
from repro.core.config import MerlinConfig
from repro.core.merlin import merlin
from repro.core.objective import Objective
from repro.curves import kernels
from repro.routing.export import tree_signature
from repro.service import OptimizationService, ResultCache
from repro.tech.technology import default_technology

TECH = default_technology()
CONFIG = MerlinConfig.test_preset()
OBJECTIVE = Objective.max_required_time()

GOLDENS_PATH = os.path.join(os.path.dirname(__file__), "golden",
                            "goldens.json")
with open(GOLDENS_PATH, encoding="utf-8") as _handle:
    GOLDENS = json.load(_handle)

#: Mirrors tests/golden/test_golden_regression.py — the facade must be
#: indistinguishable from the engine on the pinned cases.
CASES = (
    ("golden_3s", 3, 11),
    ("golden_4s", 4, 42),
    ("golden_5s", 5, 5),
    ("golden_6s", 6, 7),
)


# ----------------------------------------------------------------------
# Default path: facade == bare merlin(), bit for bit
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name,sinks,seed", CASES)
def test_facade_matches_merlin_on_golden_nets(name, sinks, seed):
    net = build_net(sinks, seed=seed, name=name)
    outcome = repro.optimize(net, TECH, CONFIG, objective=OBJECTIVE)
    direct = merlin(net, TECH, config=CONFIG, objective=OBJECTIVE)
    assert outcome.source == "merlin"
    assert outcome.signature == tree_signature(direct.tree)
    assert outcome.signature == GOLDENS[name]["signature"]
    assert outcome.cost == OBJECTIVE.cost(direct.best.solution)
    assert outcome.iterations == direct.iterations
    assert outcome.converged == direct.converged
    assert outcome.evaluation  # Elmore metrics come along for free


def test_facade_defaults_match_bare_merlin_defaults():
    net = build_net(3, seed=21)
    outcome = repro.optimize(net, TECH, CONFIG)
    direct = merlin(net, TECH, config=CONFIG)
    assert outcome.signature == tree_signature(direct.tree)


def test_initial_order_is_forwarded():
    from repro.orders.order import Order

    net = build_net(4, seed=22)
    order = Order((2, 0, 3, 1))
    outcome = repro.optimize(net, TECH, CONFIG, initial_order=order)
    direct = merlin(net, TECH, config=CONFIG, initial_order=order)
    assert outcome.signature == tree_signature(direct.tree)


# ----------------------------------------------------------------------
# Multi-start path
# ----------------------------------------------------------------------

def test_multi_start_matches_run_multi_start():
    from repro import parallel

    net = build_net(4, seed=23)
    outcome = repro.optimize(net, TECH, CONFIG, multi_start=3, workers=1)
    direct = parallel.run_multi_start(
        net, TECH, config=CONFIG, seeds=[None, 1, 2], workers=1)
    assert outcome.source == "multi_start"
    assert outcome.signature == direct.best.signature
    assert outcome.cost == direct.best.cost


def test_explicit_seeds_path():
    from repro import parallel

    net = build_net(4, seed=24)
    outcome = repro.optimize(net, TECH, CONFIG, seeds=[None, 7], workers=1)
    direct = parallel.run_multi_start(
        net, TECH, config=CONFIG, seeds=[None, 7], workers=1)
    assert outcome.signature == direct.best.signature


def test_multi_start_never_loses_to_single_run():
    net = build_net(5, seed=25)
    single = repro.optimize(net, TECH, CONFIG)
    multi = repro.optimize(net, TECH, CONFIG, multi_start=3, workers=1)
    assert multi.cost <= single.cost


def test_multi_start_validation():
    net = build_net(3, seed=26)
    with pytest.raises(ValueError):
        repro.optimize(net, TECH, CONFIG, multi_start=0)
    from repro.orders.order import Order
    with pytest.raises(ValueError, match="initial_order conflicts"):
        repro.optimize(net, TECH, CONFIG, multi_start=2,
                       initial_order=Order((0, 1, 2)))


# ----------------------------------------------------------------------
# Service path
# ----------------------------------------------------------------------

def test_service_path_round_trips_through_the_cache():
    net = build_net(3, seed=27)
    with OptimizationService(tech=TECH, config=CONFIG,
                             cache=ResultCache(), workers=1) as service:
        cold = repro.optimize(net, service=service)
        warm = repro.optimize(net, service=service)
    assert cold.source == "service" and not cold.cached
    assert warm.source == "service-cache" and warm.cached
    assert warm.signature == cold.signature
    # ... and agrees bit for bit with a bare engine run.
    direct = merlin(net, TECH, config=CONFIG)
    assert cold.signature == tree_signature(direct.tree)


def test_service_path_rejects_conflicting_arguments():
    net = build_net(3, seed=27)
    with OptimizationService(tech=TECH, config=CONFIG,
                             cache=ResultCache(), workers=1) as service:
        with pytest.raises(ValueError, match="service's own"):
            repro.optimize(net, TECH, service=service)
        with pytest.raises(ValueError, match="service's own"):
            repro.optimize(net, config=CONFIG, service=service)
        with pytest.raises(ValueError, match="do not apply"):
            repro.optimize(net, service=service, multi_start=2)


def test_service_path_surfaces_failures():
    from repro.service import engine as engine_mod

    def _boom(job):
        raise RuntimeError("injected")

    net = build_net(3, seed=28)
    with OptimizationService(tech=TECH, config=CONFIG,
                             cache=ResultCache(), workers=1) as service:
        original = engine_mod._JOB_RUNNER
        engine_mod._JOB_RUNNER = _boom
        try:
            with pytest.raises(RuntimeError, match="failed"):
                repro.optimize(net, service=service)
        finally:
            engine_mod._JOB_RUNNER = original


# ----------------------------------------------------------------------
# Public surface
# ----------------------------------------------------------------------

def test_facade_is_exported_at_top_level():
    assert repro.optimize is not None
    assert "optimize" in repro.__all__
    assert "OptimizationService" in repro.__all__
    assert "ResultCache" in repro.__all__


# ----------------------------------------------------------------------
# MerlinConfig.backend promotion (satellite)
# ----------------------------------------------------------------------

def test_config_backend_none_keeps_curve_backend():
    config = MerlinConfig.test_preset()
    assert config.backend is None
    expected = "numpy" if kernels.numpy_available() else "python"
    assert config.curve.backend == expected
    assert MerlinConfig().curve.resolved_backend() == expected


def test_default_backend_without_numpy_is_python_and_silent(monkeypatch,
                                                            caplog):
    """With NumPy absent the default names python outright, so it never
    takes the numpy-requested fallback or logs its warning."""
    monkeypatch.setattr(kernels, "_np", None)
    monkeypatch.setattr(kernels, "_fallback_logged", False)
    with caplog.at_level("WARNING", logger="repro.curves.kernels"):
        config = MerlinConfig()
        assert config.curve.backend == "python"
        assert config.curve.resolved_backend() == "python"
        assert MerlinConfig.test_preset().curve.resolved_backend() == "python"
    assert not caplog.records


def test_config_backend_normalizes_into_curve():
    config = MerlinConfig.test_preset().with_(backend="python")
    assert config.curve.backend == "python"
    if kernels.numpy_available():
        fast = MerlinConfig.test_preset().with_(backend="numpy")
        assert fast.curve.backend == "numpy"


def test_config_backend_overrides_curve_setting():
    base = MerlinConfig.test_preset()
    curve = dataclasses.replace(base.curve, backend="numpy")
    config = base.with_(curve=curve, backend="python")
    assert config.curve.backend == "python"


def test_config_backend_validation():
    with pytest.raises(ValueError):
        MerlinConfig.test_preset().with_(backend="fortran")


def test_config_workers_field():
    assert MerlinConfig().workers == 1
    assert MerlinConfig().with_(workers=4).workers == 4
