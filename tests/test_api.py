"""The ``repro.optimize`` facade: routing, parity, and guard rails."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import repro
from tests.conftest import build_net
from repro.core.config import MerlinConfig
from repro.core.merlin import merlin
from repro.core.objective import Objective
from repro.curves.curve import resolve_backend
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


def test_service_path_surfaces_failures(monkeypatch):
    from repro.service import engine as engine_mod

    def _boom(job):
        raise RuntimeError("injected")

    net = build_net(3, seed=28)
    monkeypatch.setattr(engine_mod, "_run_job", _boom)
    with OptimizationService(tech=TECH, config=CONFIG,
                             cache=ResultCache(), workers=1) as service:
        with pytest.raises(RuntimeError, match="failed"):
            repro.optimize(net, service=service)


# ----------------------------------------------------------------------
# Public surface
# ----------------------------------------------------------------------

def test_facade_is_exported_at_top_level():
    assert repro.optimize is not None
    assert "optimize" in repro.__all__
    assert "OptimizationService" in repro.__all__
    assert "ResultCache" in repro.__all__


# ----------------------------------------------------------------------
# The curve kernel is selected by CurveConfig.backend alone
# ----------------------------------------------------------------------

def test_config_backend_none_keeps_curve_backend():
    config = MerlinConfig.test_preset()
    assert "backend" not in {f.name for f in dataclasses.fields(config)}
    assert config.curve.backend == "numpy"
    # The python oracle runs where the compiled loops cannot be built.
    assert MerlinConfig().curve.resolved_backend() == \
        resolve_backend("numpy")


#: Run in a fresh interpreter: ``import repro`` and a 3-sink optimize on
#: the default backend and on python; argv[1] == "blocked" makes every
#: ``import numpy`` raise first.
_NUMPY_PROBE = """
import dataclasses
import json
import sys

if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
import repro
from repro.core.config import MerlinConfig
from repro.experiments.nets import make_experiment_net

net = make_experiment_net("np3", 3, seed=1)
config = MerlinConfig.test_preset()
default = repro.optimize(net, config=config)
python = repro.optimize(net, config=config.with_(
    curve=dataclasses.replace(config.curve, backend="python")))
print(json.dumps({
    "numpy_loaded": sys.modules.get("numpy") is not None,
    "backend": config.curve.backend,
    "resolved": config.curve.resolved_backend(),
    "default_signature": default.signature,
    "python_signature": python.signature,
}))
"""


@pytest.mark.parametrize("mode", ["importable", "blocked"])
def test_runtime_never_imports_numpy_and_runs_without_it(mode):
    """The program never imports NumPy; with its import blocked the
    default backend is still ``"numpy"`` and gives python's tree."""
    repro_root = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, mode],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": repro_root})
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["numpy_loaded"] is False
    assert report["backend"] == "numpy"
    assert report["resolved"] == resolve_backend("numpy")
    assert report["default_signature"] == report["python_signature"]


def test_config_backend_validation():
    config = MerlinConfig.test_preset()
    with pytest.raises(ValueError, match="unknown backend"):
        config.with_(curve=dataclasses.replace(config.curve,
                                               backend="fortran"))


def test_config_workers_field():
    assert MerlinConfig().workers == 1
    assert MerlinConfig().with_(workers=4).workers == 4
