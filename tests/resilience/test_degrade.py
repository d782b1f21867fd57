"""The degradation ladder: rung selection, budgets, determinism."""

from __future__ import annotations

import importlib

import pytest

from tests.conftest import build_net
from repro.baselines.star import buffered_star
from repro.core.config import MerlinConfig
from repro.core.merlin import merlin
from repro.instrument import Recorder, names as metric, use_recorder
from repro.resilience.budget import ComputeBudget
from repro.resilience.degrade import (
    LADDER_RUNGS,
    RUNG_COARSE,
    RUNG_SINGLE_START,
    RUNG_STAR,
    coarsened_config,
    run_with_ladder,
)
from repro.resilience.errors import MerlinInputError
from repro.routing.export import tree_signature
from repro.routing.validate import validate_tree
from repro.tech.technology import default_technology

TECH = default_technology()
CONFIG = MerlinConfig.test_preset()
NET = build_net(4, seed=17)


def test_unbudgeted_ladder_is_bit_identical_to_plain_merlin():
    outcome = run_with_ladder(NET, TECH, config=CONFIG)
    direct = merlin(NET, TECH, config=CONFIG)
    assert outcome.rung == RUNG_SINGLE_START
    assert not outcome.degraded and outcome.reason is None
    assert outcome.signature == tree_signature(direct.tree)
    assert outcome.cost_trace == direct.cost_trace
    assert outcome.iterations == direct.iterations


def test_exhausted_budget_degrades_to_the_star_floor():
    budget = ComputeBudget(max_ops=1)
    outcome = run_with_ladder(NET, TECH, config=CONFIG, budget=budget)
    assert outcome.degraded
    assert outcome.rung == RUNG_STAR
    assert outcome.signature == tree_signature(buffered_star(NET, TECH))
    validate_tree(outcome.tree)
    # Both DP rungs are in the attempt log, in ladder order.
    assert [a["rung"] for a in outcome.attempts] == [
        RUNG_SINGLE_START, RUNG_COARSE]
    assert all(a["error"]["kind"] == "BudgetExhaustedError"
               for a in outcome.attempts)
    assert RUNG_SINGLE_START in outcome.reason
    assert RUNG_COARSE in outcome.reason


def test_degraded_outcome_is_deterministic_under_a_fixed_cap():
    def run(cap):
        outcome = run_with_ladder(NET, TECH, config=CONFIG,
                                  budget=ComputeBudget(max_ops=cap))
        return (outcome.rung, outcome.degraded, outcome.signature,
                outcome.reason)

    assert run(1) == run(1)
    assert run(25) == run(25)


def test_intermediate_cap_lands_on_the_coarse_rung():
    # Measure what each DP rung actually costs, then pick a cap that
    # starves single_start but feeds coarse_curves — the mid-ladder
    # landing must follow deterministically.  The fast preset (not the
    # already-minimal test preset) leaves coarsening room to bite.
    config = MerlinConfig()
    full_budget = ComputeBudget(max_ops=None)
    merlin(NET, TECH, config=config.with_(budget=full_budget))
    coarse_budget = ComputeBudget(max_ops=None)
    merlin(NET, TECH,
           config=coarsened_config(config).with_(budget=coarse_budget))
    assert coarse_budget.ops < full_budget.ops, (
        "coarsening must shrink the op count for this test to mean "
        "anything")
    cap = coarse_budget.ops  # charge() trips strictly past the cap
    outcome = run_with_ladder(NET, TECH, config=config,
                              budget=ComputeBudget(max_ops=cap))
    assert outcome.rung == RUNG_COARSE
    assert outcome.degraded
    assert [a["rung"] for a in outcome.attempts] == [RUNG_SINGLE_START]
    validate_tree(outcome.tree)


def test_input_errors_propagate_instead_of_degrading(monkeypatch):
    # The module, not the ``repro.core.merlin`` function re-exported
    # under the same name by ``repro.core``.
    merlin_module = importlib.import_module("repro.core.merlin")

    def rejecting_merlin(*args, **kwargs):
        raise MerlinInputError("net rejected by the engine", stage="net")

    # The rungs import merlin at call time, so every DP rung sees this.
    monkeypatch.setattr(merlin_module, "merlin", rejecting_merlin)
    with pytest.raises(MerlinInputError, match="rejected by the engine"):
        run_with_ladder(NET, TECH, config=CONFIG)


def test_degradation_is_instrumented():
    recorder = Recorder()
    with use_recorder(recorder):
        run_with_ladder(NET, TECH, config=CONFIG,
                        budget=ComputeBudget(max_ops=1))
    report = recorder.report()
    assert report["counters"][metric.RESILIENCE_DEGRADED] == 1
    assert report["counters"][metric.RESILIENCE_BUDGET_EXHAUSTED] == 2
    events = report["events"].get(metric.EVENT_DEGRADATION, [])
    assert len(events) == 1
    assert events[0]["rung"] == RUNG_STAR


def test_coarsened_config_cuts_every_pseudo_polynomial_knob():
    coarse = coarsened_config(CONFIG)
    assert coarse.curve.load_step == CONFIG.curve.load_step * 4
    assert coarse.curve.area_step == CONFIG.curve.area_step * 4
    assert coarse.curve.max_solutions <= 4
    assert coarse.max_iterations == 1
    assert coarse.alpha <= 3
    assert coarse.max_candidates <= 5
    assert coarse.library_subset <= 3
    assert len(coarse.wire_width_options) == 1


def test_ladder_rung_names_are_stable_api():
    assert LADDER_RUNGS == ("single_start", "coarse_curves",
                            "buffered_star")
