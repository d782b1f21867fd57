"""Tests for repro.core.bubble_construct — the paper's lemmas, empirically.

The heavyweight checks (neighborhood containment, bubbling superiority,
evaluator agreement) run on small nets with the test preset so the whole
module stays fast.
"""

import pytest

from repro.core.bubble_construct import bubble_construct, make_context
from repro.core.config import MerlinConfig
from repro.curves.curve import CurveConfig
from repro.core.objective import Objective
from repro.orders.neighborhood import in_neighborhood
from repro.orders.order import Order
from repro.orders.tsp import tsp_order
from repro.routing.evaluate import evaluate_tree
from repro.routing.validate import validate_tree
from repro.tech.technology import default_technology
from tests.conftest import build_net

TECH = default_technology()


@pytest.fixture(scope="module")
def cfg():
    return MerlinConfig.test_preset()


def run_bc(net, cfg, order=None, **kwargs):
    order = order or tsp_order(net)
    return bubble_construct(net, order, TECH, config=cfg, **kwargs)


class TestBasics:
    def test_single_sink_net(self, cfg):
        net = build_net(1, seed=0)
        result = run_bc(net, cfg)
        validate_tree(result.tree)
        assert list(result.order_out) == [0]

    def test_two_sink_net(self, cfg):
        net = build_net(2, seed=1)
        result = run_bc(net, cfg)
        validate_tree(result.tree)
        assert sorted(result.order_out) == [0, 1]

    def test_tree_is_valid_and_complete(self, cfg):
        net = build_net(5, seed=3)
        result = run_bc(net, cfg)
        validate_tree(result.tree)

    def test_order_size_mismatch_rejected(self, cfg):
        net = build_net(3, seed=2)
        with pytest.raises(ValueError):
            bubble_construct(net, Order.identity(4), TECH, config=cfg)

    def test_final_curve_is_non_inferior(self, cfg):
        net = build_net(4, seed=5)
        result = run_bc(net, cfg)
        finals = result.final_solutions
        for i, a in enumerate(finals):
            for j, b in enumerate(finals):
                if i != j:
                    assert not a.dominates(b) or a.key() == b.key()

    def test_deterministic(self, cfg):
        net = build_net(4, seed=9)
        a = run_bc(net, cfg)
        b = run_bc(net, cfg)
        assert a.solution.required_time == b.solution.required_time
        assert list(a.order_out) == list(b.order_out)


class TestLemma5NeighborhoodContainment:
    """Any order BUBBLE_CONSTRUCT realizes is in N(initial order)."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_order_out_in_neighborhood(self, cfg, seed):
        net = build_net(5, seed=seed)
        order = tsp_order(net)
        result = run_bc(net, cfg, order=order)
        assert in_neighborhood(result.order_out, order)

    def test_every_final_solution_in_neighborhood(self, cfg):
        """Not just the winner: every curve point's order qualifies."""
        from repro.routing.builder import build_tree
        from repro.routing.sink_order import extract_sink_order

        net = build_net(4, seed=7)
        order = tsp_order(net)
        result = run_bc(net, cfg, order=order)
        for solution in result.final_solutions:
            tree = build_tree(net, solution)
            realized = Order.from_sequence(extract_sink_order(tree))
            assert in_neighborhood(realized, order)


class TestDpMatchesEvaluator:
    """The DP's bookkeeping equals independent Elmore re-evaluation."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_required_time_and_area_agree(self, cfg, seed):
        net = build_net(4, seed=seed)
        result = run_bc(net, cfg)
        # Evaluate with the same thinned library technology the DP used.
        lib = TECH.buffers.subset(cfg.library_subset)
        ev = evaluate_tree(result.tree, TECH.with_buffers(lib))
        assert ev.required_time_at_driver == pytest.approx(
            result.solution.required_time, abs=1e-6)
        assert ev.buffer_area == pytest.approx(result.solution.area)


class TestBubblingSubsumption:
    """With bubbling, the optimum can only improve (χ0 space ⊂ full).

    Strict subsumption only holds for (near-)exact curves: coarse
    quantization keeps per-bucket incumbents whose *raw* loads differ, so
    downstream results are not monotone in the search space.  These tests
    therefore run a fine-bucket, no-thinning configuration on small nets
    (fast, because the tiny library bounds curve growth).
    """

    EXACT = MerlinConfig.test_preset().with_(
        curve=CurveConfig(load_step=0.01, area_step=0.5,
                          max_solutions=100000),
        library_subset=2,
        max_candidates=5,
    )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_bubbling_not_worse(self, seed):
        net = build_net(4, seed=seed)
        order = tsp_order(net)
        off = bubble_construct(net, order, TECH,
                               config=self.EXACT.with_(enable_bubbling=False))
        on = bubble_construct(net, order, TECH, config=self.EXACT)
        assert on.solution.required_time >= \
            off.solution.required_time - 1e-9

    def test_bubbling_strictly_improves_somewhere(self):
        """The neighborhood must beat the fixed order on some seeds
        (seeds 3 and 4 do with the exact configuration)."""
        improved = 0
        for seed in range(6):
            net = build_net(4, seed=seed)
            order = tsp_order(net)
            off = bubble_construct(
                net, order, TECH,
                config=self.EXACT.with_(enable_bubbling=False))
            on = bubble_construct(net, order, TECH, config=self.EXACT)
            if on.solution.required_time > off.solution.required_time + 1e-9:
                improved += 1
        assert improved >= 1


class TestObjectiveVariants:
    def test_area_budget_respected(self, cfg):
        net = build_net(4, seed=13)
        unconstrained = run_bc(net, cfg)
        budget = max(0.0, unconstrained.solution.area / 2)
        constrained = run_bc(
            net, cfg,
            objective=Objective.max_required_time(area_budget=budget))
        if constrained.constraint_met:
            assert constrained.solution.area <= budget + 1e-9

    def test_min_area_variant_reduces_area(self, cfg):
        net = build_net(4, seed=13)
        best_delay = run_bc(net, cfg)
        floor = best_delay.solution.required_time - 200.0
        min_area = run_bc(net, cfg,
                          objective=Objective.min_area(floor))
        assert min_area.solution.area <= best_delay.solution.area + 1e-9
        if min_area.constraint_met:
            assert min_area.solution.required_time >= floor - 1e-9

    def test_unconstrained_objective_maximizes_required_time(self, cfg):
        net = build_net(4, seed=17)
        result = run_bc(net, cfg)
        best = max(s.required_time for s in result.final_solutions)
        assert result.solution.required_time == pytest.approx(best)


class TestStats:
    def test_stats_populated(self, cfg):
        net = build_net(4, seed=3)
        result = run_bc(net, cfg)
        assert result.stats["cells"] > 0
        assert result.stats["ranges"] > 0
        assert result.stats["levels"] > 0

    def test_range_memo_shares_across_iterations(self, cfg):
        """Reusing the context makes later runs cheaper (Lemma 7 sharing)."""
        net = build_net(5, seed=3)
        context = make_context(net, TECH, cfg)
        order = tsp_order(net)
        first = bubble_construct(net, order, TECH, config=cfg,
                                 context=context)
        second = bubble_construct(net, order, TECH, config=cfg,
                                  context=context)
        assert second.stats["ranges"] <= first.stats["ranges"]


class TestGammaMemo:
    """Cross-iteration Γ-cell reuse keyed on leaf-content fingerprints."""

    def test_unchanged_net_reuses_every_parent_cell(self, cfg):
        net = build_net(5, seed=3)
        context = make_context(net, TECH, cfg)
        order = tsp_order(net)
        first = bubble_construct(net, order, TECH, config=cfg,
                                 context=context)
        second = bubble_construct(net, order, TECH, config=cfg,
                                  context=context)
        # Every multi-sink cell comes from the memo; only the single-sink
        # initialization cells are (re)counted as computed.
        assert second.stats["gamma_memo_hits"] > 0
        assert second.stats["cells"] + second.stats["gamma_memo_hits"] \
            == first.stats["cells"]
        assert second.solution.required_time == first.solution.required_time
        assert list(second.order_out) == list(first.order_out)

    def test_single_leaf_change_invalidates_only_its_cells(self, cfg):
        """Changing exactly one sink's required time must recompute the
        cells whose member set contains that sink — and only those —
        while producing bit-identical results to a cold context."""
        from dataclasses import replace

        from repro.net import Net

        net = build_net(5, seed=3)
        order = tsp_order(net)
        context = make_context(net, TECH, cfg)
        first = bubble_construct(net, order, TECH, config=cfg,
                                 context=context)
        warm_same = bubble_construct(net, order, TECH, config=cfg,
                                     context=context)
        full_hits = warm_same.stats["gamma_memo_hits"]

        # Same geometry (the candidate set is unchanged), one sink's
        # timing perturbed: its fingerprint — and only its — changes.
        sinks = list(net.sinks)
        sinks[2] = replace(sinks[2],
                           required_time=sinks[2].required_time - 150.0)
        changed = Net(name=net.name, source=net.source, sinks=tuple(sinks))

        warm = bubble_construct(changed, order, TECH, config=cfg,
                                context=context)
        # Cells not containing sink 2 still hit the memo...
        assert warm.stats["gamma_memo_hits"] > 0
        # ...while every cell containing it misses and recomputes.
        assert warm.stats["gamma_memo_hits"] < full_hits
        recomputed = full_hits - warm.stats["gamma_memo_hits"]
        assert recomputed > 0

        # Invalidation is sound: the warm result equals a cold run.
        cold = bubble_construct(changed, order, TECH, config=cfg,
                                context=make_context(changed, TECH, cfg))
        assert warm.solution.required_time == cold.solution.required_time
        assert warm.solution.load == cold.solution.load
        assert warm.solution.area == cold.solution.area
        assert list(warm.order_out) == list(cold.order_out)
        assert [(s.load, s.required_time, s.area)
                for s in warm.final_solutions] \
            == [(s.load, s.required_time, s.area)
                for s in cold.final_solutions]

        # And the perturbed entries stay: re-running the changed net
        # warm again is a full reuse.
        again = bubble_construct(changed, order, TECH, config=cfg,
                                 context=context)
        assert again.stats["gamma_memo_hits"] == full_hits

    def test_recorder_counts_each_memo_hit_once(self, cfg):
        from repro.instrument import Recorder
        from repro.instrument import names as metric

        net = build_net(6, seed=2)
        recorder = Recorder()
        config = cfg.with_(recorder=recorder)
        context = make_context(net, TECH, config)
        order = tsp_order(net)
        runs = [bubble_construct(net, order, TECH, config=config,
                                 context=context) for _ in range(2)]
        engine_hits = sum(run.stats["gamma_memo_hits"] for run in runs)
        assert engine_hits > 0
        assert recorder.counters[metric.BUBBLE_GAMMA_MEMO_HITS] \
            == engine_hits
