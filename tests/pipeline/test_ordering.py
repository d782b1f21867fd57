"""Tests for the pluggable net-ordering policy registry."""

from __future__ import annotations

import pytest

from repro.core.config import MerlinConfig
from repro.netlist.generator import CircuitSpec, generate_circuit
from repro.netlist.placement import place_netlist
from repro.netlist.sta import run_sta
from repro.pipeline import learned
from repro.pipeline.ordering import (
    FEATURE_NAMES,
    ORDERING_POLICIES,
    NetFeatures,
    OrderingPolicy,
    available_orderings,
    build_context,
    get_ordering,
    net_features,
    register_ordering,
)
from repro.resilience.errors import MerlinInputError
from repro.tech.technology import default_technology

TECH = default_technology()
SPEC = CircuitSpec(name="ordering", primary_inputs=5, primary_outputs=4,
                   logic_gates=16, levels=4, max_fanout=5, seed=13)


@pytest.fixture(scope="module")
def context():
    netlist = generate_circuit(SPEC)
    place_netlist(netlist)
    estimate = run_sta(netlist, TECH)
    sta = run_sta(netlist, TECH, target=0.88 * estimate.critical_delay)
    candidates = [n for n in netlist.nets if len(n.sinks) >= 2]
    assert len(candidates) >= 4, "spec too small for ranking tests"
    return build_context(netlist, sta, candidates)


class TestRegistry:
    def test_builtins_are_registered(self):
        assert {"criticality", "fanout", "slack_weighted",
                "learned"} <= set(available_orderings())

    def test_get_ordering_returns_named_singletons(self):
        for name in available_orderings():
            policy = get_ordering(name)
            assert policy.name == name
            assert policy is ORDERING_POLICIES[name]
            assert policy.describe  # every policy documents itself

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(MerlinInputError, match="criticality"):
            get_ordering("bogus")

    def test_duplicate_registration_raises(self):
        with pytest.raises(MerlinInputError, match="already registered"):
            @register_ordering("fanout")
            class Impostor(OrderingPolicy):
                def score(self, features):
                    return 0.0

    def test_same_class_reregistration_is_a_noop(self):
        # `python -m repro.pipeline.learned` executes the module twice
        # (once as itself, once as __main__); the second registration of
        # the *same* class must not explode or replace the singleton.
        before = ORDERING_POLICIES["fanout"]
        cls = type(before)
        register_ordering("fanout")(cls)
        assert ORDERING_POLICIES["fanout"] is before


class TestFeatures:
    def test_feature_vector_matches_declared_order(self, context):
        record = next(iter(context.features.values()))
        vector = record.vector()
        assert len(vector) == len(FEATURE_NAMES)
        assert vector[FEATURE_NAMES.index("fanout")] == record.fanout
        assert vector[FEATURE_NAMES.index("span")] == record.span

    def test_features_reflect_the_netlist(self, context):
        for name in context.candidates:
            net = next(n for n in context.netlist.nets if n.name == name)
            record = context.features[name]
            assert record.fanout == len(net.sinks)
            assert record.span >= 0.0
            assert record.total_sink_load > 0.0
            assert record.driver_resistance > 0.0
            assert record.min_sink_slack >= record.driver_slack - 1e9

    def test_net_features_standalone_matches_context(self, context):
        net = next(n for n in context.netlist.nets
                   if n.name == context.candidates[0])
        assert net_features(context.netlist, net,
                            context.sta) == context.features[net.name]


class TestRanking:
    @pytest.mark.parametrize("name", ["criticality", "fanout",
                                      "slack_weighted", "learned"])
    def test_rank_is_a_deterministic_permutation(self, context, name):
        policy = get_ordering(name)
        first = policy.rank(context)
        assert sorted(first) == sorted(context.candidates)
        assert policy.rank(context) == first

    def test_criticality_puts_the_latest_driver_first(self, context):
        ranked = get_ordering("criticality").rank(context)
        slacks = [context.features[n].driver_slack for n in ranked]
        # Most negative slack first; the tiny fanout tie-break may swap
        # nets whose slacks agree to float noise, hence the tolerance.
        assert all(slacks[i] <= slacks[i + 1] + 1e-3
                   for i in range(len(slacks) - 1))

    def test_fanout_orders_by_sink_count(self, context):
        ranked = get_ordering("fanout").rank(context)
        fanouts = [context.features[n].fanout for n in ranked]
        assert fanouts == sorted(fanouts, reverse=True)

    def test_ties_break_on_net_name(self):
        features = {
            name: NetFeatures(name=name, fanout=3, driver_slack=-5.0,
                              min_sink_slack=-1.0, span=100.0,
                              total_sink_load=30.0, driver_resistance=8.0)
            for name in ("z_net", "a_net", "m_net")
        }
        from repro.pipeline.ordering import OrderingContext

        ctx = OrderingContext(netlist=None, sta=None,
                              candidates=list(features), features=features)
        assert get_ordering("fanout").rank(ctx) == \
            ["a_net", "m_net", "z_net"]


class TestLearnedModel:
    def test_load_weights_falls_back_on_missing_file(self, tmp_path):
        weights = learned.load_weights(str(tmp_path / "missing.json"))
        assert weights.features == tuple(FEATURE_NAMES)

    def test_from_dict_rejects_wrong_version(self):
        record = learned.load_weights().to_dict()
        record["version"] = 999
        with pytest.raises(ValueError, match="incompatible"):
            learned.LearnedWeights.from_dict(record)

    def test_committed_weights_load_and_round_trip(self):
        weights = learned.load_weights()
        again = learned.LearnedWeights.from_dict(weights.to_dict())
        assert again == weights

    def test_train_recovers_a_linear_model(self):
        # Labels generated by a known linear rule must be fit (almost)
        # exactly — ridge lambda is tiny and the system is well-posed.
        true_coef = [2.0, -1.0, 0.5, 3.0, 0.0, 1.5]
        samples = [[float((i * (j + 3)) % 7) + (0.1 * j if i == j else 0.0)
                    for j in range(6)] for i in range(40)]
        labels = [10.0 + sum(c * x for c, x in zip(true_coef, row))
                  for row in samples]
        weights = learned.train(samples, labels)
        for row, label in zip(samples, labels):
            assert weights.predict(row) == pytest.approx(label, abs=1e-3)

    def test_train_rejects_misaligned_input(self):
        with pytest.raises(ValueError):
            learned.train([[1.0] * 6], [])

    def test_solve_raises_on_singular_system(self):
        with pytest.raises(ValueError, match="singular"):
            learned._solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0])

    def test_save_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "weights.json")
        weights = learned.load_weights()
        learned.save_weights(weights, path)
        assert learned.load_weights(path) == weights

    def test_learned_policy_scores_with_lateness_boost(self, context):
        policy = get_ordering("learned")
        record = next(iter(context.features.values()))
        base = policy.weights.predict(record.vector())
        import dataclasses

        late = dataclasses.replace(record, driver_slack=record.driver_slack)
        assert policy.score(late) == pytest.approx(
            base + max(0.0, -record.driver_slack))
