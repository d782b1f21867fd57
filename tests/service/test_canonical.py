"""Canonical-key semantics: what must collide, what must not."""

from __future__ import annotations

import dataclasses
import json

import pytest

from tests.conftest import build_net
from repro.core.config import MerlinConfig
from repro.core.objective import Objective
from repro.instrument import Recorder
from repro.net import Net, Sink, make_net, net_from_dict, net_to_dict
from repro.service.canonical import (
    canonical_key,
    canonical_net_dict,
    canonical_request,
    technology_fingerprint,
)
from repro.tech.technology import default_technology

TECH = default_technology()
CONFIG = MerlinConfig.test_preset()


def _key(net, config=CONFIG, tech=TECH, objective=None):
    return canonical_key(net, tech, config, objective)


def test_identical_net_same_key():
    assert _key(build_net(4, seed=1)) == _key(build_net(4, seed=1))


def test_translation_equivalent_nets_collide():
    net = build_net(4, seed=3)
    moved = Net(
        name=net.name,
        source=net.source.translated(1234.5, -67.25),
        sinks=tuple(
            Sink(s.name, s.position.translated(1234.5, -67.25), s.load,
                 s.required_time)
            for s in net.sinks
        ),
    )
    assert _key(net) == _key(moved)


def test_rename_equivalent_nets_collide():
    net = build_net(3, seed=9, name="alpha")
    renamed = Net(
        name="omega",
        source=net.source,
        sinks=tuple(
            Sink(f"zz{i}", s.position, s.load, s.required_time)
            for i, s in enumerate(net.sinks)
        ),
    )
    assert _key(net) == _key(renamed)


def test_json_round_trip_collides_with_original():
    """Int-coordinate nets and their float twins share one key."""
    net = make_net("ints", (10, 0), [(901, 300, 12, 900)])
    round_tripped = net_from_dict(json.loads(json.dumps(net_to_dict(net))))
    assert _key(net) == _key(round_tripped)


def test_sink_attribute_changes_split_the_key():
    base = build_net(3, seed=2)
    def tweak(**changes):
        first = base.sinks[0]
        sink = Sink(
            name=first.name,
            position=changes.get("position", first.position),
            load=changes.get("load", first.load),
            required_time=changes.get("required_time",
                                      first.required_time),
        )
        return Net(name=base.name, source=base.source,
                   sinks=(sink,) + base.sinks[1:])

    assert _key(base) != _key(tweak(load=base.sinks[0].load + 1.0))
    assert _key(base) != _key(tweak(required_time=0.0))
    assert _key(base) != _key(
        tweak(position=base.sinks[0].position.translated(1.0, 0.0)))


def test_sink_order_is_part_of_the_key():
    base = build_net(3, seed=2)
    reordered = Net(name=base.name, source=base.source,
                    sinks=base.sinks[::-1])
    assert _key(base) != _key(reordered)


def test_driver_overrides_split_the_key():
    base = build_net(3, seed=2)
    driven = Net(name=base.name, source=base.source, sinks=base.sinks,
                 driver_resistance=0.5)
    assert _key(base) != _key(driven)


def test_config_knobs_split_the_key():
    net = build_net(3, seed=2)
    assert _key(net, config=CONFIG) != \
        _key(net, config=CONFIG.with_(alpha=CONFIG.alpha + 1))
    assert _key(net, config=CONFIG) != \
        _key(net, config=CONFIG.with_(max_iterations=99))


def test_scheduling_knobs_do_not_split_the_key():
    """workers/recorder/backend are not part of the problem."""
    net = build_net(3, seed=2)
    assert _key(net, config=CONFIG) == \
        _key(net, config=CONFIG.with_(workers=8))
    assert _key(net, config=CONFIG) == \
        _key(net, config=CONFIG.with_(recorder=Recorder()))
    # CONFIG runs the default "numpy" kernel; the other one must hit too.
    python = CONFIG.with_(
        curve=dataclasses.replace(CONFIG.curve, backend="python"))
    assert python.curve.backend != CONFIG.curve.backend
    assert _key(net, config=CONFIG) == _key(net, config=python)


def test_technology_splits_the_key():
    net = build_net(3, seed=2)
    thin = TECH.with_buffers(TECH.buffers.subset(2))
    assert _key(net) != _key(net, tech=thin)
    assert technology_fingerprint(TECH) != technology_fingerprint(thin)


def test_objective_splits_the_key():
    net = build_net(3, seed=2)
    assert _key(net, objective=Objective.max_required_time()) != \
        _key(net, objective=Objective.min_area(required_time_floor=0.0))


def test_canonical_request_is_json_serializable():
    net = build_net(3, seed=2)
    request = canonical_request(net, TECH, CONFIG,
                                Objective.max_required_time())
    json.dumps(request)  # must not raise (infinities are stringified)
    assert request["net"] == canonical_net_dict(net)


def test_canonical_net_dict_is_source_relative():
    net = build_net(3, seed=4)
    canonical = canonical_net_dict(net)
    dx = net.sinks[0].position.x - net.source.x
    assert canonical["sinks"][0][0] == pytest.approx(dx, abs=1e-6)
    assert canonical["sinks"][0][0] == round(dx, 6)
