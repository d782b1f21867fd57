"""Answer checking and ``error_frac`` accounting on real answers."""

import pytest

import checks
import common
from metrics import Tally
from serve_load import Reply, check_replies

common.import_program()

from repro.core.config import MerlinConfig  # noqa: E402
from repro.experiments.nets import make_experiment_net  # noqa: E402
from repro.net import net_to_dict  # noqa: E402
from repro.service import OptimizationService  # noqa: E402
from repro.tech.technology import default_technology  # noqa: E402


@pytest.fixture(scope="module")
def answered():
    net = make_experiment_net("n0", 3, seed=5)
    service = OptimizationService(config=MerlinConfig.test_preset())
    result = service.optimize(net)
    return net, result


def request(net, kind="fresh", base=0):
    return {"path": "/v1/optimize", "body": {"net": net_to_dict(net)},
            "kind": kind, "base": base}


def test_refused_transport_and_wrong_signature_each_count_once(answered):
    net, result = answered
    payload = result.to_dict()
    requests = [request(net), request(net, "repeat"), request(net, "repeat"),
                request(net, "repeat")]
    replies = {0: Reply(0.01, 200, 0, payload),
               1: Reply(0.01, 429, 3, None, "request queue full"),
               2: Reply(0.01, error="connection refused"),
               3: Reply(0.01, 200, 0, payload)}
    wrong = [["0" * 24, result.cost]]
    tally = Tally()
    check_replies(tally, default_technology(), requests, replies, wrong)
    assert tally.attempted == 4
    assert sorted(tally.failures) == ["request0", "request1", "request2",
                                      "request3"]
    assert tally.failed == 4

    right = [[checks.signature_digest(result.signature), result.cost]]
    tally = Tally()
    check_replies(tally, default_technology(), requests, replies, right)
    assert sorted(tally.failures) == ["request1", "request2"]


def test_a_tampered_evaluation_and_a_split_class_are_caught(answered):
    net, result = answered
    good = result.to_dict()
    bad = dict(good, evaluation=dict(good["evaluation"], delay=-1.0))
    other = dict(good, tree_signature=good["tree_signature"] + "x")
    requests = [request(net), request(net, "twin"), request(net, "repeat")]
    replies = {0: Reply(0.01, 200, 0, good), 1: Reply(0.01, 200, 0, bad),
               2: Reply(0.01, 200, 0, other)}
    tally = Tally()
    check_replies(tally, default_technology(), requests, replies, None)
    assert sorted(tally.failures) == ["request1", "request2"]
    assert any("evaluation" in r for r in tally.failures["request1"])
    assert any("class" in r for r in tally.failures["request2"])
