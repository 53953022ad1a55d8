"""JSON round trips for networks, STNs, and strategies."""

import random
from fractions import Fraction

import pytest

from cstnu import Scenario, Strategy, check_dc, solve, to_stn
from cstnu.fixtures import tight_contingent_stnu
from cstnu.jsonio import (dumps, loads, network_from_dict, network_to_dict,
                          stn_to_dict, strategy_from_dict, strategy_to_dict)
from helpers import random_cstn, random_stnu


def test_network_round_trip():
    rng = random.Random(31)
    for net in (random_cstn(rng), random_stnu(rng), tight_contingent_stnu()):
        data = loads(dumps(network_to_dict(net)))
        assert network_from_dict(data) == net


def test_rationals_travel_as_strings():
    net = random_cstn(random.Random(2))
    data = network_to_dict(net)
    assert data["epsilon"] == "1/1000"
    assert all(isinstance(c["delta"], str) for c in data["constraints"])


def test_stn_to_dict_reuses_network_layout():
    net = tight_contingent_stnu()
    data = stn_to_dict(to_stn(net))
    assert data["links"] == [] and data["letters"] == []
    restored = network_from_dict(data)
    assert restored.kind == "stn"
    assert solve(to_stn(restored)).consistent


def test_strategy_round_trip_cstn():
    strategy = Strategy("cstn", {
        Scenario({"p": True}): {"Op": Fraction(0), "X": Fraction(3, 2)},
        Scenario({"p": False}): {"Op": Fraction(0)}})
    data = loads(dumps(strategy_to_dict(strategy)))
    back = strategy_from_dict(data)
    assert back.kind == "cstn"
    assert back.table == strategy.table


def test_strategy_round_trip_stnu_and_kind_inference():
    result = check_dc(random_stnu(random.Random(7), consistent=True))
    if result.strategy is None:
        return
    data = strategy_to_dict(result.strategy)
    back = strategy_from_dict(data)
    assert back.kind == result.strategy.kind
    assert back.table == result.strategy.table
    # kind can also be inferred from the entry shape
    data.pop("kind")
    assert strategy_from_dict(data).table == back.table


@pytest.mark.parametrize("kind", ["foo", "stn", ""])
def test_strategy_kind_must_be_known(kind):
    with pytest.raises(ValueError, match="cstn, stnu or cstnu"):
        strategy_from_dict({"kind": kind, "entries": []})
