"""JSON round trips for networks, STNs, and strategies."""

import random
from fractions import Fraction

import pytest

from cstnu import (Network, Scenario, Strategy, check_dc, cli, compile_workflow,
                   parse_workflow, solve, to_stn)
from cstnu.fixtures import branching_workflow_text, tight_contingent_stnu
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
    stnu = random_stnu(random.Random(7), consistent=True)
    cstnu = compile_workflow(parse_workflow(branching_workflow_text()))[0]
    cstn = Network(["O", "X"], letters=["p"], observations={"p": "O"})
    for net, kind in ((stnu, "stnu"), (cstnu, "cstnu"), (cstn, "cstn")):
        result = check_dc(net)
        assert result.strategy is not None and result.strategy.kind == kind
        data = strategy_to_dict(result.strategy)
        back = strategy_from_dict(data)
        assert back.kind == kind
        assert back.table == result.strategy.table
        # kind can also be inferred from the entry shape
        data.pop("kind")
        inferred = strategy_from_dict(data)
        assert (inferred.kind, inferred.table) == (kind, back.table)


@pytest.mark.parametrize("kind", ["foo", "stn", ""])
def test_strategy_kind_must_be_known(kind):
    with pytest.raises(ValueError, match="cstn, stnu or cstnu"):
        strategy_from_dict({"kind": kind, "entries": []})


@pytest.mark.parametrize("kind, first, second", [
    ("cstn", {"scenario": {"p": True}}, {"scenario": {"p": True}, "situation": ["1"]}),
    ("stnu", {"situation": ["1"]}, {"situation": ["1"]}),
    ("cstnu", {"scenario": {}, "situation": ["1"]}, {"scenario": {}, "situation": ["1"]}),
])
def test_strategy_entries_with_one_index_are_rejected(kind, first, second):
    # cstn indices are scenarios and stnu ones situations, so entries that
    # differ elsewhere still collide.
    entries = [{"scenario": {"p": False}, "situation": ["2"], "schedule": {}},
               {**first, "schedule": {"A": "0"}}, {**second, "schedule": {"A": "1"}}]
    if kind == "stnu":
        del entries[0]["scenario"]
    with pytest.raises(ValueError, match="entries 1 and 2 stand for the same index"):
        strategy_from_dict({"kind": kind, "entries": entries})


def _network(**fields):
    return {"timepoints": [{"id": "A"}, {"id": "B"}], **fields}


@pytest.mark.parametrize("data, field", [
    (_network(letters="pq"), "letters"),
    (_network(letters=["p", 1]), "letters"),
    (_network(timepoints="AB"), "timepoints"),
    (_network(timepoints=["A"]), "timepoints"),
    (_network(timepoints=[{"id": "A", "label": 1}]), "label"),
    (_network(constraints=[{"from": "A", "to": "B", "delta": "1", "label": 1}]), "label"),
    (_network(constraints={"from": "A", "to": "B", "delta": "1"}), "constraints"),
    (_network(constraints=[["A", "B", "1"]]), "constraints"),
    (_network(links=5), "links"),
    (_network(links=[5]), "links"),
    (_network(letters=["p"], observations=[["p", "A"]]), "observations"),
    (_network(constraints=[{"from": ["A"], "to": "B", "delta": "1"}]), "from"),
    (_network(constraints=[{"from": "A", "to": ["B"], "delta": "1"}]), "to"),
    (_network(links=[{"activation": ["A"], "lower": "1", "upper": "2", "contingent": "B"}]),
     "activation"),
    (_network(links=[{"activation": "A", "lower": "1", "upper": "2", "contingent": ["B"]}]),
     "contingent"),
    (_network(letters=["p"], observations={"p": ["A"]}), "p"),
])
def test_network_fields_of_the_wrong_type_are_named(data, field):
    with pytest.raises(ValueError, match="field '%s': expected" % field):
        network_from_dict(data)


@pytest.mark.parametrize("data, field", [
    ({"entries": {"schedule": {}}}, "entries"),
    ({"entries": [5]}, "entries"),
    ({"kind": "stnu", "entries": [{"situation": "12", "schedule": {}}]}, "situation"),
    ({"kind": "cstn", "entries": [{"scenario": ["p"], "schedule": {}}]}, "scenario"),
    ({"kind": "cstn", "entries": [{"scenario": {"p": "false"}, "schedule": {}}]}, "p"),
    ({"kind": "cstn", "entries": [{"scenario": {}, "schedule": ["A", "0"]}]}, "schedule"),
])
def test_strategy_fields_of_the_wrong_type_are_named(data, field):
    with pytest.raises(ValueError, match="field '%s': expected" % field):
        strategy_from_dict(data)


def test_a_field_of_the_wrong_type_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(dumps(_network(letters="pq")))
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'letters'" in err[0]
