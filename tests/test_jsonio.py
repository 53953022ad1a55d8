"""JSON round trips for networks, STNs, and strategies."""

import glob
import os
import random
import re
from fractions import Fraction

import pytest

from cstnu import (Network, Scenario, Strategy, check_dc, cli, compile_workflow, jsonio,
                   parse_label, parse_workflow, solve, to_stn)
from cstnu.fixtures import branching_workflow_text
from cstnu.jsonio import (dumps, loads, network_from_dict, network_to_dict,
                          stn_to_dict, strategy_from_dict, strategy_to_dict)
from cstnu.rational import rational
from helpers import GREEDY_TRAP, bench_gen, random_cstn, random_stnu
from reference import (naive_network_from_dict, naive_rational, naive_strategy_from_dict,
                       tight_contingent_stnu)


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
    ("cstn", {"scenario": {"p": True}}, {"scenario": {"p": True}}),
    ("stnu", {"situation": ["1"]}, {"situation": ["1"]}),
    ("cstnu", {"scenario": {}, "situation": ["1"]}, {"scenario": {}, "situation": ["1"]}),
])
def test_strategy_entries_with_one_index_are_rejected(kind, first, second):
    # cstn indices are scenarios and stnu ones situations, so entries that
    # differ only in their schedules collide.
    entries = [{"scenario": {"p": False}, "situation": ["2"], "schedule": {}},
               {**first, "schedule": {"A": "0"}}, {**second, "schedule": {"A": "1"}}]
    if kind != "cstnu":
        del entries[0]["situation" if kind == "cstn" else "scenario"]
    with pytest.raises(ValueError, match="entries 1 and 2 stand for the same index"):
        strategy_from_dict({"kind": kind, "entries": entries})


@pytest.mark.parametrize("kind, entries, field, pos", [
    ("cstn", [{"scenario": {"p": True}, "situation": ["7", "3"]}], "situation", 0),
    ("cstn", [{"scenario": {"p": True}}, {"scenario": {"p": False}, "situation": []}],
     "situation", 1),
    ("stnu", [{"scenario": {"q": False}, "situation": []}], "scenario", 0),
    ("stnu", [{"situation": ["1"]}, {"scenario": {}, "situation": ["2"]}], "scenario", 1),
])
def test_a_field_that_the_kind_does_not_hold_is_named(kind, entries, field, pos):
    # The field was parsed and then dropped, so the strategy read as one
    # that never carried it.
    with pytest.raises(ValueError) as err:
        strategy_from_dict({"kind": kind,
                            "entries": [{**e, "schedule": {}} for e in entries]})
    assert str(err.value) == ("field '%s': entries of kind '%s' hold no %s (entry %d)"
                              % (field, kind, field, pos))


def test_verify_strategy_refuses_a_field_that_the_kind_does_not_hold(tmp_path, capsys):
    # Both strategies verified "viable" and "dynamic" with exit 0.
    cstn = {"letters": ["p"], "observations": {"p": "P"}, "epsilon": "1",
            "timepoints": [{"id": "P"}]}
    situations = {"kind": "cstn", "entries": [
        {"scenario": {"p": v}, "situation": ["7", "3"], "schedule": {"P": "0"}}
        for v in (True, False)]}
    scenario = {"kind": "stnu",
                "entries": [{"scenario": {"q": False}, "situation": [], "schedule": {"A": "0"}}]}
    for network, strategy, field in ((cstn, situations, "situation"),
                                     ({"timepoints": [{"id": "A"}]}, scenario, "scenario")):
        net, strat = tmp_path / "net.json", tmp_path / "strategy.json"
        net.write_text(dumps(network))
        strat.write_text(dumps(strategy))
        assert cli.main(["verify-strategy", str(net), str(strat)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "'%s'" % field in err[0]
        for entry in strategy["entries"]:
            del entry[field]
        strat.write_text(dumps(strategy))
        assert cli.main(["verify-strategy", str(net), str(strat)]) == 0
        capsys.readouterr()


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
    # a scenario read before does not excuse the int 1, which equals true
    ({"kind": "cstn", "entries": [{"scenario": {"p": True}, "schedule": {}},
                                  {"scenario": {"p": 1}, "schedule": {}}]}, "p"),
])
def test_strategy_fields_of_the_wrong_type_are_named(data, field):
    with pytest.raises(ValueError, match="field '%s': expected" % field):
        strategy_from_dict(data)


LINK = {"activation": "A", "lower": "1", "upper": "2", "contingent": "B"}


@pytest.mark.parametrize("data, message", [
    (_network(constraints=[{"from": "A", "to": "B", "delta": None}]),
     "field 'delta': not a rational: None"),
    (_network(constraints=[{"from": "A", "to": "B", "delta": "1/0"}]),
     "field 'delta': not a rational: '1/0'"),
    (_network(epsilon=None), "field 'epsilon': not a rational: None"),
    (_network(epsilon="x"), "field 'epsilon': not a rational: 'x'"),
    (_network(links=[dict(LINK, lower=None)]), "field 'lower': not a rational: None"),
    (_network(links=[dict(LINK, upper=True)]), "field 'upper': booleans are not temporal values"),
])
def test_network_numbers_that_are_not_rationals_are_named(data, message):
    with pytest.raises(ValueError) as err:
        network_from_dict(data)
    assert str(err.value) == message


@pytest.mark.parametrize("entry, field", [
    ({"situation": [None], "schedule": {}}, "situation"),
    ({"situation": ["1/0"], "schedule": {}}, "situation"),
    ({"situation": [], "schedule": {"A": None}}, "schedule"),
    ({"situation": [], "schedule": {"A": "nan"}}, "schedule"),
])
def test_strategy_numbers_that_are_not_rationals_are_named(entry, field):
    with pytest.raises(ValueError, match="^field '%s': " % field):
        strategy_from_dict({"kind": "stnu", "entries": [entry]})


def test_a_field_of_the_wrong_type_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(dumps(_network(letters="pq")))
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'letters'" in err[0]


# Strings that `Fraction` reads and `int` reads otherwise or refuses
# (signs, spaces, underscores, non-ASCII digits), that both refuse, and
# integers past `int`'s 4300-digit limit and at it.
RATIONAL_STRINGS = ["5", "-12", "3/2", "+5", " 5 ", "1_000", "\u0663", "\u00b2", "-0", "007",
                    "", "-", "--5", "1/0", "1e3", "5.", "0x10", "9" * 4301, "-" + "9" * 4300]


def _outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as err:
        return "ValueError", str(err)
    return type(value), value


@pytest.mark.parametrize("text", RATIONAL_STRINGS, ids=range(len(RATIONAL_STRINGS)))
def test_rational_reads_a_string_as_fraction_does(text):
    assert _outcome(rational, text) == _outcome(naive_rational, text)


@pytest.fixture(scope="module")
def documents():
    """Network documents (`small_nets(1..2)`, `tests/*.json` and the
    compiled fixture) and the fixture's strategies at grids 3 and 5."""
    gen = bench_gen()
    texts = gen.small_nets(1) + gen.small_nets(2)
    for path in sorted(glob.glob(os.path.join(os.path.dirname(GREEDY_TRAP), "*.json"))):
        with open(path) as f:
            texts.append(f.read())
    fixture = compile_workflow(parse_workflow(branching_workflow_text()))[0]
    strategies = [strategy_to_dict(check_dc(fixture, grid=grid).strategy) for grid in (3, 5)]
    return [loads(text) for text in texts] + [network_to_dict(fixture)], strategies


def _shared(values):
    """Whether the equal ones among `values` are one object."""
    first = {}
    return all(first.setdefault(value, value) is value for value in values)


def test_the_readers_read_what_the_naive_readers_read(documents):
    networks, strategies = documents
    for data in networks:
        network = network_from_dict(data)
        assert network == naive_network_from_dict(data)
        rationals = [network.epsilon] + [c.delta for c in network.constraints]
        rationals += [bound for l in network.links for bound in (l.lower, l.upper)]
        assert {type(value) for value in rationals} == {Fraction}
        assert _shared(rationals)
        assert _shared([c.label for c in network.constraints]
                       + [tp.label for tp in network.timepoints.values()])
    for data in strategies:
        strategy = strategy_from_dict(data)
        naive = naive_strategy_from_dict(data)
        assert (strategy.kind, strategy.table) == (naive.kind, naive.table)
        rationals = [t for schedule in strategy.table.values() for t in schedule.values()]
        rationals += [d for drama in strategy.table for d in drama.situation]
        assert {type(value) for value in rationals} == {Fraction}
        assert _shared(rationals)
        assert _shared([drama.scenario for drama in strategy.table])


def _rational_strings(data):
    """The rational strings of a network or strategy document."""
    if "entries" in data:
        return [t for e in data["entries"]
                for t in e.get("situation", []) + list(e["schedule"].values())]
    return ([data["epsilon"]] + [c["delta"] for c in data["constraints"]]
            + [l[bound] for l in data["links"] for bound in ("lower", "upper")])


def test_each_distinct_string_is_parsed_once(monkeypatch, documents):
    """One `Fraction(str)` per distinct string that is not a plain
    integer, one `parse_label` per distinct label text and one `Scenario`
    per distinct scenario, per document."""
    parsed, labels, scenarios = [], [], []
    new = Fraction.__new__

    def counting_new(cls, numerator=0, *args, **kwargs):
        if isinstance(numerator, str):
            parsed.append(numerator)
        return new(cls, numerator, *args, **kwargs)

    def counting_parse_label(text):
        labels.append(text)
        return parse_label(text)

    def counting_scenario(values):
        scenarios.append(values)
        return Scenario(values)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(jsonio, "parse_label", counting_parse_label)
    monkeypatch.setattr(jsonio, "Scenario", counting_scenario)
    networks, strategies = documents
    for data in networks[::50] + networks[-5:] + strategies:
        parsed.clear()
        labels.clear()
        if "entries" in data:
            scenarios.clear()
            strategy_from_dict(data)
            distinct = {tuple(sorted(e["scenario"].items())) for e in data["entries"]}
            assert len(data["entries"]) > len(distinct) == len(scenarios)
        else:
            network_from_dict(data)
            texts = [c.get("label", "[]") for c in data["timepoints"] + data["constraints"]]
            assert sorted(labels) == sorted(set(texts))
        strings = set(_rational_strings(data))
        assert sorted(parsed) == sorted(s for s in strings if not re.fullmatch("-?[0-9]+", s))
    assert labels == []     # strategies hold no labels
