"""Scenario, situation, and drama projections."""

import random
from fractions import Fraction

import pytest

from cstnu import (Constraint, ContingentLink, Drama, LabeledConstraint,
                   Network, Scenario, TimePoint, drama_projection,
                   enumerate_scenarios, parse_label, relevant_timepoints,
                   sample_situations, scenario_projection,
                   situation_projection)
from helpers import random_cstn, random_stnu


def test_scenario_basics():
    s = Scenario({"b": False, "a": True})
    assert s.value("a") is True and s["b"] is False
    assert s.as_label() == parse_label("a!b")
    assert str(s) == "a=1,b=0"
    assert s == Scenario({"a": True, "b": False})
    assert hash(s) == hash(Scenario({"a": 1, "b": 0}))


def test_enumerate_scenarios_counts():
    assert len(enumerate_scenarios("ab")) == 4
    assert enumerate_scenarios("") == [Scenario({})]
    assert len({s for s in enumerate_scenarios("abc")}) == 8


def test_sample_situations_grid():
    links = [ContingentLink("A", Fraction(1), Fraction(3), "C"),
             ContingentLink("B", Fraction(0), Fraction(10), "D")]
    situations = sample_situations(links, grid=3)
    assert len(situations) == 9
    firsts = sorted({w[0] for w in situations})
    assert firsts == [1, 2, 3]
    assert sorted({w[1] for w in situations}) == [0, 5, 10]
    with pytest.raises(ValueError):
        sample_situations(links, grid=1)


def test_relevant_timepoints_and_scenario_projection():
    rng = random.Random(6)
    for _ in range(10):
        net = random_cstn(rng)
        for s in enumerate_scenarios(net.letters):
            relevant = relevant_timepoints(net, s)
            stn = scenario_projection(net, s)
            assert stn.timepoints == relevant
            values = s.as_mapping()
            expected = {
                Constraint(c.source, c.target, c.delta)
                for c in net.constraints
                if all(values[l] == sign for l, sign in c.label.literals)}
            assert stn.constraints == frozenset(expected)


def test_scenario_must_be_total():
    net = random_cstn(random.Random(1))
    with pytest.raises(ValueError):
        scenario_projection(net, Scenario({}))


def test_situation_projection_rigid_durations():
    rng = random.Random(8)
    net = random_stnu(rng)
    lows = tuple(l.lower for l in net.links)
    stn = situation_projection(net, lows)
    for link, d in zip(net.links, lows):
        assert Constraint(link.activation, link.contingent, d) in stn.constraints
        assert Constraint(link.contingent, link.activation, -d) in stn.constraints
    with pytest.raises(ValueError):
        situation_projection(net, tuple(l.upper + 1 for l in net.links))
    with pytest.raises(ValueError):
        situation_projection(net, ())


def test_drama_projection_drops_irrelevant_links():
    net = Network(
        timepoints=[TimePoint("Op"), TimePoint("A", parse_label("p")),
                    TimePoint("C", parse_label("p"))],
        constraints=[
            LabeledConstraint("A", "Op", Fraction(-1, 1000), parse_label("p")),
            LabeledConstraint("C", "Op", Fraction(-1, 1000), parse_label("p")),
            LabeledConstraint("A", "C", 3, parse_label("p")),
            LabeledConstraint("C", "A", -1, parse_label("p"))],
        letters=["p"], observations={"p": "Op"},
        links=[ContingentLink("A", 1, 3, "C")])
    on = drama_projection(net, Scenario({"p": True}), (Fraction(2),))
    assert Constraint("A", "C", 2) in on.constraints
    assert Constraint("C", "A", -2) in on.constraints
    off = drama_projection(net, Scenario({"p": False}), (Fraction(2),))
    assert off.timepoints == frozenset({"Op"})
    assert not any(c.source == "A" or c.target == "A" for c in off.constraints)


def test_situation_projection_is_the_empty_scenario_drama():
    rng = random.Random(21)
    for _ in range(20):
        net = random_stnu(rng)
        for w in sample_situations(net.links):
            assert drama_projection(net, Scenario({}), w) == situation_projection(net, w)


def test_scenario_projection_is_the_empty_situation_drama():
    rng = random.Random(22)
    for _ in range(20):
        net = random_cstn(rng)
        for s in enumerate_scenarios(net.letters):
            assert drama_projection(net, s, ()) == scenario_projection(net, s)


def test_drama_is_hashable_index():
    d1 = Drama(Scenario({"p": True}), (Fraction(2),))
    d2 = Drama(Scenario({"p": 1}), (Fraction(2),))
    assert d1 == d2 and len({d1, d2}) == 1
