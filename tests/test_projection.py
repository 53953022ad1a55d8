"""Scenario, situation, and drama projections."""

import random
import re
from fractions import Fraction

import pytest

from cstnu import (Constraint, ContingentLink, Drama, LabeledConstraint,
                   Network, Scenario, TimePoint, enumerate_scenarios, parse_label,
                   project, relevant_timepoints, sample_situations)
from helpers import random_cstn, random_stnu


def test_scenario_basics():
    s = Scenario({"b": False, "a": True})
    assert s.value("a") is True and s["b"] is False
    assert s.as_label() == parse_label("a!b")
    assert str(s) == "a=1,b=0"
    assert s == Scenario({"a": True, "b": False})
    assert hash(s) == hash(Scenario({"a": 1, "b": 0}))


@pytest.mark.parametrize("values, letter", [({"ab": True}, "ab"),
                                            ({1: True, "a": False}, 1),
                                            ({"a": False, "": True}, ""),
                                            ({"!": True}, "!")])
def test_a_scenario_letter_that_is_not_one_symbol_is_refused(values, letter):
    # A letter is checked as a `Label` checks it: "ab" was accepted and
    # printed as ab=1, and a letter 1 beside "a" raised a TypeError from
    # sorting the letters.
    with pytest.raises(ValueError) as err:
        Scenario(values)
    assert str(err.value) == "letter must be a single alphanumeric symbol: %r" % (letter,)


def test_a_scenario_reads_a_letter_it_lacks_as_a_key_error():
    s = Scenario({"b": False, "a": True})
    assert (s.value("a"), s.value("b")) == (True, False)
    for letter in ("c", "ab", 1):
        with pytest.raises(KeyError):
            s.value(letter)
        with pytest.raises(KeyError):
            s[letter]
    with pytest.raises(KeyError):
        Scenario({}).value("a")


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
    # A grid that is not an int, a bool included.
    for bad in (2.5, 3.0, "3", True, False):
        message = "^grid must be an int, not %s$" % re.escape(repr(bad))
        with pytest.raises(ValueError, match=message):
            sample_situations(links, bad)


def test_relevant_timepoints_and_scenario_projection():
    rng = random.Random(6)
    for _ in range(10):
        net = random_cstn(rng)
        for s in enumerate_scenarios(net.letters):
            relevant = relevant_timepoints(net, s)
            stn = project(net, s)
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
        project(net, Scenario({}))


def test_situation_projection_rigid_durations():
    rng = random.Random(8)
    net = random_stnu(rng)
    lows = tuple(l.lower for l in net.links)
    stn = project(net, situation=lows)
    for link, d in zip(net.links, lows):
        assert Constraint(link.activation, link.contingent, d) in stn.constraints
        assert Constraint(link.contingent, link.activation, -d) in stn.constraints
    with pytest.raises(ValueError):
        project(net, situation=tuple(l.upper + 1 for l in net.links))
    with pytest.raises(ValueError):
        project(net, situation=())
    # A duration that is neither an int nor a Fraction: 2.0 was read as a
    # number, "2" raised TypeError and True was read as 1.
    first = net.links[0]
    for bad in (2.0, "2", True):
        message = (r"^duration %s for link \(%s, %s\) is not an int or a Fraction$"
                   % (re.escape(repr(bad)), first.activation, first.contingent))
        with pytest.raises(ValueError, match=message):
            project(net, situation=(bad, *lows[1:]))
        with pytest.raises(ValueError, match=message):
            project(net, Scenario({}), (bad, *lows[1:]))


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
    on = project(net, Scenario({"p": True}), (Fraction(2),))
    assert Constraint("A", "C", 2) in on.constraints
    assert Constraint("C", "A", -2) in on.constraints
    off = project(net, Scenario({"p": False}), (Fraction(2),))
    assert off.timepoints == frozenset({"Op"})
    assert not any(c.source == "A" or c.target == "A" for c in off.constraints)


def test_situation_projection_is_the_empty_scenario_drama():
    rng = random.Random(21)
    for _ in range(20):
        net = random_stnu(rng)
        for w in sample_situations(net.links):
            assert project(net, Scenario({}), w) == project(net, situation=w)


def test_scenario_projection_is_the_empty_situation_drama():
    rng = random.Random(22)
    for _ in range(20):
        net = random_cstn(rng)
        for s in enumerate_scenarios(net.letters):
            assert project(net, s, ()) == project(net, s)


def test_drama_is_hashable_index():
    d1 = Drama(Scenario({"p": True}), (Fraction(2),))
    d2 = Drama(Scenario({"p": 1}), (Fraction(2),))
    assert d1 == d2 and len({d1, d2}) == 1
