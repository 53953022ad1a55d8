"""Strategies, histories, viability, and the dynamicity checks."""

import random
from fractions import Fraction

import pytest

from cstnu import (ContingentLink, Drama, LabeledConstraint, Network, Scenario,
                   Strategy, TimePoint, enumerate_scenarios, history_label,
                   is_dynamic_cstn, is_dynamic_star, is_viable, parse_label,
                   relevant_timepoints, sc_hst, sc_hst_star, sit_hst, dr_hst)
from helpers import random_cstn, random_cstn_strategy


def observation_network():
    """One observed letter, one dependent point."""
    return Network(
        timepoints=[TimePoint("Op"), TimePoint("X")],
        constraints=[LabeledConstraint("Op", "X", Fraction(10), parse_label("p")),
                     LabeledConstraint("X", "Op", Fraction(0), parse_label("p"))],
        letters=["p"], observations={"p": "Op"})


def two_scenario_strategy(x_true, x_false):
    on, off = Scenario({"p": True}), Scenario({"p": False})
    return Strategy("cstn", {
        on: {"Op": Fraction(1), "X": Fraction(x_true)},
        off: {"Op": Fraction(1), "X": Fraction(x_false)}})


def test_history_is_strict():
    strategy = two_scenario_strategy(1, 1)
    s = Scenario({"p": True})
    net = observation_network()
    # X at the same instant as the observation: not yet in its history
    assert sc_hst(net, s, strategy, "X") == frozenset()
    assert sc_hst_star(net, s, strategy, Fraction(1)) == frozenset()
    assert sc_hst_star(net, s, strategy, Fraction(2)) == {("p", True)}


def test_history_monotone_in_time():
    net = observation_network()
    strategy = two_scenario_strategy(3, 5)
    s = Scenario({"p": False})
    previous = frozenset()
    for t in range(0, 7):
        current = sc_hst_star(net, s, strategy, Fraction(t))
        assert previous <= current
        previous = current


def test_history_identity_at_execution_time():
    rng = random.Random(13)
    for _ in range(30):
        net = random_cstn(rng)
        strategy = random_cstn_strategy(rng, net)
        for s in strategy.indices():
            for point in strategy.table[s]:
                t = strategy.table[s][point]
                assert sc_hst(net, s, strategy, point) == \
                    sc_hst_star(net, s, strategy, t)


def test_history_label_view():
    assert history_label({("p", True), ("q", False)}) == parse_label("p!q")


def test_viability():
    net = observation_network()
    good = two_scenario_strategy(5, 0)
    result = is_viable(net, good)
    assert result.ok and bool(result)
    bad = two_scenario_strategy(20, 0)
    result = is_viable(net, bad)
    assert not result.ok
    assert result.constraint.delta == 10


def test_viability_rejects_wrong_domain():
    net = observation_network()
    s = Scenario({"p": True})
    strategy = Strategy("cstn", {s: {"Op": Fraction(0)},
                                 Scenario({"p": False}): {"Op": Fraction(0),
                                                          "X": Fraction(0)}})
    with pytest.raises(ValueError):
        is_viable(net, strategy)


def test_viability_rejects_a_kind_the_network_cannot_hold():
    net = Network(
        timepoints=["A", "C"],
        constraints=[LabeledConstraint("A", "C", 3),
                     LabeledConstraint("C", "A", -1)],
        links=[ContingentLink("A", 1, 3, "C")])
    # a CSTN strategy is a drama with an empty situation, which is not a
    # situation of a network with a link, however it schedules C
    strategy = Strategy("cstn", {Scenario({}): {"A": Fraction(0), "C": Fraction(5)}})
    with pytest.raises(ValueError, match="0 durations for 1 links"):
        is_viable(net, strategy)


def test_dynamic_checks_agree_on_simple_cases():
    net = observation_network()
    # reacts only after observing: dynamic
    reactive = two_scenario_strategy(3, 5)
    assert is_dynamic_cstn(net, reactive).ok
    assert is_dynamic_star(net, reactive).ok
    # differs at a time when nothing has been observed yet: not dynamic
    clairvoyant = Strategy("cstn", {
        Scenario({"p": True}): {"Op": Fraction(2), "X": Fraction(0)},
        Scenario({"p": False}): {"Op": Fraction(2), "X": Fraction(1)}})
    assert not is_dynamic_cstn(net, clairvoyant).ok
    assert not is_dynamic_star(net, clairvoyant).ok


def test_dynamic_checks_agree_on_random_strategies():
    rng = random.Random(17)
    agree = 0
    for _ in range(60):
        net = random_cstn(rng, max_letters=2, max_points=5)
        strategy = random_cstn_strategy(rng, net)
        a = is_dynamic_cstn(net, strategy).ok
        b = is_dynamic_star(net, strategy).ok
        assert a == b
        agree += 1
    assert agree == 60


def test_dynamic_star_exempts_contingent_points():
    net = Network(
        timepoints=["A", "C"],
        constraints=[LabeledConstraint("A", "C", 3),
                     LabeledConstraint("C", "A", -1)],
        links=[ContingentLink("A", 1, 3, "C")])
    table = {}
    for d in (Fraction(1), Fraction(2), Fraction(3)):
        table[(d,)] = {"A": Fraction(0), "C": d}
    strategy = Strategy("stnu", table)
    # C differs across situations with equal histories, but the
    # environment sets C, so the strategy still counts as dynamic
    assert is_dynamic_star(net, strategy).ok
    assert is_viable(net, strategy).ok

    cheating = Strategy("stnu", {
        (Fraction(1),): {"A": Fraction(0), "C": Fraction(1)},
        (Fraction(3),): {"A": Fraction(1), "C": Fraction(4)}})
    assert not is_dynamic_star(net, cheating).ok


def test_situation_history():
    net = Network(
        timepoints=["A", "C"],
        constraints=[LabeledConstraint("A", "C", 3),
                     LabeledConstraint("C", "A", -1)],
        links=[ContingentLink("A", 1, 3, "C")])
    strategy = Strategy("stnu", {
        (Fraction(2),): {"A": Fraction(1), "C": Fraction(3)}})
    assert sit_hst(net, (Fraction(2),), strategy, Fraction(3)) == frozenset()
    assert sit_hst(net, (Fraction(2),), strategy, Fraction(4)) == \
        {("A", "C", Fraction(2))}


def test_drama_history_restricts_to_relevant():
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
    on = Scenario({"p": True})
    off = Scenario({"p": False})
    strategy = Strategy("cstnu", {
        Drama(on, (Fraction(2),)): {"Op": Fraction(0), "A": Fraction(1),
                                    "C": Fraction(3)},
        Drama(off, (Fraction(2),)): {"Op": Fraction(0)}})
    h_s, h_w = dr_hst(net, on, (Fraction(2),), strategy, Fraction(4))
    assert h_s == {("p", True)}
    assert h_w == {("A", "C", Fraction(2))}
    h_s, h_w = dr_hst(net, off, (Fraction(2),), strategy, Fraction(4))
    assert h_s == {("p", False)}
    assert h_w == frozenset()
    assert is_dynamic_star(net, strategy).ok
