"""Strategies, histories, viability, and the dynamicity checks."""

import copy
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from cstnu import (ContingentLink, Drama, LabeledConstraint, Network, Scenario,
                   Strategy, TimePoint, check_dc, check_solution, compile_workflow,
                   enumerate_scenarios, history_label, is_dynamic_star, is_viable,
                   parse_label, parse_workflow, project, relevant_timepoints,
                   sample_situations, sc_hst, sc_hst_star, sit_hst, dr_hst)
from cstnu import search, semantics
from cstnu.fixtures import branching_workflow_text
from cstnu.jsonio import loads, network_from_dict
from cstnu.semantics import TreeFault, TreeSplit, _events, _history, certify_tree
from helpers import (EPSILON_OVERSHOOT, MIXED_DENOMINATORS, greedy_trap, naive_tree_table,
                     naive_viable, pairwise_dynamic_star, random_cstn, random_cstn_strategy,
                     random_stnu, random_stnu_strategy, tree_leaves, tree_nodes)
from reference import is_dynamic_cstn


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


def viable_both_ways(net, strategy):
    """`is_viable`, after checking that each index's schedule covers
    exactly the points of its drama's projection, built here with
    `project`."""
    result = is_viable(net, strategy)
    for index in strategy.indices():
        drama = strategy.drama(index)
        projection = project(net, drama.scenario, drama.situation)
        assert frozenset(strategy.table[index]) == projection.timepoints
    return result


def link_stnu():
    """A -> C lasts 1 to 3; nothing else."""
    return Network(
        timepoints=["A", "C"],
        constraints=[LabeledConstraint("A", "C", 3),
                     LabeledConstraint("C", "A", -1)],
        links=[ContingentLink("A", 1, 3, "C")])


def test_viability_matches_the_per_index_reference():
    # Each distinct (projection, execution) is checked once; the first
    # failing index and its least violated constraint stay the
    # per-index reference's.
    rng = random.Random(53)
    outcomes = Counter()
    for _ in range(300):
        net = random_cstn(rng, max_letters=2, max_points=5)
        strategy = random_cstn_strategy(rng, net)
        result = viable_both_ways(net, strategy)
        assert result == naive_viable(net, strategy)
        outcomes["cstn", result.ok] += 1
    for _ in range(150):
        net = random_stnu(rng, max_links=2, extra_points=2)
        strategy = random_stnu_strategy(rng, net)
        result = viable_both_ways(net, strategy)
        assert result == naive_viable(net, strategy)
        outcomes["stnu", result.ok] += 1
    assert min(outcomes.values()) > 10 and len(outcomes) == 4, outcomes
    # Faults planted in fixture dramas whose scenario and schedule repeat
    # an earlier drama's: the first failing index is the later one.
    net, _ = compile_workflow(parse_workflow(branching_workflow_text()))
    strategy = check_dc(net).strategy
    indices = strategy.indices()
    seen, later = set(), []
    for index in indices:
        key = strategy.drama(index).scenario, frozenset(strategy.table[index].items())
        if key in seen:
            later.append(index)
        seen.add(key)
    assert len(later) == 324
    failed = 0
    for index in rng.sample(later, 12) + [later[-1]]:
        faulty = _planted(rng, net, strategy, index)
        result = viable_both_ways(net, faulty)
        assert result == naive_viable(net, faulty)
        failed += result.index == index
    assert failed > 8
    # One scenario and one schedule, but three projections: each duration
    # pins C - A, so only the first drama's schedule solves its projection.
    net = link_stnu()
    same = {"A": Fraction(0), "C": Fraction(1)}
    strategy = Strategy("stnu", {(Fraction(d),): dict(same) for d in (1, 2, 3)})
    result = viable_both_ways(net, strategy)
    assert result == naive_viable(net, strategy)
    assert (result.ok, result.index, str(result.constraint)) == (False, (Fraction(2),),
                                                                 "A - C <= -2")


def test_integer_viability_is_exact():
    # Times and deltas with coprime denominators 3, 7 and 1000, many of
    # them exactly on a bound: the integer check must agree with
    # `check_solution`, which scales by all of them at once.
    third, seventh, milli = Fraction(1, 3), Fraction(1, 7), Fraction(1, 1000)
    net = Network(
        timepoints=["A", "B", "C", "D"],
        constraints=[LabeledConstraint("A", "B", third), LabeledConstraint("B", "A", -seventh),
                     LabeledConstraint("B", "C", milli), LabeledConstraint("C", "B", 0),
                     LabeledConstraint("A", "D", third + seventh + milli),
                     LabeledConstraint("D", "C", -seventh)])
    projection = project(net, Scenario({}), ())
    nudges = (0, milli, -milli, Fraction(1, 21000), -Fraction(1, 21000))
    rng = random.Random(71)
    outcomes = Counter()
    for _ in range(800):
        b = rng.choice((seventh, third)) + rng.choice(nudges)
        c = b + rng.choice((0, milli)) + rng.choice(nudges)
        d = c + rng.choice((seventh, third)) + rng.choice(nudges)
        schedule = {"A": Fraction(0), "B": b, "C": c, "D": d}
        result = is_viable(net, Strategy("cstn", {Scenario({}): schedule}))
        violated = check_solution(projection, schedule)
        assert (result.ok, result.constraint) == (not violated,
                                                  violated[0] if violated else None)
        tight = any(schedule[k.target] - schedule[k.source] == k.delta
                    for k in projection.constraints)
        outcomes[result.ok, tight] += 1
    assert min(outcomes.values()) > 20 and len(outcomes) == 4, outcomes


def test_viability_rejects_float_times(monkeypatch):
    net = observation_network()
    strategy = Strategy("cstn", {Scenario({"p": True}): {"Op": Fraction(1), "X": 2.5},
                                 Scenario({"p": False}): {"Op": Fraction(1), "X": Fraction(5, 2)}})
    with pytest.raises(ValueError, match="not a rational"):
        is_viable(net, strategy)
    # The same through `check_dc`'s re-certification, given a tree with
    # one float time.
    real = search._synthesize

    def floated(problem):
        tree = real(problem)
        leaf = tree_leaves(tree)[0]
        leaf.committed["X"] = float(leaf.committed["X"])
        return tree

    monkeypatch.setattr(search, "_synthesize", floated)
    with pytest.raises(ValueError, match="not a rational"):
        check_dc(net)


def test_viability_rejects_wrong_domain():
    net = observation_network()
    s = Scenario({"p": True})
    strategy = Strategy("cstn", {s: {"Op": Fraction(0)},
                                 Scenario({"p": False}): {"Op": Fraction(0),
                                                          "X": Fraction(0)}})
    with pytest.raises(ValueError):
        is_viable(net, strategy)


def test_dynamic_star_rejects_float_times():
    # Times go through `rational()` on their way to integers, as in
    # `check_solution`: a float is an input error, not silent float maths.
    net = observation_network()
    strategy = Strategy("cstn", {Scenario({"p": True}): {"Op": Fraction(1), "X": 2.5},
                                 Scenario({"p": False}): {"Op": Fraction(1), "X": Fraction(5, 2)}})
    with pytest.raises(ValueError, match="not a rational"):
        is_dynamic_star(net, strategy)
    assert is_dynamic_star(net, two_scenario_strategy(Fraction(5, 2), 3)).ok


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


def test_viability_input_errors_and_their_precedence():
    # Every drama is checked before any schedule is: its situation against
    # the links, then its scenario against the letters.  Only then are
    # the schedules read, in index order, each domain before its
    # constraints; the first index that is not viable ends the check.
    net = Network(
        timepoints=["Op", "A", "C"],
        constraints=[LabeledConstraint("A", "C", 3), LabeledConstraint("C", "A", -1)],
        letters=["p"], observations={"p": "Op"},
        links=[ContingentLink("A", 1, 3, "C")])
    p, not_p = Scenario({"p": True}), Scenario({"p": False})

    def schedule(c):
        return {"Op": Fraction(0), "A": Fraction(0), "C": Fraction(c)}

    def check(table):
        return is_viable(net, Strategy("cstnu", table))

    assert check({Drama(p, (Fraction(2),)): schedule(2)}).ok
    with pytest.raises(ValueError, match="situation has 0 durations for 1 links"):
        check({Drama(p, ()): schedule(2)})
    with pytest.raises(ValueError, match=r"duration 5 outside \[1, 3\] for link \(A, C\)"):
        check({Drama(p, (Fraction(5),)): schedule(5)})
    with pytest.raises(ValueError, match=r"scenario domain \[\] does not match letters \['p'\]"):
        check({Drama(Scenario({}), (Fraction(2),)): schedule(2)})
    with pytest.raises(ValueError, match="schedule domain for s=p=1 w=\\(2\\) is not the expected"):
        check({Drama(p, (Fraction(2),)): {"Op": Fraction(0), "A": Fraction(0)}})
    # A duration that is neither an int nor a Fraction is named, not read
    # as a number (True as 1, 2.0 with no denominator).
    for bad in (2.0, "2", True):
        with pytest.raises(ValueError, match=r"^duration %s for link \(A, C\) is not an int "
                                             "or a Fraction$" % re.escape(repr(bad))):
            check({Drama(p, (bad,)): schedule(2)})
    # The situation of a drama before its scenario.
    with pytest.raises(ValueError, match="duration 5 outside"):
        check({Drama(Scenario({}), (Fraction(5),)): schedule(5)})
    # An input error at a later index, after an index that is not viable
    # (C - A is 1, not 2), or after one whose domain is wrong.
    late = Drama(p, (Fraction(9),))
    unviable = {Drama(not_p, (Fraction(2),)): schedule(1)}
    assert not check(unviable).ok
    with pytest.raises(ValueError, match="duration 9 outside"):
        check({**unviable, late: schedule(9)})
    with pytest.raises(ValueError, match="scenario domain"):
        check({**unviable, Drama(Scenario({}), (Fraction(2),)): schedule(2)})
    with pytest.raises(ValueError, match="scenario domain"):
        check({Drama(not_p, (Fraction(2),)): {"Op": Fraction(0)},
               Drama(Scenario({}), (Fraction(2),)): schedule(2)})
    # A time that is not rational is found first, and a wrong domain
    # after an index that is not viable is never read.
    with pytest.raises(ValueError, match="not a rational"):
        check({**unviable, late: {**schedule(9), "A": 0.5}})
    result = check({**unviable, Drama(p, (Fraction(2),)): {"Op": Fraction(0)}})
    assert (result.ok, result.index, str(result.constraint)) \
        == (False, Drama(not_p, (Fraction(2),)), "A - C <= -2")


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


def test_bucketed_dynamic_star_matches_pairwise_on_random_strategies():
    rng = random.Random(23)
    outcomes = set()
    for _ in range(150):
        net = random_cstn(rng, max_letters=2, max_points=5)
        strategy = random_cstn_strategy(rng, net)
        result = is_dynamic_star(net, strategy)
        assert result == pairwise_dynamic_star(net, strategy)
        outcomes.add(result.ok)
    for _ in range(100):
        net = random_stnu(rng, max_links=2, extra_points=2)
        strategy = random_stnu_strategy(rng, net)
        result = is_dynamic_star(net, strategy)
        assert result == pairwise_dynamic_star(net, strategy)
        outcomes.add(result.ok)
    assert outcomes == {True, False}


def _planted(rng, net, strategy, index):
    """`strategy` with one non-contingent time of `index` moved by 1."""
    schedule = dict(strategy.table[index])
    point = rng.choice(sorted(set(schedule) - net.contingent_points))
    schedule[point] += rng.choice((-1, 1))
    return Strategy(strategy.kind, {**strategy.table, index: schedule})


def test_bucketed_dynamic_star_matches_pairwise_on_the_fixture():
    net, _ = compile_workflow(parse_workflow(branching_workflow_text()))
    strategy = check_dc(net).strategy
    result = is_dynamic_star(net, strategy)
    assert result.ok and result == pairwise_dynamic_star(net, strategy)
    # Planted faults: one non-contingent time of one drama moved by 1.  The
    # rest of the strategy is dynamic, so the pairwise check need only
    # compare the moved drama with every drama.
    rng = random.Random(6)
    indices = strategy.indices()
    for _ in range(20):
        index = rng.choice(indices)
        faulty = _planted(rng, net, strategy, index)
        result = is_dynamic_star(net, faulty)
        assert result == pairwise_dynamic_star(net, faulty, around=index)
        assert not result.ok


def test_dynamic_star_sweeps_each_execution_once(monkeypatch):
    # An index whose scenario and schedule repeat an earlier index's is
    # skipped.  One index's schedule is copied onto another, before,
    # between and after the positions of the reference's violating pair,
    # in random STNU strategies with a fault planted at a random index;
    # the witness must stay the reference's.  Most pairs start at position
    # 0, so only the first 100 of those are copied.
    rng = random.Random(41)
    seen = Counter()
    for _ in range(1200):
        net = random_stnu(rng, max_links=2, extra_points=2)
        strategy = random_stnu_strategy(rng, net)
        indices = strategy.indices()
        strategy = _planted(rng, net, strategy, rng.choice(indices))
        want = pairwise_dynamic_star(net, strategy)
        if want.ok or len(indices) < 3:
            continue
        pair = sorted(indices.index(index) for index in want.witness[:2])
        if pair[0] == 0 and seen["from 0"] >= 100:
            continue
        seen["from 0"] += pair[0] == 0
        places = {"before": range(pair[0]), "between": range(pair[0] + 1, pair[1]),
                  "after": range(pair[1] + 1, len(indices))}
        for place, positions in places.items():
            if not positions:
                continue
            source = rng.choice(pair + [rng.randrange(len(indices))])
            target = rng.choice(positions)
            copied = Strategy(strategy.kind, {
                **strategy.table, indices[target]: dict(strategy.table[indices[source]])})
            result = is_dynamic_star(net, copied)
            assert result == pairwise_dynamic_star(net, copied)
            seen[place] += 1
            seen["moved"] += result != want
    assert seen["before"] > 25 and seen["between"] > 30 and seen["after"] > 30, seen
    assert seen["moved"] > 20, seen
    # On the fixture each of the 162 executions is swept once, and faults
    # planted in dramas that have class-mates at lower positions give the
    # reference's witness.
    # `_changes` numbers the executions it sweeps by their row in the scaled
    # view; a row maps back to the position of its first index.
    net, _ = compile_workflow(parse_workflow(branching_workflow_text()))
    strategy = check_dc(net).strategy
    indices = strategy.indices()
    seen, firsts = set(), []
    for pos, index in enumerate(indices):
        key = strategy.drama(index).scenario, frozenset(strategy.table[index].items())
        if key not in seen:
            seen.add(key)
            firsts.append(pos)
    real, swept = semantics._changes, []

    def counted(network, scenario, schedule, ids, row):
        swept.append(row)
        return real(network, scenario, schedule, ids, row)

    monkeypatch.setattr(semantics, "_changes", counted)
    assert is_dynamic_star(net, strategy).ok
    assert (len(swept), len(indices)) == (162, 486)
    kept = frozenset(firsts[row] for row in swept)
    assert len(kept) == 162
    later = [index for pos, index in enumerate(indices) if pos not in kept]
    for index in rng.sample(later, 10):
        faulty = _planted(rng, net, strategy, index)
        result = is_dynamic_star(net, faulty)
        assert result == pairwise_dynamic_star(net, faulty, around=index)
        assert not result.ok


def simultaneous_events_network():
    """An observation and two contingent links whose events can coincide:
    Op observes p, A -> C and B -> D each last 1 to 3, and X and Y are
    free."""
    return Network(
        timepoints=["Op", "A", "C", "B", "D", "X", "Y"],
        constraints=[LabeledConstraint("A", "C", 3), LabeledConstraint("C", "A", -1),
                     LabeledConstraint("B", "D", 3), LabeledConstraint("D", "B", -1)],
        letters=["p"], observations={"p": "Op"},
        links=[ContingentLink("A", 1, 3, "C"), ContingentLink("B", 1, 3, "D")])


def simultaneous_events_strategy(rng, net):
    """A drama-indexed strategy whose Op, A and B times are shared, so that
    an observation and a completion, or two completions, often fall at one
    time.  X and Y each run at a decision time plus an offset that depends
    on the history before that time alone, which is dynamic; then a few
    dramas get X or Y moved by 1, which usually is not."""
    shared = {point: Fraction(rng.randint(0, 2)) for point in ("Op", "A", "B")}
    decide = {point: Fraction(rng.randint(1, 5)) for point in ("X", "Y")}
    offsets = {}
    table = {}
    for scenario in enumerate_scenarios(net.letters):
        for situation in sample_situations(net.links):
            drama = Drama(scenario, situation)
            schedule = dict(shared)
            schedule["C"] = shared["A"] + situation[0]
            schedule["D"] = shared["B"] + situation[1]
            for point, t in decide.items():
                seen = _history(net, scenario, schedule, t)
                offset = offsets.setdefault((point, seen), rng.randint(0, 2))
                schedule[point] = t + offset
            table[drama] = schedule
    for _ in range(rng.choice((0, 1, 2, 4))):
        schedule = table[rng.choice(sorted(table, key=str))]
        schedule[rng.choice(("X", "Y"))] += 1
    return Strategy("cstnu", table)


def violating_pairs(net, strategy):
    """The (point, time) pairs at which `strategy` violates dynamic*,
    read off the semantics' histories pair by pair."""
    indices = strategy.indices()
    histories = {}

    def history(index, t):
        if (index, t) not in histories:
            histories[index, t] = _history(net, strategy.drama(index).scenario,
                                           strategy.table[index], t)
        return histories[index, t]

    pairs = set()
    for i1 in indices:
        for point, t in strategy.table[i1].items():
            if point in net.contingent_points:
                continue
            for i2 in indices:
                other = strategy.table[i2].get(point, t)
                if other != t and history(i1, t) == history(i2, t):
                    pairs.add((point, t))
    return pairs


def test_dynamic_star_with_simultaneous_events_matches_pairwise():
    # Simultaneous events at one index are one step of its history: the
    # history strictly after their time holds all of them.  Strategies
    # that violate dynamic* at several (point, time) pairs must still give
    # the least witness.
    net = simultaneous_events_network()
    rng = random.Random(31)
    seen = Counter()
    for _ in range(150):
        strategy = simultaneous_events_strategy(rng, net)
        result = is_dynamic_star(net, strategy)
        assert result == pairwise_dynamic_star(net, strategy)
        coinciding = set()
        for index in strategy.indices():
            kinds = {}
            for t, (kind, _) in _events(net, strategy.drama(index).scenario,
                                        strategy.table[index]):
                kinds.setdefault(t, []).append(kind)
            coinciding.update(tuple(sorted(at)) for at in kinds.values() if len(at) > 1)
        seen.update(coinciding)
        seen["dynamic"] += result.ok
        seen["several"] += len(violating_pairs(net, strategy)) > 1
    assert seen[("link", "obs")] > 50 and seen[("link", "link")] > 50
    assert 20 < seen["dynamic"] < 130
    assert seen["several"] > 20


def dc_tree(network, grid=3):
    """The dramas that `check_dc` samples for `network`, and the decision
    tree that its search builds for them, or None."""
    situations = sample_situations(network.links, grid)
    dramas = [Drama(s, w) for s in enumerate_scenarios(network.letters) for w in situations]
    problem = search._Problem(network, dramas)
    if any(d.rows is None for d in problem.dctxs):
        return dramas, None
    tree = search._synthesize(problem)
    if tree is None and len(network.timepoints) <= search.EXHAUSTIVE_POINTS:
        tree = search._exhaustive_witness(problem, search.candidate_time_grid(network, situations),
                                          search.EXHAUSTIVE_BUDGET)
    return dramas, tree


def table_verdict(network, table):
    """`is_viable` and `is_dynamic_star` on a per-drama table."""
    strategy = Strategy.from_dramas("cstn" if network.kind == "stn" else network.kind,
                                    table.items())
    return bool(is_viable(network, strategy)) and bool(is_dynamic_star(network, strategy))


def own_commits(node, parent):
    return sorted(p for p in node.committed if parent is None or p not in parent.committed)


def shift_an_own_commit(rng, tree):
    """A copy of `tree` with one time that a leaf commits itself moved,
    but still after every split above it: what that leaf's executions
    run changes, and the tree's shape does not."""
    tree = copy.deepcopy(tree)
    leaves = [(node, parent, floor) for node, parent, floor in tree_nodes(tree)
              if not isinstance(node, TreeSplit) and own_commits(node, parent)]
    leaf, parent, floor = rng.choice(leaves)
    point = rng.choice(own_commits(leaf, parent))
    t = leaf.committed[point] + rng.choice((1, -1, Fraction(1, 2), Fraction(-1, 7), 50))
    if floor is not None and t <= floor:
        t = floor + Fraction(1, 3)
    leaf.committed[point] = t
    return tree


def fixture():
    return compile_workflow(parse_workflow(branching_workflow_text()))[0]


def test_tree_certifier_agrees_with_the_table_checks():
    # On every tree the DC search builds, and on a copy of each with one
    # time that a leaf commits itself moved, `certify_tree` gives the
    # verdict of `is_viable` plus `is_dynamic_star` on the tree's reference
    # expansion, and a certified table is that expansion.  The fixture at
    # grids 3-6, the network files with a witness tree, mixed
    # denominators and epsilon overshoots, and random networks.
    def read(path):
        with open(path) as f:
            return network_from_dict(loads(f.read()))

    cases = [(fixture(), grid) for grid in (3, 4, 5, 6)]
    cases += [(greedy_trap(), 3), (read(MIXED_DENOMINATORS), 3), (read(EPSILON_OVERSHOOT), 3)]
    rng = random.Random(41)
    fractions = (Fraction(1, 3), Fraction(1, 7), Fraction(5, 2))
    for i in range(60):
        mixed = fractions if i % 2 else None
        cases += [(random_cstn(rng, fractions=mixed), 3), (random_stnu(rng, fractions=mixed), 3)]
    seen = Counter()
    for network, grid in cases:
        dramas, tree = dc_tree(network, grid)
        if tree is None:
            continue
        candidates = [(False, tree)]
        if grid < 5:        # the larger fixture tables take seconds to check
            candidates.append((True, shift_an_own_commit(rng, tree)))
        for shifted, candidate in candidates:
            table = naive_tree_table(network, dramas, candidate)
            try:
                assert certify_tree(network, dramas, candidate) == table
                ok = True
            except TreeFault as fault:
                assert str(fault).startswith("not viable: ")
                ok = False
            assert ok == table_verdict(network, table)
            assert ok or shifted
            seen[shifted, ok] += 1
            seen["split"] += isinstance(candidate, TreeSplit)
    assert seen[False, True] > 50 and seen[True, True] > 20 and seen[True, False] > 10, seen
    assert seen["split"] > 40, seen


def fixture_tree():
    network = fixture()
    dramas, tree = dc_tree(network)
    certify_tree(network, dramas, tree)
    return network, dramas, tree


def fault(network, dramas, tree):
    with pytest.raises(TreeFault) as raised:
        certify_tree(network, dramas, tree)
    return str(raised.value)


def test_tree_certifier_rejects_a_child_commit_at_the_divergence():
    # A point that a leaf runs at the divergence of the split above it,
    # not after it: executions of other branches, with the same history
    # strictly before then, run it elsewhere.
    network, dramas, tree = fixture_tree()
    node, parent, _ = next((node, parent, floor) for node, parent, floor in tree_nodes(tree)
                           if parent is not None and not isinstance(node, TreeSplit)
                           and own_commits(node, parent))
    point = own_commits(node, parent)[0]
    node.committed[point] = parent.at
    assert fault(network, dramas, tree) == "%s runs at %s, not after the divergence at %s" % (
        point, parent.at, parent.at)
    assert not table_verdict(network, naive_tree_table(network, dramas, tree))


def test_tree_certifier_rejects_a_missing_branch():
    network, dramas, tree = fixture_tree()
    key, _ = tree.branches[-1]
    tree.branches = tree.branches[:-1]
    assert fault(network, dramas, tree).startswith("the split at %s has no branch for "
                                                   % tree.at)
    assert naive_tree_table(network, dramas, tree) is None


def test_tree_certifier_rejects_two_branches_with_one_key():
    # The second copy of a branch may hold other times: which one runs is
    # not decided by the history.
    network, dramas, tree = fixture_tree()
    key, child = tree.branches[0]
    tree.branches += ((key, copy.deepcopy(child)),)
    assert fault(network, dramas, tree).startswith("two branches of the split at %s share the key "
                                                   % tree.at)


def test_tree_certifier_rejects_a_child_that_changes_its_parents_commit():
    # Below the root's last branch, the root's first commit runs one later:
    # the tree below is consistent, but its executions and the other
    # branches' share no history before it and run it at two times.
    network, dramas, tree = fixture_tree()
    point = own_commits(tree, None)[0]
    _, child = tree.branches[-1]
    for node, _, _ in tree_nodes(child):
        node.committed[point] += 1
    assert fault(network, dramas, tree) == "a node below the split at %s changes the time of %s" % (
        tree.at, point)
    assert not table_verdict(network, naive_tree_table(network, dramas, tree))


def test_tree_certifier_rejects_a_shifted_time_that_breaks_viability():
    network, dramas, tree = fixture_tree()
    leaf = tree_leaves(tree)[0]
    point = max(leaf.committed, key=leaf.committed.get)
    leaf.committed[point] += 1000
    assert fault(network, dramas, tree).startswith("not viable: ")
    assert not is_viable(network, Strategy.from_dramas(
        "cstnu", naive_tree_table(network, dramas, tree).items()))
