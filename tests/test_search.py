"""Dynamic-controllability checking on small networks."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import cstnu
from cstnu import (ContingentLink, Drama, LabeledConstraint, Network, Scenario, TimePoint,
                   candidate_time_grid, check_dc, compile_workflow, enumerate_scenarios,
                   is_dynamic_star, is_viable, parse_label, parse_workflow, project,
                   relevant_timepoints, sample_situations, search, solve)
from cstnu.fixtures import branching_workflow_text
from cstnu.rational import INF, _least_scale
from cstnu.semantics import _events, _history, certify_tree
from cstnu.stn import floored
from helpers import (REFERENCE_ORIGIN, class_known_times, epsilon_overshoot, fraction_window,
                     greedy_trap, grid_witness, link_chain, naive_events, naive_next_divergence,
                     naive_ready_points, naive_viable, positions, random_cstn,
                     random_cstn_strategy, random_consistent_stn, random_stnu,
                     random_stnu_strategy, tick_distance, tree_leaves)
from reference import (known_times, modification_study, tight_contingent_stnu,
                       tree_strategy_masks, verify_cstn_embedding, verify_stnu_embedding)


def test_consistent_stn_is_controllable():
    stn, hidden = random_consistent_stn(random.Random(1), max_points=5)
    net = Network(timepoints=sorted(stn.timepoints),
                  constraints=[LabeledConstraint(c.source, c.target, c.delta)
                               for c in stn.constraints])
    result = check_dc(net)
    assert result.verdict == "controllable"
    assert is_viable(net, result.strategy).ok


def test_inconsistent_stn_not_controllable():
    net = Network(timepoints=["A", "B"],
                  constraints=[LabeledConstraint("A", "B", Fraction(1)),
                               LabeledConstraint("B", "A", Fraction(-2))])
    assert check_dc(net).verdict == "not-controllable"


def test_squeezed_contingent_link_not_controllable():
    result = check_dc(tight_contingent_stnu())
    assert result.verdict == "not-controllable"
    assert "inconsistent" in result.evidence
    assert result.strategy is None


def test_relaxed_contingent_link_controllable():
    net = Network(
        timepoints=["A", "C", "X"],
        constraints=[LabeledConstraint("A", "C", Fraction(3)),
                     LabeledConstraint("C", "A", Fraction(-1)),
                     LabeledConstraint("X", "C", Fraction(0)),
                     LabeledConstraint("A", "X", Fraction(10))],
        links=[ContingentLink("A", Fraction(1), Fraction(3), "C")])
    result = check_dc(net)
    assert result.verdict == "controllable"
    # X must wait for C: in each sampled situation X lands on C or later
    for situation, schedule in result.strategy.table.items():
        assert schedule["X"] >= schedule["C"]
    assert is_dynamic_star(net, result.strategy).ok


def test_chained_links_listed_out_of_activation_order():
    net = chained_links()
    result = check_dc(net)
    assert result.verdict == "controllable"
    for index, schedule in result.strategy.table.items():
        situation = result.strategy.drama(index).situation
        for link, duration in zip(net.links, situation):
            assert schedule[link.contingent] == schedule[link.activation] + duration


def test_observation_branching_needs_dynamic_strategy():
    # X = 10 when p, 20 when not-p: impossible blind, fine after observing
    net = Network(
        timepoints=[TimePoint("Op"), TimePoint("X")],
        constraints=[
            LabeledConstraint("Op", "X", Fraction(10), parse_label("p")),
            LabeledConstraint("X", "Op", Fraction(-10), parse_label("p")),
            LabeledConstraint("Op", "X", Fraction(20), parse_label("!p")),
            LabeledConstraint("X", "Op", Fraction(-20), parse_label("!p"))],
        letters=["p"], observations={"p": "Op"})
    result = check_dc(net)
    assert result.verdict == "controllable"
    times = {s.value("p"): sched["X"] - sched["Op"]
             for s, sched in result.strategy.table.items()}
    assert times == {True: 10, False: 20}


def test_pre_observation_conflict_is_not_certified():
    # X must take different values before anything can be observed
    net = Network(
        timepoints=[TimePoint("Op"), TimePoint("X")],
        constraints=[
            LabeledConstraint("X", "Op", Fraction(-1), parse_label("[]")),
            LabeledConstraint("Op", "X", Fraction(-3), parse_label("p")),
            LabeledConstraint("X", "Op", Fraction(3), parse_label("p")),
            LabeledConstraint("Op", "X", Fraction(-5), parse_label("!p")),
            LabeledConstraint("X", "Op", Fraction(5), parse_label("!p"))],
        letters=["p"], observations={"p": "Op"})
    result = check_dc(net)
    assert result.verdict != "controllable"


def test_epsilon_overshoot_commits_at_the_window_bound():
    # When p, an epsilon step past the divergence at O overshoots X's
    # window, which ends at 1/2000: greedy synthesis runs X at 1/2000, the
    # window's upper bound.  With a second letter q, observed by X, Y's
    # window ends 1/20000 after X, and a path overshoots twice.
    cases = [
        (epsilon_overshoot(2),
         {"p=0": {"O": "0", "X": "1"}, "p=1": {"O": "0", "X": "1/2000"}}),
        (epsilon_overshoot(3),
         {"p=0,q=0": {"O": "0", "X": "1", "Y": "2"},
          "p=0,q=1": {"O": "0", "X": "1", "Y": "20001/20000"},
          "p=1,q=0": {"O": "0", "X": "1/2000", "Y": "2001/2000"},
          "p=1,q=1": {"O": "0", "X": "1/2000", "Y": "11/20000"}})]
    for net, want in cases:
        result = check_dc(net)
        assert result.verdict == "controllable"
        assert {str(s): {p: str(t) for p, t in schedule.items()}
                for s, schedule in result.strategy.table.items()} == want


def test_caps_enforced(monkeypatch):
    # The caps are module constants, read when `check_dc` runs.
    net = random_cstn(random.Random(3))
    monkeypatch.setattr(search, "MAX_LETTERS", 0)
    with pytest.raises(ValueError, match="letter cap exceeded"):
        check_dc(net)
    stnu = random_stnu(random.Random(3))
    monkeypatch.setattr(search, "MAX_LINKS", 0)
    with pytest.raises(ValueError, match="link cap exceeded"):
        check_dc(stnu)


def test_invalid_network_rejected():
    net = Network(timepoints=["A", "C"],
                  links=[ContingentLink("A", Fraction(1), Fraction(3), "C")])
    with pytest.raises(ValueError):
        check_dc(net)


def _renamed(network, old, new):
    """`network` with its point `old` called `new`."""
    name = {old: new}.get
    return Network([TimePoint(name(tp.id, tp.id), tp.label) for tp in network.timepoints.values()],
                   [LabeledConstraint(name(c.source, c.source), name(c.target, c.target),
                                      c.delta, c.label) for c in network.constraints],
                   letters=network.letters,
                   observations={letter: name(point, point)
                                 for letter, point in network.observations.items()},
                   links=[ContingentLink(name(link.activation, link.activation), link.lower,
                                         link.upper, name(link.contingent, link.contingent))
                          for link in network.links],
                   epsilon=network.epsilon)


def test_a_point_named_like_the_origin_is_an_ordinary_point():
    # The search's virtual origin is a row of its own, not a point name, so
    # a point called "__origin__" is a point like any other: each network
    # gets the verdict, evidence and strategy of a copy with that point
    # renamed.  Each new name sorts where "__origin__" does among the
    # other points, so both copies run their points in the same order.
    fixture = compile_workflow(parse_workflow(branching_workflow_text()))[0]
    cases = [(Network(["__origin__", "B"], [LabeledConstraint("__origin__", "B", -5),
                                            LabeledConstraint("B", "__origin__", 10)]), "O"),
             (_renamed(greedy_trap(), "X3", "__origin__"), "X3"),
             (_renamed(fixture, "T5_S", "__origin__"), "T5_S")]
    verdicts = []
    for net, name in cases:
        got, want = check_dc(net), check_dc(_renamed(net, "__origin__", name))
        verdicts.append(got.verdict)
        assert (got.verdict, got.evidence, got.sample) == (want.verdict, want.evidence, want.sample)
        assert got.strategy.kind == want.strategy.kind
        assert {index: {name if point == "__origin__" else point: t
                        for point, t in schedule.items()}
                for index, schedule in got.strategy.table.items()} == want.strategy.table
    assert verdicts == ["controllable"] * 3


def test_candidate_time_grid():
    net = tight_contingent_stnu()
    situations = sample_situations(net.links)
    grid = candidate_time_grid(net, situations)
    assert list(grid) == sorted(set(grid))
    assert all(t >= 0 for t in grid)
    assert Fraction(0) in grid and Fraction(1) in grid and Fraction(3) in grid


def test_embedding_verdicts_match():
    rng = random.Random(5)
    for _ in range(5):
        assert verify_cstn_embedding(random_cstn(rng))
        assert verify_stnu_embedding(random_stnu(rng))
    with pytest.raises(ValueError):
        verify_cstn_embedding(random_stnu(rng))
    with pytest.raises(ValueError):
        verify_stnu_embedding(random_cstn(rng))


def test_tree_strategy_masks_structure():
    net, sets, grid = modification_study()
    masks = tree_strategy_masks(net, sets, grid)
    assert masks == {0, 3, 7}              # some strategy satisfies everything
    assert all(isinstance(m, int) for m in masks)
    # original and rewritten constraint sets admit the same strategies
    assert all(bool(m & 1) == bool(m & 2) for m in masks)


def test_tree_strategy_masks_budget_is_a_runtime_error(monkeypatch):
    for budget in (5, 2215):
        monkeypatch.setattr("reference.MASKS_BUDGET", budget)
        with pytest.raises(RuntimeError, match="^budget of %d nodes exhausted$" % budget):
            tree_strategy_masks(*modification_study())
    # the walk enters exactly 2216 nodes
    monkeypatch.setattr("reference.MASKS_BUDGET", 2216)
    assert tree_strategy_masks(*modification_study()) == {0, 3, 7}


def test_greedy_synthesis_enters_309_nodes_on_the_fixture():
    net = compile_workflow(parse_workflow(branching_workflow_text()))[0]
    problem = search._Problem(net, [Drama(s, w) for s in enumerate_scenarios(net.letters)
                                    for w in sample_situations(net.links)])

    def walk(budget):
        return search._explore(problem, search._earliest_commit(problem), problem.leaf,
                               (None, search._first), problem.join, budget)

    with pytest.raises(search._Budget):
        walk(308)
    table = walk(309)
    assert table is not None and table == search._synthesize(problem)


def test_witness_search_enters_750_nodes_on_the_greedy_trap():
    net = greedy_trap()
    situations = sample_situations(net.links)
    problem = search._Problem(net, [Drama(s, w) for s in enumerate_scenarios(net.letters)
                                    for w in situations])
    grid = candidate_time_grid(net, situations)
    with pytest.raises(search._Budget):
        search._exhaustive_witness(problem, grid, 749)
    table = search._exhaustive_witness(problem, grid, 750)
    assert table is not None
    assert table == search._exhaustive_witness(problem, grid, search.EXHAUSTIVE_BUDGET)


def test_tree_strategy_masks_are_pinned_on_random_networks():
    # Sets: every constraint, then the even- and the odd-indexed halves in
    # `str` order; the grid is the first 8 candidate times, in either
    # order.  The masks were pinned from the earlier walk, which checked
    # each commit against the constraints it made fully known.
    want = [{0}, {3}, {5, 7}, {0, 3}, {3}, {5}, {7}, {0}, {7}, {3}, {7}, {3}]
    rng = random.Random(18)
    for i, masks in enumerate(want):
        net = (random_cstn if i % 2 == 0 else random_stnu)(rng)
        ordered = sorted(net.constraints, key=str)
        sets = [ordered, ordered[0::2], ordered[1::2]]
        grid = candidate_time_grid(net, sample_situations(net.links))[:8]
        assert tree_strategy_masks(net, sets, grid) == masks, i
        assert tree_strategy_masks(net, sets, grid[::-1]) == masks, i


def test_tree_strategy_masks_reject_an_undeclared_letter():
    # Y - X <= -100 fails every strategy, but only where its label holds
    net, _, grid = modification_study()
    unlabeled = LabeledConstraint("X", "Y", Fraction(-100))
    assert tree_strategy_masks(net, [[unlabeled]], grid) == {1}
    undeclared = LabeledConstraint("X", "Y", Fraction(-100), parse_label("z"))
    with pytest.raises(ValueError, match="letter 'z' not assigned"):
        tree_strategy_masks(net, [[undeclared]], grid)


def test_tree_strategy_masks_reject_an_invalid_network():
    # Two links share the contingent point C.  The masks read as "no
    # strategy at all" (an empty set) before the network was validated.
    net = Network(timepoints=["A", "B", "C"],
                  constraints=[LabeledConstraint("A", "C", 3), LabeledConstraint("C", "A", -1),
                               LabeledConstraint("B", "C", 3), LabeledConstraint("C", "B", -1)],
                  links=[ContingentLink("A", 1, 3, "C"), ContingentLink("B", 1, 3, "C")])
    with pytest.raises(ValueError, match="^network does not validate:\n.*'C' shared by two links"):
        tree_strategy_masks(net, [net.constraints], (0, 1, 2, 3))


def test_check_dc_rejects_a_grid_that_is_not_an_int():
    # A float grid raised TypeError from range(); a bool was read as 0 or 1.
    net = Network(timepoints=["A", "C"],
                  constraints=[LabeledConstraint("A", "C", 3), LabeledConstraint("C", "A", -1)],
                  links=[ContingentLink("A", 1, 3, "C")])
    for bad in (2.5, 3.0, "3", True):
        with pytest.raises(ValueError, match="^grid must be an int, not "):
            check_dc(net, grid=bad)
    assert check_dc(net, grid=3).controllable


def test_tightening_preserves_negative_verdicts():
    # tightening a bound never turns not-controllable into controllable
    rng = random.Random(19)
    for _ in range(10):
        net = random_stnu(rng)
        base = check_dc(net)
        victim = sorted(net.constraints, key=str)[0]
        tightened = Network(
            timepoints=net.timepoints.values(),
            constraints=(net.constraints - {victim})
            | {LabeledConstraint(victim.source, victim.target,
                                 victim.delta - 1, victim.label)},
            links=net.links)
        try:
            after = check_dc(tightened)
        except ValueError:
            continue    # tightening a required link bound invalidates the net
        if base.verdict == "not-controllable":
            assert after.verdict != "controllable"


def late_observation(a=1, late=2, c=2, span=3):
    # X must commit before p is observed at Op: X <= Z+a when not-p,
    # X >= Z+late when p, and Op comes at least c >= late after Z.
    return Network(
        timepoints=[TimePoint("Op"), TimePoint("X"), TimePoint("Z")],
        constraints=[
            LabeledConstraint("Z", "X", Fraction(a), parse_label("!p")),
            LabeledConstraint("X", "Z", Fraction(-late), parse_label("p")),
            LabeledConstraint("Op", "Z", Fraction(-c)),
            LabeledConstraint("Z", "Op", Fraction(c + span))],
        letters=["p"], observations={"p": "Op"})


def test_unknown_names_the_bound_that_stopped_the_search(monkeypatch):
    net = late_observation()
    grid = candidate_time_grid(net, [()])
    exhausted = check_dc(net)
    assert exhausted.verdict == "unknown"
    assert exhausted.evidence == ("no viable decision tree over %d candidate times; "
                                  "the grid may be too coarse" % len(grid))
    monkeypatch.setattr(search, "EXHAUSTIVE_BUDGET", 50)
    over_budget = check_dc(net)
    assert over_budget.verdict == "unknown"
    assert over_budget.evidence == "budget of 50 nodes exhausted"
    monkeypatch.setattr(search, "EXHAUSTIVE_POINTS", 2)
    skipped = check_dc(net)
    assert skipped.verdict == "unknown"
    assert skipped.evidence == "exhaustive search skipped: 3 points > exhaustive_points (2)"


def test_exhaustive_search_certifies_what_greedy_synthesis_misses():
    net = greedy_trap()
    problem = search._Problem(net, [Drama(s, ()) for s in enumerate_scenarios(net.letters)])
    assert search._synthesize(problem) is None
    result = check_dc(net)
    assert result.verdict == "controllable"
    assert is_viable(net, result.strategy).ok
    assert is_dynamic_star(net, result.strategy).ok


def test_witness_search_finds_the_greedy_trap_strategy_within_1000_nodes():
    # The walk of the whole grid enters 7683 nodes before it finds the
    # greedy trap's witness; the windowed search needs 750.
    net = greedy_trap()
    problem = search._Problem(net, [Drama(s, ()) for s in enumerate_scenarios(net.letters)])
    grid = candidate_time_grid(net, [()])
    assert search._exhaustive_witness(problem, grid, 1000) is not None


def trap_variant(rng):
    """The greedy trap with every delta but the observation leads (-1 into
    Or) shifted by up to 3 either way."""
    net = greedy_trap()
    leads = set(net.observations.values())
    return Network(
        timepoints=net.timepoints.values(),
        constraints=[c if c.target in leads and c.delta == -1
                     else LabeledConstraint(c.source, c.target, c.delta + rng.randint(-3, 3),
                                            c.label)
                     for c in sorted(net.constraints, key=str)],
        letters=net.letters, observations=net.observations, epsilon=net.epsilon)


def _witness_problems():
    """(name, problem, grid) for networks of at most EXHAUSTIVE_POINTS
    points whose projections are consistent and whose greedy synthesis
    fails, so `check_dc` searches them exhaustively: the greedy trap and
    variants of it, late observations, and the few such random STNUs
    (about 1 in 400; random CSTNs of `random_cstn` pass greedy synthesis
    or have an inconsistent projection)."""
    rng = random.Random(17)
    trap_rng = random.Random(18)
    nets = [("trap", greedy_trap())]
    nets += [("trap variant %d" % i, trap_variant(trap_rng)) for i in range(8)]
    for i in range(8):
        late = rng.randint(2, 9)
        nets.append(("late %d" % i, late_observation(
            rng.randint(1, late - 1), late, late + rng.randint(0, 8), rng.randint(1, 10))))
    nets += [("stnu %d" % i, random_stnu(rng)) for i in range(4000)]
    for name, net in nets:
        if len(net.timepoints) > search.EXHAUSTIVE_POINTS:
            continue
        situations = sample_situations(net.links)
        problem = search._Problem(net, [Drama(s, w) for s in enumerate_scenarios(net.letters)
                                        for w in situations])
        if (all(d.rows is not None for d in problem.dctxs)
                and search._synthesize(problem) is None):
            yield name, problem, candidate_time_grid(net, situations)


def test_windowed_witness_matches_the_grid_walk():
    # Pruning the grid to each window drops only subtrees without a viable
    # leaf, so the first witness, or None, is the one the walk of the
    # whole grid finds, within the same budget.
    budget = 10_000
    seen = {"found": 0, "none": 0, "random": 0, "found variants": 0}
    for name, problem, grid in _witness_problems():
        try:
            want = grid_witness(problem, grid, budget)
        except search._Budget:
            continue
        assert search._exhaustive_witness(problem, grid, budget) == want, name
        seen["found" if want else "none"] += 1
        seen["random"] += name.startswith("stnu")
        seen["found variants"] += bool(want) and name.startswith("trap variant")
    assert (seen["found"] >= 7 and seen["none"] >= 12 and seen["random"] >= 8
            and seen["found variants"] >= 4), seen


def test_witness_search_and_masks_agree():
    net = late_observation()
    grid = candidate_time_grid(net, [()])
    problem = search._Problem(net, [Drama(s, ()) for s in enumerate_scenarios(net.letters)])
    masks = tree_strategy_masks(net, [net.constraints], grid)
    assert masks == {1}
    witness = search._exhaustive_witness(problem, grid, 200_000)
    assert (witness is not None) == (0 in masks)


def test_bad_witness_is_a_bug(monkeypatch):
    # A tree that the search built and that fails re-certification is a
    # bug, not a verdict: here X runs 4 after A, where the network pins 3.
    real = search._synthesize

    def corrupted(problem):
        tree = real(problem)
        for leaf in tree_leaves(tree):
            leaf.committed["X"] += 1
        return tree

    monkeypatch.setattr(search, "_synthesize", corrupted)
    with pytest.raises(RuntimeError, match="re-certification"):
        check_dc(Network(timepoints=["A", "X"],
                         constraints=[LabeledConstraint("A", "X", Fraction(3)),
                                      LabeledConstraint("X", "A", Fraction(-3))]))


def test_integer_window_matches_fraction_window(monkeypatch):
    # Every window of greedy synthesis, on the fixture and on random
    # networks whose deltas mix thirds, sevenths and halves, so that the
    # projections of one information set have deltas of different
    # denominators.
    real = search._Problem.window
    seen = {"calls": 0, "mixed": 0}
    scales = {}         # id of a class -> (the class, the least scale of its projection's deltas)

    def scale(problem, d):
        if id(d) not in scales:
            projection = project(problem.network, d.drama.scenario, d.drama.situation)
            scales[id(d)] = d, _least_scale(c.delta for c in projection.constraints)
        return scales[id(d)][1]

    def checked(problem, node, point):
        got = real(problem, node, point)
        lb, ub = got
        exact = Fraction(lb, problem.tick), INF if ub == INF else Fraction(ub, problem.tick)
        committed = {p: Fraction(t, problem.tick) for p, t in node.committed.items()}
        assert repr(exact) == repr(fraction_window(problem, node.dctxs, committed, point))
        seen["calls"] += 1
        seen["mixed"] += len({scale(problem, d) for d in node.dctxs}) > 1
        return got

    monkeypatch.setattr(search._Problem, "window", checked)
    check_dc(compile_workflow(parse_workflow(branching_workflow_text()))[0])
    fractions = (Fraction(1, 3), Fraction(1, 7), Fraction(5, 2))
    rng = random.Random(8)
    for _ in range(100):
        check_dc(random_cstn(rng, fractions=fractions))
        check_dc(random_stnu(rng, fractions=fractions))
    assert seen["calls"] > 1000
    assert seen["mixed"] > 200


def test_each_class_keeps_its_own_window_along_the_path(monkeypatch):
    # Every node that greedy synthesis and the exhaustive witness search
    # enter holds, for each ready point, each class's own window, equal to
    # the class's window read from scratch over the origin and every
    # committed anchor, and its ready points and blocked flag equal a scan
    # of each class's relevance.  The fixture has points that one scenario
    # drops, so a split can make a blocked point ready; the greedy trap and
    # the late observations reach the witness search; the random networks
    # mix thirds, sevenths and halves.
    root, advance, split = search._Problem.root, search._Problem.advance, search._Problem.split
    witness = search._exhaustive_witness
    searching = []
    seen = {"nodes": 0, "witness": 0, "windows": 0, "shared": 0, "fresh": 0, "blocked": 0}

    def checked(problem, node):
        ready, blocked = naive_ready_points(problem, node)
        assert problem.ready_points(node) == (ready, bool(blocked))
        assert node.ids == frozenset(d.idx for d in node.dctxs)
        committed = {p: Fraction(t, problem.tick) for p, t in node.committed.items()}
        for point, (lbs, ubs) in node.windows.items():
            assert len(lbs) == len(ubs) == len(node.dctxs)
            for d, lb, ub in zip(node.dctxs, lbs, ubs):
                exact = Fraction(lb, problem.tick), INF if ub == INF else Fraction(ub, problem.tick)
                assert exact == fraction_window(problem, [d], committed, point)
            seen["windows"] += len(lbs)
        seen["nodes"] += 1
        seen["witness"] += bool(searching)
        seen["shared"] += len(node.dctxs) > 1 and bool(node.committed and node.windows)
        seen["blocked"] += bool(blocked)
        return node

    def groups(problem, node, t):
        children = split(problem, node, t)
        for _, child in children:
            checked(problem, child)
            seen["fresh"] += len(set(child.windows) - set(node.windows))
        return children

    def searched(*args):
        searching.append(True)
        try:
            return witness(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(search._Problem, "root", lambda problem: checked(problem, root(problem)))
    monkeypatch.setattr(search._Problem, "advance",
                        lambda problem, node, point, t: checked(problem,
                                                                advance(problem, node, point, t)))
    monkeypatch.setattr(search._Problem, "split", groups)
    monkeypatch.setattr(search, "_exhaustive_witness", searched)
    fixture = compile_workflow(parse_workflow(branching_workflow_text()))[0]
    for grid in (3, 4):
        assert check_dc(fixture, grid).controllable
    assert check_dc(greedy_trap()).controllable
    rng = random.Random(19)
    for _ in range(8):
        late = rng.randint(2, 9)
        check_dc(late_observation(rng.randint(1, late - 1), late, late + rng.randint(0, 8),
                                  rng.randint(1, 10)))
    fractions = (Fraction(1, 3), Fraction(1, 7), Fraction(5, 2))
    for _ in range(100):
        check_dc(random_cstn(rng, fractions=fractions))
        check_dc(random_stnu(rng, fractions=fractions))
    assert (seen["nodes"] > 2500 and seen["witness"] > 900 and seen["windows"] > 40000
            and seen["shared"] > 1000 and seen["fresh"] > 150 and seen["blocked"] > 200), seen


def test_incremental_closures_match_solve():
    # Every drama's closure, made from its scenario's by inserting the
    # rigid link edges, against a full closure of its floored projection:
    # the same flag and, when consistent, the same distances among its
    # relevant points and the origin, read at the same positions.
    networks = [compile_workflow(parse_workflow(branching_workflow_text()))[0]]
    fractions = (Fraction(1, 3), Fraction(1, 7), Fraction(5, 2))
    rng = random.Random(14)
    for _ in range(100):
        networks += [random_cstn(rng, fractions=fractions), random_stnu(rng, fractions=fractions)]
    flags = set()
    for net in networks:
        dramas = [Drama(s, w) for s in enumerate_scenarios(net.letters)
                  for w in sample_situations(net.links)]
        problem = search._Problem(net, dramas)
        for d in problem.dctxs:
            projection = project(net, d.drama.scenario, d.drama.situation)
            want = solve(floored(projection, REFERENCE_ORIGIN))
            assert (d.rows is not None) == want.consistent
            flags.add(want.consistent)
            if want.consistent:
                at = positions(problem)
                for a in want.ids:
                    for b in want.ids:
                        assert tick_distance(problem, d, at[a], at[b]) == want.distance(a, b)
    assert flags == {True, False}


def test_every_closure_is_on_the_problem_tick(monkeypatch):
    # Scenario closures and the closures made from them by inserting rigid
    # link edges hold ticks, the search's own time unit: each entry is the
    # `int` that `solve`'s distance on the floored projection makes when
    # multiplied by the tick.  On the fixture at grid 3, on the greedy trap
    # and on the problem tree_strategy_masks builds, whose tick also
    # counts the grid and the constraint sets.
    problems = []
    for net in (compile_workflow(parse_workflow(branching_workflow_text()))[0], greedy_trap()):
        problems.append(search._Problem(net, [Drama(s, w) for s in enumerate_scenarios(net.letters)
                                              for w in sample_situations(net.links)]))

    class Recorded(search._Problem):
        def __init__(self, *args):
            super().__init__(*args)
            problems.append(self)

    monkeypatch.setattr(search, "_Problem", Recorded)
    tree_strategy_masks(*modification_study())
    assert [len(p.dctxs) for p in problems] == [162, 2, 4]
    for problem in problems:
        at = positions(problem)
        for d in problem.dctxs:
            want = solve(floored(project(problem.network, d.drama.scenario,
                                         d.drama.situation), REFERENCE_ORIGIN))
            assert want.consistent and d.rows is not None
            for a in want.ids:
                for b in want.ids:
                    entry = d.rows[at[a]][at[b]]
                    exact = want.distance(a, b)
                    if exact == INF:
                        assert entry == INF
                    else:
                        assert type(entry) is int and entry == exact * problem.tick


def test_problem_has_one_context_per_distinct_drama_projection():
    # On the fixture at grid 3 the 486 dramas are 162 executions: the
    # dramas of one scenario whose situations agree on the links relevant
    # in it.  Each class is one context, named by its first member, and
    # the certified table still gives every drama a schedule of its own.
    net = compile_workflow(parse_workflow(branching_workflow_text()))[0]
    dramas = [Drama(s, w) for s in enumerate_scenarios(net.letters)
              for w in sample_situations(net.links)]
    problem = search._Problem(net, dramas)
    assert (len(problem.dctxs), len(dramas)) == (162, 486)
    assert [d.idx for d in problem.dctxs] == list(range(162))

    def relevant_durations(drama):
        relevant = relevant_timepoints(net, drama.scenario)
        return {link.contingent: d for link, d in zip(net.links, drama.situation)
                if link.activation in relevant and link.contingent in relevant}

    def key(drama):
        return drama.scenario, tuple(sorted(relevant_durations(drama).items()))

    members = {}
    for drama in dramas:
        members.setdefault(key(drama), []).append(drama)
    assert [d.drama for d in problem.dctxs] == [group[0] for group in members.values()]
    projections = set()
    for d in problem.dctxs:
        assert {c: Fraction(t, problem.tick) for c, t in d.durations.items()} \
            == relevant_durations(d.drama)
        projection = project(net, d.drama.scenario, d.drama.situation)
        assert d.relevant == projection.timepoints
        for m in members[key(d.drama)]:
            assert project(net, m.scenario, m.situation) == projection
        projections.add(projection)
    assert len(members) == 162     # no two contexts hold one execution
    assert len(projections) == 162
    # Each context has its own closure and its own tick durations, which
    # its members share, and the contexts of one scenario share its
    # relevant points: the two scenarios' sets stand in for 162
    # projections.
    assert len({id(d.rows) for d in problem.dctxs}) == 162
    assert len({(d.drama.scenario, tuple(d.durations.items())) for d in problem.dctxs}) == 162
    assert len({id(d.relevant) for d in problem.dctxs}) == 2
    table = certify_tree(net, dramas, search._synthesize(problem))
    assert len(table) == 486 and set(table) == set(dramas)
    for d in problem.dctxs:
        for m in members[key(d.drama)][1:]:
            assert table[m] == table[d.drama] and table[m] is not table[d.drama]


def test_search_splits_where_semantics_says_histories_differ(monkeypatch):
    # Every divergence greedy synthesis and the exhaustive search split on,
    # on the fixture and on random networks, read back through the
    # semantics' own history of each drama's known times.
    real = search._Problem.next_divergence
    seen = {"splits": 0, "at_now": 0}

    def checked(problem, node):
        found = real(problem, node)
        network, dctxs, committed, now = problem.network, node.dctxs, node.committed, node.now

        def known(d):
            return d.drama.scenario, class_known_times(problem, d, committed)

        if found is None:   # no split ahead: the executions look alike throughout
            assert len({frozenset(_events(network, *known(d))) for d in dctxs}) == 1
            return found
        t = found
        groups = [child.dctxs for _, child in problem.split(node, t)]
        assert t >= now
        assert sorted(d.idx for g in groups for d in g) == sorted(d.idx for d in dctxs)
        assert len({_history(network, *known(d), t) for d in dctxs}) == 1
        at_t = [{frozenset(item for when, item in _events(network, *known(d)) if when == t)
                 for d in group} for group in groups]
        assert all(len(contents) == 1 for contents in at_t)
        assert len(set().union(*at_t)) == len(groups)
        seen["splits"] += 1
        seen["at_now"] += t == now
        return found

    monkeypatch.setattr(search._Problem, "next_divergence", checked)
    check_dc(compile_workflow(parse_workflow(branching_workflow_text()))[0])
    rng = random.Random(9)
    for _ in range(400):
        check_dc(random_cstn(rng))
        check_dc(random_stnu(rng))
    assert seen["splits"] > 1000
    assert seen["at_now"] > 100


def chained_links():
    # A activates Y and Y activates X, but X's link is listed first
    return Network(
        timepoints=["A", "X", "Y"],
        constraints=[LabeledConstraint("A", "Y", 2), LabeledConstraint("Y", "A", -1),
                     LabeledConstraint("Y", "X", 3), LabeledConstraint("X", "Y", -1)],
        links=[ContingentLink("Y", 1, 3, "X"), ContingentLink("A", 1, 2, "Y")])


def test_known_times_match_the_activation_walk(monkeypatch):
    # The known times read off a leaf's committed times and link events
    # equal the reference's: only the class's relevant committed points,
    # and each contingent time its activation's plus the sampled duration.
    # They are also the schedule that the certifier gives the class's
    # first drama.  The fixture and the random CSTNs have points that some
    # scenarios drop; the chains have links that activate links.
    real = search._Problem.leaf
    seen = {"calls": 0, "linked": 0, "dropping": 0}
    known = {}

    def checked(problem, node):
        for i, d in enumerate(node.dctxs):
            times = known_times(node, i)
            assert times == class_known_times(problem, d, node.committed)
            known[d.drama] = {p: Fraction(t, problem.tick) for p, t in times.items()}
            seen["calls"] += 1
            seen["linked"] += len(times) > len(node.committed)
            seen["dropping"] += len(d.relevant) < len(problem.network.timepoints)
        return real(problem, node)

    def certified(net):
        known.clear()
        result = check_dc(net)
        if result.controllable:
            for index, schedule in result.strategy.table.items():
                drama = result.strategy.drama(index)
                assert drama not in known or known[drama] == schedule

    monkeypatch.setattr(search._Problem, "leaf", checked)
    certified(compile_workflow(parse_workflow(branching_workflow_text()))[0])
    certified(chained_links())
    certified(link_chain(4))
    rng = random.Random(13)
    for _ in range(100):
        certified(random_cstn(rng))
        certified(random_stnu(rng))
    assert seen["calls"] > 500
    assert seen["linked"] > 300
    assert seen["dropping"] > 100


def test_divergence_matches_naive_next_divergence(monkeypatch):
    # At every node of every search, the split times kept along the path
    # and the groups made at the next one equal the divergence rebuilt from
    # each drama's known times, on the fixture, on chained links and on
    # random networks, half of them with deltas of mixed denominators.
    real = search._Problem.next_divergence
    seen = {"nodes": 0, "splits": 0, "mixed": 0}

    def checked(problem, node):
        found = real(problem, node)
        expected = naive_next_divergence(problem, node.dctxs, node.committed, node.now)
        if expected is None:
            assert found is None
        else:
            t, groups = expected
            assert Fraction(found, problem.tick) == t
            children = [child for _, child in problem.split(node, found)]
            assert ([[d.idx for d in child.dctxs] for child in children]
                    == [[d.idx for d in group] for group in groups])
            assert all(child.now == found and child.strict for child in children)
            seen["splits"] += 1
            seen["mixed"] += t.denominator not in (1, 1000)   # not an integer or epsilon step
        seen["nodes"] += 1
        return found

    monkeypatch.setattr(search._Problem, "next_divergence", checked)
    check_dc(compile_workflow(parse_workflow(branching_workflow_text()))[0])
    check_dc(chained_links())
    check_dc(link_chain(4))
    fractions = (Fraction(1, 3), Fraction(1, 7), Fraction(5, 2))
    rng = random.Random(10)
    for i in range(200):
        mixed = fractions if i % 2 else None
        check_dc(random_cstn(rng, fractions=mixed))
        check_dc(random_stnu(rng, fractions=mixed))
    assert seen["nodes"] > 1000
    assert seen["splits"] > 400
    assert seen["mixed"] > 100


def test_events_are_the_union_of_commit_events():
    # `_events` gathers per-commit events; the direct reading of each
    # observation and link completion off the schedule gives the same.
    rng = random.Random(11)
    for _ in range(100):
        net = random_cstn(rng)
        strategy = random_cstn_strategy(rng, net)
        for s, schedule in strategy.table.items():
            assert sorted(_events(net, s, schedule)) == sorted(naive_events(net, s, schedule))
    nets = [random_stnu(rng) for _ in range(100)] + [chained_links(), link_chain(4)]
    for net in nets:
        result = check_dc(net)
        strategy = result.strategy if result.controllable else random_stnu_strategy(rng, net)
        for index, schedule in strategy.table.items():
            s = strategy.drama(index).scenario
            assert sorted(_events(net, s, schedule)) == sorted(naive_events(net, s, schedule))


def _corrupted(rng, strategy):
    table = {index: dict(schedule) for index, schedule in strategy.table.items()}
    schedule = table[rng.choice(sorted(table, key=str))]
    schedule[rng.choice(sorted(schedule))] += rng.choice((-1, 1))
    return type(strategy)(strategy.kind, table)


def test_certification_viability_matches_is_viable():
    # `is_viable`, which selects each scenario's constraints from the
    # network, must give the verdict and first violation of the per-index
    # reference, which projects each drama itself (`project`),
    # on random strategies, on the ones `check_dc` certified and on
    # corrupted copies.  The search's classes hold the points of those
    # projections.
    rng = random.Random(12)
    verdicts = {True: 0, False: 0}
    for i in range(120):
        if i % 2:
            net = random_cstn(rng, consistent=i % 4 == 1)
            dramas = [Drama(s, ()) for s in enumerate_scenarios(net.letters)]
            strategies = [random_cstn_strategy(rng, net)]
        else:
            net = random_stnu(rng, consistent=i % 4 == 0)
            dramas = [Drama(Scenario({}), w) for w in sample_situations(net.links)]
            strategies = [random_stnu_strategy(rng, net)]
        result = check_dc(net)
        if result.controllable:
            strategies += [result.strategy, _corrupted(rng, result.strategy)]
        problem = search._Problem(net, dramas)
        for d in problem.dctxs:
            projection = project(net, d.drama.scenario, d.drama.situation)
            assert d.relevant == projection.timepoints
            assert {c: Fraction(t, problem.tick) for c, t in d.durations.items()} \
                == {link.contingent: duration
                    for link, duration in zip(net.links, d.drama.situation)
                    if link.activation in projection.timepoints
                    and link.contingent in projection.timepoints}
        for strategy in strategies:
            got = is_viable(net, strategy)
            want = naive_viable(net, strategy)
            assert (got.ok, got.index, got.constraint) == (want.ok, want.index, want.constraint)
            verdicts[got.ok] += 1
    assert verdicts[True] > 30 and verdicts[False] > 60


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # A 70-point chain STN is one greedy path of 70 commits; under a
    # recursion limit of 200 the walk used to raise RecursionError.
    script = ("import sys; from cstnu import LabeledConstraint, Network, check_dc; "
              "ids = ['P%d' % i for i in range(70)]; "
              "net = Network(timepoints=ids, constraints=[c for a, b in zip(ids, ids[1:]) "
              "for c in (LabeledConstraint(a, b, 2), LabeledConstraint(b, a, -1))]); "
              "sys.setrecursionlimit(200); "
              "print(check_dc(net).verdict)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cstnu.__file__)))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert done.stdout.strip() == "controllable", done.stderr[-2000:]
