"""Dynamic-controllability checking on small networks."""

import random
from fractions import Fraction

import pytest

from cstnu import (ContingentLink, Drama, LabeledConstraint, Network, TimePoint,
                   candidate_time_grid, check_dc, enumerate_scenarios,
                   is_dynamic_star, is_viable, parse_label, sample_situations,
                   search, tree_strategy_masks, verify_cstn_embedding,
                   verify_stnu_embedding)
from cstnu.fixtures import modification_study, tight_contingent_stnu
from helpers import random_cstn, random_consistent_stn, random_stnu


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


def test_caps_enforced():
    net = random_cstn(random.Random(3))
    with pytest.raises(ValueError):
        check_dc(net, max_letters=0)
    stnu = random_stnu(random.Random(3))
    with pytest.raises(ValueError):
        check_dc(stnu, max_links=0)


def test_invalid_network_rejected():
    net = Network(timepoints=["A", "C"],
                  links=[ContingentLink("A", Fraction(1), Fraction(3), "C")])
    with pytest.raises(ValueError):
        check_dc(net)


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
    assert 0 in masks                      # some strategy satisfies everything
    assert all(isinstance(m, int) for m in masks)
    # original and rewritten constraint sets admit the same strategies
    assert all(bool(m & 1) == bool(m & 2) for m in masks)


def test_tree_strategy_masks_budget_is_a_runtime_error():
    with pytest.raises(RuntimeError, match="^budget of 5 nodes exhausted$"):
        tree_strategy_masks(*modification_study(), budget=5)


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


def late_observation():
    # X must commit before p is observed at Op: X <= Z+1 when not-p,
    # X >= Z+2 when p, and Op comes at least 2 after Z.
    return Network(
        timepoints=[TimePoint("Op"), TimePoint("X"), TimePoint("Z")],
        constraints=[
            LabeledConstraint("Z", "X", Fraction(1), parse_label("!p")),
            LabeledConstraint("X", "Z", Fraction(-2), parse_label("p")),
            LabeledConstraint("Op", "Z", Fraction(-2)),
            LabeledConstraint("Z", "Op", Fraction(5))],
        letters=["p"], observations={"p": "Op"})


def test_unknown_names_the_bound_that_stopped_the_search():
    net = late_observation()
    grid = candidate_time_grid(net, [()])
    exhausted = check_dc(net)
    assert exhausted.verdict == "unknown"
    assert exhausted.evidence == ("no viable decision tree over %d candidate times; "
                                  "the grid may be too coarse" % len(grid))
    over_budget = check_dc(net, exhaustive_budget=50)
    assert over_budget.verdict == "unknown"
    assert over_budget.evidence == "budget of 50 nodes exhausted"
    skipped = check_dc(net, exhaustive_points=2)
    assert skipped.verdict == "unknown"
    assert skipped.evidence == "exhaustive search skipped: 3 points > exhaustive_points (2)"


def test_exhaustive_search_certifies_what_greedy_synthesis_misses():
    # bench/gen.py's greedy trap with epsilon 1: Or, shared until observed,
    # must wait for X3, and greedy synthesis runs X3 too early
    lab = parse_label
    net = Network(
        timepoints=[TimePoint("Or"), TimePoint("X0", lab("r")), TimePoint("X1", lab("!r")),
                    TimePoint("X2"), TimePoint("X3")],
        constraints=[
            LabeledConstraint("X0", "Or", Fraction(-1), lab("r")),
            LabeledConstraint("X1", "Or", Fraction(-1), lab("!r")),
            LabeledConstraint("Or", "X0", Fraction(4), lab("r")),
            LabeledConstraint("X3", "X1", Fraction(5), lab("!r")),
            LabeledConstraint("X0", "X2", Fraction(-12), lab("r")),
            LabeledConstraint("X1", "X3", Fraction(3), lab("!r")),
            LabeledConstraint("X2", "X3", Fraction(18))],
        letters=["r"], observations={"r": "Or"}, epsilon=Fraction(1))
    problem = search._Problem(net, [Drama(s, ()) for s in enumerate_scenarios(net.letters)])
    assert search._synthesize(problem) is None
    result = check_dc(net)
    assert result.verdict == "controllable"
    assert is_viable(net, result.strategy).ok
    assert is_dynamic_star(net, result.strategy).ok


def test_witness_search_and_masks_agree():
    net = late_observation()
    grid = candidate_time_grid(net, [()])
    problem = search._Problem(net, [Drama(s, ()) for s in enumerate_scenarios(net.letters)])
    masks = tree_strategy_masks(net, [net.constraints], grid)
    assert masks == {1}
    witness = search._exhaustive_witness(problem, grid, 200_000)
    assert (witness is not None) == (0 in masks)


def test_bad_witness_is_a_bug(monkeypatch):
    real = search._synthesize

    def corrupted(problem):
        table = real(problem)
        for schedule in table.values():
            schedule["X"] += 1
        return table

    monkeypatch.setattr(search, "_synthesize", corrupted)
    with pytest.raises(RuntimeError, match="re-certification"):
        check_dc(Network(timepoints=["A", "X"],
                         constraints=[LabeledConstraint("A", "X", Fraction(3)),
                                      LabeledConstraint("X", "A", Fraction(-3))]))
