"""Constraint composition, label modification, and the saturation loop."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import cstnu
from cstnu import (LabeledConstraint, Network, TimePoint, compile_workflow, parse_label,
                   parse_workflow, propagate_to_fixpoint, solve, to_stn)
from cstnu.fixtures import branching_workflow_text
from cstnu.jsonio import network_from_dict
from cstnu.propagation import DEFAULT_BUDGET, PropagationResult
import helpers
from helpers import (DEAD_LABEL_WORKFLOW, bench_gen, naive_propagate, random_consistent_stn,
                     random_cstn)
from reference import (PreconditionError, compose, dominates, label_modification,
                       modification_pair, naive_explain)


def lc(source, target, delta, label="[]"):
    return LabeledConstraint(source, target, Fraction(delta), parse_label(label))


def test_compose_adds_bounds_and_conjoins_labels():
    out = compose(lc("W", "X", 3, "a"), lc("X", "Y", 4, "b"))
    assert out == lc("W", "Y", 7, "ab")


def test_compose_clash_returns_none():
    assert compose(lc("W", "X", 3, "a"), lc("X", "Y", 4, "!a")) is None


def test_compose_requires_chain():
    with pytest.raises(ValueError):
        compose(lc("W", "X", 3), lc("Z", "Y", 4))


def test_dominance():
    assert dominates(lc("X", "Y", 3, "a"), lc("X", "Y", 5, "ab"))
    assert dominates(lc("X", "Y", 3), lc("X", "Y", 3))
    assert not dominates(lc("X", "Y", 5, "a"), lc("X", "Y", 3, "ab"))
    assert not dominates(lc("X", "Y", 3, "ab"), lc("X", "Y", 5, "a"))
    assert not dominates(lc("X", "Z", 3), lc("X", "Y", 5))


def test_label_modification_textbook_instance():
    letter, obs, obs_c, target_c = modification_pair()
    result = label_modification(letter, obs, obs_c, target_c)
    assert result.derived == lc("X", "Y", 5, "abc")
    assert result.residuals == (lc("X", "Y", 5, "!abcp"),)
    assert (result.alpha, result.beta, result.gamma) == (
        parse_label("a"), parse_label("b"), parse_label("c"))


def test_label_modification_empty_alpha_has_no_residuals():
    result = label_modification(
        "p", "P", lc("P", "X", -10, "b"), lc("X", "Y", 5, "bp"))
    assert result.derived == lc("X", "Y", 5, "b")
    assert result.residuals == ()


def test_label_modification_preconditions():
    letter, obs, obs_c, target_c = modification_pair()
    cases = [
        ("p", "Q", obs_c, target_c, "observation point"),
        (letter, obs, obs_c, lc("Z", "Y", 5, "bcp"), "does not start"),
        (letter, obs, lc("P", "X", 2, "ab"), target_c, "non-positive"),
        (letter, obs, obs_c, lc("X", "Y", 5, "bc"), "positively"),
        (letter, obs, lc("P", "X", -10, "abp"), target_c, "must not mention"),
        (letter, obs, obs_c, lc("X", "Y", 12, "bcp"), "exceeds"),
        (letter, obs, lc("P", "X", -10, "a!b"), target_c, "disagree"),
    ]
    for args in cases:
        with pytest.raises(PreconditionError, match=args[-1]):
            label_modification(*args[:-1])


def test_fixpoint_matches_shortest_paths_on_unlabeled_networks():
    rng = random.Random(21)
    for _ in range(15):
        stn, _ = random_consistent_stn(rng, max_points=6)
        net = Network(timepoints=sorted(stn.timepoints),
                      constraints=[LabeledConstraint(c.source, c.target, c.delta)
                                   for c in stn.constraints])
        result = propagate_to_fixpoint(net)
        assert result.saturated and not result.refuted
        matrix = solve(to_stn(net))
        best = {}
        for c in result.constraints:
            if c.source != c.target:
                key = (c.source, c.target)
                best[key] = min(best.get(key, c.delta), c.delta)
        for (a, b), delta in best.items():
            assert delta == matrix.distance(a, b), (a, b)
        for a in stn.timepoints:
            for b in stn.timepoints:
                if a != b and matrix.distance(a, b) != float("inf"):
                    assert best[(a, b)] == matrix.distance(a, b)


def test_fixpoint_refutes_negative_cycle():
    net = Network(timepoints=["A", "B"],
                  constraints=[lc("A", "B", 1), lc("B", "A", -2)])
    result = propagate_to_fixpoint(net)
    assert result.refuted
    assert result.refutation.delta < 0
    assert result.refutation.label.is_empty()
    assert "compose" in result.explain(result.refutation)[-1]


def test_fixpoint_keeps_labeled_negative_loop_without_refuting():
    # contradictory only when p holds: records the dead scenario, no refutation
    net = Network(
        timepoints=[TimePoint("Op"), TimePoint("A"), TimePoint("B")],
        constraints=[lc("A", "B", 1, "p"), lc("B", "A", -2, "p"),
                     lc("Op", "A", 5), lc("A", "Op", 5)],
        letters=["p"], observations={"p": "Op"})
    result = propagate_to_fixpoint(net)
    assert not result.refuted
    assert any(c.source == c.target and c.delta < 0 and not c.label.is_empty()
               for c in result.constraints)


def test_fixpoint_applies_label_modification():
    # X at least 10 before the observation of p; a p-labeled bound on Y - X
    # must lose its p dependence
    net = Network(
        timepoints=[TimePoint("P"), TimePoint("X"), TimePoint("Y")],
        constraints=[lc("P", "X", -10), lc("X", "Y", 5, "p")],
        letters=["p"], observations={"p": "P"})
    result = propagate_to_fixpoint(net)
    assert lc("X", "Y", 5) in result.constraints
    rule, parents = result.trace[lc("X", "Y", 5)]
    assert rule == "label-modification"
    assert len(parents) == 2


def test_fixpoint_repairs_observation_labels():
    # Oq is itself labeled p; derivations mentioning q must pick up p
    net = Network(
        timepoints=[TimePoint("Op"), TimePoint("Oq", parse_label("p")),
                    TimePoint("X"), TimePoint("Y")],
        constraints=[lc("Oq", "Op", Fraction(-1, 1000), "p"),
                     lc("X", "Oq", 2, "q"), lc("Oq", "Y", 3, "[]")],
        letters=["p", "q"], observations={"p": "Op", "q": "Oq"})
    result = propagate_to_fixpoint(net)
    derived = [c for c in result.constraints
               if c.source == "X" and c.target == "Y" and c.delta == 5]
    assert derived and all("q" in c.label.letters and "p" in c.label.letters
                           for c in derived)


def test_fixpoint_budget_cap():
    net = Network(
        timepoints=["A", "B", "C", "P"],
        constraints=[lc("A", "B", 1, "p"), lc("B", "C", 1),
                     lc("C", "A", -3, "p"), lc("A", "P", 0), lc("P", "A", 0)],
        letters=["p"], observations={"p": "P"})
    result = propagate_to_fixpoint(net, budget=3)
    assert not result.saturated


def test_given_constraints_are_traced():
    net = Network(timepoints=["A", "B"], constraints=[lc("A", "B", 1)])
    result = propagate_to_fixpoint(net)
    assert result.trace[lc("A", "B", 1)] == ("given", ())


# Given self-loops go into the store as derived ones do: B - B <= -1 has
# no schedule; C - C <= -1 under p kills p, so A - C <= 2 under p is
# never admitted; P - C <= -1 then widens C's loop to a refutation.
GIVEN_LOOP = Network(timepoints=["A", "B"], constraints=[lc("A", "B", 1), lc("B", "B", -1)])
GIVEN_LABELED_LOOP = Network(
    timepoints=["A", "B", "C", "P"],
    constraints=[lc("A", "B", 1, "p"), lc("B", "C", 1), lc("C", "C", -1, "p")],
    letters=["p"], observations={"p": "P"})
GIVEN_VACUOUS_LOOP = Network(
    timepoints=["A", "B"], constraints=[lc("A", "B", 1), lc("B", "A", 2), lc("B", "B", 0)])


def test_a_given_negative_self_loop_refutes_before_any_round():
    result = propagate_to_fixpoint(GIVEN_LOOP)
    assert result.refutation == lc("B", "B", -1)
    assert (result.rounds, result.saturated) == (0, False)
    assert result.trace[result.refutation] == ("given", ())


def test_a_given_labeled_negative_self_loop_makes_its_label_dead():
    result = propagate_to_fixpoint(GIVEN_LABELED_LOOP)
    assert result.saturated and not result.refuted
    assert lc("A", "C", 2, "p") not in result.constraints
    widened = Network(timepoints=["A", "B", "C", "P"],
                      constraints=[*GIVEN_LABELED_LOOP.constraints, lc("P", "C", -1)],
                      letters=["p"], observations={"p": "P"})
    result = propagate_to_fixpoint(widened)
    assert result.refutation == lc("C", "C", -1)
    assert result.trace[result.refutation] == ("label-modification",
                                               (lc("P", "C", -1), lc("C", "C", -1, "p")))


@pytest.mark.parametrize("budget", ["10", None, -1, True, 2.5])
def test_a_budget_that_is_not_a_count_is_refused(budget):
    network, _ = compile_workflow(parse_workflow(branching_workflow_text()))
    with pytest.raises(ValueError) as err:
        propagate_to_fixpoint(network, budget=budget)
    assert str(err.value) == "budget must be a non-negative int, not %r" % (budget,)
    assert not propagate_to_fixpoint(network, budget=0).saturated


DEAD_BEFORE_REFUTATION = """\
task T1 [10,18]
task T2 [2,6]
flow T1 -> T2 [0,3]
split S1 [2,3]
join J1 [0,2]
flow T2 -> S1 [2,6]
task T3 [2,21]
flow S1 -> T3 [3,6]
task T4 [5,15]
flow T3 -> T4 [0,5]
branch S1 T3 +
flow T4 -> J1 [1,5]
task T5 [6,22]
flow S1 -> T5 [3,7]
branch S1 T5 -
flow T5 -> J1 [3,9]
task T6 [4,9]
flow J1 -> T6 [3,5]
constrain T1.S -> T6.E [0,33]
"""


def test_dead_labels_do_not_block_a_refutation():
    # Both scenarios die (a and !a) before compose derives the a-labeled
    # negative self-loop on S1_S; label modification needs that loop to
    # derive the empty-label refutation.
    network, _ = compile_workflow(parse_workflow(DEAD_BEFORE_REFUTATION))
    result = propagate_to_fixpoint(network)
    assert result.refuted
    assert result.refutation.source == result.refutation.target
    assert result.refutation.delta < 0 and result.refutation.label.is_empty()


def derivations(result):
    return [(c, rule, parents) for c, (rule, parents) in result.trace.items()
            if rule != "given"]


def naive_loop_networks():
    """Random CSTNs, some with deltas of denominators 1, 3, 7 and 2 (to
    check the integer scaling), the fixture, DEAD_BEFORE_REFUTATION, a
    network whose observation-side value dies before its use, one whose
    label pq is screened live before its subset p dies, one whose given
    self-loop label modification would rewrite to a vacuous one, one
    whose label modification makes a residual and meets a sign clash, and
    three whose given self-loop is negative under [], negative under a
    label or vacuous."""
    rng = random.Random(5)
    networks = [random_cstn(rng, max_letters=3, max_points=7) for _ in range(40)]
    mixed = (Fraction(1, 3), Fraction(1, 7), Fraction(5, 2))
    networks += [random_cstn(rng, max_letters=3, max_points=7, fractions=mixed)
                 for _ in range(20)]
    for text in (branching_workflow_text(), DEAD_BEFORE_REFUTATION):
        networks.append(compile_workflow(parse_workflow(text))[0])
    # Label modification through Oq - Or <= 0 removes the r-labeled
    # Or - Oq <= 0 before the pass reaches it as the observation side of q.
    networks.append(Network(
        timepoints=["Oq", "Or", "X"],
        constraints=[lc("Or", "Oq", 0), lc("Oq", "Or", 0, "r"), lc("Or", "X", 0, "q")],
        letters=["q", "r"], observations={"q": "Oq", "r": "Or"}))
    # The first compose pass admits B - X <= 2 under pq, then the p-labeled
    # self-loops; the next one must reject Y - X <= 3 under pq as dead.
    networks.append(Network(
        timepoints=["A", "B", "C", "Op", "Oq", "X", "Y"],
        constraints=[lc("X", "A", 1, "pq"), lc("A", "B", 1), lc("B", "Y", 1),
                     lc("C", "Y", 1, "p"), lc("Y", "C", -2, "p")],
        letters=["p", "q"], observations={"p": "Op", "q": "Oq"}))
    # Admitting X - X <= 0 under [] would refute the network.
    networks.append(Network(
        timepoints=["P", "X"], constraints=[lc("P", "X", -1), lc("X", "X", 0, "p")],
        letters=["p"], observations={"p": "P"}))
    networks.append(MODIFICATION_CASES)
    networks += [GIVEN_LOOP, GIVEN_LABELED_LOOP, GIVEN_VACUOUS_LOOP]
    return networks


# X runs at least 10 before P observes p.  Under a, Y - X <= 5 loses its p
# and leaves the residual Y - X <= 5 under !a p; under !a, Y - X <= 4
# clashes with the observation side's a.
MODIFICATION_CASES = Network(
    timepoints=["A", "P", "X", "Y"],
    constraints=[lc("P", "X", -10, "a"), lc("X", "Y", 5, "p"), lc("X", "Y", 4, "!ap")],
    letters=["a", "p"], observations={"a": "A", "p": "P"})


def test_the_naive_loop_networks_reach_every_label_modification_outcome(monkeypatch):
    # The reference meets a residual and a sign clash on MODIFICATION_CASES,
    # so the comparison with the naive loop covers both.
    seen = []

    def spy(*args):
        try:
            result = label_modification(*args)
        except PreconditionError as err:
            seen.extend(err.failures)
            raise
        seen.extend("residual" for _ in result.residuals)
        return result

    monkeypatch.setattr(helpers, "label_modification", spy)
    naive_propagate(MODIFICATION_CASES)
    assert "residual" in seen
    assert "labels disagree on the sign of 'a'" in seen
    # The loop admits the modified value; the residual's label holds its
    # target's, at the same bound, and that target is still live, so no
    # residual is ever admitted.
    trace = propagate_to_fixpoint(MODIFICATION_CASES).trace
    assert trace[lc("X", "Y", 5, "a")] == ("label-modification",
                                          (lc("P", "X", -10, "a"), lc("X", "Y", 5, "p")))
    assert lc("X", "Y", 5, "!ap") not in trace


def test_the_naive_loop_never_admits_a_residual():
    # `propagate_to_fixpoint` offers label modification's derived value
    # alone.  That keeps its output only if the reference, which offers
    # every residual too, admits none: a residual keeps its observation
    # parent's letter positively, the derived value drops it.
    with open(DEAD_LABEL_WORKFLOW) as f:
        networks = naive_loop_networks() + [network_from_dict(json.load(f))]
    modified = 0
    for network in networks:
        letter_of = {point: letter for letter, point in network.observations.items()}
        for c, (rule, parents) in naive_propagate(network).trace.items():
            if rule == "label-modification":
                assert c.label.sign(letter_of[parents[0].source]) is not True, c
                modified += 1
    assert modified >= 50


BUDGETS = (1, 3, 10, 50, 200, 5000)


def test_fixpoint_matches_the_naive_loop():
    # The semi-naive, edge-indexed loop must admit and remove what
    # composing every live pair and scanning every live constraint does,
    # in the same order, and stop at the same point when the budget runs
    # out mid-round.
    for network in naive_loop_networks():
        for budget in BUDGETS:
            got = propagate_to_fixpoint(network, budget=budget)
            want = naive_propagate(network, budget=budget)
            assert ((got.constraints, got.refuted, got.refutation, got.saturated,
                     got.rounds, got.live)
                    == (want.constraints, want.refuted, want.refutation,
                        want.saturated, want.rounds, want.live))
            assert derivations(got) == derivations(want)
            assert got.trace == want.trace
            assert all(type(c.delta) is Fraction for c in got.constraints)


def outcome(result):
    return (result.refuted, result.saturated,
            any(c.source == c.target and c.delta < 0 for c in result.constraints))


def test_removing_dominated_values_keeps_the_outcome():
    # Keeping every admitted value must refute, saturate and derive a
    # negative self-loop exactly when the minimal store does.  Where the
    # budget cuts the keep-everything loop short, the store, which admits
    # fewer values, may still finish, so only a finished run is compared.
    for network in naive_loop_networks():
        for budget in BUDGETS + (DEFAULT_BUDGET,):
            want = naive_propagate(network, budget=budget, keep_everything=True)
            if want.refuted or want.saturated:
                assert outcome(propagate_to_fixpoint(network, budget=budget)) == outcome(want)
            else:
                assert budget != DEFAULT_BUDGET


def test_the_store_is_minimal_and_covers_the_trace():
    rng = random.Random(16)
    networks = [compile_workflow(parse_workflow(branching_workflow_text()))[0]]
    networks += [random_cstn(rng, max_letters=3, max_points=7) for _ in range(30)]
    networks += [random_cstn(rng, max_letters=3, max_points=7,
                             fractions=(Fraction(1, 3), Fraction(5, 2)))
                 for _ in range(30)]
    removed = 0
    for network in networks:
        result = propagate_to_fixpoint(network)
        assert result.live <= result.constraints
        for c in result.live:
            assert not any(dominates(other, c) for other in result.live if other != c)
        for c in result.constraints - result.live:
            assert any(dominates(other, c) for other in result.live)
            assert result.explain(c)[-1].startswith(str(c))
            removed += 1
    assert removed > 100


def test_trace_order_does_not_depend_on_string_hashing():
    script = ("from cstnu import compile_workflow, parse_workflow, propagate_to_fixpoint; "
              "from cstnu.fixtures import branching_workflow_text as text; "
              "net = compile_workflow(parse_workflow(text()))[0]; "
              "print([str(c) for c in propagate_to_fixpoint(net).trace])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cstnu.__file__)))
    outputs = [subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                              check=True, text=True).stdout
               for seed in ("0", "1")]
    assert outputs[0] == outputs[1] and outputs[0].startswith("['(")


@pytest.mark.parametrize("splits", [3, 4, None], ids=["tight-3", "tight-4", "dead-labels"])
def test_explain_lists_each_derivation_once_after_its_parents(splits):
    """On the dead-label workflow and on `bench/gen.py`'s tight workflows
    with 3 and 4 one-task splits in a row."""
    if splits is None:
        with open(DEAD_LABEL_WORKFLOW) as f:
            network = network_from_dict(json.load(f))
    else:
        text = bench_gen().workflow(random.Random("scale/1"), (2, ((1, 1, 1),) * splits), False)
        network = compile_workflow(parse_workflow(text))[0]
    result = propagate_to_fixpoint(network)
    assert result.refuted
    unfolded = naive_explain(result, result.refutation)
    lines = result.explain(result.refutation)
    assert len(lines) < len(unfolded)
    assert lines == list(dict.fromkeys(unfolded))
    line_of = {c: "%s  [%s]" % (c, rule) for c, (rule, _) in result.trace.items()}
    position = {line: i for i, line in enumerate(lines)}
    assert lines[-1] == line_of[result.refutation]
    for c, (_, parents) in result.trace.items():
        if line_of[c] in position:
            assert all(position[line_of[p]] < position[line_of[c]] for p in parents)


def test_explain_walks_a_derivation_deeper_than_the_recursion_limit():
    chain = [lc("X%d" % i, "X%d" % (i + 1), 1) for i in range(sys.getrecursionlimit() + 10)]
    trace = {chain[0]: ("given", ())}
    for first, second in zip(chain, chain[1:]):
        trace[second] = ("compose", (first,))
    lines = PropagationResult(trace).explain(chain[-1])
    assert lines == ["%s  [%s]" % (c, trace[c][0]) for c in chain]
