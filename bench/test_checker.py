"""Tests of the benchmark's independent checker against the library.

    PYTHONPATH=src:bench python3 -m pytest -q bench/test_checker.py
"""

import random
from fractions import Fraction

import pytest

import checker
import gen
from cstnu import (Drama, Scenario, Strategy, check_dc, compile_workflow,
                   is_dynamic_star, is_viable, parse_workflow, propagate_to_fixpoint,
                   solve, to_stn)
from cstnu.fixtures import branching_workflow_text
from cstnu.jsonio import network_from_dict

SMALL_WORKFLOW = """\
task T1 [2,4]
task T2 [3,6]
task T3 [5,9]
split S1 [1,2]
join J1 [0,1]
flow T1 -> S1 [1,3]
flow S1 -> T2 [1,3]
flow S1 -> T3 [1,3]
branch S1 T2 +
branch S1 T3 -
flow T2 -> J1 [0,4]
flow T3 -> J1 [0,4]
"""


def _random_strategy(rng, network, grid=2):
    """A random table over the sampled dramas: small integer times, shared
    across dramas half the time, contingent points at their activation
    time plus the sampled duration."""
    links = {link.contingent: (link.activation, i) for i, link in enumerate(network.links)}
    shared = {p: Fraction(rng.randint(0, 4)) for p in network.timepoints}
    constant = rng.random() < 0.5
    kind = {"stn": "cstn", "cstn": "cstn"}.get(network.kind, network.kind)
    table = {}
    for scenario, situation in checker.sampled_dramas(network, grid):
        points, _ = checker.drama_stn(network, scenario, situation)
        schedule = {p: shared[p] if constant else Fraction(rng.randint(0, 4))
                    for p in points if p not in links}
        for point, (activation, i) in links.items():
            if point in points:
                schedule[point] = schedule[activation] + situation[i]
        if kind == "cstnu":
            index = Drama(Scenario(scenario), situation)
        elif kind == "stnu":
            index = situation
        else:
            index = Scenario(scenario)
        table[index] = schedule
    return Strategy(kind, table)


def _verdicts(network, strategy):
    entries = checker.strategy_entries(strategy)
    outcome = []
    for check in (checker.check_viable, checker.check_dynamic_star):
        try:
            check(network, entries)
            outcome.append(True)
        except checker.CheckFailed:
            outcome.append(False)
    return outcome


@pytest.mark.parametrize("make", [gen.cstn, gen.stnu, gen.cstnu, gen.stn])
def test_agrees_with_library_on_random_strategies(make):
    rng = random.Random(make.__name__)
    seen = set()
    for _ in range(150):
        network = network_from_dict(make(rng, rng.random() < 0.5))
        strategy = _random_strategy(rng, network)
        mine = _verdicts(network, strategy)
        theirs = [bool(is_viable(network, strategy)), bool(is_dynamic_star(network, strategy))]
        assert mine == theirs, network
        seen.add(tuple(mine))
    # Both outcomes of the dynamic* check occur (not on plain STNs, whose
    # single drama is trivially dynamic).
    if make is not gen.stn:
        assert {d for _, d in seen} == {True, False}


def test_negative_cycles_match_floyd_warshall():
    rng = random.Random(7)
    found = 0
    for _ in range(300):
        network = network_from_dict(gen.stn(rng, False))
        points, edges = checker.drama_stn(network, {}, ())
        cycle = checker.negative_cycle(points, edges)
        assert (cycle is None) == solve(to_stn(network)).consistent
        if cycle is not None:
            found += 1
            assert sum(d for _, _, d in cycle) < 0
            assert all(edge in edges for edge in cycle)
            assert all(a[1] == b[0] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    assert found > 0


def _controllable_workflow():
    network, _ = compile_workflow(parse_workflow(SMALL_WORKFLOW))
    result = check_dc(network, grid=3)
    assert result.verdict == "controllable"
    return network, result


def test_workflow_strategy_passes_and_a_moved_time_fails():
    network, result = _controllable_workflow()
    checker.check_dc_result(network, result, 3)
    contingent = network.contingent_points
    moved = 0
    for index, schedule in sorted(result.strategy.table.items(), key=lambda kv: str(kv[0])):
        for point in sorted(set(schedule) - contingent):
            table = {k: dict(v) for k, v in result.strategy.table.items()}
            table[index][point] += Fraction(1, 7)
            planted = Strategy(result.strategy.kind, table)
            with pytest.raises(checker.CheckFailed):
                checker.check_controllable(network, planted, 3)
            assert not (is_viable(network, planted) and is_dynamic_star(network, planted))
            moved += 1
        if moved >= 20:
            break
    assert moved >= 20


def test_dropped_drama_fails_coverage():
    network, result = _controllable_workflow()
    table = dict(result.strategy.table)
    table.pop(next(iter(table)))
    with pytest.raises(checker.CheckFailed):
        checker.check_controllable(network, Strategy(result.strategy.kind, table), 3)


def test_wrong_verdicts_fail():
    trap = network_from_dict(gen.greedy_trap())
    assert checker.refuting_drama(trap, 3) is None
    with pytest.raises(checker.CheckFailed):
        checker.check_dc_result(trap, type("R", (), {"verdict": "not-controllable"})(), 3)
    inconsistent = network_from_dict({"timepoints": [{"id": "A"}, {"id": "B"}],
                                      "constraints": [{"from": "A", "to": "B", "delta": "-1"},
                                                      {"from": "B", "to": "A", "delta": "0"}]})
    with pytest.raises(checker.CheckFailed):
        checker.check_dc_result(inconsistent, type("R", (), {"verdict": "unknown"})(), 3)


def test_propagation_checks():
    network, _ = compile_workflow(parse_workflow(branching_workflow_text()))
    result = propagate_to_fixpoint(network)
    checker.check_propagation(network, result, controllable=True)
    composed = next(c for c, (rule, _) in sorted(result.trace.items(), key=lambda kv: str(kv[0]))
                    if rule == "compose")
    rule, (first, second) = result.trace[composed]
    result.trace[composed] = (rule, (second, first))
    with pytest.raises(checker.CheckFailed):
        checker.check_propagation(network, result, controllable=True)


def test_tight_workflows_are_refuted_by_an_empty_label_loop():
    rng = random.Random(3)
    for shape in ((2, ((1, 1, 1),)), (1, ((1, 1, 0),))):
        network, _ = compile_workflow(parse_workflow(gen.workflow(rng, shape, False)))
        result = propagate_to_fixpoint(network)
        assert result.refuted
        checker.check_propagation(network, result, controllable=False)
        with pytest.raises(checker.CheckFailed):
            checker.check_propagation(network, result, controllable=True)


def test_greedy_trap_has_a_static_strategy():
    """The fixed small_nets_dc member that check_dc answers "unknown" on is
    controllable: one static schedule passes both scenarios."""
    trap = network_from_dict(gen.greedy_trap())
    times = {"X2": Fraction(0), "X3": Fraction(3001, 1000), "Or": Fraction(8),
             "X1": Fraction(8001, 1000), "X0": Fraction(12)}
    table = {}
    for scenario, _ in checker.sampled_dramas(trap, 3):
        points, _ = checker.drama_stn(trap, scenario, ())
        table[Scenario(scenario)] = {p: times[p] for p in points}
    strategy = Strategy("cstn", table)
    checker.check_controllable(trap, strategy, 3)
    assert is_viable(trap, strategy) and is_dynamic_star(trap, strategy)
