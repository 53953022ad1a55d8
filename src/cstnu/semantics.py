"""Execution-strategy semantics: schedules, histories, viability, and the
dynamic / dynamic* properties for CSTNs, STNUs, and CSTNUs.

A strategy is an explicit finite table from its index set (scenarios,
sampled situations, or sampled dramas) to schedules.  Histories collect
what was observable strictly before a time: ties are excluded, an
observation at exactly time t is not part of t's history.
"""

from dataclasses import dataclass

from .labels import Label, con
from .projection import (Drama, Scenario, drama_projection, relevant_timepoints,
                         scenario_projection, situation_projection)
from .stn import check_solution


@dataclass
class Strategy:
    """Explicit strategy table.

    kind 'cstn': Scenario -> schedule over the scenario's relevant points;
    kind 'stnu': situation tuple -> schedule over all points;
    kind 'cstnu': Drama -> schedule over the scenario's relevant points.
    """

    kind: str
    table: dict

    def schedule(self, index):
        return self.table[index]

    def indices(self):
        return sorted(self.table, key=str)


def history_label(history):
    """View a scenario history as the label its observations spell out."""
    return Label(history)


def _check_domain(network, strategy, index):
    schedule = strategy.table[index]
    if strategy.kind == "stnu":
        expected = frozenset(network.timepoints)
    else:
        scenario = index.scenario if strategy.kind == "cstnu" else index
        expected = relevant_timepoints(network, scenario)
    if frozenset(schedule) != expected:
        raise ValueError("schedule domain for %s is not the expected point set" % (index,))
    return schedule


def sc_hst(network, scenario, strategy, point):
    """Observations made strictly before `point` executes (scHst)."""
    schedule = strategy.table[scenario]
    if point not in schedule:
        raise ValueError("%r is not executed in scenario %s" % (point, scenario))
    return sc_hst_star(network, scenario, strategy, schedule[point])


def sc_hst_star(network, scenario, strategy, t):
    """Observations made strictly before numeric time `t` (scHst*)."""
    schedule = strategy.table[scenario]
    out = set()
    for letter in network.letters:
        obs = network.observation_point(letter)
        if obs in schedule and schedule[obs] < t:
            out.add((letter, scenario.value(letter)))
    return frozenset(out)


def sit_hst(network, situation, strategy, t):
    """Contingent completions strictly before `t`, with observed durations."""
    schedule = strategy.table[situation]
    out = set()
    for link in network.links:
        if schedule[link.contingent] < t:
            out.add((link.activation, link.contingent,
                     schedule[link.contingent] - schedule[link.activation]))
    return frozenset(out)


def dr_hst(network, scenario, situation, strategy, t):
    """Drama history: the (scenario history, situation history) pair,
    both restricted to the scenario's relevant points."""
    drama = Drama(scenario, situation)
    schedule = strategy.table[drama]
    relevant = frozenset(schedule)
    h_s = set()
    for letter in network.letters:
        obs = network.observation_point(letter)
        if obs in relevant and schedule[obs] < t:
            h_s.add((letter, scenario.value(letter)))
    h_w = set()
    for link in network.links:
        if (link.activation in relevant and link.contingent in relevant
                and schedule[link.contingent] < t):
            h_w.add((link.activation, link.contingent,
                     schedule[link.contingent] - schedule[link.activation]))
    return frozenset(h_s), frozenset(h_w)


@dataclass
class ViabilityResult:
    ok: bool
    index: object = None
    constraint: object = None

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "viable"
        return "not viable: %s violated for %s" % (self.constraint, self.index)


def _projection_for(network, strategy, index):
    if strategy.kind == "stnu":
        return situation_projection(network, index)
    if strategy.kind == "cstnu":
        return drama_projection(network, index.scenario, index.situation)
    return scenario_projection(network, index)


def is_viable(network, strategy):
    """Every indexed schedule must solve the corresponding projection."""
    for index in strategy.indices():
        schedule = _check_domain(network, strategy, index)
        violated = check_solution(_projection_for(network, strategy, index), schedule)
        if violated:
            return ViabilityResult(False, index, violated[0])
    return ViabilityResult(True)


@dataclass
class DynamicityResult:
    ok: bool
    witness: tuple = None

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "dynamic"
        return "not dynamic: witness %s" % (self.witness,)


def is_dynamic_cstn(network, strategy):
    """Direct check of the dynamic property for CSTN strategies:
    Con(s1, scHst(X, s2, sigma)) forces equal execution times for X."""
    if strategy.kind != "cstn":
        raise ValueError("is_dynamic_cstn expects a CSTN strategy")
    scenarios = strategy.indices()
    for s1 in scenarios:
        label1 = s1.as_label()
        sched1 = strategy.table[s1]
        for s2 in scenarios:
            sched2 = strategy.table[s2]
            shared = frozenset(sched1) & frozenset(sched2)
            for point in sorted(shared):
                history = sc_hst(network, s2, strategy, point)
                if con(label1, history_label(history)):
                    if sched1[point] != sched2[point]:
                        return DynamicityResult(False, (s1, s2, point))
    return DynamicityResult(True)


def is_dynamic_star(network, strategy):
    """The history*-based dynamicity check (the dynamic* property).

    Equal histories at t = [sigma(i1)]_X force equal execution times.
    For STNU/CSTNU strategies only non-contingent points are quantified:
    the environment, not the strategy, sets contingent times.
    """
    contingent = network.contingent_points if strategy.kind in ("stnu", "cstnu") else frozenset()
    indices = strategy.indices()
    history_cache = {}

    def history(index, t):
        key = (index, t)
        if key not in history_cache:
            if strategy.kind == "stnu":
                history_cache[key] = sit_hst(network, index, strategy, t)
            elif strategy.kind == "cstnu":
                history_cache[key] = dr_hst(network, index.scenario, index.situation,
                                            strategy, t)
            else:
                history_cache[key] = sc_hst_star(network, index, strategy, t)
        return history_cache[key]

    for i1 in indices:
        sched1 = strategy.table[i1]
        for i2 in indices:
            sched2 = strategy.table[i2]
            shared = frozenset(sched1) & frozenset(sched2)
            for point in sorted(shared):
                if point in contingent:
                    continue
                t = sched1[point]
                if sched1[point] == sched2[point]:
                    continue
                if history(i1, t) == history(i2, t):
                    return DynamicityResult(False, (i1, i2, point))
    return DynamicityResult(True)
