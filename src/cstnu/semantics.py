"""Execution-strategy semantics: schedules, histories, viability, and the
dynamic / dynamic* properties for CSTNs, STNUs, and CSTNUs.

A strategy is an explicit finite table from its index set (scenarios,
sampled situations, or sampled dramas) to schedules.  Histories collect
what was observable strictly before a time: ties are excluded, an
observation at exactly time t is not part of t's history.
"""

from dataclasses import dataclass

from .labels import Label, con
from .projection import Drama, Scenario, drama_projection
from .stn import check_solution

_NO_SCENARIO = Scenario({})


@dataclass
class Strategy:
    """Explicit strategy table.

    Every index stands for a drama (`drama`):
    kind 'cstn': Scenario -> schedule over the scenario's relevant points
    (the drama's situation is empty);
    kind 'stnu': situation tuple -> schedule over all points (the drama's
    scenario is empty);
    kind 'cstnu': Drama -> schedule over the scenario's relevant points.
    """

    kind: str
    table: dict

    def schedule(self, index):
        return self.table[index]

    def indices(self):
        return sorted(self.table, key=str)

    def drama(self, index):
        """The drama that `index` stands for."""
        if self.kind == "cstn":
            return Drama(index, ())
        if self.kind == "stnu":
            return Drama(_NO_SCENARIO, index)
        if self.kind == "cstnu":
            return index
        raise _unknown_kind(self.kind)

    @classmethod
    def from_dramas(cls, kind, table):
        """The `kind` strategy holding the schedules of `table`
        (Drama -> schedule), each under the index that stands for its drama."""
        if kind == "cstn":
            return cls(kind, {drama.scenario: sched for drama, sched in table.items()})
        if kind == "stnu":
            return cls(kind, {drama.situation: sched for drama, sched in table.items()})
        if kind == "cstnu":
            return cls(kind, dict(table))
        raise _unknown_kind(kind)


def _unknown_kind(kind):
    return ValueError("unknown strategy kind %r; expected cstn, stnu or cstnu" % (kind,))


def history_label(history):
    """View a scenario history as the label its observations spell out."""
    return Label(history)


def _history(network, scenario, schedule, t):
    """What is observable strictly before `t` under `schedule`: the
    (letter, value) observations and the (activation, contingent,
    duration) link completions, among the scheduled points."""
    observations = frozenset(
        (letter, scenario.value(letter))
        for letter, obs in network.observations.items()
        if obs in schedule and schedule[obs] < t)
    durations = frozenset(
        (link.activation, link.contingent,
         schedule[link.contingent] - schedule[link.activation])
        for link in network.links
        if link.activation in schedule and link.contingent in schedule
        and schedule[link.contingent] < t)
    return observations, durations


def sc_hst(network, scenario, strategy, point):
    """Observations made strictly before `point` executes (scHst)."""
    schedule = strategy.table[scenario]
    if point not in schedule:
        raise ValueError("%r is not executed in scenario %s" % (point, scenario))
    return sc_hst_star(network, scenario, strategy, schedule[point])


def sc_hst_star(network, scenario, strategy, t):
    """Observations made strictly before numeric time `t` (scHst*)."""
    return _history(network, scenario, strategy.table[scenario], t)[0]


def sit_hst(network, situation, strategy, t):
    """Contingent completions strictly before `t`, with observed durations."""
    return _history(network, _NO_SCENARIO, strategy.table[situation], t)[1]


def dr_hst(network, scenario, situation, strategy, t):
    """Drama history: the (scenario history, situation history) pair,
    both restricted to the scenario's relevant points."""
    return _history(network, scenario, strategy.table[Drama(scenario, situation)], t)


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


def is_viable(network, strategy):
    """Every indexed schedule must solve its drama's projection, over
    exactly the projection's points."""
    for index in strategy.indices():
        drama = strategy.drama(index)
        projection = drama_projection(network, drama.scenario, drama.situation)
        schedule = strategy.table[index]
        if frozenset(schedule) != projection.timepoints:
            raise ValueError("schedule domain for %s is not the expected point set" % (index,))
        violated = check_solution(projection, schedule)
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
    Only non-contingent points are quantified: the environment, not the
    strategy, sets contingent times.
    """
    contingent = network.contingent_points
    indices = strategy.indices()
    history_cache = {}

    def history(index, t):
        key = (index, t)
        if key not in history_cache:
            history_cache[key] = _history(network, strategy.drama(index).scenario,
                                          strategy.table[index], t)
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
