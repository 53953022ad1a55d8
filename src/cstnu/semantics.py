"""Execution-strategy semantics: schedules, histories, viability, and the
dynamic / dynamic* properties for CSTNs, STNUs, and CSTNUs.

A strategy is an explicit finite table from its index set (scenarios,
sampled situations, or sampled dramas) to schedules.  Histories collect
what was observable strictly before a time: ties are excluded, an
observation at exactly time t is not part of t's history.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass

from .labels import Label, con, evaluate
from .model import Constraint, strip_labels
from .projection import Drama, Scenario, _check_bounds, _check_total, _scenario_view
from .rational import _least_scale, _scaled, rational

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
    def from_dramas(cls, kind, pairs):
        """The `kind` strategy holding the schedules of `pairs`, (Drama,
        schedule) pairs, each under the index that stands for its drama.
        Two pairs whose dramas share an index raise ValueError naming
        their positions."""
        if kind not in ("cstn", "stnu", "cstnu"):
            raise _unknown_kind(kind)
        table, where = {}, {}
        for pos, (drama, schedule) in enumerate(pairs):
            index = {"cstn": drama.scenario, "stnu": drama.situation}.get(kind, drama)
            if index in where:
                raise ValueError("entries %d and %d stand for the same index of a %r strategy"
                                 % (where[index], pos, kind))
            where[index], table[index] = pos, schedule
        return cls(kind, table)


def _unknown_kind(kind):
    return ValueError("unknown strategy kind %r; expected cstn, stnu or cstnu" % (kind,))


def history_label(history):
    """View a scenario history as the label its observations spell out."""
    return Label(history)


def _commit_events(network, scenario, durations, point, t):
    """Observable events that running `point` at `t` produces in one drama,
    as (time, item) pairs: an ("obs", (letter, value)) item if `point`
    observes a letter, and for each contingent link it activates whose
    duration the drama samples (`durations`: contingent point -> duration)
    a ("link", (activation, contingent, duration)) item when the link
    completes, followed by the events of that completion in turn."""
    events = []
    pending = [(point, t)]
    while pending:
        point, t = pending.pop()
        for letter, obs in network.observations.items():
            if obs == point:
                events.append((t, ("obs", (letter, scenario.value(letter)))))
        for link in network.links:
            if link.activation == point and link.contingent in durations:
                duration = durations[link.contingent]
                done = t + duration
                events.append((done, ("link", (point, link.contingent, duration))))
                pending.append((link.contingent, done))
    return events


def _events(network, scenario, schedule):
    """Observable events of one execution, as (time, item) pairs among the
    scheduled points: the union of `_commit_events` over the points that
    no scheduled activation determines, with each completed link's
    duration read off the schedule.

    An ("obs", (letter, value)) item can only come from running its
    letter's observation point, and a ("link", ...) item only from running
    its activation, so the events of different commits never share an
    item.  Search therefore keeps each drama's events along the path of a
    decision tree, adding `_commit_events` at each commit, and splits its
    information sets where those events differ; the strategies it builds
    pass the dynamic* check, which reads these same events."""
    durations = {link.contingent: schedule[link.contingent] - schedule[link.activation]
                 for link in network.links
                 if link.activation in schedule and link.contingent in schedule}
    emitters = set(network.observations.values()) | {link.activation for link in network.links}
    events = []
    for point, t in schedule.items():
        if point in emitters and point not in durations:
            events += _commit_events(network, scenario, durations, point, t)
    return events


def _history(network, scenario, schedule, t):
    """What is observable strictly before `t` under `schedule`: the
    (letter, value) observations and the (activation, contingent,
    duration) link completions, among the scheduled points."""
    seen = {"obs": set(), "link": set()}
    for when, (kind, item) in _events(network, scenario, schedule):
        if when < t:
            seen[kind].add(item)
    return frozenset(seen["obs"]), frozenset(seen["link"])


def _changes(network, scenario, schedule, ids, pos):
    """The history changes of one execution, row `pos` of a scaled view, as
    (time, pos, id) triples: at the times after `time`, up to its next
    change, the history of `pos` strictly before them has id `id`.
    Simultaneous events make one change.  `ids` numbers every distinct
    history seen so far, the empty one 0."""
    events = sorted(_events(network, scenario, schedule), key=lambda e: e[0])
    changes = []
    seen = frozenset()
    for k, (when, item) in enumerate(events):
        seen = seen | {item}
        if k + 1 == len(events) or events[k + 1][0] != when:
            changes.append((when, pos, ids.setdefault(seen, len(ids))))
    return changes


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


class _ScaledStrategy:
    """The integer view of a strategy that certification reads, built
    once from the strategy alone: `indices` in `Strategy.indices()`
    order, the `dramas` they stand for, and every time scaled to an `int`
    by `scale`, the least that makes every time an integer (the checks
    compare differences of times, which scaling by a positive constant
    keeps, and `Fraction` arithmetic would cost more than the checks).  A
    time that is not rational (a `float`, say) raises `ValueError`.

    `rows` holds one (scenario, scaled schedule) pair per distinct
    execution, in the order of first indices; `first[row]` is a row's
    first index and `row_of[pos]` the row of position `pos`.  A scenario
    drops the links it makes irrelevant, so many dramas share one
    execution: the fixture's 486 dramas at grid 3 are 162 rows.  Each time
    is parsed once, and only the rows' times are scaled: scaling by one
    positive constant is injective, so rows keyed on the parsed schedules
    are the rows of the scaled ones, and a repeated schedule adds no
    denominator to `scale`.  The key holds each time's numerator and
    denominator, which hash faster than the `Fraction`.
    """

    def __init__(self, strategy):
        self.indices = strategy.indices()
        self.dramas = [strategy.drama(index) for index in self.indices]
        self.rows, self.first, self.row_of = [], [], []
        numbers = {}            # (scenario, schedule as (point, numerator, denominator)) -> row
        for index, drama in zip(self.indices, self.dramas):
            schedule = {point: rational(t) for point, t in strategy.table[index].items()}
            key = frozenset((point, t.numerator, t.denominator) for point, t in schedule.items())
            row = numbers.setdefault((drama.scenario, key), len(numbers))
            if row == len(self.rows):
                self.rows.append((drama.scenario, schedule))
                self.first.append(index)
            self.row_of.append(row)
        self.scale = scale = _least_scale(t for _, schedule in self.rows for t in schedule.values())
        for _, schedule in self.rows:
            for point, t in schedule.items():
                schedule[point] = _scaled(t, scale)


def _certify(network, strategy):
    """Viability, then dynamic*, of `strategy`, both read off one scaled
    view of it: the failing result, or the dynamic* one.  The strategy's
    dramas are taken to be dramas of `network` (`check_dc` samples them
    from it), so `is_viable`'s input checks are not run."""
    view = _ScaledStrategy(strategy)
    outcome = _check_viable(network, view)
    return _dynamic_star(network, view) if outcome else outcome


def is_viable(network, strategy):
    """Every indexed schedule must solve its drama's projection, over
    exactly the projection's points.  The first index, in
    `Strategy.indices()` order, whose schedule does not is reported with
    the least violated constraint by `str`, as `stn.check_solution`
    orders them.  A time that is not rational raises `ValueError`.

    Every drama is checked first, in that order, as `drama_projection`
    checks it: its situation against the links, then its scenario
    against the letters, each a `ValueError`.  So a bad drama raises
    even when an earlier index is not viable."""
    view = _ScaledStrategy(strategy)
    for drama in view.dramas:
        _check_bounds(network, drama.situation)
        _check_total(network, drama.scenario)
    return _check_viable(network, view)


def _check_viable(network, view):
    """`is_viable` on the scaled view `view`, without its input checks.

    A drama's projection is what its scenario keeps of the network
    (`projection._scenario_view`: its relevant points, the constraints
    whose labels hold, the links with both end-points relevant), plus two
    rigid constraints per kept link.  Each scenario's view is read, and
    `network.constraints` filtered by its truth mapping, once; each row of
    the view (one scenario and one schedule) is checked once against
    them, at its first index: its domain, then its scenario's
    constraints.  Each index then checks its own durations, since dramas
    with one scenario and one schedule can differ in a relevant link's
    duration: the rigid pair of a link holds iff the row's
    `t_contingent - t_activation` equals the duration.  A constraint
    `target - source <= delta` fails iff
    `(t_target - t_source) * delta.denominator > delta.numerator * scale`:
    both sides are the exact ones times `scale * delta.denominator`.  Only
    the first failing index gets `Constraint`s: its violated ones
    label-erased and its rigid ones, to report the least violated one."""
    scale = view.scale
    selected = {}           # Scenario -> (relevant points, constraints that hold, relevant links)
    checked = {}            # row -> (violated constraints, [(link position, link, span)])
    for index, drama, row in zip(view.indices, view.dramas, view.row_of):
        found = checked.get(row)
        if found is None:
            scenario, schedule = view.rows[row]
            if scenario not in selected:
                relevant, truth, links = _scenario_view(network, scenario)
                selected[scenario] = (relevant, [c for c in network.constraints
                                                 if evaluate(c.label, truth)], links)
            relevant, constraints, links = selected[scenario]
            if frozenset(schedule) != relevant:
                raise ValueError("schedule domain for %s is not the expected point set" % (index,))
            found = checked[row] = (
                [c for c in constraints
                 if (schedule[c.target] - schedule[c.source]) * c.delta.denominator
                 > c.delta.numerator * scale],
                [(k, link, schedule[link.contingent] - schedule[link.activation])
                 for k, link in links])
        violated, spans = found
        unfixed = [(link, span, drama.situation[k]) for k, link, span in spans
                   if span * drama.situation[k].denominator
                   != drama.situation[k].numerator * scale]
        if violated or unfixed:
            rigid = [Constraint(link.activation, link.contingent, d)
                     if span * d.denominator > d.numerator * scale
                     else Constraint(link.contingent, link.activation, -d)
                     for link, span, d in unfixed]
            return ViabilityResult(False, index, min([*strip_labels(violated), *rigid], key=str))
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

    The check reads the strategy's scaled view (`_ScaledStrategy`): every
    time an `int`, and one row per distinct execution.  A time that is not
    rational (a `float`, say) raises `ValueError`.  The events are rebuilt
    from the strategy's own schedules, not taken from the search that
    built it, so the check stays independent of that search.

    The witness (i1, i2, point) is the least violating triple in the order
    of `Strategy.indices()` positions, then point name: i1 runs the point
    at t and i2 elsewhere, with equal histories before t.
    """
    return _dynamic_star(network, _ScaledStrategy(strategy))


def _dynamic_star(network, view):
    """`is_dynamic_star` on the scaled view `view`.

    The executions are grouped by history rather than compared in pairs,
    in one sweep per non-contingent point p over the distinct times at
    which some execution runs p.  The sweep keeps each execution's current
    history id, applying the history changes (`_changes`) before t in
    (time, row) order, and for each history the count of the executions
    running p that hold it, by their time for p.  The strategy violates
    dynamic* at (p, t) iff some history holds an execution running p at t
    and one running it elsewhere; only then are the executions running p
    bucketed by history, to find the least witness.  Strategies built by
    the DC search are dynamic, so for them the bucketing never runs.  The
    cost is O(sum over p of (C + N_p)) for C history changes in all and
    N_p distinct executions running p, plus O(N_p) per violating (p, t),
    after sorting each execution's events once; it is not O(N^2 * P).

    Each distinct execution is swept once, as one row of the view: an
    index whose scenario and scaled schedule equal an earlier index's has
    the same events, so the same history at every time and the same time
    for every point.  A later index in a violating triple can be replaced
    by the first index of its row, which gives a lesser triple, so the
    least one holds first indices only.  Rows come in the order of their
    first indices, so the least triple of rows, each row mapped to its
    first index, is the least triple of indices.
    """
    contingent = network.contingent_points
    count = len(view.rows)
    ids = {frozenset(): 0}
    changes = []
    runs = {}       # non-contingent point -> each row's scaled time for it, or None
    for row, (scenario, schedule) in enumerate(view.rows):
        for point, t in schedule.items():
            if point not in contingent:
                if point not in runs:
                    runs[point] = [None] * count
                runs[point][row] = t
        changes += _changes(network, scenario, schedule, ids, row)
    changes.sort()
    witness = None
    for point in sorted(runs):
        when = runs[point]
        users = {}                              # time -> rows running `point` then
        for row, t in enumerate(when):
            if t is not None:
                users.setdefault(t, []).append(row)
        if len(users) < 2:
            continue
        current = [0] * count
        # history id -> time -> how many executions hold it and run `point` then
        counts = defaultdict(Counter, {0: Counter({t: len(group) for t, group in users.items()})})
        totals = Counter({0: sum(len(group) for group in users.values())})
        step = 0
        for t in sorted(users):
            while step < len(changes) and changes[step][0] < t:
                _, row, new = changes[step]
                step += 1
                at = when[row]
                if at is None:
                    continue
                old = current[row]
                current[row] = new
                counts[old][at] -= 1
                totals[old] -= 1
                counts[new][at] += 1
                totals[new] += 1
            if any(counts[current[row]][t] < totals[current[row]] for row in users[t]):
                found = _least_violation(when, current, t, point)
                if witness is None or found < witness:
                    witness = found
    if witness is None:
        return DynamicityResult(True)
    at, elsewhere, point = witness
    return DynamicityResult(False, (view.first[at], view.first[elsewhere], point))


def _least_violation(when, current, t, point):
    """The least (at, elsewhere, point) among rows with the same current
    history, `at` running `point` at scaled time `t` and `elsewhere` at
    another: the executions running `point` bucketed by history."""
    groups = {}                 # history id -> [least row at t, least elsewhere]
    for row, at in enumerate(when):
        if at is not None:
            least = groups.setdefault(current[row], [None, None])
            side = 0 if at == t else 1
            if least[side] is None:
                least[side] = row
    return min((at, elsewhere, point) for at, elsewhere in groups.values()
               if at is not None and elsewhere is not None)
