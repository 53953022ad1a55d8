"""Execution-strategy semantics: schedules, histories, viability, and the
dynamic* property for CSTNs, STNUs, and CSTNUs.

A strategy is an explicit finite table from its index set (scenarios,
sampled situations, or sampled dramas) to schedules.  Histories collect
what was observable strictly before a time: ties are excluded, an
observation at exactly time t is not part of t's history.

`is_viable` and `is_dynamic_star` certify a given table.  The DC search
builds its strategy as a decision tree instead, and `certify_tree`
certifies that tree once per execution and expands it into the table.
The paper's direct check of the dynamic property on CSTN strategies,
`is_dynamic_cstn`, is in `tests/reference.py`, tested against `is_dynamic_star`.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .labels import Label, evaluate
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


_SILENT = ((), ())             # what a point that emits nothing emits


def _emissions(network):
    """Per point, what running it emits: the letters it observes and the
    contingent points of the links it activates, in network order.  The
    index is made once per caller, so `_commit_events` reads only the
    points that emit something."""
    emitted = {}
    for letter, obs in network.observations.items():
        emitted.setdefault(obs, ([], []))[0].append(letter)
    for link in network.links:
        emitted.setdefault(link.activation, ([], []))[1].append(link.contingent)
    return emitted


def _commit_events(emitted, scenario, durations, point, t):
    """Observable events that running `point` at `t` produces in one drama,
    as (time, item) pairs: an ("obs", (letter, value)) item if `point`
    observes a letter, and for each contingent link it activates whose
    duration the drama samples (`durations`: contingent point -> duration)
    a ("link", (activation, contingent, duration)) item when the link
    completes, followed by the events of that completion in turn.
    `emitted` is the network's `_emissions`."""
    events = []
    pending = [(point, t)]
    while pending:
        point, t = pending.pop()
        letters, contingents = emitted.get(point, _SILENT)
        for letter in letters:
            events.append((t, ("obs", (letter, scenario.value(letter)))))
        for contingent in contingents:
            if contingent in durations:
                duration = durations[contingent]
                done = t + duration
                events.append((done, ("link", (point, contingent, duration))))
                pending.append((contingent, done))
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
    information sets where those events differ; `certify_tree` routes
    each execution through the tree by the same per-commit events, and
    the dynamic* check reads these same events off a table."""
    durations = {link.contingent: schedule[link.contingent] - schedule[link.activation]
                 for link in network.links
                 if link.activation in schedule and link.contingent in schedule}
    emitted = _emissions(network)
    events = []
    for point, t in schedule.items():
        if point in emitted and point not in durations:
            events += _commit_events(emitted, scenario, durations, point, t)
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
    """The integer view of a strategy that `is_viable` and
    `is_dynamic_star` read, built once from the strategy alone: `indices` in `Strategy.indices()`
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


def is_viable(network, strategy):
    """Every indexed schedule must solve its drama's projection, over
    exactly the projection's points.  The first index, in
    `Strategy.indices()` order, whose schedule does not is reported with
    the least violated constraint by `str`, as `stn.check_solution`
    orders them.  A time that is not rational raises `ValueError`.

    Every drama is checked first, in that order, as `projection.project`
    checks it: its situation against the links, then its scenario
    against the letters, each a `ValueError`.  So a bad drama raises
    even when an earlier index is not viable.

    A drama's projection is what its scenario keeps of the network
    (`projection._scenario_view`: its relevant points, the constraints
    whose labels hold, the links with both end-points relevant), plus two
    rigid constraints per kept link.  The schedules are read off the
    strategy's scaled view (`_ScaledStrategy`).  Each scenario's view is
    read, and `network.constraints` filtered by its truth mapping, once;
    each row of the view (one scenario and one schedule) is checked once
    against them, at its first index: its domain, then its scenario's
    constraints.  Each index then checks its own durations, since dramas
    with one scenario and one schedule can differ in a relevant link's
    duration: the rigid pair of a link holds iff the row's
    `t_contingent - t_activation` equals the duration.  A constraint
    `target - source <= delta` fails iff
    `(t_target - t_source) * delta.denominator > delta.numerator * scale`:
    both sides are the exact ones times `scale * delta.denominator`.  Only
    the first failing index gets `Constraint`s: its violated ones
    label-erased and its rigid ones, to report the least violated one."""
    view = _ScaledStrategy(strategy)
    for drama in view.dramas:
        _check_bounds(network, drama.situation)
        _check_total(network, drama.scenario)
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

    The executions are grouped by history rather than compared in pairs,
    in one sweep per non-contingent point p over the distinct times at
    which some execution runs p.  The sweep keeps each execution's current
    history id, applying the history changes (`_changes`) before t in
    (time, row) order, and for each history the count of the executions
    running p that hold it, by their time for p.  The strategy violates
    dynamic* at (p, t) iff some history holds an execution running p at t
    and one running it elsewhere; only then are the executions running p
    bucketed by history, to find the least witness.  The cost is
    O(sum over p of (C + N_p)) for C history changes in all and N_p
    distinct executions running p, plus O(N_p) per violating (p, t),
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
    view = _ScaledStrategy(strategy)
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


@dataclass
class TreeLeaf:
    """A leaf of a strategy's decision tree: `committed` maps each
    non-contingent point that its executions run to its time."""

    committed: dict


@dataclass
class TreeSplit:
    """An inner node of a strategy's decision tree: the times `committed`
    on its path so far, the time `at` at which the histories of its
    executions diverge, and `branches`, one (key, child) pair per group of
    them.  A key is the frozenset of the items (`_commit_events`) that the
    group's executions observe at `at`."""

    committed: dict
    at: object
    branches: tuple


class TreeFault(Exception):
    """A check of `certify_tree` that a strategy tree fails."""


def certify_tree(network, dramas, tree):
    """Certify the decision tree `tree` (`TreeLeaf`, `TreeSplit`) as a
    viable and dynamic strategy for the sampled `dramas` of `network`,
    and expand it into the schedule of each drama: {Drama: schedule}.
    It reads the network, the dramas and the tree alone.  A tree that
    fails a check raises `TreeFault`, which names the check; a time that
    is not rational raises `ValueError`.

    1. The dramas are grouped into executions: the dramas of one scenario
       whose situations agree on the durations of the links relevant in
       it (`projection._scenario_view`) have one projection and the same
       events under one schedule.
    2. The tree is checked node by node: a child keeps each time its
       parent commits, every time a node adds below a split is strictly
       later than the split's `at` (and than every `at` above it), no
       contingent point is committed, and no two branches of a split
       share a key.
    3. Each execution is routed from the root.  At a split it takes the
       branch whose key is the set of items that the commits on its path
       produce at `at` (`_commit_events`); there must be one.
    4. At its leaf, the execution's schedule is the leaf's times plus the
       contingent times its link events give.  It must run exactly the
       scenario's relevant points and meet every constraint whose label
       holds.  The rigid link durations hold by construction.
    5. Each drama gets its own copy of its execution's schedule, as
       `Fraction`s.

    Every time, duration and delta is scaled to an `int` by the least
    scale that makes them all integers, so every check is exact.

    Why a tree that passes is dynamic* (see `is_dynamic_star`): two
    executions at one leaf run every non-contingent point at one time.
    Two that part at a split S share the times S commits, and all their
    other commits lie after S's `at`.  They differ in some item x that
    one of them, say the first, observes at `at`.  An item carries what
    was observed (a letter's value, a link's activation and duration), and
    no two commits produce one item (`_events`), so if the second
    observes x at all, it observes it at another time: the point that
    produced x runs at two times.  That point is not one S commits, so it
    is contingent, and its link completion, observed by the first at or
    before `at`, is either one the second never observes (another
    duration) or again one it observes at another time; the chain ends at
    a point S commits, so some item that the first observes by `at` the
    second never observes.  Their histories then differ at every t > `at`,
    and all the times they do not share lie there: no two executions with
    equal histories before t run a point at t and elsewhere.  Viability
    is checked outright, once per execution.
    """
    views = {}          # Scenario -> (relevant points, relevant links, constraints that hold)
    executions = {}     # (Scenario, relevant durations) -> member dramas
    for drama in dramas:
        view = views.get(drama.scenario)
        if view is None:
            relevant, truth, links = _scenario_view(network, drama.scenario)
            view = views[drama.scenario] = (relevant, links, [
                c for c in network.constraints if evaluate(c.label, truth)])
        situation = drama.situation
        executions.setdefault((drama.scenario, tuple(situation[k] for k, _ in view[1])),
                              []).append(drama)
    # The nodes, each after its parent: (parent position, committed times,
    # `at` or None, branch keys or None), every time parsed by `rational`.
    nodes, found = [], [(tree, None)]
    for node, parent in found:          # the list grows as it is walked
        times = {point: rational(t) for point, t in node.committed.items()}
        if isinstance(node, TreeSplit):
            found += [(child, len(nodes)) for _, child in node.branches]
            nodes.append((parent, times, rational(node.at),
                          [frozenset(_with_duration(item, rational) for item in key)
                           for key, _ in node.branches]))
        else:
            nodes.append((parent, times, None, None))
    scale = _least_scale([
        *(t for _, times, _, _ in nodes for t in times.values()),
        *(at for _, _, at, _ in nodes if at is not None),
        *(item[1][2] for _, _, _, keys in nodes if keys for key in keys for item in key
          if item[0] == "link"),
        *(d for _, durations in executions for d in durations),
        *(c.delta for c in network.constraints)])

    def ticks(value):       # `scale` is a multiple of every denominator
        return value.numerator * (scale // value.denominator)

    routes = _routes(nodes, ticks, network.contingent_points)
    emitted = _emissions(network)
    checks = {scenario: [(c.source, c.target, ticks(c.delta), c) for c in constraints]
              for scenario, (_, _, constraints) in views.items()}
    made, table = {}, {}        # made: scaled time -> its Fraction
    for (scenario, durations), members in executions.items():
        relevant, links, _ = views[scenario]
        spans = {link.contingent: ticks(d) for (_, link), d in zip(links, durations)}
        events, pos = [], 0
        while True:
            fresh, at, branches, times = routes[pos]
            for point, t in fresh:
                if point in emitted:
                    events += _commit_events(emitted, scenario, spans, point, t)
            if branches is None:
                break
            key = frozenset(item for when, item in events if when == at)
            pos = branches.get(key)
            if pos is None:
                raise TreeFault("the split at %s has no branch for %s, which observes %s then"
                                % (Fraction(at, scale), members[0], sorted(key)))
        times = dict(times)
        for when, (kind, item) in events:
            if kind == "link":
                times[item[1]] = when
        if times.keys() != relevant:
            raise TreeFault("schedule domain for %s is not the expected point set"
                            % (members[0],))
        for source, target, delta, c in checks[scenario]:
            if times[target] - times[source] > delta:
                raise TreeFault("not viable: %s violated for %s" % (c, members[0]))
        schedule = dict(nodes[pos][1])
        for point, t in times.items():
            if point not in schedule:
                exact = made.get(t)
                if exact is None:
                    exact = made[t] = Fraction(t, scale)
                schedule[point] = exact
        for drama in members:
            table[drama] = dict(schedule)
    return table


def _routes(nodes, ticks, contingent):
    """Per node of `certify_tree`'s `nodes`, (the times it commits that its
    parent does not, its `at` in ticks or None, {key in ticks: child
    position} or None, all its times in ticks), once the node is checked:
    it keeps its parent's times, commits no contingent point and nothing
    at or before an `at` above it, and no two of its branches share a
    key.  Children are numbered in the order of `nodes`."""
    routes, floors, first = [], [], 1       # floors: the latest `at` above each node
    for parent, exact, at, keys in nodes:
        times = {point: ticks(t) for point, t in exact.items()}
        above, floor = {}, None
        if parent is not None:
            above, floor = routes[parent][3], nodes[parent][2]
            if floors[parent] is not None:
                floor = max(floor, floors[parent])
        for point, t in above.items():
            if times.get(point) != t:
                raise TreeFault("a node below the split at %s changes the time of %s"
                                % (nodes[parent][2], point))
        fresh = [(point, t) for point, t in times.items() if point not in above]
        for point, t in fresh:
            if point in contingent:
                raise TreeFault("the tree commits contingent point %s" % point)
            if floor is not None and t <= ticks(floor):
                raise TreeFault("%s runs at %s, not after the divergence at %s"
                                % (point, exact[point], floor))
        branches = None
        if keys is not None:
            branches = {}
            for child, key in enumerate(keys, first):
                key = frozenset(_with_duration(item, ticks) for item in key)
                if key in branches:
                    raise TreeFault("two branches of the split at %s share the key %s"
                                    % (at, sorted(key)))
                branches[key] = child
            first += len(keys)
            at = ticks(at)
        routes.append((fresh, at, branches, times))
        floors.append(floor)
    return routes


def _with_duration(item, convert):
    """The event item `item` with `convert` applied to its link duration,
    if it has one."""
    kind, payload = item
    if kind == "link":
        activation, contingent, duration = payload
        return kind, (activation, contingent, convert(duration))
    return item
