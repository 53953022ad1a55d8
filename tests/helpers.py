"""Randomized generators and a reference check shared by the test modules.

All generators take an explicit random.Random so tests stay reproducible.
Consistent instances are built from a hidden random solution plus
non-negative slack, so consistency is guaranteed by construction.
"""

import importlib.util
import json
import operator
import os
import random
from fractions import Fraction

from cstnu import (Constraint, ContingentLink, Label, LabeledConstraint, Network,
                   Scenario, Stn, Strategy, TimePoint, check_solution, conjoin,
                   enumerate_scenarios, parse_label, project, relevant_timepoints,
                   sample_situations)
from cstnu.jsonio import loads, network_from_dict
from cstnu.labels import EMPTY, INCONSISTENT, sub
from cstnu.propagation import DEFAULT_BUDGET, PropagationResult, _Exhausted, _Refuted
from cstnu.rational import INF
from cstnu.search import _ORIGIN, _explore, _first_success
from cstnu.semantics import DynamicityResult, TreeSplit, ViabilityResult, _history
from reference import (Cstp, CstpEdge, PreconditionError, compose, dominates,
                       label_modification)


def bench_gen():
    """`bench/gen.py`, the benchmark's seeded input generators."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "gen.py")
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


# bench/gen.py's greedy trap with epsilon 1, as a network file: Or,
# shared until observed, must wait for X3, and greedy synthesis runs X3
# too early, so only the exhaustive witness search finds its strategy.
GREEDY_TRAP = os.path.join(os.path.dirname(os.path.abspath(__file__)), "greedy_trap.json")


def greedy_trap():
    with open(GREEDY_TRAP) as f:
        return network_from_dict(loads(f.read()))


# `mixed_denominators()` as a network file: deltas in thirds, sevenths and
# thousandths, and link bounds in thirds and sevenths, so every layer's
# integer time unit mixes them.  A1 runs first and A0 waits for C1.
MIXED_DENOMINATORS = os.path.join(os.path.dirname(GREEDY_TRAP), "mixed_denominators.json")


def mixed_denominators():
    return random_stnu(random.Random(279), max_links=2, extra_points=2,
                       fractions=(Fraction(1, 3), Fraction(2, 7), Fraction(1, 1000)))


# The first tight (1, ((1, 1, 0), (1, 1, 0))) workflow that bench/gen.py's
# `workflow` draws from random.Random("workflow_propagate/1") for
# bench/workloads.py's workflow_propagate inputs, compiled to a network
# file: 18 points, two splits.  Propagation records 8 dead labels and
# rejects 5436 candidates on them before it refutes the network.
DEAD_LABEL_WORKFLOW = os.path.join(os.path.dirname(GREEDY_TRAP), "dead_label_workflow.json")


# `epsilon_overshoot()` as a network file: the three-point network on
# which greedy synthesis commits at a window's upper bound twice on one
# path.
EPSILON_OVERSHOOT = os.path.join(os.path.dirname(GREEDY_TRAP), "epsilon_overshoot.json")


def epsilon_overshoot(points=3):
    """When p, X must run within 1/2000 of O, where p is observed, but an
    epsilon step past O lands at 1/1000.  With a third point, when q, Y
    must also run within 1/20000 of X, where q is observed."""
    ids = ["O", "X", "Y"][:points]
    constraints = [LabeledConstraint("O", "X", Fraction(1, 2000), parse_label("p")),
                   LabeledConstraint("X", "O", Fraction(-1), parse_label("!p"))]
    letters, observations = ["p"], {"p": "O"}
    if points == 3:
        constraints += [LabeledConstraint("X", "Y", Fraction(1, 20000), parse_label("q")),
                        LabeledConstraint("Y", "X", Fraction(-1), parse_label("!q"))]
        letters, observations = ["p", "q"], {"p": "O", "q": "X"}
    return Network(timepoints=ids, constraints=constraints, letters=letters,
                   observations=observations, epsilon=Fraction(1, 1000))


def frac(rng, lo=0, hi=20):
    return Fraction(rng.randint(lo, hi))


def random_consistent_stn(rng, max_points=8):
    """A consistent STN built around a random hidden solution."""
    n = rng.randint(2, max_points)
    ids = ["N%d" % i for i in range(n)]
    solution = {i: frac(rng) for i in ids}
    constraints = set()
    for _ in range(rng.randint(n, 2 * n)):
        a, b = rng.sample(ids, 2)
        slack = frac(rng, 0, 5)
        constraints.add(Constraint(a, b, solution[b] - solution[a] + slack))
    return Stn(frozenset(ids), frozenset(constraints)), solution


def random_stn(rng, max_points=6, fractions=None):
    """An arbitrary STN; may or may not be consistent.  With `fractions`,
    each delta is an integer plus one of them, drawn at random."""
    n = rng.randint(2, max_points)
    ids = ["N%d" % i for i in range(n)]
    constraints = set()
    for _ in range(rng.randint(1, 2 * n)):
        a, b = rng.sample(ids, 2)
        delta = Fraction(rng.randint(-10, 10))
        if fractions:
            delta += rng.choice(fractions)
        constraints.add(Constraint(a, b, delta))
    return Stn(frozenset(ids), frozenset(constraints))


def random_label(rng, letters):
    return Label((l, rng.random() < 0.5) for l in letters
                 if rng.random() < 0.5)


def random_cstn(rng, max_letters=2, max_points=5, consistent=False, fractions=None):
    """A well-defined conditional network without contingent links.

    Observation points are unlabeled; regular points carry random labels
    with the observation-before-use edges added, and constraint labels
    conjoin their end-point labels, so the well-definedness validator
    passes by construction.  With `fractions` (positive), each random
    constraint's delta gains one of them, drawn at random.
    """
    letters = sorted(rng.sample("pqr", rng.randint(1, max_letters)))
    observations = {l: "O%s" % l for l in letters}
    points = {obs: EMPTY for obs in observations.values()}
    n = rng.randint(1, max_points - len(points))
    for i in range(n):
        points["X%d" % i] = random_label(rng, letters)

    solution = {p: frac(rng) for p in points}
    constraints = set()
    epsilon = Fraction(1, 1000)
    for point, label in points.items():
        for letter in sorted(label.letters):
            obs = observations[letter]
            delta = -epsilon
            if consistent and solution[obs] - solution[point] > delta:
                solution[point] = solution[obs] + Fraction(1)
            constraints.add(LabeledConstraint(point, obs, delta, label))
    for _ in range(rng.randint(1, 2 * len(points))):
        a, b = rng.sample(sorted(points), 2)
        label = conjoin(points[a], points[b])
        if label is INCONSISTENT:
            continue
        if consistent:
            delta = solution[b] - solution[a] + frac(rng, 0, 5)
        else:
            delta = Fraction(rng.randint(-10, 15))
        if fractions:
            delta += rng.choice(fractions)
        constraints.add(LabeledConstraint(a, b, delta, label))
    return Network(
        timepoints=[TimePoint(p, l) for p, l in points.items()],
        constraints=constraints, letters=letters, observations=observations,
        epsilon=epsilon)


def random_cstp(rng, max_letters=2, max_points=4):
    """A conditional problem with interval edges satisfying the
    compilation preconditions."""
    letters = sorted(rng.sample("pq", rng.randint(1, max_letters)))
    observations = {l: "O%s" % l for l in letters}
    labels = {obs: EMPTY for obs in observations.values()}
    for i in range(rng.randint(1, max_points)):
        labels["X%d" % i] = random_label(rng, letters)
    edges = []
    for point, label in labels.items():
        for letter in sorted(label.letters):
            edges.append(CstpEdge(observations[letter], point,
                                  Fraction(1), Fraction(10)))
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(sorted(labels), 2)
        if conjoin(labels[a], labels[b]) is INCONSISTENT:
            continue
        lo = frac(rng, 0, 5)
        edges.append(CstpEdge(a, b, lo, lo + frac(rng, 1, 10)))
    return Cstp(timepoints=tuple(sorted(labels.items())),
                letters=frozenset(letters), observations=observations,
                edges=tuple(edges))


def random_stnu(rng, max_links=2, extra_points=2, consistent=False, fractions=None):
    """An STNU with the required link-range constraints in place.  With
    `fractions` (positive), each link bound and each extra constraint's
    delta gains one of them, drawn at random."""

    def plus(value):
        return value + rng.choice(fractions) if fractions else value

    links = []
    constraints = set()
    points = []
    for i in range(rng.randint(1, max_links)):
        a, c = "A%d" % i, "C%d" % i
        lo = plus(frac(rng, 1, 5))
        hi = plus(lo + frac(rng, 1, 5))
        links.append(ContingentLink(a, lo, hi, c))
        constraints.add(LabeledConstraint(a, c, hi))
        constraints.add(LabeledConstraint(c, a, -lo))
        points.extend([a, c])
    for i in range(rng.randint(0, extra_points)):
        points.append("X%d" % i)
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(points, 2)
        lo = 0 if consistent else -10
        constraints.add(LabeledConstraint(a, b, plus(Fraction(rng.randint(lo, 15)))))
    return Network(timepoints=points, constraints=constraints, links=links)


def random_cstnu(rng, max_letters=2, max_links=2):
    """A well-defined CSTNU: `random_cstn`'s points and constraints plus
    `random_stnu`'s links (not its constraints).  Both end-points of a
    link carry one random label, which labels the link's bounds, the
    observation-before-use edges of the two points, and a constraint from
    a conditional-part point to the activation where the labels agree."""
    cstn = random_cstn(rng, max_letters=max_letters)
    links = random_stnu(rng, max_links=max_links, extra_points=0).links
    labels = {p: tp.label for p, tp in cstn.timepoints.items()}
    constraints = set(cstn.constraints)
    for link in links:
        label = random_label(rng, sorted(cstn.letters))
        labels[link.activation] = labels[link.contingent] = label
        constraints.add(LabeledConstraint(link.activation, link.contingent, link.upper, label))
        constraints.add(LabeledConstraint(link.contingent, link.activation, -link.lower, label))
        for point in (link.activation, link.contingent):
            for letter, _ in label.literals:
                constraints.add(LabeledConstraint(point, cstn.observations[letter],
                                                  -cstn.epsilon, label))
        other = rng.choice(sorted(cstn.timepoints))
        joint = conjoin(label, labels[other])
        if joint is not INCONSISTENT:
            constraints.add(LabeledConstraint(other, link.activation,
                                              Fraction(rng.randint(0, 15)), joint))
    return Network([TimePoint(p, l) for p, l in labels.items()], constraints,
                   cstn.letters, cstn.observations, links, cstn.epsilon)


def link_chain(points):
    """An STNU whose contingent links form one chain P0 -> P1 -> ... through
    `points` points; each link lasts between 1 and 2."""
    ids = ["P%d" % i for i in range(points)]
    constraints, links = [], []
    for a, c in zip(ids, ids[1:]):
        constraints += [LabeledConstraint(a, c, Fraction(2)),
                        LabeledConstraint(c, a, Fraction(-1))]
        links.append(ContingentLink(a, Fraction(1), Fraction(2), c))
    return Network(timepoints=ids, constraints=constraints, links=links)


def random_cstn_strategy(rng, network, grid=6):
    """An arbitrary scenario-indexed strategy over small integer times.

    Half the time every scenario shares one schedule (trivially dynamic),
    otherwise times are drawn independently per scenario, so both
    dynamic and non-dynamic strategies appear.
    """
    scenarios = enumerate_scenarios(network.letters)
    constant = rng.random() < 0.5
    shared = {p: frac(rng, 0, grid) for p in network.timepoints}
    table = {}
    for s in scenarios:
        relevant = relevant_timepoints(network, s)
        if constant:
            schedule = {p: shared[p] for p in sorted(relevant)}
        else:
            schedule = {p: frac(rng, 0, grid) for p in sorted(relevant)}
        table[s] = schedule
    return Strategy("cstn", table)


def random_stnu_strategy(rng, network, grid=6):
    """An arbitrary situation-indexed strategy over small integer times,
    every contingent time its activation time plus the sampled duration.

    Half the time every situation shares one schedule of the
    non-contingent points (dynamic, since contingent points are exempt),
    otherwise those times are drawn independently per situation.
    """
    contingent = network.contingent_points
    constant = rng.random() < 0.5
    shared = {p: frac(rng, 0, grid) for p in network.timepoints}
    table = {}
    for situation in sample_situations(network.links):
        schedule = {p: shared[p] if constant else frac(rng, 0, grid)
                    for p in sorted(network.timepoints) if p not in contingent}
        for link, duration in zip(network.links, situation):
            schedule[link.contingent] = schedule[link.activation] + duration
        table[situation] = schedule
    return Strategy("stnu", table)


def pairwise_dynamic_star(network, strategy, around=None):
    """Reference dynamic* check that compares every ordered pair of
    indices: the first (i1, i2, point) in index order, then point name,
    where i1 and i2 run a non-contingent point at different times although
    their histories strictly before i1's time are equal.

    With `around`, only the pairs with that index on one side are
    compared.  When the strategy without that index's schedule is dynamic,
    every violating pair has it on one side, so the result is the same.

    Times and histories are compared by interned ids, and a history is
    computed once per (index, time): hashing dramas and Fractions inside
    the pair loop made this check take 30 s on the branching-workflow
    fixture.
    """
    contingent = network.contingent_points
    indices = strategy.indices()
    times, time_ids, history_ids = [], {}, {}
    rows = []
    for index in indices:
        row = {}
        for point, t in strategy.table[index].items():
            if t not in time_ids:
                time_ids[t] = len(times)
                times.append(t)
            row[point] = time_ids[t]
        rows.append(row)
    histories = [{} for _ in indices]

    def history(pos, tid):
        if tid not in histories[pos]:
            index = indices[pos]
            seen = _history(network, strategy.drama(index).scenario,
                            strategy.table[index], times[tid])
            histories[pos][tid] = history_ids.setdefault(seen, len(history_ids))
        return histories[pos][tid]

    everyone = range(len(indices))
    for pos1, row1 in enumerate(rows):
        points = [(point, row1[point], history(pos1, row1[point]))
                  for point in sorted(set(row1) - contingent)]
        partners = everyone
        if around is not None and indices[pos1] != around:
            partners = [indices.index(around)]
        for pos2 in partners:
            row2 = rows[pos2]
            for point, t, seen in points:
                if row2.get(point, t) != t and history(pos2, t) == seen:
                    return DynamicityResult(False, (indices[pos1], indices[pos2], point))
    return DynamicityResult(True)


def naive_viable(network, strategy):
    """`semantics.is_viable` as it was before it checked each distinct
    (projection, execution) once on integer times: every index, in
    `Strategy.indices()` order, has its drama projected and its schedule
    checked by `stn.check_solution`.  Kept as the reference for viability."""
    for index in strategy.indices():
        drama = strategy.drama(index)
        projection = project(network, drama.scenario, drama.situation)
        schedule = strategy.table[index]
        if frozenset(schedule) != projection.timepoints:
            raise ValueError("schedule domain for %s is not the expected point set" % (index,))
        violated = check_solution(projection, schedule)
        if violated:
            return ViabilityResult(False, index, violated[0])
    return ViabilityResult(True)


def later_classmates(strategy_data):
    """Positions of the entries of a `strategy_to_dict` payload whose
    scenario and schedule repeat an earlier entry's."""
    seen, later = set(), []
    for pos, entry in enumerate(strategy_data["entries"]):
        key = json.dumps([entry.get("scenario"), entry["schedule"]], sort_keys=True)
        if key in seen:
            later.append(pos)
        seen.add(key)
    return later


def shifted_entry(network_data, strategy_data, pos):
    """A copy of the `strategy_to_dict` payload `strategy_data` in which
    entry `pos` runs its first non-contingent point, by name, 1 later."""
    contingent = {link["contingent"] for link in network_data.get("links", ())}
    entries = list(strategy_data["entries"])
    schedule = dict(entries[pos]["schedule"])
    point = min(set(schedule) - contingent)
    schedule[point] = str(Fraction(schedule[point]) + 1)
    entries[pos] = {**entries[pos], "schedule": schedule}
    return {**strategy_data, "entries": entries}


# The origin of a reference projection (`stn.floored`), a name that no
# test network gives a point; the search's own origin is a row, not a name.
REFERENCE_ORIGIN = "origin'"


def positions(problem):
    """Where each point of a reference projection sits in the closures of
    `problem`: a point at its `problem.index` row, `REFERENCE_ORIGIN` at
    the origin's."""
    return {**problem.index, REFERENCE_ORIGIN: problem.index[_ORIGIN]}


def tick_distance(problem, dctx, source, target):
    """The closure entry of class `dctx` of `problem` at the positions
    `source` and `target` of `problem.index` (for target - source), as an
    exact `Fraction` (its ticks over `problem.tick`), or `INF`."""
    entry = dctx.rows[source][target]
    return INF if entry == INF else Fraction(entry, problem.tick)


def fraction_window(problem, dctxs, committed, point):
    """`search._Problem.window` as it was before it read the closures as
    integers: every entry as a `Fraction` (`tick_distance`), compared with
    `Fraction` times, and `ub` `INF` when nothing bounds it.  Kept as the
    reference for the integer window."""
    at = problem.index
    lb, ub = Fraction(0), INF
    for d in dctxs:
        floor = tick_distance(problem, d, at[point], at[_ORIGIN])
        if floor != INF and -floor > lb:
            lb = -floor
        for anchor, t in committed.items():
            if anchor not in d.relevant:
                continue
            fwd = tick_distance(problem, d, at[anchor], at[point])
            back = tick_distance(problem, d, at[point], at[anchor])
            if back != INF and t - back > lb:
                lb = t - back
            if fwd != INF and t + fwd < ub:
                ub = t + fwd
    return lb, ub


def naive_ready_points(problem, node):
    """The uncommitted non-contingent points of `node` relevant to every
    class (ready) and those relevant to some of its classes only
    (blocked), by a scan of each class's relevance per point.  Kept as the
    reference for `search._Problem.ready_points`, which reads the ready
    points off the node's windows and `blocked` off the node."""
    ready, blocked = [], []
    for point in problem.noncontingent:
        if point in node.committed:
            continue
        flags = [point in d.relevant for d in node.dctxs]
        if not any(flags):
            continue
        (ready if all(flags) else blocked).append(point)
    return ready, blocked


def class_known_times(problem, dctx, committed):
    """The known times of class `dctx` of `problem` under `committed`, in
    ticks: the committed times of its relevant points, and each contingent
    time of a link whose two ends are relevant, its activation time plus
    the duration its first drama samples, link after link until a chain is
    done.  Kept as the reference for `reference.known_times`, which reads
    the contingent times off the path's events."""
    times = {p: t for p, t in committed.items() if p in dctx.relevant}
    links = [(link.activation, link.contingent, problem.ticks(duration))
             for link, duration in zip(problem.network.links, dctx.drama.situation)
             if link.activation in dctx.relevant and link.contingent in dctx.relevant]
    for _ in links:
        for activation, contingent, duration in links:
            if activation in times:
                times[contingent] = times[activation] + duration
    return times


def grid_witness(problem, grid, budget):
    """`search._exhaustive_witness` as it was before it read each point's
    window: every time of the sorted grid from `now` (after it, past a
    divergence) up to the next divergence, less each commit after which
    the known times of some drama of the information set violate its
    projection.  Raises `search._Budget` when more than `budget` nodes are
    entered.  Kept as the reference for the windowed witness search; each
    class's projection is built here, from its first drama."""
    grid = sorted(problem.ticks(t) for t in grid)
    checks = [[(c.source, c.target, problem.ticks(c.delta))
               for c in project(problem.network, d.drama.scenario, d.drama.situation).constraints]
              for d in problem.dctxs]

    def violated(d, committed):
        times = class_known_times(problem, d, committed)
        return any(source in times and target in times and times[target] - times[source] > delta
                   for source, target, delta in checks[d.idx])

    def moves(node, ready, div):
        for point in ready:
            for t in grid:
                if t < node.now or (node.strict and t == node.now):
                    continue
                if div is not None and t > div:
                    break
                trial = {**node.committed, point: t}
                if not any(violated(d, trial) for d in node.dctxs):
                    yield point, t

    return _explore(problem, moves, problem.leaf, (None, _first_success), problem.join,
                    budget, operator.not_)


def tree_nodes(tree):
    """(node, parent, the latest time of a split above it) for every node
    of a strategy tree (`semantics.TreeLeaf`, `semantics.TreeSplit`),
    parents first."""
    found = [(tree, None, None)]
    for node, _, floor in found:        # the list grows as it is walked
        if isinstance(node, TreeSplit):
            below = node.at if floor is None else max(floor, node.at)
            found += [(child, node, below) for _, child in node.branches]
    return found


def tree_leaves(tree):
    """The leaves of a strategy tree, parents' children first."""
    return [node for node, _, _ in tree_nodes(tree) if not isinstance(node, TreeSplit)]


def naive_tree_table(network, dramas, tree):
    """Each drama's schedule under the strategy tree `tree`, or None when
    some drama finds no branch.  A drama walks from the root: its known
    times at a node are the node's committed times and each contingent
    time of a link relevant in its scenario, its activation time plus the
    drama's duration, link after link until a chain is done; at a split
    it takes the first branch whose key is the set of items that
    `naive_events` gives at the split's time.  Its schedule is its known
    times at its leaf.  Kept as the reference expansion for
    `semantics.certify_tree`, which checks the tree as it expands it."""
    table = {}
    for drama in dramas:
        relevant = relevant_timepoints(network, drama.scenario)
        links = [(link.activation, link.contingent, duration)
                 for link, duration in zip(network.links, drama.situation)
                 if link.activation in relevant and link.contingent in relevant]
        node = tree
        while True:
            times = dict(node.committed)
            for _ in links:
                for activation, contingent, duration in links:
                    if activation in times:
                        times[contingent] = times[activation] + duration
            if not isinstance(node, TreeSplit):
                break
            seen = frozenset(item for when, item in naive_events(network, drama.scenario, times)
                             if when == node.at)
            node = next((child for key, child in node.branches if key == seen), None)
            if node is None:
                return None
        table[drama] = times
    return table


def naive_events(network, scenario, schedule):
    """`semantics._events` as it was before it became the union of
    per-commit events: each observation point and each completed link
    read straight off the schedule, every duration a subtraction."""
    events = []
    for letter, obs in network.observations.items():
        if obs in schedule:
            events.append((schedule[obs], ("obs", (letter, scenario.value(letter)))))
    for link in network.links:
        if link.activation in schedule and link.contingent in schedule:
            done = schedule[link.contingent]
            events.append((done, ("link", (link.activation, link.contingent,
                                           done - schedule[link.activation]))))
    return events


def naive_next_divergence(problem, dctxs, committed, now):
    """`search._Problem.next_divergence` as it was before search kept each
    drama's events along the path: every drama's known times and events
    rebuilt from `committed`.  `committed` and `now` are in the problem's
    ticks, as a node holds them; the known times are turned into
    `Fraction`s, and the events built and compared on those.  Returns
    (time, groups), the earliest time >= now, a `Fraction`, at which the
    events of `dctxs` differ and the dramas grouped by their events then,
    or None.  Kept as the reference for the per-commit divergence."""
    now = Fraction(now, problem.tick)
    per_time = []
    for d in dctxs:
        table = {}
        known = {p: Fraction(t, problem.tick)
                 for p, t in class_known_times(problem, d, committed).items()}
        for t, item in naive_events(problem.network, d.drama.scenario, known):
            if t >= now:
                table.setdefault(t, set()).add(item)
        per_time.append(table)
    for t in sorted(set().union(*per_time)):
        contents = [frozenset(table.get(t, ())) for table in per_time]
        if any(c != contents[0] for c in contents):
            groups = {}
            for d, c in zip(dctxs, contents):
                groups.setdefault(c, []).append(d)
            return t, [groups[k] for k in sorted(groups, key=sorted)]
    return None


def naive_propagate(network, budget=DEFAULT_BUDGET, keep_everything=False):
    """Reference saturation loop for `propagate_to_fixpoint`: each round
    composes every pair of live constraints, and each candidate is tested
    for dominance against every live constraint.  A given or newly
    admitted constraint removes the live constraints it dominates, and a
    pass skips a pair with a member removed before its use.  It admits the
    same constraints in the same order, so every result field, and the
    order of the derived trace entries, must match.  A negative self-loop,
    given or admitted, refutes under the empty label and makes its label
    dead under any other.

    With `keep_everything`, nothing is removed: every admitted constraint
    stays live.  That loop admits more, and its trace and `rounds` differ,
    but refutation, saturation and the presence of a negative self-loop
    must agree with `propagate_to_fixpoint`'s."""
    trace = {c: ("given", ()) for c in network.constraints}
    live = set()
    obs_letter = {point: letter for letter, point in network.observations.items()}
    admitted = [0]
    refutation = [None]
    dead_labels = set()     # labels whose scenarios admit no schedule at all

    def place(c):
        if not keep_everything:
            live.difference_update([old for old in live if dominates(c, old)])
        live.add(c)
        if c.source == c.target and c.delta < 0:
            if c.label == EMPTY:
                refutation[0] = c
                raise _Refuted()
            dead_labels.add(c.label)

    def repair(c):
        label = c.label
        for q in sorted(label.letters):
            joint = conjoin(label, network.label_of(network.observation_point(q)))
            if joint is INCONSISTENT:
                return None
            label = joint
        if label == c.label:
            return c
        return LabeledConstraint(c.source, c.target, c.delta, label)

    def admit(c, rule, parents):
        if c.source == c.target and c.delta >= 0:
            return False    # vacuously true self-loop
        c = repair(c)
        if c is None or c in trace:
            return False
        # Negative self-loops stay: label modification may widen one to a refutation.
        if c.source != c.target and any(sub(c.label, dead) for dead in dead_labels):
            return False    # only applies in scenarios already known dead
        if any(dominates(old, c) for old in live):
            return False
        if admitted[0] >= budget:
            raise _Exhausted()
        trace[c] = (rule, tuple(parents))
        admitted[0] += 1
        place(c)
        return True

    def compose_pass():
        changed = False
        snapshot = sorted(live, key=str)
        by_source = {}
        for c in snapshot:
            by_source.setdefault(c.source, []).append(c)
        for first in snapshot:
            if first.source == first.target and first.delta < 0:
                continue   # negative self-loops record a dead scenario; do not spin on them
            for second in by_source.get(first.target, ()):
                if second.source == second.target and second.delta < 0:
                    continue
                if first not in live or second not in live:
                    continue
                derived = compose(first, second)
                if derived is not None and admit(derived, "compose", (first, second)):
                    changed = True
        return changed

    def modification_pass():
        changed = False
        for obs_c in sorted(live, key=str):
            letter = obs_letter.get(obs_c.source)
            if letter is None or obs_c.delta > 0:
                continue
            for target_c in sorted(live, key=str):
                if (target_c.source != obs_c.target
                        or obs_c not in live or target_c not in live):
                    continue
                try:
                    result = label_modification(letter, obs_c.source, obs_c, target_c)
                except PreconditionError:
                    continue
                for c in (result.derived,) + result.residuals:
                    if admit(c, "label-modification", (obs_c, target_c)):
                        changed = True
        return changed

    rounds = 0
    saturated = True
    try:
        for c in sorted(network.constraints, key=str):
            if keep_everything or not any(dominates(old, c) for old in live):
                place(c)
        while True:
            rounds += 1
            changed = compose_pass()
            changed = modification_pass() or changed
            if not changed:
                break
    except (_Refuted, _Exhausted):
        saturated = False
    return PropagationResult(trace, refutation[0], saturated, rounds, frozenset(live))
