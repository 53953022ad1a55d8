"""Independent checks of check_dc and propagate_to_fixpoint outputs.

Nothing here uses cstnu's `stn`, `projection` or `semantics` code.  The
checker reads the `Network` fields, rebuilds each sampled drama's STN
from the definitions, finds negative cycles with its own Bellman-Ford,
checks viability constraint by constraint, and checks dynamic* by
grouping dramas by history at each (point, commit time) rather than by
comparing every pair of dramas.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import product


class CheckFailed(Exception):
    """An output does not pass an independent check."""


def _holds(label, scenario):
    return all(scenario[letter] == value for letter, value in label.literals)


def sampled_dramas(network, grid):
    """The drama set check_dc samples: every scenario of the letters times
    `grid` evenly spaced durations per contingent link."""
    letters = sorted(network.letters)
    scenarios = [dict(zip(letters, bits))
                 for bits in product((True, False), repeat=len(letters))]
    axes = []
    for link in network.links:
        lo, hi = Fraction(link.lower), Fraction(link.upper)
        axes.append([lo + (hi - lo) * i / (grid - 1) for i in range(grid)])
    situations = [tuple(s) for s in product(*axes)]
    return [(s, w) for s in scenarios for w in situations]


def drama_stn(network, scenario, situation):
    """(points, edges) of a drama: the points whose labels hold, the
    constraints whose labels hold, and each surviving link fixed at its
    sampled duration.  An edge (x, y, d) means y - x <= d."""
    points = {p for p, tp in network.timepoints.items() if _holds(tp.label, scenario)}
    edges = [(c.source, c.target, Fraction(c.delta)) for c in network.constraints
             if _holds(c.label, scenario) and c.source in points and c.target in points]
    for link, d in zip(network.links, situation):
        if link.activation in points and link.contingent in points:
            edges.append((link.activation, link.contingent, d))
            edges.append((link.contingent, link.activation, -d))
    return points, edges


def negative_cycle(points, edges):
    """A negative-weight cycle of the distance graph as a list of edges,
    or None.  Bellman-Ford from a virtual source joined to every point."""
    dist = {p: Fraction(0) for p in points}
    pred = {}
    changed = None
    for _ in range(len(points)):
        changed = None
        for x, y, d in edges:
            if dist[x] + d < dist[y]:
                dist[y] = dist[x] + d
                pred[y] = (x, y, d)
                changed = y
        if changed is None:
            break
    if changed is None:
        return None
    # A relaxation in round n proves a cycle; walking back n predecessors
    # from the relaxed point lands on it.
    node = changed
    for _ in range(len(points)):
        node = pred[node][0]
    cycle, cur = [], node
    while True:
        edge = pred[cur]
        cycle.append(edge)
        cur = edge[0]
        if cur == node:
            break
    cycle.reverse()
    if sum(d for _, _, d in cycle) >= 0:
        raise AssertionError("Bellman-Ford walked back to a non-negative cycle")
    return cycle


def refuting_drama(network, grid):
    """The first sampled drama with a negative cycle, as (drama, cycle),
    or None when every sampled drama is consistent."""
    for scenario, situation in sampled_dramas(network, grid):
        cycle = negative_cycle(*drama_stn(network, scenario, situation))
        if cycle is not None:
            return (scenario, situation), cycle
    return None


def strategy_entries(strategy):
    """[(scenario dict, situation tuple, schedule)] from a Strategy table,
    whatever its kind."""
    entries = []
    for index, schedule in strategy.table.items():
        if strategy.kind == "cstnu":
            scenario, situation = index.scenario.as_mapping(), tuple(index.situation)
        elif strategy.kind == "stnu":
            scenario, situation = {}, tuple(index)
        else:
            scenario, situation = index.as_mapping(), ()
        entries.append((scenario, situation, dict(schedule)))
    return entries


def _key(scenario, situation):
    return tuple(sorted(scenario.items())), tuple(situation)


def check_viable(network, entries, grid=None):
    """Raise CheckFailed unless every entry's schedule covers exactly its
    scenario's points and satisfies its drama's STN.  With `grid`, the
    entries must also cover every sampled drama exactly once."""
    if grid is not None:
        wanted = {_key(s, w) for s, w in sampled_dramas(network, grid)}
        got = [_key(s, w) for s, w, _ in entries]
        if len(got) != len(set(got)) or set(got) != wanted:
            raise CheckFailed("strategy does not cover the %d sampled dramas" % len(wanted))
    for scenario, situation, schedule in entries:
        points, edges = drama_stn(network, scenario, situation)
        if set(schedule) != points:
            raise CheckFailed("schedule for %s %s has the wrong points"
                              % (scenario, situation))
        for x, y, d in edges:
            if schedule[y] - schedule[x] > d:
                raise CheckFailed("%s - %s <= %s violated for %s %s"
                                  % (y, x, d, scenario, situation))


def _events(network, scenario, schedule):
    """Observable events of one execution: (time, item) for each letter
    observed and each contingent link completed among scheduled points;
    a link item carries its observed duration."""
    out = []
    for letter, obs in network.observations.items():
        if obs in schedule:
            out.append((schedule[obs], ("obs", letter, scenario[letter])))
    for link in network.links:
        if link.activation in schedule and link.contingent in schedule:
            t = schedule[link.contingent]
            out.append((t, ("link", link.activation, link.contingent,
                            t - schedule[link.activation])))
    return out


def check_dynamic_star(network, entries):
    """Raise CheckFailed unless equal histories force equal times.

    For every non-contingent point p and every time t at which some entry
    executes p, the entries executing p are grouped by their history
    strictly before t; no group may hold both an entry with p at t and
    one with p elsewhere.
    """
    contingent = {link.contingent for link in network.links}
    # Per entry: sorted event times and the history after each prefix, so
    # the history strictly before t is prefixes[bisect_left(times, t)].
    timelines = []
    for scenario, _, schedule in entries:
        events = sorted(_events(network, scenario, schedule), key=lambda e: e[0])
        times = [t for t, _ in events]
        prefixes = [frozenset(item for _, item in events[:k]) for k in range(len(events) + 1)]
        timelines.append((times, prefixes))
    points = sorted({p for _, _, sched in entries for p in sched} - contingent)
    for point in points:
        users = [(entries[i][2][point], timelines[i]) for i in range(len(entries))
                 if point in entries[i][2]]
        for t in sorted({when for when, _ in users}):
            groups = {}
            for when, (times, prefixes) in users:
                seen = groups.setdefault(prefixes[bisect_left(times, t)], set())
                seen.add(when == t)
                if len(seen) == 2:
                    raise CheckFailed(
                        "%s runs at %s in one execution and elsewhere in another "
                        "with the same history" % (point, t))


def check_controllable(network, strategy, grid):
    check_viable(network, strategy_entries(strategy), grid)
    check_dynamic_star(network, strategy_entries(strategy))


def check_dc_result(network, result, grid):
    """Check a DcResult on its own terms (see the module docstring)."""
    if result.verdict == "controllable":
        if result.strategy is None:
            raise CheckFailed("controllable without a strategy")
        check_controllable(network, result.strategy, grid)
    elif result.verdict == "not-controllable":
        if refuting_drama(network, grid) is None:
            raise CheckFailed("not-controllable but every sampled drama is consistent")
    elif result.verdict == "unknown":
        if refuting_drama(network, grid) is not None:
            raise CheckFailed("unknown on a network with an inconsistent drama")
    else:
        raise CheckFailed("unexpected verdict %r" % (result.verdict,))


# --- propagation -------------------------------------------------------------


def check_propagation(network, result, controllable):
    """Check a PropagationResult.

    Every refutation is a negative self-loop under the empty label; a
    network that is controllable by construction has no scenario without
    a schedule, so it shows no negative self-loop at all.  Every derived
    constraint has a trace entry whose parents are themselves traced;
    compose steps add their parents' bounds and keep their literals.
    """
    if result.refuted:
        c = result.refutation
        if c is None or c.source != c.target or c.delta >= 0 or c.label.literals:
            raise CheckFailed("refutation %s is not a negative empty-label self-loop" % (c,))
    if controllable:
        if result.refuted:
            raise CheckFailed("a network controllable by construction was refuted")
        for c in result.constraints:
            if c.source == c.target and c.delta < 0:
                raise CheckFailed("controllable network shows a dead scenario: %s" % (c,))
    given = set(network.constraints)
    for c in result.constraints:
        if c not in result.trace:
            raise CheckFailed("%s has no derivation" % (c,))
    for c, (rule, parents) in result.trace.items():
        if rule == "given":
            if c not in given or parents:
                raise CheckFailed("%s is not a given constraint" % (c,))
            continue
        for p in parents:
            if p not in result.trace:
                raise CheckFailed("parent %s of %s has no derivation" % (p, c))
        if rule == "compose":
            first, second = parents
            literals = dict(first.label.literals)
            for letter, value in second.label.literals:
                if literals.setdefault(letter, value) != value:
                    raise CheckFailed("%s composes clashing labels" % (c,))
            own = dict(c.label.literals)
            if (first.target != second.source or c.source != first.source
                    or c.target != second.target
                    or c.delta != first.delta + second.delta
                    or any(own.get(l) != v for l, v in literals.items())):
                raise CheckFailed("%s is not the composition of %s and %s"
                                  % (c, first, second))
        elif rule == "label-modification":
            obs_c, target_c = parents
            if (obs_c.source not in network.observations.values()
                    or (c.source, c.target, c.delta)
                    != (target_c.source, target_c.target, target_c.delta)):
                raise CheckFailed("%s is not a label modification of %s" % (c, target_c))
        else:
            raise CheckFailed("unknown rule %r for %s" % (rule, c))
