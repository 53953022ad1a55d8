"""Desk-scale dynamic-controllability checking.

The situation space is discretized (a duration grid per contingent link)
and strategies are searched as observation-ordered decision trees: the
same times are committed for every drama of an information set until
their histories diverge, so the dynamic* property holds by construction.
One explorer walks these trees; greedy synthesis, the exhaustive witness
search and the violation-mask enumeration are policies on top of it.
Verdicts are sound, not complete:

* an inconsistent sampled projection refutes controllability outright;
* a synthesized strategy is independently re-certified before the
  "controllable" verdict is returned;
* otherwise the verdict is "unknown", and its evidence names what stopped
  the search: the candidate time grid was exhausted, the node budget ran
  out, or the network was too large for the exhaustive search.
"""

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .labels import evaluate
from .model import Network, embed_cstn, embed_stnu, validate
from .projection import (DEFAULT_GRID, Drama, _scenario_view, enumerate_scenarios,
                         sample_situations)
from .rational import INF, _least_scale, _scaled, rational
from .semantics import Strategy, _certify, _commit_events
from .stn import _close, _insert

# Search bounds; see `check_dc`, `tree_strategy_masks`, `candidate_time_grid`.
MAX_LETTERS = 6
MAX_LINKS = 6
EXHAUSTIVE_POINTS = 6
EXHAUSTIVE_BUDGET = 200_000
MASKS_BUDGET = 2_000_000
GRID_DEPTH = 3
GRID_CAP = 24


@dataclass
class _DramaCtx:
    """One class of sampled dramas, and the precomputation every search
    shares: the dramas of one scenario whose situations agree on the
    durations of every link relevant in it.  They have one projection (the
    scenario's `relevant` points and constraints, and these `durations`),
    one closure and the same events under every commit, so they are one
    execution, and the search runs it once.  `idx` numbers the classes
    in problem order, `dramas` holds the members in problem order, and
    `drama` is the first of them.  The projection itself is never built:
    `rows` is its closure, made from the problem's edge table, or None
    when the projection is inconsistent."""

    idx: int
    drama: Drama
    dramas: list
    relevant: frozenset      # the scenario's relevant points, one set per scenario
    durations: dict          # contingent point -> sampled duration, in ticks
    rows: list               # closure of the floored projection, or None; see `_Problem`


@dataclass(eq=False)
class _Node:
    """A node of the decision-tree walk, and the only state the search
    keeps for its path: the information set `dctxs` (the classes of
    dramas, `_DramaCtx`, in problem order, whose histories agree so far;
    each class stands for all its members), the times `committed`
    to it, the time `now` of the last step, and `strict`, set when the
    node starts at a divergence at `now`, so that nothing more may run at
    `now`.  Every time is an `int` on the problem's lattice: a count of
    1/`_Problem.tick`.

    `events[i]` holds the (time, item) events class `dctxs[i]` has seen on
    the path, `splits` the times at which the histories of `dctxs`
    differ, and `bounds` the tightest closure entries over `dctxs` that
    `_Problem.window` has read, in ticks.  A commit's child shares its
    parent's `bounds` and shares or extends its `events` and `splits`;
    each group of a split starts with empty `bounds`."""

    dctxs: list
    committed: dict
    now: int
    strict: bool
    events: list
    splits: frozenset
    bounds: dict


class _Problem:
    """A network plus its sampled drama set, ready for tree search.

    The search works on classes of dramas (`_DramaCtx`), not on dramas.
    A drama's projection keeps only its scenario's relevant points and
    fixes only the links whose two end-points survive, so two dramas of
    one scenario whose situations differ only on other links have one
    projection, one closure and the same events: they are one execution.
    The search reads only a class's scenario, its relevant points and
    durations and its closure, so every member of a class sits in the
    same information set on every path, and each step of the search costs
    per distinct execution, not per sampled drama (162 classes for the
    fixture's 486 dramas at grid 3).  Only `schedules` expands a class
    into its members.

    Each class's `rows` are the closure of its projection floored at
    `_ORIGIN`: bare integer rows, with no id list or flag of their own.
    Every closure is indexed by `index`, the network's points in their
    (sorted) order and then a row of the origin, which no point name can
    share, so `_bounds` reads the entries of all classes at one pair of
    positions.  A point that a scenario drops is an isolated row and
    column: `INF` off the diagonal.  No `Stn` or `Constraint` is built.
    The network's constraints become one edge table, (source position,
    target position, delta in ticks, label), once per problem.  What a
    scenario keeps (relevant points, truth mapping, relevant links) is
    read from `projection._scenario_view`.  Its floored projection is the
    table's edges whose labels hold plus an origin floor `_ORIGIN - p <= 0`
    for each relevant point p, closed once (`stn._close`).  A drama's
    projection adds, for each relevant link, the rigid edges c - a <= d
    and a - c <= -d; they are inserted one edge at a time (`stn._insert`)
    into the scenario's closure, in link order, once per class.  The
    classes of a scenario are the leaves of its trie, keyed by the
    relevant links' durations in ticks: classes whose relevant links
    agree on a prefix of durations share that prefix's closure, and an
    inserted edge shares every row it cannot change.  An inconsistent
    closure is None, and so is every closure below it.  Certification
    reads none of this: `semantics._certify` reads each scenario's view
    and constraints from the network itself.

    The search runs on one integer time lattice, and every closure is
    closed on it: every time the search commits, compares or hashes, and
    every closure entry, is an `int` count of 1/`tick`, or `INF`.  `tick`
    is the least scale that makes integers of epsilon, every constraint
    delta and link bound, every sampled duration, and `values`, the other
    rationals a caller commits or compares (a grid, a constraint set).
    Every time the search commits is a sum and difference of these and of
    times committed before it on its path, or a window bound
    (`_earliest_commit`), so it lies on the lattice too.  Sums,
    differences and the order of lattice points are those of the times
    they stand for, so the search takes the steps it would take on
    `Fraction`s; only `schedules` turns a time back into one.
    """

    def __init__(self, network, dramas, values=()):
        self.network = network
        self.noncontingent = sorted(set(network.timepoints) - network.contingent_points)
        self.tick = _least_scale([
            network.epsilon, *(c.delta for c in network.constraints),
            *(b for link in network.links for b in (link.lower, link.upper)),
            *(d for drama in dramas for d in drama.situation), *map(rational, values)])
        ticks = self.ticks
        self.index = index = {t: i for i, t in enumerate([*network.timepoints, _ORIGIN])}
        origin = index[_ORIGIN]
        edges = [(index[c.source], index[c.target], ticks(c.delta), c.label)
                 for c in network.constraints]
        # Scenario -> (relevant points, relevant links, trie root
        # [closure rows or None, {duration in ticks: child}], durations -> class).
        scenarios = {}
        for scenario in dict.fromkeys(drama.scenario for drama in dramas):
            relevant, truth, links = _scenario_view(network, scenario)
            rows, consistent = _close(len(index), [
                *((i, j, delta) for i, j, delta, label in edges if evaluate(label, truth)),
                *((index[point], origin, 0) for point in relevant)])
            links = [(k, link.contingent, index[link.activation], index[link.contingent])
                     for k, link in links]
            scenarios[scenario] = (relevant, links, [rows if consistent else None, {}], {})
        self.epsilon = ticks(network.epsilon)
        self.fractions = {}                         # tick count -> its Fraction
        # A class of dramas is keyed by its scenario and the durations of
        # the links relevant in it, the links that key the scenario's trie.
        self.dctxs = []
        for drama in dramas:
            relevant, links, node, classes = scenarios[drama.scenario]
            durations = tuple(ticks(drama.situation[k]) for k, _, _, _ in links)
            dctx = classes.get(durations)
            if dctx is None:
                for (_, _, activation, contingent), d in zip(links, durations):
                    child = node[1].get(d)
                    if child is None:
                        # Fix contingent - activation to d; None stays None.
                        rows = node[0] and _insert(node[0], activation, contingent, d)
                        child = node[1][d] = [rows and _insert(rows, contingent, activation, -d),
                                              {}]
                    node = child
                dctx = classes[durations] = _DramaCtx(
                    len(self.dctxs), drama, [], relevant,
                    {contingent: d for (_, contingent, _, _), d in zip(links, durations)}, node[0])
                self.dctxs.append(dctx)
            dctx.dramas.append(drama)

    def ticks(self, value):
        """The rational `value`, which must lie on the lattice, in ticks."""
        return _scaled(value, self.tick)

    def known_times(self, node, i):
        """The times of class `node.dctxs[i]` on the path to `node`: the
        committed times, and each contingent time its link events name.
        Every committed point is relevant to every class of the node: it
        was ready, so relevant to all the classes of the node it was
        committed at, and a split only narrows those classes."""
        times = dict(node.committed)
        for when, (kind, item) in node.events[i]:
            if kind == "link":
                times[item[1]] = when
        return times

    def schedules(self, node):
        """The strategy table of a leaf: each drama's known times, as
        `Fraction`s.  They are read once per class, and each member of the
        class gets its own copy of the schedule.  Each distinct time
        becomes a `Fraction` once per problem, and every schedule holding
        it shares that object."""
        made = self.fractions
        table = {}
        for i, d in enumerate(node.dctxs):
            schedule = {}
            for point, t in self.known_times(node, i).items():
                exact = made.get(t)
                if exact is None:
                    exact = made[t] = Fraction(t, self.tick)
                schedule[point] = exact
            for drama in d.dramas:
                table[drama] = dict(schedule)
        return table

    def root(self):
        """The node of every class, before anything runs."""
        return _Node(self.dctxs, {}, 0, False, [()] * len(self.dctxs),
                     frozenset(), {})

    def advance(self, node, committed, point, t):
        """The child of `node` that runs `point` at `t`; `committed` is
        `node.committed` plus that commit.

        Each class's events grow by the events of this commit alone
        (`semantics._commit_events`).  No two commits produce the same
        item, so the histories of the child's classes differ at a time just
        when the events of some commit on the path differ there: the
        child's split times are its parent's plus those of this commit.
        """
        fresh = [_commit_events(self.network, d.drama.scenario, d.durations, point, t)
                 for d in node.dctxs]
        events, splits = node.events, node.splits
        if any(fresh):
            events = [seen + tuple(produced) for seen, produced in zip(events, fresh)]
            splits = splits | _diverging(fresh)
        return _Node(node.dctxs, committed, t, False, events, splits, node.bounds)

    def next_divergence(self, node):
        """Earliest time >= `node.now` at which the histories of
        `node.dctxs` split, or None."""
        return min((t for t in node.splits if t >= node.now), default=None)

    def split(self, node, t):
        """The children of `node` at its divergence `t`: its classes grouped
        by their events at `t`, each group a new information set that
        starts at `t`, strictly.  The groups come in the order of their
        sorted events."""
        groups = {}
        for d, seen in zip(node.dctxs, node.events):
            dctxs, events = groups.setdefault(
                frozenset(item for when, item in seen if when == t), ([], []))
            dctxs.append(d)
            events.append(seen)
        return [_Node(dctxs, node.committed, t, True, events, _diverging(events), {})
                for dctxs, events in (groups[key] for key in sorted(groups, key=sorted))]

    def ready_points(self, node):
        """Uncommitted non-contingent points of `node`, split into
        uniformly-relevant (executable) and relevance-blocked ones."""
        ready, blocked = [], []
        for point in self.noncontingent:
            if point in node.committed:
                continue
            flags = [point in d.relevant for d in node.dctxs]
            if not any(flags):
                continue
            (ready if all(flags) else blocked).append(point)
        return ready, blocked

    def window(self, node, point):
        """Shared feasible interval (lb, ub) for `point` across the classes
        of `node`, given its committed times; `ub` is `INF` when nothing
        bounds it from above.

        Uses STN decomposability: any value within the distance-matrix
        window of the committed anchors extends to a full solution of
        each class's projection.  For the origin and for each committed
        anchor only the tightest entry over the classes is kept (`_bounds`).
        Committed times and closure entries are both in ticks, so the
        bounds are `int` sums and comparisons; no `Fraction` is made.
        """
        floor, _ = self._bounds(node, point, _ORIGIN)
        lb, ub = max(0, -floor), INF
        for anchor, t in node.committed.items():
            back, fwd = self._bounds(node, point, anchor)
            lb = max(lb, t - back)
            ub = min(ub, t + fwd)
        return lb, ub

    def _bounds(self, node, point, anchor):
        """(back, fwd): the least closure entries for anchor - point and
        for point - anchor over the classes of `node`, in ticks, or `INF`
        where unbounded.

        Every closure is indexed by `index` and closed on ticks, so the
        entries are read at one pair of positions and compared as
        integers.  A class that does not run `anchor` has `INF` there, so
        it never wins.  The entries depend on the information set alone,
        so each pair is read once per set and kept in `node.bounds`.
        """
        found = node.bounds.get((point, anchor))
        if found is None:
            p, a = self.index[point], self.index[anchor]
            found = node.bounds[(point, anchor)] = (min(d.rows[p][a] for d in node.dctxs),
                                                    min(d.rows[a][p] for d in node.dctxs))
        return found


def _diverging(per_class):
    """The times at which the event lists `per_class`, one per class, do
    not all hold the same items: those of the events some class has and
    another lacks."""
    distinct = {frozenset(events) for events in per_class}   # few: most classes agree
    return frozenset(when for when, _ in frozenset.union(*distinct)
                     - frozenset.intersection(*distinct))


# Virtual origin pinned at time 0, keying its own row of `_Problem.index`
# after the points (no point id is `None`).  Every point is floored at it,
# so a closure holds absolute earliest times before anything is committed.
_ORIGIN = None


class _Budget(Exception):
    pass


# What a node's alternatives generator asks of `_explore`: the value of a
# child node, or to fold in the value of one alternative.
_ENTER, _VALUE = "enter", "value"
_OPEN = object()


def _explore(problem, moves, leaf, fold, join, budget=None, remember=None):
    """Walk the observation-ordered decision trees of `problem`.

    A node (`_Node`) is an information set `dctxs` (classes of dramas
    whose histories agree so far), the times `committed` to it, the time
    `now` of the last step, and `strict`.  A node with no point left to
    run is a leaf, valued `leaf(node)`.  Any other node folds the values of its
    alternatives, in order: each commit (point, t) proposed by
    `moves(node, ready, divergence)`, and then the split at the next
    divergence, if there is one.  `fold` is (initial, step): the node's
    value starts at `initial`, and `step(value, alternative's value)`
    returns (value, stop); no later alternative is valued once `stop` is
    true.  A commit's value is the value of the node it leads to; the walk
    checks no constraint, so `moves` proposes only the commits worth
    entering.  A split's value is `join` over its groups' values, or the
    first falsy one: a group that fails fails the split.

    With a `budget`, every node entered is counted, before the memo is
    looked up, and `_Budget` is raised once the count exceeds the budget.
    With `remember`, the node values it accepts are memoized.  Greedy
    synthesis passes neither: it follows a single path, so a memo would
    only pay for the keys.

    The walk keeps its own stack, one frame per open node, so its depth
    is not bounded by the interpreter's recursion limit.
    """
    initial, step = fold
    memo = {}
    stack = []          # [alternatives, memo key, folded value] per open node
    entered = 0

    def enter(node):
        """The value of `node` if it is a leaf or remembered; otherwise
        `_OPEN`, with the node's frame pushed."""
        nonlocal entered
        if budget is not None:
            entered += 1
            if entered > budget:
                raise _Budget()
        key = None
        if remember is not None:
            key = (frozenset(d.idx for d in node.dctxs),
                   tuple(sorted(node.committed.items())), node.now, node.strict)
            if key in memo:
                return memo[key]
        ready, blocked = problem.ready_points(node)
        if ready or blocked:
            stack.append([alternatives(node, ready), key, initial])
            return _OPEN
        return close(key, leaf(node))

    def close(key, value):
        if remember is not None and remember(value):
            memo[key] = value
        return value

    def alternatives(node, ready):
        div = problem.next_divergence(node)
        for point, t in moves(node, ready, div):
            trial = {**node.committed, point: t}
            value = yield _ENTER, problem.advance(node, trial, point, t)
            yield _VALUE, value
        if div is not None:
            joined = None
            for group in problem.split(node, div):
                value = yield _ENTER, group
                if not value:
                    joined = value
                    break
                joined = value if joined is None else join(joined, value)
            yield _VALUE, joined

    value = enter(problem.root())
    incoming = None     # what the innermost open node's generator is sent next
    while stack:
        frame = stack[-1]
        try:
            kind, payload = frame[0].send(incoming)
        except StopIteration:
            value = frame[2]
        else:
            incoming = None
            if kind is _ENTER:
                child = enter(payload)
                if child is not _OPEN:
                    incoming = child
                continue
            frame[2], stop = step(frame[2], payload)
            if not stop:
                continue
            value = frame[2]
        stack.pop()
        incoming = value = close(frame[1], value)
    return value


def _first(value, alternative):
    return alternative, True


def _first_success(value, alternative):
    return (alternative, True) if alternative else (value, False)


def _merge(table, other):
    return {**table, **other}


def _earliest_commit(problem):
    """Moves of greedy synthesis: the globally earliest feasible commit.

    A point's time is the earliest in its shared window that is not
    before `now`, and at a divergence later than `now`.  Where epsilon
    past a divergence overshoots the window, the point runs at the
    window's upper bound instead, if that is still after `now`: of the
    feasible times, the one nearest to `now` + epsilon, and a lattice
    point.  Commits past the next divergence are not feasible: the
    information set must split first.
    """
    epsilon = problem.epsilon

    def moves(node, ready, div):
        now, strict = node.now, node.strict
        floor = now + epsilon if strict else now
        best = None
        for point in ready:
            lb, ub = problem.window(node, point)
            t = max(lb, floor)
            if t > ub:
                if not (strict and lb <= now < ub):
                    continue
                t = ub
            if div is not None and t > div:
                continue
            if best is None or (t, point) < best:
                best = (t, point)
        return () if best is None else ((best[1], best[0]),)

    return moves


def _window_commits(problem, grid):
    """Moves of the exhaustive searches: every ready point at every time of
    `grid` inside its window (`_Problem.window`), from `now` (after it,
    past a divergence) up to the next divergence, point by point and each
    point's times in increasing order."""
    grid = sorted(problem.ticks(t) for t in grid)

    def moves(node, ready, div):
        first = (bisect_right if node.strict else bisect_left)(grid, node.now)
        last = len(grid) if div is None else bisect_right(grid, div)
        for point in ready:
            lb, ub = problem.window(node, point)
            stop = min(last, bisect_right(grid, ub))
            for t in grid[max(first, bisect_left(grid, lb)):stop]:
                yield point, t

    return moves


def _synthesize(problem):
    """Greedy earliest-first decision-tree synthesis.

    Returns {Drama: schedule} or None.  Within an information set the
    globally earliest feasible point is committed; when every feasible
    commitment would fall past the next history divergence, the search
    waits, splits the information set, and recurses per branch.  It
    follows a single path: the first alternative decides, so the split is
    never tried after a failed commit.
    """
    return _explore(problem, _earliest_commit(problem), problem.schedules,
                    (None, _first), _merge)


def candidate_time_grid(network, situations):
    """Candidate execution times: sums and differences of the network's
    constants, closed to GRID_DEPTH, truncated to the GRID_CAP smallest."""
    base = {Fraction(0), network.epsilon}
    horizon = Fraction(1)
    for c in network.constraints:
        base.add(abs(c.delta))
        horizon += abs(c.delta)
    for link in network.links:
        base.add(link.lower)
        base.add(link.upper)
        horizon += link.upper
    for situation in situations:
        base.update(Fraction(d) for d in situation)
    base = {v for v in base if 0 <= v <= horizon}
    grid = set(base)
    for _ in range(GRID_DEPTH - 1):
        new = set()
        for a in grid:
            for b in base:
                for v in (a + b, a - b):
                    if 0 <= v <= horizon:
                        new.add(v)
        grid |= new
        if len(grid) > 4 * GRID_CAP:
            break
    return tuple(sorted(grid)[:GRID_CAP])


def _exhaustive_witness(problem, grid, budget):
    """Complete search of grid-valued decision-tree strategies.

    Returns the first viable dynamic strategy table found, or None when
    the space holds none; raises `_Budget` when more than `budget` nodes
    are entered.  A point is committed only at the grid times inside its
    window over the information set (`_window_commits`).

    That prunes no viable leaf and admits no violation.  Each drama's
    closure (`rows`) is that of its floored projection with the rigid link
    edges, so it is decomposable (Dechter, Meiri & Pearl, 1991): times for
    some of its points that meet every closure entry between them extend
    to a solution.  The window meets the entries between the point and
    the origin and every committed point, in every drama of the set, and
    the contingent times the commits determine follow from the rigid
    edges, whose entries make their bounds those of their activations.
    By induction on the path, the known times of every drama stay
    extendable, so they violate no constraint, and a leaf is viable (it
    is still re-certified by the caller).  A time outside the window
    leaves some drama's known times without a solution; every leaf below
    holds them, so no leaf below is viable.  The search therefore finds
    the first witness, or None, that a walk of the whole grid would.
    """
    # Only failures are remembered: a success ends the search unless a
    # sibling group fails.
    return _explore(problem, _window_commits(problem, grid), problem.schedules,
                    (None, _first_success), _merge, budget, operator.not_)


def tree_strategy_masks(network, constraint_sets, grid):
    """Achievable violation masks over all grid-valued decision-tree
    strategies of `network`'s drama set.

    Bit i of a mask is set when the strategy violates some constraint of
    `constraint_sets[i]` in some drama whose scenario makes its label
    true.  The full mask set supports questions like "is every strategy
    viable for set 0 also viable for set 1".  Raises `ValueError` when
    the network does not validate or a label names a letter the network
    lacks, and `RuntimeError` when more than MASKS_BUDGET tree nodes are
    entered.

    The walk is the witness search's (`_window_commits`) over a copy of
    `network` without its constraints, which no mask reads: there only the
    origin floor and the rigid link edges bound a non-contingent point, so
    its window is [0, inf).  A leaf's mask is read off its dramas' known
    times; each drama ends at one leaf, so a tree's mask is the union of
    its leaves' masks.
    """
    report = validate(network)
    if not report.ok:
        raise ValueError("network does not validate:\n%s" % report)
    free = Network(network.timepoints.values(), letters=network.letters,
                   observations=network.observations, links=network.links,
                   epsilon=network.epsilon)
    scenarios = enumerate_scenarios(network.letters)
    situations = sample_situations(network.links)
    dramas = [Drama(s, w) for s in scenarios for w in situations]
    problem = _Problem(free, dramas,
                       (*grid, *(c.delta for constraints in constraint_sets for c in constraints)))
    # Scenario -> per set, the (source, target, delta in ticks) whose labels hold
    checks = {}
    for s in scenarios:
        truth = s.as_mapping()
        checks[s] = [[(c.source, c.target, problem.ticks(c.delta))
                      for c in constraints if evaluate(c.label, truth)]
                     for constraints in constraint_sets]

    def leaf(node):
        mask = 0
        for i, d in enumerate(node.dctxs):
            times = problem.known_times(node, i)
            for k, constraints in enumerate(checks[d.drama.scenario]):
                if any(source in times and target in times
                       and times[target] - times[source] > delta
                       for source, target, delta in constraints):
                    mask |= 1 << k
        return frozenset({mask})

    try:
        return _explore(problem, _window_commits(problem, grid), leaf,
                        (frozenset(), lambda masks, other: (masks | other, False)),
                        lambda masks, other: frozenset(m | s for m in masks for s in other),
                        MASKS_BUDGET, lambda masks: True)
    except _Budget:
        raise RuntimeError("budget of %d nodes exhausted" % MASKS_BUDGET) from None


@dataclass
class DcResult:
    verdict: str                    # "controllable" | "not-controllable" | "unknown"
    strategy: Strategy = None
    evidence: str = None
    sample: str = None

    @property
    def controllable(self):
        return self.verdict == "controllable"

    def __str__(self):
        parts = [self.verdict]
        if self.evidence:
            parts.append(self.evidence)
        if self.sample:
            parts.append("(%s)" % self.sample)
        return "; ".join(parts)


def check_dc(network, grid=DEFAULT_GRID):
    """Dynamic-controllability check over the sampled drama set.

    A network with more than MAX_LETTERS letters or MAX_LINKS links is a
    `ValueError`.  When greedy synthesis fails on a network of at most
    EXHAUSTIVE_POINTS points, the candidate-time grid is searched
    exhaustively, entering at most EXHAUSTIVE_BUDGET tree nodes.
    """
    report = validate(network)
    if not report.ok:
        raise ValueError("network does not validate:\n%s" % report)
    if len(network.letters) > MAX_LETTERS:
        raise ValueError("letter cap exceeded: %d > %d" % (len(network.letters), MAX_LETTERS))
    if len(network.links) > MAX_LINKS:
        raise ValueError("link cap exceeded: %d > %d" % (len(network.links), MAX_LINKS))

    scenarios = enumerate_scenarios(network.letters)
    situations = sample_situations(network.links, grid)
    dramas = [Drama(s, w) for s in scenarios for w in situations]
    sample = ("%d scenarios x %d sampled situations (duration grid %d per link)"
              % (len(scenarios), len(situations), grid))
    problem = _Problem(network, dramas)

    # The first member of the first inconsistent class is the first
    # inconsistent drama: classes come in the order of their first members.
    bad = next((d for d in problem.dctxs if d.rows is None), None)
    if bad is not None:
        return DcResult("not-controllable",
                        evidence="projection for drama %s is inconsistent" % (bad.drama,),
                        sample=sample)

    table = _synthesize(problem)
    if table is None:
        if len(network.timepoints) > EXHAUSTIVE_POINTS:
            return DcResult(
                "unknown",
                evidence="exhaustive search skipped: %d points > exhaustive_points (%d)"
                         % (len(network.timepoints), EXHAUSTIVE_POINTS),
                sample=sample)
        times = candidate_time_grid(network, situations)
        try:
            table = _exhaustive_witness(problem, times, EXHAUSTIVE_BUDGET)
        except _Budget:
            return DcResult("unknown",
                            evidence="budget of %d nodes exhausted" % EXHAUSTIVE_BUDGET,
                            sample=sample)
        if table is None:
            return DcResult(
                "unknown",
                evidence="no viable decision tree over %d candidate times; "
                         "the grid may be too coarse" % len(times),
                sample=sample)

    # Both searches build dynamic, viable strategies by construction, so a
    # strategy that fails re-certification is a bug, not a verdict.
    # Certification reads the network and the strategy alone.
    strategy = Strategy.from_dramas("cstn" if network.kind == "stn" else network.kind,
                                    table.items())
    outcome = _certify(network, strategy)
    if not outcome:
        raise RuntimeError("search built a strategy that fails re-certification: %s"
                           % outcome)
    return DcResult("controllable", strategy=strategy, sample=sample)


def verify_cstn_embedding(network):
    """A CSTN and its link-free lifting get the same verdict."""
    if network.kind not in ("stn", "cstn"):
        raise ValueError("expected a network without contingent links")
    direct = check_dc(network)
    lifted = check_dc(embed_cstn(network))
    return direct.verdict == lifted.verdict


def verify_stnu_embedding(network):
    """An STNU and its empty-label lifting get the same verdict."""
    if network.kind not in ("stn", "stnu"):
        raise ValueError("expected a network without observation letters")
    direct = check_dc(network)
    lifted = check_dc(embed_stnu(network))
    return direct.verdict == lifted.verdict
