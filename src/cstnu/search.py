"""Desk-scale dynamic-controllability checking.

The situation space is discretized (a duration grid per contingent link)
and strategies are searched as observation-ordered decision trees: the
same times are committed for every drama of an information set until
their histories diverge, so the dynamic* property holds by construction.
One explorer walks these trees, and two policies sit on top of it:
greedy synthesis, and the exhaustive witness search when greedy fails.
Verdicts are sound, not complete:

* an inconsistent sampled projection refutes controllability outright;
* a synthesized strategy's decision tree is independently re-certified
  (`semantics.certify_tree`) before the "controllable" verdict is
  returned, with the per-drama table that the certifier expanded;
* otherwise the verdict is "unknown", and its evidence names what stopped
  the search: the candidate time grid was exhausted, the node budget ran
  out, or the network was too large for the exhaustive search.
"""

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .labels import evaluate
from .model import validate
from .projection import (DEFAULT_GRID, Drama, _scenario_view, enumerate_scenarios,
                         sample_situations)
from .rational import INF, _least_scale, _scaled, rational
from .semantics import (Strategy, TreeFault, TreeLeaf, TreeSplit, _commit_events,
                        _emissions, _with_duration, certify_tree)
from .stn import _close, _insert

# Search bounds of the two policies, greedy synthesis and the witness
# search; see `check_dc` and `candidate_time_grid`.
MAX_LETTERS = 6
MAX_LINKS = 6
EXHAUSTIVE_POINTS = 6
EXHAUSTIVE_BUDGET = 200_000
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
    in problem order, and `drama` is the first of its members in problem
    order.  The projection itself is never built:
    `rows` is its closure, made from the problem's edge table, or None
    when the projection is inconsistent."""

    idx: int
    drama: Drama
    relevant: frozenset      # the scenario's relevant points, one set per scenario
    durations: dict          # contingent point -> sampled duration, in ticks
    rows: list               # closure of the floored projection, or None; see `_Problem`


@dataclass(eq=False)
class _Node:
    """A node of the decision-tree walk, and the only state the search
    keeps for its path: the information set `dctxs` (the classes of
    dramas, `_DramaCtx`, in problem order, whose histories agree so far)
    and its `ids` (their `idx`), the times `committed` to it, the time
    `now` of the last step, and `strict`, set when the node starts at a
    divergence at `now`, so that nothing more may run at `now`.  Every
    time is an `int` count of 1/`_Problem.tick`.

    `events[i]` holds the (time, item) events class `dctxs[i]` has seen on
    the path, and `splits` the times at which the histories of `dctxs`
    differ.  `windows` maps each ready point, in `noncontingent` order, to
    two lists aligned with `dctxs`: each class's lower and upper bound for
    it.  `blocked` is set when some other uncommitted point is relevant to
    some of `dctxs` only.  A commit keeps `ids` and `blocked`, shares or
    extends `events` and `splits`, and tightens `windows`."""

    dctxs: list
    ids: frozenset
    committed: dict
    now: int
    strict: bool
    events: list
    splits: frozenset
    windows: dict
    blocked: bool


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
    fixture's 486 dramas at grid 3).  The search builds a decision tree
    (`leaf`, `join`), which names no class and no drama: the certifier
    (`semantics.certify_tree`) expands it into the schedule of each
    drama.

    Each class's `rows` are the closure of its projection floored at
    `_ORIGIN`: bare integer rows, with no id list or flag of their own.
    Every closure is indexed by `index`, the network's points in their
    (sorted) order and then a row of the origin, which no point name can
    share, so the entries of all classes sit at one pair of
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
    reads none of this: `semantics.certify_tree` groups the dramas into
    executions itself and reads each scenario's view and constraints from
    the network.

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
    `Fraction`s; only the tree it builds holds a time as one (`exact`).
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
        self.emitted = _emissions(network)
        self.fractions = {}                         # tick count -> its Fraction
        # A class of dramas is keyed by its scenario and the durations of
        # the links relevant in it, the links that key the scenario's trie.
        self.dctxs = []
        for drama in dramas:
            relevant, links, node, classes = scenarios[drama.scenario]
            durations = tuple(ticks(drama.situation[k]) for k, _, _, _ in links)
            if durations not in classes:
                for (_, _, activation, contingent), d in zip(links, durations):
                    child = node[1].get(d)
                    if child is None:
                        # Fix contingent - activation to d; None stays None.
                        rows = node[0] and _insert(node[0], activation, contingent, d)
                        child = node[1][d] = [rows and _insert(rows, contingent, activation, -d),
                                              {}]
                    node = child
                classes[durations] = _DramaCtx(
                    len(self.dctxs), drama, relevant,
                    {contingent: d for (_, contingent, _, _), d in zip(links, durations)}, node[0])
                self.dctxs.append(classes[durations])

    def ticks(self, value):
        """The rational `value`, which must lie on the lattice, in ticks."""
        return _scaled(value, self.tick)

    def exact(self, t):
        """The tick count `t` as a `Fraction`, made once per problem."""
        made = self.fractions.get(t)
        if made is None:
            made = self.fractions[t] = Fraction(t, self.tick)
        return made

    def leaf(self, node):
        """The strategy tree of a leaf: its committed times, as `Fraction`s."""
        return TreeLeaf({point: self.exact(t) for point, t in node.committed.items()})

    def join(self, node, t, branches):
        """The strategy tree of `node`'s split at `t`: its committed times,
        `t`, and one (key, tree) pair per group of `branches`, each key's
        link durations as `Fraction`s."""
        exact = self.exact
        return TreeSplit({point: exact(when) for point, when in node.committed.items()},
                         exact(t), tuple((frozenset(_with_duration(item, exact) for item in key),
                                          tree) for key, tree in branches))

    def root(self):
        """The node of every class, before anything runs."""
        return self._information_set(self.dctxs, {}, 0, False, [()] * len(self.dctxs), {})

    def _information_set(self, dctxs, committed, now, strict, events, windows):
        """The node that starts the information set `dctxs` (the root, or a
        group of a split) with the `windows` its classes bring; a point
        ready here but not before is read from the origin and every
        committed anchor.  Committed points are relevant to all classes."""
        distinct = {d.relevant for d in dctxs}
        common = frozenset.intersection(*distinct)
        origin, anchors = self.index[_ORIGIN], [(self.index[a], t) for a, t in committed.items()]
        ready = {}
        for point in self.noncontingent:
            if point in windows:
                ready[point] = windows[point]
            elif point in common and point not in committed:
                p = self.index[point]
                ready[point] = lbs, ubs = [], []
                for d in dctxs:
                    lb, ub = max(0, -d.rows[p][origin]), INF
                    for a, t in anchors:
                        lb, ub = max(lb, t - d.rows[p][a]), min(ub, t + d.rows[a][p])
                    lbs.append(lb)
                    ubs.append(ub)
        blocked = not (frozenset.union(*distinct) - common).isdisjoint(self.noncontingent)
        return _Node(dctxs, frozenset(d.idx for d in dctxs), committed, now, strict, events,
                     _diverging(events), ready, blocked)

    def advance(self, node, point, t):
        """The child of `node` that runs `point` at `t`.

        Each class's events grow by the events of this commit alone
        (`semantics._commit_events`), and only a point that emits something
        produces events.  No two commits produce the same item, so the
        histories of the child's classes differ at a time just when the
        events of some commit on the path differ there: the child's split
        times are its parent's plus those of this commit.  Each class's
        window of each other ready point meets the new anchor's.
        """
        dctxs, events, splits = node.dctxs, node.events, node.splits
        if point in self.emitted:
            fresh = [_commit_events(self.emitted, d.drama.scenario, d.durations, point, t)
                     for d in dctxs]
            if any(fresh):
                events = [seen + tuple(produced) for seen, produced in zip(events, fresh)]
                splits = splits | _diverging(fresh)
        a, windows = self.index[point], {}
        for q, (lbs, ubs) in node.windows.items():
            if q != point:
                p = self.index[q]
                windows[q] = ([max(lb, t - d.rows[p][a]) for lb, d in zip(lbs, dctxs)],
                              [min(ub, t + d.rows[a][p]) for ub, d in zip(ubs, dctxs)])
        return _Node(dctxs, node.ids, {**node.committed, point: t}, t, False, events, splits,
                     windows, node.blocked)

    def next_divergence(self, node):
        """Earliest time >= `node.now` at which the histories of
        `node.dctxs` split, or None."""
        return min((t for t in node.splits if t >= node.now), default=None)

    def split(self, node, t):
        """The children of `node` at its divergence `t`, as (key, child)
        pairs: its classes grouped by `key`, the items of their events at
        `t`, each group a new information set that starts at `t`,
        strictly, with its classes' windows: a split commits nothing.  The
        groups come in the order of their sorted keys."""
        groups = {}
        for i, seen in enumerate(node.events):
            groups.setdefault(frozenset(item for when, item in seen if when == t), []).append(i)
        return [(key, self._information_set(
                    [node.dctxs[i] for i in members], node.committed, t, True,
                    [node.events[i] for i in members],
                    {point: ([lbs[i] for i in members], [ubs[i] for i in members])
                     for point, (lbs, ubs) in node.windows.items()}))
                for key, members in sorted(groups.items(), key=lambda g: sorted(g[0]))]

    def ready_points(self, node):
        """The points of `node` ready to run (`node.windows`), and whether
        some other point is relevance-blocked (`node.blocked`)."""
        return list(node.windows), node.blocked

    def window(self, node, point):
        """Shared feasible interval (lb, ub) in ticks for `point` across the
        classes of `node`; `ub` is `INF` when nothing bounds it from above.

        Uses STN decomposability: any value within the distance-matrix
        window of the committed anchors extends to a full solution of
        each class's projection.  A class's window depends only on its
        closure and the committed times, and the min over classes and the
        max over anchors commute, so the shared window is the intersection
        of the classes' own windows (`node.windows`)."""
        lbs, ubs = node.windows[point]
        return max(lbs), min(ubs)


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


def _explore(problem, moves, leaf, fold, join, budget=None, remember=None):
    """Walk the observation-ordered decision trees of `problem`.

    A node (`_Node`) with no point left to run is a leaf, valued
    `leaf(node)`.  Any other node folds the values of its alternatives, in
    order: each commit (point, t) proposed by `moves(node, ready,
    divergence)`, and then the split at the next divergence, if there is
    one.  `fold` is (initial, step): the node's value starts at `initial`,
    and `step(value, alternative's value)` returns (value, stop); no later
    alternative is valued once `stop` is true.  A commit's value is the
    value of the node it leads to; the walk checks no constraint, so
    `moves` proposes only the commits worth entering.  A split at t has
    the value `join(node, t, branches)`, `branches` holding a (key, value)
    pair per group (`_Problem.split`), or else the first falsy value of a
    group: a group that fails fails the split.

    With a `budget`, every node entered is counted, before the memo is
    looked up, and `_Budget` is raised once the count exceeds the budget.
    With `remember`, the node values it accepts are memoized.  Greedy
    synthesis passes neither: it follows a single path, so a memo would
    only pay for the keys.

    The walk keeps its own stack, one frame per open node, so its depth
    is not bounded by the interpreter's recursion limit.  A frame is the
    node's generator and its memo key.  The generator yields each child
    node, is sent that child's value as the value of its `yield`, folds
    it, and returns the node's own value.  The loop only sends the top
    frame the last value, enters the child it yields, and closes a frame
    that returned: a fresh frame is sent None, and a leaf's or a
    remembered value goes to the frame that yielded its node.
    """
    initial, step = fold
    memo = {}
    stack = []          # (node's generator, memo key) per open node
    entered = 0

    def enter(node):
        """The value of `node` if it is a leaf or remembered; otherwise
        None, with the node's frame pushed."""
        nonlocal entered
        if budget is not None:
            entered += 1
            if entered > budget:
                raise _Budget()
        key = None
        if remember is not None:
            key = (node.ids, tuple(sorted(node.committed.items())), node.now, node.strict)
            if key in memo:
                return memo[key]
        ready, blocked = problem.ready_points(node)
        if ready or blocked:
            stack.append((value_of(node, ready), key))
            return None
        return close(key, leaf(node))

    def close(key, value):
        if remember is not None and remember(value):
            memo[key] = value
        return value

    def value_of(node, ready):
        div = problem.next_divergence(node)
        value = initial
        for point, t in moves(node, ready, div):
            value, stop = step(value, (yield problem.advance(node, point, t)))
            if stop:
                return value
        if div is not None:
            branches = []
            for key, group in problem.split(node, div):
                other = yield group
                if not other:
                    joined = other
                    break
                branches.append((key, other))
            else:
                joined = join(node, div, branches)
            value, _ = step(value, joined)
        return value

    value = enter(problem.root())
    while stack:
        frame, key = stack[-1]
        try:
            child = frame.send(value)
        except StopIteration as done:
            stack.pop()
            value = close(key, done.value)
        else:
            value = enter(child)
    return value


def _first(value, alternative):
    return alternative, True


def _first_success(value, alternative):
    return (alternative, True) if alternative else (value, False)


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
    """Moves of the witness search: every ready point at every time of
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

    Returns the strategy's decision tree (`semantics.TreeLeaf`,
    `semantics.TreeSplit`) or None.  Within an information set the
    globally earliest feasible point is committed; when every feasible
    commitment would fall past the next history divergence, the search
    waits, splits the information set, and recurses per branch.  It
    follows a single path: the first alternative decides, so the split is
    never tried after a failed commit.
    """
    return _explore(problem, _earliest_commit(problem), problem.leaf, (None, _first),
                    problem.join)


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

    Returns the decision tree of the first viable dynamic strategy found,
    as `_synthesize` does, or None when the space holds none; raises
    `_Budget` when more than `budget` nodes are entered.  A point is
    committed only at the grid times inside its window over the
    information set (`_window_commits`).

    That prunes no viable leaf and admits no violation.  Each drama's
    closure (`rows`) is that of its floored projection with the rigid link
    edges, so it is decomposable (Dechter, Meiri & Pearl, 1991): times for
    some of its points that meet every closure entry between them extend
    to a solution.  The argument holds class by class: the set's window is
    the intersection of its classes' own windows, and each of those meets
    the entries between the point and the origin and every committed
    point, and the contingent times the commits determine follow from the
    rigid edges, whose entries make their bounds those of their
    activations.  By induction on the path, the known times of every drama
    stay extendable, so they violate no constraint, and a leaf is viable
    (it is still re-certified by the caller).  A time outside the window
    leaves some drama's known times without a solution; every leaf below
    holds them, so no leaf below is viable.  The search therefore finds
    the first witness, or None, that a walk of the whole grid would.
    """
    # Only failures are remembered: a success ends the search unless a
    # sibling group fails.
    return _explore(problem, _window_commits(problem, grid), problem.leaf,
                    (None, _first_success), problem.join, budget, operator.not_)


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

    tree = _synthesize(problem)
    if tree is None:
        if len(network.timepoints) > EXHAUSTIVE_POINTS:
            return DcResult(
                "unknown",
                evidence="exhaustive search skipped: %d points > exhaustive_points (%d)"
                         % (len(network.timepoints), EXHAUSTIVE_POINTS),
                sample=sample)
        times = candidate_time_grid(network, situations)
        try:
            tree = _exhaustive_witness(problem, times, EXHAUSTIVE_BUDGET)
        except _Budget:
            return DcResult("unknown",
                            evidence="budget of %d nodes exhausted" % EXHAUSTIVE_BUDGET,
                            sample=sample)
        if tree is None:
            return DcResult(
                "unknown",
                evidence="no viable decision tree over %d candidate times; "
                         "the grid may be too coarse" % len(times),
                sample=sample)

    # Both searches build dynamic, viable strategies by construction, so a
    # tree that fails re-certification is a bug, not a verdict.
    # Certification reads the network, the dramas and the tree alone, and
    # the strategy returned is the table it certified.
    try:
        table = certify_tree(network, dramas, tree)
    except TreeFault as fault:
        raise RuntimeError("search built a strategy that fails re-certification: %s"
                           % fault) from None
    strategy = Strategy.from_dramas("cstn" if network.kind == "stn" else network.kind,
                                    table.items())
    return DcResult("controllable", strategy=strategy, sample=sample)
