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
from dataclasses import dataclass
from fractions import Fraction

from .model import Constraint, Stn, validate
from .projection import (Drama, drama_projection, enumerate_scenarios,
                         sample_situations)
from .rational import INF
from .semantics import Strategy, is_dynamic_star, is_viable
from .stn import solve


@dataclass
class _DramaCtx:
    """Per-drama precomputation shared by every search."""

    idx: int
    drama: Drama
    relevant: frozenset
    durations: dict          # contingent point -> sampled duration
    projection: object
    matrix: object


class _Problem:
    """A network plus its sampled drama set, ready for tree search."""

    def __init__(self, network, dramas):
        self.network = network
        self.contingent = network.contingent_points
        self.noncontingent = sorted(set(network.timepoints) - self.contingent)
        self.obs_letter = {point: letter for letter, point in network.observations.items()}
        self.activation = {link.contingent: link.activation for link in network.links}
        self.dctxs = []
        for i, drama in enumerate(dramas):
            projection = drama_projection(network, drama.scenario, drama.situation)
            relevant = projection.timepoints
            durations = {link.contingent: d
                         for link, d in zip(network.links, drama.situation)
                         if link.activation in relevant and link.contingent in relevant}
            self.dctxs.append(_DramaCtx(i, drama, relevant, durations,
                                        projection, solve(_with_origin(projection))))

    def inconsistent_drama(self):
        for d in self.dctxs:
            if not d.matrix.consistent:
                return d
        return None

    def known_times(self, dctx, committed):
        """Committed times plus the contingent times they determine."""
        times = {p: t for p, t in committed.items() if p in dctx.relevant}
        changed = True
        while changed:
            changed = False
            for point, dur in dctx.durations.items():
                if point in times:
                    continue
                act = self.activation[point]
                if act in times:
                    times[point] = times[act] + dur
                    changed = True
        return times

    def schedules(self, dctxs, committed):
        """The strategy table of a leaf: each drama's known times."""
        return {d.drama: self.known_times(d, committed) for d in dctxs}

    def events(self, dctx, committed):
        """Observable history events with already-determined times."""
        times = self.known_times(dctx, committed)
        out = []
        for point, letter in self.obs_letter.items():
            if point in dctx.relevant and point in times:
                out.append((times[point], ("obs", letter),
                            dctx.drama.scenario.value(letter)))
        for point, dur in dctx.durations.items():
            if point in times:
                out.append((times[point], ("link", self.activation[point], point), dur))
        return out

    def next_divergence(self, dctxs, committed, now):
        """Earliest time >= now at which the histories of `dctxs` split.

        Returns (time, groups) where groups partitions dctxs by the
        content of their events at that time, or None.
        """
        per_time = []
        times = set()
        for d in dctxs:
            table = {}
            for t, key, content in self.events(d, committed):
                if t >= now:
                    table.setdefault(t, set()).add((key, content))
                    times.add(t)
            per_time.append(table)
        for t in sorted(times):
            contents = [frozenset(table.get(t, ())) for table in per_time]
            if any(c != contents[0] for c in contents):
                groups = {}
                for d, c in zip(dctxs, contents):
                    groups.setdefault(c, []).append(d)
                return t, [groups[k] for k in sorted(groups, key=sorted)]
        return None

    def ready_points(self, dctxs, committed):
        """Uncommitted non-contingent points, split into uniformly-relevant
        (executable) and relevance-blocked ones."""
        ready, blocked = [], []
        for point in self.noncontingent:
            if point in committed:
                continue
            flags = [point in d.relevant for d in dctxs]
            if not any(flags):
                continue
            (ready if all(flags) else blocked).append(point)
        return ready, blocked

    def window(self, dctxs, committed, point):
        """Shared feasible interval for `point` across `dctxs`.

        Uses STN decomposability: any value within the distance-matrix
        window of the committed anchors extends to a full solution of
        each drama's projection.
        """
        lb, ub = Fraction(0), None
        for d in dctxs:
            floor = d.matrix.distance(point, _ORIGIN)
            if floor != INF and -floor > lb:
                lb = -floor
            for anchor, t in committed.items():
                if anchor not in d.relevant:
                    continue
                fwd = d.matrix.distance(anchor, point)
                back = d.matrix.distance(point, anchor)
                if back != INF and t - back > lb:
                    lb = t - back
                if fwd != INF:
                    cap = t + fwd
                    if ub is None or cap < ub:
                        ub = cap
        return lb, ub


# Virtual origin pinned at time 0.  Every point is floored at it, so the
# distance matrix yields absolute earliest times even before any real
# point has been committed.
_ORIGIN = "__origin__"


def _with_origin(projection):
    constraints = set(projection.constraints)
    for point in projection.timepoints:
        constraints.add(Constraint(point, _ORIGIN, 0))
    return Stn(frozenset(projection.timepoints) | {_ORIGIN},
               frozenset(constraints))


class _Budget(Exception):
    pass


def _explore(problem, moves, leaf, fold, join, commit=None, budget=None,
             remember=None):
    """Walk the observation-ordered decision trees of `problem`.

    A node is an information set `dctxs` (dramas whose histories agree so
    far), the times `committed` to it, the time `now` of the last step,
    and `strict`, set when the node starts at a divergence at `now`, so
    that nothing more may run at `now`.  A node with no point left to run
    is a leaf, valued `leaf(dctxs, committed)`.  Any other node is valued
    `fold(results)`, where `results` lazily yields the value of each
    commit (point, t) proposed by `moves(dctxs, committed, now, strict,
    ready, divergence)`, in order, and then the value of the split at the
    next divergence, if there is one.  A commit's value is
    `commit(dctxs, trial, point, descend)`, by default `descend()`, the
    value of the node it leads to.  A split's value is `join` over its
    groups' values, or the first falsy one: a group that fails fails the
    split.

    With a `budget`, every node entered is counted, before the memo is
    looked up, and `_Budget` is raised once the count exceeds the budget.
    With `remember`, the node values it accepts are memoized.  Greedy
    synthesis passes neither: it follows a single path, so a memo would
    only pay for the keys.
    """
    memo = {}
    entered = 0

    def node(dctxs, committed, now, strict):
        nonlocal entered
        if budget is not None:
            entered += 1
            if entered > budget:
                raise _Budget()
        if remember is not None:
            key = (frozenset(d.idx for d in dctxs),
                   tuple(sorted(committed.items())), now, strict)
            if key in memo:
                return memo[key]
        ready, blocked = problem.ready_points(dctxs, committed)
        if ready or blocked:
            div = problem.next_divergence(dctxs, committed, now)
            value = fold(alternatives(dctxs, committed, now, strict, ready, div))
        else:
            value = leaf(dctxs, committed)
        if remember is not None and remember(value):
            memo[key] = value
        return value

    def alternatives(dctxs, committed, now, strict, ready, div):
        for point, t in moves(dctxs, committed, now, strict, ready, div):
            trial = dict(committed)
            trial[point] = t
            if commit is None:
                yield node(dctxs, trial, t, False)
            else:
                yield commit(dctxs, trial, point, lambda: node(dctxs, trial, t, False))
        if div is not None:
            t, groups = div
            joined = None
            for group in groups:
                value = node(group, committed, t, True)
                if not value:
                    joined = value
                    break
                joined = value if joined is None else join(joined, value)
            yield joined

    return node(problem.dctxs, {}, Fraction(0), False)


def _first(results):
    return next(results, None)


def _first_success(results):
    return next(filter(None, results), None)


def _merge(table, other):
    return {**table, **other}


def _earliest_commit(problem):
    """Moves of greedy synthesis: the globally earliest feasible commit.

    A point's time is the earliest in its shared window that is not
    before `now`, and at a divergence later than `now`.  Commits past the
    next divergence are not feasible: the information set must split
    first.
    """
    epsilon = problem.network.epsilon

    def moves(dctxs, committed, now, strict, ready, div):
        floor = now + epsilon if strict else now
        best = None
        for point in ready:
            lb, ub = problem.window(dctxs, committed, point)
            t = max(lb, floor)
            if ub is not None and t > ub:
                if strict and lb <= now and ub > now:
                    t = now + (ub - now) / 2   # epsilon tick overshot the window
                    if t < lb:
                        continue
                else:
                    continue
            if div is not None and t > div[0]:
                continue
            if best is None or (t, point) < best:
                best = (t, point)
        return () if best is None else ((best[1], best[0]),)

    return moves


def _grid_commits(grid):
    """Moves of the exhaustive searches: every point at every grid time
    from `now` (after it, past a divergence) up to the next divergence."""

    def moves(dctxs, committed, now, strict, ready, div):
        for point in ready:
            for t in grid:
                if t < now or (strict and t == now):
                    continue
                if div is not None and t > div[0]:
                    break
                yield point, t

    return moves


def _by_point(constraints):
    index = {}
    for c in constraints:
        index.setdefault(c.source, []).append(c)
        index.setdefault(c.target, []).append(c)
    return index


def _violations(problem, index, dctxs, committed, point, full):
    """Bit mask of the constraint sets that committing `point` violates.

    `index[d.idx][i]` maps a point to drama d's constraints of set i on
    it.  Only constraints on the points the commit makes known (`point`
    and the contingent points it determines) are checked: every other
    constraint between known points was checked when its later end became
    known.  The check stops once every bit of `full` is set.
    """
    before = {p: t for p, t in committed.items() if p != point}
    mask = 0
    for d in dctxs:
        times = problem.known_times(d, committed)
        fresh = times.keys() - problem.known_times(d, before).keys()
        for i, by_point in enumerate(index[d.idx]):
            if mask & (1 << i):
                continue
            if any(c.source in times and c.target in times
                   and times[c.target] - times[c.source] > c.delta
                   for p in fresh for c in by_point.get(p, ())):
                mask |= 1 << i
        if mask == full:
            break
    return mask


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
                    _first, _merge)


def candidate_time_grid(network, situations, depth=3, cap=24):
    """Candidate execution times: sums and differences of the network's
    constants, closed to `depth`, truncated to the `cap` smallest."""
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
    for _ in range(depth - 1):
        new = set()
        for a in grid:
            for b in base:
                for v in (a + b, a - b):
                    if 0 <= v <= horizon:
                        new.add(v)
        grid |= new
        if len(grid) > 4 * cap:
            break
    return tuple(sorted(grid)[:cap])


def _exhaustive_witness(problem, grid, budget):
    """Complete search of grid-valued decision-tree strategies.

    Returns the first viable dynamic strategy table found, or None when
    the space holds none; raises `_Budget` when more than `budget` nodes
    are entered.  Commits that violate a constraint are pruned, so a leaf
    is viable (it is still re-certified by the caller).
    """
    index = [[_by_point(d.projection.constraints)] for d in problem.dctxs]

    def commit(dctxs, trial, point, descend):
        if _violations(problem, index, dctxs, trial, point, 1):
            return None
        return descend()

    # Only failures are remembered: a success ends the search unless a
    # sibling group fails, and keeping the tables of succeeded nodes raised
    # the peak heap of the search on bench/gen.py's greedy trap from 15 MB
    # to 22 MB.
    return _explore(problem, _grid_commits(grid), problem.schedules,
                    _first_success, _merge, commit, budget, operator.not_)


def tree_strategy_masks(network, constraint_sets, grid, budget=2_000_000):
    """Achievable violation masks over all grid-valued decision-tree
    strategies of `network`'s drama set.

    Bit i of a mask is set when the strategy violates some constraint of
    `constraint_sets[i]` in some drama whose scenario makes its label
    true.  The full mask set supports questions like "is every strategy
    viable for set 0 also viable for set 1".  Raises `RuntimeError` when
    more than `budget` tree nodes are entered.
    """
    scenarios = enumerate_scenarios(network.letters)
    situations = sample_situations(network.links) if network.links else [()]
    dramas = [Drama(s, w) for s in scenarios for w in situations]
    problem = _Problem(network, dramas)
    index = []
    for d in problem.dctxs:
        values = d.drama.scenario.as_mapping()
        index.append([_by_point(c for c in constraints
                                if all(values.get(l) == s for l, s in c.label.literals))
                      for constraints in constraint_sets])
    full = (1 << len(constraint_sets)) - 1

    def commit(dctxs, trial, point, descend):
        mask = _violations(problem, index, dctxs, trial, point, full)
        return frozenset(mask | m for m in descend())

    try:
        return _explore(problem, _grid_commits(grid),
                        lambda dctxs, committed: frozenset({0}),
                        lambda results: frozenset().union(*results),
                        lambda masks, other: frozenset(m | s for m in masks for s in other),
                        commit, budget, lambda masks: True)
    except _Budget:
        raise RuntimeError("budget of %d nodes exhausted" % budget) from None


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


def check_dc(network, grid=3, max_letters=6, max_links=6,
             exhaustive_points=6, exhaustive_budget=200_000):
    """Dynamic-controllability check over the sampled drama set.

    When greedy synthesis fails on a network of at most
    `exhaustive_points` points, the candidate-time grid is searched
    exhaustively, entering at most `exhaustive_budget` tree nodes.
    """
    report = validate(network)
    if not report.ok:
        raise ValueError("network does not validate:\n%s" % report)
    if len(network.letters) > max_letters:
        raise ValueError("letter cap exceeded: %d > %d" % (len(network.letters), max_letters))
    if len(network.links) > max_links:
        raise ValueError("link cap exceeded: %d > %d" % (len(network.links), max_links))

    scenarios = enumerate_scenarios(network.letters)
    situations = sample_situations(network.links, grid) if network.links else [()]
    dramas = [Drama(s, w) for s in scenarios for w in situations]
    sample = ("%d scenarios x %d sampled situations (duration grid %d per link)"
              % (len(scenarios), len(situations), grid))
    problem = _Problem(network, dramas)

    bad = problem.inconsistent_drama()
    if bad is not None:
        return DcResult("not-controllable",
                        evidence="projection for drama %s is inconsistent" % (bad.drama,),
                        sample=sample)

    table = _synthesize(problem)
    if table is None:
        if len(network.timepoints) > exhaustive_points:
            return DcResult(
                "unknown",
                evidence="exhaustive search skipped: %d points > exhaustive_points (%d)"
                         % (len(network.timepoints), exhaustive_points),
                sample=sample)
        times = candidate_time_grid(network, situations)
        try:
            table = _exhaustive_witness(problem, times, exhaustive_budget)
        except _Budget:
            return DcResult("unknown",
                            evidence="budget of %d nodes exhausted" % exhaustive_budget,
                            sample=sample)
        if table is None:
            return DcResult(
                "unknown",
                evidence="no viable decision tree over %d candidate times; "
                         "the grid may be too coarse" % len(times),
                sample=sample)

    # Both searches build dynamic, viable strategies by construction, so a
    # strategy that fails re-certification is a bug, not a verdict.
    strategy = Strategy.from_dramas("cstn" if network.kind == "stn" else network.kind, table)
    for certify in (is_viable, is_dynamic_star):
        outcome = certify(network, strategy)
        if not outcome:
            raise RuntimeError("search built a strategy that fails re-certification: %s"
                               % outcome)
    return DcResult("controllable", strategy=strategy, sample=sample)


def verify_cstn_embedding(network, **kwargs):
    """A CSTN and its link-free lifting get the same verdict."""
    from .model import embed_cstn

    if network.kind not in ("stn", "cstn"):
        raise ValueError("expected a network without contingent links")
    direct = check_dc(network, **kwargs)
    lifted = check_dc(embed_cstn(network), **kwargs)
    return direct.verdict == lifted.verdict


def verify_stnu_embedding(network, **kwargs):
    """An STNU and its empty-label lifting get the same verdict."""
    from .model import embed_stnu

    if network.kind not in ("stn", "stnu"):
        raise ValueError("expected a network without observation letters")
    direct = check_dc(network, **kwargs)
    lifted = check_dc(embed_stnu(network), **kwargs)
    return direct.verdict == lifted.verdict
