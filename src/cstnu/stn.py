"""STN consistency and solutions: all-pairs shortest paths over the
distance graph, earliest-time schedules, and solution checking.

All arithmetic is exact; infinity is the saturating `INF` sentinel.
A Floyd-Warshall closure is used: networks here are desk scale and the
matrix is reused by schedule checking and strategy synthesis.

The closure runs on integers, in one routine (`_close`).  `solve`
multiplies every delta by one `scale`, the least that makes each an
`int` (`rational._least_scale`), and closes the scaled graph.
Shortest-path weights are sums of deltas, and scaling by a positive
constant preserves sums and order, so the scaled closure is the closure
of the original graph times that constant: nothing is rounded, and a
cycle is negative in one exactly when it is negative in the other.
`DistanceMatrix.distance` divides by the constant on the way out.

A closure that differs from a known one by a single edge `v - u <= w` is
not closed again.  If `D` is the closure of a consistent graph, the graph
plus that edge has a negative cycle iff `w + D[v][u] < 0`: a cycle through
the new edge weighs at least w plus the shortest v-u path.  Otherwise a
shortest path uses the edge at most once, so the new closure is
`D'[i][j] = min(D[i][j], D[i][u] + w + D[v][j])`, an O(n^2) update
(`_insert`).  The closure of a consistent graph is unique, so this is the
matrix `solve` would return for the larger graph; `_close` stays the only
full closure, and tests hold `_insert` against `solve`.
"""

from fractions import Fraction

from .model import Constraint, Stn
from .rational import INF, _least_scale, _scaled, rational


class DistanceMatrix:
    """Shortest-path closure of an STN's distance graph.

    When `consistent`, the diagonal is zero and the triangle inequality
    holds; otherwise some negative-cost cycle exists.  The closure is held
    as integers scaled by `scale` (see `solve`), or `INF`:
    `rows[index[source]][index[target]]` bounds target - source times
    `scale`.  `distance` makes the `Fraction` of one entry.  Only `solve`
    builds one: the DC search keeps its closures as bare rows.
    """

    def __init__(self, ids, rows, scale, consistent):
        self.ids = tuple(ids)
        self.index = {t: i for i, t in enumerate(self.ids)}
        self.rows = rows
        self.scale = scale
        self.consistent = consistent

    def distance(self, source, target):
        """Tightest implied bound on target - source: a `Fraction`, `INF` if
        unconstrained, and `0` from a point to itself on a consistent STN."""
        i, j = self.index[source], self.index[target]
        d = self.rows[i][j]
        if d == INF or (i == j and d == 0):
            return d
        return Fraction(d, self.scale)


def solve(stn):
    """Shortest-path closure of `stn`; `consistent` is False on a negative cycle.

    The deltas are multiplied by the least scale that makes each an
    integer and closed over `int` by `_close`, which is exact (see the
    module docstring) and several times faster than closing over
    `Fraction`.  The rows are indexed by the sorted point ids.
    """
    ids = sorted(stn.timepoints)
    index = {t: i for i, t in enumerate(ids)}
    scale = _least_scale(c.delta for c in stn.constraints)
    rows, consistent = _close(len(ids), [
        (index[c.source], index[c.target], _scaled(c.delta, scale)) for c in stn.constraints])
    return DistanceMatrix(ids, rows, scale, consistent)


def _close(n, edges):
    """(rows, consistent): the Floyd-Warshall closure of the graph on row
    positions 0..n-1 whose edges are the (i, j, weight) triples `edges`,
    each bounding point j - point i by the `int` weight, and whether it
    has no negative cycle.  This is the one closure routine: `solve`
    scales an `Stn` onto it, and the DC search (`search._Problem`) feeds it
    each scenario's edges, already in ticks, with no `Stn` in between.  A
    position no edge touches stays an isolated row and column, `INF` off
    the diagonal, so the loops visit only the positions the edges name.
    """
    dist = [[INF] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    touched = set()
    for i, j, weight in edges:
        touched.update((i, j))
        if weight < dist[i][j]:
            dist[i][j] = weight
    touched = sorted(touched)
    for k in touched:
        dk = dist[k]
        for i in touched:
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in touched:
                if dk[j] == INF:
                    continue
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist, all(dist[i][i] >= 0 for i in range(n))


def _insert(rows, source, target, weight):
    """`rows`, the closure of a consistent graph, with the edge
    target - source <= weight added (see the module docstring): new rows,
    or None when the edge closes a negative cycle.  `source` and `target`
    are row positions and `weight` an `int` on the rows' scale.  Rows the
    edge cannot change are shared with `rows`, not copied."""
    back = rows[target][source]
    if back != INF and weight + back < 0:
        return None
    if weight >= rows[source][target]:
        return rows                             # already implied
    via = [(j, weight + entry) for j, entry in enumerate(rows[target]) if entry != INF]
    out = list(rows)
    for i, row in enumerate(rows):
        lead = row[source]
        if lead == INF:
            continue
        new = None
        for j, tail in via:
            alt = lead + tail
            if alt < row[j]:
                if new is None:
                    new = out[i] = row[:]
                new[j] = alt
    return out


def floored(stn, origin):
    """`stn` with `origin` added, if new, and every point at or after it."""
    return Stn(stn.timepoints | {origin}, stn.constraints | {
        Constraint(point, origin, 0) for point in stn.timepoints})


def earliest_solution(stn, origin):
    """Earliest schedule relative to `origin` (origin itself at 0).

    Every point is floored at the origin, then X goes to -D[X][origin],
    the least value compatible with every constraint.  Raises on
    inconsistent networks.
    """
    if origin not in stn.timepoints:
        raise ValueError("unknown origin %r" % (origin,))
    matrix = solve(floored(stn, origin))
    if not matrix.consistent:
        if solve(stn).consistent:
            raise ValueError("some point is forced before origin %r" % (origin,))
        raise ValueError("network is inconsistent; no solution exists")
    return {point: -matrix.distance(point, origin) for point in matrix.ids}


def check_solution(stn, schedule):
    """Constraints violated by `schedule` (empty list means it is a solution).

    Times and deltas are compared as integers, each multiplied by the
    least scale that makes all of them integers: scaling both sides of
    `target - source > delta` by one positive constant keeps its truth.
    """
    for point in stn.timepoints:
        if point not in schedule:
            raise ValueError("schedule misses time-point %r" % (point,))
    times = {point: rational(t) for point, t in schedule.items()}
    scale = _least_scale([*times.values(), *(c.delta for c in stn.constraints)])
    at = {point: _scaled(t, scale) for point, t in times.items()}
    violated = [c for c in stn.constraints
                if at[c.target] - at[c.source] > _scaled(c.delta, scale)]
    return sorted(violated, key=str)
