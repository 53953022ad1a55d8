"""STN consistency and solutions: all-pairs shortest paths over the
distance graph, earliest-time schedules, and solution checking.

All arithmetic is exact; infinity is the saturating `INF` sentinel.
A Floyd-Warshall closure is used: networks here are desk scale and the
matrix is reused by schedule checking and strategy synthesis.
"""

from .rational import INF


class DistanceMatrix:
    """Shortest-path closure of an STN's distance graph.

    When `consistent`, the diagonal is zero and the triangle inequality
    holds; otherwise some negative-cost cycle exists.
    """

    def __init__(self, ids, dist, consistent):
        self.ids = tuple(ids)
        self._index = {t: i for i, t in enumerate(self.ids)}
        self._dist = dist
        self.consistent = consistent

    def distance(self, source, target):
        """Tightest implied bound on target - source (INF if unconstrained)."""
        return self._dist[self._index[source]][self._index[target]]


def solve(stn):
    """Shortest-path closure of `stn`; `consistent` is False on a negative cycle."""
    ids = sorted(stn.timepoints)
    index = {t: i for i, t in enumerate(ids)}
    n = len(ids)
    dist = [[INF] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for c in stn.constraints:
        i, j = index[c.source], index[c.target]
        if c.delta < dist[i][j]:
            dist[i][j] = c.delta
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                if dk[j] == INF:
                    continue
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    consistent = all(dist[i][i] >= 0 for i in range(n))
    return DistanceMatrix(ids, dist, consistent)


def earliest_solution(stn, origin):
    """Earliest schedule relative to `origin` (origin itself at 0).

    Every point is floored at the origin, then X goes to -D[X][origin],
    the least value compatible with every constraint.  Raises on
    inconsistent networks.
    """
    from .model import Constraint, Stn

    if origin not in stn.timepoints:
        raise ValueError("unknown origin %r" % (origin,))
    floored = Stn(stn.timepoints, stn.constraints | {
        Constraint(point, origin, 0) for point in stn.timepoints})
    matrix = solve(floored)
    if not matrix.consistent:
        if solve(stn).consistent:
            raise ValueError("some point is forced before origin %r" % (origin,))
        raise ValueError("network is inconsistent; no solution exists")
    return {point: -matrix.distance(point, origin) for point in matrix.ids}


def check_solution(stn, schedule):
    """Constraints violated by `schedule` (empty list means it is a solution)."""
    for point in stn.timepoints:
        if point not in schedule:
            raise ValueError("schedule misses time-point %r" % (point,))
    violated = []
    for c in sorted(stn.constraints, key=str):
        if schedule[c.target] - schedule[c.source] > c.delta:
            violated.append(c)
    return violated
