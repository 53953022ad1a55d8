"""STN consistency and solutions: all-pairs shortest paths over the
distance graph, earliest-time schedules, and solution checking.

All arithmetic is exact; infinity is the saturating `INF` sentinel.
A Floyd-Warshall closure is used: networks here are desk scale and the
matrix is reused by schedule checking and strategy synthesis.

The closure runs on integers.  `solve` multiplies every delta by the
least common denominator of the STN's deltas, so each becomes an `int`,
and closes the scaled graph.  Shortest-path weights are sums of deltas,
and scaling by a positive constant preserves sums and order, so the
scaled closure is the closure of the original graph times that constant:
nothing is rounded, and a cycle is negative in one exactly when it is
negative in the other.  `DistanceMatrix.distance` divides by the constant
on the way out; `DistanceMatrix.scaled` reads the integer as it is.
"""

from fractions import Fraction
from math import lcm

from .model import Constraint, Stn
from .rational import INF, rational


class DistanceMatrix:
    """Shortest-path closure of an STN's distance graph.

    When `consistent`, the diagonal is zero and the triangle inequality
    holds; otherwise some negative-cost cycle exists.  The closure is held
    as integers scaled by `scale`, the least common denominator of the
    STN's deltas (or `INF`), and is never copied.  `distance` makes the
    `Fraction` of one entry; `scaled` reads the entry as it is, for
    callers that compare entries of many matrices: they bring them to one
    common multiple of the matrices' `scale`s and make `Fraction`s only
    of the bounds they keep.
    """

    def __init__(self, ids, dist, scale, consistent):
        self.ids = tuple(ids)
        self._index = {t: i for i, t in enumerate(self.ids)}
        self._dist = dist
        self.scale = scale
        self.consistent = consistent

    def scaled(self, source, target):
        """The tightest implied bound on target - source times `scale`: an
        `int`, or `INF` if unconstrained."""
        return self._dist[self._index[source]][self._index[target]]

    def distance(self, source, target):
        """Tightest implied bound on target - source: a `Fraction`, `INF` if
        unconstrained, and `0` from a point to itself on a consistent STN."""
        i, j = self._index[source], self._index[target]
        d = self._dist[i][j]
        if d == INF or (i == j and d == 0):
            return d
        return Fraction(d, self.scale)


def solve(stn):
    """Shortest-path closure of `stn`; `consistent` is False on a negative cycle.

    The deltas are scaled by their least common denominator and closed
    over `int`, which is exact (see the module docstring) and several
    times faster than closing over `Fraction`.
    """
    ids = sorted(stn.timepoints)
    index = {t: i for i, t in enumerate(ids)}
    n = len(ids)
    scale = lcm(*{c.delta.denominator for c in stn.constraints})
    dist = [[INF] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for c in stn.constraints:
        i, j = index[c.source], index[c.target]
        delta = c.delta.numerator * (scale // c.delta.denominator)
        if delta < dist[i][j]:
            dist[i][j] = delta
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
    return DistanceMatrix(ids, dist, scale, consistent)


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
    least common denominator of all of them: scaling both sides of
    `target - source > delta` by one positive constant keeps its truth.
    """
    for point in stn.timepoints:
        if point not in schedule:
            raise ValueError("schedule misses time-point %r" % (point,))
    times = {point: rational(t) for point, t in schedule.items()}
    scale = lcm(*{t.denominator for t in times.values()},
                *{c.delta.denominator for c in stn.constraints})
    at = {point: t.numerator * (scale // t.denominator) for point, t in times.items()}
    violated = [c for c in stn.constraints
                if at[c.target] - at[c.source] > c.delta.numerator * (scale // c.delta.denominator)]
    return sorted(violated, key=str)
