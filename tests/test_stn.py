"""Distance-graph engine tests against a brute-force path oracle."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from cstnu import Constraint, Stn, check_solution, earliest_solution, solve
from cstnu.rational import _least_scale, _scaled
from cstnu.stn import _close, _insert
from helpers import random_consistent_stn, random_stn

INF = float("inf")


def brute_distance(stn, source, target):
    """Shortest simple-path weight in the distance graph (small STNs only)."""
    if source == target:
        best = Fraction(0)
    else:
        best = INF
    edges = {}
    for c in stn.constraints:
        key = (c.source, c.target)
        edges[key] = min(edges.get(key, INF), c.delta)
    others = sorted(stn.timepoints - {source, target})
    for k in range(len(others) + 1):
        for middle in permutations(others, k):
            path = (source,) + middle + (target,)
            weight = Fraction(0)
            for a, b in zip(path, path[1:]):
                w = edges.get((a, b))
                if w is None:
                    break
                weight += w
            else:
                best = min(best, weight)
    return best


def brute_consistent(stn):
    """A negative simple cycle exists iff some point can reach itself
    below zero through distinct intermediates."""
    edges = {}
    for c in stn.constraints:
        key = (c.source, c.target)
        edges[key] = min(edges.get(key, INF), c.delta)
    ids = sorted(stn.timepoints)
    for start in ids:
        others = [t for t in ids if t != start]
        for k in range(len(others) + 1):
            for middle in permutations(others, k):
                path = (start,) + middle + (start,)
                weight = Fraction(0)
                for a, b in zip(path, path[1:]):
                    w = edges.get((a, b))
                    if w is None:
                        break
                    weight += w
                else:
                    if weight < 0:
                        return False
    return True


def test_solve_matches_path_oracle():
    # integral deltas, then deltas mixing thirds, sevenths and halves
    for fractions in (None, (Fraction(1, 3), Fraction(1, 7), Fraction(5, 2))):
        rng = random.Random(2)
        verdicts = set()
        for _ in range(30):
            stn = random_stn(rng, max_points=4, fractions=fractions)
            matrix = solve(stn)
            assert matrix.consistent == brute_consistent(stn)
            verdicts.add(matrix.consistent)
            if not matrix.consistent:
                continue
            for a in stn.timepoints:
                for b in stn.timepoints:
                    assert matrix.distance(a, b) == brute_distance(stn, a, b), (a, b)
        assert verdicts == {True, False}


def test_distances_keep_their_types():
    third = solve(Stn(frozenset("ABC"), frozenset({
        Constraint("A", "B", Fraction(1, 3)), Constraint("B", "C", Fraction(5, 2))})))
    assert repr(third.distance("A", "B")) == repr(Fraction(1, 3))
    assert repr(third.distance("A", "C")) == repr(Fraction(17, 6))
    assert third.distance("C", "A") == INF
    assert repr(third.distance("A", "A")) == "0"
    # integral deltas still come back as Fractions, not as ints
    whole = solve(Stn(frozenset("AB"), frozenset({Constraint("A", "B", Fraction(2))})))
    assert repr(whole.distance("A", "B")) == repr(Fraction(2))
    # the scaled entries are the ints the distances are made from
    assert third.scale == 6 and whole.scale == 1
    assert repr(third.rows[third.index["A"]][third.index["C"]]) == "17"
    assert third.rows[third.index["C"]][third.index["A"]] == INF
    assert repr(whole.rows[whole.index["A"]][whole.index["B"]]) == "2"
    # a value off the scale is refused, not rounded
    assert _scaled(Fraction(5, 2), 6) == 15
    with pytest.raises(ValueError, match=r"^5/2 is not a multiple of 1/3$"):
        _scaled(Fraction(5, 2), 3)


def test_insert_matches_solve():
    # One edge into the closure of a consistent random STN, against solve
    # on the STN plus that edge: loose, implied, tight and cycle-closing
    # edges, on whole and on mixed-denominator deltas.
    rng = random.Random(5)
    seen = {"consistent": 0, "inconsistent": 0, "implied": 0}
    for i in range(300):
        fractions = (Fraction(1, 3), Fraction(1, 7), Fraction(5, 2)) if i % 2 else None
        stn = random_stn(rng, max_points=6, fractions=fractions)
        matrix = solve(stn)
        if not matrix.consistent:
            continue
        source, target = rng.choice(matrix.ids), rng.choice(matrix.ids)
        back = matrix.distance(target, source)
        weight = Fraction(rng.randint(-10, 10)) + rng.choice((0, Fraction(1, 4)))
        if back != INF and rng.random() < 0.5:
            weight = -back - rng.choice((0, 0, Fraction(1, 4)))   # a zero or negative cycle
        scale = _least_scale([weight, *(c.delta for c in stn.constraints)])
        rows, _ = _close(len(matrix.ids), [
            (matrix.index[c.source], matrix.index[c.target], _scaled(c.delta, scale))
            for c in stn.constraints])
        s, t = matrix.index[source], matrix.index[target]
        got = _insert(rows, s, t, _scaled(weight, scale))
        want = solve(Stn(stn.timepoints, stn.constraints | {Constraint(source, target, weight)}))
        assert (got is not None) == want.consistent
        if got is None:
            seen["inconsistent"] += 1
            continue
        seen["consistent"] += 1
        seen["implied"] += got is rows
        for a in matrix.ids:
            for b in matrix.ids:
                entry = got[matrix.index[a]][matrix.index[b]]
                assert (INF if entry == INF else Fraction(entry, scale)) == want.distance(a, b)
        # a row that cannot reach the edge's source is shared, not copied
        for i, row in enumerate(rows):
            if row[s] == INF:
                assert got[i] is row
    assert min(seen.values()) > 10, seen


def test_triangle_inequality():
    rng = random.Random(9)
    for _ in range(20):
        stn, _ = random_consistent_stn(rng, max_points=6)
        matrix = solve(stn)
        assert matrix.consistent
        ids = sorted(stn.timepoints)
        for a in ids:
            assert matrix.distance(a, a) == 0
            for b in ids:
                for c in ids:
                    ab, bc = matrix.distance(a, b), matrix.distance(b, c)
                    if ab != INF and bc != INF:
                        assert matrix.distance(a, c) <= ab + bc


def test_inconsistent_cycle_detected():
    stn = Stn(frozenset("AB"), frozenset({Constraint("A", "B", 1),
                                          Constraint("B", "A", -2)}))
    assert not solve(stn).consistent


def test_earliest_solution_example():
    # B in [2, 5] after A; C at least 3 after B
    stn = Stn(frozenset("ABC"), frozenset({
        Constraint("A", "B", Fraction(5)), Constraint("B", "A", Fraction(-2)),
        Constraint("C", "B", Fraction(-3))}))
    schedule = earliest_solution(stn, "A")
    assert schedule == {"A": 0, "B": 2, "C": 5}


def test_earliest_solution_is_valid_and_minimal():
    rng = random.Random(4)
    for _ in range(20):
        stn, hidden = random_consistent_stn(rng, max_points=6)
        # an origin no other point must precede is guaranteed to work
        origin = min(sorted(stn.timepoints), key=hidden.get)
        schedule = earliest_solution(stn, origin)
        assert schedule[origin] == 0
        assert not check_solution(stn, schedule)
        assert all(t >= 0 for t in schedule.values())
        # earliest: lowering any single point breaks a constraint or the
        # origin floor
        for point in stn.timepoints:
            if schedule[point] == 0:
                continue
            lowered = dict(schedule)
            lowered[point] -= Fraction(1, 7)
            floors = Stn(stn.timepoints, stn.constraints | {
                Constraint(p, origin, 0) for p in stn.timepoints})
            assert check_solution(floors, lowered), point


def test_earliest_solution_errors():
    stn = Stn(frozenset("AB"), frozenset({Constraint("A", "B", 1),
                                          Constraint("B", "A", -2)}))
    with pytest.raises(ValueError):
        earliest_solution(stn, "A")
    with pytest.raises(ValueError):
        earliest_solution(Stn(frozenset("A"), frozenset()), "Z")


def test_check_solution_reports_violations():
    stn = Stn(frozenset("AB"), frozenset({Constraint("A", "B", 1)}))
    assert check_solution(stn, {"A": 0, "B": 1}) == []
    violated = check_solution(stn, {"A": 0, "B": 2})
    assert violated == [Constraint("A", "B", 1)]
    with pytest.raises(ValueError):
        check_solution(stn, {"A": 0})
