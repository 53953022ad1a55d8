"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` (or a seed) and returns input
*text*: JSON for the small networks, workflow DSL for the workflows.
Nothing here imports `cstnu` or the test helpers, so a refactor of the
library or of its tests cannot change what the benchmark feeds it.

JSON networks follow the `cstnu.jsonio` layout: rationals are strings,
labels use the text syntax ("[]" for the empty label, "p!q" for p and
not q), and a constraint {"from": X, "to": Y, "delta": d} means
Y - X <= d.
"""

import json
import random
from fractions import Fraction

EPSILON = Fraction(1, 1000)

# --- labels --------------------------------------------------------------


def label_text(label):
    """Render a {letter: bool} label in the text syntax."""
    if not label:
        return "[]"
    return "".join(l if v else "!" + l for l, v in sorted(label.items()))


def conjoin(a, b):
    """Conjunction of two {letter: bool} labels, or None on a clash."""
    out = dict(a)
    for letter, value in b.items():
        if out.get(letter, value) != value:
            return None
        out[letter] = value
    return out


def _random_label(rng, letters):
    return {l: rng.random() < 0.5 for l in letters if rng.random() < 0.5}


# --- small networks --------------------------------------------------------


class _Draft:
    """Accumulates one network in the JSON layout."""

    def __init__(self):
        self.points = {}            # id -> {letter: bool}
        self.letters = {}           # letter -> observation point
        self.constraints = set()    # (from, to, label text, delta)
        self.links = []

    def point(self, pid, label=None):
        self.points[pid] = dict(label or {})

    def constrain(self, source, target, delta, label=None):
        self.constraints.add((source, target, label_text(label or {}), Fraction(delta)))

    def observe_before_use(self):
        """WD2: each labeled point runs at least epsilon after the
        observation of every letter in its label."""
        for pid, label in sorted(self.points.items()):
            for letter in sorted(label):
                self.constrain(pid, self.letters[letter], -EPSILON, label)

    def link(self, activation, lower, upper, contingent):
        label = self.points[activation]
        self.links.append((activation, Fraction(lower), Fraction(upper), contingent))
        self.constrain(activation, contingent, upper, label)
        self.constrain(contingent, activation, -Fraction(lower), label)

    def as_dict(self):
        return {
            "letters": sorted(self.letters),
            "epsilon": str(EPSILON),
            "timepoints": [{"id": p, "label": label_text(l)}
                           for p, l in sorted(self.points.items())],
            "observations": dict(sorted(self.letters.items())),
            "constraints": [{"from": a, "to": b, "delta": str(d), "label": l}
                            for a, b, l, d in sorted(self.constraints)],
            "links": [{"activation": a, "lower": str(lo), "upper": str(hi),
                       "contingent": c} for a, lo, hi, c in self.links],
        }


def _random_edges(rng, b, count, consistent, solution=None):
    """`count` random constraints between distinct points whose labels
    agree; the constraint label conjoins both end-point labels and, half
    the time, one more literal, so constraints can depend on letters
    their end-points do not mention."""
    ids = sorted(b.points)
    for _ in range(count):
        x, y = rng.sample(ids, 2)
        label = conjoin(b.points[x], b.points[y])
        if label is None:
            continue
        if b.letters and rng.random() < 0.5:
            extra = rng.choice(sorted(b.letters))
            label = conjoin(label, {extra: rng.random() < 0.5})
            if label is None:
                continue
        if consistent:
            delta = solution[y] - solution[x] + rng.randint(0, 6)
        else:
            delta = rng.randint(-8, 14)
        b.constrain(x, y, delta, label)


def stn(rng, consistent):
    """Plain STN of 3-7 points; consistent ones are built around a hidden
    solution, the others have random bounds and are often inconsistent."""
    b = _Draft()
    n = rng.randint(3, 7)
    for i in range(n):
        b.point("N%d" % i)
    solution = {p: rng.randint(0, 20) for p in b.points}
    _random_edges(rng, b, rng.randint(n, 2 * n), consistent, solution)
    return b.as_dict()


def stnu(rng, consistent):
    """STNU of 7-8 points: one or two contingent links and free points."""
    b = _Draft()
    k = rng.randint(1, 2)
    for i in range(k):
        b.point("A%d" % i)
        b.point("C%d" % i)
    for j in range(7 - 2 * k + rng.randint(0, 1)):
        b.point("X%d" % j)
    for i in range(k):
        lower = rng.randint(1, 5)
        b.link("A%d" % i, lower, lower + rng.randint(1, 5), "C%d" % i)
    free = sorted(p for p in b.points if not p.startswith("C"))
    for _ in range(rng.randint(2, 6)):
        x, y = rng.sample(sorted(b.points), 2)
        if consistent:
            # Only loose upper bounds from free points: waiting is always
            # allowed, so every drama stays consistent.
            x = rng.choice(free)
            if x == y:
                continue
            delta = 25 + rng.randint(0, 10)
        else:
            delta = rng.randint(-10, 15)
        b.constrain(x, y, delta)
    return b.as_dict()


def _observers(rng, b):
    letters = sorted(rng.sample("pq", rng.randint(1, 2)))
    for letter in letters:
        b.point("O" + letter)
        b.letters[letter] = "O" + letter
    return letters


def cstn(rng, consistent):
    """CSTN of 7-8 points: one or two observed letters (observation points
    are unlabeled) and labeled free points; well-defined by construction.
    Consistent ones are built around a hidden static solution."""
    b = _Draft()
    letters = _observers(rng, b)
    for i in range(7 - len(letters) + rng.randint(0, 1)):
        b.point("X%d" % i, _random_label(rng, letters))
    solution = {p: rng.randint(0, 20) for p in sorted(b.points)}
    if consistent:
        for pid, label in sorted(b.points.items()):
            for letter in label:
                obs = b.letters[letter]
                if solution[pid] <= solution[obs]:
                    solution[pid] = solution[obs] + 1
    b.observe_before_use()
    _random_edges(rng, b, rng.randint(3, 2 * len(b.points)), consistent, solution)
    return b.as_dict()


def cstnu(rng, consistent):
    """CSTNU of 7-8 points: a CSTN plus one contingent link whose
    end-points share a label."""
    b = _Draft()
    letters = _observers(rng, b)
    link_label = _random_label(rng, letters)
    b.point("A", link_label)
    b.point("C", link_label)
    for i in range(5 - len(letters) + rng.randint(0, 1)):
        b.point("X%d" % i, _random_label(rng, letters))
    lower = rng.randint(1, 5)
    b.link("A", lower, lower + rng.randint(1, 5), "C")
    b.observe_before_use()
    if consistent:
        # Loose upper bounds only, with room for any duration and
        # observation lag.
        ids = sorted(p for p in b.points if p != "C")
        for _ in range(rng.randint(2, 5)):
            x, y = rng.sample(ids, 2)
            label = conjoin(b.points[x], b.points[y])
            if label is not None:
                b.constrain(x, y, 30 + rng.randint(0, 10), label)
    else:
        solution = {p: rng.randint(0, 20) for p in sorted(b.points)}
        _random_edges(rng, b, rng.randint(2, len(b.points)), False, solution)
    return b.as_dict()


def late_observation(rng, consistent=None):
    """A 3-point CSTN that greedy synthesis cannot solve, so check_dc
    falls through to the exhaustive search and answers "unknown".

    X must run by `a` after Z when p is false and no earlier than `late`
    > `a` when p is true, but p is observed no earlier than `c` >= `late`:
    X has to commit before its scenario is known.  Each scenario alone is
    consistent, so no projection refutes the network either.
    """
    b = _Draft()
    b.letters["p"] = "Op"
    for pid in ("Op", "X", "Z"):
        b.point(pid)
    a = rng.randint(1, 8)
    late = a + rng.randint(1, 8)
    c = late + rng.randint(0, 8)
    b.constrain("Z", "X", a, {"p": False})
    b.constrain("X", "Z", -late, {"p": True})
    b.constrain("Op", "Z", -c)
    b.constrain("Z", "Op", c + rng.randint(1, 10))
    return b.as_dict()


def greedy_trap():
    """A 5-point CSTN with a static strategy that greedy synthesis misses.

    X2=0, X3=3.001, Or=8, X1=8.001, X0=12 is viable and dynamic in both
    scenarios, but the per-drama window for Or ignores that Or, shared
    until it is observed, must wait until 8; greedy synthesis commits
    X3=0 and Or's window empties, and the exhaustive grid holds neither
    3.001 nor 8.001.
    """
    b = _Draft()
    b.letters["r"] = "Or"
    b.point("Or")
    b.point("X0", {"r": True})
    b.point("X1", {"r": False})
    b.point("X2")
    b.point("X3")
    b.constrain("X0", "Or", -EPSILON, {"r": True})
    b.constrain("X1", "Or", -EPSILON, {"r": False})
    b.constrain("Or", "X0", 4, {"r": True})
    b.constrain("X3", "X1", 5, {"r": False})
    b.constrain("X0", "X2", -12, {"r": True})
    b.constrain("X1", "X3", 3, {"r": False})
    b.constrain("X2", "X3", 18)
    return b.as_dict()


# Corpus make-up: (kind, generator, consistent-by-construction, count).
# Counts are fixed so every seed has the same mix; only the networks
# themselves change with the seed.  Apart from late_observation and the
# greedy trap, networks have at least 7 points, so a greedy failure ends
# at once in "unknown" rather than in an exhaustive search whose cost
# would swing with the seed.  The 3-point late_observation networks all
# take about the same exhaustive search; with the trap they are the
# slowest 2% of the corpus, so latency_s.p99 measures that search.
SMALL_NETS_MIX = (
    ("stn", stn, True, 122),
    ("stn", stn, False, 122),
    ("stnu", stnu, True, 122),
    ("stnu", stnu, False, 122),
    ("cstn", cstn, True, 122),
    ("cstn", cstn, False, 122),
    ("cstnu", cstnu, True, 122),
    ("cstnu", cstnu, False, 125),
    ("cstn", late_observation, None, 20),
)


def small_nets(seed):
    """The small_nets_dc corpus as JSON texts: the greedy trap, then the
    seeded networks in a seeded random order.  Every kind is so spread
    over the whole round, and no kind's latencies come from one short
    stretch of the run.  The trap's exhaustive search needs the most
    memory; run first, it starts from the same heap in every run, which
    keeps peak_rss_mb steady."""
    rng = random.Random("small_nets/%d" % seed)
    corpus = []
    for _, make, consistent, count in SMALL_NETS_MIX:
        for _ in range(count):
            corpus.append(json.dumps(make(rng, consistent), sort_keys=True))
    rng.shuffle(corpus)
    return [json.dumps(greedy_trap(), sort_keys=True)] + corpus


# --- workflows -------------------------------------------------------------


def workflow(rng, shape, loose):
    """Workflow text for `shape` = (head, blocks): a chain of `head` tasks,
    then per block (plus, minus, after) a two-way conditional split whose
    branches are chains of `plus` and `minus` tasks, a join, and `after`
    more tasks.  A deadline runs from the first task's start to the
    last node's end.  The seed sets every duration, delay and the
    deadline's slack; `shape` alone fixes the size.

    A loose deadline admits the longest scenario path when every
    connector and flow takes its lower bound, so the strategy "start each
    node at its predecessor's end plus the flow's lower bound" is dynamic
    and viable: the network is controllable by construction.  A tight
    deadline is below the shortest path of every scenario.
    """
    head, blocks = shape
    lines, counter = [], [0]

    def span(lo_min, lo_max, width):
        lo = rng.randint(lo_min, lo_max)
        return lo, lo + rng.randint(1, width)

    def flow(src, dst):
        lo, hi = span(0, 3, 6)
        lines.append("flow %s -> %s [%d,%d]" % (src, dst, lo, hi))
        return lo

    def chain(node, length):
        """`length` tasks after `node` (None at the start); returns (first
        task, last node, shortest and longest added path)."""
        first, shortest, longest = None, 0, 0
        for _ in range(length):
            counter[0] += 1
            name = "T%d" % counter[0]
            lo, hi = span(1, 10, 20)
            lines.append("task %s [%d,%d]" % (name, lo, hi))
            if node is not None:
                gap = flow(node, name)
                shortest, longest = shortest + gap, longest + gap
            first = first or name
            node = name
            shortest, longest = shortest + lo, longest + hi
        return first, node, shortest, longest

    first, last, shortest, longest = chain(None, head)
    for i, (plus, minus, after) in enumerate(blocks, start=1):
        split, join = "S%d" % i, "J%d" % i
        s_lo, s_hi = span(0, 2, 2)
        j_lo, j_hi = span(0, 2, 2)
        lines.append("split %s [%d,%d]" % (split, s_lo, s_hi))
        lines.append("join %s [%d,%d]" % (join, j_lo, j_hi))
        gap = flow(last, split)
        arm_lo, arm_hi = [], []
        for sign, length in (("+", plus), ("-", minus)):
            arm, tail, lo, hi = chain(split, length)
            lines.append("branch %s %s %s" % (split, arm, sign))
            gap_out = flow(tail, join)
            arm_lo.append(lo + gap_out)
            arm_hi.append(hi + gap_out)
        shortest += gap + s_lo + min(arm_lo) + j_lo
        longest += gap + s_lo + max(arm_hi) + j_lo
        _, last, lo, hi = chain(join, after)
        shortest, longest = shortest + lo, longest + hi
    if loose:
        deadline = longest + rng.randint(0, 20)
    else:
        deadline = max(1, shortest - rng.randint(1, 10))
    lines.append("constrain %s.S -> %s.E [0,%d]" % (first, last, deadline))
    return "\n".join(lines) + "\n"
