"""Labeled constraint propagation: `propagate_to_fixpoint` saturates a
network's labeled constraints under two rules, with a derivation trace.
Compose chains (X - W <= d1, l1) and (Y - X <= d2, l2) into
(Y - W <= d1 + d2, l1 l2).  Label modification turns (Y - X <= v, beta l)
into (Y - X <= v, alpha beta) when (X - P <= -w, alpha), v <= w, puts X
before the observation point P of letter l: Y is bound before l is known.
A derived label takes its letters' observation labels and is dropped on
a clash, and a value is dropped when a live value of its edge has a bound
no larger and a subset of its literals.  The rules' reference forms
(`compose`, `dominates`, `label_modification`) live beside their tests in
`tests/reference.py`.

Propagation is a one-sided test.  A negative self-loop under the empty
label, given or derived, refutes the network; saturation without one
says nothing definitive about controllability.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .labels import Label
from .model import LabeledConstraint, depth_first
from .rational import _least_scale, _scaled

# Admitted derivations before `propagate_to_fixpoint` gives up, also the
# `cstnu propagate --budget` default.  Generated 34-point workflows need
# more than 5000 to reach their refutation.
DEFAULT_BUDGET = 50_000


@dataclass
class PropagationResult:
    trace: dict
    refutation: LabeledConstraint = None
    saturated: bool = True
    rounds: int = 0
    live: frozenset = frozenset()

    @property
    def constraints(self):
        return frozenset(self.trace)

    @property
    def refuted(self):
        return self.refutation is not None

    def explain(self, constraint):
        """Derivation of `constraint`: each constraint it rests on once,
        after the ones it was derived from, and `constraint` last."""
        order, _ = depth_first((constraint,), lambda c: self.trace[c][1])
        return ["%s  [%s]" % (c, self.trace[c][0]) for c in order]


def propagate_to_fixpoint(network, budget=DEFAULT_BUDGET):
    """Saturate the network's labeled constraints under composition and
    label modification.

    Labels of derived constraints are conjoined with the labels of the
    observation points of their letters (a contradiction drops the
    derivation), so saturation preserves well-definedness.  `budget`, a
    non-negative `int`, caps the admitted derivations; exceeding it
    returns `saturated=False`.

    Candidates are judged as integers, deltas times `scale`, the least
    that makes every given delta an integer: every derived delta is a sum
    of given ones, so nothing is rounded; and their labels as literal sets.
    Only an admitted candidate becomes a `LabeledConstraint`, with delta
    `Fraction(d, scale)` and one `Label` per distinct literal set.

    One store holds each edge's live values, keyed by literal set, as
    records [`str` key, admission number, constraint, scaled delta,
    literal set, live flag].  `place` is the one way into it, for givens
    and derived values alike: the new value removes (and clears the flag
    of) the live values it dominates, and a negative self-loop refutes
    the network under the empty label and makes its label dead under any
    other.  `trace` keeps every admitted value, so `explain()` works on a
    removed one; `live` is the final store.  Givens are numbered in `str`
    order, so no order depends on string hashing.

    A round calls each rule of the table (compose, then label
    modification) with `fresh`, the length of `trace` when the previous
    round started, and the loop ends after a round that leaves `trace` no
    longer.  Each rule picks its pairs from the values live at its start,
    sorted, skips a value removed before its use, and calls `admit` once
    per pair.  A removed value is never needed: its dominator composes at
    least as tightly (a bound no larger, a subset label, a monotone
    `repair`), and meets label modification's preconditions or dominates
    its results.  So refutation and saturation are those of keeping every
    value, from fewer derivations; `rounds` may differ (3 of the 2000
    networks of `bench/gen.py`'s `small_nets(1..2)`).

    The compose rule is semi-naive: it skips every pair whose members
    were both admitted before the previous round started.  This is exact.
    Removal is permanent, so two such values live now were live when that
    round's compose reached them, and it, or by induction an earlier one,
    composed them.  A candidate rejected then is rejected again (a live
    value dominates what dominated it; dead labels only grow), and one
    admitted then is dominated by a live value now.  So every round
    admits what composing every live pair would, in the same order, with
    the same `rounds`, refutation and budget cut-off.

    `repair` adds to a literal set the literals of its letters'
    observation labels and gives None when a letter then has both signs;
    it is memoized for the whole call.  `admit` is the one gate: it
    rejects a label that `repair` rejected, a vacuous self-loop, a dead
    label (not checked for a negative self-loop) and a dominated value,
    in that order, and only then charges the budget, records the value in
    `trace` and places it.  Compose offers the repaired union of its
    pair's literal sets, from a memo keyed by the two sets.  Label
    modification pairs a value (X - P <= -w, obs) that leaves the
    observation point P of letter l with a value (Y - X <= v, target),
    v <= w, where l is positive in target and obs lacks l, and offers
    repair((obs | target) - {l}): the derived value of the rule's
    reference form (`label_modification` in `tests/reference.py`).  Its
    residuals are never offered, as none could be admitted: each
    holds target's literals at target's bound, and target is live when
    paired, since the modified value removes it only if obs is a subset
    of target, which leaves no residual.  A sign clash between obs and
    target makes `repair` reject the modified value.  Whether a repaired
    literal set contains a dead label is memoized as well, and that memo
    is cleared whenever a dead label is recorded.  This is exact: dead
    labels are only ever added, so a verdict reached since the last one
    was added still holds.
    """
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise ValueError("budget must be a non-negative int, not %r" % (budget,))
    given = sorted(network.constraints, key=str)
    scale = _least_scale(c.delta for c in given)
    trace = {c: ("given", ()) for c in given}
    live = {}               # source -> target -> {literal set: record}
    obs_letter = {point: letter for letter, point in network.observations.items()}
    dead_labels = set()     # literal sets of labels whose scenarios admit no schedule
    dead_verdicts = {}      # literal set -> whether a dead label is a subset of it
    observed = {q: frozenset(network.label_of(point).literals)
                for q, point in network.observations.items()}
    repaired = {}           # literal set -> repaired literal set, or None
    labels = {}             # admitted literal set -> its label
    joints = {}             # literal set -> literal set -> repaired conjunction or None
    is_live = itemgetter(5)

    def dominated(source, target, d, literals):
        for _, _, _, old, old_literals, _ in live.get(source, {}).get(target, {}).values():
            if old <= d and old_literals <= literals:
                return True
        return False

    def place(c, d, literals, number):
        edge = live.setdefault(c.source, {}).setdefault(c.target, {})
        for old in [k for k, r in edge.items() if d <= r[3] and literals <= k]:
            edge.pop(old)[5] = False
        edge[literals] = [str(c), number, c, d, literals, True]
        if c.source == c.target and d < 0:
            if not literals:
                raise _Refuted(c)
            dead_labels.add(literals)
            dead_verdicts.clear()

    def records(sources):
        return sorted(r for s in sources for edge in live.get(s, {}).values()
                      for r in edge.values())

    def repair(literals):
        """`literals` with the literals of its letters' observation labels;
        None when a letter takes both signs."""
        if literals not in repaired:
            joint = literals.union(*(observed[q] for q, _ in literals))
            repaired[literals] = joint if len({q for q, _ in joint}) == len(joint) else None
        return repaired[literals]

    def admit(source, target, d, literals, rule, first, second):
        """The one gate: reject a label that `repair` rejected (None), a
        vacuous self-loop, a dead label or a dominated value; else admit."""
        if literals is None or (source == target and d >= 0):
            return
        # Negative self-loops stay: label modification may widen one to a refutation.
        if source != target:
            dead = dead_verdicts.get(literals)
            if dead is None:
                dead = dead_verdicts[literals] = any(dead_label <= literals
                                                     for dead_label in dead_labels)
            if dead:
                return          # only applies in scenarios already known dead
        if dominated(source, target, d, literals):
            return
        if len(trace) - len(given) >= budget:
            raise _Exhausted()
        if literals not in labels:
            labels[literals] = Label(literals)
        c = LabeledConstraint(source, target, Fraction(d, scale), labels[literals])
        trace[c] = (rule, (first, second))
        place(c, d, literals, len(trace) - 1)

    def compose_rule(fresh):
        """Compose the live pairs with a member admitted as number `fresh` or later."""
        # Negative self-loops record a dead scenario; do not spin on them.
        firsts = [r for r in records(live) if r[2].source != r[2].target or r[3] >= 0]
        every, new = {}, {}     # source -> its (new) records, sorted
        for r in firsts:
            every.setdefault(r[2].source, []).append(r)
            if r[1] >= fresh:
                new.setdefault(r[2].source, []).append(r)
        for _, number, first, d1, literals, _ in filter(is_live, firsts):
            source = first.source
            seconds = (every if number >= fresh else new).get(first.target, ())
            row = joints.setdefault(literals, {})
            for _, _, second, d2, second_literals, _ in filter(is_live, seconds):
                try:
                    joint = row[second_literals]
                except KeyError:
                    joint = row[second_literals] = repair(literals | second_literals)
                admit(source, second.target, d1 + d2, joint, "compose", first, second)

    def modification_rule(fresh):
        """Label modification over every live pair (`fresh` is unused)."""
        for obs in records(obs_letter):
            _, _, obs_c, obs_d, obs_literals, _ = obs
            letter = obs_letter[obs_c.source]
            tested = (letter, True)
            if obs_d > 0 or tested in obs_literals or (letter, False) in obs_literals:
                continue
            for _, _, target_c, d, literals, _ in filter(is_live, records((obs_c.target,))):
                if d > -obs_d or not is_live(obs) or tested not in literals:
                    continue
                admit(target_c.source, target_c.target, d,
                      repair((obs_literals | literals) - {tested}),
                      "label-modification", obs_c, target_c)

    rounds, start, saturated, refutation = 0, 0, True, None
    try:
        for number, c in enumerate(given):
            d, literals = _scaled(c.delta, scale), frozenset(c.label.literals)
            if not dominated(c.source, c.target, d, literals):
                place(c, d, literals, number)
        # `fresh` is the length of `trace` when the previous round started;
        # the first round that admits nothing is the last.
        while not rounds or len(trace) > start:
            rounds, fresh, start = rounds + 1, start, len(trace)
            for rule in (compose_rule, modification_rule):
                rule(fresh)
    except _Refuted as refuted:
        refutation, saturated = refuted.args[0], False
    except _Exhausted:
        saturated = False
    return PropagationResult(trace, refutation, saturated, rounds,
                             frozenset(r[2] for r in records(live)))


class _Refuted(Exception):
    pass


class _Exhausted(Exception):
    pass
