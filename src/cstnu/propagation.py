"""Labeled constraint propagation: composition, observation-aware label
modification, dominance pruning, and a saturating fixpoint loop.

Propagation is a one-sided test.  Deriving a negative self-loop under the
empty label refutes the network; saturation without one says nothing
definitive about controllability.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .labels import INCONSISTENT, Label, conjoin, sub
from .model import LabeledConstraint
from .rational import _least_scale, _scaled

# Admitted derivations before `propagate_to_fixpoint` gives up, also the
# `cstnu propagate --budget` default.  Generated 34-point workflows need
# more than 5000 to reach their refutation.
DEFAULT_BUDGET = 50_000


def compose(first, second):
    """Chain two labeled constraints through their shared middle point.

    (X - W <= d1, l1) and (Y - X <= d2, l2) give (Y - W <= d1 + d2,
    l1 and l2); None when the labels clash (no scenario triggers both).
    """
    if first.target != second.source:
        raise ValueError("constraints do not chain: %s then %s" % (first, second))
    joint = conjoin(first.label, second.label)
    if joint is INCONSISTENT:
        return None
    return LabeledConstraint(first.source, second.target,
                             first.delta + second.delta, joint)


def dominates(tighter, looser):
    """True when `tighter` makes `looser` redundant: same end-points, a
    bound at least as small, and a label that applies at least as widely."""
    return (tighter.source == looser.source
            and tighter.target == looser.target
            and tighter.delta <= looser.delta
            and sub(looser.label, tighter.label))


class PreconditionError(ValueError):
    """Label modification was applied to a non-matching constraint pair."""

    def __init__(self, failures):
        self.failures = tuple(failures)
        super().__init__("label modification preconditions failed:\n"
                         + "\n".join("- " + f for f in failures))


@dataclass(frozen=True)
class Modification:
    """Output of one label-modification step.

    `derived` drops the observed letter from the target constraint's
    label; `residuals` cover, one negated alpha-literal each, the
    scenarios where the observation-side label fails.
    """

    derived: LabeledConstraint
    residuals: tuple
    alpha: Label
    beta: Label
    gamma: Label


def label_modification(letter, obs_point, obs_constraint, target_constraint):
    """Rewrite a constraint whose label tests `letter` but whose end-point
    must execute before `letter` is observed.

    The observation-side constraint (X - P <= -w, alpha beta) places X at
    least w before the observation point P of `letter`; the target
    constraint (Y - X <= v, beta gamma letter) then binds Y before the
    outcome is known, so its dependence on `letter` is spurious.  The
    result keeps the bound with label alpha beta gamma, plus one residual
    per alpha-literal covering the complementary scenarios.
    """
    obs_label = obs_constraint.label
    target_label = target_constraint.label
    failures = []
    if obs_constraint.source != obs_point:
        failures.append("observation-side constraint does not start at the "
                        "observation point of %r" % (letter,))
    if target_constraint.source != obs_constraint.target:
        failures.append("target constraint does not start at the observation-side "
                        "constraint's end-point")
    w = -obs_constraint.delta
    if w < 0:
        failures.append("observation-side bound must be non-positive (point precedes "
                        "the observation)")
    if target_label.sign(letter) is not True:
        failures.append("target label must contain %r positively" % (letter,))
    if letter in obs_label.letters:
        failures.append("observation-side label must not mention %r" % (letter,))
    if target_constraint.delta > w:
        failures.append("target bound %s exceeds the observation lead %s"
                        % (target_constraint.delta, w))
    for shared in sorted(obs_label.letters & target_label.letters):
        if obs_label.sign(shared) != target_label.sign(shared):
            failures.append("labels disagree on the sign of %r" % (shared,))
    if failures:
        raise PreconditionError(failures)

    target_label = target_label.without({letter})
    shared = obs_label.letters & target_label.letters
    beta = Label((l, s) for l, s in obs_label.literals if l in shared)
    alpha = obs_label.without(shared)
    gamma = target_label.without(shared)

    def bound(label):
        return LabeledConstraint(target_constraint.source, target_constraint.target,
                                 target_constraint.delta, label)

    derived = bound(conjoin(alpha, conjoin(beta, gamma)))
    residuals = tuple(bound(conjoin(Label([(name, not positive), (letter, True)]),
                                    conjoin(beta, gamma)))
                      for name, positive in alpha.literals)
    return Modification(derived, residuals, alpha, beta, gamma)


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
        """Derivation chain of `constraint`, innermost first."""
        rule, parents = self.trace[constraint]
        lines = []
        for parent in parents:
            lines.extend(self.explain(parent))
        lines.append("%s  [%s]" % (constraint, rule))
        return lines


def propagate_to_fixpoint(network, budget=DEFAULT_BUDGET):
    """Saturate the network's labeled constraints under composition and
    label modification.

    Labels of derived constraints are conjoined with the labels of the
    observation points of their letters (a contradiction drops the
    derivation), so saturation preserves well-definedness.  `budget` caps
    the admitted derivations; exceeding it returns `saturated=False`
    (negative labeled cycles never saturate).

    Candidates are judged as integers, deltas times `scale`, the least
    that makes every given delta an integer: every derived delta is a sum
    of given ones, so nothing is rounded; and their labels as literal sets.
    Only an admitted candidate becomes a `LabeledConstraint`, with delta
    `Fraction(d, scale)` and one `Label` per distinct literal set.

    One store holds each edge's live values, keyed by literal set, as
    records [`str` key, admission number, constraint, scaled delta,
    literal set, live flag].  A candidate that a live value on its edge
    dominates is rejected; a given or admitted value removes (and clears
    the flag of) the live values it dominates.  `trace` keeps every
    admitted value, so `explain()` works on a removed one; `live` is the
    final store.  Givens are numbered in `str` order, so no order depends
    on string hashing.  A round runs a compose pass over the values live
    at its start, sorted, then a label-modification pass; both skip a
    value removed before its use.  A removed value is never needed: its
    dominator composes at least as tightly (a bound no larger, a subset
    label, a monotone `repair`), and meets label modification's
    preconditions or dominates its results.  So refutation and saturation
    are those of keeping every value, from fewer derivations; `rounds`
    may differ (3 of the 2000 networks of `bench/gen.py`'s
    `small_nets(1..2)`).

    The compose pass is semi-naive: it skips every pair whose members
    were both admitted before the previous compose pass started.  This is
    exact.  Removal is permanent, so two such values live now were live
    when that pass reached them, and it, or by induction an earlier one,
    composed them.  A candidate rejected then is rejected again (a live
    value dominates what dominated it; dead labels only grow), and one
    admitted then is dominated by a live value now.  So every round
    admits what composing every live pair would, in the same order, with
    the same `rounds`, refutation and budget cut-off.

    `repair` adds to a literal set the literals of its letters'
    observation labels and gives None when a letter then has both signs;
    it is memoized for the whole call.  The compose pass repairs the union
    of its pair's literal sets, looked up in a memo keyed by the two sets,
    and drops vacuous self-loops and rejected labels before `admit`.
    Label modification pairs a value (X - P <= -w, obs) that leaves the
    observation point P of letter l with a value (Y - X <= v, target),
    v <= w.  It skips the pair unless l is positive in target, obs lacks
    l, and no letter has opposite signs in the two sets; it then repairs
    (obs | target) - {l} and, for each literal of obs whose letter target
    lacks, in sorted order, the residual target | {its complement}:
    `label_modification`'s result in set form.  Whether a repaired literal
    set contains a dead label is memoized as well, and that memo is
    cleared whenever a dead label is recorded.  This is exact: dead labels
    are only ever added, so a verdict reached since the last one was added
    still holds.  A negative self-loop skips the dead check.
    """
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

    def records(sources):
        return sorted(r for s in sources for edge in live.get(s, {}).values()
                      for r in edge.values())

    for number, c in enumerate(given):
        d = _scaled(c.delta, scale)
        literals = frozenset(c.label.literals)
        if not dominated(c.source, c.target, d, literals):
            place(c, d, literals, number)

    def repair(literals):
        """`literals` with the literals of its letters' observation labels;
        None when a letter takes both signs."""
        if literals not in repaired:
            joint = literals.union(*(observed[q] for q, _ in literals))
            repaired[literals] = joint if len({q for q, _ in joint}) == len(joint) else None
        return repaired[literals]

    def admit(source, target, d, literals, rule, parents):
        """Admit a candidate that is not a vacuous self-loop, with its
        literal set repaired, unless it is dead or dominated."""
        # Negative self-loops stay: label modification may widen one to a refutation.
        if source != target:
            dead = dead_verdicts.get(literals)
            if dead is None:
                dead = dead_verdicts[literals] = any(dead_label <= literals
                                                     for dead_label in dead_labels)
            if dead:
                return False    # only applies in scenarios already known dead
        if dominated(source, target, d, literals):
            return False
        if len(trace) - len(given) >= budget:
            raise _Exhausted()
        if literals not in labels:
            labels[literals] = Label(literals)
        c = LabeledConstraint(source, target, Fraction(d, scale), labels[literals])
        place(c, d, literals, len(trace))
        trace[c] = (rule, tuple(parents))
        if source == target:
            if not literals:
                raise _Refuted(c)
            dead_labels.add(literals)
            dead_verdicts.clear()
        return True

    def compose_pass(fresh):
        """Compose the live pairs with a member admitted as number `fresh` or later."""
        changed = False
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
                target, d = second.target, d1 + d2
                if source == target and d >= 0:
                    continue    # vacuously true self-loop
                try:
                    joint = row[second_literals]
                except KeyError:
                    joint = row[second_literals] = repair(literals | second_literals)
                if joint is not None and admit(source, target, d, joint,
                                               "compose", (first, second)):
                    changed = True
        return changed

    def modification_pass():
        changed = False
        for obs in records(obs_letter):
            _, _, obs_c, obs_d, obs_literals, _ = obs
            tested = (obs_letter[obs_c.source], True)
            clashes = frozenset((q, not p) for q, p in obs_literals)
            if obs_d > 0 or tested in obs_literals or tested in clashes:
                continue
            for _, _, target_c, d, literals, _ in filter(is_live, records((obs_c.target,))):
                # A vacuous target self-loop would only derive vacuous ones.
                if (d > -obs_d or not is_live(obs) or tested not in literals
                        or (target_c.source == target_c.target and d >= 0)
                        or not clashes.isdisjoint(literals)):
                    continue
                candidates = [(obs_literals | literals) - {tested}]
                candidates += [literals | {(q, not p)} for q, p in sorted(obs_literals - literals)]
                for joint in map(repair, candidates):
                    if joint is not None and admit(target_c.source, target_c.target, d, joint,
                                                   "label-modification", (obs_c, target_c)):
                        changed = True
        return changed

    rounds, fresh, saturated, refutation = 0, 0, True, None
    try:
        while True:
            rounds += 1
            fresh, changed = len(trace), compose_pass(fresh)
            changed = modification_pass() or changed
            if not changed:
                break
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
