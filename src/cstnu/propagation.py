"""Labeled constraint propagation: composition, observation-aware label
modification, dominance pruning, and a saturating fixpoint loop.

Propagation is a one-sided test.  Deriving a negative self-loop under the
empty label refutes the network; saturation without one says nothing
definitive about controllability.
"""

from dataclasses import dataclass

from .labels import EMPTY, INCONSISTENT, Label, conjoin, sub
from .model import LabeledConstraint

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


def _modification_failures(letter, obs_point, obs_constraint, target_constraint):
    out = []
    if obs_constraint.source != obs_point:
        out.append("observation-side constraint does not start at the "
                   "observation point of %r" % (letter,))
    if target_constraint.source != obs_constraint.target:
        out.append("target constraint does not start at the observation-side "
                   "constraint's end-point")
    w = -obs_constraint.delta
    if w < 0:
        out.append("observation-side bound must be non-positive (point precedes "
                   "the observation)")
    if target_constraint.label.sign(letter) is not True:
        out.append("target label must contain %r positively" % (letter,))
    if letter in obs_constraint.label.letters:
        out.append("observation-side label must not mention %r" % (letter,))
    if target_constraint.delta > w:
        out.append("target bound %s exceeds the observation lead %s"
                   % (target_constraint.delta, w))
    for shared in sorted(obs_constraint.label.letters
                         & target_constraint.label.letters):
        if obs_constraint.label.sign(shared) != target_constraint.label.sign(shared):
            out.append("labels disagree on the sign of %r" % (shared,))
    return out


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
    failures = _modification_failures(letter, obs_point, obs_constraint,
                                      target_constraint)
    if failures:
        raise PreconditionError(failures)
    return _modify(letter, obs_constraint, target_constraint)


def _modify(letter, obs_constraint, target_constraint):
    """`label_modification` on a pair known to meet its preconditions."""
    target_label = target_constraint.label.without({letter})
    shared = obs_constraint.label.letters & target_label.letters
    beta = Label((l, s) for l, s in obs_constraint.label.literals if l in shared)
    alpha = obs_constraint.label.without(shared)
    gamma = target_label.without(shared)

    derived = LabeledConstraint(target_constraint.source, target_constraint.target,
                                target_constraint.delta,
                                conjoin(alpha, conjoin(beta, gamma)))
    residuals = []
    for name, positive in alpha.literals:
        residual_label = conjoin(Label([(name, not positive), (letter, True)]),
                                 conjoin(beta, gamma))
        residuals.append(LabeledConstraint(
            target_constraint.source, target_constraint.target,
            target_constraint.delta, residual_label))
    return Modification(derived, tuple(residuals), alpha, beta, gamma)


@dataclass
class PropagationResult:
    constraints: frozenset
    refuted: bool
    refutation: LabeledConstraint = None
    saturated: bool = True
    rounds: int = 0
    trace: dict = None

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

    Dominated derivations are discarded on admission.  Labels of derived
    constraints are conjoined with the labels of the observation points of
    their letters, so saturation preserves well-definedness; a derivation
    whose repaired label is contradictory is dropped.  `budget` caps the
    number of admitted derivations; exceeding it returns with
    `saturated=False` (negative labeled cycles never saturate).

    Admitted constraints are kept in buckets per edge `(source, target)`
    and per source.  Dominance only relates constraints on one edge, so a
    candidate is tested against its own edge's bucket (an equal constraint
    already admitted dominates it).  Each round runs a compose pass over
    the constraints present when the pass starts, in `str` order (each
    key computed once, on admission), then a label-modification pass.

    The compose pass is semi-naive: it skips every pair whose two members
    were both present when the previous compose pass started, since that
    pass composed them already.  This is exact.  The admitted constraints
    and the dead labels only grow, a repaired label depends on the label
    alone, and a rejected candidate leaves no trace, so a derivation
    rejected once is rejected again and one admitted is still present.
    The skipped pairs would admit nothing, and the rest are composed in
    the same order as before, so every round admits the same constraints
    in the same order, with the same `rounds`, `trace`, refutation and
    budget cut-off as composing every pair.  Repaired labels are memoized
    per call and label conjunctions per compose pass.
    """
    constraints = set(network.constraints)
    trace = {c: ("given", ()) for c in constraints}
    key = {}                # constraint -> str sort key
    ordinal = {}            # constraint -> admission number
    on_edge = {}            # (source, target) -> admitted constraints
    from_source = {}        # source -> admitted constraints

    def index(c):
        key[c] = str(c)
        ordinal[c] = len(ordinal)
        on_edge.setdefault((c.source, c.target), []).append(c)
        from_source.setdefault(c.source, []).append(c)

    for c in constraints:
        index(c)
    obs_letter = {point: letter for letter, point in network.observations.items()}
    admitted = [0]
    refutation = [None]
    dead_labels = set()     # labels whose scenarios admit no schedule at all
    repaired = {}           # literals -> label with its observation points' labels, or None

    def repair(label):
        joint = label
        for q in sorted(label.letters):
            joint = conjoin(joint, network.label_of(network.observation_point(q)))
            if joint is INCONSISTENT:
                return None
        return joint

    def admit(c, rule, parents):
        if c.source == c.target and c.delta >= 0:
            return False    # vacuously true self-loop
        literals = c.label.literals
        if literals not in repaired:
            repaired[literals] = repair(c.label)
        label = repaired[literals]
        if label is None:
            return False
        if label != c.label:
            c = LabeledConstraint(c.source, c.target, c.delta, label)
        # Negative self-loops stay: label modification may widen one to a refutation.
        if c.source != c.target and any(sub(c.label, dead) for dead in dead_labels):
            return False    # only applies in scenarios already known dead
        if any(dominates(old, c) for old in on_edge.get((c.source, c.target), ())):
            return False
        if admitted[0] >= budget:
            raise _Exhausted()
        constraints.add(c)
        trace[c] = (rule, tuple(parents))
        index(c)
        admitted[0] += 1
        if c.source == c.target and c.delta < 0:
            if c.label == EMPTY:
                refutation[0] = c
                raise _Refuted()
            dead_labels.add(c.label)
        return True

    def compose_pass(fresh):
        """Compose the pairs with a member admitted as number `fresh` or later."""
        changed = False
        # Negative self-loops record a dead scenario; do not spin on them.
        firsts = [c for c in sorted(constraints, key=key.__getitem__)
                  if c.source != c.target or c.delta >= 0]
        every, new = {}, {}     # source -> its (new) constraints, sorted
        joints = {}             # literals of two labels -> their conjunction
        for c in firsts:
            every.setdefault(c.source, []).append(c)
            if ordinal[c] >= fresh:
                new.setdefault(c.source, []).append(c)
        for first in firsts:
            seconds = every if ordinal[first] >= fresh else new
            literals = first.label.literals
            for second in seconds.get(first.target, ()):
                pair = (literals, second.label.literals)
                if pair not in joints:
                    joints[pair] = conjoin(first.label, second.label)
                joint = joints[pair]
                if joint is INCONSISTENT:
                    continue
                derived = LabeledConstraint(first.source, second.target,
                                            first.delta + second.delta, joint)
                if admit(derived, "compose", (first, second)):
                    changed = True
        return changed

    def modification_pass():
        changed = False
        for obs_c in sorted(constraints, key=key.__getitem__):
            letter = obs_letter.get(obs_c.source)
            if letter is None or obs_c.delta > 0:
                continue
            for target_c in sorted(from_source.get(obs_c.target, ()),
                                   key=key.__getitem__):
                if _modification_failures(letter, obs_c.source, obs_c, target_c):
                    continue
                result = _modify(letter, obs_c, target_c)
                for c in (result.derived,) + result.residuals:
                    if admit(c, "label-modification", (obs_c, target_c)):
                        changed = True
        return changed

    rounds = 0
    saturated = True
    fresh = 0
    try:
        while True:
            rounds += 1
            start = len(ordinal)
            changed = compose_pass(fresh)
            fresh = start
            changed = modification_pass() or changed
            if not changed:
                break
    except _Refuted:
        return PropagationResult(frozenset(constraints), True, refutation[0],
                                 saturated=False, rounds=rounds, trace=trace)
    except _Exhausted:
        saturated = False
    return PropagationResult(frozenset(constraints), False,
                             saturated=saturated, rounds=rounds, trace=trace)


class _Refuted(Exception):
    pass


class _Exhausted(Exception):
    pass
