"""Labeled constraint propagation: composition, observation-aware label
modification, dominance pruning, and a saturating fixpoint loop.

Propagation is a one-sided test.  Deriving a negative self-loop under the
empty label refutes the network; saturation without one says nothing
definitive about controllability.
"""

from dataclasses import dataclass

from .labels import EMPTY, INCONSISTENT, Label, conjoin, sub
from .model import LabeledConstraint


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


def propagate_to_fixpoint(network, budget=5000):
    """Saturate the network's labeled constraints under composition and
    label modification.

    Dominated derivations are discarded on admission.  Labels of derived
    constraints are conjoined with the labels of the observation points of
    their letters, so saturation preserves well-definedness; a derivation
    whose repaired label is contradictory is dropped.  `budget` caps the
    number of admitted derivations; exceeding it returns with
    `saturated=False` (negative labeled cycles never saturate).
    """
    constraints = set(network.constraints)
    trace = {c: ("given", ()) for c in constraints}
    obs_letter = {point: letter for letter, point in network.observations.items()}
    admitted = [0]
    refutation = [None]
    dead_labels = set()     # labels whose scenarios admit no schedule at all

    def repair(c):
        label = c.label
        for q in sorted(label.letters):
            joint = conjoin(label, network.label_of(network.observation_point(q)))
            if joint is INCONSISTENT:
                return None
            label = joint
        if label == c.label:
            return c
        return LabeledConstraint(c.source, c.target, c.delta, label)

    def admit(c, rule, parents):
        if c.source == c.target and c.delta >= 0:
            return False    # vacuously true self-loop
        c = repair(c)
        if c is None or c in constraints:
            return False
        # Negative self-loops stay: label modification may widen one to a refutation.
        if c.source != c.target and any(sub(c.label, dead) for dead in dead_labels):
            return False    # only applies in scenarios already known dead
        if any(dominates(old, c) for old in constraints):
            return False
        if admitted[0] >= budget:
            raise _Exhausted()
        constraints.add(c)
        trace[c] = (rule, tuple(parents))
        admitted[0] += 1
        if c.source == c.target and c.delta < 0:
            if c.label == EMPTY:
                refutation[0] = c
                raise _Refuted()
            dead_labels.add(c.label)
        return True

    def compose_pass():
        changed = False
        by_source = {}
        for c in constraints:
            by_source.setdefault(c.source, []).append(c)
        for first in sorted(constraints, key=str):
            if first.source == first.target and first.delta < 0:
                continue   # negative self-loops record a dead scenario; do not spin on them
            for second in sorted(by_source.get(first.target, ()), key=str):
                if second.source == second.target and second.delta < 0:
                    continue
                derived = compose(first, second)
                if derived is not None and admit(derived, "compose", (first, second)):
                    changed = True
        return changed

    def modification_pass():
        changed = False
        for obs_c in sorted(constraints, key=str):
            letter = obs_letter.get(obs_c.source)
            if letter is None or obs_c.delta > 0:
                continue
            for target_c in sorted(constraints, key=str):
                if (target_c.source != obs_c.target
                        or _modification_failures(letter, obs_c.source,
                                                  obs_c, target_c)):
                    continue
                result = _modify(letter, obs_c, target_c)
                for c in (result.derived,) + result.residuals:
                    if admit(c, "label-modification", (obs_c, target_c)):
                        changed = True
        return changed

    rounds = 0
    saturated = True
    try:
        while True:
            rounds += 1
            changed = compose_pass()
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
