"""The paper's reference forms: definitions and rules that the checker
never runs, kept beside the tests that check the paper's claims with
them.  Nothing in `src/` imports this module.

* Embeddings keep verdicts: CSTPs, CSTNs and STNUs embed in CSTNUs
  (`cstnu.embed_stn`, which `cstnu project` uses, stays in the library).
* Label modification keeps strategy sets: `compose`, `dominates` and
  `label_modification` are the rules of `cstnu.propagate_to_fixpoint`,
  and `tree_strategy_masks` tells which strategies violate which sets.
* Dynamic equals dynamic* on CSTNs: `is_dynamic_cstn` against
  `cstnu.is_dynamic_star`.
* The validators as the conditions read: `naive_validate_cstn`,
  `naive_validate_stnu`, `naive_validate_cstnu` and `naive_validate`
  scan the constraints once per labeled point and letter, and sort them
  all by `str`; `cstnu.validate` and its three validators must return
  the same `Report`.
* The JSON readers as they read before each document had one reader:
  `naive_rational` sends every string through `Fraction`, and
  `naive_network_from_dict` and `naive_strategy_from_dict` parse every
  rational and label where it occurs; `cstnu.rational.rational` and the
  `cstnu.jsonio` readers must return equal values.
* A derivation tree as it unfolds: `naive_explain` repeats a shared
  derivation once per use; `PropagationResult.explain` lists it once.
"""

from collections import namedtuple
from fractions import Fraction

from cstnu import (DEFAULT_EPSILON, INCONSISTENT, Constraint, ContingentLink, Drama, Label,
                   LabeledConstraint, Network, Report, Scenario, Strategy, TimePoint,
                   Violation, check_dc, con, conjoin, enumerate_scenarios, evaluate,
                   history_label, parse_label, sample_situations, sc_hst, search,
                   strip_labels, sub, validate, validate_cstn, validate_stnu)
from cstnu.jsonio import _field, _items, _object, _observations, _point
from cstnu.model import depth_first
from cstnu.rational import rational
from cstnu.semantics import DynamicityResult

# A CSTP: (id, Label) pairs, letters, observation map, and interval edges
# lower <= target - source <= upper.
Cstp = namedtuple("Cstp", "timepoints letters observations edges")
CstpEdge = namedtuple("CstpEdge", "source target lower upper")


class CstpError(ValueError):
    """A reasonability assumption (A1 or A2) fails for a CSTP."""


def embed_cstp(cstp):
    """Compile a CSTP into a CSTN per the interval-edge construction.

    Each edge a <= Y - X <= b becomes the labeled pair with label
    L(X) and L(Y) conjoined.  A1 (consistent end-point labels) and A2
    (observation executed early enough, at least DEFAULT_EPSILON before)
    are errors, reported with the offending element.
    """
    labels = dict(cstp.timepoints)
    constraints = []
    for edge in cstp.edges:
        joint = conjoin(labels[edge.source], labels[edge.target])
        if joint is INCONSISTENT:
            raise CstpError(
                "A1 violation: edge %s -> %s relates points with inconsistent "
                "labels" % (edge.source, edge.target))
        constraints.append(LabeledConstraint(edge.source, edge.target,
                                             rational(edge.upper), joint))
        constraints.append(LabeledConstraint(edge.target, edge.source,
                                             -rational(edge.lower), joint))
    for point, label in labels.items():
        for letter in sorted(label.letters):
            obs = cstp.observations[letter]
            if not sub(label, labels[obs]):
                raise CstpError(
                    "A2 violation: label of %r does not subsume the label of "
                    "the observation point of %r" % (point, letter))
            if not any(e.source == obs and e.target == point
                       and rational(e.lower) >= DEFAULT_EPSILON for e in cstp.edges):
                raise CstpError(
                    "A2 violation: no edge placing the observation of %r at "
                    "least %s before %r" % (letter, DEFAULT_EPSILON, point))
            constraints.append(LabeledConstraint(point, obs, -DEFAULT_EPSILON, label))
    return Network([TimePoint(i, l) for i, l in sorted(labels.items())], constraints,
                   cstp.letters, cstp.observations)


def embed_stnu(network):
    """Lift an STNU to a CSTNU (constraints get the empty label)."""
    if network.kind not in ("stn", "stnu"):
        raise ValueError("embed_stnu expects an STNU, got %s" % network.kind)
    report = validate_stnu(network)
    if not report.ok:
        raise ValueError("invalid STNU:\n%s" % report)
    return Network(timepoints=sorted(network.timepoints), constraints=network.constraints,
                   links=network.links, epsilon=network.epsilon)


def embed_cstn(network):
    """View a CSTN as a CSTNU with an empty link set."""
    if network.links:
        raise ValueError("embed_cstn expects a network without contingent links")
    report = validate_cstn(network)
    if not report.ok:
        raise ValueError("invalid CSTN:\n%s" % report)
    return Network(timepoints=network.timepoints.values(), constraints=network.constraints,
                   letters=network.letters, observations=network.observations,
                   epsilon=network.epsilon)


def verify_cstn_embedding(network):
    """A CSTN and its link-free lifting get the same verdict."""
    if network.kind not in ("stn", "cstn"):
        raise ValueError("expected a network without contingent links")
    return check_dc(network).verdict == check_dc(embed_cstn(network)).verdict


def verify_stnu_embedding(network):
    """An STNU and its empty-label lifting get the same verdict."""
    if network.kind not in ("stn", "stnu"):
        raise ValueError("expected a network without observation letters")
    return check_dc(network).verdict == check_dc(embed_stnu(network)).verdict


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
    return LabeledConstraint(first.source, second.target, first.delta + second.delta, joint)


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


# One label-modification step: `derived` drops the observed letter from
# the target constraint's label; `residuals` cover, one negated
# alpha-literal each, the scenarios where the observation-side label fails.
Modification = namedtuple("Modification", "derived residuals alpha beta gamma")


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


# Tree nodes that `tree_strategy_masks` may enter.
MASKS_BUDGET = 2_000_000


def known_times(node, i):
    """The times of class `node.dctxs[i]` on the path to the search node
    `node`: the committed times, all relevant to the class, and each
    contingent time its link events name."""
    times = dict(node.committed)
    for when, (kind, item) in node.events[i]:
        if kind == "link":
            times[item[1]] = when
    return times


def tree_strategy_masks(network, constraint_sets, grid):
    """Achievable violation masks over all grid-valued decision-tree
    strategies of `network`'s drama set.

    Bit i of a mask is set when the strategy violates some constraint of
    `constraint_sets[i]` in some drama whose scenario makes its label
    true.  Raises `ValueError` when the network does not validate or a
    label names a letter the network lacks, and `RuntimeError` when more
    than MASKS_BUDGET tree nodes are entered.

    A third policy on the DC search's explorer: the witness search's
    moves (`search._window_commits`) over a copy of `network` without its
    constraints, so every window is [0, inf).  A leaf's mask is read off
    its classes' known times, and a tree's is the union of its leaves'.
    """
    report = validate(network)
    if not report.ok:
        raise ValueError("network does not validate:\n%s" % report)
    free = Network(network.timepoints.values(), letters=network.letters,
                   observations=network.observations, links=network.links,
                   epsilon=network.epsilon)
    scenarios = enumerate_scenarios(network.letters)
    dramas = [Drama(s, w) for s in scenarios for w in sample_situations(network.links)]
    problem = search._Problem(free, dramas, (*grid, *(c.delta for constraints in constraint_sets
                                                       for c in constraints)))
    # Scenario -> per set, the (source, target, delta in ticks) whose labels hold
    checks = {s: [[(c.source, c.target, problem.ticks(c.delta))
                   for c in constraints if evaluate(c.label, s.as_mapping())]
                  for constraints in constraint_sets]
              for s in scenarios}

    def leaf(node):
        mask = 0
        for i, d in enumerate(node.dctxs):
            times = known_times(node, i)
            for k, constraints in enumerate(checks[d.drama.scenario]):
                if any(source in times and target in times
                       and times[target] - times[source] > delta
                       for source, target, delta in constraints):
                    mask |= 1 << k
        return frozenset({mask})

    def join(node, t, branches):
        masks = frozenset({0})
        for _, other in branches:
            masks = frozenset(m | s for m in masks for s in other)
        return masks

    try:
        return search._explore(problem, search._window_commits(problem, grid), leaf,
                               (frozenset(), lambda masks, other: (masks | other, False)), join,
                               MASKS_BUDGET, lambda masks: True)
    except search._Budget:
        raise RuntimeError("budget of %d nodes exhausted" % MASKS_BUDGET) from None


def is_dynamic_cstn(network, strategy):
    """Direct check of the dynamic property for CSTN strategies:
    Con(s1, scHst(X, s2, sigma)) forces equal execution times for X."""
    if strategy.kind != "cstn":
        raise ValueError("is_dynamic_cstn expects a CSTN strategy")
    scenarios = strategy.indices()
    for s1 in scenarios:
        label1 = s1.as_label()
        sched1 = strategy.table[s1]
        for s2 in scenarios:
            sched2 = strategy.table[s2]
            for point in sorted(frozenset(sched1) & frozenset(sched2)):
                history = sc_hst(network, s2, strategy, point)
                if con(label1, history_label(history)) and sched1[point] != sched2[point]:
                    return DynamicityResult(False, (s1, s2, point))
    return DynamicityResult(True)


def tight_contingent_stnu():
    """An uncontrollable STNU: a [1,3] contingent duration squeezed by a
    hard upper bound of 2 on the same pair."""
    return Network(["A", "C"], [LabeledConstraint("A", "C", 3), LabeledConstraint("C", "A", -1),
                                LabeledConstraint("A", "C", 2)],
                   links=[ContingentLink("A", 1, 3, "C")])


def modification_pair():
    """A textbook label-modification instance.

    X sits at least 10 before the observation of p; the target constraint
    bounds Y - X by 5 under label bcp.  Returns (letter, observation
    point, observation-side constraint, target constraint).
    """
    obs_c = LabeledConstraint("P", "X", Fraction(-10), Label([("a", True), ("b", True)]))
    target_c = LabeledConstraint("X", "Y", Fraction(5),
                                 Label([("b", True), ("c", True), ("p", True)]))
    return "p", "P", obs_c, target_c


def modification_study():
    """Small instance for comparing strategy sets before and after label
    modification rewrites the p-dependent constraint.

    Returns (network, constraint_sets, grid): the bare topology, three
    constraint sets (original, rewritten, derived-only), and the
    candidate commit times for exhaustive search.  The observation-lead
    edge (X at least 10 before P) is shared by the first two sets.
    """
    network = Network(timepoints=["Oa", "P", "X", "Y"], letters=["a", "p"],
                      observations={"a": "Oa", "p": "P"})
    lead = LabeledConstraint("P", "X", Fraction(-10), Label([("a", True)]))
    original = LabeledConstraint("X", "Y", Fraction(5), Label([("p", True)]))
    derived = LabeledConstraint("X", "Y", Fraction(5), Label([("a", True)]))
    residual = LabeledConstraint("X", "Y", Fraction(5), Label([("a", False), ("p", True)]))
    sets = (frozenset({lead, original}), frozenset({lead, derived, residual}),
            frozenset({derived}))
    return network, sets, (Fraction(0), Fraction(5), Fraction(10), Fraction(15))


def naive_validate_cstn(network):
    """Check the CSTN well-definedness conditions WD1, WD2, WD3."""
    out = []
    for c in sorted(network.constraints, key=str):
        lx = network.label_of(c.source)
        ly = network.label_of(c.target)
        if not (sub(c.label, lx) and sub(c.label, ly)):
            out.append(Violation(
                "WD1", "label of %s does not subsume both end-point labels" % (c,)))
        for letter in sorted(c.label.letters):
            if not sub(c.label, network.label_of(network.observation_point(letter))):
                out.append(Violation(
                    "WD3", "label of %s does not subsume the label of the "
                    "observation point of %r" % (c, letter)))
    for tp in network.timepoints.values():
        for letter in sorted(tp.label.letters):
            obs = network.observation_point(letter)
            if not sub(tp.label, network.label_of(obs)):
                out.append(Violation(
                    "WD2", "label of %r does not subsume the label of the "
                    "observation point of %r" % (tp.id, letter)))
            if not any(c.source == tp.id and c.target == obs
                       and c.delta <= -network.epsilon and c.label == tp.label
                       for c in network.constraints):
                out.append(Violation(
                    "WD2", "missing (%s - %s <= -%s, %s) constraint" %
                    (obs, tp.id, network.epsilon, tp.label)))
    return Report(tuple(out))


def naive_validate_stnu(network):
    """Check the contingent-link conditions on the unlabeled part."""
    out = []
    plain = strip_labels(network.constraints)
    seen_contingent = set()
    for link in network.links:
        name = "(%s, %s, %s, %s)" % (link.activation, link.lower, link.upper, link.contingent)
        if link.activation == link.contingent:
            out.append(Violation("LINK", "link %s has identical end-points" % name))
        if not (0 < link.lower < link.upper):
            out.append(Violation("LINK", "link %s violates 0 < x < y" % name))
        if link.contingent in seen_contingent:
            out.append(Violation("LINK", "contingent point %r shared by two links" % (link.contingent,)))
        seen_contingent.add(link.contingent)
        if Constraint(link.activation, link.contingent, link.upper) not in plain:
            out.append(Violation("LINK", "missing constraint %s - %s <= %s" %
                                 (link.contingent, link.activation, link.upper)))
        if Constraint(link.contingent, link.activation, -link.lower) not in plain:
            out.append(Violation("LINK", "missing constraint %s - %s <= %s" %
                                 (link.activation, link.contingent, -link.lower)))
    # Chains and trees are allowed; loops in the activation -> contingent
    # graph are not.
    edges = {}
    for link in network.links:
        edges.setdefault(link.activation, []).append(link.contingent)
    _, cyclic = depth_first(sorted(edges), lambda node: edges.get(node, ()))
    for node in cyclic:
        out.append(Violation("LINK", "contingent links form a loop through %r" % (node,)))
    return Report(tuple(out))


def naive_validate_cstnu(network):
    """Full CSTNU validation: CSTN part, STNU part, and link labeling."""
    out = list(naive_validate_cstn(network).violations)
    out.extend(naive_validate_stnu(network).violations)
    for link in network.links:
        la = network.label_of(link.activation)
        lc = network.label_of(link.contingent)
        if la != lc:
            out.append(Violation(
                "LINK-LABEL", "link end-points %r and %r carry different labels" %
                (link.activation, link.contingent)))
        upper = LabeledConstraint(link.activation, link.contingent, link.upper, la)
        lower = LabeledConstraint(link.contingent, link.activation, -link.lower, la)
        for needed in (upper, lower):
            if needed not in network.constraints:
                out.append(Violation("LINK-LABEL", "missing labeled bound %s" % (needed,)))
    return Report(tuple(out))


def naive_validate(network):
    """Dispatch to the validator matching the network's kind."""
    if network.kind == "cstnu":
        return naive_validate_cstnu(network)
    if network.kind == "cstn":
        return naive_validate_cstn(network)
    if network.kind == "stnu":
        return naive_validate_stnu(network)
    return Report(())


def naive_rational(value):
    """`cstnu.rational.rational` with every string parsed by `Fraction`."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("not a rational: %r" % (value,)) from exc
    return rational(value)


def _naive_rational(key, value):
    try:
        return naive_rational(value)
    except ValueError as err:
        raise ValueError("field %r: %s" % (key, err)) from None


def _naive_label(data):
    return parse_label(_field(data, "label", str, "[]"))


def naive_network_from_dict(data):
    """`cstnu.jsonio.network_from_dict`, parsing each rational and label
    where it occurs."""
    data = _object(data)
    try:
        return Network(
            timepoints=[TimePoint(tp["id"], _naive_label(tp))
                        for tp in _items(data, "timepoints", dict)],
            constraints=[LabeledConstraint(_point(c, "from"), _point(c, "to"),
                                           _naive_rational("delta", c["delta"]),
                                           _naive_label(c))
                         for c in _items(data, "constraints", dict)],
            letters=_items(data, "letters", str),
            observations=_observations(data),
            links=[ContingentLink(_point(l, "activation"), _naive_rational("lower", l["lower"]),
                                  _naive_rational("upper", l["upper"]),
                                  _point(l, "contingent"))
                   for l in _items(data, "links", dict)],
            epsilon=_naive_rational("epsilon", data.get("epsilon", DEFAULT_EPSILON)))
    except KeyError as err:
        raise ValueError("missing key %s" % err) from None


def naive_strategy_from_dict(data):
    """`cstnu.jsonio.strategy_from_dict`, parsing each rational where it
    occurs."""
    entries = _items(_object(data), "entries", dict)
    kind = data.get("kind")
    if kind is None:
        has_scenario = any("scenario" in e for e in entries)
        has_situation = any("situation" in e for e in entries)
        if has_scenario and has_situation:
            kind = "cstnu"
        elif has_situation:
            kind = "stnu"
        else:
            kind = "cstn"
    unheld = "situation" if kind == "cstn" else "scenario" if kind == "stnu" else None
    pairs = []
    for pos, entry in enumerate(entries):
        if unheld in entry:
            raise ValueError("field %r: entries of kind %r hold no %s (entry %d)"
                             % (unheld, kind, unheld, pos))
        scenario = _field(entry, "scenario", dict, {})
        for letter in scenario:
            _field(scenario, letter, bool, None)
        drama = Drama(Scenario(scenario),
                      tuple(_naive_rational("situation", d)
                            for d in _field(entry, "situation", list, [])))
        pairs.append((drama, {point: _naive_rational("schedule", t)
                              for point, t in _field(entry, "schedule", dict, {}).items()}))
    return Strategy.from_dramas(kind, pairs)


def naive_explain(result, constraint):
    """The derivation of `constraint` in `result`, a `PropagationResult`,
    unfolded: each parent's derivation in full, once per use, then
    `constraint`."""
    rule, parents = result.trace[constraint]
    lines = []
    for parent in parents:
        lines.extend(naive_explain(result, parent))
    lines.append("%s  [%s]" % (constraint, rule))
    return lines
