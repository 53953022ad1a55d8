"""Network classes (STN, CSTN, STNU, CSTNU), validation, and the STN
embedding.

A single `Network` container represents all four kinds; the kind is
inferred from which parts are populated.  Validators return full
violation reports rather than failing fast, so the CLI can act as a
diagnostic tool, and each makes one pass over the constraints plus the
indexes it builds, so validation is linear in the network's size.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from types import MappingProxyType

from .labels import EMPTY, Label, _check_letter
from .rational import rational

DEFAULT_EPSILON = Fraction(1, 1000)


@dataclass(frozen=True)
class TimePoint:
    id: str
    label: Label = EMPTY


@dataclass(frozen=True)
class LabeledConstraint:
    """target - source <= delta, applicable when `label` is true."""

    source: str
    target: str
    delta: Fraction
    label: Label = EMPTY

    def __str__(self):
        return "(%s - %s <= %s, %s)" % (self.target, self.source, self.delta, self.label)


@dataclass(frozen=True)
class Constraint:
    """Unlabeled simple temporal constraint: target - source <= delta."""

    source: str
    target: str
    delta: Fraction

    def __str__(self):
        return "%s - %s <= %s" % (self.target, self.source, self.delta)


@dataclass(frozen=True)
class ContingentLink:
    """Activation starts the link; the environment picks a duration in [lower, upper]."""

    activation: str
    lower: Fraction
    upper: Fraction
    contingent: str


@dataclass(frozen=True)
class Stn:
    """Bare STN for the distance-graph engine: point ids and unlabeled
    constraints, with no record of where the constraints came from."""

    timepoints: frozenset
    constraints: frozenset


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def __str__(self):
        return "[%s] %s" % (self.code, self.message)


@dataclass(frozen=True)
class Report:
    violations: tuple

    @property
    def ok(self):
        return not self.violations

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


class Network:
    """A CSTNU; STN/CSTN/STNU are the degenerate kinds.

    Immutable after construction, and the freeze is enforced: rebinding or
    deleting an attribute is an `AttributeError`, and `timepoints` and
    `observations` are read-only mappings.  Structural well-formedness
    (ids exist, letters are single alphanumeric symbols and declared,
    labels are `Label`s, constraints are `LabeledConstraint`s, bounds are
    rationals) is enforced here, each failure a `ValueError` that names
    the element: constraint deltas and link bounds pass through
    `rational()`, so floats and non-numeric strings raise it too.  The WD
    and link conditions are checked by the validators, which report
    rather than raise.  As the network cannot change, `validate` keeps its
    report on it and returns that same `Report` on every later call; the
    per-kind validators (`validate_cstn`, `validate_stnu`,
    `validate_cstnu`) keep nothing and make their pass on every call.
    """

    _report = None          # `validate`'s report, once it has run

    def __init__(self, timepoints, constraints=(), letters=(), observations=None,
                 links=(), epsilon=DEFAULT_EPSILON):
        tps = {}
        for tp in timepoints:
            if not isinstance(tp, TimePoint):
                tp = TimePoint(str(tp))
            if not isinstance(tp.id, str):
                raise ValueError("time-point id %r is not a string" % (tp.id,))
            if tp.id in tps:
                raise ValueError("duplicate time-point id %r" % (tp.id,))
            if not isinstance(tp.label, Label):
                raise ValueError("time-point %r has label %r, not a Label" % (tp.id, tp.label))
            tps[tp.id] = tp
        tps = dict(sorted(tps.items()))
        letters = frozenset(map(_check_letter, letters))
        observations = dict(sorted((observations or {}).items()))
        constraints = tuple(constraints)
        for c in constraints:
            if not isinstance(c, LabeledConstraint):
                raise ValueError("constraint %r is not a LabeledConstraint" % (c,))
            if not isinstance(c.label, Label):
                raise ValueError("constraint %s has label %r, not a Label" % (c, c.label))
        constraints = frozenset(
            c if isinstance(c.delta, Fraction) else replace(c, delta=rational(c.delta))
            for c in constraints)
        links = tuple(
            link if isinstance(link.lower, Fraction) and isinstance(link.upper, Fraction)
            else replace(link, lower=rational(link.lower), upper=rational(link.upper))
            for link in links)
        epsilon = rational(epsilon)
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")

        for letter, point in observations.items():
            if letter not in letters:
                raise ValueError("observation for undeclared letter %r" % (letter,))
            if not isinstance(point, str) or point not in tps:
                raise ValueError("observation point %r not a time-point" % (point,))
        if set(observations) != letters:
            missing = letters - set(observations)
            raise ValueError("letters without observation point: %s" % sorted(missing))
        if len(set(observations.values())) != len(observations):
            raise ValueError("observation map is not injective")
        declared = {}       # label -> whether its letters are all declared
        for c in constraints:
            if c.source not in tps or c.target not in tps:
                raise ValueError("constraint %s references unknown time-point" % (c,))
            if not _declared(c.label, letters, declared):
                raise ValueError("constraint %s uses undeclared letters" % (c,))
        for tp in tps.values():
            if not _declared(tp.label, letters, declared):
                raise ValueError("time-point %r uses undeclared letters" % (tp.id,))
        for link in links:
            if link.activation not in tps or link.contingent not in tps:
                raise ValueError("link references unknown time-point")

        # Set last: the checks above read the plain dicts, which are faster
        # to look up in than the read-only views the fields hold.
        init = object.__setattr__
        init(self, "timepoints", MappingProxyType(tps))
        init(self, "letters", letters)
        init(self, "observations", MappingProxyType(observations))
        init(self, "constraints", constraints)
        init(self, "links", links)
        init(self, "epsilon", epsilon)

    def __setattr__(self, name, value):
        raise AttributeError("Network is immutable: cannot set %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("Network is immutable: cannot delete %r" % (name,))

    def __reduce__(self):
        # The read-only views do not pickle; `pickle` and `copy` rebuild
        # the network from its parts instead.
        return Network, (tuple(self.timepoints.values()), self.constraints, self.letters,
                         dict(self.observations), self.links, self.epsilon)

    @property
    def kind(self):
        if self.letters and self.links:
            return "cstnu"
        if self.letters:
            return "cstn"
        if self.links:
            return "stnu"
        return "stn"

    @property
    def contingent_points(self):
        return frozenset(link.contingent for link in self.links)

    def label_of(self, point_id):
        return self.timepoints[point_id].label

    def observation_point(self, letter):
        return self.observations[letter]

    def __eq__(self, other):
        return (isinstance(other, Network)
                and self.timepoints == other.timepoints
                and self.constraints == other.constraints
                and self.letters == other.letters
                and self.observations == other.observations
                and self.links == other.links
                and self.epsilon == other.epsilon)

    def __repr__(self):
        return "<Network kind=%s |T|=%d |C|=%d |P|=%d |L|=%d>" % (
            self.kind, len(self.timepoints), len(self.constraints),
            len(self.letters), len(self.links))


def _declared(label, letters, declared):
    """Whether `label` uses `letters` only, looked up in (and added to)
    `declared`, so each distinct label is checked once."""
    known = declared.get(label)
    if known is None:
        known = declared[label] = label.letters <= letters
    return known


def strip_labels(constraints):
    """Label-erased projection of a labeled constraint set; duplicates collapse."""
    return frozenset(Constraint(c.source, c.target, c.delta) for c in constraints)


def to_stn(network):
    """The unlabeled STN underlying a network."""
    return Stn(frozenset(network.timepoints), strip_labels(network.constraints))


def validate_cstn(network):
    """Check the CSTN well-definedness conditions WD1, WD2, WD3.

    One pass over the constraints plus two indexes: each point's literal
    set, and the WD2 guards, the (source, target, label) of each
    constraint into an observation point with delta <= -epsilon, gathered
    in the same pass.  Only the WD1/WD3 violations found are sorted by
    their constraint's `str` (stably, so each constraint's WD1 comes before
    its WD3s); WD2 follows in point order.
    """
    literals = {p: frozenset(tp.label.literals) for p, tp in network.timepoints.items()}
    observations = network.observations
    observers = frozenset(observations.values())
    bound = -network.epsilon
    guards = set()
    found = []  # (constraint, None for WD1 or the letter for WD3)
    for c in network.constraints:
        label = c.label
        if c.target in observers and c.delta <= bound:
            guards.add((c.source, c.target, label))
        has = set(label.literals)
        if not (literals[c.source] <= has and literals[c.target] <= has):
            found.append((c, None))
        # A label's literals come sorted by letter.
        for letter, _ in label.literals:
            if not literals[observations[letter]] <= has:
                found.append((c, letter))
    out = []
    for c, letter in sorted(found, key=lambda item: str(item[0])):
        if letter is None:
            out.append(Violation(
                "WD1", "label of %s does not subsume both end-point labels" % (c,)))
        else:
            out.append(Violation(
                "WD3", "label of %s does not subsume the label of the "
                "observation point of %r" % (c, letter)))
    for tp in network.timepoints.values():
        for letter, _ in tp.label.literals:
            obs = observations[letter]
            if not literals[obs] <= literals[tp.id]:
                out.append(Violation(
                    "WD2", "label of %r does not subsume the label of the "
                    "observation point of %r" % (tp.id, letter)))
            if (tp.id, obs, tp.label) not in guards:
                out.append(Violation(
                    "WD2", "missing (%s - %s <= -%s, %s) constraint" %
                    (obs, tp.id, network.epsilon, tp.label)))
    return Report(tuple(out))


def depth_first(roots, successors):
    """Iterative depth-first walk from each root not reached before.

    Returns `(order, cyclic)`: the nodes reached, in post-order, and, for
    each root whose walk met an active node (one on an unfinished path, so
    on a cycle) and stopped there, the node it met; the nodes on that path
    stay active and out of `order`.
    """
    active, done = set(), set()
    order, cyclic = [], []
    for root in roots:
        if root in active or root in done:
            continue
        active.add(root)
        stack = [(root, iter(successors(root)))]
        while stack:
            node, pending = stack[-1]
            for nxt in pending:
                if nxt not in done:
                    break
            else:
                stack.pop()
                active.remove(node)
                done.add(node)
                order.append(node)
                continue
            if nxt in active:
                cyclic.append(nxt)
                break
            active.add(nxt)
            stack.append((nxt, iter(successors(nxt))))
    return order, cyclic


def _link_name(link):
    return "(%s, %s, %s, %s)" % (link.activation, link.lower, link.upper, link.contingent)


def validate_stnu(network):
    """Check the contingent-link conditions on the unlabeled part.

    One pass over the constraints indexes the deltas between each link's
    two end-points, in both directions; the links are then checked
    against it.
    """
    out = []
    deltas = {}
    for link in network.links:
        deltas[link.activation, link.contingent] = set()
        deltas[link.contingent, link.activation] = set()
    for c in network.constraints:
        between = deltas.get((c.source, c.target))
        if between is not None:
            between.add(c.delta)
    seen_contingent = set()
    for link in network.links:
        if link.activation == link.contingent:
            out.append(Violation("LINK", "link %s has identical end-points" % _link_name(link)))
        if not (0 < link.lower < link.upper):
            out.append(Violation("LINK", "link %s violates 0 < x < y" % _link_name(link)))
        if link.contingent in seen_contingent:
            out.append(Violation("LINK", "contingent point %r shared by two links" % (link.contingent,)))
        seen_contingent.add(link.contingent)
        if link.upper not in deltas[link.activation, link.contingent]:
            out.append(Violation("LINK", "missing constraint %s - %s <= %s" %
                                 (link.contingent, link.activation, link.upper)))
        if -link.lower not in deltas[link.contingent, link.activation]:
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


def validate_cstnu(network):
    """Full CSTNU validation: CSTN part, STNU part, and link labeling.

    The two parts make one pass over the constraints each, plus their
    indexes; a link's labeled bounds are looked up in the constraint set.
    """
    out = list(validate_cstn(network).violations)
    out.extend(validate_stnu(network).violations)
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


def validate(network):
    """The report of the validator matching the network's kind.  It runs
    on the first call only: the network keeps the report, and every call
    returns that same `Report`."""
    report = network._report
    if report is None:
        kind = network.kind
        report = (validate_cstnu(network) if kind == "cstnu"
                  else validate_cstn(network) if kind == "cstn"
                  else validate_stnu(network) if kind == "stnu"
                  else Report(()))
        object.__setattr__(network, "_report", report)
    return report


def embed_stn(stn):
    """Lift an STN to a CSTN: all labels empty, no letters."""
    return Network(
        timepoints=[TimePoint(t) for t in sorted(stn.timepoints)],
        constraints=[LabeledConstraint(c.source, c.target, c.delta)
                     for c in stn.constraints])
