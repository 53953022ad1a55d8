"""Network classes (STN, CSTN, STNU, CSTNU), validation, and embeddings.

A single `Network` container represents all four kinds; the kind is
inferred from which parts are populated.  Validators return full
violation reports rather than failing fast, so the CLI can act as a
diagnostic tool.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

from .labels import EMPTY, INCONSISTENT, Label, conjoin, sub
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

    Immutable after construction.  Structural well-formedness (ids exist,
    letters declared, bounds are rationals) is enforced here: constraint
    deltas and link bounds pass through `rational()`, so floats and
    non-numeric strings raise `ValueError`.  The WD and link conditions
    are checked by the validators, which report rather than raise.
    """

    def __init__(self, timepoints, constraints=(), letters=(), observations=None,
                 links=(), epsilon=DEFAULT_EPSILON):
        tps = {}
        for tp in timepoints:
            if not isinstance(tp, TimePoint):
                tp = TimePoint(str(tp))
            if tp.id in tps:
                raise ValueError("duplicate time-point id %r" % (tp.id,))
            tps[tp.id] = tp
        self.timepoints = dict(sorted(tps.items()))
        self.letters = frozenset(letters)
        self.observations = dict(sorted((observations or {}).items()))
        self.constraints = frozenset(
            c if isinstance(c.delta, Fraction) else replace(c, delta=rational(c.delta))
            for c in constraints)
        self.links = tuple(
            link if isinstance(link.lower, Fraction) and isinstance(link.upper, Fraction)
            else replace(link, lower=rational(link.lower), upper=rational(link.upper))
            for link in links)
        self.epsilon = rational(epsilon)
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

        for letter, point in self.observations.items():
            if letter not in self.letters:
                raise ValueError("observation for undeclared letter %r" % (letter,))
            if point not in self.timepoints:
                raise ValueError("observation point %r not a time-point" % (point,))
        if set(self.observations) != self.letters:
            missing = self.letters - set(self.observations)
            raise ValueError("letters without observation point: %s" % sorted(missing))
        if len(set(self.observations.values())) != len(self.observations):
            raise ValueError("observation map is not injective")
        for c in self.constraints:
            if c.source not in self.timepoints or c.target not in self.timepoints:
                raise ValueError("constraint %s references unknown time-point" % (c,))
            if not c.label.letters <= self.letters:
                raise ValueError("constraint %s uses undeclared letters" % (c,))
        for tp in self.timepoints.values():
            if not tp.label.letters <= self.letters:
                raise ValueError("time-point %r uses undeclared letters" % (tp.id,))
        for link in self.links:
            if link.activation not in self.timepoints or link.contingent not in self.timepoints:
                raise ValueError("link references unknown time-point")

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


def strip_labels(constraints):
    """Label-erased projection of a labeled constraint set; duplicates collapse."""
    return frozenset(Constraint(c.source, c.target, c.delta) for c in constraints)


def to_stn(network):
    """The unlabeled STN underlying a network."""
    return Stn(frozenset(network.timepoints), strip_labels(network.constraints))


def validate_cstn(network):
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


def validate_stnu(network):
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
            out.append(Violation("LINK", "missing constraint %s - %s <= -%s" %
                                 (link.activation, link.contingent, link.lower)))
    # Chains and trees are allowed; loops in the activation -> contingent
    # graph are not.
    edges = {}
    for link in network.links:
        edges.setdefault(link.activation, []).append(link.contingent)
    state = {}

    def cyclic(node):
        state[node] = "active"
        for nxt in edges.get(node, ()):
            if state.get(nxt) == "active":
                return True
            if nxt not in state and cyclic(nxt):
                return True
        state[node] = "done"
        return False

    for node in sorted(edges):
        if node not in state and cyclic(node):
            out.append(Violation("LINK", "contingent links form a loop through %r" % (node,)))
    return Report(tuple(out))


def validate_cstnu(network):
    """Full CSTNU validation: CSTN part, STNU part, and link labeling."""
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
    """Dispatch to the validator matching the network's kind."""
    if network.kind == "cstnu":
        return validate_cstnu(network)
    if network.kind == "cstn":
        return validate_cstn(network)
    if network.kind == "stnu":
        return validate_stnu(network)
    return Report(())


def embed_stn(stn):
    """Lift an STN to a CSTN: all labels empty, no letters."""
    return Network(
        timepoints=[TimePoint(t) for t in sorted(stn.timepoints)],
        constraints=[LabeledConstraint(c.source, c.target, c.delta)
                     for c in stn.constraints])


@dataclass(frozen=True)
class CstpEdge:
    """Interval edge lower <= target - source <= upper."""

    source: str
    target: str
    lower: Fraction
    upper: Fraction


@dataclass(frozen=True)
class Cstp:
    """A CSTP description: labeled points, observation map, interval edges."""

    timepoints: tuple          # (id, Label) pairs
    letters: frozenset
    observations: dict
    edges: tuple               # CstpEdge


class CstpError(ValueError):
    """A reasonability assumption (A1 or A2) fails for a CSTP."""


def embed_cstp(cstp, epsilon=DEFAULT_EPSILON):
    """Compile a CSTP into a CSTN per the interval-edge construction.

    Each edge a <= Y - X <= b becomes the labeled pair with label
    L(X) and L(Y) conjoined.  A1 (consistent end-point labels) and A2
    (observation executed early enough, at least `epsilon` before) are
    errors, reported with the offending element.
    """
    labels = dict(cstp.timepoints)
    epsilon = rational(epsilon)
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
            ok = any(e.source == obs and e.target == point and rational(e.lower) >= epsilon
                     for e in cstp.edges)
            if not ok:
                raise CstpError(
                    "A2 violation: no edge placing the observation of %r at "
                    "least %s before %r" % (letter, epsilon, point))
            constraints.append(LabeledConstraint(point, cstp.observations[letter],
                                                 -epsilon, label))
    return Network(
        timepoints=[TimePoint(i, l) for i, l in sorted(labels.items())],
        constraints=constraints,
        letters=cstp.letters,
        observations=cstp.observations,
        epsilon=epsilon)


def embed_stnu(network):
    """Lift an STNU to a CSTNU (constraints get the empty label)."""
    if network.kind not in ("stn", "stnu"):
        raise ValueError("embed_stnu expects an STNU, got %s" % network.kind)
    report = validate_stnu(network)
    if not report.ok:
        raise ValueError("invalid STNU:\n%s" % report)
    return Network(
        timepoints=[TimePoint(t) for t in sorted(network.timepoints)],
        constraints=network.constraints,
        links=network.links,
        epsilon=network.epsilon)


def embed_cstn(network):
    """View a CSTN as a CSTNU with an empty link set."""
    if network.links:
        raise ValueError("embed_cstn expects a network without contingent links")
    report = validate_cstn(network)
    if not report.ok:
        raise ValueError("invalid CSTN:\n%s" % report)
    return Network(
        timepoints=list(network.timepoints.values()),
        constraints=network.constraints,
        letters=network.letters,
        observations=network.observations,
        links=(),
        epsilon=network.epsilon)
