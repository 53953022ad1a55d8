"""Projections: fixing a scenario, a situation, or a drama turns a
conditional/uncertain network into a plain STN."""

from dataclasses import dataclass
from itertools import product

from .labels import Label, evaluate
from .model import Constraint, Stn, strip_labels
from .rational import rational


class Scenario:
    """Total truth assignment over the network's letter set."""

    __slots__ = ("_values",)

    def __init__(self, values):
        self._values = tuple(sorted((k, bool(v)) for k, v in dict(values).items()))

    @property
    def letters(self):
        return frozenset(k for k, _ in self._values)

    def value(self, letter):
        return dict(self._values)[letter]

    def as_mapping(self):
        return dict(self._values)

    def as_label(self):
        """The full conjunction naming every letter's truth value."""
        return Label(self._values)

    def __getitem__(self, letter):
        return self.value(letter)

    def __eq__(self, other):
        return isinstance(other, Scenario) and self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __str__(self):
        if not self._values:
            return "{}"
        return ",".join("%s=%d" % (k, v) for k, v in self._values)

    def __repr__(self):
        return "Scenario(%s)" % self


@dataclass(frozen=True)
class Drama:
    """A scenario paired with a situation (one duration per link, in link order)."""

    scenario: Scenario
    situation: tuple

    def __str__(self):
        return "s=%s w=(%s)" % (self.scenario, ",".join(str(d) for d in self.situation))


def enumerate_scenarios(letters):
    """All 2^|letters| scenarios, deterministically ordered."""
    names = sorted(set(letters))
    return [Scenario(zip(names, bits))
            for bits in product((True, False), repeat=len(names))]


def sample_situations(links, grid=3):
    """Cartesian product of `grid` evenly spaced durations per link.

    The situation space is infinite; checking discretizes it.  grid=3
    samples {x, (x+y)/2, y} for each link.
    """
    if grid < 2:
        raise ValueError("grid must sample at least both bounds")
    axes = []
    for link in links:
        lo, hi = rational(link.lower), rational(link.upper)
        step = (hi - lo) / (grid - 1)
        axes.append(tuple(lo + step * i for i in range(grid)))
    return [tuple(p) for p in product(*axes)]


def _check_total(network, scenario):
    if scenario.letters != network.letters:
        raise ValueError("scenario domain %s does not match letters %s" %
                         (sorted(scenario.letters), sorted(network.letters)))


def _check_bounds(network, situation):
    if len(situation) != len(network.links):
        raise ValueError("situation has %d durations for %d links" %
                         (len(situation), len(network.links)))
    for d, link in zip(situation, network.links):
        if not (link.lower <= d <= link.upper):
            raise ValueError("duration %s outside [%s, %s] for link (%s, %s)" %
                             (d, link.lower, link.upper, link.activation, link.contingent))


def relevant_timepoints(network, scenario):
    """Time-points whose labels are true under `scenario`."""
    _check_total(network, scenario)
    values = scenario.as_mapping()
    return frozenset(tp.id for tp in network.timepoints.values()
                     if evaluate(tp.label, values))


def _project(network, scenario, situation):
    """The STN of a drama, with either half optional.

    Without a scenario, every point stays and the constraints are
    label-erased; with one, only its relevant points and the constraints
    whose labels hold.  With a situation, each link whose two end-points
    survive gets its rigid duration.
    """
    if situation is not None:
        _check_bounds(network, situation)
    if scenario is None:
        points = frozenset(network.timepoints)
        constraints = set(strip_labels(network.constraints))
    else:
        points = relevant_timepoints(network, scenario)
        values = scenario.as_mapping()
        constraints = {Constraint(c.source, c.target, c.delta)
                       for c in network.constraints if evaluate(c.label, values)}
    for d, link in zip(situation or (), network.links):
        if link.activation in points and link.contingent in points:
            constraints.add(Constraint(link.activation, link.contingent, d))
            constraints.add(Constraint(link.contingent, link.activation, -d))
    return Stn(points, frozenset(constraints))


def scenario_projection(network, scenario):
    """STN over the relevant points, keeping constraints whose labels hold."""
    return _project(network, scenario, None)


def situation_projection(network, situation):
    """STN over all points: original constraints plus rigid link durations."""
    return _project(network, None, situation)


def drama_projection(network, scenario, situation):
    """STN for a drama: scenario-selected constraints plus rigid durations
    for the links whose end-points survive the scenario."""
    return _project(network, scenario, situation)
