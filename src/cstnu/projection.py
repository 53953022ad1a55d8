"""Projections: fixing a scenario, a situation, or a drama turns a
conditional/uncertain network into a plain STN."""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .labels import Label, _check_letter, _truth, evaluate
from .model import Constraint, Stn, strip_labels
from .rational import rational

# Sampled durations per contingent link; see `sample_situations`.
DEFAULT_GRID = 3


class Scenario:
    """Total truth assignment over the network's letter set.  A letter is
    one alphanumeric symbol, as in a `Label`, and a truth value is a
    `bool`, or the `int` 0 or 1."""

    __slots__ = ("_values",)

    def __init__(self, values):
        self._values = tuple(sorted((_check_letter(k), _truth(k, v))
                                    for k, v in dict(values).items()))

    @property
    def letters(self):
        return frozenset(k for k, _ in self._values)

    def value(self, letter):
        """The truth value of `letter`; `KeyError` when it has none."""
        for name, value in self._values:
            if name == letter:
                return value
        raise KeyError(letter)

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
    """A scenario paired with a situation (one duration per link, in link order).

    Dramas key the search's and the certifier's tables, so the hash of the
    situation's `Fraction`s is taken once, at construction."""

    scenario: Scenario
    situation: tuple
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.scenario, self.situation)))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return "s=%s w=(%s)" % (self.scenario, ",".join(str(d) for d in self.situation))


def enumerate_scenarios(letters):
    """All 2^|letters| scenarios, deterministically ordered."""
    names = sorted(set(letters))
    return [Scenario(zip(names, bits))
            for bits in product((True, False), repeat=len(names))]


def sample_situations(links, grid=DEFAULT_GRID):
    """Cartesian product of `grid` evenly spaced durations per link.

    The situation space is infinite; checking discretizes it.  grid=3
    (DEFAULT_GRID) samples {x, (x+y)/2, y} for each link.
    """
    if isinstance(grid, bool) or not isinstance(grid, int):
        raise ValueError("grid must be an int, not %r" % (grid,))
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
        if isinstance(d, bool) or not isinstance(d, (int, Fraction)):
            raise ValueError("duration %r for link (%s, %s) is not an int or a Fraction" %
                             (d, link.activation, link.contingent))
        if not (link.lower <= d <= link.upper):
            raise ValueError("duration %s outside [%s, %s] for link (%s, %s)" %
                             (d, link.lower, link.upper, link.activation, link.contingent))


def relevant_timepoints(network, scenario):
    """Time-points whose labels are true under `scenario`."""
    _check_total(network, scenario)
    values = scenario.as_mapping()
    return frozenset(tp.id for tp in network.timepoints.values()
                     if evaluate(tp.label, values))


def _scenario_view(network, scenario):
    """What `scenario` keeps of `network`, as every projection, the
    certifier and the DC search read it: its relevant points, its truth
    mapping (a constraint stays iff its label holds there), and the
    (position, link) of each link whose two end-points are relevant."""
    relevant = relevant_timepoints(network, scenario)
    links = [(k, link) for k, link in enumerate(network.links)
             if link.activation in relevant and link.contingent in relevant]
    return relevant, scenario.as_mapping(), links


def project(network, scenario=None, situation=None):
    """The STN of a drama, with either half optional.

    Without a scenario, every point and link stays and the constraints
    are label-erased; with one, what its view (`_scenario_view`) keeps: its
    relevant points and the constraints whose labels hold.  With a
    situation, each kept link gets its rigid duration.  A scenario or
    situation that misfits the network is a `ValueError`.
    """
    if situation is not None:
        _check_bounds(network, situation)
    if scenario is None:
        points, links = frozenset(network.timepoints), enumerate(network.links)
        constraints = set(strip_labels(network.constraints))
    else:
        points, truth, links = _scenario_view(network, scenario)
        constraints = {Constraint(c.source, c.target, c.delta)
                       for c in network.constraints if evaluate(c.label, truth)}
    if situation is not None:
        for k, link in links:
            constraints.add(Constraint(link.activation, link.contingent, situation[k]))
            constraints.add(Constraint(link.contingent, link.activation, -situation[k]))
    return Stn(points, frozenset(constraints))
