"""JSON interchange for networks, plain STNs, and strategies.

All rationals travel as strings ("5", "3/2") so round-trips are exact.
Constraint objects use {"from": X, "to": Y, "delta": d, "label": l}
meaning Y - X <= d under label l; labels use the text syntax ("[]" for
the always-true label).  A field of the wrong JSON type (letters given
as one string, a label as a number, a schedule as an array) or a number
that is not a rational (a delta of null, a bound of "1/0") is a
`ValueError` that names the field, never a silent misread.  So is a
strategy entry's field that the strategy's kind does not hold: a
"situation" in a "cstn" entry, or a "scenario" in an "stnu" one.

A document repeats few distinct times and labels many times, so each
reader parses a document through one `_Reader`, which parses each
distinct text once and hands every repeat the same object.
"""

import json

from .labels import parse_label
from .model import (DEFAULT_EPSILON, ContingentLink, LabeledConstraint, Network,
                    TimePoint, embed_stn)
from .projection import Drama, Scenario
from .rational import rational
from .semantics import Strategy


def network_to_dict(network):
    return {
        "letters": sorted(network.letters),
        "epsilon": str(network.epsilon),
        "timepoints": [{"id": tp.id, "label": str(tp.label)}
                       for tp in network.timepoints.values()],
        "observations": dict(network.observations),
        "constraints": [_constraint_to_dict(c)
                        for c in sorted(network.constraints, key=str)],
        "links": [{"activation": l.activation, "lower": str(l.lower),
                   "upper": str(l.upper), "contingent": l.contingent}
                  for l in network.links],
    }


def _constraint_to_dict(c):
    return {"from": c.source, "to": c.target, "delta": str(c.delta), "label": str(c.label)}


_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean"}


def _object(data):
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object, got %s" % type(data).__name__)
    return data


def _field(data, key, kind, default):
    """`data[key]`, or `default` when it is absent, which must be of type
    `kind`: a `ValueError` that names `key` otherwise."""
    value = data.get(key, default)
    if not isinstance(value, kind):
        raise _wrong_type(key, kind, value)
    return value


def _wrong_type(key, kind, value):
    return ValueError("field %r: expected a JSON %s, got %s"
                      % (key, _JSON_TYPES[kind], type(value).__name__))


def _items(data, key, kind):
    """The array `data[key]`, empty when absent, each of whose items must
    be of type `kind`."""
    items = _field(data, key, list, [])
    for item in items:
        if not isinstance(item, kind):
            raise ValueError("field %r: expected an array of JSON %ss, got an item of type %s"
                             % (key, _JSON_TYPES[kind], type(item).__name__))
    return items


def _rational(key, value):
    """`rational(value)`, the value of field `key`: a `ValueError` that
    names `key` otherwise."""
    try:
        return rational(value)
    except ValueError as err:
        raise ValueError("field %r: %s" % (key, err)) from None


class _Reader:
    """The rationals, labels and scenarios of one document, each distinct
    string or mapping parsed once (`_rational`, `parse_label`, `Scenario`):
    every repeat gets the same `Fraction`, `Label` or `Scenario`.  Only
    successful parses are kept, so a bad value raises at each element that
    holds it, and only strings and checked `bool`s are looked up, as the
    `bool` true equals the `int` 1."""

    def __init__(self):
        self._rationals = {}    # text -> Fraction
        self._labels = {}       # text -> Label
        self._scenarios = {}    # (letter, bool) pairs -> Scenario

    def rational(self, key, value):
        if type(value) is not str:
            return _rational(key, value)
        parsed = self._rationals.get(value)
        if parsed is None:
            parsed = self._rationals[value] = _rational(key, value)
        return parsed

    def label(self, data):
        text = _field(data, "label", str, "[]")
        parsed = self._labels.get(text)
        if parsed is None:
            parsed = self._labels[text] = parse_label(text)
        return parsed

    def scenario(self, entry):
        values = _field(entry, "scenario", dict, {})
        for letter in values:
            _field(values, letter, bool, None)
        key = tuple(values.items())
        parsed = self._scenarios.get(key)
        if parsed is None:
            parsed = self._scenarios[key] = Scenario(values)
        return parsed


def _point(data, key):
    """The point id `data[key]`.  An array or an object is refused here;
    `Network` refuses the other ids that are not time-points' ones."""
    point = data[key]
    if isinstance(point, (list, dict)):
        raise _wrong_type(key, str, point)
    return point


def _observations(data):
    """The observation map, letter -> point id; absent or null is empty."""
    if data.get("observations") is None:
        return {}
    observations = _field(data, "observations", dict, {})
    return {letter: _point(observations, letter) for letter in observations}


def network_from_dict(data):
    data = _object(data)
    read = _Reader()
    try:
        return Network(
            timepoints=[TimePoint(tp["id"], read.label(tp))
                        for tp in _items(data, "timepoints", dict)],
            constraints=[LabeledConstraint(_point(c, "from"), _point(c, "to"),
                                           read.rational("delta", c["delta"]), read.label(c))
                         for c in _items(data, "constraints", dict)],
            letters=_items(data, "letters", str),
            observations=_observations(data),
            links=[ContingentLink(_point(l, "activation"), read.rational("lower", l["lower"]),
                                  read.rational("upper", l["upper"]), _point(l, "contingent"))
                   for l in _items(data, "links", dict)],
            epsilon=read.rational("epsilon", data.get("epsilon", DEFAULT_EPSILON)))
    except KeyError as err:
        raise ValueError("missing key %s" % err) from None


def stn_to_dict(stn):
    """Plain STNs reuse the network layout with the conditional and
    uncertain parts empty."""
    return network_to_dict(embed_stn(stn))


def _schedule_to_dict(schedule):
    return {point: str(t) for point, t in sorted(schedule.items())}


def strategy_to_dict(strategy):
    """Entries carry their drama's scenario (not for 'stnu' strategies)
    and situation (not for 'cstn' ones) beside the schedule."""
    entries = []
    for index in strategy.indices():
        drama = strategy.drama(index)
        entry = {}
        if strategy.kind != "stnu":
            entry["scenario"] = drama.scenario.as_mapping()
        if strategy.kind != "cstn":
            entry["situation"] = [str(d) for d in drama.situation]
        entry["schedule"] = _schedule_to_dict(strategy.table[index])
        entries.append(entry)
    return {"kind": strategy.kind, "entries": entries}


def strategy_from_dict(data):
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
    read = _Reader()
    pairs = []
    for pos, entry in enumerate(entries):
        if unheld in entry:
            raise ValueError("field %r: entries of kind %r hold no %s (entry %d)"
                             % (unheld, kind, unheld, pos))
        drama = Drama(read.scenario(entry),
                      tuple(read.rational("situation", d)
                            for d in _field(entry, "situation", list, [])))
        pairs.append((drama, {point: read.rational("schedule", t)
                              for point, t in _field(entry, "schedule", dict, {}).items()}))
    return Strategy.from_dramas(kind, pairs)


def dumps(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def loads(text):
    return json.loads(text)
