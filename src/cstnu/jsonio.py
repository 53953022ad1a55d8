"""JSON interchange for networks, plain STNs, and strategies.

All rationals travel as strings ("5", "3/2") so round-trips are exact.
Constraint objects use {"from": X, "to": Y, "delta": d, "label": l}
meaning Y - X <= d under label l; labels use the text syntax ("[]" for
the always-true label).
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


def _object(data):
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object, got %s" % type(data).__name__)
    return data


def network_from_dict(data):
    data = _object(data)
    try:
        return Network(
            timepoints=[TimePoint(tp["id"], parse_label(tp.get("label", "[]")))
                        for tp in data.get("timepoints", ())],
            constraints=[LabeledConstraint(c["from"], c["to"], rational(c["delta"]),
                                           parse_label(c.get("label", "[]")))
                         for c in data.get("constraints", ())],
            letters=data.get("letters", ()),
            observations=data.get("observations") or {},
            links=[ContingentLink(l["activation"], rational(l["lower"]),
                                  rational(l["upper"]), l["contingent"])
                   for l in data.get("links", ())],
            epsilon=rational(data.get("epsilon", DEFAULT_EPSILON)))
    except KeyError as err:
        raise ValueError("missing key %s" % err) from None


def stn_to_dict(stn):
    """Plain STNs reuse the network layout with the conditional and
    uncertain parts empty."""
    return network_to_dict(embed_stn(stn))


def _schedule_to_dict(schedule):
    return {point: str(t) for point, t in sorted(schedule.items())}


def _schedule_from_dict(data):
    return {point: rational(t) for point, t in data.items()}


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
    entries = _object(data).get("entries", ())
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
    table = {}
    for entry in entries:
        drama = Drama(Scenario(entry.get("scenario", {})),
                      tuple(rational(d) for d in entry.get("situation", ())))
        table[drama] = _schedule_from_dict(entry.get("schedule", {}))
    return Strategy.from_dramas(kind, table)


def dumps(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def loads(text):
    return json.loads(text)
