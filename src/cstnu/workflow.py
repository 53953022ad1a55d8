"""Workflow frontend: a line-oriented DSL for temporal workflows and its
compiler down to a conditional network with contingent links.

Tasks have uncontrollable durations and become contingent links; split
and join connectors are fully controllable and become ordinary point
pairs.  Each conditional split's end point observes a letter that labels
the branch regions; joins reunify, so points after a join no longer
carry the split's letters.
"""

import math
import re
from dataclasses import dataclass, field

from .labels import EMPTY, INCONSISTENT, Label, conjoin
from .model import (DEFAULT_EPSILON, ContingentLink, LabeledConstraint, Network,
                    TimePoint, depth_first, validate)
from .rational import rational


class WorkflowError(ValueError):
    """Bad workflow text; message carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


@dataclass(frozen=True)
class Task:
    id: str
    lower: object
    upper: object
    line: int = field(default=None, compare=False)


@dataclass(frozen=True)
class Connector:
    id: str
    kind: str               # "split" | "join"
    lower: object
    upper: object
    line: int = field(default=None, compare=False)


@dataclass(frozen=True)
class FlowEdge:
    source: str
    target: str
    lower: object
    upper: object
    line: int = field(default=None, compare=False)


@dataclass(frozen=True)
class BranchDecl:
    split: str
    target: str
    positive: bool
    line: int = field(default=None, compare=False)


@dataclass(frozen=True)
class AnchorConstraint:
    """lower <= (target anchor) - (source anchor) <= upper, anchors S or E."""

    source: str
    source_anchor: str
    target: str
    target_anchor: str
    lower: object
    upper: object
    line: int = field(default=None, compare=False)


@dataclass
class WorkflowSpec:
    tasks: tuple = ()
    connectors: tuple = ()
    flows: tuple = ()
    branches: tuple = ()
    constraints: tuple = ()

    def nodes(self):
        out = {t.id: t for t in self.tasks}
        out.update({c.id: c for c in self.connectors})
        return out


_RANGE = r"\[\s*([^,\]\s]+)\s*,\s*([^,\]\s]+)\s*\]"
_ID = r"([A-Za-z_][A-Za-z0-9_]*)"
_PATTERNS = {
    "task": re.compile(r"task\s+%s\s*%s$" % (_ID, _RANGE)),
    "split": re.compile(r"split\s+%s\s*%s$" % (_ID, _RANGE)),
    "join": re.compile(r"join\s+%s\s*%s$" % (_ID, _RANGE)),
    "flow": re.compile(r"flow\s+%s\s*->\s*%s\s*%s$" % (_ID, _ID, _RANGE)),
    "branch": re.compile(r"branch\s+%s\s+%s\s+([+-])$" % (_ID, _ID)),
    "constrain": re.compile(r"constrain\s+%s\.([SE])\s*->\s*%s\.([SE])\s*%s$"
                            % (_ID, _ID, _RANGE)),
}


def _parse_range(lo, hi, line):
    try:
        lo, hi = rational(lo), rational(hi)
    except ValueError:
        raise WorkflowError("bad range bounds [%s,%s]" % (lo, hi), line)
    if lo > hi:
        raise WorkflowError("empty range [%s,%s]" % (lo, hi), line)
    return lo, hi


def parse_workflow(text):
    """Parse workflow text into a validated WorkflowSpec.

    Blank lines and '#' comments are ignored.  Each element keeps the
    number of the line that declares it as `line`.  Raises WorkflowError
    with a line number on syntax errors, duplicate or unknown ids, bad
    ranges, ill-formed branches, or a cyclic flow graph (the line of a
    node on the cycle).
    """
    tasks, connectors, flows, branches, constraints = [], [], [], [], []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword = line.split(None, 1)[0]
        pattern = _PATTERNS.get(keyword)
        match = pattern.match(line) if pattern else None
        if match is None:
            raise WorkflowError("cannot parse %r" % (line,), number)
        if keyword == "task":
            name, lo, hi = match.groups()
            lo, hi = _parse_range(lo, hi, number)
            if not (0 < lo < hi):
                raise WorkflowError(
                    "task duration must satisfy 0 < lower < upper", number)
            tasks.append(Task(name, lo, hi, number))
        elif keyword in ("split", "join"):
            name, lo, hi = match.groups()
            lo, hi = _parse_range(lo, hi, number)
            if lo < 0:
                raise WorkflowError("connector duration must be non-negative", number)
            connectors.append(Connector(name, keyword, lo, hi, number))
        elif keyword == "flow":
            src, dst, lo, hi = match.groups()
            lo, hi = _parse_range(lo, hi, number)
            if lo < 0:
                raise WorkflowError("flow delay must be non-negative", number)
            flows.append(FlowEdge(src, dst, lo, hi, number))
        elif keyword == "branch":
            split, target, sign = match.groups()
            branches.append(BranchDecl(split, target, sign == "+", number))
        else:
            src, sa, dst, da, lo, hi = match.groups()
            lo, hi = _parse_range(lo, hi, number)
            constraints.append(AnchorConstraint(src, sa, dst, da, lo, hi, number))

    spec = WorkflowSpec(tuple(tasks), tuple(connectors), tuple(flows),
                        tuple(branches), tuple(constraints))
    _validate_spec(spec)
    return spec


def _validate_spec(spec):
    nodes = {}
    for node in list(spec.tasks) + list(spec.connectors):
        if node.id in nodes:
            raise WorkflowError("duplicate id %r" % (node.id,), node.line)
        nodes[node.id] = node

    seen_flows = set()
    for flow in spec.flows:
        for end in (flow.source, flow.target):
            if end not in nodes:
                raise WorkflowError("unknown node %r in flow" % (end,), flow.line)
        if (flow.source, flow.target) in seen_flows:
            raise WorkflowError("duplicate flow %s -> %s"
                                % (flow.source, flow.target), flow.line)
        seen_flows.add((flow.source, flow.target))

    for c in spec.constraints:
        for end in (c.source, c.target):
            if end not in nodes:
                raise WorkflowError("unknown node %r in constrain" % (end,), c.line)

    splits = {c.id for c in spec.connectors if c.kind == "split"}
    declared = {}
    for b in spec.branches:
        if b.split not in splits:
            raise WorkflowError("%r is not a split" % (b.split,), b.line)
        if (b.split, b.target) not in seen_flows:
            raise WorkflowError("branch without a flow %s -> %s"
                                % (b.split, b.target), b.line)
        if b.target in declared.get(b.split, {}):
            raise WorkflowError("duplicate branch for %s -> %s"
                                % (b.split, b.target), b.line)
        declared.setdefault(b.split, {})[b.target] = b

    for split in sorted(splits):
        where = nodes[split].line
        targets = {f.target for f in spec.flows if f.source == split}
        if len(targets) < 2:
            raise WorkflowError("split %r needs at least two outgoing flows"
                                % (split,), where)
        missing = targets - set(declared.get(split, {}))
        if missing:
            raise WorkflowError("split %r branches lack signs: %s"
                                % (split, sorted(missing)), where)
        signs = [b.positive for b in declared[split].values()]
        if not any(signs):
            raise WorkflowError("split %r needs a '+' branch" % (split,),
                                where)
        if len(targets) == 2 and signs.count(True) != 1:
            raise WorkflowError("two-way split %r needs exactly one '+' and "
                                "one '-' branch" % (split,), where)

    # The flow graph must be acyclic.
    succ = {}
    for flow in spec.flows:
        succ.setdefault(flow.source, []).append(flow.target)
    _, cyclic = depth_first(sorted(nodes), lambda node: succ.get(node, ()))
    if cyclic:
        raise WorkflowError("flow graph has a cycle through %r" % (cyclic[0],),
                            nodes[cyclic[0]].line)


@dataclass
class CompilationMap:
    """Where each workflow element went in the generated network."""

    tasks: dict = field(default_factory=dict)
    connectors: dict = field(default_factory=dict)
    flows: dict = field(default_factory=dict)
    constraints: dict = field(default_factory=dict)
    letters: dict = field(default_factory=dict)   # letter -> owning split

    def as_dict(self):
        return {"tasks": self.tasks, "connectors": self.connectors,
                "flows": {"%s->%s" % k: v for k, v in self.flows.items()},
                "constraints": self.constraints, "letters": self.letters}


def _topological(spec):
    nodes = spec.nodes()
    incoming = {n: [] for n in nodes}
    for flow in spec.flows:
        incoming[flow.target].append(flow)
    order, _ = depth_first(sorted(nodes),
                           lambda node: (flow.source for flow in incoming[node]))
    return order, incoming


def _branch_codes(spec):
    """Letters and per-branch literal codes for each split.

    A k-way split uses ceil(log2 k) letters; the '+' branches come first
    and branch 0 is all-positive, so a two-way split puts its single
    letter positively on the '+' branch.
    """
    alphabet = iter("abcdefghijklmnopqrstuvwxyz")
    letters, codes = {}, {}
    decls = {}
    for b in spec.branches:
        decls.setdefault(b.split, []).append(b)
    for split in sorted(decls):
        ordered = ([b for b in decls[split] if b.positive]
                   + [b for b in decls[split] if not b.positive])
        width = max(1, math.ceil(math.log2(len(ordered))))
        try:
            own = [next(alphabet) for _ in range(width)]
        except StopIteration:
            raise WorkflowError("workflow needs more than 26 branch letters")
        letters[split] = own
        for i, b in enumerate(ordered):
            codes[(split, b.target)] = tuple(
                (own[j], not (i >> j) & 1) for j in range(width))
    return letters, codes


def compile_workflow(spec):
    """Compile a workflow into a conditional network with contingent links.

    Returns (network, CompilationMap).  Each task T yields points T_S and
    T_E joined by a contingent link; each connector yields an ordinary
    pair with its duration as labeled constraints.  A split's end point
    observes the branch letter(s); every point in a branch region carries
    the branch literal(s), with observation-before-use edges added.
    """
    nodes = spec.nodes()
    order, incoming = _topological(spec)
    split_letters, codes = _branch_codes(spec)

    node_label = {}
    for node in order:
        literal_sets = []
        for flow in incoming[node]:
            lits = set(node_label[flow.source].literals)
            lits.update(codes.get((flow.source, node), ()))
            literal_sets.append(lits)
        if literal_sets:
            common = set.intersection(*literal_sets)
        else:
            common = set()
        node_label[node] = Label(sorted(common))

    cmap = CompilationMap()
    timepoints, constraints, links, observations = [], [], [], {}
    all_letters = []

    def point(node, anchor):
        return "%s_%s" % (node, anchor)

    for node in order:
        label = node_label[node]
        start, end = point(node, "S"), point(node, "E")
        timepoints.append(TimePoint(start, label))
        timepoints.append(TimePoint(end, label))
        obj = nodes[node]
        if isinstance(obj, Task):
            links.append(ContingentLink(start, obj.lower, obj.upper, end))
            constraints.append(LabeledConstraint(start, end, obj.upper, label))
            constraints.append(LabeledConstraint(end, start, -obj.lower, label))
            cmap.tasks[node] = {"start": start, "end": end,
                                "link": len(links) - 1}
        else:
            constraints.append(LabeledConstraint(start, end, obj.upper, label))
            constraints.append(LabeledConstraint(end, start, -obj.lower, label))
            entry = {"start": start, "end": end}
            if obj.kind == "split":
                own = split_letters[node]
                entry["letters"] = list(own)
                entry["observation_points"] = []
                for j, letter in enumerate(own):
                    if j == 0:
                        obs = end
                    else:
                        # Extra letters of a wide split are observed at
                        # synthetic points pinned to the split's end.
                        obs = "%s_O%d" % (node, j)
                        timepoints.append(TimePoint(obs, label))
                        constraints.append(LabeledConstraint(end, obs, 0, label))
                        constraints.append(LabeledConstraint(obs, end, 0, label))
                    observations[letter] = obs
                    all_letters.append(letter)
                    cmap.letters[letter] = node
                    entry["observation_points"].append(obs)
            cmap.connectors[node] = entry

    for flow in spec.flows:
        label = conjoin(node_label[flow.source], node_label[flow.target])
        label = conjoin(label, Label(codes.get((flow.source, flow.target), ())))
        if label is INCONSISTENT:
            raise WorkflowError("flow %s -> %s joins contradictory branch regions"
                                % (flow.source, flow.target), flow.line)
        upper = LabeledConstraint(point(flow.source, "E"), point(flow.target, "S"),
                                  flow.upper, label)
        lower = LabeledConstraint(point(flow.target, "S"), point(flow.source, "E"),
                                  -flow.lower, label)
        constraints.extend((upper, lower))
        cmap.flows[(flow.source, flow.target)] = {
            "from": upper.source, "to": upper.target,
            "label": str(label)}

    for i, c in enumerate(spec.constraints):
        label = conjoin(node_label[c.source], node_label[c.target])
        if label is INCONSISTENT:
            raise WorkflowError("constrain %s.%s -> %s.%s relates contradictory "
                                "branch regions" % (c.source, c.source_anchor,
                                                    c.target, c.target_anchor),
                                c.line)
        src = point(c.source, c.source_anchor)
        dst = point(c.target, c.target_anchor)
        constraints.append(LabeledConstraint(src, dst, c.upper, label))
        constraints.append(LabeledConstraint(dst, src, -c.lower, label))
        cmap.constraints[i] = {"from": src, "to": dst, "label": str(label)}

    # Observation-before-use edges: every labeled point runs strictly
    # after the observation of each letter it depends on.
    for tp in timepoints:
        for letter in sorted(tp.label.letters):
            constraints.append(LabeledConstraint(tp.id, observations[letter],
                                                 -DEFAULT_EPSILON, tp.label))

    network = Network(timepoints=timepoints, constraints=constraints,
                      letters=all_letters, observations=observations,
                      links=links)
    report = validate(network)
    if not report.ok:
        raise WorkflowError("compiled network fails validation:\n%s\nmap: %s"
                            % (report, cmap.as_dict()))
    return network, cmap
