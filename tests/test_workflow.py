"""Workflow DSL parsing and compilation."""

import random
from fractions import Fraction

import pytest

from cstnu import (WorkflowError, compile_workflow, parse_workflow, validate,
                   parse_label)
from cstnu.fixtures import branching_workflow_text


def test_parse_collects_all_elements():
    spec = parse_workflow(branching_workflow_text())
    assert [t.id for t in spec.tasks] == ["T1", "T2", "T3", "T4", "T5"]
    assert {c.id: c.kind for c in spec.connectors} == {"S1": "split", "J1": "join"}
    assert len(spec.flows) == 7
    assert {(b.split, b.target, b.positive) for b in spec.branches} == {
        ("S1", "T3", True), ("S1", "T4", False)}
    assert len(spec.constraints) == 1
    c = spec.constraints[0]
    assert (c.source, c.source_anchor, c.target, c.target_anchor) == \
        ("T4", "S", "T5", "E")
    assert (c.lower, c.upper) == (136, 150)


def test_empty_text_is_empty_spec():
    spec = parse_workflow("\n# nothing here\n")
    assert spec.tasks == () and spec.flows == ()


# A split S with two outgoing flows, on lines 3-5, and no branch yet.
SPLIT = "task A [1,2]\ntask B [1,2]\nsplit S [1,2]\nflow S -> A [1,2]\nflow S -> B [1,2]\n"


def test_parse_errors_carry_line_numbers():
    cases = [
        ("task T1 [2,4]\ngarbage here\n", 2, "cannot parse"),
        ("task T1 [4,2]\n", 1, "empty range"),
        ("task T1 [0,2]\n", 1, "0 < lower < upper"),
        ("task T1 [2,x]\n", 1, "bad range bounds"),
        ("task T1 [2,4]\ntask T1 [2,4]\n", 2, "duplicate id"),
        ("flow A -> B [1,2]\n", 1, "unknown node 'A' in flow"),
        ("task A [1,2]\nconstrain A.S -> Z.E [0,5]\n", 2, "unknown node 'Z' in constrain"),
        ("task A [1,2]\nsplit S [-1,2]\n", 2, "connector duration must be non-negative"),
        ("task A [1,2]\ntask B [1,2]\nflow A -> B [-1,2]\n", 3,
         "flow delay must be non-negative"),
        ("task A [1,2]\ntask B [1,2]\nflow A -> B [1,2]\nflow A -> B [1,2]\n", 4,
         "duplicate flow"),
        (SPLIT + "branch S A +\nbranch S A +\n", 7, "duplicate branch"),
        (SPLIT + "branch S A -\nbranch S B -\n", 3, "needs a '\\+' branch"),
        ("task A [1,2]\ntask B [1,2]\nflow A -> B [1,2]\nflow B -> A [1,2]\n", 1,
         "cycle through 'A'"),
        # compile_workflow's check: T3 and T4 lie on opposite branches of S1.
        (branching_workflow_text() + "constrain T3.S -> T4.S [0,10]\n", 23,
         "relates contradictory branch regions"),
    ]
    for text, line, message in cases:
        with pytest.raises(WorkflowError, match=message) as err:
            compile_workflow(parse_workflow(text))
        assert err.value.line == line, text


def test_branch_validation():
    base = ("task A [1,2]\ntask B [1,2]\nsplit S [1,2]\n"
            "flow S -> A [1,2]\nflow S -> B [1,2]\n")
    with pytest.raises(WorkflowError, match="lack signs"):
        parse_workflow(base)
    with pytest.raises(WorkflowError, match="exactly one"):
        parse_workflow(base + "branch S A +\nbranch S B +\n")
    with pytest.raises(WorkflowError, match="not a split"):
        parse_workflow("task A [1,2]\ntask B [1,2]\nflow A -> B [1,2]\n"
                       "branch A B +\n")
    with pytest.raises(WorkflowError, match="without a flow"):
        parse_workflow(base + "branch S A +\nbranch S B -\nbranch S S -\n")
    with pytest.raises(WorkflowError, match="at least two"):
        parse_workflow("task A [1,2]\nsplit S [1,2]\nflow S -> A [1,2]\n"
                       "branch S A +\n")


def test_cycle_rejected():
    with pytest.raises(WorkflowError, match="cycle"):
        parse_workflow("task A [1,2]\ntask B [1,2]\n"
                       "flow A -> B [1,2]\nflow B -> A [1,2]\n")
    # the report names a point on the cycle, not the root of the walk
    with pytest.raises(WorkflowError, match="cycle through 'B'"):
        parse_workflow("task A [1,2]\ntask B [1,2]\ntask C [1,2]\n"
                       "flow A -> B [1,2]\nflow B -> C [1,2]\nflow C -> B [1,2]\n")


def test_long_task_chain_compiles():
    lines = ["task T%d [1,2]" % i for i in range(1200)]
    lines += ["flow T%d -> T%d [0,1]" % (i - 1, i) for i in range(1, 1200)]
    network, cmap = compile_workflow(parse_workflow("\n".join(lines)))
    assert len(network.links) == 1200
    assert cmap.tasks["T1199"]["link"] == 1199


def test_single_task_compiles_to_one_link():
    net, cmap = compile_workflow(parse_workflow("task T [2,4]\n"))
    assert net.kind == "stnu"
    assert len(net.links) == 1
    link = net.links[0]
    assert (link.activation, link.lower, link.upper, link.contingent) == \
        ("T_S", 2, 4, "T_E")
    assert validate(net).ok
    assert cmap.tasks["T"]["start"] == "T_S"


def test_two_way_split_labels_and_observation():
    net, cmap = compile_workflow(parse_workflow(
        "task A [1,2]\ntask B [1,2]\nsplit S [1,2]\n"
        "flow S -> A [1,2]\nflow S -> B [1,2]\n"
        "branch S A +\nbranch S B -\n"))
    assert net.kind == "cstnu"
    assert validate(net).ok
    assert net.observations == {"a": "S_E"}
    assert net.label_of("A_S") == parse_label("a")
    assert net.label_of("B_E") == parse_label("!a")
    assert net.label_of("S_S") == parse_label("[]")
    # observation-before-use edges for the branch points
    eps = net.epsilon
    assert any(c.source == "A_S" and c.target == "S_E" and c.delta == -eps
               for c in net.constraints)


def test_join_reunifies_labels():
    net, _ = compile_workflow(parse_workflow(branching_workflow_text()))
    assert net.label_of("J1_S") == parse_label("[]")
    assert net.label_of("T5_S") == parse_label("[]")
    assert net.label_of("T3_S") == parse_label("a")
    assert net.label_of("T4_S") == parse_label("!a")


def test_three_way_split_uses_two_letters():
    net, cmap = compile_workflow(parse_workflow(
        "task A [1,2]\ntask B [1,2]\ntask C [1,2]\nsplit S [1,2]\n"
        "flow S -> A [1,2]\nflow S -> B [1,2]\nflow S -> C [1,2]\n"
        "branch S A +\nbranch S B -\nbranch S C -\n"))
    assert sorted(net.letters) == ["a", "b"]
    assert validate(net).ok
    entry = cmap.connectors["S"]
    assert entry["observation_points"][0] == "S_E"
    synthetic = entry["observation_points"][1]
    assert synthetic != "S_E"
    # the synthetic observation point is pinned to the split's end
    assert any(c.source == "S_E" and c.target == synthetic and c.delta == 0
               for c in net.constraints)
    # the '+' branch is the all-positive one
    assert net.label_of("A_S") == parse_label("ab")
    labels = {net.label_of("A_S"), net.label_of("B_S"), net.label_of("C_S")}
    assert len(labels) == 3


def test_anchor_constraint_label():
    net, _ = compile_workflow(parse_workflow(branching_workflow_text()))
    anchored = [c for c in net.constraints
                if c.source == "T4_S" and c.target == "T5_E"]
    assert len(anchored) == 1
    assert anchored[0].delta == 150
    assert anchored[0].label == parse_label("!a")


def test_compilation_is_deterministic():
    text = branching_workflow_text()
    n1, m1 = compile_workflow(parse_workflow(text))
    n2, m2 = compile_workflow(parse_workflow(text))
    assert n1 == n2
    assert m1.as_dict() == m2.as_dict()


def random_workflow(rng):
    """A random well-formed workflow: chains of tasks with up to two
    two-way splits, each branch rejoined."""
    lines = []
    counter = [0]

    def task():
        counter[0] += 1
        name = "T%d" % counter[0]
        lo = rng.randint(1, 5)
        lines.append("task %s [%d,%d]" % (name, lo, lo + rng.randint(1, 5)))
        return name

    def chain(head, length):
        for _ in range(length):
            new = task()
            lines.append("flow %s -> %s [0,%d]" % (head, new, rng.randint(1, 4)))
            head = new
        return head

    head = chain(task(), rng.randint(0, 2))
    for s in range(rng.randint(0, 2)):
        split, join = "S%d" % s, "J%d" % s
        lines.append("split %s [1,2]" % split)
        lines.append("join %s [1,2]" % join)
        lines.append("flow %s -> %s [0,3]" % (head, split))
        for sign in "+-":
            first = task()
            lines.append("flow %s -> %s [0,3]" % (split, first))
            lines.append("branch %s %s %s" % (split, first, sign))
            tail = chain(first, rng.randint(0, 1))
            lines.append("flow %s -> %s [0,3]" % (tail, join))
        head = join
    return "\n".join(lines) + "\n"


def test_random_workflows_compile_and_validate():
    rng = random.Random(23)
    for _ in range(20):
        text = random_workflow(rng)
        net, cmap = compile_workflow(parse_workflow(text))
        assert validate(net).ok, text
        assert set(cmap.tasks) == {t.id for t in parse_workflow(text).tasks}
