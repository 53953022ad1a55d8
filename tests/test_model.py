"""Network construction, validation, and the lifting constructions."""

import pickle
import random
import re
from copy import deepcopy
from dataclasses import replace
from fractions import Fraction

import pytest

from cstnu import (Constraint, ContingentLink, LabeledConstraint, Network, Stn,
                   TimePoint, check_dc, compile_workflow, embed_stn, model, parse_label,
                   parse_workflow, strip_labels, to_stn, validate, validate_cstn,
                   validate_cstnu, validate_stnu)
from cstnu.fixtures import branching_workflow_text
from cstnu.jsonio import dumps, loads, network_from_dict, network_to_dict
from helpers import (bench_gen, random_consistent_stn, random_cstn, random_cstnu,
                     random_cstp, random_label, random_stn, random_stnu)
from reference import (Cstp, CstpEdge, CstpError, embed_cstn, embed_cstp, embed_stnu,
                       naive_validate, naive_validate_cstn, naive_validate_cstnu,
                       naive_validate_stnu)


def small_cstn():
    return Network(
        timepoints=[TimePoint("Op"), TimePoint("X", parse_label("p"))],
        constraints=[
            LabeledConstraint("X", "Op", Fraction(-1, 1000), parse_label("p")),
            LabeledConstraint("Op", "X", Fraction(5), parse_label("p"))],
        letters=["p"], observations={"p": "Op"})


def test_kind_inference():
    assert Network(timepoints=["A"]).kind == "stn"
    assert small_cstn().kind == "cstn"
    stnu = random_stnu(random.Random(0))
    assert stnu.kind == "stnu"


def test_structural_errors():
    with pytest.raises(ValueError):
        Network(timepoints=[TimePoint("A"), TimePoint("A")])
    with pytest.raises(ValueError, match="^time-point id 5 is not a string$"):
        Network(timepoints=[TimePoint(5)])
    with pytest.raises(ValueError):
        Network(timepoints=["A"], constraints=[LabeledConstraint("A", "B", 1)])
    with pytest.raises(ValueError):
        Network(timepoints=["A"], letters=["p"], observations={})
    with pytest.raises(ValueError):
        Network(timepoints=["A"], letters=["p"], observations={"p": "Z"})
    with pytest.raises(ValueError):
        Network(timepoints=["A"],
                constraints=[LabeledConstraint("A", "A", 1, parse_label("q"))])
    with pytest.raises(ValueError):
        Network(timepoints=["A"], epsilon=0)
    for letter in ("", "!", "ab", " "):   # letters no label can hold
        with pytest.raises(ValueError, match="letter must be a single alphanumeric symbol"):
            Network(timepoints=["A"], letters=[letter], observations={letter: "A"})


def test_a_time_point_label_that_is_not_a_label_is_named():
    with pytest.raises(ValueError, match="^time-point 'A' has label 'a', not a Label$"):
        Network(timepoints=[TimePoint("A", "a")], letters=["a"], observations={"a": "A"})


def test_a_constraint_label_that_is_not_a_label_is_named():
    with pytest.raises(ValueError, match=r"^constraint \(B - A <= 1, p\) has label 'p', not a Label$"):
        Network(timepoints=["A", "B"], constraints=[LabeledConstraint("A", "B", 1, "p")],
                letters=["p"], observations={"p": "A"})


def test_an_unlabeled_constraint_is_named():
    with pytest.raises(ValueError, match=r"^constraint Constraint\(source='A', target='B', "
                                         r"delta=1\) is not a LabeledConstraint$"):
        Network(timepoints=["A", "B"], constraints=[Constraint("A", "B", 1)])


def test_an_observation_point_that_is_not_an_id_is_named():
    with pytest.raises(ValueError, match=r"^observation point \['A'\] not a time-point$"):
        Network(timepoints=["A"], letters=["p"], observations={"p": ["A"]})


def test_numbers_are_exact_at_the_boundary():
    with pytest.raises(ValueError):
        Network(timepoints=["A", "B"], constraints=[LabeledConstraint("A", "B", 0.1)])
    with pytest.raises(ValueError):
        Network(timepoints=["A", "B"], constraints=[LabeledConstraint("A", "B", "soon")])
    with pytest.raises(ValueError):
        Network(timepoints=["A", "C"], links=[ContingentLink("A", 1.5, 3, "C")])
    net = Network(timepoints=["A", "C"],
                  constraints=[LabeledConstraint("A", "C", "3"),
                               LabeledConstraint("C", "A", -1)],
                  links=[ContingentLink("A", "1", "3", "C")])
    assert {type(c.delta) for c in net.constraints} == {Fraction}
    assert LabeledConstraint("A", "C", Fraction(3)) in net.constraints
    assert net.links == (ContingentLink("A", Fraction(1), Fraction(3), "C"),)
    assert type(net.links[0].lower) is Fraction
    assert validate(net).ok


def test_valid_cstn_passes():
    assert validate_cstn(small_cstn()).ok


def test_wd1_violation_reported():
    net = Network(
        timepoints=[TimePoint("Op"), TimePoint("X", parse_label("p")),
                    TimePoint("Y")],
        constraints=[
            LabeledConstraint("X", "Op", Fraction(-1, 1000), parse_label("p")),
            # label does not subsume X's label p
            LabeledConstraint("X", "Y", Fraction(3))],
        letters=["p"], observations={"p": "Op"})
    report = validate_cstn(net)
    assert not report.ok
    assert any(v.code == "WD1" for v in report.violations)


def test_wd2_missing_edge_reported():
    net = Network(
        timepoints=[TimePoint("Op"), TimePoint("X", parse_label("p"))],
        constraints=[LabeledConstraint("Op", "X", Fraction(5), parse_label("p"))],
        letters=["p"], observations={"p": "Op"})
    report = validate_cstn(net)
    assert any(v.code == "WD2" for v in report.violations)


def test_wd3_violation_reported():
    # Oq itself is labeled p, but the q-labeled constraint ignores p.
    net = Network(
        timepoints=[TimePoint("Op"), TimePoint("Oq", parse_label("p")),
                    TimePoint("X")],
        constraints=[
            LabeledConstraint("Oq", "Op", Fraction(-1, 1000), parse_label("p")),
            LabeledConstraint("X", "Oq", Fraction(-1, 1000), parse_label("q")),
            LabeledConstraint("Oq", "X", Fraction(5), parse_label("q"))],
        letters=["p", "q"], observations={"p": "Op", "q": "Oq"})
    report = validate_cstn(net)
    assert any(v.code == "WD3" for v in report.violations)


def test_stnu_link_conditions():
    good = Network(
        timepoints=["A", "C"],
        constraints=[LabeledConstraint("A", "C", 3), LabeledConstraint("C", "A", -1)],
        links=[ContingentLink("A", 1, 3, "C")])
    assert validate_stnu(good).ok

    bad_range = Network(timepoints=["A", "C"],
                        constraints=[LabeledConstraint("A", "C", 1),
                                     LabeledConstraint("C", "A", -3)],
                        links=[ContingentLink("A", 3, 1, "C")])
    assert any(v.code == "LINK" for v in validate_stnu(bad_range).violations)

    missing = Network(timepoints=["A", "C"],
                      links=[ContingentLink("A", 1, 3, "C")])
    assert [v.message for v in validate_stnu(missing).violations] == [
        "missing constraint C - A <= 3", "missing constraint A - C <= -1"]

    shared = Network(
        timepoints=["A", "B", "C"],
        constraints=[LabeledConstraint("A", "C", 3), LabeledConstraint("C", "A", -1),
                     LabeledConstraint("B", "C", 3), LabeledConstraint("C", "B", -1)],
        links=[ContingentLink("A", 1, 3, "C"), ContingentLink("B", 1, 3, "C")])
    assert any("shared" in v.message for v in validate_stnu(shared).violations)

    # two disjoint loops: each is reported
    pairs = [("A", "C"), ("C", "A"), ("B", "D"), ("D", "B")]
    loops = Network(
        timepoints=["A", "B", "C", "D"],
        constraints=[c for a, b in pairs for c in (LabeledConstraint(a, b, 3),
                                                   LabeledConstraint(b, a, -1))],
        links=[ContingentLink(a, 1, 3, b) for a, b in pairs])
    assert [v.message for v in validate_stnu(loops).violations] == [
        "contingent links form a loop through 'A'",
        "contingent links form a loop through 'B'"]


def test_cstnu_needs_labeled_bounds_and_matching_labels():
    net = Network(
        timepoints=[TimePoint("Op"), TimePoint("A", parse_label("p")),
                    TimePoint("C")],
        constraints=[
            LabeledConstraint("A", "Op", Fraction(-1, 1000), parse_label("p")),
            LabeledConstraint("A", "C", 3), LabeledConstraint("C", "A", -1)],
        letters=["p"], observations={"p": "Op"},
        links=[ContingentLink("A", 1, 3, "C")])
    report = validate_cstnu(net)
    assert any(v.code == "LINK-LABEL" for v in report.violations)


def test_strip_labels_collapses_duplicates():
    cons = [LabeledConstraint("A", "B", 1, parse_label("p")),
            LabeledConstraint("A", "B", 1, parse_label("!p"))]
    assert strip_labels(cons) == frozenset({Constraint("A", "B", 1)})


def test_embed_stn_round_trip():
    stn, _ = random_consistent_stn(random.Random(3))
    net = embed_stn(stn)
    assert net.kind == "stn"
    assert validate(net).ok
    assert to_stn(net) == Stn(stn.timepoints, stn.constraints)


def test_embed_cstp_produces_valid_network():
    cstp = random_cstp(random.Random(5))
    net = embed_cstp(cstp)
    assert validate_cstn(net).ok


def test_embed_cstp_rejects_contradictory_edge():
    cstp = Cstp(
        timepoints=(("Op", parse_label("[]")), ("X", parse_label("p")),
                    ("Y", parse_label("!p"))),
        letters=frozenset("p"), observations={"p": "Op"},
        edges=(CstpEdge("Op", "X", 1, 10), CstpEdge("Op", "Y", 1, 10),
               CstpEdge("X", "Y", 1, 2)))
    with pytest.raises(CstpError, match="contradict|inconsistent"):
        embed_cstp(cstp)


def test_embed_cstp_rejects_late_observation():
    cstp = Cstp(
        timepoints=(("Op", parse_label("[]")), ("X", parse_label("p"))),
        letters=frozenset("p"), observations={"p": "Op"},
        edges=())
    with pytest.raises(CstpError, match="observation"):
        embed_cstp(cstp)


def test_embed_stnu_and_cstn_preserve_content():
    rng = random.Random(7)
    stnu = random_stnu(rng)
    lifted = embed_stnu(stnu)
    assert lifted.links == stnu.links
    assert validate(lifted).ok

    cstn = random_cstn(rng)
    lifted = embed_cstn(cstn)
    assert lifted.links == ()
    assert validate(lifted).ok
    assert lifted == cstn


def test_random_embeddings_validate():
    rng = random.Random(11)
    for _ in range(25):
        assert validate(embed_stn(random_consistent_stn(rng)[0])).ok
        assert validate(embed_cstp(random_cstp(rng))).ok
        assert validate(embed_stnu(random_stnu(rng))).ok
        assert validate(embed_cstn(random_cstn(rng))).ok


# The validators' messages other than the two missing link bounds, by
# name: (code, pattern of the whole message).
MESSAGES = {
    "WD1": ("WD1", r"label of \(.+\) does not subsume both end-point labels"),
    "WD2 label": ("WD2", r"label of '\w+' does not subsume the label of the "
                         r"observation point of '\w'"),
    "WD2 guard": ("WD2", r"missing \(\w+ - \w+ <= -\S+, \S+\) constraint"),
    "WD3": ("WD3", r"label of \(.+\) does not subsume the label of the "
                   r"observation point of '\w'"),
    "LINK identical": ("LINK", r"link \(.+\) has identical end-points"),
    "LINK range": ("LINK", r"link \(.+\) violates 0 < x < y"),
    "LINK shared": ("LINK", r"contingent point '\w+' shared by two links"),
    "LINK loop": ("LINK", r"contingent links form a loop through '\w+'"),
    "LINK-LABEL labels": ("LINK-LABEL", r"link end-points '\w+' and '\w+' carry "
                                        r"different labels"),
    "LINK-LABEL bound": ("LINK-LABEL", r"missing labeled bound \(.+\)"),
}


def message_kind(network, violation):
    """Which message `violation` is: a name of MESSAGES, "LINK upper" or
    "LINK lower" (a missing bound of a link of `network`), or None."""
    bound = re.fullmatch(r"missing constraint (\w+) - (\w+) <= (\S+)", violation.message)
    if violation.code == "LINK" and bound:
        x, y, delta = bound.group(1), bound.group(2), Fraction(bound.group(3))
        for link in network.links:
            if (link.contingent, link.activation, link.upper) == (x, y, delta):
                return "LINK upper"
            if (link.activation, link.contingent, -link.lower) == (x, y, delta):
                return "LINK lower"
        return None
    for kind, (code, pattern) in MESSAGES.items():
        if violation.code == code and re.fullmatch(pattern, violation.message):
            return kind
    return None


def planted(rng, network):
    """`network` with one to three faults planted at random: a point
    relabeled, a constraint dropped, re-timed or added under a random
    label, or a link added between random points with random bounds."""
    labels = {p: tp.label for p, tp in network.timepoints.items()}
    points, letters = sorted(labels), sorted(network.letters)
    constraints = sorted(network.constraints, key=str)
    links = list(network.links)
    for _ in range(rng.randint(1, 3)):
        fault = rng.randrange(5)
        if fault == 0:
            labels[rng.choice(points)] = random_label(rng, letters)
        elif fault == 1 and constraints:
            constraints.pop(rng.randrange(len(constraints)))
        elif fault == 2 and constraints:
            i = rng.randrange(len(constraints))
            constraints[i] = replace(constraints[i], delta=constraints[i].delta + rng.choice((-1, 1)))
        elif fault == 3:
            constraints.append(LabeledConstraint(rng.choice(points), rng.choice(points),
                                                 Fraction(rng.randint(-5, 5)),
                                                 random_label(rng, letters)))
        else:
            links.append(ContingentLink(rng.choice(points), Fraction(rng.randint(-3, 4)),
                                        Fraction(rng.randint(-1, 6)), rng.choice(points)))
    return Network([TimePoint(p, l) for p, l in labels.items()], constraints, letters,
                   network.observations, links, network.epsilon)


def test_validators_match_the_reference_on_planted_faults():
    rng = random.Random(5)
    makers = (lambda: embed_stn(random_stn(rng)), lambda: random_cstn(rng, max_letters=3),
              lambda: random_stnu(rng), lambda: random_cstnu(rng, max_letters=3))
    pairs = ((validate, naive_validate), (validate_cstn, naive_validate_cstn),
             (validate_stnu, naive_validate_stnu), (validate_cstnu, naive_validate_cstnu))
    seen = set()
    for _ in range(150):
        for make in makers:
            network = planted(rng, make())
            for fast, naive in pairs:
                assert fast(network) == naive(network), network
            for violation in naive_validate(network).violations:
                kind = message_kind(network, violation)
                assert kind is not None, violation
                seen.add(kind)
    assert seen == set(MESSAGES) | {"LINK upper", "LINK lower"}


def test_random_cstnu_is_well_defined():
    rng = random.Random(6)
    for _ in range(50):
        network = random_cstnu(rng)
        assert network.kind == "cstnu" and validate(network).ok


class CountingConstraints(frozenset):
    """A constraint set that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def bench_workflow(n):
    """`bench/gen.py`'s loose workflow of two splits with n-task arms,
    compiled."""
    text = bench_gen().workflow(random.Random("scale/1"), (2, ((n, n, 1),) * 2), True)
    return compile_workflow(parse_workflow(text))[0]


def rebuilt(network, constraints):
    """A new network, which no `validate` has seen, of `network`'s parts
    but with `constraints`."""
    return Network(network.timepoints.values(), constraints, network.letters,
                   network.observations, network.links, network.epsilon)


def counted(network):
    """A copy of `network` that no `validate` has seen, whose constraint
    set counts the passes made over it.  The set is put in past the
    network's freeze, as only a test may."""
    copy = rebuilt(network, network.constraints)
    object.__setattr__(copy, "constraints", CountingConstraints(copy.constraints))
    return copy


def test_validation_passes_do_not_grow_with_the_network():
    passes = {}
    for n, points in ((1, 24), (10, 96)):
        for check in (validate, naive_validate):
            network = counted(bench_workflow(n))
            assert len(network.timepoints) == points
            assert check(network).ok
            passes[check, points] = network.constraints.passes
    assert passes[validate, 24] > 0
    assert passes[validate, 24] == passes[validate, 96]
    # the reference scans once per labeled point and letter
    assert passes[naive_validate, 24] < passes[naive_validate, 96]


def fixture_network():
    return compile_workflow(parse_workflow(branching_workflow_text()))[0]


def without_labeled_lower_bound(network):
    """`network` less the labeled lower bound of its first link."""
    link = network.links[0]
    bound = LabeledConstraint(link.contingent, link.activation, -link.lower,
                              network.label_of(link.activation))
    assert bound in network.constraints
    return rebuilt(network, network.constraints - {bound})


def test_validate_returns_the_report_it_kept():
    valid = fixture_network()
    report = validate(valid)
    assert report.ok and validate(valid) is report
    invalid = without_labeled_lower_bound(fixture_network())
    report = validate(invalid)
    assert validate(invalid) is report and not report.ok
    assert "LINK-LABEL" in {v.code for v in report.violations}
    # the per-kind validator keeps nothing: a fresh pass, the same messages
    fresh = validate_cstnu(invalid)
    assert fresh is not report and fresh == report
    assert [str(v) for v in fresh.violations] == [str(v) for v in report.violations]


def test_a_network_cannot_change():
    network = fixture_network()
    for name in ("timepoints", "constraints", "letters", "observations", "links", "epsilon",
                 "kind", "new_field"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(network, name, None)
    for name in ("timepoints", "constraints", "epsilon", "_report"):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(network, name)
    with pytest.raises(TypeError):
        network.timepoints["X"] = TimePoint("X")
    with pytest.raises(TypeError):
        network.observations["z"] = "X"
    with pytest.raises(AttributeError):
        network.observations.clear()
    assert network == fixture_network()


def test_compile_validate_and_check_dc_make_one_pass(monkeypatch):
    passes, one_pass = [], model.validate_cstnu

    def counted_pass(network):
        passes.append(network)
        return one_pass(network)

    monkeypatch.setattr(model, "validate_cstnu", counted_pass)
    network = compile_workflow(parse_workflow(branching_workflow_text()))[0]
    assert validate(network).ok
    assert check_dc(network).controllable
    assert len(passes) == 1 and passes[0] is network


def test_a_frozen_network_compares_copies_serializes_and_pickles():
    network = fixture_network()
    copy = rebuilt(network, network.constraints)
    assert copy == network and copy.observations == dict(network.observations)
    assert network_to_dict(copy) == network_to_dict(network)
    assert network_from_dict(loads(dumps(network_to_dict(network)))) == network
    assert copy != without_labeled_lower_bound(network)
    assert pickle.loads(pickle.dumps(network)) == network
    assert deepcopy(network) == network
