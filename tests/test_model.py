"""Network construction, validation, and the lifting constructions."""

import random
from fractions import Fraction

import pytest

from cstnu import (Constraint, ContingentLink, Cstp, CstpEdge, CstpError,
                   LabeledConstraint, Network, Stn, TimePoint, embed_cstn,
                   embed_cstp, embed_stn, embed_stnu, parse_label, strip_labels,
                   to_stn, validate, validate_cstn, validate_cstnu,
                   validate_stnu)
from helpers import random_cstn, random_cstp, random_consistent_stn, random_stnu


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
    assert len([v for v in validate_stnu(missing).violations
                if "missing" in v.message]) == 2

    shared = Network(
        timepoints=["A", "B", "C"],
        constraints=[LabeledConstraint("A", "C", 3), LabeledConstraint("C", "A", -1),
                     LabeledConstraint("B", "C", 3), LabeledConstraint("C", "B", -1)],
        links=[ContingentLink("A", 1, 3, "C"), ContingentLink("B", 1, 3, "C")])
    assert any("shared" in v.message for v in validate_stnu(shared).violations)

    loop = Network(
        timepoints=["A", "C"],
        constraints=[LabeledConstraint("A", "C", 3), LabeledConstraint("C", "A", -1),
                     LabeledConstraint("C", "A", 3), LabeledConstraint("A", "C", -1)],
        links=[ContingentLink("A", 1, 3, "C"), ContingentLink("C", 1, 3, "A")])
    assert any("loop" in v.message for v in validate_stnu(loop).violations)


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
