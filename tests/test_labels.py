"""Label algebra tests against a brute-force truth-table oracle."""

from itertools import product

import pytest

from cstnu import (EMPTY, INCONSISTENT, Label, Scenario, con, conjoin,
                   enumerate_universe, evaluate, parse_label, sub)


def assignments(letters):
    letters = sorted(letters)
    return [dict(zip(letters, bits))
            for bits in product([True, False], repeat=len(letters))]


def models(label, letters):
    return {tuple(sorted(a.items())) for a in assignments(letters)
            if evaluate(label, a)}


def test_label_is_canonical():
    assert Label([("b", True), ("a", False)]) == Label([("a", False), ("b", True)])
    assert str(Label([("b", True), ("a", False)])) == "!ab"
    assert str(EMPTY) == "[]"


def test_contradictory_label_rejected():
    with pytest.raises(ValueError):
        Label([("a", True), ("a", False)])


def test_bad_letter_rejected():
    with pytest.raises(ValueError):
        Label([("ab", True)])
    with pytest.raises(ValueError):
        Label([("", True)])


@pytest.mark.parametrize("build", [lambda value: Scenario({"p": value}),
                                   lambda value: Label([("p", value)])],
                         ids=["Scenario", "Label"])
@pytest.mark.parametrize("value", ["false", None, 2, 1.0, []])
def test_a_truth_value_that_is_not_a_bool_or_0_or_1_is_refused(build, value):
    # Each was read by its truthiness: "false" and 2 as true, None as false.
    with pytest.raises(ValueError) as err:
        build(value)
    assert str(err.value) == "letter 'p': a truth value is a bool, 0 or 1, not %r" % (value,)
    assert build(1) == build(True) != build(0) == build(False)


def test_conjoin_basics():
    a = parse_label("a")
    nb = parse_label("!b")
    assert conjoin(a, nb) == parse_label("a!b")
    assert conjoin(a, EMPTY) == a
    assert conjoin(a, parse_label("!a")) is INCONSISTENT
    assert not con(a, parse_label("!a"))
    assert con(a, nb)


def test_conjoin_commutative_and_idempotent():
    universe = enumerate_universe("ab")
    for l1 in universe:
        assert conjoin(l1, l1) == l1
        for l2 in universe:
            assert conjoin(l1, l2) == conjoin(l2, l1)


def test_universe_size_and_uniqueness():
    for letters in ("", "a", "ab", "abc"):
        universe = enumerate_universe(letters)
        assert len(universe) == 3 ** len(letters)
        assert len(set(universe)) == len(universe)


def test_con_matches_truth_tables():
    letters = "abc"
    for l1 in enumerate_universe(letters):
        m1 = models(l1, letters)
        for l2 in enumerate_universe(letters):
            assert con(l1, l2) == bool(m1 & models(l2, letters)), (l1, l2)


def test_sub_matches_truth_tables():
    letters = "abc"
    for l1 in enumerate_universe(letters):
        m1 = models(l1, letters)
        for l2 in enumerate_universe(letters):
            assert sub(l1, l2) == (m1 <= models(l2, letters)), (l1, l2)


def test_sub_edge_cases():
    assert sub(parse_label("a!b"), parse_label("a"))
    assert not sub(parse_label("a"), parse_label("a!b"))
    assert sub(parse_label("a"), EMPTY)
    assert not sub(EMPTY, parse_label("a"))


def test_evaluate_requires_assignment():
    with pytest.raises(ValueError):
        evaluate(parse_label("a"), {})
    assert evaluate(parse_label("a!b"), {"a": True, "b": False})
    assert not evaluate(parse_label("a!b"), {"a": True, "b": True})
    assert evaluate(EMPTY, {})


def test_parse_round_trip():
    for text in ("[]", "a", "!a", "a!bc"):
        assert str(parse_label(text)) == text


def test_parse_errors():
    for text in ("", "!", "aa", "a!", "a b"):
        with pytest.raises(ValueError):
            parse_label(text)


def test_without_drops_letters():
    label = parse_label("a!bc")
    assert label.without({"b"}) == parse_label("ac")
    assert label.without({"a", "b", "c"}) == EMPTY
    assert label.sign("a") is True and label.sign("b") is False
    assert label.sign("z") is None
