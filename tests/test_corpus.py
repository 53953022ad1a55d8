"""The deciders agree over a corpus: `check_dc` and `propagate_to_fixpoint`
on `bench/gen.py`'s `small_nets(1)` and on the networks of `tests/*.json`.

Only a benchmark run would otherwise see a verdict flip; these checks
hold the two deciders to each other, and `check_dc` to itself across
duration grids, in every test run.
"""

import glob
import os
import re
from collections import Counter

import pytest

from cstnu import check_dc, propagate_to_fixpoint
from cstnu.jsonio import loads, network_from_dict
from cstnu.search import EXHAUSTIVE_BUDGET, EXHAUSTIVE_POINTS
from helpers import bench_gen

HERE = os.path.dirname(os.path.abspath(__file__))

# Each "unknown" names the bound that stopped the search.
UNKNOWN = (
    r"exhaustive search skipped: \d+ points > exhaustive_points \(%d\)" % EXHAUSTIVE_POINTS,
    r"budget of %d nodes exhausted" % EXHAUSTIVE_BUDGET,
    r"no viable decision tree over \d+ candidate times; the grid may be too coarse",
)


@pytest.fixture(scope="module")
def corpus():
    """(name, network, check_dc's result, propagate_to_fixpoint's result)
    for each network of the corpus."""
    named = [("small_nets(1)/%d" % i, text) for i, text in enumerate(bench_gen().small_nets(1))]
    for path in sorted(glob.glob(os.path.join(HERE, "*.json"))):
        with open(path) as f:
            named.append((os.path.basename(path), f.read()))
    out = []
    for name, text in named:
        network = network_from_dict(loads(text))
        out.append((name, network, check_dc(network), propagate_to_fixpoint(network)))
    return out


def test_a_refutation_comes_with_not_controllable(corpus):
    refuted = 0
    for name, _, result, propagation in corpus:
        if propagation.refuted:
            refuted += 1
            assert result.verdict == "not-controllable", name
        if result.verdict == "controllable":
            assert not propagation.refuted, name
    assert refuted > 0


def test_controllable_at_grid_3_stays_controllable_at_grids_2_and_4(corpus):
    held = 0
    for name, network, result, _ in corpus:
        if network.links and result.controllable:
            held += 1
            for grid in (2, 4):
                assert check_dc(network, grid=grid).controllable, (name, grid)
    assert held == 433


def test_every_unknown_names_its_bound(corpus):
    unknown = [(name, result) for name, _, result, _ in corpus if result.verdict == "unknown"]
    assert unknown
    for name, result in unknown:
        assert any(re.fullmatch(form, result.evidence) for form in UNKNOWN), (name, result)
        assert "duration grid 3 per link" in result.sample, name


def test_the_verdicts_are_pinned(corpus):
    small = Counter(result.verdict for name, _, result, _ in corpus
                    if name.startswith("small_nets"))
    assert small == {"controllable": 827, "not-controllable": 147, "unknown": 26}
    assert {name: result.verdict for name, _, result, _ in corpus
            if not name.startswith("small_nets")} == {
        "dead_label_workflow.json": "not-controllable",
        "epsilon_overshoot.json": "controllable",
        "greedy_trap.json": "controllable",
        "mixed_denominators.json": "controllable",
    }
