"""End-to-end acceptance checks.

Each test exercises one headline capability, prints a single pass/fail
line, and asserts a wall-clock budget.  Run with `pytest -s` to see the
lines as they complete.
"""

import itertools
import random
import time
from fractions import Fraction

from cstnu import (LabeledConstraint, Network, check_dc, compile_workflow, con,
                   embed_stn, enumerate_universe, is_dynamic_star, is_viable,
                   parse_label, parse_workflow, propagate_to_fixpoint, sc_hst,
                   sc_hst_star, solve, sub, to_stn, validate, validate_cstnu)
from cstnu.fixtures import branching_workflow_text
from helpers import (random_cstn, random_consistent_stn, random_cstn_strategy,
                     random_cstp, random_stn, random_stnu)
from reference import (embed_cstn, embed_cstp, embed_stnu, is_dynamic_cstn,
                       label_modification, modification_pair, modification_study,
                       tight_contingent_stnu, tree_strategy_masks, verify_cstn_embedding,
                       verify_stnu_embedding)


def report(name, ok, elapsed, budget):
    print("%-38s %s  (%.3fs, budget %gs)"
          % (name, "PASS" if ok else "FAIL", elapsed, budget))
    assert ok
    assert elapsed < budget, "%s exceeded its %gs budget" % (name, budget)


def test_label_universe_enumeration():
    start = time.perf_counter()
    universe = set(enumerate_universe(["A", "B"]))
    expected = {parse_label(t) for t in
                ["[]", "A", "B", "!A", "!B", "AB", "A!B", "!AB", "!A!B"]}
    report("label universe over two letters",
           universe == expected, time.perf_counter() - start, 0.001)


def _truth_labels(letters):
    labels = []
    for mask in itertools.product([True, False, None], repeat=len(letters)):
        labels.append(parse_label("".join(
            ("" if v else "!") + p
            for p, v in zip(letters, mask) if v is not None) or "[]"))
    return labels


def test_label_algebra_matches_truth_tables():
    start = time.perf_counter()
    letters = ["a", "b", "c"]
    labels = _truth_labels(letters)
    assignments = [dict(zip(letters, bits))
                   for bits in itertools.product([True, False], repeat=3)]

    def models(label):
        return frozenset(i for i, w in enumerate(assignments)
                         if all(w[p] == v for p, v in label.literals))

    mismatches = 0
    for l1 in labels:
        for l2 in labels:
            if con(l1, l2) != bool(models(l1) & models(l2)):
                mismatches += 1
            if sub(l1, l2) != (models(l1) <= models(l2)):
                mismatches += 1
    report("label algebra vs truth tables (%d pairs)" % (len(labels) ** 2),
           mismatches == 0, time.perf_counter() - start, 1.0)


def test_embeddings_validate():
    start = time.perf_counter()
    rng = random.Random(101)
    failures = 0
    for _ in range(50):
        for net in (embed_stn(random_consistent_stn(rng)[0]),
                    embed_cstp(random_cstp(rng)),
                    embed_stnu(random_stnu(rng)),
                    embed_cstn(random_cstn(rng))):
            if not validate(net).ok:
                failures += 1
    report("50x4 randomized embeddings validate",
           failures == 0, time.perf_counter() - start, 10.0)


def _dynamicity_corpus():
    rng = random.Random(202)
    corpus = []
    for _ in range(200):
        net = random_cstn(rng, max_letters=3, max_points=6)
        corpus.append((net, random_cstn_strategy(rng, net)))
    return corpus


def test_dynamic_checks_agree():
    start = time.perf_counter()
    mismatches = sum(
        1 for net, strat in _dynamicity_corpus()
        if is_dynamic_cstn(net, strat).ok != is_dynamic_star(net, strat).ok)
    report("dynamic vs dynamic* on 200 strategies",
           mismatches == 0, time.perf_counter() - start, 60.0)


def test_history_of_point_equals_history_at_its_time():
    start = time.perf_counter()
    mismatches = 0
    for net, strat in _dynamicity_corpus():
        for scenario, schedule in strat.table.items():
            for point in schedule:
                if sc_hst(net, scenario, strat, point) != \
                        sc_hst_star(net, scenario, strat, schedule[point]):
                    mismatches += 1
    report("point history == time history",
           mismatches == 0, time.perf_counter() - start, 60.0)


def test_label_modification_textbook_instance():
    start = time.perf_counter()
    letter, obs_point, obs_c, target_c = modification_pair()
    mod = label_modification(letter, obs_point, obs_c, target_c)
    ok = (mod.derived == LabeledConstraint("X", "Y", Fraction(5),
                                           parse_label("abc"))
          and mod.residuals == (LabeledConstraint("X", "Y", Fraction(5),
                                                  parse_label("!abcp")),)
          and (mod.alpha, mod.beta, mod.gamma) ==
          (parse_label("a"), parse_label("b"), parse_label("c")))
    report("label modification exact output",
           ok, time.perf_counter() - start, 0.001)


def test_label_modification_preserves_strategy_sets():
    start = time.perf_counter()
    net, sets, grid = modification_study()
    masks = tree_strategy_masks(net, sets, grid)
    # bit i of a mask: the strategy violates constraint set i.
    # set 0 = original, set 1 = after the rewrite, set 2 = derived only.
    satisfies_original_implies_derived = not any(
        not (m & 1) and (m & 4) for m in masks)
    rewrite_neutral = all(bool(m & 1) == bool(m & 2) for m in masks)
    report("modification sound and strategy-neutral",
           satisfies_original_implies_derived and rewrite_neutral,
           time.perf_counter() - start, 300.0)


def test_unlabeled_propagation_equals_shortest_paths():
    start = time.perf_counter()
    rng = random.Random(303)
    failures = 0
    for _ in range(50):
        stn = random_stn(rng, max_points=8)
        net = Network(timepoints=sorted(stn.timepoints),
                      constraints=[LabeledConstraint(c.source, c.target, c.delta)
                                   for c in stn.constraints])
        result = propagate_to_fixpoint(net)
        matrix = solve(to_stn(net))
        if result.refuted != (not matrix.consistent):
            failures += 1
            continue
        if result.refuted:
            continue
        best = {}
        for c in result.constraints:
            if c.source != c.target:
                key = (c.source, c.target)
                best[key] = min(best.get(key, c.delta), c.delta)
        for a in stn.timepoints:
            for b in stn.timepoints:
                if a == b:
                    continue
                d = matrix.distance(a, b)
                if d == float("inf"):
                    if (a, b) in best:
                        failures += 1
                elif best.get((a, b)) != d:
                    failures += 1
    report("fixpoint == shortest paths (50 nets)",
           failures == 0, time.perf_counter() - start, 10.0)


def test_embedded_networks_keep_their_verdicts():
    start = time.perf_counter()
    rng = random.Random(404)
    mismatches = 0
    for _ in range(20):
        if not verify_cstn_embedding(random_cstn(rng, max_letters=2,
                                                 max_points=4)):
            mismatches += 1
    for _ in range(20):
        if not verify_stnu_embedding(random_stnu(rng, max_links=2,
                                                 extra_points=1)):
            mismatches += 1
    report("embedding keeps verdict (20+20 nets)",
           mismatches == 0, time.perf_counter() - start, 300.0)


def test_branching_workflow_is_controllable():
    start = time.perf_counter()
    net, cmap = compile_workflow(parse_workflow(branching_workflow_text()))
    ok = validate_cstnu(net).ok
    result = check_dc(net)
    ok = ok and result.verdict == "controllable"
    ok = ok and is_viable(net, result.strategy).ok
    ok = ok and is_dynamic_star(net, result.strategy).ok
    if ok:
        for drama, schedule in result.strategy.table.items():
            buffer = schedule["T5_S"] - schedule["J1_E"]
            if drama.scenario.value("a"):
                ok = ok and 1 <= buffer <= 31
            else:
                ok = ok and 32 <= buffer <= 42
    report("branching workflow controllable",
           ok, time.perf_counter() - start, 300.0)


def test_squeezed_contingent_link_rejected():
    start = time.perf_counter()
    result = check_dc(tight_contingent_stnu())
    ok = (result.verdict == "not-controllable"
          and "inconsistent" in result.evidence)
    report("squeezed contingent link rejected",
           ok, time.perf_counter() - start, 1.0)
