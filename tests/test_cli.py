"""Command-line interface: exit codes, payloads, reproducibility."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

import cstnu
from cstnu import compile_workflow, parse_workflow
from cstnu.cli import build_parser, main
from cstnu.fixtures import branching_workflow_text, tight_contingent_stnu
from cstnu.jsonio import dumps, network_to_dict
from cstnu.projection import DEFAULT_GRID, sample_situations
from cstnu.propagation import DEFAULT_BUDGET, propagate_to_fixpoint
from cstnu.search import check_dc
from helpers import (DEAD_LABEL_WORKFLOW, EPSILON_OVERSHOOT, GREEDY_TRAP, MIXED_DENOMINATORS,
                     epsilon_overshoot, later_classmates, link_chain, mixed_denominators,
                     shifted_entry)


@pytest.fixture
def bad_stnu(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(dumps(network_to_dict(tight_contingent_stnu())))
    return str(path)


@pytest.fixture
def workflow_file(tmp_path):
    path = tmp_path / "flow.wf"
    path.write_text(branching_workflow_text())
    return str(path)


@pytest.fixture
def fixture_network(tmp_path):
    """The branching-workflow fixture compiled to a network file."""
    path = tmp_path / "net.json"
    path.write_text(dumps(network_to_dict(
        compile_workflow(parse_workflow(branching_workflow_text()))[0])))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys, bad_stnu):
    code, out, _ = run(capsys, "validate", bad_stnu)
    assert code == 0 and "ok" in out


def test_validate_long_link_chain(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(dumps(network_to_dict(link_chain(1200))))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and "ok" in out


def test_validate_reports_violations(capsys, tmp_path):
    net = network_to_dict(tight_contingent_stnu())
    net["constraints"] = net["constraints"][:1]   # drop required link bounds
    path = tmp_path / "broken.json"
    path.write_text(dumps(net))
    code, out, _ = run(capsys, "validate", "--json", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and payload["violations"]


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "no-such-file.json")
    assert code == 2 and "error" in err


def test_malformed_json_is_usage_error(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2


NET = {"timepoints": [{"id": "A"}, {"id": "B"}],
       "constraints": [{"from": "A", "to": "B", "delta": "3"}]}


@pytest.mark.parametrize("command, network, strategy, message", [
    ("check-dc", {"timepoints": [{"id": 5}, {"id": 7}],
                  "constraints": [{"from": 5, "to": 7, "delta": "3"}]}, None,
     "time-point id 5 is not a string"),
    ("validate", [NET], None, "expected a JSON object, got list"),
    ("validate", {"timepoints": [{}]}, None, "missing key 'id'"),
    ("validate", dict(NET, constraints=[{"from": "A", "delta": "3"}]), None,
     "missing key 'to'"),
    ("validate", dict(NET, links=[{"activation": "A", "lower": "1", "upper": "2"}]), None,
     "missing key 'contingent'"),
    ("verify-strategy", NET, [], "expected a JSON object, got list"),
], ids=["integer-ids", "network-list", "no-id", "no-to", "no-contingent",
        "strategy-list"])
def test_malformed_files_name_the_problem(capsys, tmp_path, command, network,
                                          strategy, message):
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(network))
    argv = [command, str(net_path)]
    if strategy is not None:
        (tmp_path / "strategy.json").write_text(json.dumps(strategy))
        argv.append(str(tmp_path / "strategy.json"))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: bad ") and err.endswith(": %s\n" % message)


def test_solve(capsys, bad_stnu):
    code, out, _ = run(capsys, "solve", "--json", bad_stnu)
    assert code == 0
    payload = json.loads(out)
    assert payload["schedule"] == {"A": "0", "C": "1"}


def stn_file(tmp_path, constraints):
    points = sorted({p for c in constraints for p in (c["from"], c["to"])})
    net = {"kind": "stn", "timepoints": [{"id": p} for p in points],
           "constraints": [dict(c, label="[]") for c in constraints],
           "letters": [], "observations": {}, "labels": {}, "links": [],
           "epsilon": "1/1000"}
    path = tmp_path / "stn.json"
    path.write_text(json.dumps(net))
    return str(path)


def test_solve_reports_an_inconsistent_network(capsys, fixture_network):
    # the fixture's label-erased STN has a negative cycle
    code, out, _ = run(capsys, "solve", "--json", fixture_network)
    assert code == 1 and json.loads(out) == {"consistent": False}
    code, out, _ = run(capsys, "solve", fixture_network)
    assert code == 1 and out == "inconsistent: the distance graph has a negative cycle\n"


def test_text_reports(capsys, bad_stnu, fixture_network):
    code, out, _ = run(capsys, "solve", bad_stnu)
    assert code == 0 and out == "consistent; earliest schedule from A:\n  A = 0\n  C = 1\n"
    code, out, _ = run(capsys, "propagate", bad_stnu)
    assert code == 0 and out == "3 constraints after 1 rounds (saturated)\n"
    code, out, _ = run(capsys, "check-dc", bad_stnu)
    assert code == 1 and out == ("not-controllable; projection for drama s={} w=(3) is "
                                 "inconsistent; (1 scenarios x 3 sampled situations "
                                 "(duration grid 3 per link))\n")
    code, out, _ = run(capsys, "check-dc", fixture_network)
    assert code == 0 and out == ("controllable; (2 scenarios x 243 sampled situations "
                                 "(duration grid 3 per link))\n")


def test_propagate_reports_an_exhausted_budget(capsys, fixture_network):
    code, out, _ = run(capsys, "propagate", "--budget", "3", fixture_network)
    assert code == 0 and out == "37 constraints after 1 rounds (budget exhausted)\n"
    code, out, _ = run(capsys, "propagate", "--json", "--budget", "3", fixture_network)
    payload = json.loads(out)
    assert code == 0 and not payload["saturated"] and not payload["refuted"]


def test_solve_point_forced_before_the_default_origin(capsys, tmp_path):
    # B must run a unit before A, the least name and so the default origin
    path = stn_file(tmp_path, [{"from": "A", "to": "B", "delta": "-1"}])
    code, out, err = run(capsys, "solve", "--json", path)
    assert code == 2 and out == ""
    assert err == "error: some point is forced before origin 'A'\n"
    code, out, _ = run(capsys, "solve", "--json", "--origin", "B", path)
    assert code == 0
    assert json.loads(out)["schedule"] == {"A": "1", "B": "0"}


@pytest.mark.parametrize("network, argv", [
    ("stn", ("project", "--situation", "1,2")),       # two durations, no link
    ("stnu", ("project", "--situation", "5")),        # outside the link's [1, 3]
    ("stnu", ("project", "--situation", "x")),        # not a rational
    ("stn", ("project", "--scenario", "a=1")),        # no letter a
    ("empty", ("solve",)),                            # no point to be the origin
    ("stnu", ("check-dc", "--grid", "1")),            # a grid misses a bound
    ("two-char-letter", ("validate",)),               # no label can hold letter ab
], ids=["situation-count", "situation-range", "situation-syntax",
        "scenario-domain", "solve-no-points", "check-dc-grid-1", "letter-ab"])
def test_bad_input_exits_2_without_a_traceback(tmp_path, bad_stnu, network, argv):
    paths = {"stn": stn_file(tmp_path, [{"from": "A", "to": "B", "delta": "3"}]),
             "stnu": bad_stnu, "empty": str(tmp_path / "empty.json"),
             "two-char-letter": str(tmp_path / "ab.json")}
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "ab.json").write_text(json.dumps(
        dict(NET, letters=["ab"], observations={"ab": "A"})))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cstnu.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "cstnu.cli", argv[0], paths[network], *argv[1:]],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


def test_solve_unknown_origin(capsys, bad_stnu):
    code, out, err = run(capsys, "solve", "--origin", "Z", bad_stnu)
    assert code == 2 and out == ""
    assert err == "error: unknown origin 'Z'\n"


def test_project_scenario(capsys, tmp_path, workflow_file):
    net_path = str(tmp_path / "net.json")
    assert main(["compile-workflow", workflow_file, "-o", net_path]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "project", net_path, "--scenario", "a=1")
    assert code == 0
    payload = json.loads(out)
    assert not any("T4" in tp["id"] for tp in payload["timepoints"])
    assert any("T3" in tp["id"] for tp in payload["timepoints"])


def test_project_requires_arguments(capsys, bad_stnu):
    code, _, err = run(capsys, "project", bad_stnu)
    assert code == 2


def test_project_situation(capsys, bad_stnu):
    code, out, _ = run(capsys, "project", bad_stnu, "--situation", "2")
    assert code == 0
    data = json.loads(out)
    deltas = {(c["from"], c["to"], c["delta"]) for c in data["constraints"]}
    assert ("A", "C", "2") in deltas and ("C", "A", "-2") in deltas


def test_check_dc_negative_exit(capsys, bad_stnu):
    code, out, _ = run(capsys, "check-dc", "--json", bad_stnu)
    assert code == 1
    assert json.loads(out)["verdict"] == "not-controllable"


def test_propagate_trace(capsys, tmp_path):
    chain = {"kind": "stn", "timepoints": [{"id": p} for p in "ABC"],
             "constraints": [
                 {"from": "A", "to": "B", "delta": "2", "label": "[]"},
                 {"from": "B", "to": "C", "delta": "3", "label": "[]"}],
             "letters": [], "observations": {}, "labels": {}, "links": [],
             "epsilon": "1/1000"}
    net_path = tmp_path / "chain.json"
    net_path.write_text(json.dumps(chain))
    trace = tmp_path / "trace.json"
    code, out, _ = run(capsys, "propagate", "--json", "--trace", str(trace),
                       str(net_path))
    assert code == 0
    entries = json.loads(trace.read_text())["derivations"]
    assert any(e["rule"] == "compose" for e in entries)
    assert all(isinstance(p, int) for e in entries for p in e["parents"])


def test_propagate_output_does_not_depend_on_string_hashing(tmp_path):
    network, _ = compile_workflow(parse_workflow(branching_workflow_text()))
    net_path = tmp_path / "net.json"
    net_path.write_text(dumps(network_to_dict(network)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cstnu.__file__)))
    outputs = []
    for seed in ("0", "1"):
        trace = tmp_path / ("trace%s.json" % seed)
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "cstnu.cli", "propagate", "--json",
             "--trace", str(trace), str(net_path)],
            env=env, capture_output=True, check=True)
        outputs.append((done.stdout, trace.read_bytes()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][0])["saturated"]


@pytest.mark.parametrize("command, flag", [("propagate", "--budget")])
def test_negative_counts_are_usage_errors(capsys, bad_stnu, command, flag):
    code, out, err = run(capsys, command, bad_stnu, flag, "-1")
    assert code == 2 and out == ""
    assert "argument %s: not a non-negative integer: '-1'" % flag in err


def test_propagate_budget_default_is_the_module_constant():
    args = build_parser().parse_args(["propagate", "net.json"])
    assert args.budget == DEFAULT_BUDGET
    assert propagate_to_fixpoint.__defaults__ == (DEFAULT_BUDGET,)


def test_check_dc_defaults_are_the_module_constants():
    args = build_parser().parse_args(["check-dc", "net.json"])
    assert args.grid == DEFAULT_GRID
    assert check_dc.__defaults__ == (DEFAULT_GRID,)
    assert sample_situations.__defaults__ == (DEFAULT_GRID,)


# sha256 of CLI outputs on the branching-workflow fixture.  They pin the
# verdict, the strategy, the derivations, the schedule and the JSON
# layouts: a change that should leave them alone (a speed-up, say) must
# leave these digests alone too; only a change meant to alter an output
# may re-pin its digest.  The fixture's label-erased STN is inconsistent,
# so `solve` runs on its a=0 projection, which `project` writes.  At
# grid 4 check-dc samples 2048 dramas, 1024 per scenario, so their
# closures share link-duration prefixes up to all five links deep.  The
# grid-5 digest (6250 dramas) is also checked by the CI step that runs
# the installed `cstnu check-dc --json --grid 5`, and the two `propagate`
# digests by the one that runs the installed `cstnu propagate`.
PROPAGATE = ("propagate", "--json", "--trace", "trace.json", "net.json")


@pytest.mark.parametrize("argv, written, digest", [
    (("check-dc", "--json", "net.json"), None,
     "af647058e9e2357bfebdc0355b49862cdd672b76928a9f88520c1e3e90100b38"),
    (("check-dc", "--json", "--grid", "4", "net.json"), None,
     "510681fcfdff89adfd5ceb8dc181c8abc9aae5c979c2a3d4a1983b3a389dbf54"),
    (("check-dc", "--json", "--grid", "5", "net.json"), None,
     "21c3a01b30cbc4726a0f26364c1c764f974fe1e296b31c73c032d6a2ddede0fa"),
    (PROPAGATE, None, "2f8122a2e1876632b676b4ad8dcffeb29e72ced25a105459bbaa7f25361ce82b"),
    (PROPAGATE, "trace.json",
     "0da6686fbe37f59a858c4a1567d44f14a98037bba3df4956b034d30a8e8b7545"),
    (("project", "net.json", "--scenario", "a=0"), None,
     "7c59d64d6b6df31ec353b61f27f0125bd0ee6be046b79d0648ada6745a52e4a1"),
    (("solve", "--json", "--origin", "T1_S", "a0.json"), None,
     "804dfd4979387a6e5a4ecaa513a13f295619e203d67f5b92bcbf77fb1ae5cf98"),
], ids=["check-dc", "check-dc-grid-4", "check-dc-grid-5", "propagate", "propagate-trace",
        "project", "solve"])
def test_cli_output_on_the_fixture_is_pinned(capsys, tmp_path, monkeypatch,
                                            argv, written, digest):
    monkeypatch.chdir(tmp_path)
    network, _ = compile_workflow(parse_workflow(branching_workflow_text()))
    (tmp_path / "net.json").write_text(dumps(network_to_dict(network)))
    assert main(["project", "net.json", "--scenario", "a=0", "-o", "a0.json"]) == 0
    code, out, _ = run(capsys, *argv)
    assert code == 0
    text = out if written is None else (tmp_path / written).read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of `check-dc --json` on tests/greedy_trap.json, whose strategy
# only the exhaustive witness search finds: it pins that search's first
# witness.  The CI step that runs the installed `cstnu check-dc` on the
# file checks its output against this line.
GREEDY_TRAP_DIGEST = "cfb9aa4440d19e3b75da9e892466c5d7c03adb78bf56d0bbadcfbe6535f27fd4"


def test_check_dc_on_the_greedy_trap_is_pinned(capsys):
    code, out, _ = run(capsys, "check-dc", "--json", GREEDY_TRAP)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GREEDY_TRAP_DIGEST


# sha256 of CLI outputs on tests/mixed_denominators.json, pinned before
# the search, the closures, propagation and certification counted their
# times with one routine: the search's tick mixes 3, 7 and 1000, the
# strategy's times are in 21000ths, and so is `solve`'s schedule.  The CI
# step that runs the installed `cstnu check-dc` and `cstnu propagate` on
# the file checks their outputs against these lines.
MIXED_DENOMINATORS_DIGESTS = {
    "check-dc --json": "df6bfc6d824dec597c1402a76e76b2a62b683587db2c386d3b0c2618a1698f2c",
    "propagate --json": "782754156b0e40b7394ed68ea8fad822cc32fc264cd5e3ddb8cb84a13827a985",
    "solve --json --origin A1": "808b1d6b5c1ebd42a442f81d4a45561bf5d46a1d0351a467f0847aefe2d68db7",
}


@pytest.mark.parametrize("command", sorted(MIXED_DENOMINATORS_DIGESTS))
def test_cli_output_on_mixed_denominators_is_pinned(capsys, command):
    code, out, _ = run(capsys, *command.split(), MIXED_DENOMINATORS)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MIXED_DENOMINATORS_DIGESTS[command]


def test_mixed_denominators_file_is_the_seeded_network():
    with open(MIXED_DENOMINATORS) as f:
        assert f.read() == dumps(network_to_dict(mixed_denominators()))


# sha256 of `check-dc --json` on tests/epsilon_overshoot.json, where an
# epsilon step past an observation overshoots a window twice on one path
# and greedy synthesis commits at the window's upper bound instead.  The
# CI step that runs the installed `cstnu check-dc` on the file checks its
# output against this line.
EPSILON_OVERSHOOT_DIGEST = "0ffcb967a0cf82a26018e3b028ba6665c4348fdaa02b1c1f2f4442e86dca54eb"


def test_check_dc_on_the_epsilon_overshoot_is_pinned(capsys):
    code, out, _ = run(capsys, "check-dc", "--json", EPSILON_OVERSHOOT)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EPSILON_OVERSHOOT_DIGEST


def test_epsilon_overshoot_file_is_the_helper_network():
    with open(EPSILON_OVERSHOOT) as f:
        assert f.read() == dumps(network_to_dict(epsilon_overshoot()))


# sha256 of `propagate --json` on tests/dead_label_workflow.json and of the
# file its `--trace` writes, pinned before propagation memoized whether a
# label is dead: they pin the candidates rejected on dead labels.  The CI
# step that runs the installed `cstnu propagate --json` on the file checks
# its output against the first line.
DEAD_LABEL_PROPAGATE_DIGEST = "f7453b01e4858aa6ea82973143602ec3e7b327a55872e7fe70f14c957f29d498"
DEAD_LABEL_TRACE_DIGEST = "27c3a8e39d864975d75b2db738ca4a596c92e1cc5242bb31d0eed241147883c0"


def test_propagate_on_the_dead_label_workflow_is_pinned(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    code, out, _ = run(capsys, "propagate", "--json", "--trace", str(trace),
                       DEAD_LABEL_WORKFLOW)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == DEAD_LABEL_PROPAGATE_DIGEST
    assert hashlib.sha256(trace.read_text().encode()).hexdigest() == DEAD_LABEL_TRACE_DIGEST


# sha256 of `check-dc --json` on tests/dead_label_workflow.json, the only
# committed input whose verdict comes from an inconsistent class of dramas
# (exit 1).  Pinned before the search kept its closures as bare rows; the
# CI step that runs the installed `cstnu check-dc --json` on the file checks
# its output against this line.
DEAD_LABEL_CHECK_DC_DIGEST = "aa29bef6e2d73cfa2de045e08506fbf4c3f4bc37d23af4e23ef889bd4351db42"


def test_check_dc_on_the_dead_label_workflow_is_pinned(capsys):
    code, out, _ = run(capsys, "check-dc", "--json", DEAD_LABEL_WORKFLOW)
    assert code == 1
    assert json.loads(out)["evidence"] == (
        "projection for drama s=a=1,b=1 w=(9,7,1,10,4) is inconsistent")
    assert hashlib.sha256(out.encode()).hexdigest() == DEAD_LABEL_CHECK_DC_DIGEST


# sha256 of `check-dc --json --grid 6` on the fixture: 15 552 dramas in
# 2 592 classes of one scenario and one set of relevant durations, which
# the search runs once each.  Pinned before the search ran per class; the
# CI step that runs the installed `cstnu check-dc --json --grid 6` checks
# its output against this line.
GRID_6_DIGEST = "14805fcd8561d1c8fa413ec3861abd8e5f7aad81002cba40a145ab5f86973b5e"


def test_check_dc_at_grid_6_on_the_fixture_is_pinned(capsys, fixture_network):
    code, out, _ = run(capsys, "check-dc", "--json", "--grid", "6", fixture_network)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GRID_6_DIGEST


def test_verify_strategy_round_trip(capsys, tmp_path):
    # relaxed version of the squeezed link: controllable
    net = network_to_dict(tight_contingent_stnu())
    net["constraints"] = [c for c in net["constraints"] if c["delta"] != "2"]
    net_path = tmp_path / "ok.json"
    net_path.write_text(dumps(net))
    code, out, _ = run(capsys, "check-dc", "--json", str(net_path))
    assert code == 0
    strategy = json.loads(out)["strategy"]
    strat_path = tmp_path / "strategy.json"
    strat_path.write_text(json.dumps(strategy))
    code, out, _ = run(capsys, "verify-strategy", str(net_path), str(strat_path))
    assert code == 0 and "viable" in out

    # corrupt one time: verification must fail
    strategy["entries"][0]["schedule"]["C"] = "99"
    strat_path.write_text(json.dumps(strategy))
    code, _, _ = run(capsys, "verify-strategy", str(net_path), str(strat_path))
    assert code in (1, 2)

    # an unknown kind is bad input, not a CSTN strategy
    strategy["kind"] = "foo"
    strat_path.write_text(json.dumps(strategy))
    code, _, err = run(capsys, "verify-strategy", str(net_path), str(strat_path))
    assert code == 2 and "bad strategy file" in err and "cstn, stnu or cstnu" in err


def test_verify_strategy_rejects_duplicate_entries(capsys, tmp_path, fixture_network):
    # A faulty copy of entry 0 placed before it used to be overwritten by
    # the good entry, so the strategy read as viable.
    code, out, _ = run(capsys, "check-dc", "--json", fixture_network)
    strategy = json.loads(out)["strategy"]
    bad = dict(strategy["entries"][0])
    bad["schedule"] = {**bad["schedule"], min(bad["schedule"]): "-1000"}
    strategy["entries"].insert(0, bad)
    strat_path = tmp_path / "strategy.json"
    strat_path.write_text(json.dumps(strategy))
    code, _, err = run(capsys, "verify-strategy", fixture_network, str(strat_path))
    assert code == 2 and "entries 0 and 1 stand for the same index" in err


def test_verify_strategy_rejects_a_kind_the_network_cannot_hold(capsys, tmp_path,
                                                               bad_stnu):
    strat_path = tmp_path / "strategy.json"
    strat_path.write_text(json.dumps({"kind": "cstn", "entries": [
        {"scenario": {}, "schedule": {"A": "0", "C": "2"}}]}))
    code, _, err = run(capsys, "verify-strategy", bad_stnu, str(strat_path))
    assert code == 2 and "strategy does not match the network" in err


# `verify-strategy --json` on the fixture's grid-3 strategy as `check-dc`
# builds it, and on copies in which a later class-mate (an entry whose
# scenario and schedule repeat an earlier entry's) runs its first
# non-contingent point 1 later: the first such entry, which breaks
# dynamic* alone, and the last, which breaks viability.  Exit codes,
# details and sha256 of the output were computed before certification
# read one integer view of the strategy with one row per execution.  The
# CI step that runs the installed `cstnu verify-strategy` on the strategy
# of `check-dc --json` checks its outputs against these digests.
VERIFIED_FIXTURE = [
    (None, 0, "dynamic",
     "1e5ffb3b12a2ad6e339f2339bda3d67d9b99af9258b2823f62cd3079cdf108b8"),
    (0, 1, "not dynamic: witness (Drama(scenario=Scenario(a=0), situation=(Fraction(2, 1), "
           "Fraction(20, 1), Fraction(25, 1), Fraction(80, 1), Fraction(10, 1))), "
           "Drama(scenario=Scenario(a=0), situation=(Fraction(2, 1), Fraction(20, 1), "
           "Fraction(35, 1), Fraction(80, 1), Fraction(10, 1))), 'J1_E')",
     "2242b0033526e4744ff90fcde962d3cae06a52be14d81b8b35f271789d92328b"),
    (-1, 1, "not viable: J1_E - T5_S <= -1 violated for s=a=1 w=(4,5,45,90,20)",
     "36cd0b677cb777077fb92a7735278d21b36e25563d302c1e62d353aaae33cbae"),
]


@pytest.mark.parametrize("shifted, exit_code, detail, digest", VERIFIED_FIXTURE,
                         ids=["as-built", "first-classmate", "last-classmate"])
def test_verify_strategy_on_the_fixture_is_pinned(capsys, tmp_path, fixture_network,
                                                 shifted, exit_code, detail, digest):
    _, out, _ = run(capsys, "check-dc", "--json", fixture_network)
    strategy = json.loads(out)["strategy"]
    if shifted is not None:
        later = later_classmates(strategy)
        assert len(later) == 324
        with open(fixture_network) as f:
            strategy = shifted_entry(json.load(f), strategy, later[shifted])
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(strategy))
    code, out, _ = run(capsys, "verify-strategy", "--json", fixture_network, str(path))
    assert (code, json.loads(out)["detail"]) == (exit_code, detail)
    assert json.loads(out)["ok"] is (exit_code == 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_compile_workflow_map(capsys, tmp_path, workflow_file):
    net_path = tmp_path / "net.json"
    map_path = tmp_path / "map.json"
    code, _, _ = run(capsys, "compile-workflow", workflow_file,
                     "-o", str(net_path), "--map", str(map_path))
    assert code == 0
    cmap = json.loads(map_path.read_text())
    assert cmap["letters"] == {"a": "S1"}
    assert cmap["tasks"]["T1"]["start"] == "T1_S"


def test_compile_workflow_syntax_error(capsys, tmp_path):
    path = tmp_path / "bad.wf"
    path.write_text("task X [3,1]\n")
    code, _, err = run(capsys, "compile-workflow", str(path))
    assert code == 2 and "line 1" in err


def test_json_output_is_reproducible(capsys, bad_stnu):
    _, first, _ = run(capsys, "propagate", "--json", bad_stnu)
    _, second, _ = run(capsys, "propagate", "--json", bad_stnu)
    assert first == second


# Arguments of each subcommand on a controllable STNU: those that take
# `--json` print JSON with it, and project and compile-workflow, which
# always write JSON, refuse it.
JSON_ARGV = {
    "validate": ("net.json",),
    "solve": ("net.json",),
    "propagate": ("net.json",),
    "check-dc": ("net.json",),
    "verify-strategy": ("net.json", "strategy.json"),
}
NO_JSON_ARGV = {
    "project": ("net.json", "--situation", "2"),
    "compile-workflow": ("flow.wf",),
}


def subcommands():
    actions = build_parser()._actions
    return sorted(next(a for a in actions
                       if isinstance(a, argparse._SubParsersAction)).choices)


@pytest.mark.parametrize("command", subcommands())
def test_json_flag_only_where_it_is_read(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    net = network_to_dict(tight_contingent_stnu())
    net["constraints"] = [c for c in net["constraints"] if c["delta"] != "2"]
    (tmp_path / "net.json").write_text(dumps(net))
    (tmp_path / "flow.wf").write_text(branching_workflow_text())
    _, out, _ = run(capsys, "check-dc", "--json", "net.json")
    (tmp_path / "strategy.json").write_text(dumps(json.loads(out)["strategy"]))
    if command in JSON_ARGV:
        code, out, _ = run(capsys, command, "--json", *JSON_ARGV[command])
        assert code == 0
        json.loads(out)
    else:
        code, out, err = run(capsys, command, "--json", *NO_JSON_ARGV[command])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --json" in err


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
