"""Command-line interface: exit codes, payloads, reproducibility."""

import json

import pytest

from cstnu.cli import main
from cstnu.fixtures import branching_workflow_text, tight_contingent_stnu
from cstnu.jsonio import dumps, network_to_dict


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


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys, bad_stnu):
    code, out, _ = run(capsys, "validate", bad_stnu)
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


def test_solve(capsys, bad_stnu):
    code, out, _ = run(capsys, "solve", "--json", bad_stnu)
    assert code == 0
    payload = json.loads(out)
    assert payload["schedule"] == {"A": "0", "C": "1"}


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


def test_verify_strategy_rejects_a_kind_the_network_cannot_hold(capsys, tmp_path,
                                                               bad_stnu):
    strat_path = tmp_path / "strategy.json"
    strat_path.write_text(json.dumps({"kind": "cstn", "entries": [
        {"scenario": {}, "schedule": {"A": "0", "C": "2"}}]}))
    code, _, err = run(capsys, "verify-strategy", bad_stnu, str(strat_path))
    assert code == 2 and "strategy does not match the network" in err


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


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
