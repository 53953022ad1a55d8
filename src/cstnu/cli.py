"""Command-line front end: validate, solve, project, propagate, check-dc,
verify-strategy, and compile-workflow over the JSON and workflow formats.

Exit codes: 0 for a positive result, 1 for a negative verdict or
violation report, 2 for usage or input errors.  `--json` switches the
report to machine-readable output; given identical inputs and flags the
output is byte-identical.
"""

import argparse
import sys

from . import __version__
from .jsonio import (dumps, loads, network_from_dict, network_to_dict,
                     stn_to_dict, strategy_from_dict, strategy_to_dict)
from .model import to_stn, validate
from .projection import Scenario, drama_projection, scenario_projection, situation_projection
from .propagation import propagate_to_fixpoint
from .rational import fmt, rational
from .search import check_dc
from .semantics import is_dynamic_star, is_viable
from .stn import earliest_solution, solve
from .workflow import WorkflowError, compile_workflow, parse_workflow


class _InputError(Exception):
    pass


def _read(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as handle:
            return handle.read()
    except OSError as err:
        raise _InputError("cannot read %s: %s" % (path, err))


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as err:
        raise _InputError("cannot write %s: %s" % (path, err))


def _load_network(path):
    try:
        return network_from_dict(loads(_read(path)))
    except _InputError:
        raise
    except Exception as err:
        raise _InputError("bad network file %s: %s" % (path, err))


def _parse_scenario(text):
    values = {}
    if text:
        for piece in text.split(","):
            if "=" not in piece:
                raise _InputError("bad scenario literal %r (want letter=0|1)" % piece)
            letter, value = piece.split("=", 1)
            if value not in ("0", "1", "true", "false"):
                raise _InputError("bad truth value %r for %r" % (value, letter))
            values[letter.strip()] = value in ("1", "true")
    return Scenario(values)


def cmd_validate(args):
    network = _load_network(args.network)
    report = validate(network)
    if args.json:
        payload = {"kind": network.kind, "ok": report.ok,
                   "violations": [{"code": v.code, "message": v.message}
                                  for v in report.violations]}
        _write(None, dumps(payload))
    else:
        print("%s network: %s" % (network.kind, report))
    return 0 if report.ok else 1


def cmd_solve(args):
    network = _load_network(args.network)
    stn = to_stn(network)
    matrix = solve(stn)
    if not matrix.consistent:
        if args.json:
            _write(None, dumps({"consistent": False}))
        else:
            print("inconsistent: the distance graph has a negative cycle")
        return 1
    origin = args.origin or min(stn.timepoints)
    schedule = earliest_solution(stn, origin)
    if args.json:
        _write(None, dumps({"consistent": True, "origin": origin,
                            "schedule": {p: fmt(t) for p, t in sorted(schedule.items())}}))
    else:
        print("consistent; earliest schedule from %s:" % origin)
        for point, t in sorted(schedule.items()):
            print("  %s = %s" % (point, fmt(t)))
    return 0


def cmd_project(args):
    network = _load_network(args.network)
    scenario = _parse_scenario(args.scenario) if args.scenario is not None else None
    situation = None
    if args.situation is not None:
        situation = tuple(rational(d) for d in args.situation.split(",")) \
            if args.situation else ()
    if scenario is not None and situation is not None:
        stn = drama_projection(network, scenario, situation)
    elif scenario is not None:
        stn = scenario_projection(network, scenario)
    elif situation is not None:
        stn = situation_projection(network, situation)
    else:
        raise _InputError("project needs --scenario and/or --situation")
    _write(args.output, dumps(stn_to_dict(stn)))
    return 0


def cmd_propagate(args):
    network = _load_network(args.network)
    result = propagate_to_fixpoint(network, budget=args.budget)
    ordered = sorted(result.constraints, key=str)
    if args.trace:
        index = {c: i for i, c in enumerate(ordered)}
        entries = []
        for c in ordered:
            rule, parents = result.trace[c]
            entries.append({"constraint": {"from": c.source, "to": c.target,
                                           "delta": fmt(c.delta), "label": str(c.label)},
                            "rule": rule,
                            "parents": [index[p] for p in parents]})
        _write(args.trace, dumps({"derivations": entries}))
    payload = {"refuted": result.refuted, "saturated": result.saturated,
               "rounds": result.rounds,
               "constraints": [{"from": c.source, "to": c.target,
                                "delta": fmt(c.delta), "label": str(c.label)}
                               for c in ordered]}
    if args.json:
        _write(None, dumps(payload))
    else:
        print("%d constraints after %d rounds (%s)" %
              (len(ordered), result.rounds,
               "refuted" if result.refuted else
               "saturated" if result.saturated else "budget exhausted"))
    return 1 if result.refuted else 0


def cmd_check_dc(args):
    network = _load_network(args.network)
    try:
        result = check_dc(network, grid=args.grid,
                          max_letters=args.max_letters, max_links=args.max_links)
    except ValueError as err:
        raise _InputError(str(err))
    if args.json:
        payload = {"verdict": result.verdict, "sample": result.sample,
                   "evidence": result.evidence}
        if result.strategy is not None:
            payload["strategy"] = strategy_to_dict(result.strategy)
        _write(None, dumps(payload))
    else:
        print(result)
    return 0 if result.controllable else 1


def cmd_verify_strategy(args):
    network = _load_network(args.network)
    try:
        strategy = strategy_from_dict(loads(_read(args.strategy)))
    except _InputError:
        raise
    except Exception as err:
        raise _InputError("bad strategy file %s: %s" % (args.strategy, err))
    try:
        viable = is_viable(network, strategy)
        dynamic = is_dynamic_star(network, strategy)
    except (KeyError, ValueError) as err:
        raise _InputError("strategy does not match the network: %s" % err)
    ok = bool(viable) and bool(dynamic)
    if args.json:
        _write(None, dumps({"ok": ok, "viable": bool(viable),
                            "dynamic": bool(dynamic),
                            "detail": str(viable if not viable else dynamic)}))
    else:
        print("viable: %s" % viable)
        print("dynamic: %s" % dynamic)
    return 0 if ok else 1


def cmd_compile_workflow(args):
    try:
        spec = parse_workflow(_read(args.workflow))
        network, cmap = compile_workflow(spec)
    except WorkflowError as err:
        raise _InputError(str(err))
    _write(args.output, dumps(network_to_dict(network)))
    if args.map:
        _write(args.map, dumps(cmap.as_dict()))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cstnu",
        description="Conditional temporal networks with uncertainty: "
                    "validation, projection, propagation, and "
                    "controllability checking.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
        return p

    p = add("validate", cmd_validate, help="check well-definedness conditions")
    p.add_argument("network")

    p = add("solve", cmd_solve, help="consistency and earliest schedule of "
                                     "the label-erased STN")
    p.add_argument("network")
    p.add_argument("--origin", help="reference time-point (default: first id)")

    p = add("project", cmd_project, help="project onto a scenario/situation")
    p.add_argument("network")
    p.add_argument("--scenario", help="e.g. a=1,b=0")
    p.add_argument("--situation", help="comma-separated durations in link order")
    p.add_argument("-o", "--output", help="output file (default stdout)")

    p = add("propagate", cmd_propagate, help="saturate the labeled constraints")
    p.add_argument("network")
    p.add_argument("--budget", type=int, default=5000)
    p.add_argument("--trace", help="write the derivation trace to this file")

    p = add("check-dc", cmd_check_dc, help="dynamic-controllability check")
    p.add_argument("network")
    p.add_argument("--grid", type=int, default=3,
                   help="sampled durations per contingent link")
    p.add_argument("--max-letters", type=int, default=6)
    p.add_argument("--max-links", type=int, default=6)

    p = add("verify-strategy", cmd_verify_strategy,
            help="check a strategy for viability and dynamicity")
    p.add_argument("network")
    p.add_argument("strategy")

    p = add("compile-workflow", cmd_compile_workflow,
            help="compile workflow text to a network")
    p.add_argument("workflow")
    p.add_argument("-o", "--output", help="network JSON output (default stdout)")
    p.add_argument("--map", help="write the compilation map to this file")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return exit_.code
    try:
        return args.func(args)
    except _InputError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
