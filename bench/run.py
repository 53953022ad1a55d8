"""Benchmark for cstnu's check_dc and propagate_to_fixpoint.

One workload in this interpreter:

    python3 bench/run.py --workload small_nets_dc --seed 1 --seconds 30 --trace 0

or every workload, each in its own interpreter, one after the other:

    python3 bench/run.py --seed 1 --seconds 30

A run makes its inputs from the seed, times the set-up (input text to
validated networks) several times and keeps the median, then repeats
whole rounds of the workload's fixed operation set until the next round
would end after `--seconds`.  Each input's latency is its mean over the
run's rounds.  Times are scaled to one fixed host speed (speed.py): on a
shared host, the wall time of the same operation swings by up to 2x
between runs minutes apart; the wall-clock figures are printed as well.
Every output is checked independently (checker.py) outside the timed
region; an operation fails when it raises or its output fails the check.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  With `--trace 1` the library's
public functions are wrapped (tracing.py), the metrics are the
per-layer ones (unscaled), and the spans go to bench/out/.
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

NAMES = ("workflow_dc", "small_nets_dc", "workflow_propagate")

# Set-up repetitions per workload: the median is taken over up to a
# second of set-up work, so one slow moment of the machine cannot move it.
SETUP_REPEATS = {"workflow_dc": 301, "small_nets_dc": 5, "workflow_propagate": 31}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def attempt(workload, i, network):
    """One operation on input i, timed, and the check of its output, which
    is not timed.  Returns (start, end, decided); raises on a failure.  The
    output is dropped on return, so no operation runs while an earlier
    one's output is still held."""
    start = time.perf_counter()
    result = workload.operation(network)
    end = time.perf_counter()
    workload.check(i, network, result)
    return start, end, bool(workload.decided(result))


def measure(workload, texts, name, seconds, tracer):
    """Times the set-up SETUP_REPEATS[name] times, then whole rounds of the
    operation set until the next round would end after `seconds`.
    Returns the set-up spans (start, end), the operation spans
    (input index, start, end) of the operations that passed, the decided
    count of each round, the failures and the peak RSS at the end of the
    first round."""
    setup_spans = []
    for _ in range(SETUP_REPEATS[name]):
        gc.collect()
        start = time.perf_counter()
        networks = workload.build(texts)
        setup_spans.append((start, time.perf_counter()))

    op_spans, decided_per_round, errors = [], [], []
    gc.collect()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        decided = 0
        for i, network in enumerate(networks):
            if tracer is not None:
                tracer.op = len(op_spans) + len(errors) + 1
            try:
                t0, t1, definite = attempt(workload, i, network)
            except Exception as exc:    # a raise or a failed check fails the operation
                errors.append("input %d: %s: %s" % (i, type(exc).__name__, exc))
                continue
            op_spans.append((i, t0, t1))
            decided += definite
        decided_per_round.append(decided)
        if len(decided_per_round) == 1:
            # Read here, so that it does not depend on how many rounds
            # fit in the run.
            peak = _peak_rss_mb()
        now = time.perf_counter()
        if now + (now - round_start) - start > seconds:
            break
    return setup_spans, op_spans, decided_per_round, errors, peak


def run(name, seed, seconds, trace):
    import speed
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    texts = workload.inputs(seed)
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.op = "setup"

    probe = None
    if not trace:
        probe = speed.SpeedProbe()
        probe.start()
    try:
        setup_spans, op_spans, decided_per_round, errors, peak = measure(
            workload, texts, name, seconds, tracer)
    finally:
        if probe is not None:
            probe.stop()
    attempted = len(op_spans) + len(errors)
    failed = len(errors)

    if tracer is not None:
        tracer.uninstall()
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "trace-%s-seed%d.json" % (name, seed))
        tracer.write(path)
        print("spans: %d written to %s" % (len(tracer.spans), os.path.relpath(path, ROOT)))
        metrics = {m["name"]: _metric(tracer.metric(m["name"]), m["unit"])
                   for m in _declared("per_layer")}
        wall = _elapsed
    else:
        wall = probe.net
        setup_times = [probe.scaled(*span) for span in setup_spans]
        latencies = _per_input_means(op_spans, probe.scaled)
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "ops_per_s": _metric(len(latencies) / sum(latencies) if latencies else 0.0, "1/s"),
            "latency_s.p50": _metric(statistics.median(latencies) if latencies else 0.0, "s"),
            "latency_s.p99": _metric(percentile(latencies, 99) if latencies else 0.0, "s"),
            "peak_rss_mb": _metric(peak, "MB"),
            "decided": _metric(min(decided_per_round), "count"),
        }
    wall_setup = statistics.median(wall(*span) for span in setup_spans)
    wall_latencies = _per_input_means(op_spans, wall)
    for line in errors[:20]:
        print("FAILED", line)
    print("%s seed=%d: %d rounds of %d operations, %d attempted, %d failed, "
          "%d latencies (mean over rounds per input), %d set-up samples"
          % (name, seed, len(decided_per_round), len(texts), attempted, failed,
             len(wall_latencies), len(setup_spans)))
    if wall_latencies:
        print("  wall clock: set-up median %.6g s, operations %.4g s per round, p50 %.6g s, "
              "max %.6g s" % (wall_setup, sum(wall_latencies),
                              statistics.median(wall_latencies), max(wall_latencies)))
    if probe is not None:
        print("  host speed: reference_work median %.4g ms over %d samples "
              "(scaled times assume %.4g ms)"
              % (1000 * statistics.median(probe.durations), len(probe.durations),
                 1000 * speed.REFERENCE_S))
    for key, m in metrics.items():
        print("  %-44s %14.6g %s" % (key, m["value"], m["unit"]))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _elapsed(start, end):
    return end - start


def _per_input_means(op_spans, duration):
    """Each input's mean duration over the rounds in which it succeeded."""
    times = {}
    for i, start, end in op_spans:
        times.setdefault(i, []).append(duration(start, end))
    return [sum(v) / len(v) for v in times.values()]


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)[section]


def run_all(args):
    """Every workload in its own interpreter; prints each result line."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print("%s exited with %d" % (name, proc.returncode), file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cstnu", "__init__.py")):
        print("cstnu sources not found under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path[:0] = [SRC, HERE]
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
