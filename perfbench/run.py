"""Benchmark of the ellfrob CLI, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ./src, so
nothing needs installing. ``--workload all`` runs every workload in turn.

Each repetition of a workload runs in a fresh interpreter (worker.py) and
calls ``ellfrob.cli.main(argv)`` once per op, with stdout captured, and no
(command, input) repeats within it. Every output is checked; an op whose
check fails counts in ``failed`` and never stops the run.

--trace 0 measures the end-to-end metrics with tracing off and reports
medians. It repeats the workload, at least once, while one more repetition
as long as the longest so far still fits in S seconds, and starts
SETUP_SAMPLES set-up-only interpreters before each repetition.
--trace 1 runs the workload untraced at its HD_THREADS, untraced serially
(when that differs) and traced serially, and reports the per-layer metrics;
spans go to .perfbench_out/<workload>.spans.tsv.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it are a readable summary.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from layers import PER_LAYER, per_layer, unit
from workloads import WORKLOADS, build, threads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 2
# One run must end within 180 s; leave room for the summary.
DEADLINE_S = 170

# wall_cal and max_op_cal are wall_s and max_op_s with each op's time divided
# by the calibration loop's time around it (worker.calibrate): the unit "cal"
# is one run of that loop on the same machine at that moment. On a shared
# host the CPU's speed can drift by tens of percent within minutes; the ratio
# cancels most of that drift, so these two are the ones a change is judged
# by. wall_s and max_op_s are printed in the summary.
END_TO_END = (("wall_cal", "cal"), ("max_op_cal", "cal"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def spawn(src, deadline, spec=None):
    """Run one worker and return its report; spec None only sets up."""
    argv = [sys.executable, WORKER, src]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.Popen(argv + [repr(started)]
                            + ([] if spec else ["--setup-only"]),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(json.dumps(spec or {}),
                                    timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError("a repetition ran past the %d s limit" % DEADLINE_S)
    finally:
        # Pool workers share the session; none may outlive the repetition,
        # also when this runner is stopped early.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker exited %d: %s"
                         % (proc.returncode, err.strip()[-2000:]))
    return json.loads(lines[-1])


def with_threads(ops, n):
    return [dict(op, threads=min(op["threads"], n)) for op in ops]


def rep_spec(ops, trace=False, spans_path=None):
    return {"ops": ops, "trace": trace, "spans_path": spans_path}


def wall(rep):
    return sum(op["seconds"] for op in rep["ops"])


def op_cals(rep):
    return [op["seconds"] / op["cal"] for op in rep["ops"]]


def tally(reps):
    """attempted, failed (check failed), program-failed (nonzero exit or
    check failed) and summed pair counts over the repetitions."""
    ops = [op for rep in reps for op in rep["ops"]]
    pairs = {"eligible": 0, "verified": 0, "failed": 0}
    for op in ops:
        for key, value in (op["pairs"] or {}).items():
            pairs[key] += value
    failed = sum(not op["ok"] for op in ops)
    program_failed = sum(not op["ok"] or op["rc"] != 0 for op in ops)
    return len(ops), failed, program_failed, pairs


def describe(values):
    if len(values) == 1:
        return "1 sample"
    return "median of %d, min %.4g, max %.4g" % (len(values), min(values),
                                                 max(values))


def end_to_end(name, src, seed, seconds, deadline):
    ops = build(name, seed)
    begin = time.monotonic()
    setups, reps, longest = [], [], 0.0
    while True:
        started = time.monotonic()
        setups += [spawn(src, deadline)["setup_s"]
                   for _ in range(SETUP_SAMPLES)]
        reps.append(spawn(src, deadline, rep_spec(ops)))
        now = time.monotonic()
        longest = max(longest, now - started)
        if now - begin + longest > seconds:
            break
    samples = {
        "wall_cal": [sum(op_cals(r)) for r in reps],
        "max_op_cal": [max(op_cals(r)) for r in reps],
        "setup_s": setups + [r["setup_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "wall_s": [wall(r) for r in reps],
        "max_op_s": [max(op["seconds"] for op in r["ops"]) for r in reps],
    }
    attempted, failed, program_failed, pairs = tally(reps)
    print("workload %s, seed %d: %d repetitions of %d ops, HD_THREADS=%d"
          % (name, seed, len(reps), len(ops), threads(ops)))
    metrics = {}
    for metric, u in END_TO_END + (("wall_s", "s"), ("max_op_s", "s")):
        value = statistics.median(samples[metric])
        metrics[metric] = {"value": value, "unit": u}
        print("  %-16s %12.6f %-3s (%s)" % (metric, value, u,
                                            describe(samples[metric])))
    print("  %-16s %12.6f %-3s (%d of %d ops exited nonzero or failed a "
          "check)" % ("ops_failed_ratio", program_failed / attempted, "1",
                      program_failed, attempted))
    print("  pairs: %(verified)d verified, %(failed)d failed of %(eligible)d "
          "eligible" % pairs)
    report_failures(reps)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m: metrics[m] for m, _ in END_TO_END}}


def traced(name, src, seed, deadline):
    ops = build(name, seed)
    n = threads(ops)
    serial = with_threads(ops, 1)
    parallel_rep = spawn(src, deadline, rep_spec(ops))
    serial_rep = (spawn(src, deadline, rep_spec(serial)) if n > 1
                  else parallel_rep)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, name + ".spans.tsv")
    traced_rep = spawn(src, deadline, rep_spec(serial, True, spans_path))
    for a, b in zip(serial_rep["ops"], traced_rep["ops"]):
        if a["digest"] != b["digest"]:
            b["ok"] = False
            b["msg"] = "traced stdout differs from untraced"
    reps = [parallel_rep] + ([serial_rep] if n > 1 else []) + [traced_rep]
    attempted, failed, _, _ = tally(reps)
    _, _, _, pairs = tally([traced_rep])
    walls = {"parallel": wall(parallel_rep), "serial": wall(serial_rep),
             "traced": wall(traced_rep)}
    values = per_layer(traced_rep["stats"], pairs, walls, n)
    print("workload %s, seed %d: per-layer metrics of one traced serial "
          "repetition (%d ops); spans in %s" % (name, seed, len(ops),
                                                spans_path))
    for metric in PER_LAYER:
        value = values[metric]
        text = "%d" % value if isinstance(value, int) else "%.6f" % value
        print("  %-40s %16s %s" % (metric, text, unit(metric)))
    report_failures(reps)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": values[m], "unit": unit(m)}
                        for m in PER_LAYER}}


def report_failures(reps):
    for rep in reps:
        for i, op in enumerate(rep["ops"]):
            if not op["ok"]:
                print("  FAILED CHECK: op %d: %s" % (i, op["msg"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exit, so spawn() still stops its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ellfrob", "cli.py")):
        print("run.py: no src/ellfrob/cli.py under %s; run from the root of "
              "an ellfrob checkout" % os.getcwd(), file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            if args.trace:
                result = traced(name, src, args.seed, deadline)
            else:
                result = end_to_end(name, src, args.seed, args.seconds,
                                    deadline)
        except BenchError as e:
            print("run.py: %s: %s" % (name, e), file=sys.stderr)
            return 2
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
