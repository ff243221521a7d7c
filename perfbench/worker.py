"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py SRC_DIR SPAWN_TIME [--setup-only] < spec.json

SPAWN_TIME is the parent's time.monotonic() just before it started this
process. On Linux that clock is shared by all processes, so the time from it
to ``ellfrob.cli`` being imported is the set-up time of a fresh interpreter.

The spec (JSON on stdin) holds the ops, whether to trace, and where to write
spans. Each op runs through ``ellfrob.cli.main(argv)`` in this process with
stdout and stderr captured. A short calibration loop is timed before the
first op and after each op, so each op's time can also be read in units of
the loop's time on the same CPU at that moment. Checks run after every op
has been timed. The report is one JSON line on stdout.
"""

import sys
import time


def main():
    src, spawned = sys.argv[1], float(sys.argv[2])
    sys.path.insert(0, src)
    import ellfrob.cli
    setup_s = time.monotonic() - spawned

    import json
    import os
    import resource

    if not os.path.abspath(ellfrob.cli.__file__).startswith(
            os.path.abspath(src) + os.sep):
        sys.exit("ellfrob was imported from %s, not from %s"
                 % (ellfrob.cli.__file__, src))
    if "--setup-only" in sys.argv:
        print(json.dumps({"setup_s": setup_s}))
        return
    spec = json.load(sys.stdin)
    ops = spec["ops"]

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    results = run_ops(ellfrob.cli.main, ops, tracer)
    if tracer is not None:
        tracer.uninstall()

    from checks import check, load_reference
    refs = load_reference()
    for op, res in zip(ops, results):
        try:
            ok, msg, pairs = check(op, res["rc"], res.pop("stdout"),
                                   res.pop("stderr"), refs)
        except (KeyError, TypeError, ValueError) as e:
            ok, msg, pairs = False, "check raised %r" % (e,), None
        res.update(ok=ok, msg=msg, pairs=pairs)

    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers pool workers.
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report = {"setup_s": setup_s, "peak_rss_mb": rss_kib / 1024.0,
              "ops": results}
    if tracer is not None:
        report["stats"] = {name: [st.calls, st.self_s, st.total_s,
                                  st.products, st.max_len]
                           for name, st in tracer.stats.items()}
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    sys.stdout.write(json.dumps(report) + "\n")


def calibrate(a, b, cpus):
    """Seconds for a fixed mix of the two kinds of work the program does:
    dict arithmetic on Python ints and an int64 numpy convolution. Timed
    between ops, it measures how fast the CPU runs at that moment; on a
    shared host that speed drifts by tens of percent within minutes. With
    ``cpus``, the loop runs pinned to each of them in turn and the mean is
    returned, for ops whose work is spread over a process pool."""
    import os

    import numpy as np

    def loop():
        start = time.perf_counter()
        acc = {}
        for k in range(30000):
            acc[k % 997] = acc.get(k % 997, 0) + k * k
        np.convolve(a, b)
        return time.perf_counter() - start

    if not cpus:
        return loop()
    own = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(loop())
    finally:
        os.sched_setaffinity(0, own)
    return sum(times) / len(times)


def run_ops(cli_main, ops, tracer):
    """Time each op; keep its exit code, stdout, stderr, stdout digest and
    the mean calibration time around it."""
    import contextlib
    import hashlib
    import io
    import os
    import traceback

    import numpy as np

    a = np.arange(3000, dtype=np.int64) * 7919 % 44521
    b = np.arange(3000, dtype=np.int64) * 104729 % 44521
    pooled = max(op["threads"] for op in ops) > 1
    cpus = sorted(os.sched_getaffinity(0)) if pooled else None
    before = calibrate(a, b, cpus)
    results = []
    for i, op in enumerate(ops):
        os.environ["HD_THREADS"] = str(op["threads"])
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    rc = cli_main(op["argv"])
                else:
                    rc = tracer.run_op(i, cli_main, op["argv"])
            except SystemExit as e:
                rc = e.code
            except Exception:
                # A traceback is a failed op; the run goes on.
                rc = None
                traceback.print_exc()
        seconds = time.perf_counter() - start
        after = calibrate(a, b, cpus)
        stdout = out.getvalue()
        results.append({"seconds": seconds, "cal": (before + after) / 2,
                        "rc": rc, "stdout": stdout, "stderr": err.getvalue(),
                        "digest": hashlib.sha256(stdout.encode()).hexdigest()})
        before = after
    return results


if __name__ == "__main__":
    main()
