"""Batch verification drivers: exhaustive enumeration over F_p pairs and
seeded random sampling over Z/p^(m+1) representatives.

A pair is ineligible (skipped, not failed) when it is singular, has
vanishing Hasse invariant, or hits a vanishing pivot determinant in the
mod-p^2 solve. Everything else must construct and verify.

Stacks. A sweep checks its pairs in stacks (liftp module doc, Stacks) at
both precisions m, by one size rule: the tasks are cut into contiguous runs
of min(``_STACK_CELLS[m] // p^m``, an equal share per worker) pairs, and of
at least one, and each run is one item of ``parallel_map``. A stack's
polynomials have degrees of the order of p^m (V(x^p) has degree about p^2/2
mod p^2), so pairs times p^m measures its arrays at either precision. Mod
p^2, on two workers, 2^15 cells ran the sweeps at p = 13 and 29 1.2-1.8
times as fast as 2^13 cells, and no larger count was faster; mod p they
stay at 2^13, since 2^15 ran the p = 31 sweep hardly faster and raised its
peak RSS from 35 to 50 MB. A run first sets aside its singular and
supersingular pairs, from Delta(a, b) and H(a, b) mod p. The rest go
through ``verify_pair`` as rows of one CurveContext: mod p all of them, and
mod p^2 one stack per branch of ``build_lift_mod_p2``, the pairs with b a
unit (general and a0) and those with b = 0 mod p (b0). A stack of fewer
than ``_STACK_MIN`` rows goes pair by pair through ``_attempt`` instead:
one pair alone takes the structured product lane (upoly module doc), which
a stack does not, and has no stack overhead. In-process, per pair, 4
sampled pairs in a stack took 2.4 ms against 2.1 ms alone at p = 13 mod p^2
and 1.2 against 1.0 ms at p = 31 mod p, and 8 took 1.3 against 1.8 ms and
0.6 against 0.9 ms. The size rule leaves room for fewer than ``_STACK_MIN``
rows past p = 1024 mod p and past p = 64 mod p^2, so those sweeps go pair
by pair, inside ``_attempt_stack``; stacks of 5 or 4 at p = 79 and 89 mod
p^2 ran slower. Of the benchmark's sweeps, only the b0 rows at p = 13 mod
p^2 on two workers (6 a stack) go alone, and none runs past p = 64, so the
cut is not checked end to end there. Should any step raise on a stack (a
DomainError, or an InternalError for a broken invariant), that stack is
checked again pair by pair through ``_attempt``, so each failure row names
its pair and error class, in task order, and an InternalError that ends the
sweep names its pair, as in a pair-by-pair sweep. A sigma-singular pair,
whose pivot determinant vanishes, makes its stack raise SigmaSingular in
the same way. Stacks hold int64 entries; the largest are 7 p^5, in the
reduction of x^p mod (f, p^2) in ``mu_correct`` mod p, and p^4, in lambda
mod p^2 (liftp2 module doc, Stacks). The size rule stacks pairs only at p
<= 1024 mod p and p <= 64 mod p^2, where these stay below 7 * 2^50 and
2^24, far under 2^63.

Workers. ``parallel_map`` is a fork-join: it forks one child per worker,
and child i maps the strided part items[i::workers] in order, stops at its
first exception and sends (results, error) back through a pipe with pickle,
then leaves through ``os._exit``. The parent reads every pipe to EOF, reaps
every child and puts the results back in item order, so stdout does not
depend on HD_THREADS. Each child maps its part in order, so the earliest
failing item of all is the first failure of its child, and the parent
raises its exception: the one a serial map raises. A child that ends
without a whole reply (killed by a signal, or exited nonzero, as when its
results do not pickle) makes the map raise ``WorkerDied``, an InternalError
(exit code 2), once every child is reaped; should the parent itself stop
early (a fork that fails, or an interrupt while it reads), it kills the
children it has started before it reaps them. The only other threads of the
process are numpy's OpenBLAS ones, which OpenBLAS shuts down before a fork
(a pthread_atfork handler) and starts again on its next call. The parent
maps no part of its own: with it mapping the first, the benchmark's
verify_sweep read wall_cal 19.4-19.8 against 13.2-13.4 cal and peak RSS
40.6 against 34.7 MB. A child inherits the parent's malloc thresholds
through the fork, so under the CLI, which sets them (cli module doc,
Allocator), a worker's products reuse the heap memory it freed as the
parent's do; a library caller's workers keep its host's policy. The parent
imports ``numpy.fft`` before it forks, so the children share its pages and
none imports it again (1.4 ms each under ``python -X importtime``): numpy
loads it on first use, and the parent of ``verify-all`` runs no transform
itself.

Bounds. ``exhaustive_verify`` refuses, from p and the sample count alone
and before its task list is built, a sweep of more than
``MAX_SWEEP_PAIRS`` = 2^20 pairs (p^2 of them when exhaustive: p <= 1021;
such a list holds about 0.1 GB of tuples) and a prime whose H is past the
multinomial bound (forms module doc, Multinomials), both with
InputTooLarge (exit code 1). Every pair builds H, so without the second a
sampled sweep at p = 2^31 - 1 would end in one failure row per pair. The
largest sweep of the README, the CI, the benchmark and the tests has 101^2
pairs.
"""

import importlib
import os
import random
import signal

import numpy as np

from .errors import (DomainError, EllfrobError, InputTooLarge, InvalidModulus,
                     NotOrdinary, SigmaSingular, SingularPair, WorkerDied)
from .forms import require_multinomial_room
from .liftp import (CurveContext, build_lift_mod_p, curve_forms,
                    eigen_forcing_check, extendability_certificate,
                    lie_verify_commutator, mu_correct)
from .liftp2 import build_lift_mod_p2
from .residue import PrimePower

_STACK_CELLS = {1: 2 ** 13, 2: 2 ** 15}  # mod -> pairs times p^mod per stack
_STACK_MIN = 8           # a stack of fewer rows goes pair by pair
MAX_SWEEP_PAIRS = 2 ** 20  # the longest task list of a sweep (module doc)


def _report(p, a, b, mod, lam, verified, extendable, branch, theta):
    row = {"p": p, "a": int(a), "b": int(b), "mod": mod,
           "verified": bool(verified), "lambda": int(lam),
           "extendable": None if extendable is None else bool(extendable)}
    if mod == 2:
        row.update(branch=str(branch), theta=int(theta))
    return row


def verify_pair(p, a, b, mod):
    """Construct and fully verify the lift of one pair; returns its report
    row. For a stack (a and b int64 arrays, module doc, Stacks), the list
    of the rows of its pairs. Mod p, the commutator check covers the
    differential congruence on x."""
    if mod not in (1, 2):
        raise InvalidModulus("mod must be 1 or 2, got %r" % (mod,))
    ctx = CurveContext(a, b, PrimePower(p, mod))
    if mod == 1:
        lift = build_lift_mod_p(ctx)
        _, corrected = mu_correct(lift)
        extendable, _ = extendability_certificate(corrected)
        verified = (lie_verify_commutator(corrected, 1) & extendable
                    & eigen_forcing_check(corrected))
        cols = corrected.lam, verified, extendable, None, None
    else:
        lift, info = build_lift_mod_p2(ctx)
        cols = (lift.lam, lie_verify_commutator(lift, 2), None,
                info["branch"], info["theta"])
    if not isinstance(a, np.ndarray):
        return _report(p, a, b, mod, *cols)
    return [_report(p, *row) for row in zip(
        a.tolist(), b.tolist(), [mod] * len(a),
        *(np.broadcast_to(c, a.shape).tolist() for c in cols))]


def parallel_map(fn, items, workers=None):
    """[fn(x) for x in items], on forked worker processes when more than one
    is asked for; results keep the order of items either way. The worker
    count never exceeds the item count or the CPU count, and the map is
    serial where ``os.fork`` is missing.

    Fork-join: worker i maps the strided part items[i::workers] in order
    (module doc, Workers), so each part draws from the whole list and the
    load stays even when the cost of fn rises along it (scan's per-prime
    cost grows with p). When fn raises, the exception of the earliest
    failing item is raised, the one a serial map raises; a worker that dies
    before sending its results raises ``WorkerDied`` (exit code 2)."""
    workers = min(workers or 1, len(items), os.cpu_count() or 1)
    if workers > 1 and hasattr(os, "fork"):
        replies = _run_parts(fn, [items[i::workers] for i in range(workers)])
        raised = [(i + workers * len(results), error)
                  for i, (results, error) in enumerate(replies)
                  if error is not None]
        if raised:
            raise min(raised, key=lambda r: r[0])[1]
        out = [None] * len(items)
        for i, (results, _) in enumerate(replies):
            out[i::workers] = results
        return out
    return [fn(x) for x in items]


def _map_part(fn, part):
    """(results, error): fn over part in order, up to its first exception,
    which is the error (None when there is none)."""
    results = []
    for x in part:
        try:
            results.append(fn(x))
        except Exception as e:
            return results, e
    return results, None


def _run_parts(fn, parts):
    """[_map_part(fn, part) for part in parts], each part in a forked child
    (module doc, Workers). pickle is imported only where a map forks, and
    numpy.fft, which numpy loads on first use, before the children fork."""
    import pickle
    importlib.import_module("numpy.fft")
    kids, replies, statuses = [], [], []
    try:
        for part in parts:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(fn, part, r, w)
            os.close(w)
            kids.append((pid, open(r, "rb")))
        replies = [pipe.read() for _, pipe in kids]
    finally:
        for pid, pipe in kids:
            pipe.close()
            if len(replies) < len(kids):  # a fork failed, or an interrupt
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    out = []
    for i, (raw, status) in enumerate(zip(replies, statuses)):
        code = os.waitstatus_to_exitcode(status)
        if code == 0:
            try:
                out.append(pickle.loads(raw))
                continue
            except Exception as e:
                why = "sent a reply that does not unpickle (%s)" % e
        else:
            why = "%s before sending its results" % (
                "was killed by signal %d" % -code if code < 0
                else "exited with status %d" % code)
        raise WorkerDied("worker %d of %d %s" % (i + 1, len(kids), why))
    return out


def _child(fn, part, r, w):
    """The body of a forked worker: maps its part and writes the pickled
    (results, error) to the pipe. It leaves through os._exit, so it never
    returns into the caller's stack, runs no exit handler and flushes no
    stdio buffer inherited from the parent; status 0 says the reply went
    out whole."""
    code = 1
    try:
        import pickle
        os.close(r)
        with open(w, "wb") as pipe:
            pipe.write(pickle.dumps(_map_part(fn, part),
                                    pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _attempt(task):
    p, a, b, mod = task
    try:
        return "ok", verify_pair(p, a, b, mod)
    except (SingularPair, NotOrdinary, SigmaSingular):
        return "ineligible", None
    except DomainError as e:
        return "failed", {"p": p, "a": a, "b": b, "mod": mod,
                          "error": type(e).__name__}


def _attempt_stack(tasks):
    """[_attempt(t) for t in tasks], for tasks of one prime and precision,
    checked in stacks of one branch each (module doc, Stacks)."""
    p, mod = tasks[0][0], tasks[0][3]
    a = np.array([t[1] for t in tasks], dtype=np.int64)
    b = np.array([t[2] for t in tasks], dtype=np.int64)
    a1, b1 = a % p, b % p
    delta, hasse = curve_forms(PrimePower(p, 1))
    eligible = ((delta.specialize(a1, b1) % p != 0)
                & (hasse.specialize(a1, b1) % p != 0))
    groups = ([eligible] if mod == 1
              else [eligible & (b1 != 0), eligible & (b1 == 0)])
    outcomes = [("ineligible", None)] * len(tasks)
    for group in groups:
        rows = np.flatnonzero(group).tolist()
        checked = None
        if len(rows) >= _STACK_MIN:
            try:
                checked = [("ok", row) for row in
                           verify_pair(p, a[rows], b[rows], mod)]
            except EllfrobError:
                pass
        if checked is None:
            checked = [_attempt(tasks[j]) for j in rows]
        for j, outcome in zip(rows, checked):
            outcomes[j] = outcome
    return outcomes


def exhaustive_verify(p, mod, samples=None, seed=2026, workers=None):
    """Summary over all F_p pairs (samples=None) or `samples` random pairs
    drawn from [0, p^(m+1)). ``CurveContext`` reduces a and b mod p^m
    before anything reads them, so the top digit never reaches the
    p-derivation and the draw is in effect one over pairs mod p^m; the
    range stays because the printed a and b of a failure row depend on it.
    The pairs are checked in stacks (module doc, Stacks).

    Mod p^2 needs p >= 11: the general branch truncates at (p+7)/2, which
    must not pass p-1, so smaller primes are refused before any pair runs;
    so is a sweep past the bounds (module doc, Bounds)."""
    if mod not in (1, 2):
        raise InvalidModulus("mod must be 1 or 2, got %r" % (mod,))
    if mod == 2 and p < 11:
        raise DomainError("mod-p^2 verification needs p >= 11, got p = %d" % p)
    pairs = p * p if samples is None else samples
    if pairs > MAX_SWEEP_PAIRS:
        raise InputTooLarge("a sweep of %d pairs is past the bound of %d pairs"
                            % (pairs, MAX_SWEEP_PAIRS))
    require_multinomial_room((p - 1) // 2)  # every pair builds H
    if samples is None:
        tasks = [(p, a, b, mod) for a in range(p) for b in range(p)]
    else:
        rng = random.Random(seed)
        span = p ** (mod + 1)
        tasks = [(p, rng.randrange(span), rng.randrange(span), mod)
                 for _ in range(samples)]
    size = max(1, min(_STACK_CELLS[mod] // p ** mod,
                      -(-len(tasks) // (workers or 1))))
    stacks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
    outcomes = [outcome for part in
                parallel_map(_attempt_stack, stacks, workers)
                for outcome in part]
    eligible = constructed = verified = failed = 0
    failures = []
    for status, row in outcomes:
        if status == "ineligible":
            continue
        eligible += 1
        if status == "failed":
            failed += 1
            failures.append(row)
            continue
        constructed += 1
        if row["verified"]:
            verified += 1
        else:
            failed += 1
            failures.append(row)
    return {"p": p, "mod": mod, "pairs": len(tasks), "eligible": eligible,
            "constructed": constructed, "verified": verified,
            "failed": failed, "failures": failures}
