"""Batch verification drivers: exhaustive enumeration over F_p pairs and
seeded random sampling over Z/p^(m+1) representatives.

A pair is ineligible (skipped, not failed) when it is singular, has
vanishing Hasse invariant, or hits a vanishing pivot determinant in the
mod-p^2 solve. Everything else must construct and verify.

Stacks. A mod-p sweep checks its pairs in stacks (liftp module doc,
Stacks), not one by one: the tasks are cut into contiguous runs of at most
``_STACK_CELLS // p`` pairs, and of at most an equal share per worker, and
each run is one item of the pool. A run first sets aside its singular and
supersingular pairs, from Delta(a, b) and H(a, b) mod p; the rest go
through the same steps as ``verify_pair``, as rows of one CurveContext.
Should any step raise on the stack (a DomainError, or an InternalError for
a broken invariant), the run is checked again pair by pair through
``verify_pair``, so each failure row names its pair and error class, in
task order, and an InternalError that ends the sweep names its pair, as in
a pair-by-pair sweep. Stacks hold int64 entries; the largest, in the
reduction of x^p mod (f, p^2) in ``mu_correct``, stay below 7 p^5, under
2^63 for p < ``_STACK_P``, and larger primes go pair by pair.
"""

import os
import random

import numpy as np

from .errors import (DomainError, EllfrobError, InvalidModulus, NotOrdinary,
                     SigmaSingular, SingularPair)
from .liftp import (CurveContext, build_lift_mod_p, curve_forms,
                    eigen_forcing_check, extendability_certificate,
                    lie_verify_commutator, mu_correct)
from .liftp2 import build_lift_mod_p2
from .residue import PrimePower

_STACK_P = 2 ** 12       # mod-p sweeps below this p run in stacks
_STACK_CELLS = 2 ** 13   # pairs times p in one stack, which bounds its memory


def _verify_mod_p(ctx):
    """(lambda, verified, extendable) of the mod-p lift of ctx's pair, or
    one of each per row of a stack. The commutator check covers the
    differential congruence on x."""
    lift = build_lift_mod_p(ctx)
    _, corrected = mu_correct(ctx, lift)
    extendable, _ = extendability_certificate(ctx, corrected)
    verified = (lie_verify_commutator(corrected, 1) & extendable
                & eigen_forcing_check(corrected))
    return corrected.lam, verified, extendable


def _mod_p_row(p, a, b, lam, verified, extendable):
    return {"p": p, "a": a, "b": b, "mod": 1, "verified": bool(verified),
            "lambda": int(lam), "extendable": bool(extendable)}


def verify_pair(p, a, b, mod):
    """Construct and fully verify one lift; returns a report row."""
    if mod == 1:
        ctx = CurveContext(a, b, PrimePower(p, 1))
        return _mod_p_row(p, a, b, *_verify_mod_p(ctx))
    if mod == 2:
        ctx = CurveContext(a, b, PrimePower(p, 2))
        lift, info = build_lift_mod_p2(ctx)
        verified = lie_verify_commutator(lift, 2)
        return {"p": p, "a": a, "b": b, "mod": 2, "verified": verified,
                "lambda": lift.lam, "extendable": None,
                "branch": info["branch"], "theta": info["theta"]}
    raise InvalidModulus("mod must be 1 or 2, got %r" % (mod,))


def parallel_map(fn, items, workers=None):
    """[fn(x) for x in items], on a pool of processes when more than one is
    asked for; results keep the order of items either way. The pool never
    exceeds the item count or the CPU count: a forked pool starts all its
    workers at the first submit.

    The pool gets k = min(len(items), 4 * workers) tasks, not one per item:
    task i maps the strided chunk items[i::k], and the results are
    interleaved back in item order. Few tasks keep the per-task pickling and
    queueing small next to a cheap fn; several per worker, each drawn across
    the whole list, keep the load even when the cost of fn rises along it
    (scan's per-prime cost grows with p), where contiguous chunks would
    leave the costliest items to one worker at the end."""
    workers = min(workers or 1, len(items), os.cpu_count() or 1)
    if workers > 1:
        k = min(len(items), 4 * workers)
        with _process_pool(workers) as ex:
            parts = list(ex.map(_map_chunk, [(fn, items[i::k])
                                             for i in range(k)]))
        out = [None] * len(items)
        for i, part in enumerate(parts):
            out[i::k] = part
        return out
    return [fn(x) for x in items]


def _process_pool(workers):
    """A ProcessPoolExecutor of `workers` processes. concurrent.futures is
    imported here, not with the module: it costs about 25 ms of start-up,
    and serial runs never start a pool."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def _map_chunk(task):
    fn, chunk = task
    return [fn(x) for x in chunk]


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
    """[_attempt(t) for t in tasks], for mod-p tasks of one prime, checked
    as one stack (module doc, Stacks)."""
    p = tasks[0][0]
    pm = PrimePower(p, 1)
    a = np.array([t[1] for t in tasks], dtype=np.int64) % p
    b = np.array([t[2] for t in tasks], dtype=np.int64) % p
    delta, hasse = curve_forms(pm)
    rows = np.flatnonzero((delta.specialize(a, b) % p != 0)
                          & (hasse.specialize(a, b) % p != 0))
    outcomes = [("ineligible", None)] * len(tasks)
    if len(rows):
        try:
            checked = _verify_mod_p(CurveContext(a[rows], b[rows], pm))
        except EllfrobError:
            return [_attempt(task) for task in tasks]
        for j, row in zip(rows.tolist(), zip(*checked)):
            outcomes[j] = "ok", _mod_p_row(p, tasks[j][1], tasks[j][2], *row)
    return outcomes


def exhaustive_verify(p, mod, samples=None, seed=2026, workers=None):
    """Summary over all F_p pairs (samples=None) or `samples` random pairs
    drawn from [0, p^(m+1)) so the p-derivation sees nontrivial digits.
    Mod p, the pairs are checked in stacks (module doc, Stacks).

    Mod p^2 needs p >= 11: the general branch truncates at (p+7)/2, which
    must not pass p-1, so smaller primes are refused before any pair runs."""
    if mod == 2 and p < 11:
        raise DomainError("mod-p^2 verification needs p >= 11, got p = %d" % p)
    if samples is None:
        tasks = [(p, a, b, mod) for a in range(p) for b in range(p)]
    else:
        rng = random.Random(seed)
        span = p ** (mod + 1)
        tasks = [(p, rng.randrange(span), rng.randrange(span), mod)
                 for _ in range(samples)]
    if mod == 1 and p < _STACK_P:
        size = max(1, min(_STACK_CELLS // p,
                          -(-len(tasks) // (workers or 1))))
        stacks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        outcomes = [outcome for part in
                    parallel_map(_attempt_stack, stacks, workers)
                    for outcome in part]
    else:
        outcomes = parallel_map(_attempt, tasks, workers)
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
