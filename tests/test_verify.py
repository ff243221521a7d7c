import contextlib
import functools
import os
import pickle
import random
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import ellfrob.errors as errors
import ellfrob.liftp2 as liftp2
import ellfrob.verify as verify
from ellfrob.cli import main
from ellfrob.errors import (DegreeMismatch, DomainError, InternalMismatch,
                            InvalidModulus, NotAUnit, NotOrdinary,
                            PropertyViolation, SigmaSingular, SingularPair,
                            WorkerDied)
from ellfrob.verify import exhaustive_verify, parallel_map, verify_pair


def test_verify_pair_refuses_other_moduli():
    with pytest.raises(InvalidModulus):
        verify_pair(13, 1, 1, 3)


def fork_in_process(monkeypatch, cpus=8):
    """Stands in for verify._run_parts, the seam that forks: the parts are
    mapped in this process, so no worker is ever forked. Returns the part
    count of each map that would have forked, in call order."""
    counts = []

    def run_parts(fn, parts):
        counts.append(len(parts))
        return [verify._map_part(fn, part) for part in parts]

    monkeypatch.setattr(verify, "_run_parts", run_parts)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    return counts


@pytest.mark.parametrize("workers, items, cpus, size", [
    (10 ** 6, 3, 8, 3),      # no more workers than items
    (10 ** 6, 50, 4, 4),     # nor than CPUs
    (2, 50, 4, 2),
    (10 ** 6, 50, None, None),  # unknown CPU count: serial
    (10 ** 6, 1, 8, None),   # one item: serial
    (None, 5, 8, None),
    (4, 0, 8, None),
])
def test_parallel_map_clamps_pool_size(monkeypatch, workers, items, cpus,
                                       size):
    counts = fork_in_process(monkeypatch, cpus)
    data = list(range(items))
    assert parallel_map(abs, data, workers) == data
    assert counts == ([] if size is None else [size])


def test_parallel_map_is_serial_without_fork(monkeypatch):
    counts = fork_in_process(monkeypatch)
    monkeypatch.delattr(verify.os, "fork")
    assert parallel_map(abs, [-1, 2, -3], 3) == [1, 2, 3]
    assert counts == []


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_map_keeps_item_order_across_chunks(monkeypatch, workers):
    """Each worker maps one strided part; results come back in item order
    for every item count, including counts that do not divide evenly."""
    fork_in_process(monkeypatch)
    for n in range(4 * workers + 4):
        items = [(7 * i) % 11 - 5 for i in range(n)]
        assert parallel_map(repr, items, workers) == [repr(x) for x in items]


@pytest.fixture
def forking(monkeypatch):
    """Real forked workers, up to 8 whatever the CPU count, under a time
    limit: SIGALRM raises TimeoutError in the parent after 60 s (interval
    timers are not inherited by a forked child). After the test, no child
    of this process may be left."""
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 8)
    with time_limit(60):
        yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def time_limit(seconds):
    """TimeoutError in this process after `seconds`; an enclosing limit
    keeps what is left of its own."""
    def expire(signum, frame):
        raise TimeoutError("no answer within %g s" % seconds)

    old = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        if outer:
            signal.setitimer(signal.ITIMER_REAL, max(
                outer - (time.monotonic() - start), 1e-3))


@pytest.mark.parametrize("workers", [2, 3])
def test_forked_map_keeps_item_order(forking, workers):
    """As above, on real forked workers."""
    for n in range(4 * workers + 5):
        items = [(7 * i) % 11 - 5 for i in range(n)]
        assert parallel_map(repr, items, workers) == [repr(x) for x in items]


_FFT_BEFORE_FORK = """
import sys
from ellfrob.verify import _run_parts
print(_run_parts(lambda x: "numpy.fft" in sys.modules, [[0]]))
"""


def test_workers_share_numpy_fft():
    """_run_parts imports numpy.fft before it forks (verify module doc,
    Workers): in a fresh interpreter that has run no transform, a forked
    child finds it loaded. numpy 2 loads it on first use, numpy 1 with
    numpy itself."""
    proc = subprocess.run([sys.executable, "-c", _FFT_BEFORE_FORK],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[([True], None)]"


def serial_error(fn, items):
    try:
        [fn(x) for x in items]
    except Exception as e:
        return e
    return None


@pytest.mark.parametrize("workers", [2, 3])
def test_forked_map_raises_the_error_of_the_earliest_failing_item(
        forking, workers):
    """Workers stop at their first failure; the parent raises the error a
    serial map raises, from whichever worker holds the earliest failing
    item, with its class and message intact."""
    rng = random.Random(workers)
    items = list(range(17))
    for bad in [{16}, {1, 0}, {5, 2, 9}, {3, 4}] + [
            set(rng.sample(items, rng.randrange(1, 5))) for _ in range(8)]:
        def fn(x):
            if x in bad:
                raise (PropertyViolation("item %d" % x) if x % 2
                       else NotAUnit("item %d" % x))
            return x

        want = serial_error(fn, items)
        with pytest.raises(type(want)) as got:
            parallel_map(fn, items, workers)
        assert str(got.value) == str(want)


def die_by_exit(x):
    if x == 5:
        os._exit(3)
    return x


def die_by_kill(x):
    if x == 5:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def hang(x):
    """Outlasts every wait of the tests below, unless killed."""
    time.sleep(20)
    return x


@pytest.mark.parametrize("die, why", [
    (die_by_exit, "worker 2 of 2 exited with status 3"),
    (die_by_kill, "worker 2 of 2 was killed by signal %d" % signal.SIGKILL),
])
def test_forked_map_raises_worker_died_when_a_worker_dies(forking, die, why):
    with pytest.raises(WorkerDied, match=why):
        parallel_map(die, list(range(12)), 2)


def test_failed_fork_kills_and_reaps_the_workers_it_started(forking,
                                                            monkeypatch):
    """When a fork fails midway, the parent kills and reaps the worker it
    has started, without waiting for it to finish, and raises the
    error."""
    real_fork, forks = os.fork, []

    def fork():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError("no more processes")
        return real_fork()

    monkeypatch.setattr(verify.os, "fork", fork)
    start = time.monotonic()
    with pytest.raises(BlockingIOError):
        parallel_map(hang, [0, 1, 2], 3)
    assert time.monotonic() - start < 10


def test_interrupted_parent_kills_and_reaps_its_workers(forking):
    """An exception in the parent while it waits on the pipes (here a
    timer's) kills and reaps the workers, and propagates."""
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        with time_limit(0.5):
            parallel_map(hang, [0, 1], 2)
    assert time.monotonic() - start < 10


def test_dead_worker_exits_2_with_one_stderr_line(forking, monkeypatch,
                                                  capsys):
    """A sweep whose worker dies fails as a broken invariant: exit 2 and
    one line on stderr, no traceback."""
    monkeypatch.setenv("HD_THREADS", "2")
    real = verify._attempt_stack

    def attempt_stack(tasks):
        if tasks[0][1:3] != (0, 0):
            os.kill(os.getpid(), signal.SIGKILL)
        return real(tasks)

    monkeypatch.setattr(verify, "_attempt_stack", attempt_stack)
    assert main(["verify-all", "--p", "13", "--mod", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "WorkerDied: worker 2 of 2 was killed by signal %d before sending "
        "its results" % signal.SIGKILL]


@pytest.mark.parametrize("p, mod", [(13, 1), (13, 2)])
def test_forked_sweep_matches_one_worker(forking, p, mod):
    assert exhaustive_verify(p, mod, workers=3) == exhaustive_verify(p, mod)


def test_every_error_survives_pickling():
    """A worker sends its error pickled: each class must come back with
    its message and attributes."""
    for cls in vars(errors).values():
        if isinstance(cls, type) and issubclass(cls, errors.EllfrobError):
            e = cls(3) if cls is errors.NotIntegrable else cls("clause x")
            back = pickle.loads(pickle.dumps(e))
            assert type(back) is cls
            assert (str(back), vars(back)) == (str(e), vars(e))


def sweep_pairs(p, mod, samples=None, seed=2026):
    """The pairs of exhaustive_verify(p, mod, samples, seed), in task
    order."""
    if samples is None:
        return [(a, b) for a in range(p) for b in range(p)]
    rng = random.Random(seed)
    span = p ** (mod + 1)
    return [(rng.randrange(span), rng.randrange(span))
            for _ in range(samples)]


def pairwise_outcomes(p, mod, pairs):
    """(status, row) per pair, from verify_pair on each pair alone."""
    out = []
    for a, b in pairs:
        try:
            out.append(("ok", verify_pair(p, a, b, mod)))
        except (SingularPair, NotOrdinary, SigmaSingular):
            out.append(("ineligible", None))
        except DomainError as e:
            out.append(("failed", {"p": p, "a": a, "b": b, "mod": mod,
                                   "error": type(e).__name__}))
    return out


def summarize(p, mod, outcomes):
    """exhaustive_verify's summary of per-pair outcomes."""
    failures = [row for status, row in outcomes if status == "failed"
                or status == "ok" and not row["verified"]]
    eligible = sum(status != "ineligible" for status, _ in outcomes)
    constructed = sum(status == "ok" for status, _ in outcomes)
    return {"p": p, "mod": mod, "pairs": len(outcomes), "eligible": eligible,
            "constructed": constructed,
            "verified": constructed - sum("verified" in row
                                          for row in failures),
            "failed": len(failures), "failures": failures}


def pairwise_summary(p, samples=None, seed=2026):
    """exhaustive_verify's mod-p summary, built pair by pair from
    verify_pair over the same draw."""
    return summarize(p, 1, pairwise_outcomes(p, 1, sweep_pairs(
        p, 1, samples, seed)))


@pytest.mark.parametrize("p, samples", [(13, None), (17, None), (37, 200)])
def test_stacked_sweep_matches_pair_by_pair(p, samples):
    assert exhaustive_verify(p, 1, samples=samples) == pairwise_summary(
        p, samples)


ERROR_PAIR, FALSE_PAIRS = (2, 3), {(1, 5), (10, 4)}


def ctx_pairs(ctx):
    """The (a, b) of a context, one per row of a stack."""
    return list(zip(np.atleast_1d(ctx.a).tolist(),
                    np.atleast_1d(ctx.b).tolist()))


def sabotage(monkeypatch):
    """mu_correct raises a DomainError on ERROR_PAIR, alone or in a stack,
    and eigen_forcing_check says False on FALSE_PAIRS, through the names
    the sweep calls."""
    real_mu, real_eigen = verify.mu_correct, verify.eigen_forcing_check

    def mu_correct(ctx, lift):
        if ERROR_PAIR in ctx_pairs(ctx):
            raise NotAUnit("sabotaged")
        return real_mu(ctx, lift)

    def eigen_forcing_check(lift):
        ok = real_eigen(lift)
        bad = [pair in FALSE_PAIRS for pair in ctx_pairs(lift.ctx)]
        if isinstance(ok, np.ndarray):
            return ok & ~np.array(bad)
        return ok and not bad[0]

    monkeypatch.setattr(verify, "mu_correct", mu_correct)
    monkeypatch.setattr(verify, "eigen_forcing_check", eigen_forcing_check)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_failures_name_their_pairs_in_task_order(monkeypatch, workers):
    """One stack at 1 worker, two on in-process workers (the error pair
    and one false pair share the first): the failure rows are those of a
    pair-by-pair sweep, in task order."""
    counts = fork_in_process(monkeypatch)
    sabotage(monkeypatch)
    summary = exhaustive_verify(13, 1, workers=workers)
    assert counts == ([] if workers == 1 else [2])
    assert summary == pairwise_summary(13)
    assert summary["failures"] == [
        {"p": 13, "a": 1, "b": 5, "mod": 1, "verified": False, "lambda": 8,
         "extendable": True},
        {"p": 13, "a": 2, "b": 3, "mod": 1, "error": "NotAUnit"},
        {"p": 13, "a": 10, "b": 4, "mod": 1, "verified": False, "lambda": 12,
         "extendable": True}]
    assert (summary["eligible"], summary["constructed"],
            summary["verified"]) == (144, 143, 141)


@functools.lru_cache(maxsize=None)
def cached_pairwise(p, mod, samples):
    return pairwise_outcomes(p, mod, sweep_pairs(p, mod, samples))


def stacked_outcomes(monkeypatch, p, mod, samples, workers, seed=2026):
    """The sweep's (status, row) per task, in task order, read off the
    stacks it maps on in-process workers, with its summary, the number of
    rows checked in stacks, the stacks that raised and the tasks run
    alone."""
    counts = fork_in_process(monkeypatch)
    parts, stacked, raised, alone = [], [], [], []
    real_map, real_attempt = verify.parallel_map, verify._attempt
    real_verify = verify.verify_pair

    def spy_map(fn, items, workers=None):
        out = real_map(fn, items, workers)
        parts.extend(out)
        return out

    def spy_verify(p, a, b, mod):
        if not isinstance(a, np.ndarray):
            return real_verify(p, a, b, mod)
        try:
            rows = real_verify(p, a, b, mod)
        except Exception:
            raised.append(list(zip(a.tolist(), b.tolist())))
            raise
        stacked.append(len(rows))
        return rows

    def spy_attempt(task):
        alone.append(task)
        return real_attempt(task)

    monkeypatch.setattr(verify, "parallel_map", spy_map)
    monkeypatch.setattr(verify, "verify_pair", spy_verify)
    monkeypatch.setattr(verify, "_attempt", spy_attempt)
    summary = exhaustive_verify(p, mod, samples=samples, seed=seed,
                                workers=workers)
    assert counts == ([] if workers == 1 else [2])
    return ([outcome for part in parts for outcome in part], summary,
            sum(stacked), raised, alone)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("p, mod, samples, branches", [
    (13, 1, None, None),
    (13, 2, None, {"general", "a0", "b0"}),
    (17, 2, None, {"general", "b0"}),
    (29, 2, 60, {"general", "b0"}),
    (37, 2, 60, {"general", "a0"}),
])
def test_stacked_rows_match_pair_by_pair(monkeypatch, p, mod, samples,
                                         branches, workers):
    """Task by task, the stacked sweep gives the rows of verify_pair on
    each pair alone: lambda, theta, branch and verdict. No stack raises,
    and most rows are checked in stacks; the rest, in stacks of fewer than
    _STACK_MIN rows, go alone."""
    expected = cached_pairwise(p, mod, samples)
    outcomes, summary, stacked, raised, alone = stacked_outcomes(
        monkeypatch, p, mod, samples, workers)
    assert raised == []
    assert stacked + len(alone) == summary["eligible"]
    assert stacked > len(alone)
    assert outcomes == expected
    assert summary == summarize(p, mod, expected)
    if branches is not None:
        assert {row["branch"] for status, row in outcomes
                if status == "ok"} == branches


# past 2^12 the size rule leaves room for one pair a stack, mod p and mod p^2
@pytest.mark.parametrize("mod, samples, seed", [(1, 4, 3), (2, 2, 5)])
def test_sweeps_past_4096_tally_each_pair_alone(monkeypatch, mod, samples,
                                                seed):
    """At p = 4099 every task of a sampled sweep goes alone through
    _attempt, inside _attempt_stack, in task order, and the summary is the
    tally of those outcomes: every drawn pair verifies."""
    p = 4099
    outcomes, summary, stacked, raised, alone = stacked_outcomes(
        monkeypatch, p, mod, samples, 1, seed)
    tasks = [(p, a, b, mod) for a, b in sweep_pairs(p, mod, samples, seed)]
    assert (stacked, raised, alone) == (0, [], tasks)
    assert summary == summarize(p, mod, outcomes)
    assert summary["verified"] == samples


SIGMA = {(2, 3), (5, 1), (7, 0)}  # (7, 0) has b = 0: it takes the b0 solve


def test_sigma_singular_pairs_are_ineligible_in_a_sweep(monkeypatch):
    """No ordinary pair at p = 13 has a vanishing pivot determinant, so
    solve_eigen_numeric is made to refuse the pairs of SIGMA as it refuses
    such a pair, with SigmaSingular. The stack that holds one is checked
    again pair by pair, and the sweep gives the outcomes of verify_pair on
    each pair alone: the b-unit pairs of SIGMA are ineligible, and the b0
    solve never asks for the determinant."""
    real = liftp2.solve_eigen_numeric

    def solve_eigen_numeric(ctx, d=None):
        if any((a % 13, b % 13) in SIGMA for a, b in ctx_pairs(ctx)):
            raise SigmaSingular("forced")
        return real(ctx, d)

    monkeypatch.setattr(liftp2, "solve_eigen_numeric", solve_eigen_numeric)
    pairs = sweep_pairs(13, 2)
    expected = pairwise_outcomes(13, 2, pairs)
    for workers in (1, 2):
        outcomes, summary, _, raised, _ = stacked_outcomes(
            monkeypatch, 13, 2, None, workers)
        assert any((2, 3) in stack for stack in raised)
        assert outcomes == expected
        assert summary == summarize(13, 2, expected)
    status = dict(zip(pairs, (s for s, _ in expected)))
    assert [status[pair] for pair in sorted(SIGMA)] == [
        "ineligible", "ineligible", "ok"]
    assert (summary["eligible"], summary["constructed"], summary["verified"],
            summary["failures"]) == (142, 142, 142, [])


MOD2_ERROR_PAIR, MOD2_FALSE_PAIRS = (2, 3), {(1, 5), (6, 0)}


def sabotage_mod2(monkeypatch):
    """build_lift_mod_p2 raises a DomainError on MOD2_ERROR_PAIR, alone or
    in a stack, and lie_verify_commutator says False on MOD2_FALSE_PAIRS
    (one in the b-unit stack, one in the b0 stack), through the names the
    sweep calls."""
    real_build = verify.build_lift_mod_p2
    real_lie = verify.lie_verify_commutator

    def build_lift_mod_p2(ctx):
        if MOD2_ERROR_PAIR in ctx_pairs(ctx):
            raise NotAUnit("sabotaged")
        return real_build(ctx)

    def lie_verify_commutator(lift, m):
        ok = real_lie(lift, m)
        bad = [pair in MOD2_FALSE_PAIRS for pair in ctx_pairs(lift.ctx)]
        if isinstance(ok, np.ndarray):
            return ok & ~np.array(bad)
        return ok and not bad[0]

    monkeypatch.setattr(verify, "build_lift_mod_p2", build_lift_mod_p2)
    monkeypatch.setattr(verify, "lie_verify_commutator",
                        lie_verify_commutator)


@pytest.mark.parametrize("workers", [1, 2])
def test_mod2_sweep_failures_name_their_pairs_in_task_order(monkeypatch,
                                                            workers):
    """As test_sweep_failures_name_their_pairs_in_task_order, mod p^2: the
    b-unit stack holding the error pair is checked again pair by pair, the
    other b-unit stack and the b0 stack of 12 rows at 1 worker are not
    (at 2 workers each stack has 6 b0 rows, under _STACK_MIN, which go
    alone), and the failure rows are those of a pair-by-pair sweep, in
    task order."""
    counts = fork_in_process(monkeypatch)
    sabotage_mod2(monkeypatch)
    rerun, real_attempt = [], verify._attempt

    def spy_attempt(task):
        rerun.append(task)
        return real_attempt(task)

    monkeypatch.setattr(verify, "_attempt", spy_attempt)
    summary = exhaustive_verify(13, 2, workers=workers)
    assert counts == ([] if workers == 1 else [2])
    assert (13, 2, 3, 2) in rerun
    assert sorted(a for _, a, b, _ in rerun if b == 0) == (
        [] if workers == 1 else list(range(1, 13)))
    assert all(a * 13 + b < (169 if workers == 1 else 85)
               for _, a, b, _ in rerun if b)
    assert summary == summarize(13, 2, pairwise_outcomes(
        13, 2, sweep_pairs(13, 2)))
    assert summary["failures"] == [
        {"p": 13, "a": 1, "b": 5, "mod": 2, "verified": False, "lambda": 99,
         "extendable": None, "branch": "general", "theta": 5},
        {"p": 13, "a": 2, "b": 3, "mod": 2, "error": "NotAUnit"},
        {"p": 13, "a": 6, "b": 0, "mod": 2, "verified": False, "lambda": 114,
         "extendable": None, "branch": "b0", "theta": 1}]
    assert (summary["eligible"], summary["constructed"],
            summary["verified"]) == (144, 143, 141)


@pytest.mark.parametrize("workers", [1, 2])
def test_internal_error_ends_a_stacked_sweep_as_pair_by_pair(monkeypatch,
                                                             workers):
    """build_lift_mod_p2 raises DegreeMismatch on (2, 3), and
    lie_verify_commutator, a later step, InternalMismatch on (1, 5), an
    earlier task. The stack stops at the first and is checked again pair
    by pair, so the sweep ends as a pair-by-pair sweep does, at (1, 5)."""
    fork_in_process(monkeypatch)
    real_build = verify.build_lift_mod_p2
    real_lie = verify.lie_verify_commutator

    def build_lift_mod_p2(ctx):
        if (2, 3) in ctx_pairs(ctx):
            raise DegreeMismatch("sabotaged at (2, 3)")
        return real_build(ctx)

    def lie_verify_commutator(lift, m):
        if (1, 5) in ctx_pairs(lift.ctx):
            raise InternalMismatch("sabotaged at (1, 5)")
        return real_lie(lift, m)

    monkeypatch.setattr(verify, "build_lift_mod_p2", build_lift_mod_p2)
    monkeypatch.setattr(verify, "lie_verify_commutator",
                        lie_verify_commutator)
    with pytest.raises(InternalMismatch, match=r"\(1, 5\)"):
        exhaustive_verify(13, 2, workers=workers)


@pytest.mark.parametrize("mod", [1, 2])
@pytest.mark.parametrize("n", [verify._STACK_MIN - 1, verify._STACK_MIN])
def test_stacks_under_the_minimum_go_pair_by_pair(monkeypatch, mod, n):
    """_attempt_stack checks n eligible pairs of one branch in one stack
    when n reaches _STACK_MIN, and each alone through _attempt below it;
    the outcomes are those of verify_pair on each pair alone either
    way."""
    expected = [(pair, outcome) for pair, outcome in zip(
        sweep_pairs(13, mod), cached_pairwise(13, mod, None))
        if outcome[0] == "ok" and pair[1]][:n]
    stacks, real_verify = [], verify.verify_pair

    def spy_verify(p, a, b, mod):
        if isinstance(a, np.ndarray):
            stacks.append(len(a))
        return real_verify(p, a, b, mod)

    monkeypatch.setattr(verify, "verify_pair", spy_verify)
    outcomes = verify._attempt_stack([(13, a, b, mod)
                                      for (a, b), _ in expected])
    assert outcomes == [outcome for _, outcome in expected]
    assert stacks == ([n] if n >= verify._STACK_MIN else [])


def test_sweep_refuses_other_moduli():
    with pytest.raises(InvalidModulus):
        exhaustive_verify(13, 3)


@pytest.mark.parametrize("p, mod, samples, workers, sizes", [
    (13, 2, None, 1, [169]),         # 2^15 // 13^2 = 193 pairs of room
    (13, 2, None, 2, [85, 84]),      # an equal share per worker
    (29, 2, 40, 1, [38, 2]),         # 2^15 // 29^2 = 38
    (67, 2, 9, 1, [7, 2]),           # 2^15 // 67^2 = 7
    (211, 2, 3, 1, [1, 1, 1]),       # no room: one pair per stack
    (31, 1, None, 2, [264, 264, 264, 169]),  # 2^13 // 31 = 264
    (4099, 1, 3, 1, [1, 1, 1]),      # 2^13 // 4099 = 1
])
def test_stack_sizes_follow_one_rule(monkeypatch, p, mod, samples, workers,
                                     sizes):
    """Stacks hold at most 2^13 // p pairs mod p, 2^15 // p^2 mod p^2, and
    an equal share per worker, and at least one pair."""
    maps = []

    def stacked(tasks):
        return [("ineligible", None)] * len(tasks)

    def spy_map(fn, items, workers=None):
        maps.append([len(x) for x in items] if fn is stacked else None)
        return [fn(x) for x in items]

    monkeypatch.setattr(verify, "parallel_map", spy_map)
    monkeypatch.setattr(verify, "_attempt_stack", stacked)
    exhaustive_verify(p, mod, samples=samples, workers=workers)
    assert maps == [sizes]
