import random

import numpy as np
import pytest

import ellfrob.verify as verify
from ellfrob.errors import (DomainError, InvalidModulus, NotAUnit,
                            NotOrdinary, SingularPair)
from ellfrob.verify import exhaustive_verify, parallel_map, verify_pair


def test_verify_pair_refuses_other_moduli():
    with pytest.raises(InvalidModulus):
        verify_pair(13, 1, 1, 3)


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker is ever started."""

    sizes = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


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
    FakePool.sizes = []
    monkeypatch.setattr(verify, "_process_pool", FakePool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    data = list(range(items))
    assert parallel_map(abs, data, workers) == data
    assert FakePool.sizes == ([] if size is None else [size])


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_map_keeps_item_order_across_chunks(monkeypatch, workers):
    """Up to 4 * workers strided chunks go to the pool; results come back in
    item order for every item count, including counts that do not divide
    evenly and counts beyond the chunk count."""
    monkeypatch.setattr(verify, "_process_pool", FakePool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 8)
    for n in range(4 * workers + 4):
        items = [(7 * i) % 11 - 5 for i in range(n)]
        assert parallel_map(repr, items, workers) == [repr(x) for x in items]


def pairwise_summary(p, samples=None, seed=2026):
    """exhaustive_verify's mod-p summary, built pair by pair from
    verify_pair over the same draw."""
    if samples is None:
        pairs = [(a, b) for a in range(p) for b in range(p)]
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(p * p), rng.randrange(p * p))
                 for _ in range(samples)]
    eligible = constructed = verified = 0
    failures = []
    for a, b in pairs:
        try:
            row = verify_pair(p, a, b, 1)
        except (SingularPair, NotOrdinary):
            continue
        except DomainError as e:
            eligible += 1
            failures.append({"p": p, "a": a, "b": b, "mod": 1,
                             "error": type(e).__name__})
            continue
        eligible += 1
        constructed += 1
        if row["verified"]:
            verified += 1
        else:
            failures.append(row)
    return {"p": p, "mod": 1, "pairs": len(pairs), "eligible": eligible,
            "constructed": constructed, "verified": verified,
            "failed": len(failures), "failures": failures}


@pytest.mark.parametrize("p, samples", [(13, None), (17, None), (37, 200)])
def test_stacked_sweep_matches_pair_by_pair(p, samples):
    assert exhaustive_verify(p, 1, samples=samples) == pairwise_summary(
        p, samples)


ERROR_PAIR, FALSE_PAIRS = (2, 3), {(1, 5), (10, 4)}


def sabotage(monkeypatch):
    """mu_correct raises a DomainError on ERROR_PAIR, alone or in a stack,
    and eigen_forcing_check says False on FALSE_PAIRS, through the names
    the sweep calls."""
    real_mu, real_eigen = verify.mu_correct, verify.eigen_forcing_check

    def pairs(ctx):
        return list(zip(np.atleast_1d(ctx.a).tolist(),
                        np.atleast_1d(ctx.b).tolist()))

    def mu_correct(ctx, lift):
        if ERROR_PAIR in pairs(ctx):
            raise NotAUnit("sabotaged")
        return real_mu(ctx, lift)

    def eigen_forcing_check(lift):
        ok = real_eigen(lift)
        bad = [pair in FALSE_PAIRS for pair in pairs(lift.ctx)]
        if isinstance(ok, np.ndarray):
            return ok & ~np.array(bad)
        return ok and not bad[0]

    monkeypatch.setattr(verify, "mu_correct", mu_correct)
    monkeypatch.setattr(verify, "eigen_forcing_check", eigen_forcing_check)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_failures_name_their_pairs_in_task_order(monkeypatch, workers):
    """One stack at 1 worker, two on the in-process pool (the error pair
    and one false pair share the first): the failure rows are those of a
    pair-by-pair sweep, in task order."""
    monkeypatch.setattr(verify, "_process_pool", FakePool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 8)
    FakePool.sizes = []
    sabotage(monkeypatch)
    summary = exhaustive_verify(13, 1, workers=workers)
    assert FakePool.sizes == ([] if workers == 1 else [2])
    assert summary == pairwise_summary(13)
    assert summary["failures"] == [
        {"p": 13, "a": 1, "b": 5, "mod": 1, "verified": False, "lambda": 8,
         "extendable": True},
        {"p": 13, "a": 2, "b": 3, "mod": 1, "error": "NotAUnit"},
        {"p": 13, "a": 10, "b": 4, "mod": 1, "verified": False, "lambda": 12,
         "extendable": True}]
    assert (summary["eligible"], summary["constructed"],
            summary["verified"]) == (144, 143, 141)
