"""The eigenvalue of the lift against point counts (tests/pointcount.py,
which shares no code with ellfrob): lambda t = 1 mod p and, mod p^2,
lambda u = 1 for the unit root u of X^2 - tX + p. Eligibility (Delta and
t units mod p) is read from the count too, not from ellfrob."""

import random

import numpy as np
import pytest

from ellfrob.forms import hasse_poly
from ellfrob.residue import PrimePower
from ellfrob.verify import verify_pair
from pointcount import traces, unit_root


def eligible(p, pairs):
    """The pairs of ``pairs`` with Delta = 4a^3 + 27b^2 and t units mod p,
    each as (a, b, t)."""
    a, b = (np.array(c, dtype=np.int64) for c in zip(*pairs))
    t = traces(p, a, b)
    keep = ((4 * a ** 3 + 27 * b ** 2) % p != 0) & (t % p != 0)
    return [(x, y, int(z)) for x, y, z, k in zip(a.tolist(), b.tolist(),
                                                 t.tolist(), keep) if k]


def by_branch(p, rows):
    """rows split into the stacks of the three branches: b = 0, a = 0 and
    general (mod p), the empty ones dropped."""
    stacks = {"b0": [], "a0": [], "general": []}
    for a, b, t in rows:
        stacks["b0" if b % p == 0 else "a0" if a % p == 0
               else "general"].append((a, b, t))
    return [s for s in stacks.values() if s]


def check_stacks(p, rows):
    """verify_pair mod p and mod p^2 on one stack per branch: every row
    verifies, with lambda t = 1 mod p and lambda u = 1 mod p^2."""
    checked = 0
    for stack in by_branch(p, rows):
        a = np.array([r[0] for r in stack], dtype=np.int64)
        b = np.array([r[1] for r in stack], dtype=np.int64)
        for mod in (1, 2):
            for row, (_, _, t) in zip(verify_pair(p, a, b, mod), stack):
                q = p ** mod
                u = t % p if mod == 1 else unit_root(p, t, 2)
                assert row["verified"]
                assert row["lambda"] * u % q == 1, (row, t)
        checked += len(stack)
    return checked


@pytest.mark.parametrize("p", [13, 17])
def test_lambda_inverts_the_unit_root_at_every_eligible_pair(p):
    rows = eligible(p, [(a, b) for a in range(p) for b in range(p)])
    assert check_stacks(p, rows) == len(rows) > 0


def test_lambda_inverts_the_unit_root_at_seeded_pairs():
    p, rng = 101, random.Random(29)
    rows = []
    while len(rows) < 20:
        rows += eligible(p, [(rng.randrange(p), rng.randrange(p))])
    assert check_stacks(p, rows) == 20


@pytest.mark.parametrize("p", [13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                               59, 61])
def test_trace_is_the_hasse_invariant_mod_p(p):
    """t = H(a, b) mod p at every pair, singular ones too; in particular
    t = 0 exactly where H = 0, the supersingular locus."""
    a, b = (c.ravel() for c in np.meshgrid(np.arange(p), np.arange(p)))
    t = traces(p, a, b) % p
    h = hasse_poly(p, PrimePower(p, 1)).specialize(a, b) % p
    assert ((t == 0) == (h == 0)).all()
    assert (t == h).all()


@pytest.mark.parametrize("p", [13, 17, 61])
@pytest.mark.parametrize("m", [1, 2])
def test_hasse_is_weighted_homogeneous_of_weight_p_minus_1(p, m):
    """H(s^4 a, s^6 b) = s^(p-1) H(a, b) mod p^m: z4 has weight 4, z6
    weight 6, and H weight p - 1."""
    pm, rng = PrimePower(p, m), random.Random(p * m)
    h, q = hasse_poly(p, pm), pm.q
    for _ in range(20):
        s, a, b = (rng.randrange(q) for _ in range(3))
        assert (h.specialize(pow(s, 4, q) * a % q, pow(s, 6, q) * b % q)
                == pow(s, p - 1, q) * h.specialize(a, b) % q)
