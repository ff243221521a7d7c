"""The benchmark's workloads as lists of CLI ops.

An op is one ``ellfrob`` CLI invocation: its argv, the HD_THREADS value it
runs with, and the name of the check its output must pass (see checks.py).
The seed sets the lift2 pair draw and the sampled sweep; every seed yields
the same op count and the same branches. ``small=True`` gives reduced inputs
that run the same code paths, for the benchmark's self-test.
"""

import random

from checks import hasse_value

WORKLOADS = ("scan", "lift2", "verify_sweep", "eigen_symbolic")


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _op(argv, threads, check, **extra):
    return dict(argv=[str(v) for v in argv], threads=threads, check=check,
                **extra)


def general_pair(rng, p):
    """A pair with a, b units mod p, drawn from [1, p^2), for which Delta and
    H are units mod p, so the lift takes the general branch. The pivot
    determinant is then a unit too, because Psi is proportional to Delta*H
    at the primes used here (every row of the recorded seed scan through
    p = 499 says so)."""
    while True:
        a, b = rng.randrange(1, p * p), rng.randrange(1, p * p)
        if (a % p and b % p and (4 * a ** 3 + 27 * b ** 2) % p
                and hasse_value(a, b, p)):
            return a, b


def build(name, seed, small=False):
    if name == "scan":
        top = 31 if small else 499
        return [_op(["scan", "--pmin", p, "--pmax", p, "--format", "json"], 1,
                    "reference") for p in range(11, top + 1) if _is_prime(p)]
    if name == "lift2":
        rng = random.Random(seed)
        ops = []
        for p in ((101,) if small else (101, 151, 211)):
            a, b = general_pair(rng, p)
            ops.append(_op(["lift", "--p", p, "--a", a, "--b", b, "--mod", 2],
                           1, "lift", p=p, a=a, b=b, branch="general"))
        return ops
    if name == "verify_sweep":
        def verify_all(check, *args, **extra):
            return _op(["verify-all", "--p", *args], 2, check, **extra)

        if small:
            ops = [verify_all("reference", 11, "--mod", 2),
                   verify_all("sampled", 13, "--mod", 1, "--samples", 8,
                              "--seed", seed, samples=8),
                   verify_all("sampled", 29, "--mod", 2, "--samples", 8,
                              "--seed", seed, samples=8)]
        else:
            ops = [verify_all("reference", 13, "--mod", 2),
                   verify_all("reference", 31, "--mod", 1),
                   verify_all("sampled", 29, "--mod", 2, "--samples", 40,
                              "--seed", seed, samples=40)]
        # Every eligible pair fails here (TOutOfRange: the mod-p^2 general
        # branch needs (p + 7)/2 <= p - 1, which fails for p <= 7) and the
        # command exits 2. The op stays so the defect shows in the figures.
        return ops + [verify_all("known_defect", 7, "--mod", 2)]
    if name == "eigen_symbolic":
        return [_op(["eigen", "--p", p], 1, "reference")
                for p in ((61,) if small else (61, 101, 127))]
    raise KeyError(name)


def threads(ops):
    return max(op["threads"] for op in ops)
