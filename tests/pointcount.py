"""A point-count oracle for the eigenvalue of the lift, sharing no code with
ellfrob: it imports numpy alone.

For E: y^2 = x^3 + ax + b over F_p, #E(F_p) = p + 1 + sum_x chi(f(x)), chi
the Legendre symbol, read here from a table of squares, and t = p + 1 -
#E(F_p) is the trace of Frobenius. Since chi(v) = v^((p-1)/2) mod p and
sum_x x^k = 0 mod p unless p - 1 divides k > 0, t = H(a, b) mod p, H the
Hasse invariant. When t is a unit mod p, X^2 - tX + p has one root u in
Z_p that is a unit, the unit root of Frobenius (Katz, "Serre-Tate local
moduli", Ann. Sci. ENS 1985): u = t mod p, lifted by Newton's method.
"""

import numpy as np


def legendre_table(p):
    """chi(v) for v = 0..p-1: 0 at 0, 1 on nonzero squares, -1 elsewhere."""
    chi = np.full(p, -1, dtype=np.int64)
    chi[np.arange(p, dtype=np.int64) ** 2 % p] = 1
    chi[0] = 0
    return chi


def traces(p, a, b):
    """t = p + 1 - #E(F_p) for y^2 = x^3 + ax + b at each pair of the
    equal-length integer sequences a and b (any curve, singular too)."""
    a = np.asarray(a, dtype=np.int64)[:, None] % p
    b = np.asarray(b, dtype=np.int64)[:, None] % p
    x = np.arange(p, dtype=np.int64)
    f = (x * x % p * x + a * x + b) % p
    return -legendre_table(p)[f].sum(axis=1)


def unit_root(p, t, m):
    """The unit root of X^2 - tX + p mod p^m, for t a unit mod p: Newton's
    step u <- u - g(u)/g'(u) from u = t, each step doubling the precision."""
    q = p ** m
    u, prec = t % p, 1
    while prec < m:
        u = (u - (u * u - t * u + p) * pow(2 * u - t, -1, q)) % q
        prec *= 2
    return u
