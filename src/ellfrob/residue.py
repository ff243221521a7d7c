"""Exact arithmetic in Z/p^m for odd primes p >= 5.

Values are plain Python integers canonically reduced to [0, p^m); the
modulus travels separately as a PrimePower. Python ints promote to arbitrary
precision automatically, so there is no separate big-integer path.
``delta_scalar`` also takes an int64 array of values below 2^63, a stack of
pairs (liftp module doc, Stacks), and reduces it mod p^(m+1) before any
power is formed.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidModulus, NotDivisible
from .upoly import powmod

_PRIMES = set()  # every p that passed is_prime in this process


def is_prime(n):
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimePower:
    """Working modulus p^m, p an odd prime >= 5, and q = p^m, formed once.
    Miller-Rabin runs once per p per process."""

    p: int
    m: int = 1
    q: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p not in _PRIMES and (self.p in (2, 3) or not is_prime(self.p)):
            raise InvalidModulus("p must be a prime >= 5, got %r" % (self.p,))
        if self.m < 1:
            raise InvalidModulus("exponent m must be >= 1, got %r" % (self.m,))
        _PRIMES.add(self.p)
        object.__setattr__(self, "q", self.p ** self.m)

    def drop(self, m):
        return PrimePower(self.p, m)


def inv_mod(v, q):
    """Inverse of an int mod q (q a prime power); raw-int convenience."""
    return pow(v, -1, q)


def delta_scalar(a, pm):
    """p-derivation of an integer: (a - a^p)/p reduced mod p^m; of each
    entry, for an int64 array a.

    The division is exact by Fermat; it is carried out on a representative
    mod p^(m+1) so no full-size power of a is ever formed. On an array,
    a^p mod p^(m+1) comes from ``powmod``, exact for p^(m+1) < 2^62.
    """
    guard = pm.p ** (pm.m + 1)
    if isinstance(a, np.ndarray):
        num = (a - powmod(a % guard, pm.p, guard)) % guard
    else:
        num = (a - pow(a, pm.p, guard)) % guard
    rem = num % pm.p
    if rem.any() if isinstance(rem, np.ndarray) else rem:
        raise NotDivisible("a - a^p not divisible by %d for a = %d"
                           % (pm.p, np.atleast_1d(a)[np.argmax(
                               np.atleast_1d(rem) != 0)]))
    return num // pm.p
