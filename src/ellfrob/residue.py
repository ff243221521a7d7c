"""Exact arithmetic in Z/p^m for odd primes p >= 5.

Values are plain Python integers canonically reduced to [0, p^m); ResidueInt
wraps one together with its modulus and refuses mixed-modulus arithmetic.
Python ints promote to arbitrary precision automatically, so there is no
separate big-integer path.
"""

from dataclasses import dataclass

from .errors import (InvalidModulus, ModulusMismatch, NotAUnit,
                     NotCongruentOne, NotDivisible)


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
    """Working modulus p^m, p an odd prime >= 5."""

    p: int
    m: int = 1

    def __post_init__(self):
        if self.p in (2, 3) or not is_prime(self.p):
            raise InvalidModulus("p must be a prime >= 5, got %r" % (self.p,))
        if self.m < 1:
            raise InvalidModulus("exponent m must be >= 1, got %r" % (self.m,))

    @property
    def q(self):
        return self.p ** self.m

    def lift(self, extra=1):
        """Same prime at precision m+extra (guard digits for exact division)."""
        return PrimePower(self.p, self.m + extra)

    def drop(self, m):
        return PrimePower(self.p, m)


@dataclass(frozen=True)
class ResidueInt:
    value: int
    modulus: PrimePower

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.modulus.q)

    def _check(self, other):
        if not isinstance(other, ResidueInt):
            raise TypeError("expected ResidueInt, got %r" % type(other))
        if other.modulus != self.modulus:
            raise ModulusMismatch(
                "mixed moduli %r and %r" % (self.modulus, other.modulus))
        return other

    def __add__(self, other):
        other = self._check(other)
        return ResidueInt(self.value + other.value, self.modulus)

    def __sub__(self, other):
        other = self._check(other)
        return ResidueInt(self.value - other.value, self.modulus)

    def __mul__(self, other):
        other = self._check(other)
        return ResidueInt(self.value * other.value, self.modulus)

    def __neg__(self):
        return ResidueInt(-self.value, self.modulus)

    def __pow__(self, n):
        return ResidueInt(pow(self.value, n, self.modulus.q), self.modulus)

    def is_unit(self):
        return self.value % self.modulus.p != 0

    def __int__(self):
        return self.value


def inverse(u):
    """Multiplicative inverse of a unit mod p^m."""
    if u.value % u.modulus.p == 0:
        raise NotAUnit("%d is not a unit mod %d^%d"
                       % (u.value, u.modulus.p, u.modulus.m))
    return ResidueInt(pow(u.value, -1, u.modulus.q), u.modulus)


def inv_mod(v, q):
    """Inverse of an int mod q (q a prime power); raw-int convenience."""
    return pow(v, -1, q)


def sqrt_unit(u):
    """The square root of u = 1 mod p that is itself = 1 mod p.

    Hensel iteration starting from 1; precision doubles per step.
    """
    pm = u.modulus
    p, m = pm.p, pm.m
    if u.value % p != 1:
        raise NotCongruentOne("%d is not 1 mod %d" % (u.value, p))
    r, prec = 1, 1
    while prec < m:
        prec = min(2 * prec, m)
        q = p ** prec
        r = (r - (r * r - u.value) * pow(2 * r, -1, q)) % q
    return ResidueInt(r, pm)


def delta_scalar(a, pm):
    """p-derivation of an integer: (a - a^p)/p reduced mod p^m.

    The division is exact by Fermat; it is carried out on a representative
    mod p^(m+1) so no full-size power of a is ever formed.
    """
    guard = pm.p ** (pm.m + 1)
    num = (a - pow(a, pm.p, guard)) % guard
    if num % pm.p:
        raise NotDivisible("a - a^p not divisible by %d for a = %d" % (pm.p, a))
    return ResidueInt(num // pm.p, pm)
