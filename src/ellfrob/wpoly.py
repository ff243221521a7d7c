"""Weighted-homogeneous polynomials in (z4, z6) and fractions over localizers.

z4, z6 have weights 4 and 6; of weight w, a polynomial is z4^e z6^f g(t) with
t = z4^3/z6^2 (the j-line). WPoly stores w, the lowest z4 exponent lo and
one array c trimmed at both ends: c[k] is the coefficient of z4^(lo+3k)
z6^((w-4lo)/6-2k), exponents may be negative (Laurent). Zero has w = None;
adding two other weights raises DegreeMismatch, so homogeneity holds by
type. Storage is UPoly's, or exact (ints, Fractions) when pm is None; a
product is UPoly's exact array product (upoly module doc, Products), or one
np.convolve when pm is None. Two shapes skip the array product: a factor
that is one term shifts (w, lo) and scales the other array once, and so
does an exact division by one; a row composed at stride k times a factor
of at most k entries (``compose_times``) is one outer product written at
stride k, as its copies do not overlap. LocFrac is a WPoly over a monomial
in named localizers (z4, z6, delta, H, Psi): the ring of symbolic
eigenvalue work.
"""

from fractions import Fraction

import numpy as np

from .errors import (DegreeMismatch, DenominatorMismatch,
                     DenominatorNotLocalizer, ModulusMismatch, NegativeExponent,
                     NotAUnit, PrecisionOutOfRange, SingularPair)
from .residue import inv_mod
from .upoly import UPoly, _mul, _mulmod, _residues, powmod


def _reduce(c, pm):
    return c if pm is None else c % pm.q


def _power(x, e, pm):
    """x^e, mod pm.q or exact when pm is None; e < 0 needs x to be a unit.
    An int64 array x of residues (with pm set) gives one power per entry."""
    if isinstance(x, np.ndarray):
        return powmod(x, e, pm.q)
    if e < 0 and (x if pm is None else x % pm.p) == 0:
        raise NotAUnit("%d^%d: %d is not a unit" % (x, e, x))
    if pm is not None:
        return pow(x, e, pm.q)
    return Fraction(x) ** e if e < 0 else x ** e


class WPoly:
    """Weight w, lowest z4 exponent lo and coefficient array c (module doc)."""

    __slots__ = ("w", "lo", "c", "pm", "_divisor")

    def __init__(self, terms, pm=None):
        """From a dict (e4, e6) -> c whose nonzero terms share one weight."""
        poly = sum((WPoly.monomial(c, i, j, pm) for (i, j), c in terms.items()),
                   WPoly.zero(pm))
        self.pm, self.w, self.lo, self.c = pm, poly.w, poly.lo, poly.c

    def _init(self, w, lo, c, pm):
        """Hold the canonical array c cut to its nonzero span; returns self."""
        nz = np.flatnonzero(c)
        self.pm = pm
        self.w, self.lo, self.c = ((w, lo + 3 * int(nz[0]),
                                    c[nz[0]:nz[-1] + 1])
                                   if len(nz) else (None, 0, c[:0]))
        return self

    @classmethod
    def from_coeffs(cls, w, lo, values, pm=None):
        """Weight w, lowest z4 exponent lo, values[k] at z4^(lo+3k)."""
        c = np.array(values, dtype=object) if pm is None else _residues(values, pm.q)
        return cls.__new__(cls)._init(w, lo, c, pm)

    def _new(self, w, lo, c):  # c canonical, over self.pm
        return WPoly.__new__(WPoly)._init(w, lo, c, self.pm)

    @classmethod
    def zero(cls, pm=None):
        return cls.from_coeffs(None, 0, [], pm)

    @classmethod
    def const(cls, c, pm=None):
        return cls.monomial(c, 0, 0, pm)

    @classmethod
    def monomial(cls, c, e4, e6, pm=None):
        return cls.from_coeffs(4 * e4 + 6 * e6, e4, [c], pm)

    @classmethod
    def z4(cls, pm=None):
        return cls.monomial(1, 1, 0, pm)

    @classmethod
    def z6(cls, pm=None):
        return cls.monomial(1, 0, 1, pm)

    @property
    def terms(self):
        """The nonzero terms as a dict (e4, e6) -> coefficient."""
        return {(e4, e6): c for e4, e6, c in self.to_json()}

    def lowest_z6(self):
        """The least z6 exponent, that of the last array entry (zero: 0)."""
        return ((self.w or 0) - 4 * self.lo) // 6 - 2 * max(len(self.c) - 1, 0)

    def is_zero(self):
        return self.w is None

    def weighted_degree(self):
        """The weight; None for the zero polynomial."""
        return self.w

    def _check(self, other):
        if self.pm != other.pm:
            raise ModulusMismatch("mixed moduli %r / %r" % (self.pm, other.pm))

    def __eq__(self, other):
        return (isinstance(other, WPoly) and self.pm == other.pm
                and self.w == other.w and self.lo == other.lo
                and np.array_equal(self.c, other.c))

    def aligned(self, other):
        """(lo, a, b): the arrays of two equal weights over one z4 range."""
        if self.w != other.w:
            raise DegreeMismatch("weights %s and %s do not add"
                                 % (self.w, other.w))
        lo = min(self.lo, other.lo)
        n = max(self.lo + 3 * len(self.c), other.lo + 3 * len(other.c)) - lo
        out = np.zeros((2, n // 3), self.c.dtype)
        for row, x in zip(out, (self, other)):
            row[(x.lo - lo) // 3:][:len(x.c)] = x.c
        return lo, out[0], out[1]

    def __add__(self, other):
        self._check(other)
        if other.w is None or self.w is None:
            return self if other.w is None else other
        lo, a, b = self.aligned(other)
        return self._new(self.w, lo, _reduce(a + b, self.pm))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._new(self.w, self.lo, _reduce(-self.c, self.pm))

    def _scaled(self, c):
        """The array times c, reduced mod q when pm is set."""
        return (self.c * c if self.pm is None
                else _mulmod(self.c, int(c) % self.pm.q, self.pm.q))

    def scale(self, c):
        return self._new(self.w, self.lo, self._scaled(c))

    def __mul__(self, other):
        self._check(other)
        if self.w is None or other.w is None:
            return WPoly.zero(self.pm)
        if len(self.c) == 1:
            self, other = other, self
        if len(other.c) == 1:  # a monomial: shift (w, lo), scale once
            return self._new(self.w + other.w, self.lo + other.lo,
                             self._scaled(other.c[0]))
        a, b = self.c, other.c
        return self._new(self.w + other.w, self.lo + other.lo,
                         np.convolve(a, b) if self.pm is None
                         else _mul(a, b, self.pm.q))

    def __pow__(self, n):
        if n < 0:
            raise NegativeExponent("WPoly ** %d" % n)
        if n <= 1:
            return self if n == 1 else WPoly.const(1, self.pm)
        half = self ** (n // 2)
        return half * half * self if n & 1 else half * half

    def compose_powers(self, k):
        """Substitute z4 -> z4^k, z6 -> z6^k: the array at stride k."""
        c = np.zeros(len(self.c) and len(self.c) * k - k + 1, self.c.dtype)
        c[::k] = self.c
        return self._new(self.w and self.w * k, self.lo * k, c)

    def compose_times(self, k, other):
        """self.compose_powers(k) * other. When other has at most k entries
        its copies, one per entry of self at stride k, do not overlap: the
        product is their outer product, row i at offset i k. A longer other
        takes the generic product."""
        self._check(other)
        n, width = len(self.c), len(other.c)
        if width > k or self.w is None or other.w is None:
            return self.compose_powers(k) * other
        c = np.zeros((n, k), self.c.dtype)
        c[:, :width] = (np.multiply.outer(self.c, other.c) if self.pm is None
                        else _mulmod(self.c[:, None], other.c, self.pm.q))
        return self._new(self.w * k + other.w, self.lo * k + other.lo,
                         c.ravel()[:n * k - k + width])

    def specialize(self, a, b):
        """Value at (a, b): mod q, or exact (int or Fraction) if pm is None.
        a and b may be equal-length int64 arrays of residues mod q <= 2^31,
        a stack of pairs, for a polynomial without negative exponents: every
        step is reduced mod q, so each product of two residues stays below
        2^62, and the value is one residue per pair."""
        pm, acc, a_k = self.pm, 0, 1
        big_a, big_b = _power(a, 3, pm), _power(b, 2, pm)
        for c in self.c.tolist():
            acc = _reduce(acc * big_b + c * a_k, pm)
            a_k = _reduce(a_k * big_a, pm)
        return _reduce(_reduce(acc * _power(a, self.lo, pm), pm)
                       * _power(b, self.lowest_z6(), pm), pm)

    def restrict_z4_zero(self):
        """Image mod z4: keep only the pure-z6 term."""
        k, r = divmod(-self.lo, 3)
        return self._new(self.w, 0, self.c[k:k + 1] if k >= 0 and not r
                         else self.c[:0])

    def divide_exact(self, g):
        """self/g if exact with no negative exponent, else None: long division
        of the arrays in t mod p^m, by g with a unit leading coefficient. g
        keeps its monic form, which keeps its series inverse
        (UPoly.divmod_monic), so each localizer of a LocalizerSet finds that
        inverse once. A monomial g with a unit coefficient always divides:
        the quotient is the shift of (w, lo) times the inverse of that
        coefficient, mod p^m or exact when pm is None."""
        self._check(g)
        if g.w is None or self.w is None:
            return None if g.w is None else self
        if len(g.c) == 1:
            inv = (1 / Fraction(g.c[0]) if self.pm is None
                   else inv_mod(int(g.c[0]), self.pm.q))
            out = self._new(self.w - g.w, self.lo - g.lo, self._scaled(inv))
            return out if min(out.lo, out.lowest_z6()) >= 0 else None
        if getattr(g, "_divisor", None) is None:
            inv = inv_mod(int(g.c[-1]), self.pm.q)
            g._divisor = inv, UPoly._wrap(g.c, self.pm).scale(inv)
        inv, monic = g._divisor
        quo, rem = UPoly._wrap(self.c, self.pm).divmod_monic(monic)
        out = self._new(self.w - g.w, self.lo - g.lo, quo.scale(inv).coeffs)
        return out if rem.is_zero() and min(out.lo, out.lowest_z6()) >= 0 else None

    def squarefree(self):
        """z4^e z6^f g(t) mod p with e <= 1, f <= 1 and gcd(g, g') = 1? Its
        prime factors are z4, z6 and z4^3 - r z6^2 for the roots r of g."""
        g = UPoly(self.c, self.pm)
        h = g.derivative()
        while not h.is_zero():
            h, g = g.divmod_monic(h.scale(inv_mod(int(h.coeffs[-1]),
                                                  self.pm.q)))[1], h
        return self.lo <= 1 and self.lowest_z6() <= 1 and g.degree() == 0

    def to_json(self):
        """The nonzero terms as (e4, e6, c) rows of Python ints (mod p^m;
        ints or Fractions when pm is None) in (e4, e6) order, which is the
        array order: e4 = lo + 3k rises with k."""
        k = np.flatnonzero(self.c)
        e6 = self.lowest_z6() + 2 * len(self.c) - 2
        return list(zip((self.lo + 3 * k).tolist(), (e6 - 2 * k).tolist(),
                        self.c[k].tolist()))

    def __repr__(self):
        return "WPoly(%r)" % (self.terms,)


def discriminant(pm=None):
    """4 z4^3 + 27 z6^2."""
    return WPoly.from_coeffs(12, 0, [27, 4], pm)


def _monomial_power(r, g):
    """The largest k for which r / g^k has no negative exponent, g a
    monomial z4^i z6^j with i, j >= 0 of positive weight; 0 when r has a
    negative exponent already."""
    have, per = (r.lo, r.lowest_z6()), (g.lo, g.lowest_z6())
    if min(have) < 0:
        return 0
    return min(h // e for h, e in zip(have, per) if e)


class LocalizerSet:
    """The named denominators available to LocFrac, with a power cache.

    Order matters for reciprocal recognition: composite localizers first,
    so greedy division does not strip a plain variable that happens to
    divide Psi or H before those get their chance. At m = 1 every localizer
    L has F_p coefficients, so L(z4^p, z6^p) = L^p: that makes
    LocFrac.frobenius a ring map.
    """

    NAMES = ("Psi", "H", "delta", "z6", "z4")

    def __init__(self, pm, hasse, psi=None):
        self.pm = pm
        self.polys = {"z4": WPoly.z4(pm), "z6": WPoly.z6(pm),
                      "delta": discriminant(pm), "H": hasse}
        if psi is not None:
            self.polys["Psi"] = psi
        self._cache = {}

    def power(self, name, k):
        if (name, k) not in self._cache:
            self._cache[name, k] = self.polys[name] ** k
        return self._cache[name, k]

    def den_poly(self, den):
        out = WPoly.const(1, self.pm)
        for name, k in den.items():
            out = out * self.power(name, k)
        return out


class LocFrac:
    """num / prod(localizer^e); den is a dict name -> positive exponent."""

    __slots__ = ("num", "den", "locs")

    def __init__(self, num, den, locs):
        self.num = num
        self.den = {k: v for k, v in den.items() if v} if not num.is_zero() else {}
        self.locs = locs

    @classmethod
    def from_int(cls, c, locs):
        return cls(WPoly.const(c, locs.pm), {}, locs)

    @classmethod
    def zero(cls, locs):
        return cls(WPoly.zero(locs.pm), {}, locs)

    def is_zero(self):
        return self.num.is_zero()

    def _common(self, other):
        if self.locs is not other.locs:
            raise DenominatorMismatch("fractions over different localizer sets")
        names = set(self.den) | set(other.den)
        den = {n: max(self.den.get(n, 0), other.den.get(n, 0)) for n in names}
        a, b = self.num, other.num
        for n in names:
            da = den[n] - self.den.get(n, 0)
            db = den[n] - other.den.get(n, 0)
            if da:
                a = a * self.locs.power(n, da)
            if db:
                b = b * self.locs.power(n, db)
        return a, b, den

    def __add__(self, other):
        a, b, den = self._common(other)
        return LocFrac(a + b, den, self.locs)

    def __sub__(self, other):
        a, b, den = self._common(other)
        return LocFrac(a - b, den, self.locs)

    def __neg__(self):
        return LocFrac(-self.num, self.den, self.locs)

    def __mul__(self, other):
        if isinstance(other, WPoly):
            return LocFrac(self.num * other, self.den, self.locs)
        if self.locs is not other.locs:
            raise DenominatorMismatch("fractions over different localizer sets")
        den = {n: self.den.get(n, 0) + other.den.get(n, 0)
               for n in set(self.den) | set(other.den)}
        return LocFrac(self.num * other.num, den, self.locs)

    def scale(self, c):
        return LocFrac(self.num.scale(c), self.den, self.locs)

    def __eq__(self, other):
        a, b, _ = self._common(other)
        return a == b

    def weighted_degree(self):
        d = self.num.weighted_degree()
        if d is not None:
            d -= sum(k * self.locs.polys[n].w for n, k in self.den.items())
        return d

    def evaluate(self, a, b):
        """Value at a sigma-non-singular pair; raises when a denominator
        localizer fails to be a unit there."""
        pm, q = self.locs.pm, self.locs.pm.q
        acc = self.num.specialize(a, b)
        for n, k in self.den.items():
            v = self.locs.polys[n].specialize(a, b)
            if v % pm.p == 0:
                error = SingularPair if n in ("delta", "H") else NotAUnit
                raise error("%s(%d, %d) is not a unit" % (n, a, b))
            acc = acc * pow(inv_mod(v, q), k, q) % q
        return acc

    def frobenius(self):
        """z4 -> z4^p, z6 -> z6^p: the numerator at stride p, each localizer
        exponent times p. A ring map mod p only (LocalizerSet), so m > 1
        raises PrecisionOutOfRange."""
        pm = self.locs.pm
        if pm.m != 1:
            raise PrecisionOutOfRange("Frobenius is no ring map mod p^%d"
                                      % pm.m)
        return LocFrac(self.num.compose_powers(pm.p),
                       {n: k * pm.p for n, k in self.den.items()}, self.locs)

    def reciprocal(self):
        """Inverse, for numerators that factor as unit * localizer monomial.

        Greedy exact division by each localizer in order: a dense one (Psi,
        H, delta) one power at a time, a monomial one (z4, z6) by its whole
        power at once, the largest that leaves no negative exponent, read
        off lo and lowest_z6 (the count one power at a time would reach).
        Whatever is left must be a unit constant, or DenominatorNotLocalizer
        is raised. Mod p, over squarefree localizers, the split commutes
        with LocFrac.frobenius: s(z4^p, z6^p) = s^p has p times the
        exponents of s. A dense localizer takes one division per power, so
        p times as many on s^p as on s.
        """
        pm = self.locs.pm
        if self.num.is_zero():
            raise DenominatorNotLocalizer("zero has no reciprocal")
        r, exps = self.num, {}
        for name in self.locs.NAMES:
            g = self.locs.polys.get(name)
            if g is not None and len(g.c) == 1:
                k = _monomial_power(r, g)
                if k:
                    r, exps[name] = r.divide_exact(self.locs.power(name, k)), k
                continue
            while g is not None:
                q2 = r.divide_exact(g)
                if q2 is None:
                    break
                r, exps[name] = q2, exps.get(name, 0) + 1
        if r.w != 0 or r.lo != 0 or len(r.c) != 1:
            raise DenominatorNotLocalizer(
                "numerator is not a unit times a localizer monomial")
        c = int(r.c[0])
        if c % pm.p == 0:
            raise DenominatorNotLocalizer("leftover constant is not a unit")
        num = self.locs.den_poly(self.den).scale(inv_mod(c, pm.q))
        return LocFrac(num, exps, self.locs)

    def __repr__(self):
        return "LocFrac(%r / %r)" % (self.num, self.den)
