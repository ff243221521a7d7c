"""Weighted bivariate polynomials in (z4, z6) and fractions over localizers.

WPoly is a sparse polynomial with z4, z6 of weighted degrees 4 and 6. It
is the one (z4, z6) polynomial type of the package: exponents may be
negative, which makes it a Laurent polynomial (the psi tower in U = z4^p,
V = z6^p needs V^-1), and with pm=None its coefficients are exact
integers or Fractions (the exact lane of the psi tower holds rationals).
LocFrac is a WPoly numerator over a monomial product of named localizer
polynomials (z4, z6, delta, H, Psi); this is the controlled-denominator
fraction ring all symbolic eigenvalue work happens in.
"""

from .errors import (DenominatorMismatch, DenominatorNotLocalizer,
                     ModulusMismatch, NotAUnit, SingularPair)
from .residue import inv_mod


class WPoly:
    """Sparse dict (e4, e6) -> coefficient, reduced mod pm.q; pm=None means
    exact integers or Fractions."""

    __slots__ = ("terms", "pm")

    def __init__(self, terms, pm=None):
        if pm is None:
            self.terms = {key: c for key, c in terms.items() if c}
        else:
            q = pm.q
            self.terms = {key: c % q for key, c in terms.items() if c % q}
        self.pm = pm

    @classmethod
    def zero(cls, pm=None):
        return cls({}, pm)

    @classmethod
    def const(cls, c, pm=None):
        return cls({(0, 0): c}, pm)

    @classmethod
    def monomial(cls, c, e4, e6, pm=None):
        return cls({(e4, e6): c}, pm)

    @classmethod
    def z4(cls, pm=None):
        return cls({(1, 0): 1}, pm)

    @classmethod
    def z6(cls, pm=None):
        return cls({(0, 1): 1}, pm)

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.pm != other.pm:
            raise ModulusMismatch("mixed moduli %r / %r" % (self.pm, other.pm))

    def __eq__(self, other):
        return (isinstance(other, WPoly) and self.pm == other.pm
                and self.terms == other.terms)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return WPoly(out, self.pm)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) - c
        return WPoly(out, self.pm)

    def __neg__(self):
        return WPoly({k: -c for k, c in self.terms.items()}, self.pm)

    def scale(self, c):
        return WPoly({k: c * v for k, v in self.terms.items()}, self.pm)

    def __mul__(self, other):
        self._check(other)
        a, b = self.terms, other.terms
        if len(b) == 1:
            # a monomial factor shifts and scales in a single pass
            ((k, l), d), = b.items()
            return WPoly({(i + k, j + l): c * d for (i, j), c in a.items()},
                         self.pm)
        if not a or not b:
            return WPoly({}, self.pm)
        # Each exponent pair travels as the int e4 * s + e6, so the inner
        # loop adds ints instead of building tuples. s exceeds four times
        # every |e6| of the factors, so each e6 of the product decodes back.
        s = 4 * max(abs(j) for t in (a, b) for (_, j) in t) + 2
        right = [(k * s + l, d) for (k, l), d in b.items()]
        out = {}
        get = out.get
        for (i, j), c in a.items():
            base = i * s + j
            for key, d in right:
                key += base
                out[key] = get(key, 0) + c * d
        h = s // 2
        return WPoly({((key + h) // s, (key + h) % s - h): c
                      for key, c in out.items()}, self.pm)

    def __pow__(self, n):
        result = WPoly.const(1, self.pm)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def compose_powers(self, k):
        """Substitute z4 -> z4^k, z6 -> z6^k."""
        return WPoly({(i * k, j * k): c for (i, j), c in self.terms.items()}, self.pm)

    def specialize(self, a, b):
        """Value at (z4, z6) = (a, b); exact integer when pm is None."""
        q = self.pm.q if self.pm is not None else None
        acc = 0
        for (i, j), c in self.terms.items():
            if q is not None:
                acc = (acc + c * pow(a, i, q) * pow(b, j, q)) % q
            else:
                acc += c * a ** i * b ** j
        return acc

    def restrict_z4_zero(self):
        """Image mod z4: keep only the pure-z6 terms."""
        return WPoly({k: c for k, c in self.terms.items() if k[0] == 0}, self.pm)

    def weighted_degree(self):
        """Weighted degree when homogeneous, else None; zero poly gives None."""
        degs = {4 * i + 6 * j for (i, j) in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def divide_exact(self, g):
        """Quotient self/g when the division is exact, else None.

        Single-divisor multivariate division mod p^m with lex order on
        (e4, e6); the leading coefficient of g must be a unit.
        """
        self._check(g)
        if g.is_zero():
            return None
        q = self.pm.q
        glead = max(g.terms)
        gc_inv = inv_mod(g.terms[glead], q)
        rem = dict(self.terms)
        quo = {}
        while rem:
            lead = max(rem)
            c = rem[lead]
            i, j = lead[0] - glead[0], lead[1] - glead[1]
            if i < 0 or j < 0:
                return None
            d = c * gc_inv % q
            quo[(i, j)] = d
            for (k, l), gcoef in g.terms.items():
                key = (i + k, j + l)
                v = (rem.get(key, 0) - d * gcoef) % q
                if v:
                    rem[key] = v
                elif key in rem:
                    del rem[key]
        return WPoly(quo, self.pm)

    def to_json(self):
        return [[e4, e6, str(c)] for (e4, e6), c in sorted(self.terms.items())]

    def __repr__(self):
        return "WPoly(%r)" % (self.terms,)


def discriminant(pm=None):
    """4 z4^3 + 27 z6^2."""
    return WPoly({(3, 0): 4, (0, 2): 27}, pm)


class LocalizerSet:
    """The named denominators available to LocFrac, with a power cache.

    Order matters for reciprocal recognition: composite localizers first,
    so greedy division does not strip a plain variable that happens to
    divide Psi or H before those get their chance.

    Mod p, LocFrac.reciprocal finds the same exponents on a p-th power
    through its Frobenius root as one power at a time, provided every
    localizer is squarefree: the largest k with L^k | f is then the least
    valuation of f at a prime factor of L, which scales by p. That holds
    for p >= 5: z4, z6 and Delta are squarefree, H is squarefree because
    its supersingular j-invariants are distinct, and Psi is proportional
    to Delta * H at every prime the scan covers (11..499).
    """

    NAMES = ("Psi", "H", "delta", "z6", "z4")

    def __init__(self, pm, hasse, psi=None):
        self.pm = pm
        self.polys = {
            "z4": WPoly.z4(pm),
            "z6": WPoly.z6(pm),
            "delta": discriminant(pm),
            "H": hasse,
        }
        if psi is not None:
            self.polys["Psi"] = psi
        self._cache = {}

    def power(self, name, k):
        if k == 0:
            return WPoly.const(1, self.pm)
        key = (name, k)
        if key not in self._cache:
            self._cache[key] = self.polys[name] ** k
        return self._cache[key]

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
        a = self.num
        b = other.num
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
        den = dict(self.den)
        for n, k in other.den.items():
            den[n] = den.get(n, 0) + k
        return LocFrac(self.num * other.num, den, self.locs)

    def scale(self, c):
        return LocFrac(self.num.scale(c), self.den, self.locs)

    def __eq__(self, other):
        a, b, _ = self._common(other)
        return a == b

    def weighted_degree(self):
        d = self.num.weighted_degree()
        if d is None:
            return None
        for n, k in self.den.items():
            d -= k * self.locs.polys[n].weighted_degree()
        return d

    def evaluate(self, a, b):
        """Value at a sigma-non-singular pair; raises when a denominator
        localizer fails to be a unit there."""
        pm = self.locs.pm
        q = pm.q
        acc = self.num.specialize(a, b)
        for n, k in self.den.items():
            v = self.locs.polys[n].specialize(a, b)
            if v % pm.p == 0:
                if n in ("delta", "H"):
                    raise SingularPair("%s(%d, %d) is not a unit" % (n, a, b))
                raise NotAUnit("%s(%d, %d) is not a unit" % (n, a, b))
            acc = acc * pow(inv_mod(v, q), k, q) % q
        return acc

    def reciprocal(self):
        """Inverse, for numerators that factor as unit * localizer monomial.

        Greedy exact division by each localizer in order; whatever is left
        must be a unit constant. Raises DenominatorNotLocalizer otherwise.

        Frobenius descent: mod p (m = 1), a numerator r whose exponents are
        all multiples of p is s(z4^p, z6^p) = s^p, where s keeps the
        coefficients and divides every exponent by p (c^p = c in F_p). So
        r is replaced by s, repeatedly, and each exponent found on the root
        counts frob = p^k times. The value is exact on every input: if
        s = c * prod L^e, then r = c * prod L^(e * frob), and the leftover
        constant c stays as it is. The split into exponents is the one the
        greedy division would find on r itself whenever every localizer is
        squarefree, because then each valuation just scales by frob (see
        LocalizerSet). The pivot determinant is a p-th power, and this
        turns its p dense divisions by Psi into one.
        """
        pm = self.locs.pm
        if self.num.is_zero():
            raise DenominatorNotLocalizer("zero has no reciprocal")
        r = self.num
        p = pm.p
        frob = 1
        while (pm.m == 1 and any(i or j for i, j in r.terms)
               and not any(i % p or j % p for i, j in r.terms)):
            r = WPoly({(i // p, j // p): c for (i, j), c in r.terms.items()}, pm)
            frob *= p
        exps = {}
        for name in self.locs.NAMES:
            if name not in self.locs.polys:
                continue
            poly = self.locs.polys[name]
            while True:
                q2 = r.divide_exact(poly)
                if q2 is None:
                    break
                r = q2
                exps[name] = exps.get(name, 0) + frob
        if list(r.terms) != [(0, 0)]:
            raise DenominatorNotLocalizer(
                "numerator is not a unit times a localizer monomial")
        c = r.terms[(0, 0)]
        if c % p == 0:
            raise DenominatorNotLocalizer("leftover constant is not a unit")
        num = self.locs.den_poly(self.den).scale(inv_mod(c, pm.q))
        return LocFrac(num, exps, self.locs)

    def __repr__(self):
        return "LocFrac(%r / %r)" % (self.num, self.den)
