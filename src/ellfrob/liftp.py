"""Frobenius lifts phi(x) = x^p + p Z(x) on the y-inverted affine curve,
verification of Lie invariance mod p^m, and the mod-p construction with
mu-correction and extendability certificate.

Pairs (a, b) are exact integers (canonical representatives); they are what
the p-derivation and the guard-digit divisions by p act on.

Stacks. A context may hold equal-length int64 arrays a and b of residues
mod p^m <= 2^31: a stack of pairs, one per row of every UPoly it forms
(upoly module doc, Stacks). Its scalars (h_val, lambda0) are then arrays,
and the mod-p steps (build_lift_mod_p, mu_correct,
extendability_certificate, lie_verify_commutator at m = 1 and
eigen_forcing_check) give one verdict per row where one pair gives a bool.
A check that cannot proceed on some row raises, as it does for that pair
alone, naming the first such pair.
"""

import numpy as np

from .errors import (NotDivisible, NotOrdinary, PrecisionOutOfRange,
                     SingularPair, SingularSystem)
from .forms import hasse_poly
from .residue import PrimePower, delta_scalar, inv_mod
from .upoly import FracPoly, UPoly, unit_inverses
from .wpoly import discriminant

_FORMS = {}  # modulus -> (Delta, H) as WPolys, shared by its CurveContexts


def curve_forms(pm):
    """(Delta, H) over pm as WPolys, formed once per modulus."""
    if pm not in _FORMS:
        _FORMS[pm] = discriminant(pm), hasse_poly(pm.p, pm)
    return _FORMS[pm]


def _inverse(v, pm):
    """v^-1 mod pm.q for a unit v: an int, or an array of units."""
    if isinstance(v, np.ndarray):
        return unit_inverses(v, pm)
    return inv_mod(v, pm.q)


def _holds(ok):
    """A verdict for one pair; for a stack, whether it holds on every row."""
    return ok.all() if isinstance(ok, np.ndarray) else ok


def _refuse(ok, a, b, error, text, p):
    """Raise error(text % (a, b, p)) for the first pair (a, b), of one pair
    or of a stack, where ok does not hold."""
    if not _holds(ok):
        i = int(np.argmin(np.atleast_1d(ok)))
        raise error(text % (np.atleast_1d(a)[i], np.atleast_1d(b)[i], p))


class CurveContext:
    """f = x^3 + ax + b over Z/p^m with Delta(a,b) a unit; a and b may be
    arrays, a stack of pairs (module doc, Stacks)."""

    def __init__(self, a, b, pm):
        self.pm = pm
        self.p = pm.p
        self.a = a % pm.q
        self.b = b % pm.q
        delta, hasse = curve_forms(pm)
        _refuse(delta.specialize(self.a, self.b) % pm.p != 0, a, b,
                SingularPair, "Delta(%d, %d) = 0 mod %d", pm.p)
        self.h_val = hasse.specialize(self.a, self.b)
        self.ordinary = self.h_val % pm.p != 0
        self.lambda0 = (_inverse(self.h_val, pm) if _holds(self.ordinary)
                        else None)
        # f per precision (with its powers), K per precision, and delta(a)
        # and delta(b) mod p^m, each formed once per context; they go when
        # the context does
        self.memo = {}

    def f_at(self, prec):
        """f over Z/p^prec: one object per precision, whose powers are
        memoized, so each f**n is formed once per context."""
        f = self.memo.get(("f", prec))
        if f is None:
            f = UPoly.x_cubic(self.a, self.b, PrimePower(self.p, prec))
            self.memo[("f", prec)] = f.memoize_powers()
        return f

    def delta_a(self):
        """delta(a) mod p^m, formed once per context."""
        return self._delta("a")

    def delta_b(self):
        """delta(b) mod p^m, formed once per context."""
        return self._delta("b")

    def _delta(self, name):
        key = ("delta", name)
        if key not in self.memo:
            self.memo[key] = delta_scalar(getattr(self, name), self.pm)
        return self.memo[key]


class FrobLift:
    """A lift Z in S[x]_f plus its eigenvalue; Z.fexp is 0 for mod-p lifts."""

    def __init__(self, ctx, z, lam):
        self.ctx = ctx
        self.z = z
        self.lam = lam


def k_poly(ctx, prec):
    """K = (1/p)(x^(3p) + a x^p + b - f^p) mod p^prec; phi fixes the integer
    scalars a, b. Memoized on ctx, and computed with one guard digit so the
    division by p is exact integer arithmetic."""
    k = ctx.memo.get(("K", prec))
    if k is None:
        p = ctx.p
        pg = PrimePower(p, prec + 1)
        num = (UPoly.monomial(1, 3 * p, pg) + UPoly.monomial(ctx.a, p, pg)
               + UPoly.const(ctx.b, pg) - ctx.f_at(prec + 1) ** p)
        k = ctx.memo[("K", prec)] = num.divexact_p()
    return k


def k0_poly(ctx, prec):
    """K0: K with a^p, b^p in place of phi(a), phi(b). The two differ by
    (a - a^p) x^p / p + (b - b^p) / p, so K0 = K - delta(a) x^p - delta(b).
    Up to the context's precision, the deltas are its memoized ones,
    reduced."""
    pm = PrimePower(ctx.p, prec)
    if prec <= ctx.pm.m:
        da, db = ctx.delta_a(), ctx.delta_b()
    else:
        da, db = delta_scalar(ctx.a, pm), delta_scalar(ctx.b, pm)
    return (k_poly(ctx, prec) - UPoly.monomial(da, ctx.p, pm)
            - UPoly.const(db, pm))


def df_xp(ctx, prec):
    """f'(x^p) = 3x^(2p) + a mod p^prec. Mod p it equals (3x^2 + a)^p, since
    3^p = 3 and a^p = a there, so that power is never formed."""
    return ctx.f_at(prec).derivative().compose_xp()


def w_poly(ctx, prec, lam):
    """W with dW/dx = lam f^((p-1)/2) - x^(p-1) mod p^prec; integrable when
    lam H(a, b) = 1 mod p, which clears the x^(p-1) coefficient."""
    p = ctx.p
    integrand = ((ctx.f_at(prec) ** ((p - 1) // 2)).scale(lam)
                 - UPoly.monomial(1, p - 1, PrimePower(p, prec)))
    return integrand.antiderivative()


def g_minus_one(ctx, z, prec):
    """The numerators (A, B) of G(x, Z) - 1 mod p^prec, where G = phi(f)/f^p,
    for Z = N/f^zf:

    G - 1 = p K/f^p + p (3x^(2p)+a) Z/f^p + 3p^2 x^p Z^2/f^p + p^3 Z^3/f^p
          = p A/f^(p+zf) + p^2 B/f^(2p+2zf),
    with A = K f^zf + N f'(x^p) and B = 3x^p f^p N^2. A is formed mod
    p^(prec-1). B enters at prec 3 only (it is None below), formed mod p as
    N1^2 3x^p f^p for N1 = N mod p, squared mod p: p^2 (N^2 - N1^2)
    = p^2 (N - N1)(N + N1) = 0 mod p^3. The square root of G is a series
    valid up to p^3, so prec <= 3 and the p^3 term vanishes.
    """
    if prec > 3:
        raise PrecisionOutOfRange("G - 1 truncated at p^3, asked for p^%d"
                                  % prec)
    fa = ctx.f_at(prec - 1)
    n = UPoly(z.num.coeffs, fa.pm)
    a_num = n * df_xp(ctx, prec - 1) + k_poly(ctx, prec - 1) * fa ** z.fexp
    if prec < 3:
        return a_num, None
    f1 = ctx.f_at(1)
    n1 = UPoly(z.num.coeffs, f1.pm)
    return a_num, n1 * n1 * (UPoly.monomial(3, ctx.p, f1.pm) * f1 ** ctx.p)


def _f_half_sqrt(ctx, z, prec):
    """f^((p-1)/2) G(x, Z)^(1/2) mod p^prec over the one f-power f^F,
    F = (prec-1)(p+zf), for Z = N/f^zf and prec <= 3.

    With G - 1 = p A/f^(p+zf) + p^2 B/f^(2p+2zf) from g_minus_one,
    G^(1/2) = 1 + (G-1)/2 - (G-1)^2/8 mod p^3, and h = (p-1)/2, it is
    (f^(h+F) + (p/2) f^h A)/f^F at prec 2, and at prec 3
    (f^(h+F) + (p/2) f^(h+p+zf) A + p^2 f^h (4B - A^2)/8)/f^F.
    Each product that p^k multiplies is formed mod p^(prec-k). The p^2
    bracket is formed mod p from A1 = A mod p: p^2 (A^2 - A1^2)
    = p^2 (A - A1)(A + A1) = 0 mod p^3. Every f-power is a memoized one of
    the context.
    """
    a_num, b1 = g_minus_one(ctx, z, prec)
    p, zf = ctx.p, z.fexp
    half = (p - 1) // 2
    f, f1 = ctx.f_at(prec), ctx.f_at(1)
    fexp = (prec - 1) * (p + zf)
    mid = ctx.f_at(prec - 1) ** (half + fexp - p - zf) * a_num
    out = f ** (half + fexp) + mid.scale(inv_mod(2, mid.pm.q)).times_p_to(f.pm)
    if prec == 3:
        a1 = UPoly(a_num.coeffs, f1.pm)
        bracket = b1.scale(4) - a1 * a1
        out = out + (f1 ** half * bracket).scale(inv_mod(8, p)).times_p_to(f.pm)
    return FracPoly(out, fexp, f)


def lie_verify(lift, m):
    """dZ/dx + x^(p-1) = lambda f^((p-1)/2) G(x,Z)^(1/2) mod p^m."""
    ctx = lift.ctx
    p = ctx.p
    f = ctx.f_at(m)
    z = FracPoly(UPoly(lift.z.num.coeffs, f.pm), lift.z.fexp, f)
    lhs = z.derivative() + FracPoly(UPoly.monomial(1, p - 1, f.pm), 0, f)
    if m == 1:
        rhs = FracPoly(f ** ((p - 1) // 2), 0, f)
    else:
        rhs = _f_half_sqrt(ctx, z, m)
    return lhs == rhs.scale(lift.lam)


def lie_verify_commutator(lift, m):
    """The lambda-commutator (1/p) eps.phi - lambda phi.eps on both
    generators, with eps = y d/dx.

    On x, (1/p) eps(phi(x)) = y (x^(p-1) + dZ/dx) and phi(eps x) = h y, so
    the condition is the differential congruence, which lie_verify checks
    first; y_commutator checks the generator y, when some row passed it. On
    a stack a row that failed the first may make the second raise."""
    ok = lie_verify(lift, m)
    if not (ok.any() if isinstance(ok, np.ndarray) else ok):
        return ok
    return ok & y_commutator(lift, m)


def y_commutator(lift, m):
    """The lambda-commutator on y. With phi(y) = h y for
    h = f^((p-1)/2) G^(1/2), it reads
    (1/p)(h' f + h f'/2) = lambda f'(phi(x))/2 mod p^m,
    using eps(y) = f'/2 and y y' = f'/2. For h = N/f^F the left side is
    (N' f + (1/2 - F) N f')/f^F, over p. The division by p is exact
    (h = f^((p-1)/2) mod p), so h is carried mod p^(m+1), and m <= 2.
    """
    ctx = lift.ctx
    f = ctx.f_at(m + 1)
    h = _f_half_sqrt(ctx, lift.z, m + 1)
    lhs = (h.num.derivative() * f + (h.num * f.derivative())
           .scale((1 - 2 * h.fexp) * inv_mod(2, f.pm.q))).divexact_p()
    rhs = _df_phi(ctx, lift.z, m, h.fexp)
    return lhs.equal_rows(rhs.scale(lift.lam * inv_mod(2, rhs.pm.q)))


def _df_phi(ctx, z, m, fexp):
    """The numerator of f'(phi(x)) = 3(x^p + pZ)^2 + a over f^fexp, mod p^m
    for m <= 2 and Z = N/f^zf, zf <= fexp.

    Mod p^2, (x^p + pZ)^2 = x^(2p) + 2p x^p Z, as p^2 Z^2 vanishes, so the
    numerator is (3x^(2p) + a) f^fexp + 6p x^p N f^(fexp-zf), its last
    product taken mod p.
    """
    p = ctx.p
    fm, f1 = ctx.f_at(m), ctx.f_at(1)
    out = df_xp(ctx, m) * fm ** fexp
    if m > 1:
        n1 = UPoly(z.num.coeffs, f1.pm)
        cross = n1 * (UPoly.monomial(6, p, f1.pm) * f1 ** (fexp - z.fexp))
        out = out + cross.times_p_to(fm.pm)
    return out


def build_lift_mod_p(ctx):
    """Z with dZ/dx = lambda0 f^((p-1)/2) - x^(p-1) mod p.

    The x^(p-1) coefficient of the integrand is lambda*H(a,b) - 1; it can be
    made to vanish exactly when H(a,b) is a unit.
    """
    p = ctx.p
    _refuse(ctx.ordinary, ctx.a, ctx.b, NotOrdinary, "H(%d, %d) = 0 mod %d",
            p)
    lam = ctx.lambda0 % p
    z = w_poly(ctx, 1, lam)
    lift_ctx = (ctx if ctx.pm.m == 1
                else CurveContext(ctx.a, ctx.b, PrimePower(p, 1)))
    return FrobLift(lift_ctx, FracPoly(z, 0, ctx.f_at(1)), lam)


def _y_poly(ctx, z):
    """Y(Z) = K + (3x^2 + a)^p Z mod p, for a polynomial Z mod p."""
    return k_poly(ctx, 1) + df_xp(ctx, 1) * z


def _mulmod_f(u, v, a, b, q):
    """u v mod (f, q) for residues u, v of degree <= 2, as coefficient
    lists [c0, c1, c2]: x^3 = -a x - b and x^4 = -a x^2 - b x mod f."""
    c = [0] * 5
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            c[i + j] += ui * vj
    return [(c[0] - b * c[3]) % q, (c[1] - a * c[3] - b * c[4]) % q,
            (c[2] - a * c[4]) % q]


def _xp_mod_f(ctx, q):
    """x^p mod (f, q), by square-and-multiply on residues of degree <= 2."""
    a, b = ctx.a, ctx.b
    out, base, e = [1, 0, 0], [0, 1, 0], ctx.p
    while e:
        if e & 1:
            out = _mulmod_f(out, base, a, b, q)
        e >>= 1
        if e:
            base = _mulmod_f(base, base, a, b, q)
    return out


def mu_correct(ctx, lift):
    """Solve Y + (3x^2+a)^p (mu0 + mu1 x^p + mu2 x^(2p)) = 0 mod (f, p).

    3x3 linear solve over Z/p in the basis 1, x, x^2 of S[x]/(f). Every
    term is a residue of degree <= 2 built from r = x^p mod f, taken mod
    p^2: (3x^2+a)^p = 3r^2 + a mod p, the columns are (3r^2 + a) r^j, and
    K mod f = ((r^3 + a r + b) mod f)/p, since pK = x^(3p) + a x^p + b - f^p
    and f^p = 0 mod f. Only Z is divided by f.
    """
    p, a, b = ctx.p, ctx.a, ctx.b
    q2 = p * p
    r2 = _xp_mod_f(ctx, q2)
    r3 = _mulmod_f(_mulmod_f(r2, r2, a, b, q2), r2, a, b, q2)
    pk = [(r3[0] + a * r2[0] + b) % q2, (r3[1] + a * r2[1]) % q2,
          (r3[2] + a * r2[2]) % q2]
    if any(np.any(c % p) for c in pk):
        raise NotDivisible("x^(3p) + a x^p + b mod (f, p^2) is not p K")
    r = [c % p for c in r2]
    sq = _mulmod_f(r, r, a, b, p)
    base = [(3 * sq[0] + a) % p, 3 * sq[1] % p, 3 * sq[2] % p]
    cols = [base]
    for _ in range(2):
        cols.append(_mulmod_f(cols[-1], r, a, b, p))
    _, zrem = lift.z.num.divmod_monic(ctx.f_at(1))
    yrem = _mulmod_f(base, [zrem.coeff(i) for i in range(3)], a, b, p)
    rhs = [-(c // p + yc) % p for c, yc in zip(pk, yrem)]
    mu = _solve3(cols, rhs, p)
    corrected = (lift.z.num
                 + UPoly(np.stack(mu, axis=-1), PrimePower(p, 1)).compose_xp())
    return mu, FrobLift(ctx, FracPoly(corrected, 0, ctx.f_at(1)), lift.lam)


def _det3(c0, c1, c2):
    """The determinant of the 3x3 matrix with columns c0, c1, c2."""
    return (c0[0] * (c1[1] * c2[2] - c1[2] * c2[1])
            - c1[0] * (c0[1] * c2[2] - c0[2] * c2[1])
            + c2[0] * (c0[1] * c1[2] - c0[2] * c1[1]))


def _solve3(cols, rhs, p):
    """Cramer's rule for the 3x3 system (columns given) over Z/p, on
    residues or on per-row arrays of them: x_j = det(cols, rhs in column
    j) / det(cols). Entries are below p, so a determinant is below 6 p^3."""
    det = _det3(*cols) % p
    if np.any(det == 0):
        raise SingularSystem("singular correction system mod %d" % p)
    inv = _inverse(det, PrimePower(p, 1))
    return [_det3(*(cols[:j] + [rhs] + cols[j + 1:])) * inv % p
            for j in range(3)]


def extendability_certificate(ctx, lift):
    """Is Y divisible by f^((p+1)/2) mod p? Returns (verdict, cofactor)."""
    p = ctx.p
    y = _y_poly(ctx, lift.z.num)
    quo, rem = y.divmod_monic(ctx.f_at(1) ** ((p + 1) // 2))
    return rem.equal_rows(UPoly.zero(rem.pm)), quo


def eigen_forcing_check(lift):
    """lambda * H(a, b) = 1 mod p."""
    ctx = lift.ctx
    return (lift.lam * ctx.h_val - 1) % ctx.p == 0
