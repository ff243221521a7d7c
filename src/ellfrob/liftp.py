"""Frobenius lifts phi(x) = x^p + p Z(x) on the y-inverted affine curve,
verification of Lie invariance mod p^m, and the mod-p construction with
mu-correction and extendability certificate.

Pairs (a, b) are exact integers (canonical representatives); they are what
the p-derivation and the guard-digit divisions by p act on.
"""

from .errors import (NotOrdinary, PrecisionOutOfRange, SingularPair,
                     SingularSystem)
from .forms import hasse_poly
from .residue import PrimePower, delta_scalar, inv_mod
from .upoly import FracPoly, UPoly
from .wpoly import discriminant


class CurveContext:
    """f = x^3 + ax + b over Z/p^m with Delta(a,b) a unit."""

    def __init__(self, a, b, pm):
        self.pm = pm
        self.p = pm.p
        self.a = a % pm.q
        self.b = b % pm.q
        if discriminant(pm).specialize(self.a, self.b) % pm.p == 0:
            raise SingularPair("Delta(%d, %d) = 0 mod %d" % (a, b, pm.p))
        self.h_val = hasse_poly(pm.p, pm).specialize(self.a, self.b)
        self.ordinary = self.h_val % pm.p != 0
        self.lambda0 = inv_mod(self.h_val, pm.q) if self.ordinary else None
        # f per precision (with its powers) and K per precision, each
        # formed once per context; they go when the context does
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
        return delta_scalar(self.a, self.pm)

    def delta_b(self):
        return delta_scalar(self.b, self.pm)


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
    (a - a^p) x^p / p + (b - b^p) / p, so K0 = K - delta(a) x^p - delta(b)."""
    pm = PrimePower(ctx.p, prec)
    return (k_poly(ctx, prec)
            - UPoly.monomial(delta_scalar(ctx.a, pm), ctx.p, pm)
            - UPoly.const(delta_scalar(ctx.b, pm), pm))


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
    """G(x, Z) - 1 mod p^prec, where G = phi(f)/f^p.

    G - 1 = p K/f^p + p (3x^(2p)+a) Z/f^p + 3p^2 x^p Z^2/f^p + p^3 Z^3/f^p.
    Only the terms surviving mod p^prec are formed. The square root of G is
    a series valid up to p^3, so prec <= 3 and the p^3 term always vanishes.
    """
    if prec > 3:
        raise PrecisionOutOfRange("G - 1 truncated at p^3, asked for p^%d"
                                  % prec)
    p = ctx.p
    pg = PrimePower(p, prec)
    f = ctx.f_at(prec)
    zl = FracPoly(z.num.lift_to(pg), z.fexp, f)
    k = k_poly(ctx, prec - 1).lift_to(pg)
    e = FracPoly(k.scale(p), p, f)
    e = e + FracPoly((zl.num * df_xp(ctx, prec)).scale(p), z.fexp + p, f)
    if prec >= 3:
        zsq = zl * zl
        e = e + FracPoly((zsq.num * UPoly.monomial(3, p, pg)).scale(p * p),
                         zsq.fexp + p, f)
    return e


def _sqrt_one_plus(e, prec):
    """(1+e)^(1/2) for e = 0 mod p, valid mod p^prec for prec <= 3; e comes
    from g_minus_one, which refuses a higher precision."""
    pg = e.pm
    inv2 = inv_mod(2, pg.q)
    inv8 = inv_mod(8, pg.q)
    one = FracPoly(UPoly.const(1, pg), 0, e.f)
    out = one + e.scale(inv2)
    if prec >= 3:
        out = out - (e * e).scale(inv8)
    return out


def lie_verify(lift, m):
    """dZ/dx + x^(p-1) = lambda f^((p-1)/2) G(x,Z)^(1/2) mod p^m."""
    ctx = lift.ctx
    p = ctx.p
    pg = PrimePower(p, m)
    f = ctx.f_at(m)
    z = FracPoly(UPoly(lift.z.num.coeffs, pg), lift.z.fexp, f)
    lhs = z.derivative() + FracPoly(UPoly.monomial(1, p - 1, pg), 0, f)
    half = FracPoly(f ** ((p - 1) // 2), 0, f)
    if m == 1:
        rhs = half.scale(lift.lam)
    else:
        g_half = _sqrt_one_plus(g_minus_one(ctx, z, m), m)
        rhs = (half * g_half).scale(lift.lam)
    return lhs == rhs


def lie_verify_commutator(lift, m):
    """The lambda-commutator (1/p) eps.phi - lambda phi.eps on both
    generators, with eps = y d/dx.

    On x, (1/p) eps(phi(x)) = y (x^(p-1) + dZ/dx) and phi(eps x) = h y, so
    the condition is the differential congruence; lie_verify checks it
    first. On y, with phi(y) = h y for h = f^((p-1)/2) G^(1/2), it reads
    (1/p)(h' f + h f'/2) = lambda (3(x^p+pZ)^2 + a)/2 mod p^m,
    using eps(y) = f'/2 and y y' = f'/2. For h = N/f^e the left side is
    (N' f + (1/2 - e) N f')/f^e, over p. The division by p is exact
    (h = f^((p-1)/2) mod p), so h is carried mod p^(m+1).
    """
    if not lie_verify(lift, m):
        return False
    ctx = lift.ctx
    p = ctx.p
    pg = PrimePower(p, m + 1)
    q = pg.q
    f = ctx.f_at(m + 1)
    zg = FracPoly(UPoly(lift.z.num.coeffs, pg), lift.z.fexp, f)
    e = g_minus_one(ctx, zg, m + 1)
    h = FracPoly(f ** ((p - 1) // 2), 0, f) * _sqrt_one_plus(e, m + 1)

    pm = PrimePower(p, m)
    fm = ctx.f_at(m)
    zm = FracPoly(UPoly(lift.z.num.coeffs, pm), lift.z.fexp, fm)
    t_num = (h.num.derivative() * f + (h.num * f.derivative())
             .scale((1 - 2 * h.fexp) * inv_mod(2, q))).divexact_p()
    lhs_y = FracPoly(t_num.reduce_to(m), h.fexp, fm)
    phix = FracPoly(UPoly.monomial(1, p, pm), 0, fm) + zm.scale(p)
    rhs_y = ((phix * phix).scale(3) + FracPoly(UPoly.const(ctx.a, pm), 0, fm)) \
        .scale(lift.lam * inv_mod(2, pm.q))
    return lhs_y == rhs_y


def build_lift_mod_p(ctx):
    """Z with dZ/dx = lambda0 f^((p-1)/2) - x^(p-1) mod p.

    The x^(p-1) coefficient of the integrand is lambda*H(a,b) - 1; it can be
    made to vanish exactly when H(a,b) is a unit.
    """
    p = ctx.p
    if not ctx.ordinary:
        raise NotOrdinary("H(%d, %d) = 0 mod %d" % (ctx.a, ctx.b, p))
    lam = ctx.lambda0 % p
    z = w_poly(ctx, 1, lam)
    lift_ctx = (ctx if ctx.pm.m == 1
                else CurveContext(ctx.a, ctx.b, PrimePower(p, 1)))
    return FrobLift(lift_ctx, FracPoly(z, 0, ctx.f_at(1)), lam)


def _y_poly(ctx, z):
    """Y(Z) = K + (3x^2 + a)^p Z mod p, for a polynomial Z mod p."""
    return k_poly(ctx, 1) + df_xp(ctx, 1) * z


def mu_correct(ctx, lift):
    """Solve Y + (3x^2+a)^p (mu0 + mu1 x^p + mu2 x^(2p)) = 0 mod (f, p).

    3x3 linear solve over Z/p in the basis 1, x, x^2 of S[x]/(f).
    """
    p = ctx.p
    pm1 = PrimePower(p, 1)
    f = ctx.f_at(1)
    y = _y_poly(ctx, lift.z.num)
    base = df_xp(ctx, 1)
    cols = []
    for j in range(3):
        _, rem = (base * UPoly.monomial(1, j * p, pm1)).divmod_monic(f)
        cols.append([rem.coeff(i) for i in range(3)])
    _, yrem = y.divmod_monic(f)
    rhs = [(-yrem.coeff(i)) % p for i in range(3)]
    mu = _solve3(cols, rhs, p)
    corrected = lift.z.num + UPoly(mu, pm1).compose_xp()
    return mu, FrobLift(ctx, FracPoly(corrected, 0, f), lift.lam)


def _solve3(cols, rhs, p):
    """Gaussian elimination for the 3x3 system (columns given) over Z/p."""
    m = [[cols[j][i] for j in range(3)] + [rhs[i]] for i in range(3)]
    for c in range(3):
        piv = next((r for r in range(c, 3) if m[r][c] % p != 0), None)
        if piv is None:
            raise SingularSystem("singular correction system mod %d" % p)
        m[c], m[piv] = m[piv], m[c]
        inv = inv_mod(m[c][c], p)
        m[c] = [v * inv % p for v in m[c]]
        for r in range(3):
            if r != c and m[r][c]:
                m[r] = [(m[r][k] - m[r][c] * m[c][k]) % p for k in range(4)]
    return [m[i][3] for i in range(3)]


def extendability_certificate(ctx, lift):
    """Is Y divisible by f^((p+1)/2) mod p? Returns (bool, cofactor)."""
    p = ctx.p
    y = _y_poly(ctx, lift.z.num)
    quo, rem = y.divmod_monic(ctx.f_at(1) ** ((p + 1) // 2))
    return rem.is_zero(), quo


def eigen_forcing_check(lift):
    """lambda * H(a, b) = 1 mod p."""
    ctx = lift.ctx
    return (lift.lam * ctx.h_val - 1) % ctx.p == 0
