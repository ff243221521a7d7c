"""Hasse polynomial, discriminant, j-invariant, and the quasi-linear form
calculus with its mod-p / mod-p^2 weight criteria.

A quasi-linear form of weak weight k is Gamma_k + Gamma_{k-4p} z4' +
Gamma_{k-6p} z6', its coefficients fractions over a LocalizerSet
(``form_localizers``: z4, z6, Delta, H and, for the pivot system, Psi).
Tangential means the derivative coefficients carry a factor p; the starred
coefficients are those divided by p. The mod-p^2 eigenvalue lambda =
lambda0 (1 + p Theta) gives one such form: Theta, of weight 0 over the
Psi-localized set mod p (liftp2.solve_eigen_symbolic).

Multinomials. The x^(3i+j) z4^j z6^k coefficient of f^n = (x^3 + z4 x +
z6)^n, i + j + k = n, is n!/(i! j! k!). On the j-line, row dg = 3i + j has
weight 6n - 2dg and entry t at z4^(dg mod 3 + 3t). ``multinomial_rows``
is the one modular source of these numbers: H = ``hasse_poly``, f^n under
a modulus (``f_power_coeff``) and the symbolic f^((p-1)/2) and K0
(liftp2.sym_d_values) all read it. For n < p no factorial up to n! has the
factor p, so each is a unit mod p^m, and the inverses 1/k! mod p^m come
from one running factorial, one inverse and a downward sweep 1/(k-1)! =
k/k!. At n = p, 1/p! is taken as 0. Residue products go through
upoly._mulmod, so they stay exact past q = 2^31. The table holds n + 1
inverse factorials, and an n past ``MAX_MULTINOMIAL_N`` = 2^20 is refused
with InputTooLarge (exit code 1) before it is built
(``require_multinomial_room``, which ``verify-all`` also runs before its
task list): ``hasse_poly`` runs for every p <= 2^21 + 1 (p = 1000003 in
about 0.3 s), and refuses p = 2^31 - 1 at once instead of building some
2^30 ints. The exact lane
(pm=None) keeps ``math.comb``, the oracle the tests compare the table
against; f_power_coeff also takes it for n >= p under a modulus, where the
factorials are not units.
"""

import functools
import itertools
import math

import numpy as np

from .errors import (DegreeMismatch, InputTooLarge, InternalMismatch,
                     NotTangential, SingularPair)
from .residue import PrimePower, delta_scalar, inv_mod
from .upoly import _mulmod, _zeros
from .wpoly import LocFrac, LocalizerSet, WPoly, discriminant

MAX_MULTINOMIAL_N = 2 ** 20  # the largest n of a multinomial table


def require_multinomial_room(n):
    """Refuse a multinomial table of n past MAX_MULTINOMIAL_N with
    InputTooLarge, before it is built."""
    if n > MAX_MULTINOMIAL_N:
        raise InputTooLarge("a multinomial table of n = %d (%d inverse "
                            "factorials) is past the bound n <= %d"
                            % (n, n + 1, MAX_MULTINOMIAL_N))


def multinomial_rows(n, pm, dgs):
    """(rows, n! mod p^m) for n <= p: row r of the array holds 1/(i! j! k!)
    mod p^m, i + j + k = n, on the j-line row dg = dgs[r], entry t at
    z4^(dg mod 3 + 3t), zero where no (i, j, k) fits; 1/p! is taken as 0,
    and so is n! at n = p (module doc, Multinomials)."""
    require_multinomial_room(n)
    q, top = pm.q, min(n, pm.p - 1)
    inv = _zeros(n + 3, q)  # 0, 1/0!, ..., 1/n!, 0; InvalidModulus past 2^62
    fact = functools.reduce(lambda f, k: f * k % q, range(2, top + 1), 1)
    inv[top + 1:0:-1] = list(itertools.accumulate(  # 1/(k-1)! = k/k!
        range(top, 0, -1), lambda f, k: f * k % q, initial=pow(fact, -1, q)))
    dg, t = np.asarray(dgs)[:, None], np.arange(n // 3 + 1)
    i, j = dg // 3 - t, dg % 3 + 3 * t
    # an index off [0, n] is clipped onto a zero end: no such (i, j, k)
    x, y, z = (inv.take(v + 1, mode="clip") for v in (i, j, n - i - j))
    return _mulmod(_mulmod(x, y, q), z, q), fact if n < pm.p else 0


def f_power_coeff(n, deg, pm=None):
    """Coefficient of x^deg in (x^3 + z4 x + z6)^n, of weight 6n - 2 deg,
    on the j-line layout of ``multinomial_rows``.

    Under a modulus with n < p, row deg of that table times n!; otherwise
    the exact multinomials n!/(i! j! k!) = C(n, i) C(n - i, j), reduced mod
    p^m when pm is given (module doc, Multinomials).
    """
    if pm is not None and n < pm.p:  # (rows, n!) -> the row times n!
        values = _mulmod(*multinomial_rows(n, pm, [deg]), pm.q)[0]
    else:
        values = [math.comb(n, i) * math.comb(n - i, deg - 3 * i) if 0 <= i <= n
                  else 0 for i in range(deg // 3, deg // 3 - n // 3 - 1, -1)]
    return WPoly.from_coeffs(6 * n - 2 * deg, deg % 3, values, pm)


def hasse_poly(p, pm=None):
    """Coefficient of x^(p-1) in (x^3 + z4 x + z6)^((p-1)/2): mod p^m from
    the multinomial table (n = (p-1)/2 < p, so every factorial is a unit),
    exact when pm is None; InputTooLarge past p = 2^21 + 1 (module doc,
    Multinomials)."""
    return f_power_coeff((p - 1) // 2, p - 1, pm)


def j_invariant(a, b, pm):
    """1728 * 4 z4^3 / Delta at (a, b)."""
    q = pm.q
    d = discriminant(pm).specialize(a, b)
    if d % pm.p == 0:
        raise SingularPair("Delta(%d, %d) is not a unit" % (a, b))
    return 1728 * 4 * pow(a, 3, q) * inv_mod(d, q) % q


def classify_pair(a, b, p, sigmas=()):
    """Unit-ness of Delta, H and extra sigma factors at (a, b) mod p.

    sigmas is a sequence of (name, WPoly mod p) pairs.
    """
    pm = PrimePower(p, 1)
    delta_unit = discriminant(pm).specialize(a, b) % p != 0
    h_unit = hasse_poly(p, pm).specialize(a, b) % p != 0
    sigma_units = {name: poly.specialize(a, b) % p != 0 for name, poly in sigmas}
    if not delta_unit:
        label = "singular"
    elif not h_unit:
        label = "non-singular"
    elif sigma_units and all(sigma_units.values()):
        label = "sigma-non-singular"
    else:
        label = "ordinary"
    return {"label": label, "delta_unit": delta_unit, "H_unit": h_unit,
            "sigma_units": sigma_units}


def form_localizers(p, m=2, psi=None):
    """The LocalizerSet the forms are taken over: z4, z6, Delta and H mod
    p^m, and the pivot polynomial Psi when given."""
    pm = PrimePower(p, m)
    return LocalizerSet(pm, hasse_poly(p, pm), psi)


class QuasiLinearForm:
    """Gamma_k + Gamma_4 z4' + Gamma_6 z6' of weak weight k, its slots
    fractions over locs (a LocalizerSet), of weighted degrees k, k - 4p and
    k - 6p, checked here (DegreeMismatch).

    For tangential forms Gamma_4 = p * star_4 and Gamma_6 = p * star_6 with
    the starred parts stored explicitly (they are what the mod-p^2 criterion
    sees; the p factor is not recoverable from a mod-p^m residue).
    """

    def __init__(self, locs, k, gamma_k, gamma_4=None, gamma_6=None,
                 star_4=None, star_6=None):
        p, zero = locs.pm.p, LocFrac.zero(locs)
        self.locs = locs
        self.k = k
        self.gamma_k = gamma_k
        self.tangential = star_4 is not None or star_6 is not None
        if self.tangential:
            star_4 = star_4 if star_4 is not None else zero
            star_6 = star_6 if star_6 is not None else zero
            if gamma_4 is not None or gamma_6 is not None:
                raise InternalMismatch("tangential form takes star parts, "
                                       "not gamma_4/gamma_6")
            gamma_4 = star_4.scale(p)
            gamma_6 = star_6.scale(p)
        self.gamma_4 = gamma_4 if gamma_4 is not None else zero
        self.gamma_6 = gamma_6 if gamma_6 is not None else zero
        self.star_4 = star_4
        self.star_6 = star_6
        for frac, d in ((self.gamma_k, k), (self.gamma_4, k - 4 * p),
                        (self.gamma_6, k - 6 * p)):
            wd = frac.weighted_degree()
            if wd is not None and wd != d:
                raise DegreeMismatch("coefficient degree %r != %r" % (wd, d))


def _vanishes_mod_p(frac):
    """Is the fraction 0 mod p? Reduction mod p is a ring map that takes
    each localizer at p^m to the one at p, so the sum may be formed at p^m
    and its numerator tested."""
    return not any(c % frac.locs.pm.p for c in frac.num.c.tolist())


def weight_check_mod_p(form):
    """4 z4^p Gamma_{k-4p} + 6 z6^p Gamma_{k-6p} = 0 mod p."""
    pm = form.locs.pm
    return _vanishes_mod_p(form.gamma_4 * WPoly.monomial(4, pm.p, 0, pm)
                           + form.gamma_6 * WPoly.monomial(6, 0, pm.p, pm))


def weight_check_mod_p2(form):
    """Gamma_k + 4 z4^p star_4 + 6 z6^p star_6 = 0 mod p."""
    if not form.tangential:
        raise NotTangential("mod-p^2 criterion needs a tangential form")
    pm = form.locs.pm
    return _vanishes_mod_p(form.gamma_k
                           + form.star_4 * WPoly.monomial(4, pm.p, 0, pm)
                           + form.star_6 * WPoly.monomial(6, 0, pm.p, pm))


def form_evaluate(form, a, b):
    """F(a, b) := Gamma_k(a,b) + Gamma_4(a,b) delta(a) + Gamma_6(a,b) delta(b).

    a, b are exact integer representatives (the p-derivation needs the value
    mod p^(m+1), so the canonical lift convention is: the integer itself).
    """
    pm = form.locs.pm
    q = pm.q
    da = delta_scalar(a, pm)
    db = delta_scalar(b, pm)
    v = (form.gamma_k.evaluate(a % q, b % q)
         + form.gamma_4.evaluate(a % q, b % q) * da
         + form.gamma_6.evaluate(a % q, b % q) * db)
    return v % q


def c_power_w(c, w, pm):
    """c^w for w = a0 + a1*phi; phi(c) = c^p + p*delta(c). A negative
    exponent powers the inverse mod q, as pow does."""
    a0, a1 = w
    q = pm.q
    phi_c = (pow(c, pm.p, q) + pm.p * delta_scalar(c, pm)) % q
    return pow(c, a0, q) * pow(phi_c, a1, q) % q


def weight_definition_probe(form, a, b, c, w, precision=None):
    """Does F(c^4 a, c^6 b) = c^w F(a, b) hold mod p^precision at this
    sample? precision defaults to the working precision of the form's
    localizers."""
    pm = form.locs.pm
    lhs = form_evaluate(form, c ** 4 * a, c ** 6 * b)
    rhs = c_power_w(c, w, pm) * form_evaluate(form, a, b) % pm.q
    if precision is None:
        precision = pm.m
    return (lhs - rhs) % pm.p ** precision == 0


def lambda_1(locs):
    """(1/H) times unit_form_delta.

    Weak weight 1-p; reduces to 1/H mod p.
    """
    inv_h = LocFrac(WPoly.const(1, locs.pm), {"H": 1}, locs)
    unit = unit_form_delta(locs)
    return QuasiLinearForm(locs, 1 - locs.pm.p, inv_h,
                           star_4=unit.star_4 * inv_h,
                           star_6=unit.star_6 * inv_h)


def unit_form_z4(locs):
    """1 - p z4' / (4 z4^p)."""
    pm = locs.pm
    s4 = LocFrac(WPoly.const(-inv_mod(4, pm.q), pm), {"z4": pm.p}, locs)
    return QuasiLinearForm(locs, 0, LocFrac.from_int(1, locs), star_4=s4)


def unit_form_z6(locs):
    """1 - p z6' / (6 z6^p)."""
    pm = locs.pm
    s6 = LocFrac(WPoly.const(-inv_mod(6, pm.q), pm), {"z6": pm.p}, locs)
    return QuasiLinearForm(locs, 0, LocFrac.from_int(1, locs), star_6=s6)


def unit_form_delta(locs):
    """1 - p (2 z4^(2p) z4' + 9 z6^p z6') / (2 Delta^p)."""
    pm = locs.pm
    den = {"delta": pm.p}
    s4 = LocFrac(WPoly.monomial(-1, 2 * pm.p, 0, pm), den, locs)
    s6 = LocFrac(WPoly.monomial(-9 * inv_mod(2, pm.q), 0, pm.p, pm), den,
                 locs)
    return QuasiLinearForm(locs, 0, LocFrac.from_int(1, locs), star_4=s4,
                           star_6=s6)


def slope_form_printed(locs):
    """(2 z4^p z6' - 3 z6^p z6') / Delta^p, as printed in the source it was
    taken from; both derivative slots land on z6'. The numerator adds
    weights 4p and 6p, so building it raises DegreeMismatch."""
    pm = locs.pm
    g6 = LocFrac(WPoly({(pm.p, 0): 2, (0, pm.p): -3}, pm), {"delta": pm.p},
                 locs)
    return QuasiLinearForm(locs, -2 * pm.p, LocFrac.zero(locs), gamma_6=g6)


def slope_form_variant(locs):
    """(2 z4^p z6' - 3 z6^p z4') / Delta^p, the balanced variant."""
    pm = locs.pm
    den = {"delta": pm.p}
    g4 = LocFrac(WPoly.monomial(-3, 0, pm.p, pm), den, locs)
    g6 = LocFrac(WPoly.monomial(2, pm.p, 0, pm), den, locs)
    return QuasiLinearForm(locs, -2 * pm.p, LocFrac.zero(locs), gamma_4=g4,
                           gamma_6=g6)
