"""The alpha/beta/psi recurrence tower, the cleared Psi polynomials, the
nonvanishing checks at (0,1) and (1,0), and the prime scanner for the
Psi = c * Delta * H congruence.

Everything here lives in Laurent polynomials in U = a^p, V = b^p (weights 4
and 6), stored as WPoly with U^i V^j in the z4^i z6^j slot (j may be < 0):
alpha_n has weight -2n, beta_n 2 - 2n and psi_n -4n. Two lanes share the
code: exact Fractions (pm=None) and integers mod p (pm = PrimePower(p, 1)).
The mod-p lane runs the streams up to n = (p+7)/2 and inverts 2n and 2n+2
there. Those are units mod p exactly when p >= 11: then 2n <= p+7 < 2p, and
2n+2 <= p+9 < 2p is even, so neither equals p. At p = 5 and 7 the index
n = p occurs, so ``psi_table`` and ``conjecture_scan`` refuse those primes
with ``PrimeTooSmall``.
"""

from fractions import Fraction

from .errors import (DegreeMismatch, InternalMismatch, PrimeTooSmall,
                     TheoremViolation)
from .forms import hasse_poly
from .residue import PrimePower, inv_mod, is_prime
from .wpoly import WPoly, discriminant


def _fr(num, den, pm):
    if pm is None:
        return Fraction(num, den)
    return num * inv_mod(den, pm.q) % pm.q


def laurent_stream(nmax, v0, sources, u, v_inv, pm=None):
    """One affine stream of the row recursion
        n V v_n = (3/2 - n) U v_{n-1} + (9/2 - n) v_{n-3} + source_n,
    started at v0, with sources a dict n -> ring element. Any ring with +,
    * and .scale over the scalars of pm will do; u is U in it and v_inv is
    1/V. Each scalar is folded into the one-term factor u or v_inv before
    the product, so a step costs one pass over v_{n-1}."""
    seq = [v0]
    for n in range(1, nmax + 1):
        t = seq[n - 1] * u.scale(_fr(3 - 2 * n, 2, pm))
        if n >= 3:
            t = t + seq[n - 3].scale(_fr(9 - 2 * n, 2, pm))
        if n in sources:
            t = t + sources[n]
        seq.append(t * v_inv.scale(_fr(1, n, pm)))
    return seq


def laurent_units(pm=None):
    """U and 1/V as Laurent WPoly monomials, the u and v_inv of the streams."""
    return WPoly.z4(pm), WPoly.monomial(1, 0, -1, pm)


def alpha_beta_table(nmax, pm=None):
    """Sequences alpha_n, beta_n for 0 <= n <= nmax: alpha with v_0 = 1 and
    no sources, beta with v_0 = 0 and the theta sources U/2 at n = 2 and
    3/2 at n = 4."""
    u, v_inv = laurent_units(pm)
    alphas = laurent_stream(nmax, WPoly.const(1, pm), {}, u, v_inv, pm)
    betas = laurent_stream(
        nmax, WPoly.zero(pm),
        {2: WPoly.monomial(_fr(1, 2, pm), 1, 0, pm),
         4: WPoly.const(_fr(3, 2, pm), pm)}, u, v_inv, pm)
    return alphas, betas


def psi_determinants(alphas, betas, nmax):
    """psi_n = alpha_n beta_{n+1} - alpha_{n+1} beta_n for 1 <= n <= nmax."""
    return [None] + [alphas[n] * betas[n + 1] - alphas[n + 1] * betas[n]
                     for n in range(1, nmax + 1)]


def psi_recurrence_check(psis, nmax, pm=None):
    """Re-derive psi_n for 5 <= n <= nmax from the three-term recurrence and
    compare with the determinant values; a mismatch is a hard failure."""
    for n in range(5, nmax + 1):
        den = (2 * n + 2) * 2 * n
        c2 = _fr(-(2 * n - 7) * (2 * n - 3), den, pm)
        c3 = _fr((2 * n - 7) * (2 * n - 9), den, pm)
        t = (psis[n - 2] * WPoly.monomial(c2, 1, -2, pm)
             + psis[n - 3] * WPoly.monomial(c3, 0, -2, pm))
        if t != psis[n]:
            raise InternalMismatch(
                "psi_%d: determinant and recurrence disagree" % n)
    return True


def clear_psi(psi_n, n):
    """Psi_n = psi_n * V^(2*ceil(n/2)), which must come out polynomial."""
    shift = n if n % 2 == 0 else n + 1
    cleared = psi_n * WPoly.monomial(1, 0, shift, psi_n.pm)
    if cleared.lowest_z6() < 0:
        raise DegreeMismatch("Psi_%d has a leftover V denominator" % n)
    return cleared


class PsiTable:
    def __init__(self, p, alphas, betas, psis, psi_big):
        self.p = p
        self.alphas = alphas
        self.betas = betas
        self.psis = psis
        self.psi_big = psi_big  # the cleared Psi_{(p+5)/2}, a WPoly mod p
        self.degree = psi_big.weighted_degree()  # None when Psi vanishes


def _require_pivot_prime(p):
    if p < 11:
        raise PrimeTooSmall("the pivot system needs p >= 11, got p = %d" % p)


def psi_table(p):
    """Mod-p table up to the pivot index M = (p+5)/2, with the determinant
    vs recurrence cross-check and the cleared pivot polynomial."""
    _require_pivot_prime(p)
    pm = PrimePower(p, 1)
    m_piv = (p + 5) // 2
    alphas, betas = alpha_beta_table(m_piv + 1, pm)
    psis = psi_determinants(alphas, betas, m_piv)
    psi_recurrence_check(psis, m_piv, pm)
    psi_big = clear_psi(psis[m_piv], m_piv)
    return PsiTable(p, alphas, betas, psis, psi_big)


def exact_psi_table(nmax=9):
    """Exact-rational lane: the universal psi_1..psi_nmax (p plays no role
    in the coefficients)."""
    alphas, betas = alpha_beta_table(nmax + 1)
    psis = psi_determinants(alphas, betas, nmax)
    psi_recurrence_check(psis, nmax)
    return alphas, betas, psis


def psi_mod_p(p):
    """The pivot polynomial Psi_{(p+5)/2} in the (z4, z6) slots, mod p."""
    return psi_table(p).psi_big


def degree_audit(p, table=None):
    """Weighted degree of the pivot Psi: p+5 when (p+5)/2 is even
    (p = 3 mod 4), p+11 when odd (p = 1 mod 4)."""
    table = table or psi_table(p)
    expected = p + 5 if p % 4 == 3 else p + 11
    if table.degree != expected:
        raise DegreeMismatch("Psi degree %r, expected %d at p=%d"
                             % (table.degree, expected, p))
    return True


def golem_check(p, table=None):
    """Values of the pivot Psi at (0,1) and (1,0) mod p; the residue classes
    p = 1 mod 3 / p = 1 mod 4 guarantee nonvanishing."""
    table = table or psi_table(p)
    at01 = table.psi_big.specialize(0, 1)
    at10 = table.psi_big.specialize(1, 0)
    if p % 3 == 1 and at01 == 0:
        raise TheoremViolation("Psi(0,1) = 0 mod %d despite p = 1 mod 3" % p)
    if p % 4 == 1 and at10 == 0:
        raise TheoremViolation("Psi(1,0) = 0 mod %d despite p = 1 mod 4" % p)
    return {"at_01": at01, "at_10": at10}


def _proportional(lhs, rhs, p):
    """Is lhs = c * rhs mod p for a constant c? Returns (bool, c, witness),
    the least exponent pair in one support only, else off the ratio c."""
    if lhs.weighted_degree() != rhs.weighted_degree():
        return False, None, min(min(x.terms) for x in (lhs, rhs) if x.terms)
    if rhs.is_zero():
        return True, 0, None
    lo, a, b = lhs.aligned(rhs)
    pairs = list(zip(a.tolist(), b.tolist()))
    bad = [k for k, (x, y) in enumerate(pairs) if (x == 0) != (y == 0)]
    c = None if bad else pairs[0][0] * inv_mod(pairs[0][1], p) % p
    bad = bad or [k for k, (x, y) in enumerate(pairs) if (x - c * y) % p]
    if bad:
        return False, None, (lo + 3 * bad[0], (rhs.w - 4 * lo) // 6 - 2 * bad[0])
    return True, c, None


def scan_prime(p):
    """One scanner row: degree audit, the (0,1)/(1,0) values, and the
    proportionality test of Psi (or z6*Psi for even pivot index) vs Delta*H."""
    table = psi_table(p)
    m_piv = (p + 5) // 2
    degree_ok = True
    try:
        degree_audit(p, table)
    except DegreeMismatch:
        degree_ok = False
    gol = golem_check(p, table)
    pm1 = PrimePower(p, 1)
    target = discriminant(pm1) * hasse_poly(p, pm1)
    lhs = table.psi_big
    if m_piv % 2 == 0:
        lhs = lhs * WPoly.z6(pm1)
    prop, c, witness = _proportional(lhs, target, p)
    return {
        "p": p,
        "class_mod_12": p % 12,
        "psi_degree": table.degree,
        "degree_ok": degree_ok,
        "golem_01": gol["at_01"],
        "golem_10": gol["at_10"],
        "proportional": prop,
        "constant_c": c,
        "counterexample": witness,
    }


def conjecture_scan(pmin, pmax, workers=None):
    """Rows for all primes in [pmin, pmax], in prime order."""
    from .verify import parallel_map  # verify imports liftp2, which imports psi
    primes = [p for p in range(max(pmin, 5), pmax + 1) if is_prime(p)]
    if primes:
        _require_pivot_prime(primes[0])
    return parallel_map(scan_prime, primes, workers)
