"""The alpha/beta/psi recurrence tower, the cleared Psi polynomials, the
nonvanishing checks at (0,1) and (1,0), and the prime scanner for the
Psi = c * Delta * H congruence.

Everything here lives in Laurent polynomials in U = a^p, V = b^p (weights 4
and 6), handed out as WPoly with U^i V^j in the z4^i z6^j slot (j may be
< 0): alpha_n has weight -2n, beta_n 2 - 2n and psi_n -4n. Two lanes share
the code: exact Fractions in object arrays (pm=None) and int64 residues mod
p (pm = PrimePower(p, 1)). The mod-p lane runs the streams up to
n = (p+7)/2 and inverts 2n and 2n+2 there. Those are units mod p exactly
when p >= 11: then 2n <= p+7 < 2p, and 2n+2 <= p+9 < 2p is even, so
neither equals p. At p = 5 and 7 the index n = p occurs, so ``psi_table``
and ``conjecture_scan`` refuse those primes with ``PrimeTooSmall``.

Table layout. A stream of the row recursion
    n V v_n = (3/2 - n) U v_{n-1} + (9/2 - n) v_{n-3} + source_n
is weighted homogeneous row by row, so each row is one array on the j-line,
at stride 3 in the U exponent. ``laurent_stream`` stacks five streams in one
table T[s, n, k]: alpha (s = 0: v_0 = 1, no source) and the unit-source
solutions G_1..G_4 (G_s: v_0 = 0, source 1 at step s). T[s, n, k] is the
coefficient of U^(n-s-3k) in row n, so U v_{n-1} lands in column k of row
n and v_{n-3} one column to the right: a step is a few array operations on
all five streams at once. The recursion is linear with coefficients in U,
V^-1 and scalars, which commute with everything in it, so a stream whose
sources are sum_s c_s at step s, with c_s built from U, V^-1, scalars or
anything else commuting with them, is sum_s c_s G_s. Hence beta (sources
U/2 at n = 2 and 3/2 at n = 4) is (U/2) G_2 + (3/2) G_4, the z4' and z6'
streams of the symbolic lane are G_2/2 and G_1/2, and its eta stream is
sum_s d_s G_s. psi_n = alpha_n beta_{n+1} - alpha_{n+1} beta_n is row n of
a second table, psi[n, k] at U^(2n-3k). Rows become WPoly only on demand.
"""

import numpy as np

from .errors import (DegreeMismatch, InternalMismatch, PrecisionOutOfRange,
                     PrimeTooSmall, TheoremViolation)
from .forms import hasse_poly
from .residue import PrimePower, inv_mod, is_prime
from .wpoly import WPoly, _power, _reduce, discriminant


def _canon(table, pm):
    """Reduce an int64 table in place to residues mod p; exact: as it is."""
    if pm is not None:
        table %= pm.q
    return table


def laurent_stream(nmax, pm=None):
    """The stacked table T[s, n, k], 0 <= n <= nmax, of alpha and G_1..G_4
    (module doc). Row n is ((3 - 2n) U v_{n-1} + (9 - 2n) v_{n-3}
    + 2 source_n) / 2n over V: a scale of row n-1, a scale of row n-3 one
    column right, and 1/n at column 0 of G_n. Row n is cut to its support
    k <= n/3."""
    table = np.zeros((5, nmax + 1, nmax // 3 + 1),
                     object if pm is None else np.int64)
    table[0, 0, 0] = 1
    for n in range(1, nmax + 1):
        inv, w = _power(2 * n, -1, pm), n // 3 + 1
        row = table[:, n, :w]
        row[...] = _reduce((3 - 2 * n) * inv, pm) * table[:, n - 1, :w]
        if n >= 3:
            row[:, 1:] += _reduce((9 - 2 * n) * inv, pm) * table[:, n - 3, :w - 1]
        if n <= 4:
            row[n, 0] += 2 * inv
        _canon(row, pm)
    return table


def _beta_rows(table, pm):
    """beta = (U/2) G_2 + (3/2) G_4 as a table: beta[n, k] at U^(n-1-3k)."""
    half = _power(2, -1, pm)
    betas = half * table[2]
    betas[:, 1:] += _reduce(3 * half, pm) * table[4, :, :-1]
    return _canon(betas, pm)


def psi_determinants(alphas, betas, nmax, pm=None):
    """psi_n = alpha_n beta_{n+1} - alpha_{n+1} beta_n for 1 <= n <= nmax as
    the table psi[n, k] at U^(2n-3k): one np.convolve per product on the
    raw rows cut to their support (alpha_n: k <= n/3, beta_n: k <= (n-1)/3)."""
    if pm is not None and 2 * (pm.q - 1) ** 2 * (nmax // 3 + 2) >= 2 ** 63:
        raise PrecisionOutOfRange("psi rows mod %d overflow int64" % pm.q)
    psis = np.zeros((nmax + 1, 2 * nmax // 3 + 1), alphas.dtype)
    for n in range(1, nmax + 1):
        ab = np.convolve(alphas[n, :n // 3 + 1], betas[n + 1, :n // 3 + 1])
        ba = np.convolve(alphas[n + 1, :(n + 1) // 3 + 1],
                         betas[n, :(n - 1) // 3 + 1])
        psis[n, :len(ab)] += ab
        psis[n, :len(ba)] -= ba
    return _canon(psis, pm)


def psi_recurrence_check(psis, nmax, pm=None):
    """Re-derive psi_n for 5 <= n <= nmax from the three-term recurrence
        psi_n = c2 U V^-2 psi_{n-2} + c3 V^-2 psi_{n-3},
        c2 = -(2n-7)(2n-3) / ((2n+2) 2n),  c3 = (2n-7)(2n-9) / ((2n+2) 2n),
    and compare it with the determinant rows of the psi table, every n in
    one array comparison with both sides times the unit (2n+2) 2n. On the
    table U V^-2 moves a row one column right and V^-2 two; the columns
    they push out lie past the support of psi_{n-2} and psi_{n-3}. A
    mismatch is a hard failure."""
    if nmax < 5:
        return True
    n = np.arange(5, nmax + 1).astype(psis.dtype)[:, None]
    # two buffers and no temporaries: the tables dominate the scan's memory
    rhs, lhs = np.zeros_like(psis[5:nmax + 1]), np.zeros_like(psis[5:nmax + 1])
    np.multiply(_reduce(-(2 * n - 7) * (2 * n - 3), pm), psis[3:nmax - 1, :-1],
                out=rhs[:, 1:])
    np.multiply(_reduce((2 * n - 7) * (2 * n - 9), pm), psis[2:nmax - 2, :-2],
                out=lhs[:, 2:])
    rhs += lhs
    np.multiply(_reduce((2 * n + 2) * 2 * n, pm), psis[5:nmax + 1], out=lhs)
    bad = np.flatnonzero((_canon(lhs, pm) != _canon(rhs, pm)).any(axis=1))
    if len(bad):
        raise InternalMismatch(
            "psi_%d: determinant and recurrence disagree" % (bad[0] + 5))
    return True


def clear_psi(psi_n, n):
    """Psi_n = psi_n * V^(2*ceil(n/2)), which must come out polynomial."""
    shift = n if n % 2 == 0 else n + 1
    cleared = psi_n * WPoly.monomial(1, 0, shift, psi_n.pm)
    if cleared.lowest_z6() < 0:
        raise DegreeMismatch("Psi_%d has a leftover V denominator" % n)
    return cleared


class _Rows:
    """The rows of a table as WPoly on demand: row n has weight
    w0 - 2 d n, and its column k holds the coefficient of U^(t0 + d n - 3k)."""

    def __init__(self, rows, pm, w0, t0, d):
        self.rows, self.pm, self.w0, self.t0, self.d = rows, pm, w0, t0, d

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, n):
        row = self.rows[n][::-1]
        return WPoly.from_coeffs(self.w0 - 2 * self.d * n,
                                 self.t0 + self.d * n - 3 * (len(row) - 1),
                                 row, self.pm)


class PsiTable:
    """The tower up to nmax over pm (exact Fractions when None): the stream
    and psi tables, checked by the recurrence, with their rows as WPoly on
    demand in alphas, betas, psis and gs[s] (G_s, 1 <= s <= 4). psi_big is
    the cleared Psi_nmax, the pivot polynomial when nmax = (p+5)/2."""

    def __init__(self, nmax, pm=None):
        streams = laurent_stream(nmax + 1, pm)
        betas = _beta_rows(streams, pm)
        psis = psi_determinants(streams[0], betas, nmax, pm)
        psi_recurrence_check(psis, nmax, pm)
        self.p = None if pm is None else pm.p
        self.psi_rows = psis
        self.alphas = _Rows(streams[0], pm, 0, 0, 1)
        self.betas = _Rows(betas, pm, 2, -1, 1)
        self.gs = [None] + [_Rows(streams[s], pm, 2 * s - 6, -s, 1)
                            for s in range(1, 5)]
        self.psis = _Rows(psis, pm, 0, 0, 2)
        self.psi_big = clear_psi(self.psis[nmax], nmax)
        self.degree = self.psi_big.weighted_degree()  # None when Psi vanishes


def _require_pivot_prime(p):
    if p < 11:
        raise PrimeTooSmall("the pivot system needs p >= 11, got p = %d" % p)


def psi_table(p):
    """Mod-p table up to the pivot index M = (p+5)/2, with the determinant
    vs recurrence cross-check and the cleared pivot polynomial."""
    _require_pivot_prime(p)
    return PsiTable((p + 5) // 2, PrimePower(p, 1))


def exact_psi_table(nmax=9):
    """Exact-rational lane: the universal alpha, beta and psi_1..psi_nmax
    (p plays no role in the coefficients), rows as WPoly on demand."""
    table = PsiTable(nmax)
    return table.alphas, table.betas, table.psis


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
