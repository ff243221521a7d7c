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
n and v_{n-3} one column to the right. The recursion is linear with
coefficients in U, V^-1 and scalars, which commute with everything in it,
so a stream whose sources are sum_s c_s at step s, with c_s built from U,
V^-1, scalars or anything else commuting with them, is sum_s c_s G_s.
Hence beta (sources U/2 at n = 2 and 3/2 at n = 4) is (U/2) G_2 +
(3/2) G_4, the z4' and z6' streams of the symbolic lane are G_2/2 and
G_1/2, and its eta stream is sum_s d_s G_s. psi_n = alpha_n beta_{n+1} -
alpha_{n+1} beta_n is row n of a second table, psi[n, k] at U^(2n-3k).
Rows become WPoly only on demand.

Columns. Column k of T is, on all five streams at once, a first-order
recurrence in n:
    x_n = a_n x_{n-1} + y_n,  a_n = (3 - 2n)/2n,
    y_n = c_n T[s, n-3, k-1],  c_n = (9 - 2n)/2n,
plus, in column 0, the source 1/n of G_n (n <= 4) and alpha's v_0 = 1.
Over Q a_n never vanishes. Mod p it vanishes where 2n = 3: in the pivot
tables only at n0 = (p+3)/2, where 3/2 - n0 = -p/2, so x_n0 = y_n0
restarts the column (a longer table restarts again every p rows). Let P_n
be the product of the a_i from the start of n's segment, [0, n0) or
[n0, ...), to n, with P = 1 at each start. Then
    x_n / P_n = sum of y_m / P_m over m <= n in n's segment,
a running sum that restarts at n0. ``laurent_stream`` keeps the table over
P: its column k is the running sum of r_n T/P[s, n-3, k-1], r_n = c_n
P_{n-3} / P_n, so one multiply, one running sum per segment and one
reduction make a column, about N/3 steps where the rows took N. T/P has
the same beta and the same linear combinations; ``_Rows`` hands out row n
times P_n, and the determinants on T/P are psi_n / (P_n P_{n+1}).

Bounds and blocks. Mod p every entry of T/P and every r_n is a residue,
so a running sum of at most nmax + 1 terms stays below (nmax + 1)(p-1)^2,
which ``laurent_stream`` checks against 2^63 (``PrecisionOutOfRange``).
For the pivot tables, nmax = (p+7)/2, that holds for every p below
2.6 * 10^6, far past any table that fits in memory. Mod p the
determinants of 64 rows are one signed sum of two products in one
spectrum, ``upoly._fft_sum`` on the rows cut to the block's widest
support, exact by upoly's Percival bound for two products and checked by
its rounding guard (upoly module doc, Signed sums); the exact lane, nmax
<= 10 in use, keeps one np.convolve per product. The beta table and the
recurrence check take 64 rows at a time too, and every reduction is in
place, so beside the tables themselves no work array grows with more than
64 rows or one column. At p = 4999 the stream table (a rectangle
[k, n, s], half of it zeros) takes 84 MB, the beta table 17 MB and the
psi table 33 MB.
"""

from fractions import Fraction

import numpy as np

from .errors import (DegreeMismatch, InternalMismatch, PrecisionOutOfRange,
                     PrimeTooSmall, TheoremViolation)
from .forms import hasse_poly
from .residue import PrimePower, inv_mod, is_prime
from .upoly import _fft_plan, _fft_sum, _mod, _spectra, unit_inverses
from .wpoly import WPoly, _power, _reduce, discriminant


_BLOCK = 64     # rows per pass: beta, the determinants, the recurrence check


def _canon(x, pm):
    """Reduce an int64 array in place to residues mod p; exact: as it is."""
    return x if pm is None else _mod(x, pm.q, out=x)


def _column_scalars(nmax, pm):
    """For 0 <= n <= nmax: the restarts (the n >= 1 with a_n = 0), P_n and
    r_n = c_n P_{n-3} / P_n (r_0..r_2 unused) as arrays, and the column-0
    sources over P: 1 at n = 0 and 1 / (s P_s) at n = s <= 4 (module doc)."""
    n = np.arange(1, nmax + 1)
    if pm is None:
        inv = np.array([Fraction(1, 2 * k) for k in n.tolist()], object)
    else:
        inv = unit_inverses(2 * n, pm)
    a = _reduce((3 - 2 * n) * inv, pm).tolist()
    c = _reduce((9 - 2 * n) * inv, pm)
    restarts, prods = [], [Fraction(1) if pm is None else 1]
    for k, a_k in enumerate(a, 1):
        if a_k == 0:
            restarts.append(k)
        prods.append(_reduce(prods[-1] * a_k, pm) if a_k else 1)
    P = np.array(prods, inv.dtype)
    Pinv = 1 / P if pm is None else unit_inverses(P, pm)
    r = np.zeros_like(P)
    r[3:] = _reduce(_reduce(c[2:] * P[:-3], pm) * Pinv[3:], pm)
    src = [1] + [_reduce(2 * inv[s - 1] * Pinv[s], pm)
                 for s in range(1, min(4, nmax) + 1)]
    return restarts, P, r, src


def _running_sums(col, cuts):
    """Running sums of col along its first axis, in place, started again at
    each index in cuts."""
    lo = 0
    for m in cuts:
        if m > lo:
            np.add.accumulate(col[lo:m], axis=0, out=col[lo:m])
            lo = m
    np.add.accumulate(col[lo:], axis=0, out=col[lo:])


def laurent_stream(nmax, pm=None):
    """(T / P, P): the stacked table T[s, n, k], 0 <= n <= nmax, of alpha
    and G_1..G_4 (module doc) with row n over P_n, and P. Built column by
    column: column k is the running sum along n of r_n times column k-1
    three rows up (column 0: of the sources), restarted at each n with
    a_n = 0. The table is a view of one stored [k, n, s]."""
    if pm is not None and (nmax + 1) * (pm.q - 1) ** 2 >= 2 ** 63:
        raise PrecisionOutOfRange("stream sums to n = %d mod %d overflow int64"
                                  % (nmax, pm.q))
    restarts, P, r, src = _column_scalars(nmax, pm)
    r = r[:, None]
    table = np.zeros((nmax // 3 + 1, nmax + 1, 5), P.dtype)
    for s, v in enumerate(src):
        table[0, s, s] = v
    _running_sums(table[0], restarts)
    for k in range(1, len(table)):
        col = table[k, 3 * k:]
        np.multiply(table[k - 1, 3 * k - 3:-3], r[3 * k:], out=col)
        _running_sums(col, [m - 3 * k for m in restarts])
        _canon(col, pm)
    return table.transpose(2, 1, 0), P


def _beta_rows(table, pm):
    """beta = (U/2) G_2 + (3/2) G_4 as a table: beta[n, k] at U^(n-1-3k).
    Row by row linear, so it holds as well with every row over P_n."""
    half = _power(2, -1, pm)
    betas = np.zeros(table.shape[1:], table.dtype)
    for n0 in range(0, len(betas), _BLOCK):
        block, rows = betas[n0:n0 + _BLOCK], slice(n0, n0 + _BLOCK)
        np.multiply(table[2, rows], half, out=block)
        block[:, 1:] += _reduce(3 * half, pm) * table[4, rows, :-1]
        _canon(block, pm)
    return betas


def psi_determinants(alphas, betas, P, nmax, pm=None):
    """psi_n = alpha_n beta_{n+1} - alpha_{n+1} beta_n for 1 <= n <= nmax as
    the table psi[n, k] at U^(2n-3k), from the stream rows over P_n: the
    determinant of the rows over P, times P_n P_{n+1}. Mod p, a block of
    rows at a time in one spectrum, ``upoly._fft_sum`` of the signed sum on
    the rows cut to the block's widest support. Exact: one np.convolve per
    product on the rows cut to their support (alpha_n: k <= n/3, beta_n:
    k <= (n-1)/3)."""
    psis = np.zeros((nmax + 1, 2 * nmax // 3 + 1), alphas.dtype)
    pp = _reduce(P[:-1] * P[1:], pm)[:, None]
    if pm is None:
        for n in range(1, nmax + 1):
            ab = np.convolve(alphas[n, :n // 3 + 1], betas[n + 1, :n // 3 + 1])
            ba = np.convolve(alphas[n + 1, :(n + 1) // 3 + 1],
                             betas[n, :(n - 1) // 3 + 1])
            psis[n, :len(ab)] += ab
            psis[n, :len(ba)] -= ba
        psis *= pp[:nmax + 1]
        return psis
    for n0 in range(1, nmax + 1, _BLOCK):
        n1 = min(n0 + _BLOCK, nmax + 1)
        w = n1 // 3 + 1
        plan = _fft_plan(w, w, pm.q, 2)
        fa, fb = (_spectra(x[n0:n1 + 1, :w], pm.q, plan)
                  for x in (alphas, betas))
        block = _fft_sum([([f[:-1] for f in fa], [f[1:] for f in fb]),
                          ([f[1:] for f in fa], [f[:-1] for f in fb])],
                         pm.q, plan)
        block *= pp[n0:n1]
        width = min(block.shape[1], psis.shape[1])
        psis[n0:n1, :width] = _canon(block, pm)[:, :width]
    return psis


def psi_recurrence_check(psis, nmax, pm=None):
    """Re-derive psi_n for 5 <= n <= nmax from the three-term recurrence
        psi_n = c2 U V^-2 psi_{n-2} + c3 V^-2 psi_{n-3},
        c2 = -(2n-7)(2n-3) / ((2n+2) 2n),  c3 = (2n-7)(2n-9) / ((2n+2) 2n),
    and compare it with the determinant rows of the psi table, a block of
    rows at a time, with both sides times the unit (2n+2) 2n. On the
    table U V^-2 moves a row one column right and V^-2 two; the columns
    they push out lie past the support of psi_{n-2} and psi_{n-3}. A
    mismatch is a hard failure."""
    for n0 in range(5, nmax + 1, _BLOCK):
        n1 = min(n0 + _BLOCK, nmax + 1)
        n = np.arange(n0, n1).astype(psis.dtype)[:, None]
        rhs, lhs = np.zeros_like(psis[n0:n1]), np.zeros_like(psis[n0:n1])
        np.multiply(_reduce(-(2 * n - 7) * (2 * n - 3), pm),
                    psis[n0 - 2:n1 - 2, :-1], out=rhs[:, 1:])
        np.multiply(_reduce((2 * n - 7) * (2 * n - 9), pm),
                    psis[n0 - 3:n1 - 3, :-2], out=lhs[:, 2:])
        rhs += lhs
        np.multiply(_reduce((2 * n + 2) * 2 * n, pm), psis[n0:n1], out=lhs)
        bad = np.flatnonzero((_canon(lhs, pm) != _canon(rhs, pm)).any(axis=1))
        if len(bad):
            raise InternalMismatch(
                "psi_%d: determinant and recurrence disagree" % (bad[0] + n0))
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

    def __init__(self, rows, pm, w0, t0, d, scale=None):
        self.rows, self.pm, self.w0, self.t0, self.d = rows, pm, w0, t0, d
        self.scale = scale

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, n):
        row = self.rows[n][::-1]
        if self.scale is not None:
            row = row * self.scale[n]
        return WPoly.from_coeffs(self.w0 - 2 * self.d * n,
                                 self.t0 + self.d * n - 3 * (len(row) - 1),
                                 row, self.pm)


class PsiTable:
    """The tower up to nmax over pm (exact Fractions when None): the stream
    and psi tables, checked by the recurrence, with their rows as WPoly on
    demand in alphas, betas, psis and gs[s] (G_s, 1 <= s <= 4). psi_big is
    the cleared Psi_nmax, the pivot polynomial when nmax = (p+5)/2."""

    def __init__(self, nmax, pm=None):
        streams, P = laurent_stream(nmax + 1, pm)
        betas = _beta_rows(streams, pm)
        psis = psi_determinants(streams[0], betas, P, nmax, pm)
        psi_recurrence_check(psis, nmax, pm)
        self.p = None if pm is None else pm.p
        self.psi_rows = psis
        self.alphas = _Rows(streams[0], pm, 0, 0, 1, P)
        self.betas = _Rows(betas, pm, 2, -1, 1, P)
        self.gs = [None] + [_Rows(streams[s], pm, 2 * s - 6, -s, 1, P)
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
