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
neither equals p. At p = 5 and 7 the index n = p occurs, so ``psi_table``,
``conjecture_scan`` and the numeric pivot solve of liftp2 refuse those
primes with ``PrimeTooSmall``.

Table layout. A stream of the row recursion
    n V v_n = (3/2 - n) U v_{n-1} + (9/2 - n) v_{n-3} + source_n
is weighted homogeneous row by row, so each row is one array on the j-line,
at stride 3 in the U exponent. ``laurent_stream`` builds the streams it is
given, each by its sources (n, k, c): the scalar c at step n in column k of
the stream's layout, and at n = 0 the start v_0 = c. It stacks them in one
table T[s, n, k], whose column k holds the coefficient of U^(n-t-3k) in
row n of a stream with t fixed, so U v_{n-1} lands in column k of row n
and v_{n-3} one column to the right. The recursion is linear with
coefficients in U, V^-1 and scalars, which commute with everything in it,
so a stream whose sources are sum_s c_s at step s, with c_s built from U,
V^-1, scalars or anything else commuting with them, is sum_s c_s G_s, G_s
(t = s) the unit-source solution: v_0 = 0, source 1 at step s.
``PsiTable`` makes one table in one ``laurent_stream`` pass: alpha (t = 0,
v_0 = 1, no source) and beta (t = 1, v_0 = 0, sources U/2 at n = 2 in
column 0 and 3/2 at n = 4 in column 1, the U^1 and U^0 of rows 2 and 4 in
beta's layout U^(n-1-3k); so beta is (U/2) G_2 + (3/2) G_4 as well), then
the extra streams it is given, the sources of G_1, G_2, ... in that order.
The scan gives none. The symbolic lane gives G_SOURCES to ``psi_table``
and reads G_1..G_4 at rows M = (p+5)/2 and M+1: its z4' and z6' streams
are G_2/2 and G_1/2, and its eta stream is sum_s d_s G_s. ``row(s, n)``
hands out row n of stream s as WPoly, and ``psi(n)`` psi_n = alpha_n
beta_{n+1} - alpha_{n+1} beta_n, row n of psi[n, k] at U^(2n-3k), both
through ``stream_row`` and only on demand.

Columns. Column k of T is, on every stream at once, a first-order
recurrence in n:
    x_n = a_n x_{n-1} + y_n,  a_n = (3 - 2n)/2n,
    y_n = c_n T[s, n-3, k-1],  c_n = (9 - 2n)/2n,
plus the sources in column k: c at step n adds c/n to y_n, and v_0 = c
is x_0. Over Q a_n never vanishes. Mod p it vanishes where 2n = 3: in the
pivot tables only at n0 = (p+3)/2, where 3/2 - n0 = -p/2, so x_n0 = y_n0
restarts the column (a longer table restarts again every p rows). Let P_n
be the product of the a_i from the start of n's segment, [0, n0) or
[n0, ...), to n, with P = 1 at each start. Then
    x_n / P_n = sum of y_m / P_m over m <= n in n's segment,
a running sum that restarts at n0. ``laurent_stream`` keeps the table over
P: its column k is the running sum of r_n T/P[s, n-3, k-1], r_n = c_n
P_{n-3} / P_n, plus the sources over P, c / (n P_n), so one multiply, one
running sum per segment and one reduction make a column, about N/3 steps
where the rows took N. Every stream is over the same P; ``stream_row`` is
given row n times P_n, and the determinants on T/P are psi_n / (P_n P_{n+1}).

Bounds. Mod p every entry of T/P and every r_n is a residue, so a running
sum of at most nmax + 1 terms stays below (nmax + 1)(p-1)^2, which
``laurent_stream`` checks against 2^63 (``PrecisionOutOfRange``). For the
pivot tables, nmax = (p+7)/2, that holds for every p below 2.6 * 10^6, and
no user input gets that far: s streams to nmax hold s (nmax + 1)(nmax/3 +
1) int64 entries, and ``require_stream_room`` refuses a prime whose tables
would pass MAX_STREAM_ENTRIES = 2^27 (1 GiB) with InputTooLarge (exit code
1), from p alone and before anything is allocated. ``psi_table`` checks
its 2 + len(extra) streams: two for the scan, whose ``conjecture_scan``
checks the largest prime of its range before any row, and six (alpha, beta
and G_1..G_4) for the symbolic eigen. The scan is admitted to p = 28351,
2.8 times 10007, the largest prime it is known to finish, and the symbolic
eigen to p = 16369.

Blocks. ``PsiTable`` makes one pass over blocks of 64 rows: the block's
determinants, then its recurrence check against the three psi rows before
it. Only those three rows go on to the next block, and only the pivot row
stays. Mod p the determinants of a block are one signed sum of two
products in one spectrum, ``upoly._fft_sum`` on the rows cut to the
block's widest support, exact by upoly's Percival bound for two products
and checked by its rounding guard (upoly module doc, Signed sums); the
exact lane, nmax <= 10 in use, keeps one np.convolve per product. Every
reduction is in place, so beside the stream table no work array grows with
more than 64 rows or one column. The scan's stream table (a rectangle [k,
n, s], half of it zeros) takes 34 MB at p = 4999 and 133 MB at 9973, and
``scan_prime`` peaks at 72 and 174 MB of RSS there (2-vCPU VM, Python 3.11,
numpy 2.4).
"""

from fractions import Fraction

import numpy as np

from .errors import (DegreeMismatch, InputTooLarge, InternalMismatch,
                     PrecisionOutOfRange, PrimeTooSmall, TheoremViolation)
from .forms import hasse_poly
from .residue import PrimePower, inv_mod, is_prime
from .upoly import _fft_plan, _fft_sum, _mod, _spectra, unit_inverses
from .wpoly import WPoly, _power, _reduce, discriminant


_BLOCK = 64     # rows per pass: the determinants and the recurrence check
MAX_STREAM_ENTRIES = 2 ** 27    # int64 entries of one prime's stream tables

# streams by their sources (n, k, c): c at step n in column k, v_0 at n = 0
ALPHA_SOURCES = ((0, 0, 1),)
BETA_SOURCES = ((2, 0, Fraction(1, 2)), (4, 1, Fraction(3, 2)))
G_SOURCES = tuple(((s, 0, 1),) for s in range(1, 5))    # G_1..G_4


def _canon(x, pm):
    """Reduce an int64 array in place to residues mod p; exact: as it is."""
    return x if pm is None else _mod(x, pm.q, out=x)


def _column_scalars(nmax, pm):
    """For 0 <= n <= nmax: the restarts (the n >= 1 with a_n = 0), P_n,
    r_n = c_n P_{n-3} / P_n (r_0..r_2 unused) and the source scales w_n,
    1 at n = 0 and 1 / (n P_n) after (module doc), as arrays."""
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
    w = 1 / P if pm is None else unit_inverses(P, pm)
    r = np.zeros_like(P)
    r[3:] = _reduce(_reduce(c[2:] * P[:-3], pm) * w[3:], pm)
    w[1:] = _reduce(2 * inv * w[1:], pm)
    return restarts, P, r, w


def _running_sums(col, cuts):
    """Running sums of col along its first axis, in place, started again at
    each index in cuts."""
    lo = 0
    for m in cuts:
        if m > lo:
            np.add.accumulate(col[lo:m], axis=0, out=col[lo:m])
            lo = m
    np.add.accumulate(col[lo:], axis=0, out=col[lo:])


def laurent_stream(nmax, streams, pm=None):
    """(T / P, P): the table T[s, n, k], 0 <= n <= nmax, of the streams,
    each given by its sources (n, k, c), c at step n in column k (module
    doc), with row n over P_n, and P. Built column by column: column k is
    the running sum along n of r_n times column k-1 three rows up, plus
    its sources over P, restarted at each n with a_n = 0. The table is a
    view of one stored [k, n, s]."""
    if pm is not None and (nmax + 1) * (pm.q - 1) ** 2 >= 2 ** 63:
        raise PrecisionOutOfRange("stream sums to n = %d mod %d overflow int64"
                                  % (nmax, pm.q))
    restarts, P, r, w = _column_scalars(nmax, pm)
    r = r[:, None]
    table = np.zeros((nmax // 3 + 1, nmax + 1, len(streams)), P.dtype)
    for k in range(len(table)):
        col = table[k, 3 * k:]
        if k:
            np.multiply(table[k - 1, 3 * k - 3:-3], r[3 * k:], out=col)
        for s, sources in enumerate(streams):
            for n, j, c in sources:
                if j == k and n <= nmax:
                    c = c.numerator * _power(c.denominator, -1, pm)
                    col[n - 3 * k, s] += _reduce(_reduce(c, pm) * w[n], pm)
        _running_sums(col, [m - 3 * k for m in restarts])
        _canon(col, pm)
    return table.transpose(2, 1, 0), P


def psi_determinants(alphas, betas, P, n0, n1, pm=None):
    """psi_n = alpha_n beta_{n+1} - alpha_{n+1} beta_n for n0 <= n < n1,
    row n - n0 holding psi[n, k] at U^(2n-3k), k <= 2 (n1 // 3), from the
    stream rows over P_n: the determinant of the rows over P, times
    P_n P_{n+1}. Mod p, the signed sum in one spectrum, ``upoly._fft_sum``
    on the rows cut to the block's widest support. Exact: one np.convolve
    per product on the rows cut to their support (alpha_n: k <= n/3,
    beta_n: k <= (n-1)/3)."""
    w = n1 // 3 + 1
    pp = _reduce(P[n0:n1] * P[n0 + 1:n1 + 1], pm)[:, None]
    if pm is None:
        block = np.zeros((n1 - n0, 2 * w - 1), object)
        for n, row in enumerate(block, n0):
            ab = np.convolve(alphas[n, :n // 3 + 1], betas[n + 1, :n // 3 + 1])
            ba = np.convolve(alphas[n + 1, :(n + 1) // 3 + 1],
                             betas[n, :(n - 1) // 3 + 1])
            row[:len(ab)] += ab
            row[:len(ba)] -= ba
        return block * pp
    plan = _fft_plan(w, w, pm.q, 2)
    fa, fb = (_spectra(x[n0:n1 + 1, :w], pm.q, plan) for x in (alphas, betas))
    block = _fft_sum([([f[:-1] for f in fa], [f[1:] for f in fb]),
                      ([f[1:] for f in fa], [f[:-1] for f in fb])],
                     pm.q, plan)
    block *= pp
    return _canon(block, pm)


def psi_recurrence_check(prev, block, n0, pm=None):
    """Re-derive psi_n for n >= 5 in the block of rows n0 <= n < n0 +
    len(block) from the three-term recurrence
        psi_n = c2 U V^-2 psi_{n-2} + c3 V^-2 psi_{n-3},
        c2 = -(2n-7)(2n-3) / ((2n+2) 2n),  c3 = (2n-7)(2n-9) / ((2n+2) 2n),
    with prev the rows psi_{n0-3}..psi_{n0-1} (zero before psi_1), and
    compare it with the determinant rows, both sides times the unit
    (2n+2) 2n. On the rows U V^-2 moves a row one column right and V^-2
    two; the columns they push out lie past the support of psi_{n-2} and
    psi_{n-3}. A mismatch is a hard failure. Returns the last three rows,
    the prev of the next block."""
    rows = np.zeros((len(block) + 3, block.shape[1]), block.dtype)
    rows[:3, :prev.shape[1]], rows[3:] = prev, block
    lo = max(n0, 5)
    i = lo - n0 + 3
    n = np.arange(lo, n0 + len(block)).astype(rows.dtype)[:, None]
    rhs, lhs = np.zeros_like(rows[i:]), np.zeros_like(rows[i:])
    np.multiply(_reduce(-(2 * n - 7) * (2 * n - 3), pm), rows[i - 2:-2, :-1],
                out=rhs[:, 1:])
    np.multiply(_reduce((2 * n - 7) * (2 * n - 9), pm), rows[i - 3:-3, :-2],
                out=lhs[:, 2:])
    rhs += lhs
    np.multiply(_reduce((2 * n + 2) * 2 * n, pm), rows[i:], out=lhs)
    bad = np.flatnonzero((_canon(lhs, pm) != _canon(rhs, pm)).any(axis=1))
    if len(bad):
        raise InternalMismatch(
            "psi_%d: determinant and recurrence disagree" % (bad[0] + lo))
    return rows[-3:]


def clear_psi(psi_n, n):
    """Psi_n = psi_n * V^(2*ceil(n/2)), which must come out polynomial."""
    shift = n if n % 2 == 0 else n + 1
    cleared = psi_n * WPoly.monomial(1, 0, shift, psi_n.pm)
    if cleared.lowest_z6() < 0:
        raise DegreeMismatch("Psi_%d has a leftover V denominator" % n)
    return cleared


def stream_row(row, n, w0, t0, d, pm):
    """Row n of a table as WPoly, from its coefficient array row (a stream
    row: its row over P_n times P_n): row n has weight w0 - 2 d n, and its
    column k holds the coefficient of U^(t0 + d n - 3k)."""
    row = row[::-1]
    return WPoly.from_coeffs(w0 - 2 * d * n, t0 + d * n - 3 * (len(row) - 1),
                             row, pm)


class PsiTable:
    """The tower up to nmax over pm (exact Fractions when None): one stream
    table of alpha, beta and the extra streams (module doc, Table layout),
    their determinants checked block by block by the recurrence (module
    doc, Blocks), and rows as WPoly on demand: row(s, n) of stream s and
    psi(n), a one-row ``psi_determinants``. psi_big is the cleared
    Psi_nmax, the pivot polynomial when nmax = (p+5)/2, and the one psi row
    kept."""

    def __init__(self, nmax, pm=None, extra=()):
        self.pm = pm
        self.streams, self.P = laurent_stream(
            nmax + 1, (ALPHA_SOURCES, BETA_SOURCES, *extra), pm)
        prev = np.zeros((3, 1), self.P.dtype)
        for n0 in range(1, nmax + 1, _BLOCK):
            block = self._determinants(n0, min(n0 + _BLOCK, nmax + 1))
            prev = psi_recurrence_check(prev, block, n0, pm)
        self.psi_big = clear_psi(stream_row(prev[-1], nmax, 0, 0, 2, pm), nmax)
        self.degree = self.psi_big.weighted_degree()  # None when Psi vanishes

    def _determinants(self, n0, n1):
        return psi_determinants(self.streams[0], self.streams[1], self.P, n0,
                                n1, self.pm)

    def row(self, s, n):
        """Row n of stream s: alpha (s = 0), beta (1), then the extra
        streams, G_(s-1) at s >= 2."""
        w0, t0 = ((0, 0), (2, -1))[s] if s < 2 else (2 * s - 8, 1 - s)
        return stream_row(self.streams[s, n] * self.P[n], n, w0, t0, 1,
                          self.pm)

    def psi(self, n):
        return stream_row(self._determinants(n, n + 1)[0], n, 0, 0, 2, self.pm)


def _require_pivot_prime(p):
    if p < 11:
        raise PrimeTooSmall("the pivot system needs p >= 11, got p = %d" % p)


def require_stream_room(p, streams=2):
    """Refuse p with InputTooLarge, from p alone and before any allocation,
    when ``streams`` pivot streams to n = (p+7)/2 would hold more than
    MAX_STREAM_ENTRIES int64 entries (module doc, Bounds)."""
    nmax = (p + 7) // 2
    size = streams * (nmax + 1) * (nmax // 3 + 1)
    if size > MAX_STREAM_ENTRIES:
        raise InputTooLarge("%d stream tables to n = %d at p = %d hold %d "
                            "entries, past the bound of %d"
                            % (streams, nmax, p, size, MAX_STREAM_ENTRIES))


def psi_table(p, extra=()):
    """Mod-p table up to the pivot index M = (p+5)/2, with the determinant
    vs recurrence cross-check and the cleared pivot polynomial; extra holds
    the sources of G_1, G_2, ... (module doc, Table layout)."""
    _require_pivot_prime(p)
    require_stream_room(p, 2 + len(extra))
    return PsiTable((p + 5) // 2, PrimePower(p, 1), extra)


def exact_psi_table(nmax=9):
    """Exact-rational lane: the PsiTable of the universal alpha, beta and
    psi_1..psi_nmax (p plays no role in the coefficients)."""
    return PsiTable(nmax)


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
    degree_ok = True
    try:
        degree_audit(p, table)
    except DegreeMismatch:
        degree_ok = False
    gol = golem_check(p, table)
    pm1 = PrimePower(p, 1)
    target = discriminant(pm1) * hasse_poly(p, pm1)
    lhs = table.psi_big
    if p % 4 == 3:  # the pivot index (p+5)/2 is even
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
    top = next((p for p in range(pmax, max(pmin, 5) - 1, -1) if is_prime(p)),
               0)
    require_stream_room(top)  # before any row, by the largest prime
    primes = [p for p in range(max(pmin, 5), top + 1) if is_prime(p)]
    if primes:
        _require_pivot_prime(primes[0])
    return parallel_map(scan_prime, primes, workers)
