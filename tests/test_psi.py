import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ellfrob import psi
from ellfrob.cli import main
from ellfrob.errors import (FFTRoundingError, InputTooLarge,
                            InternalMismatch, PrecisionOutOfRange)
from ellfrob.forms import hasse_poly
from ellfrob.liftp2 import eta_pivots, g_pivots, sym_d_values
from ellfrob.psi import (_BLOCK, ALPHA_SOURCES, BETA_SOURCES, G_SOURCES,
                         MAX_STREAM_ENTRIES, _column_scalars, _Rows, clear_psi,
                         conjecture_scan, degree_audit, exact_psi_table,
                         golem_check, laurent_stream, psi_determinants,
                         psi_mod_p, psi_recurrence_check, psi_table,
                         require_stream_room, scan_prime)
from ellfrob.residue import PrimePower, is_prime
from ellfrob.wpoly import LocalizerSet, LocFrac, WPoly, discriminant

F = Fraction


@pytest.fixture(scope="module")
def exact():
    return exact_psi_table(9)


def test_alpha_beta_closed_forms(exact):
    alphas, betas, _ = exact
    assert alphas[1].terms == {(1, -1): F(1, 2)}
    assert alphas[2].terms == {(2, -2): F(-1, 8)}
    assert alphas[3].terms == {(3, -3): F(1, 16), (0, -1): F(1, 2)}
    assert alphas[4].terms == {(4, -4): F(-5, 128), (1, -2): F(-1, 4)}
    assert betas[1].terms == {}
    assert betas[2].terms == {(1, -1): F(1, 4)}
    assert betas[3].terms == {(2, -2): F(-1, 8)}
    assert betas[4].terms == {(3, -3): F(5, 64), (0, -1): F(3, 8)}


def test_psi_closed_forms(exact):
    _, _, psis = exact
    assert psis[1].terms == {(2, -2): F(1, 8)}
    assert psis[2].terms == {(1, -2): F(-1, 8)}
    assert psis[3].terms == {(3, -4): F(1, 32), (0, -2): F(3, 16)}
    assert psis[4].terms == {(2, -4): F(1, 640)}
    assert psis[5].terms == {(4, -6): F(-7, 1280), (1, -4): F(-23, 640)}
    assert psis[6].terms == {(3, -6): F(17, 7168), (0, -4): F(15, 896)}
    assert psis[7].terms == {(5, -8): F(77, 40960), (2, -6): F(129, 10240)}
    assert psis[8].terms == {(4, -8): F(-2477, 1146880), (1, -6): F(-1051, 71680)}
    assert psis[9].terms == {(6, -10): F(-847, 983040), (3, -8): F(-2937, 573440),
                       (0, -6): F(33, 7168)}


def _psi_blocks(streams, P, nmax, pm):
    """The determinant blocks of rows 1..nmax, as ``PsiTable`` forms them."""
    return [(n0, psi_determinants(*streams, P, n0, min(n0 + _BLOCK, nmax + 1),
                                  pm)) for n0 in range(1, nmax + 1, _BLOCK)]


def _psi_rows(streams, P, nmax, pm):
    """psi_1..psi_nmax as WPoly, from the determinant blocks."""
    rows = {n0 + i: row for n0, block in _psi_blocks(streams, P, nmax, pm)
            for i, row in enumerate(block)}
    return _Rows(rows.get, pm, 0, 0, 2)


def test_recurrence_consistency():
    streams, P = laurent_stream(10, (ALPHA_SOURCES, BETA_SOURCES))
    prev = np.zeros((3, 1), object)
    [(n0, block)] = _psi_blocks(streams, P, 9, None)
    assert psi_recurrence_check(prev, block, n0).tolist() == block[-3:].tolist()
    # a corrupted row is caught: psi_9 := z6^-6 (column 6 of row 9 is U^0)
    block[8] = 0
    block[8, 6] = F(1)
    assert _Rows({9: block[8]}.get, None, 0, 0, 2)[9] == WPoly({(0, -6): F(1)})
    with pytest.raises(InternalMismatch, match="psi_9:"):
        psi_recurrence_check(prev, block, n0)


def _corrupt_and_check(monkeypatch, p, n, k):
    """One entry of psi_n, as the block pass of ``psi_table`` forms it, off
    by one: the per-block check names psi_n."""
    psi_table(p)
    real = psi.psi_determinants

    def corrupt(alphas, betas, P, n0, n1, pm=None):
        block = real(alphas, betas, P, n0, n1, pm)
        if n0 <= n < n1:
            block[n - n0, k] = (block[n - n0, k] + 1) % p
        return block

    monkeypatch.setattr(psi, "psi_determinants", corrupt)
    with pytest.raises(InternalMismatch, match="psi_%d:" % n):
        psi_table(p)


# a middle row, and the last column of the pivot row M = 18
@pytest.mark.parametrize("n, k", [(11, 2), (18, -1)])
def test_recurrence_check_catches_one_mod_p_entry(monkeypatch, n, k):
    _corrupt_and_check(monkeypatch, 31, n, k)


# p = 211 has pivot row M = 108: the blocks are rows 1..64 and 65..108, so
# the second block's check reads the last three rows of the first
@pytest.mark.parametrize("n", [69, 100, 108])
def test_recurrence_check_catches_an_entry_past_the_first_block(monkeypatch, n):
    _corrupt_and_check(monkeypatch, 211, n, 3)


# beta as a stream of its own sources against the former combination of
# the unit-source streams, on the tables over P
@pytest.mark.parametrize("p", [None, 11, 101, 499])
def test_beta_stream_is_the_g2_g4_combination(p):
    pm = None if p is None else PrimePower(p, 1)
    nmax = 10 if p is None else (p + 7) // 2
    (beta,), P = laurent_stream(nmax, (BETA_SOURCES,), pm)
    gs, P_g = laurent_stream(nmax, G_SOURCES, pm)
    assert P.tolist() == P_g.tolist()
    half = _lane(pm)[0](1, 2)
    want = gs[1] * half  # U/2 G_2: U^(n-2-3k) to U^(n-1-3k), same column
    want[:, 1:] += 3 * half * gs[3][:, :-1]  # 3/2 G_4, one column right
    if pm is not None:
        want %= p
    assert beta.dtype == want.dtype and beta.tolist() == want.tolist()


def stream_oracle(nmax, v0, sources, u, v_inv, fr):
    """The row recursion n V v_n = (3/2 - n) U v_{n-1} + (9/2 - n) v_{n-3}
    + source_n one step at a time, over any ring with +, * and .scale;
    u is U there, v_inv is 1/V and fr(a, b) the scalar a/b."""
    seq = [v0]
    for n in range(1, nmax + 1):
        t = seq[n - 1] * u.scale(fr(3 - 2 * n, 2))
        if n >= 3:
            t = t + seq[n - 3].scale(fr(9 - 2 * n, 2))
        if n in sources:
            t = t + sources[n]
        seq.append(t * v_inv.scale(fr(1, n)))
    return seq


def _lane(pm):
    """(fr, u, v_inv, const) for the exact lane (pm None) or mod p."""
    def fr(a, b):
        return F(a, b) if pm is None else a * pow(b, -1, pm.p) % pm.p
    return (fr, WPoly.monomial(1, 1, 0, pm), WPoly.monomial(1, 0, -1, pm),
            lambda c: WPoly.const(c, pm))


# every prime 11..61, 101 and 211: the restart at (p+3)/2, where the U v_{n-1}
# coefficient vanishes mod p, falls at every offset in the columns' ranges
@pytest.mark.parametrize(
    "p", [None] + [p for p in range(11, 62) if is_prime(p)] + [101, 211])
def test_streams_match_one_step_oracle(p):
    pm = None if p is None else PrimePower(p, 1)
    m_piv = 9 if p is None else (p + 5) // 2
    table = psi.PsiTable(m_piv, pm)
    nmax = m_piv + 1
    assert _column_scalars(nmax, pm)[0] == ([] if p is None else [(p + 3) // 2])
    fr, u, v_inv, const = _lane(pm)
    zero = WPoly.zero(pm)
    oracles = {
        "alpha": (table.alphas, stream_oracle(nmax, const(1), {}, u, v_inv, fr)),
        "beta": (table.betas, stream_oracle(
            nmax, zero, {2: u.scale(fr(1, 2)), 4: const(fr(3, 2))}, u, v_inv, fr)),
    }
    gs, P = laurent_stream(nmax, G_SOURCES, pm)
    for s in (1, 2, 3, 4):  # G_s/2; nu = G_1/2 and mu = G_2/2
        seq = stream_oracle(nmax, zero, {s: const(fr(1, 2))}, u, v_inv, fr)
        rows = _Rows(lambda n: gs[s - 1, n] * P[n], pm, 2 * s - 6, -s, 1)
        oracles["G_%d/2" % s] = ([rows[n].scale(fr(1, 2))
                                  for n in range(nmax + 1)], seq)
    for name, (rows, seq) in oracles.items():
        for n in range(nmax + 1):
            assert rows[n] == seq[n], (name, n)
    psis = _psi_rows(*laurent_stream(nmax, (ALPHA_SOURCES, BETA_SOURCES), pm),
                     m_piv, pm)
    for n in range(1, m_piv + 1):
        det = (table.alphas[n] * table.betas[n + 1]
               - table.alphas[n + 1] * table.betas[n])
        assert psis[n] == det, n
        assert table.psis[n] == det, n
    assert table.psi_big == clear_psi(psis[m_piv], m_piv)


@pytest.mark.parametrize("p", [13, 17, 37])
def test_eta_pivots_match_locfrac_stream(p):
    pm = PrimePower(p, 1)
    table = psi_table(p)
    locs = LocalizerSet(pm, hasse_poly(p, pm), table.psi_big)
    ds = sym_d_values(p, locs)
    m_piv = (p + 5) // 2
    fr = _lane(pm)[0]
    seq = stream_oracle(
        m_piv + 1, LocFrac.zero(locs), dict(enumerate(ds, 1)),
        LocFrac(WPoly.monomial(1, p, 0, pm), {}, locs),
        LocFrac(WPoly.const(1, pm), {"z6": p}, locs), fr)
    for got, want in zip(eta_pivots(g_pivots(p), ds, locs), seq[m_piv:]):
        assert got.num == want.num
        assert got.den == want.den


def test_clear_psi_exact(exact):
    _, _, psis = exact
    big9 = clear_psi(psis[9], 9)
    assert big9.terms == {(6, 0): F(-847, 983040), (3, 2): F(-2937, 573440),
                    (0, 4): F(33, 7168)}
    # degree datum at p = 7: pivot index 6, cleared degree 12 = p + 5
    big6 = clear_psi(psis[6], 6)
    assert {4 * i + 6 * j for (i, j) in big6.terms} == {12}


def test_golem_seed_values(exact):
    _, _, psis = exact
    big6 = clear_psi(psis[6], 6)
    assert sum(c for (i, j), c in big6.terms.items() if i == 0) == F(15, 896)
    big5 = clear_psi(psis[5], 5)
    assert sum(c for (i, j), c in big5.terms.items() if j == 0) == F(-7, 1280)


def test_pivot_displays_mod_p():
    # p = 11: Psi_8 = z4 (z4^3 + 4 z6^2)
    assert psi_mod_p(11).terms == {(4, 0): 1, (1, 2): 4}
    # p = 17: Psi_11 = -6 z4 (z4^3 - z6^2)(z4^3 - 6 z6^2)
    assert psi_mod_p(17).terms == {(7, 0): 11, (4, 2): 8, (1, 4): 15}
    # p = 13: Psi_9 = 2 * Delta * H
    pm = PrimePower(13, 1)
    expect = (discriminant(pm) * hasse_poly(13, pm)).scale(2)
    assert psi_mod_p(13).terms == expect.terms


def test_degree_audit():
    for p in (11, 13, 17, 19, 23, 29):
        assert degree_audit(p)


def test_golem_check_nonzero():
    out = golem_check(13)
    assert out["at_01"] != 0 and out["at_10"] != 0
    out11 = golem_check(11)  # 11 = 2 mod 3 and 3 mod 4: no constraint applies
    assert set(out11) == {"at_01", "at_10"}


def test_scan_rows_and_constants():
    rows = {r["p"]: r for r in (scan_prime(11), scan_prime(13), scan_prime(17))}
    for p, c in ((11, 4), (13, 2), (17, 12)):
        row = rows[p]
        assert row["proportional"] is True
        assert row["constant_c"] == c
        assert row["counterexample"] is None
        assert row["degree_ok"] is True
    assert rows[11]["psi_degree"] == 16
    assert rows[13]["psi_degree"] == 24
    assert rows[17]["psi_degree"] == 28
    assert rows[11]["class_mod_12"] == 11
    assert rows[13]["class_mod_12"] == 1
    assert rows[17]["class_mod_12"] == 5


def test_conjecture_scan_range():
    rows = conjecture_scan(11, 60)
    assert [r["p"] for r in rows] == [11, 13, 17, 19, 23, 29, 31, 37, 41,
                                      43, 47, 53, 59]
    assert all(r["proportional"] for r in rows)


def test_rational_independence_of_psi9_and_delta_h():
    # over Q the relation Psi_9 = c * Delta * H_13 has no solution: the
    # coefficient ratios at (6,0) and (0,4) disagree
    _, _, psis = exact_psi_table(9)
    big9 = clear_psi(psis[9], 9)
    dh = (discriminant(None) * hasse_poly(13)).terms
    r1 = F(big9.terms[(6, 0)]) / dh[(6, 0)]
    r2 = F(big9.terms[(0, 4)]) / dh[(0, 4)]
    assert r1 != r2


def test_mod_p_lane_matches_exact_lane():
    p = 31
    table = psi_table(p)
    _, _, psis = exact_psi_table(9)
    for n in range(1, 10):
        reduced = {k: (c.numerator * pow(c.denominator, -1, p)) % p
                   for k, c in psis[n].terms.items()}
        reduced = {k: v for k, v in reduced.items() if v}
        assert table.psis[n].terms == reduced


def _support_table(rows, width, lag, fill):
    """A table whose row n holds ``fill`` on its support k <= (n - lag)/3."""
    table = np.zeros((rows, width), np.int64)
    for n in range(lag, rows):
        table[n, :(n - lag) // 3 + 1] = fill
    return table


# the largest residues, p - 1, and the largest balanced ones, (p - 1)/2: at
# p = 1999 the pivot table of scan_prime(1999), one limb; near 2^31 a short
# table on two limbs
@pytest.mark.parametrize("p, nmax", [(1999, 1002), (2 ** 31 - 1, 40)])
@pytest.mark.parametrize("half", [False, True])
def test_one_spectrum_determinants_match_per_row_convolve(p, nmax, half):
    pm = PrimePower(p, 1)
    fill = (p - 1) // 2 if half else p - 1
    width = (nmax + 1) // 3 + 1
    alphas = _support_table(nmax + 2, width, 0, fill)
    betas = _support_table(nmax + 2, width, 1, fill)
    P = np.ones(nmax + 2, np.int64)
    blocks = _psi_blocks((alphas, betas), P, nmax, pm)
    got = {n0 + i: row for n0, block in blocks for i, row in enumerate(block)}
    assert sorted(got) == list(range(1, nmax + 1))
    exact = p ** 2 * width >= 2 ** 62
    for n in range(1, nmax + 1):
        a0, a1 = alphas[n, :n // 3 + 1], alphas[n + 1, :(n + 1) // 3 + 1]
        b0, b1 = betas[n, :(n - 1) // 3 + 1], betas[n + 1, :n // 3 + 1]
        if exact:  # Python ints where int64 products would overflow
            a0, a1, b0, b1 = (x.astype(object) for x in (a0, a1, b0, b1))
        ab, ba = np.convolve(a0, b1), np.convolve(a1, b0)
        want = np.zeros(len(got[n]), object)
        want[:len(ab)] += ab
        want[:len(ba)] -= ba
        assert got[n].tolist() == (want % p).tolist(), n


def test_perturbed_spectrum_raises_and_exits_2(monkeypatch, capsys):
    real = np.fft.irfft

    def noisy(*args, **kwargs):
        out = real(*args, **kwargs)
        out[..., 0] += 0.3
        return out

    monkeypatch.setattr(np.fft, "irfft", noisy)
    with pytest.raises(FFTRoundingError):
        psi_table(31)
    assert main(["scan", "--pmin", "31", "--pmax", "31"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("FFTRoundingError: ")


def test_scan_prime_997_peaks_under_5_mb():
    """Two streams and one block of psi rows at a time: 3.2-3.6 MB traced,
    against 6.7-7.1 MB with five streams and the whole beta and psi tables
    stored."""
    scan_prime(997)  # numpy's lazy imports and caches, outside the trace
    tracemalloc.start()
    try:
        scan_prime(997)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 10 ** 6


def test_stream_room_bound_admits_the_measured_primes():
    """MAX_STREAM_ENTRIES admits the scan to p = 28351 (two streams) and the
    symbolic eigen to p = 16369 (six), and refuses the next primes."""
    for p, streams, nxt in ((28351, 2, 28387), (16369, 6, 16381)):
        require_stream_room(p, streams)
        with pytest.raises(InputTooLarge, match="past the bound of %d"
                           % MAX_STREAM_ENTRIES):
            require_stream_room(nxt, streams)
        assert [q for q in range(p + 1, nxt) if is_prime(q)] == []


def test_stream_sums_refused_past_the_int64_bound():
    """(nmax + 1)(p - 1)^2 < 2^63 bounds the running sums of a column: at a
    prime below 2^30 it admits nmax = 7 and no more."""
    p = next(p for p in range(2 ** 30 - 1, 0, -2) if is_prime(p))
    pm = PrimePower(p, 1)
    nmax = 2 ** 63 // (p - 1) ** 2 - 1
    assert nmax == 7
    table, P = laurent_stream(nmax, (ALPHA_SOURCES,), pm)
    fr, u, v_inv, const = _lane(pm)
    seq = stream_oracle(nmax, const(1), {}, u, v_inv, fr)
    alphas = _Rows(lambda n: table[0, n] * P[n], pm, 0, 0, 1)
    assert all(alphas[n] == seq[n] for n in range(nmax + 1))
    with pytest.raises(PrecisionOutOfRange):
        laurent_stream(nmax + 1, (ALPHA_SOURCES,), pm)
