import math
import random

import numpy as np
import pytest

import ellfrob.liftp as liftp
from ellfrob import upoly
from ellfrob import psi as psi_module
from ellfrob.errors import (BNotUnit, DegreeMismatch, NotStabilized,
                            PrecisionOutOfRange, PropertyViolation,
                            TOutOfRange)
from ellfrob.forms import (QuasiLinearForm, f_power_coeff, form_evaluate,
                           form_localizers, lambda_1, multinomial_rows)
from ellfrob.liftp import (CurveContext, k0_poly, lie_verify,
                           lie_verify_commutator)
from ellfrob.liftp2 import (_laurent_to_locfrac, _row_product, _row_rhs,
                            eta_pivots, build_lift_mod_p2, d_values,
                            lambda_properties, solve_eigen_numeric,
                            solve_eigen_symbolic, solve_truncated, sources,
                            stabilization_check, sym_d_values)
from ellfrob.psi import G_SOURCES, psi_table
from ellfrob.residue import PrimePower, inv_mod
from ellfrob.wpoly import LocalizerSet, WPoly
from ellfrob.forms import hasse_poly


@pytest.fixture(scope="module")
def sym13():
    return solve_eigen_symbolic(13)


@pytest.fixture(scope="module")
def sym17():
    return solve_eigen_symbolic(17)


def ctx2(p, a, b):
    return CurveContext(a, b, PrimePower(p, 2))


def laurent_eval(lau, p, a, b):
    u, v = pow(a, p, p), pow(b, p, p)
    acc = 0
    for (i, j), c in lau.items():
        acc += c * pow(u, i, p) * pow(v, j, p)
    return acc % p


def test_d_values_shape():
    d, w0 = d_values(ctx2(13, 2, 3))
    assert len(d) == 5 and d[0] == 0
    assert w0.derivative().coeff(13 - 1) == 0  # x^(p-1) killed exactly


def test_solve_truncated_guards():
    with pytest.raises(BNotUnit):
        solve_truncated(13, 1, 13, [], 0, 5)
    with pytest.raises(TOutOfRange):
        solve_truncated(13, 1, 1, [], 0, 13)
    with pytest.raises(TOutOfRange):
        solve_truncated(13, 1, 1, [], 0, 0)


def test_symbolic_solve_builds_one_stream_table(monkeypatch):
    """solve_eigen_symbolic reads alpha, beta and G_1..G_4 from one
    laurent_stream pass."""
    calls = []
    real = psi_module.laurent_stream

    def counting(nmax, streams, pm=None):
        calls.append(len(streams))
        return real(nmax, streams, pm)

    monkeypatch.setattr(psi_module, "laurent_stream", counting)
    solve_eigen_symbolic(61)
    assert calls == [6]


def test_general_branch_13():
    ctx = ctx2(13, 1, 1)
    lift, info = build_lift_mod_p2(ctx)
    assert info["branch"] == "general"
    assert lie_verify(lift, 2)
    assert lie_verify_commutator(lift, 2)
    assert lift.lam == ctx.lambda0 * (1 + 13 * info["theta"]) % 169
    # the same lift, read mod p, is a valid mod-p lift
    assert lie_verify(lift, 1)


def test_rows_resubstitute():
    p = 13
    ctx = ctx2(p, 1, 1)
    _, info = build_lift_mod_p2(ctx)
    u, v_unit = 1, 1
    d, _ = d_values(ctx)
    da, db = ctx.da % p, ctx.db % p
    vs = info["vs"]
    src = sources(p, u, info["theta"], da, db, d)
    for s in range(1, len(vs)):
        lhs = s * v_unit * vs[s] % p
        assert lhs == _row_rhs(s, p, u, src, vs)


def test_eigen_pivots_vanish():
    p = 13
    ctx = ctx2(p, 1, 1)
    v0, theta, det, _ = solve_eigen_numeric(ctx)
    d, _ = d_values(ctx)
    da, db = ctx.da % p, ctx.db % p
    vs = solve_truncated(p, 1, 1, sources(p, 1, theta, da, db, d), v0,
                         (p + 7) // 2)
    m_piv = (p + 5) // 2
    assert vs[m_piv] == 0 and vs[m_piv + 1] == 0


@pytest.mark.parametrize("p, pairs", [
    (13, [(5, 5), (11, 11), (3, 11)]),
    (61, [(32, 12), (52, 59), (21, 19)]),
    (211, [(145, 92), (190, 62), (6, 81)]),
])
def test_pivot_solution_is_the_combination_of_its_streams(p, pairs):
    """solve_eigen_numeric forms v_0..v_((p+7)/2) as v_0 alpha + theta beta
    + rho from the three streams it ran; that equals the direct solve from
    (v_0, theta), on each pair alone and on the stack of the three, and the
    solve gives the same four values with d formed inside it."""
    stack = CurveContext(np.array([a for a, _ in pairs]),
                         np.array([b for _, b in pairs]), PrimePower(p, 2))
    for ctx in [ctx2(p, a, b) for a, b in pairs] + [stack]:
        d, _ = d_values(ctx)
        v0, theta, det, vs = solve_eigen_numeric(ctx, d)
        u = ctx.a % p
        src = sources(p, u, theta, ctx.da % p, ctx.db % p, d)
        direct = solve_truncated(p, u, ctx.b % p, src, v0, (p + 7) // 2)
        assert len(vs) == len(direct) == (p + 9) // 2
        assert all(np.array_equal(x, y) for x, y in zip(vs, direct))
        alone = solve_eigen_numeric(ctx)  # d formed inside
        assert all(np.array_equal(x, y) for x, y in
                   zip([*alone[:3], *alone[3]], [v0, theta, det, *vs]))


def test_eigen_determinant_is_psi():
    for p, a, b in ((13, 1, 1), (13, 2, 3), (17, 1, 2)):
        ctx = ctx2(p, a, b)
        _, _, det, _ = solve_eigen_numeric(ctx)
        psi = psi_table(p).psi((p + 5) // 2)
        assert det == laurent_eval(psi.terms, p, ctx.a, ctx.b)


def test_generic_guess_not_stabilized():
    p = 13
    ctx = ctx2(p, 1, 1)
    v0, theta, _, _ = solve_eigen_numeric(ctx)
    d, _ = d_values(ctx)
    da, db = ctx.da % p, ctx.db % p
    src = sources(p, 1, (theta + 1) % p, da, db, d)
    bad = solve_truncated(p, 1, 1, src, v0, (p + 7) // 2)
    with pytest.raises(NotStabilized):
        stabilization_check(p, 1, 1, src, bad)


def test_a0_branch():
    p = 13
    for a, b in ((0, 1), (13, 14)):
        ctx = ctx2(p, a, b)
        lift, info = build_lift_mod_p2(ctx)
        assert info["branch"] == "a0"
        assert info["v0"] == 0
        assert lie_verify(lift, 2)
        assert lie_verify_commutator(lift, 2)
        vs = info["vs"]
        for idx in (0, 3, 6):
            assert vs[idx] == 0
        for idx in (4, 7):
            assert vs[idx] == 0


def test_a0_lambda_formula():
    # lambda = (1 - p*beta) * Lambda_1(a, b) mod p^2
    p = 13
    locs = form_localizers(p)
    for a, b in ((0, 1), (13, 14)):
        ctx = ctx2(p, a, b)
        lift, _ = build_lift_mod_p2(ctx)
        d, _ = d_values(ctx)
        beta = (d[1] * inv_mod(pow(ctx.b, p, p), p) + 2 * d[4]) * inv_mod(3, p) % p
        lam1 = int(form_evaluate(lambda_1(locs), a, b))
        assert lift.lam == (1 - p * beta) * lam1 % p ** 2


def test_b0_branch_closed_form():
    p = 13
    ctx = ctx2(p, 1, 13)
    lift, info = build_lift_mod_p2(ctx)
    assert info["branch"] == "b0"
    assert lie_verify(lift, 2)
    assert lie_verify_commutator(lift, 2)
    vs = info["vs"]
    assert (vs[2], vs[4], vs[6]) == (12, 2, 5)
    assert vs[3] == vs[5] == vs[7] == 0
    u = pow(ctx.a, p, p)
    assert vs[4] == -vs[2] * inv_mod(7 * u, p) % p
    assert vs[6] == 5 * vs[2] * inv_mod(77 * u * u, p) % p


def test_b0_lambda_formula():
    p = 13
    locs = form_localizers(p)
    for a, b in ((1, 13), (5, 26)):
        ctx = ctx2(p, a, b)
        lift, _ = build_lift_mod_p2(ctx)
        d, _ = d_values(ctx)
        u = pow(ctx.a, p, p)
        alpha = (d[2] * inv_mod(u, p) + d[4]) * inv_mod(2, p) % p
        lam1 = int(form_evaluate(lambda_1(locs), a, b))
        assert lift.lam == (1 - p * alpha) * lam1 % p ** 2


@pytest.mark.parametrize("p", [13, 19, 31, 37])
def test_a0_theta_closed_form(p):
    """At a = 0 mod p the pivot solve meets the closed form v_0 = 0 and
    theta = -delta(b)/(6 b^p) - beta, beta = (d_1/b^p + 2 d_4)/3, on a
    plain pair and on one with nonzero digits above the first."""
    for a, b in ((0, 1), (5 * p + 2 * p * p, 3 + 4 * p + 6 * p * p)):
        ctx = ctx2(p, a, b)
        lift, info = build_lift_mod_p2(ctx)
        assert info["branch"] == "a0"
        assert info["v0"] == 0
        bp = pow(b, p, p)
        d, _ = d_values(ctx)
        beta = (d[1] * inv_mod(bp, p) + 2 * d[4]) * inv_mod(3, p) % p
        delta_b = (b - b ** p) // p % p
        assert info["theta"] == (-delta_b * inv_mod(6 * bp, p) - beta) % p
        assert lift.lam == ctx.lambda0 * (1 + p * info["theta"]) % p ** 2


def test_mod_p2_builder_needs_precision_2():
    with pytest.raises(PrecisionOutOfRange):
        build_lift_mod_p2(CurveContext(1, 1, PrimePower(13, 1)))


def test_p17_random_pairs():
    rng = random.Random(17)
    done = 0
    while done < 8:
        a, b = rng.randrange(17 ** 3), rng.randrange(17 ** 3)
        try:
            ctx = ctx2(17, a, b)
            if not ctx.ordinary:
                continue
            lift, _ = build_lift_mod_p2(ctx)
        except Exception:
            continue
        assert lie_verify(lift, 2)
        assert lie_verify_commutator(lift, 2)
        done += 1


@pytest.mark.parametrize("p", [13, 37, 61])
def test_symbolic_matches_numeric_theta(p):
    """Theta of the symbolic solve is a quasi-linear form of weight 0, not
    tangential; its form_evaluate at sampled pairs is the numeric theta,
    and det there is the numeric pivot determinant."""
    theta_form, det_form = solve_eigen_symbolic(p)
    assert theta_form.k == 0 and not theta_form.tangential
    rng = random.Random(3)
    done = 0
    while done < 6:
        a, b = rng.randrange(p ** 3), rng.randrange(p ** 3)
        try:
            ctx = ctx2(p, a, b)
        except Exception:
            continue
        if not ctx.ordinary or ctx.a % p == 0 or ctx.b % p == 0:
            continue
        v0, theta, det, _ = solve_eigen_numeric(ctx)
        assert form_evaluate(theta_form, a, b) == theta
        assert det_form.evaluate(ctx.a, ctx.b) % p == det
        done += 1


def test_symbolic_properties_13(sym13):
    """Theta at p = 13 passes; with the slot degrees checked by the form
    itself, the a -> 0 check still bites: Theta with its z6' slot doubled
    keeps its degrees but fails there, and with its slots swapped it fails
    the form's own degree check."""
    theta, _ = sym13
    assert theta.k == 0 and not theta.tangential
    out = lambda_properties(theta)
    assert out["degrees_ok"]
    assert out["a0_checked"]  # 13 = 1 mod 3
    bad = QuasiLinearForm(theta.locs, 0, theta.gamma_k, gamma_4=theta.gamma_4,
                          gamma_6=theta.gamma_6.scale(2))
    with pytest.raises(PropertyViolation, match="z6' slot wrong"):
        lambda_properties(bad)
    with pytest.raises(DegreeMismatch):
        QuasiLinearForm(theta.locs, 0, theta.gamma_k, gamma_4=theta.gamma_6,
                        gamma_6=theta.gamma_4)


def test_symbolic_properties_17(sym17):
    theta, _ = sym17
    assert theta.k == 0 and not theta.tangential
    out = lambda_properties(theta)
    assert out["degrees_ok"]
    assert not out["a0_checked"]  # 17 = 2 mod 3: z4 divides H, no restriction


def test_source_terms_only_at_expected_rows():
    # theta feeds rows 2 and 4, delta(b) row 1, delta(a) row 2; rows without
    # a d-contribution are otherwise empty, and no row past 4 has a source
    p, u, theta, da, db = 13, 3, 5, 7, 11
    d = [0, 1, 2, 3, 4]
    inv2 = inv_mod(2, p)
    assert sources(p, u, theta, da, db, d) == [
        0, (d[1] + db * inv2) % p, (d[2] + (u * theta + da) * inv2) % p,
        d[3], (d[4] + 3 * theta * inv2) % p]
    assert sources(p, u, theta, da, db, [0]) == [
        0, db * inv2 % p, (u * theta + da) * inv2 % p, 0, 3 * theta * inv2 % p]
    # a row adds its entry of the list, and rows past its end add nothing
    src, vs = sources(p, u, theta, da, db, d), [1, 2, 3, 4, 5, 6]
    for s in range(1, 8):
        assert _row_rhs(s, p, u, src, vs) == \
            (_row_rhs(s, p, u, [], vs) + (src[s] if s < 5 else 0)) % p


def test_psi1_as_localized_fraction():
    # psi_1 = z4^(2p) / (8 z6^(2p)) viewed in the localized fraction ring
    p = 13
    pm1 = PrimePower(p, 1)
    locs = LocalizerSet(pm1, hasse_poly(p, pm1))
    got = _laurent_to_locfrac(psi_table(p).psi(1), locs).frobenius()
    from ellfrob.wpoly import LocFrac, WPoly
    want = LocFrac(WPoly.monomial(inv_mod(8, p), 2 * p, 0, pm1),
                   {"z6": 2 * p}, locs)
    assert got == want


@pytest.mark.parametrize("p", [13, 37, 61])
def test_symbolic_d_values(p):
    pm1 = PrimePower(p, 1)
    locs = LocalizerSet(pm1, hasse_poly(p, pm1))
    ds = sym_d_values(p, locs)
    # each d_s sits over H^2; the eigen output carries that denominator
    assert all(frac.den == {"H": 2} for frac in ds)
    # d_4 is weighted homogeneous of degree 0 and d_s of degree (8-2s)p
    for s, frac in enumerate(ds, start=1):
        wd = frac.weighted_degree()
        assert wd is None or wd == (8 - 2 * s) * p
    for a, b in ((1, 1), (2, 3), (0, 1)):
        ctx = CurveContext(a, b, pm1)
        d, _ = d_values(ctx)
        for s in range(1, 5):
            assert ds[s - 1].evaluate(a, b) == d[s]


def _k0_rows(p):
    """The rows of the K0 table as WPolys, x^dg of weight 6p - 2dg."""
    pm1 = PrimePower(p, 1)
    rows, _ = multinomial_rows(p, pm1, range(3 * p + 1))
    return [WPoly.from_coeffs(6 * p - 2 * dg, dg % 3, row, pm1)
            for dg, row in enumerate(rows)]


@pytest.mark.parametrize("p", [13, 17])
def test_sym_k0_specializes_to_k0_poly(p):
    """The symbolic K0 coefficients, evaluated at (a, b), are the
    coefficients of the numeric K0 of that curve."""
    pm1 = PrimePower(p, 1)
    sym = _k0_rows(p)
    for a, b in ((1, 1), (2, 3), (0, 5), (7, 0)):
        k0 = k0_poly(CurveContext(a, b, pm1), 1)
        assert [c.specialize(a, b) for c in sym] == \
            [k0.coeff(dg) for dg in range(len(sym))]


@pytest.mark.parametrize("p", [5, 7, 13, 31, 61, 101])
def test_factorial_tables_match_multinomials(p):
    """The multinomial table against the exact multinomials of the
    math.comb lane, at every row: mod p and mod p^2, f^((p-1)/2) is the
    table times n!; and every coefficient of f^p but the three corners 1 is
    divisible by p, with K0 (the table at n = p, mod p) its quotient
    negated."""
    n = (p - 1) // 2
    for m in (1, 2):
        pm = PrimePower(p, m)
        rows, fact = multinomial_rows(n, pm, range(3 * n + 1))
        assert len(rows) == 3 * n + 1 and fact == math.factorial(n) % pm.q
        for dg, row in enumerate(rows):
            got = WPoly.from_coeffs(6 * n - 2 * dg, dg % 3,
                                    row * fact % pm.q, pm)
            exact = f_power_coeff(n, dg)
            assert got == WPoly.from_coeffs(exact.w, exact.lo, exact.c, pm), dg
    pm1 = PrimePower(p, 1)
    corners = 0
    for dg, row in enumerate(_k0_rows(p)):
        exact = f_power_coeff(p, dg)
        corners += sum(c == 1 for c in exact.c)
        assert all(c == 1 or c % p == 0 for c in exact.c), dg
        want = WPoly.from_coeffs(exact.w, exact.lo, -(exact.c // p), pm1)
        assert row == want, dg
    assert corners == 3


def test_stride_p_times_dense_matches_convolve(monkeypatch):
    """One product of Theta_const at p = 127: the alpha pivot row composed at
    stride p, all tail, times the dense eta pivot, both past the convolution
    lane, goes through the structured lane and equals np.convolve of the
    arrays mod p."""
    p = 127
    pm1 = PrimePower(p, 1)
    table = psi_table(p, G_SOURCES)
    locs = LocalizerSet(pm1, hasse_poly(p, pm1), table.psi_big)
    alpha = _laurent_to_locfrac(table.row(0, (p + 7) // 2), locs).frobenius().num
    eta = eta_pivots(table, sym_d_values(p, locs), locs)[0].num
    assert min(len(alpha.c), len(eta.c)) > upoly._SHORT_LEN
    head, tail = upoly._split(alpha.c)
    assert len(head) == 0 and len(tail) > upoly._COPIES
    assert set(np.diff(tail).tolist()) == {p}
    runs = []
    real = upoly._structured

    def recording(*args):
        out = real(*args)
        runs.append(out is not None)
        return out

    monkeypatch.setattr(upoly, "_structured", recording)
    prod = alpha * eta
    assert runs == [True]
    assert (prod.w, prod.lo) == (alpha.w + eta.w, alpha.lo + eta.lo)
    assert np.array_equal(prod.c, np.convolve(alpha.c, eta.c) % p)


def test_pivot_reciprocal_at_stride_one(monkeypatch):
    """The pivot determinant is inverted on its (U, V) rows, before the
    composition with z4^p, z6^p, so each localizer power is stripped once
    rather than p times (1652 divide_exact calls at p = 61 when the composed
    determinant is divided one power at a time)."""
    calls = []
    original = WPoly.divide_exact

    def counting_divide_exact(self, g):
        calls.append(g)
        return original(self, g)

    monkeypatch.setattr(WPoly, "divide_exact", counting_divide_exact)
    solve_eigen_symbolic(61)
    assert len(calls) < 40


def row_product_reference(a, b, r):
    """_row_product term by term: one int64 convolution in z4 per row dg,
    shifted by its carry."""
    wa, wb = a.shape[1], b.shape[1]
    out = np.zeros(wa + wb, dtype=np.int64)
    for dg in range(max(0, r - len(b) + 1), min(r, len(a) - 1) + 1):
        carry = (dg % 3 + (r - dg) % 3) // 3
        out[carry:carry + wa + wb - 1] += np.convolve(a[dg], b[r - dg])
    return out


@pytest.mark.parametrize("p, ss", [(499, range(-1, 6)), (1999, [2])])
def test_row_product_in_float64_is_exact_on_worst_case_tables(p, ss):
    """Tables of sym_d_values' shapes with every entry p - 1, the largest
    partial sums the float64 products can meet: at p = 499 at every r it
    asks for, at p = 1999 at s = 2, where every row of f^n meets one of
    K0, (p + 1)/2 to a class."""
    n = (p - 1) // 2
    fh = np.full((3 * n + 1, n // 3 + 1), p - 1, dtype=np.int64)
    k0 = np.full((3 * p + 1, p // 3 + 1), p - 1, dtype=np.int64)
    for s in ss:
        r = s * p - 2
        if r >= 0:
            assert np.array_equal(_row_product(fh, fh, r, p),
                                  row_product_reference(fh, fh, r))
        if s >= 1:
            assert np.array_equal(_row_product(fh, k0, r + 1, p),
                                  row_product_reference(fh, k0, r + 1))


def test_row_product_refuses_sums_past_2_53():
    table = np.ones((12, 2), dtype=np.int64)
    with pytest.raises(PrecisionOutOfRange):
        _row_product(table, table, 11, 2 ** 26 + 1)
    assert np.array_equal(_row_product(table, table, 11, 2 ** 25),
                          row_product_reference(table, table, 11))


def test_deltas_are_formed_once_per_context(monkeypatch):
    """delta(a) and delta(b) are formed once per mod-p^2 context, one
    call each, in a lift of every branch, alone and in a stack; k0_poly
    reduces them. Read again, ctx.da and ctx.db call nothing."""
    real, calls = liftp.delta_scalar, []

    def delta_scalar(a, pm):
        calls.append(pm)
        return real(a, pm)

    monkeypatch.setattr(liftp, "delta_scalar", delta_scalar)
    pm2 = PrimePower(13, 2)
    for a, b in [(1, 1), (0, 1), (1, 0),
                 (np.array([1, 2, 4]), np.array([1, 1, 3]))]:
        calls.clear()
        ctx = CurveContext(a, b, pm2)
        build_lift_mod_p2(ctx)
        assert calls == [pm2, pm2]
        assert np.array_equal(ctx.da, real(ctx.a, pm2))
        assert np.array_equal(ctx.db, real(ctx.b, pm2))
        assert calls == [pm2, pm2]
