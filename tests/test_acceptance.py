"""Acceptance gate: the eight headline criteria, one test (and one printed
pass/fail line) each. Everything is exact arithmetic mod p^m."""

import random
from fractions import Fraction

import pytest

from ellfrob.errors import (DegreeMismatch, NotOrdinary, NotStabilized,
                            SingularPair)
from ellfrob.forms import (QuasiLinearForm, form_evaluate, form_localizers,
                           hasse_poly, lambda_1,
                           slope_form_printed, slope_form_variant,
                           unit_form_delta, unit_form_z4, unit_form_z6,
                           weight_check_mod_p, weight_check_mod_p2,
                           weight_definition_probe)
from ellfrob.liftp import CurveContext, build_lift_mod_p, lie_verify, \
    lie_verify_commutator
from ellfrob.liftp2 import (build_lift_mod_p2, d_values, lambda_properties,
                            solve_eigen_numeric, solve_eigen_symbolic,
                            solve_truncated, sources, stabilization_check)
from ellfrob.psi import clear_psi, conjecture_scan, exact_psi_table, psi_mod_p
from ellfrob.residue import PrimePower, delta_scalar, inv_mod
from ellfrob.verify import exhaustive_verify
from ellfrob.wpoly import LocFrac, WPoly, discriminant

F = Fraction


def report(n, name):
    print("criterion %d (%s): PASS" % (n, name))


@pytest.fixture(scope="module")
def scan_rows():
    return conjecture_scan(11, 499)


# --------------------------------------------------------------- criterion 1

def test_criterion_1_value_regression():
    # Hasse polynomial displays
    assert hasse_poly(11, PrimePower(11, 1)).terms == {(1, 1): 9}
    assert hasse_poly(13, PrimePower(13, 1)).terms == {(3, 0): 7, (0, 2): 2}
    assert hasse_poly(17, PrimePower(17, 1)).terms == {(4, 0): 2, (1, 2): 15}
    # discriminant forms mod 11 / 13 / 17: 4(z4^3 + c z6^2)
    assert discriminant(PrimePower(11, 1)).terms == {(3, 0): 4, (0, 2): 5}
    assert discriminant(PrimePower(13, 1)).terms == {(3, 0): 4, (0, 2): 1}
    assert discriminant(PrimePower(17, 1)).terms == {(3, 0): 4, (0, 2): 10}

    # alpha/beta table and the psi closed forms (exact lane)
    alphas, betas, psis = exact_psi_table(9)
    assert alphas[1].terms == {(1, -1): F(1, 2)}
    assert alphas[2].terms == {(2, -2): F(-1, 8)}
    assert alphas[3].terms == {(3, -3): F(1, 16), (0, -1): F(1, 2)}
    assert alphas[4].terms == {(4, -4): F(-5, 128), (1, -2): F(-1, 4)}
    assert betas[1].terms == {}
    assert betas[2].terms == {(1, -1): F(1, 4)}
    assert betas[3].terms == {(2, -2): F(-1, 8)}
    assert betas[4].terms == {(3, -3): F(5, 64), (0, -1): F(3, 8)}
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

    # cleared pivot displays mod 11 / 13 / 17
    assert psi_mod_p(11).terms == {(4, 0): 1, (1, 2): 4}
    p13 = PrimePower(13, 1)
    assert psi_mod_p(13).terms == \
        (discriminant(p13) * hasse_poly(13, p13)).scale(2).terms
    assert psi_mod_p(17).terms == {(7, 0): 11, (4, 2): 8, (1, 4): 15}

    # proportionality constants: the displayed polynomials force 4, 2, 12
    p11 = PrimePower(11, 1)
    z6psi8 = WPoly.z6(p11) * psi_mod_p(11)
    dh11 = discriminant(p11) * hasse_poly(11, p11)
    assert z6psi8 == dh11.scale(4)
    assert z6psi8 != dh11.scale(3)  # the other constant in circulation
    p17 = PrimePower(17, 1)
    psi11 = psi_mod_p(17)
    dh17 = discriminant(p17) * hasse_poly(17, p17)
    assert psi11 == dh17.scale(12)
    assert psi11 != dh17.scale(10)

    # nonvanishing seeds: Psi_6(0,1) = 15/(2^7*7), Psi_5(1,0) = -7/(2^8*5)
    big6 = clear_psi(psis[6], 6)
    assert sum(c for (i, _), c in big6.terms.items() if i == 0) == F(15, 2 ** 7 * 7)
    big5 = clear_psi(psis[5], 5)
    assert sum(c for (_, j), c in big5.terms.items() if j == 0) == F(-7, 2 ** 8 * 5)
    report(1, "value regression")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_mod_p_existence():
    for p in (5, 7, 11, 13):
        summary = exhaustive_verify(p, 1)
        assert summary["failed"] == 0
        assert summary["verified"] == summary["eligible"] > 0
    for p in (17, 29, 37):
        summary = exhaustive_verify(p, 1, samples=200, seed=2026)
        assert summary["failed"] == 0
        assert summary["verified"] == summary["eligible"] > 0
    report(2, "mod-p existence")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_obstruction_exactly_on_supersingular_locus():
    for p in (5, 7, 11, 13):
        pm = PrimePower(p, 1)
        h = hasse_poly(p, pm)
        d = discriminant(pm)
        for a in range(p):
            for b in range(p):
                if d.specialize(a, b) % p == 0:
                    with pytest.raises(SingularPair):
                        CurveContext(a, b, pm)
                    continue
                ctx = CurveContext(a, b, pm)
                if h.specialize(a, b) % p == 0:
                    with pytest.raises(NotOrdinary):
                        build_lift_mod_p(ctx)
                else:
                    assert lie_verify(build_lift_mod_p(ctx), 1)
    report(3, "obstruction locus")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_mod_p2_existence():
    summary = exhaustive_verify(13, 2)
    assert summary["failed"] == 0 and summary["verified"] == summary["eligible"]
    summary = exhaustive_verify(11, 2)  # Sigma = z6 H never obstructs here
    assert summary["failed"] == 0 and summary["verified"] == summary["eligible"]
    summary = exhaustive_verify(17, 2, samples=260, seed=2026)
    assert summary["failed"] == 0
    assert summary["eligible"] >= 200

    # special residue-class branches on pairs with nontrivial higher digits
    for a, b in ((0, 1), (13, 14), (26, 170)):
        lift, info = build_lift_mod_p2(CurveContext(a, b, PrimePower(13, 2)))
        assert info["branch"] == "a0"
        assert lie_verify(lift, 2) and lie_verify_commutator(lift, 2)
    for a, b in ((1, 13), (2, 26), (5, 169)):
        lift, info = build_lift_mod_p2(CurveContext(a, b, PrimePower(13, 2)))
        assert info["branch"] == "b0"
        assert lie_verify(lift, 2) and lie_verify_commutator(lift, 2)
    report(4, "mod-p^2 existence")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_eigenvalue_structure():
    for p in (13, 17):
        # Theta: a quasi-linear form of weight 0, its slot degrees checked
        # as it is built
        sym, _ = solve_eigen_symbolic(p)
        assert sym.k == 0 and not sym.tangential
        out = lambda_properties(sym)
        assert out["degrees_ok"]
        assert out["a0_checked"] == (p % 3 == 1)
        # symbolic Theta agrees with the numeric eigen-solve
        rng = random.Random(p)
        done = 0
        while done < 8:
            a, b = rng.randrange(p ** 3), rng.randrange(p ** 3)
            try:
                ctx = CurveContext(a, b, PrimePower(p, 2))
            except SingularPair:
                continue
            if not ctx.ordinary or ctx.a % p == 0 or ctx.b % p == 0:
                continue
            _, theta, _, _ = solve_eigen_numeric(ctx)
            assert form_evaluate(sym, a, b) == theta
            # Lambda = H^{-1}(1 + p Theta) reduces to H^{-1} mod p
            lift, _ = build_lift_mod_p2(ctx)
            assert lift.lam % p == inv_mod(ctx.h_val, p)
            assert lift.lam == ctx.lambda0 * (1 + p * theta) % p ** 2
            done += 1
        # Lambda_1 itself: tangential of weak weight 1-p
        form = lambda_1(form_localizers(p))
        assert form.k == 1 - p and form.tangential
        assert weight_check_mod_p2(form)
    report(5, "eigenvalue structure")


# --------------------------------------------------------------- criterion 6

def _rand_monomial_frac(locs, rng):
    """A random monomial z4^i z6^j / delta^d with a unit coefficient."""
    i, j = rng.randrange(4), rng.randrange(4)
    d = rng.randrange(2)
    c = rng.randrange(1, locs.pm.p)
    num = WPoly.monomial(c, i, j, locs.pm)
    return LocFrac(num, {"delta": d} if d else {}, locs), 4 * i + 6 * j - 12 * d


def _rand_samples(locs, rng, n=20):
    """(a, b, c) with a, b, delta(a,b) units and delta(c) a unit mod p."""
    p = locs.pm.p
    pm1 = PrimePower(p, 1)
    out = []
    while len(out) < n:
        a = rng.randrange(1, p) + p * rng.randrange(p * p)
        b = rng.randrange(1, p) + p * rng.randrange(p * p)
        if discriminant(pm1).specialize(a, b) % p == 0:
            continue
        c = rng.randrange(1, p) + p * rng.randrange(p * p)
        if int(delta_scalar(c, pm1)) % p == 0:
            continue
        out.append((a, b, c))
    return out


def _drop_frac(locs, p):
    """-(4/6) z4^p / z6^p: multiplying by it lowers the weak weight by 2p."""
    return LocFrac(WPoly.monomial(-4 * inv_mod(6, locs.pm.q), p, 0, locs.pm),
                   {"z6": p}, locs)


def test_criterion_6_weight_criterion_equivalence():
    for p in (13, 17):
        locs = form_localizers(p)
        rng = random.Random(60 + p)
        n_weak = n_tang = 0
        while n_weak + n_tang < 50:
            samples = _rand_samples(locs, rng)
            if (n_weak + n_tang) % 2 == 0:
                # weak-weight pair: balanced true form vs scaled false form
                g4, t4 = _rand_monomial_frac(locs, rng)
                g6 = g4 * _drop_frac(locs, p)
                k = t4 + 4 * p
                good = QuasiLinearForm(locs, k, LocFrac.zero(locs),
                                       gamma_4=g4, gamma_6=g6)
                bad = QuasiLinearForm(locs, k, LocFrac.zero(locs),
                                      gamma_4=g4, gamma_6=g6.scale(2))
                assert weight_check_mod_p(good)
                assert not weight_check_mod_p(bad)
                for a, b, c in samples:
                    assert weight_definition_probe(good, a, b, c,
                                                   (k + p, -1), precision=1)
                    assert not weight_definition_probe(bad, a, b, c,
                                                       (k + p, -1), precision=1)
                n_weak += 2
            else:
                # tangential pair: balanced Gamma_k vs doubled Gamma_k
                s4, t = _rand_monomial_frac(locs, rng)
                cprime = rng.randrange(1, p)
                if (4 + 6 * cprime) % p == 0:
                    cprime += 1
                s6 = s4 * LocFrac(WPoly.monomial(cprime, p, 0, locs.pm),
                                  {"z6": p}, locs)
                z4p = WPoly.monomial(1, p, 0, locs.pm)
                z6p = WPoly.monomial(1, 0, p, locs.pm)
                gk = -((s4 * z4p).scale(4) + (s6 * z6p).scale(6))
                k = t + 4 * p
                good = QuasiLinearForm(locs, k, gk, star_4=s4, star_6=s6)
                bad = QuasiLinearForm(locs, k, gk.scale(2),
                                      star_4=s4, star_6=s6)
                assert weight_check_mod_p2(good)
                assert not weight_check_mod_p2(bad)
                for a, b, c in samples:
                    assert weight_definition_probe(good, a, b, c,
                                                   (k + p, -1), precision=2)
                    assert not weight_definition_probe(bad, a, b, c,
                                                       (k + p, -1), precision=2)
                n_tang += 2

        # the named forms produce the stated verdicts
        for mk in (unit_form_z4, unit_form_z6, unit_form_delta):
            assert weight_check_mod_p(mk(locs))
            assert weight_check_mod_p2(mk(locs))
        assert weight_check_mod_p2(lambda_1(locs))
        with pytest.raises(DegreeMismatch):
            slope_form_printed(locs)
        assert weight_check_mod_p(slope_form_variant(locs))
    report(6, "weight-criterion equivalence")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_internal_consistency(scan_rows):
    # each scan row construction re-derives psi by determinant and by the
    # three-term recurrence (a mismatch raises) and runs golem_check; here we
    # assert the degree rule held everywhere
    assert all(r["degree_ok"] for r in scan_rows)
    assert {r["p"] for r in scan_rows} >= {11, 13, 499}

    # stabilization is certified through s = (p+13)/2 on constructed lifts,
    # and a detuned eigenvalue is rejected
    for p, a, b in ((13, 1, 1), (17, 2, 1)):
        ctx = CurveContext(a, b, PrimePower(p, 2))
        _, info = build_lift_mod_p2(ctx)
        assert len(info["vs"]) == (p + 3) // 2 + 1
        v0, theta, _, _ = solve_eigen_numeric(ctx)
        d, _ = d_values(ctx)
        da, db = ctx.delta_a() % p, ctx.delta_b() % p
        u, v_unit = pow(ctx.a, p, p), pow(ctx.b, p, p)
        src = sources(p, u, (theta + 1) % p, da, db, d)
        bad = solve_truncated(p, u, v_unit, src, v0, (p + 7) // 2)
        with pytest.raises(NotStabilized):
            stabilization_check(p, u, v_unit, src, bad)
    report(7, "internal consistency")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_conjecture_scan(scan_rows):
    keys = {"p", "class_mod_12", "psi_degree", "degree_ok", "golem_01",
            "golem_10", "proportional", "constant_c", "counterexample"}
    primes = [r["p"] for r in scan_rows]
    assert primes == sorted(primes) and primes[0] == 11 and primes[-1] == 499
    for r in scan_rows:
        assert set(r) == keys
        assert isinstance(r["proportional"], bool)
        if r["proportional"]:
            assert r["counterexample"] is None and r["constant_c"] is not None
    # known values asserted only at 11, 13, 17; everything else is
    # reported data
    by_p = {r["p"]: r for r in scan_rows}
    for p, c in ((11, 4), (13, 2), (17, 12)):
        assert by_p[p]["proportional"] and by_p[p]["constant_c"] == c
    report(8, "conjecture scan")
