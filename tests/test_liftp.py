import random

import numpy as np
import pytest

import ellfrob.liftp as liftp
from ellfrob.errors import (DomainError, NotOrdinary, PrecisionOutOfRange,
                            SingularPair)
from ellfrob.forms import hasse_poly
from ellfrob.liftp import (CurveContext, FrobLift, _df_phi, _f_half_sqrt,
                           _solve3, _y_poly, build_lift_mod_p, df_xp,
                           eigen_forcing_check, extendability_certificate,
                           g_minus_one, k0_poly, k_poly, lie_verify,
                           lie_verify_commutator, mu_correct, y_commutator)
from ellfrob.liftp2 import build_lift_mod_p2
from ellfrob.residue import PrimePower, delta_scalar, inv_mod
from ellfrob.upoly import FracPoly, UPoly


def ordinary_pairs(p, ordinary=True):
    """The nonsingular pairs mod p with H(a, b) a unit; with ordinary
    False, those with H(a, b) = 0 mod p."""
    pm = PrimePower(p, 1)
    from ellfrob.wpoly import discriminant
    d = discriminant(pm)
    h = hasse_poly(p, pm)
    return [(a, b) for a in range(p) for b in range(p)
            if d.specialize(a, b) % p
            and bool(h.specialize(a, b) % p) == ordinary]


def test_curve_context_rejects_singular():
    with pytest.raises(SingularPair):
        CurveContext(0, 0, PrimePower(5, 1))


def test_delta_and_h_are_built_once_per_modulus(monkeypatch):
    """Every CurveContext over one modulus shares its Delta and H, so
    hasse_poly runs at most once per modulus in a process; each context
    still reads its own H(a, b) and rejects a singular pair."""
    calls = []
    monkeypatch.setattr(liftp, "hasse_poly",
                        lambda p, pm: calls.append(pm) or hasse_poly(p, pm))
    pm = PrimePower(1009, 1)
    h = hasse_poly(1009, pm)
    for a, b in ((1, 1), (2, 3), (5, 7)):
        assert CurveContext(a, b, pm).h_val == h.specialize(a, b)
    with pytest.raises(SingularPair):
        CurveContext(0, 0, pm)
    assert len(calls) <= 1


@pytest.mark.parametrize("p, m, pairs", [
    pytest.param(13, 1, None, id="1"),
    pytest.param(13, 2, None, id="2"),
    # q = p^2 > 2^31: the table's residue products go through _mulmod
    pytest.param(46349, 2, [(1, 1), (5, 7), (123456789, 987654321)],
                 id="46349-2"),
])
def test_h_val_is_a_coefficient_of_the_memoized_f_power(p, m, pairs):
    """H(a, b) mod p^m is the x^(p-1) coefficient of f^((p-1)/2), the power
    that w_poly and lie_verify take from the context's memo; the multinomial
    table in hasse_poly shares no code with UPoly's squaring chain. Without
    a list of pairs, every a mod p^m against every (mod p^2: every 7th) b."""
    pm = PrimePower(p, m)
    h = hasse_poly(p, pm)
    if pairs is None:
        pairs = [(a, b) for a in range(p ** m)
                 for b in range(0, p ** m, 1 if m == 1 else 7)]
    checked = 0
    for a, b in pairs:
        try:
            ctx = CurveContext(a, b, pm)
        except SingularPair:
            continue
        power = ctx.f_at(m) ** ((p - 1) // 2)
        assert ctx.h_val == h.specialize(a, b) == power.coeff(p - 1)
        checked += 1
    # every listed pair is nonsingular; a sweep checks over half its pairs
    assert checked > min(len(pairs) - 1, (p - 1) ** 2 // 2)


def test_k_poly_zero_curve_scalars():
    # a = b = 0 is singular; use p | a, p | b instead: K = delta-contributions
    ctx = CurveContext(1, 1, PrimePower(5, 1))
    k = k_poly(ctx, 1)
    assert k.degree() <= 3 * ctx.p - 1


def test_k_poly_p5_a0_b1():
    ctx = CurveContext(0, 1, PrimePower(5, 1))
    k = k_poly(ctx, 1)
    # -(x^12 + 2x^9 + 2x^6 + x^3) mod 5
    expect = UPoly([0, 0, 0, 4, 0, 0, 3, 0, 0, 3, 0, 0, 4], PrimePower(5, 1))
    assert k == expect


def test_k_minus_k0_is_delta_terms():
    rng = random.Random(5)
    for p in (5, 13):
        pm = PrimePower(p, 1)
        for _ in range(5):
            a = rng.randrange(p ** 2)
            b = rng.randrange(p ** 2)
            try:
                ctx = CurveContext(a, b, pm)
            except SingularPair:
                continue
            da = int(delta_scalar(ctx.a, pm))
            db = int(delta_scalar(ctx.b, pm))
            diff = k_poly(ctx, 1) - k0_poly(ctx, 1)
            expect = UPoly.const(db, pm) + UPoly.monomial(da, p, pm)
            assert diff == expect


def _nonsingular_context(a, pm):
    """CurveContext at (a, b) for the least b >= 1 with Delta a unit."""
    for b in range(1, pm.p):
        try:
            return CurveContext(a, b, pm)
        except SingularPair:
            continue
    raise AssertionError("no nonsingular b for a = %d" % a)


@pytest.mark.parametrize("p", [5, 13, 31, 101])
def test_df_xp_is_the_frobenius_image_of_df(p):
    """3x^(2p) + a = (3x^2 + a)^p mod p, a with higher digits included."""
    pm1 = PrimePower(p, 1)
    for a in (0, 1, p - 1, 2 + 3 * p):
        ctx = _nonsingular_context(a, PrimePower(p, 2))
        assert ctx.a == a
        want = (UPoly.monomial(3, 2, pm1) + UPoly.const(a, pm1)) ** p
        assert df_xp(ctx, 1) == want


def test_k0_poly_matches_its_guard_digit_formula():
    """K0 = (x^(3p) + a^p x^p + b^p - f^p)/p, divided on one guard digit."""
    rng = random.Random(11)
    for p in (5, 13):
        for m in (1, 2):
            for _ in range(3):
                a, b = rng.randrange(p ** 3), rng.randrange(p ** 3)
                try:
                    ctx = CurveContext(a, b, PrimePower(p, m))
                except SingularPair:
                    continue
                for prec in (1, 2):
                    pg = PrimePower(p, prec + 1)
                    num = (UPoly.monomial(1, 3 * p, pg)
                           + UPoly.monomial(pow(ctx.a, p, pg.q), p, pg)
                           + UPoly.const(pow(ctx.b, p, pg.q), pg)
                           - UPoly.x_cubic(ctx.a, ctx.b, pg) ** p)
                    assert k0_poly(ctx, prec) == num.divexact_p()


def test_g_minus_one_zero_z():
    # Z = 0: G - 1 = p K/f^p, so A = K and there is no B at prec 2
    p = 5
    ctx = CurveContext(1, 1, PrimePower(p, 2))
    z0 = FracPoly(UPoly.zero(PrimePower(p, 2)), 0, ctx.f_at(2))
    a_num, b_num = g_minus_one(ctx, z0, 2)
    assert a_num == k_poly(ctx, 1)
    assert b_num is None


def test_g_minus_one_vanishes_mod_p():
    # G - 1 = p A/f^(p+zf) + p^2 B/f^(2p+2zf) with A mod p^(prec-1) and
    # B mod p, so p A and p^2 B vanish mod p and G - 1 with them
    p = 5
    ctx = CurveContext(1, 1, PrimePower(p, 3))
    z = FracPoly(UPoly([2, 3, 1, 4], PrimePower(p, 3)), 0, ctx.f_at(3))
    a_num, b_num = g_minus_one(ctx, z, 3)
    assert a_num.pm == PrimePower(p, 2) and b_num.pm == PrimePower(p, 1)
    assert not a_num.is_zero() and not b_num.is_zero()
    for num in (a_num.times_p_to(PrimePower(p, 3)),
                b_num.times_p_to(PrimePower(p, 3))):
        assert num.reduce_to(1).is_zero()


def test_g_minus_one_refuses_precision_above_3():
    ctx = CurveContext(1, 1, PrimePower(5, 4))
    z = FracPoly(UPoly.zero(PrimePower(5, 4)), 0, ctx.f_at(4))
    with pytest.raises(PrecisionOutOfRange):
        g_minus_one(ctx, z, 4)


def test_build_lift_p5_example():
    ctx = CurveContext(1, 0, PrimePower(5, 1))
    lift = build_lift_mod_p(ctx)
    assert lift.lam == 3  # H_5(1,0) = 2, lambda = 2^{-1} = 3 mod 5
    assert list(lift.z.num.coeffs) == [0, 0, 0, 1, 0, 0, 0, 4]  # 4x^7 + x^3
    assert lie_verify(lift, 1)


def test_lie_verify_rejects_wrong_eigenvalue():
    ctx = CurveContext(1, 0, PrimePower(5, 1))
    lift = build_lift_mod_p(ctx)
    bad = FrobLift(ctx, lift.z, (lift.lam + 1) % 5)
    assert not lie_verify(bad, 1)
    assert not lie_verify_commutator(bad, 1)


def test_lie_verify_rejects_zero_lift():
    ctx = CurveContext(1, 0, PrimePower(5, 1))
    f = ctx.f_at(1)
    zero = FrobLift(ctx, FracPoly(UPoly.zero(PrimePower(5, 1)), 0, f), 0)
    assert not lie_verify(zero, 1)
    assert not lie_verify_commutator(zero, 1)


def test_not_ordinary_raised():
    ctx = CurveContext(0, 1, PrimePower(5, 1))
    assert not ctx.ordinary
    with pytest.raises(NotOrdinary):
        build_lift_mod_p(ctx)


@pytest.mark.parametrize("m", [1, 2])
def test_lambda0_refuses_the_first_supersingular_pair(m):
    """ctx.lambda0 raises NotOrdinary naming the pair, alone or the first
    such row of a stack; the context itself is built, and H(a, b) read."""
    p = 13
    pm = PrimePower(p, m)
    bad = ordinary_pairs(p, ordinary=False)
    good = ordinary_pairs(p)
    ctx = CurveContext(*bad[0], pm)
    assert not ctx.ordinary
    with pytest.raises(NotOrdinary, match=r"H\(%d, %d\) = 0 mod 13" % bad[0]):
        ctx.lambda0
    rows = [good[0], bad[1], good[1], bad[2]]
    stack = CurveContext(np.array([a for a, _ in rows]),
                         np.array([b for _, b in rows]), pm)
    with pytest.raises(NotOrdinary, match=r"H\(%d, %d\) = 0 mod 13" % bad[1]):
        stack.lambda0
    with pytest.raises(NotOrdinary, match=r"H\(%d, %d\) = 0 mod 13" % bad[1]):
        build_lift_mod_p(stack)


def test_mod_p_lift_over_a_precision_2_context(monkeypatch):
    """build_lift_mod_p over a mod-p^2 context builds no second context and
    gives the z and lambda of the mod-p context, and every check the same
    verdict, a and b taken up to p^2."""
    built = []
    real_init = CurveContext.__init__

    def counting_init(self, a, b, pm):
        built.append(pm)
        real_init(self, a, b, pm)

    rng = random.Random(29)
    p = 13
    for a, b in rng.sample(ordinary_pairs(p), 12):
        a, b = a + p * rng.randrange(p), b + p * rng.randrange(p)
        one = CurveContext(a, b, PrimePower(p, 1))
        two = CurveContext(a, b, PrimePower(p, 2))
        monkeypatch.setattr(CurveContext, "__init__", counting_init)
        lifts = [build_lift_mod_p(one), build_lift_mod_p(two)]
        verdicts = []
        for lift in lifts:
            _, corrected = mu_correct(lift)
            ok, _ = extendability_certificate(corrected)
            verdicts.append((lie_verify_commutator(lift, 1),
                             lie_verify_commutator(corrected, 1), ok,
                             eigen_forcing_check(corrected)))
        monkeypatch.undo()
        assert built == []
        assert lifts[1].ctx is two
        assert lifts[0].z.num == lifts[1].z.num
        assert lifts[0].lam == lifts[1].lam
        assert verdicts[0] == verdicts[1] == (True, True, True, True)


def test_build_13_0_1_full_verification():
    ctx = CurveContext(0, 1, PrimePower(13, 1))
    lift = build_lift_mod_p(ctx)
    mu, corrected = mu_correct(lift)
    assert lie_verify(corrected, 1)
    assert lie_verify_commutator(corrected, 1)
    assert eigen_forcing_check(corrected)
    ok, _ = extendability_certificate(corrected)
    assert ok


def test_mu_correct_idempotent():
    for (p, a, b) in ((5, 1, 0), (13, 0, 1), (13, 2, 3)):
        ctx = CurveContext(a, b, PrimePower(p, 1))
        _, corrected = mu_correct(build_lift_mod_p(ctx))
        mu2, again = mu_correct(corrected)
        assert mu2 == [0, 0, 0]
        assert again.z == corrected.z


def test_mu_at_5_1_0_is_zero():
    ctx = CurveContext(1, 0, PrimePower(5, 1))
    mu, _ = mu_correct(build_lift_mod_p(ctx))
    assert mu == [0, 0, 0]


def test_extendability_certificate_and_cofactor():
    p = 5
    ctx = CurveContext(1, 0, PrimePower(p, 1))
    _, corrected = mu_correct(build_lift_mod_p(ctx))
    ok, cof = extendability_certificate(corrected)
    assert ok
    y = _y_poly(ctx, corrected.z.num)
    assert cof * ctx.f_at(1) ** ((p + 1) // 2) == y


def test_extendability_fails_after_mu_perturbation():
    p = 5
    ctx = CurveContext(1, 0, PrimePower(p, 1))
    _, corrected = mu_correct(build_lift_mod_p(ctx))
    perturbed = FrobLift(
        ctx, FracPoly(corrected.z.num + UPoly.const(1, PrimePower(p, 1)),
                      0, ctx.f_at(1)), corrected.lam)
    ok, _ = extendability_certificate(perturbed)
    assert not ok


def test_commutator_agrees_with_differential_check():
    rng = random.Random(2026)
    pairs = ordinary_pairs(13)
    for a, b in rng.sample(pairs, 20):
        ctx = CurveContext(a, b, PrimePower(13, 1))
        _, corrected = mu_correct(build_lift_mod_p(ctx))
        assert lie_verify(corrected, 1)
        assert lie_verify_commutator(corrected, 1)
        bad = FrobLift(ctx, corrected.z, (corrected.lam + 1) % 13)
        assert lie_verify(bad, 1) == lie_verify_commutator(bad, 1) == False


def test_eigen_forcing_check():
    ctx = CurveContext(2, 3, PrimePower(13, 1))
    lift = build_lift_mod_p(ctx)
    assert eigen_forcing_check(lift)
    assert not eigen_forcing_check(FrobLift(ctx, lift.z, (lift.lam + 1) % 13))


def test_df_power_formed_once_per_mod1_pair(monkeypatch):
    """(3x^2+a)^p is never formed: mu_correct and both Y polynomials of a
    mod-1 verification use 3x^(2p) + a, its value mod p."""
    from ellfrob.verify import verify_pair
    p, a, b = 31, 3, 5
    pm1 = PrimePower(p, 1)
    base = UPoly.monomial(3, 2, pm1) + UPoly.const(a, pm1)
    calls = []
    original = UPoly.__pow__

    def counting_pow(self, n):
        if n == p and self == base:
            calls.append(n)
        return original(self, n)

    monkeypatch.setattr(UPoly, "__pow__", counting_pow)
    assert verify_pair(p, a, b, 1)["verified"]
    assert len(calls) == 0


def division_mu(ctx, lift):
    """mu by dividing Y and the three columns (3x^(2p) + a) x^(jp) by f."""
    p = ctx.p
    pm1, f = PrimePower(p, 1), ctx.f_at(1)
    base = UPoly.monomial(3, 2 * p, pm1) + UPoly.const(ctx.a, pm1)
    cols = []
    for j in range(3):
        _, rem = (base * UPoly.monomial(1, j * p, pm1)).divmod_monic(f)
        cols.append([rem.coeff(i) for i in range(3)])
    _, yrem = _y_poly(ctx, lift.z.num).divmod_monic(f)
    return _solve3(cols, [-yrem.coeff(i) % p for i in range(3)], p)


@pytest.mark.parametrize("p", [13, 31])
def test_mu_correct_matches_division(p):
    """mu from residues of x^p mod f equals mu from dividing by f, at every
    eligible pair."""
    checked = 0
    for a in range(p):
        for b in range(p):
            try:
                ctx = CurveContext(a, b, PrimePower(p, 1))
                lift = build_lift_mod_p(ctx)
            except DomainError:
                continue
            assert mu_correct(lift)[0] == division_mu(ctx, lift)
            checked += 1
    assert checked == len(ordinary_pairs(p))


def full_g_minus_one(ctx, z, prec):
    """G - 1 = p K/f^p + p f'(x^p) Z/f^p + 3p^2 x^p Z^2/f^p, with every
    product at the full precision p^prec."""
    p = ctx.p
    pg = PrimePower(p, prec)
    f = UPoly.x_cubic(ctx.a, ctx.b, pg)
    zg = FracPoly(UPoly(z.num.coeffs, pg), z.fexp, f)
    dfx = UPoly.monomial(3, 2 * p, pg) + UPoly.const(ctx.a, pg)
    e = (FracPoly(k_poly(ctx, prec - 1).lift_to(pg).scale(p), p, f)
         + FracPoly((zg.num * dfx).scale(p), z.fexp + p, f))
    if prec == 3:
        zsq = zg * zg
        e = e + FracPoly(zsq.num * UPoly.monomial(3 * p * p, p, pg),
                         zsq.fexp + p, f)
    return e, f


@pytest.mark.parametrize("p, a, b", [(13, 2, 3), (101, 2202, 9326)])
@pytest.mark.parametrize("source", ["lift", "random"])
def test_reduced_precision_terms_match_full_formula(p, a, b, source):
    """Each product formed below full precision equals the full-precision
    formula: G - 1 with zl zl 3x^p at p^3, f^((p-1)/2) (1 + e/2 - e e/8)
    with e e at p^3 (and 1 + e/2 at p^2), and 3(x^p + pZ)^2 + a at p^2. Z
    is a mod-p^2 lift's, or random over f^p."""
    ctx = CurveContext(a, b, PrimePower(p, 2))
    if source == "lift":
        z = build_lift_mod_p2(ctx)[0].z
    else:
        rng = random.Random(p)
        pm = PrimePower(p, 2)
        z = FracPoly(UPoly([rng.randrange(pm.q) for _ in range(3 * p * p)],
                           pm), p, ctx.f_at(2))
    p = ctx.p
    for prec in (2, 3):
        e, f = full_g_minus_one(ctx, z, prec)
        a_num, b_num = g_minus_one(ctx, z, prec)
        total = FracPoly(a_num.times_p_to(f.pm), p + z.fexp, f)
        if prec == 3:
            total = total + FracPoly(b_num.times_p_to(f.pm),
                                     2 * (p + z.fexp), f)
        else:
            assert b_num is None
        assert total == e
        one = FracPoly(UPoly.const(1, e.pm), 0, f)
        root = one + e.scale(inv_mod(2, e.pm.q))
        if prec == 3:
            root = root - (e * e).scale(inv_mod(8, e.pm.q))
        want = FracPoly(f ** ((p - 1) // 2), 0, f) * root
        assert _f_half_sqrt(ctx, z, prec) == want

    pm = PrimePower(p, 2)
    f = UPoly.x_cubic(ctx.a, ctx.b, pm)
    phix = (FracPoly(UPoly.monomial(1, p, pm), 0, f)
            + FracPoly(UPoly(z.num.coeffs, pm), z.fexp, f).scale(p))
    want = (phix * phix).scale(3) + FracPoly(UPoly.const(ctx.a, pm), 0, f)
    fexp = 4 * p
    assert FracPoly(_df_phi(ctx, z, 2, fexp), fexp, f) == want


@pytest.mark.parametrize("p, a, b", [(13, 2, 3), (211, 5, 7)])
def test_mod2_verification_rejects_broken_lifts(p, a, b):
    """A wrong p-digit of lambda and a shifted p-digit (U-digit) of the
    numerator each fail the commutator, and the check on y alone, which runs
    the reduced-precision and sparse products, fails them too."""
    ctx = CurveContext(a, b, PrimePower(p, 2))
    lift, _ = build_lift_mod_p2(ctx)
    assert lie_verify_commutator(lift, 2)
    num = lift.z.num
    wrong_lambda = FrobLift(ctx, lift.z, lift.lam * (1 + p) % (p * p))
    shifted = FrobLift(ctx, FracPoly(num + UPoly.monomial(p, 1, num.pm),
                                     lift.z.fexp, lift.z.f), lift.lam)
    for bad in (wrong_lambda, shifted):
        assert not lie_verify_commutator(bad, 2)
        assert not y_commutator(bad, 2)
