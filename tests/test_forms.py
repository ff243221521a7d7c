import random

import pytest

from ellfrob.errors import (DegreeMismatch, DenominatorMismatch,
                            DenominatorNotLocalizer, NotAUnit, NotTangential,
                            PrecisionOutOfRange, SingularPair)
from ellfrob.forms import (QuasiLinearForm, c_power_w, classify_pair,
                           f_power_coeff, form_evaluate, form_localizers,
                           hasse_poly, j_invariant, lambda_1,
                           slope_form_printed, slope_form_variant,
                           unit_form_delta, unit_form_z4, unit_form_z6,
                           weight_check_mod_p, weight_check_mod_p2,
                           weight_definition_probe)
from ellfrob.liftp2 import _laurent_to_locfrac
from ellfrob.psi import psi_table
from ellfrob.residue import PrimePower, delta_scalar, inv_mod
from ellfrob.wpoly import LocFrac, LocalizerSet, WPoly, discriminant


# ------------------------------------------------------------------ WPoly

def test_discriminant_values():
    pm = PrimePower(13, 2)
    d = discriminant(pm)
    assert d.specialize(0, 1) == 27
    assert d.specialize(1, 0) == 4
    assert d.terms == {(3, 0): 4, (0, 2): 27}


def test_wpoly_arithmetic_and_degree():
    pm = PrimePower(11, 1)
    d = discriminant(pm)
    assert d.weighted_degree() == 12
    assert (d * d).weighted_degree() == 24
    assert (d - d).is_zero()
    assert d.compose_powers(11).terms == {(33, 0): 4, (0, 22): 27 % 11}
    assert d.restrict_z4_zero().terms == {(0, 2): 5}


def test_wpoly_divide_exact():
    pm = PrimePower(13, 1)
    d = discriminant(pm)
    z4 = WPoly.z4(pm)
    prod = d * z4
    assert prod.divide_exact(z4) == d
    assert prod.divide_exact(d) == z4
    assert d.divide_exact(z4) is None


# ------------------------------------------------ Hasse polynomial displays

def test_hasse_p5():
    assert hasse_poly(5, PrimePower(5, 1)).terms == {(1, 0): 2}


def test_hasse_p11():
    # -2 z4 z6 mod 11
    assert hasse_poly(11, PrimePower(11, 1)).terms == {(1, 1): 9}


def test_hasse_p13():
    # 7 (z4^3 - 9 z6^2) mod 13
    assert hasse_poly(13, PrimePower(13, 1)).terms == {(3, 0): 7, (0, 2): 2}


def test_hasse_p17():
    # 2 z4 (z4^3 - z6^2) mod 17
    assert hasse_poly(17, PrimePower(17, 1)).terms == {(4, 0): 2, (1, 2): 15}


def test_hasse_value_p11_at_1_1():
    assert hasse_poly(11, PrimePower(11, 1)).specialize(1, 1) == 9


def test_hasse_weighted_degree():
    for p in (5, 7, 11, 13, 17, 19):
        h = hasse_poly(p, PrimePower(p, 1))
        assert h.weighted_degree() == p - 1


# ----------------------------------------------------------------- LocFrac

def test_locfrac_inverse_of_h():
    pm = PrimePower(13, 1)
    locs = LocalizerSet(pm, hasse_poly(13, pm))
    inv_h = LocFrac(WPoly.const(1, pm), {"H": 1}, locs)
    h = LocFrac(locs.polys["H"], {}, locs)
    assert inv_h * h == LocFrac.from_int(1, locs)


def test_locfrac_refuses_another_localizer_set():
    pm = PrimePower(13, 1)
    x = LocFrac.from_int(1, LocalizerSet(pm, hasse_poly(13, pm)))
    y = LocFrac.from_int(1, LocalizerSet(pm, hasse_poly(13, pm)))
    with pytest.raises(DenominatorMismatch):
        x + y
    with pytest.raises(DenominatorMismatch):
        x * y


def test_locfrac_evaluate_guards():
    pm = PrimePower(13, 1)
    locs = LocalizerSet(pm, hasse_poly(13, pm))
    inv_h = LocFrac(WPoly.const(1, pm), {"H": 1}, locs)
    assert inv_h.evaluate(0, 1) == inv_mod(2, 13)
    with pytest.raises(SingularPair):
        LocFrac(WPoly.const(1, pm), {"delta": 1}, locs).evaluate(0, 0)
    with pytest.raises(NotAUnit):
        LocFrac(WPoly.const(1, pm), {"z4": 1}, locs).evaluate(0, 1)


def test_locfrac_reciprocal():
    pm = PrimePower(13, 1)
    locs = LocalizerSet(pm, hasse_poly(13, pm))
    # num = 3 z4^2 delta
    num = WPoly.monomial(3, 2, 0, pm) * discriminant(pm)
    x = LocFrac(num, {"z6": 1}, locs)
    r = x.reciprocal()
    assert x * r == LocFrac.from_int(1, locs)
    # z4^3 + z6^2 is homogeneous but proportional to no localizer
    z4, z6 = WPoly.z4(pm), WPoly.z6(pm)
    bad = LocFrac(z4 ** 3 + z6 ** 2, {}, locs)
    with pytest.raises(DenominatorNotLocalizer):
        bad.reciprocal()
    # Delta + 1 adds weights 12 and 0
    with pytest.raises(DegreeMismatch):
        discriminant(pm) + WPoly.const(1, pm)


def _greedy_den(num, locs):
    """Strip each dense localizer one power at a time by long division, in
    LocalizerSet order, then count z6 and z4 from the exponents of the one
    term left; the split reciprocal has to find."""
    den = {}
    for name in locs.NAMES:
        if name in ("z4", "z6"):
            continue
        assert len(locs.polys[name].terms) > 1, name
        while True:
            quo = num.divide_exact(locs.polys[name])
            if quo is None:
                break
            num = quo
            den[name] = den.get(name, 0) + 1
    (e4, e6), = num.terms
    den.update({name: e for name, e in (("z6", e6), ("z4", e4)) if e})
    return den


@pytest.mark.parametrize("p", [13, 17])
def test_reciprocal_matches_one_power_greedy(p):
    """Numerators c * prod L^e with exponents mixed, all multiples of p, or
    all multiples of p^2: the denominator is the one-power-at-a-time greedy
    split written here, and x times its reciprocal is 1."""
    pm = PrimePower(p, 1)
    locs = LocalizerSet(pm, hasse_poly(p, pm), psi_table(p).psi_big)
    one = LocFrac.from_int(1, locs)
    rng = random.Random(p)
    cases = [{name: rng.choice((0, 1, 2, p)) for name in locs.NAMES}
             for _ in range(3)]
    cases += [{name: p * rng.randrange(3) for name in locs.NAMES}
              for _ in range(3)]
    cases += [{"z4": p * p * rng.randrange(1, 3), "z6": p * p,
               "H": p * p * rng.randrange(2)}]
    for exps in cases:
        num = locs.den_poly(exps).scale(rng.randrange(1, p))
        x = LocFrac(num, {"z6": rng.randrange(3)}, locs)
        r = x.reciprocal()
        assert r.den == _greedy_den(num, locs), exps
        assert x * r == one
    # a p-th power of a form that is not a localizer monomial
    z4, z6 = WPoly.z4(pm), WPoly.z6(pm)
    bad = LocFrac((z4 ** 3 + z6 ** 2) ** p, {}, locs)
    with pytest.raises(DenominatorNotLocalizer):
        bad.reciprocal()
    with pytest.raises(DegreeMismatch):
        discriminant(pm) + WPoly.const(1, pm)


def _weight_matched_monomials(locs, rng):
    """Two random c * prod L^e / prod L^f of one weighted degree: the second
    is the first times a random localizer monomial over a z4, z6 monomial
    of the same weight."""
    def exps():
        return {name: rng.randrange(3) for name in locs.NAMES}

    def frac(num, den):
        c = rng.randrange(1, locs.pm.p)
        return LocFrac(locs.den_poly(num).scale(c), den, locs)

    num, den, extra = exps(), exps(), exps()
    w = sum(k * locs.polys[n].w for n, k in extra.items())
    balance = {"z4": w // 4} if w % 4 == 0 else {"z4": (w - 6) // 4, "z6": 1}
    return frac(num, den), frac(num, den) * frac(extra, balance)


def test_frobenius_is_a_ring_map_mod_p_only():
    """z4 -> z4^p, z6 -> z6^p commutes with +, - and * mod p, where every
    localizer L has F_p coefficients and L(z4^p, z6^p) = L^p; mod p^2 it
    is no ring map and is refused."""
    p = 13
    pm = PrimePower(p, 1)
    locs = LocalizerSet(pm, hasse_poly(p, pm), psi_table(p).psi_big)
    rng = random.Random(p)
    for _ in range(6):
        x, y = _weight_matched_monomials(locs, rng)
        fx, fy = x.frobenius(), y.frobenius()
        assert fx.den == {n: p * k for n, k in x.den.items()}
        assert (x + y).frobenius() == fx + fy
        assert (x - y).frobenius() == fx - fy
        assert (x * y).frobenius() == fx * fy
    pm2 = PrimePower(p, 2)
    locs2 = LocalizerSet(pm2, hasse_poly(p, pm2))
    for x in (LocFrac.from_int(1, locs2),
              LocFrac(locs2.polys["H"], {"z6": 1}, locs2)):
        with pytest.raises(PrecisionOutOfRange):
            x.frobenius()


def test_pivot_det_reciprocal_commutes_with_frobenius():
    """The pivot determinant at p = 37 inverted on its (U, V) rows and then
    composed equals the inverse of its composition, which the greedy finds
    by stripping Psi p times."""
    p = 37
    pm = PrimePower(p, 1)
    table = psi_table(p)
    locs = LocalizerSet(pm, hasse_poly(p, pm), table.psi_big)
    m = (p + 5) // 2
    a_m, a_m1, b_m, b_m1 = (_laurent_to_locfrac(table.row(s, n), locs)
                            for s in (0, 1) for n in (m, m + 1))
    det = a_m * b_m1 - a_m1 * b_m
    slow, fast = det.frobenius().reciprocal(), det.reciprocal().frobenius()
    assert slow == fast
    assert slow.den == fast.den == {"Psi": p, "z6": 14 * p}


# ------------------------------------------------------- j and classification

def test_j_invariant():
    pm = PrimePower(13, 2)
    assert int(j_invariant(1, 0, pm)) == 1728 % 169
    assert int(j_invariant(0, 1, pm)) == 0
    with pytest.raises(SingularPair):
        j_invariant(0, 0, pm)


def test_classify_pair_labels():
    assert classify_pair(0, 1, 13)["label"] == "ordinary"
    assert classify_pair(0, 1, 5)["label"] == "non-singular"
    assert classify_pair(0, 0, 5)["label"] == "singular"


def test_classify_pair_with_sigma():
    pm = PrimePower(11, 1)
    sigma = WPoly.z6(pm) * hasse_poly(11, pm)
    out = classify_pair(1, 1, 11, sigmas=[("sigma", sigma)])
    assert out["label"] == "sigma-non-singular"
    out2 = classify_pair(2, 11, 11, sigmas=[("sigma", sigma)])
    # b = 0 mod 11 kills z6*H, but Delta = 4*8 and H = -2*2*0... recheck:
    # H(2,0) = -2*2*0 = 0, so the pair is already non-singular
    assert out2["label"] == "non-singular"


# ---------------------------------------------------------- weight criteria

@pytest.fixture(scope="module")
def locs13():
    return form_localizers(13)


@pytest.fixture(scope="module")
def locs17():
    return form_localizers(17)


def test_unit_forms_pass_both_criteria(locs13, locs17):
    for locs in (locs13, locs17):
        for mk in (unit_form_z4, unit_form_z6, unit_form_delta):
            form = mk(locs)
            assert weight_check_mod_p(form)
            assert weight_check_mod_p2(form)


def test_lambda_1_passes(locs13, locs17):
    for locs in (locs13, locs17):
        form = lambda_1(locs)
        assert form.k == 1 - locs.pm.p
        assert weight_check_mod_p(form)
        assert weight_check_mod_p2(form)


def test_lambda_1_reduces_to_inverse_hasse(locs13):
    p = locs13.pm.p
    form = lambda_1(locs13)
    for a, b in ((1, 1), (2, 3), (5, 1)):
        h = hasse_poly(p, PrimePower(p, 1)).specialize(a, b)
        assert int(form_evaluate(form, a, b)) % p == inv_mod(h, p)


def _printed_slope_value(a, b, pm):
    """The printed slope form at exact integers a, b, taken with scalars:
    (2 a^p - 3 b^p) delta(b) / Delta(a, b)^p mod p^m."""
    p, q = pm.p, pm.q
    num = (2 * pow(a, p, q) - 3 * pow(b, p, q)) * delta_scalar(b, pm)
    return num * pow(inv_mod((4 * a ** 3 + 27 * b ** 2) % q, q), p, q) % q


def test_slope_form_printed_fails_criterion(locs13):
    # the printed z6' coefficient is not weighted homogeneous: refused
    with pytest.raises(DegreeMismatch):
        slope_form_printed(locs13)
    # with scalars, 4 z4^p Gamma_4 + 6 z6^p Gamma_6 = 6 b^p (2 a^p - 3 b^p)
    # / Delta^p is not 0 mod p
    p = locs13.pm.p
    for a, b in ((1, 1), (2, 3), (5, 1), (1, 7)):
        assert 6 * pow(b, p, p) * (2 * pow(a, p, p) - 3 * pow(b, p, p)) % p


def test_slope_form_variant_passes_criterion(locs13, locs17):
    for locs in (locs13, locs17):
        form = slope_form_variant(locs)
        assert weight_check_mod_p(form)
        with pytest.raises(NotTangential):
            weight_check_mod_p2(form)


def test_c_power_w():
    pm = PrimePower(13, 2)
    c = 2
    q = pm.q
    assert c_power_w(c, (1, 0), pm) == 2
    phi_c = (pow(2, 13, q) + 13 * int(delta_scalar(2, pm))) % q
    assert c_power_w(c, (0, 1), pm) == phi_c
    assert c_power_w(c, (-1, 0), pm) == inv_mod(2, q)


def test_probe_matches_criterion_on_named_forms(locs13):
    p = locs13.pm.p
    samples = [(1, 1, 2), (2, 3, 15), (5, 1, 28), (1, 7, 2)]
    for mk, k in ((unit_form_z4, 0), (unit_form_z6, 0),
                  (unit_form_delta, 0), (lambda_1, 1 - p)):
        form = mk(locs13)
        for a, b, c in samples:
            assert weight_definition_probe(form, a, b, c, (k + p, -1),
                                           precision=2)
    # the variant slope form has weak weight -2p, i.e. exponent -p - phi
    form = slope_form_variant(locs13)
    for a, b, c in samples:
        assert weight_definition_probe(form, a, b, c, (-p, -1), precision=1)
    # the printed slope form is refused; taken with scalars, its value
    # fails the weight identity at a generic sample
    with pytest.raises(DegreeMismatch):
        slope_form_printed(locs13)
    a, b, c = 1, 1, 2
    lhs = _printed_slope_value(c ** 4 * a, c ** 6 * b, locs13.pm)
    rhs = c_power_w(c, (-p, -1), locs13.pm) * _printed_slope_value(a, b, locs13.pm)
    assert (lhs - rhs) % p


def test_form_evaluate_uses_exact_deltas(locs13):
    # delta(1) = 0 but delta(14) != 0 mod 13, so the values differ mod 13^2
    form = unit_form_z4(locs13)
    v1 = int(form_evaluate(form, 1, 1))
    v2 = int(form_evaluate(form, 14, 1))
    assert v1 != v2


def test_quasi_linear_form_degree_guard(locs13):
    # a coefficient of the wrong homogeneous degree is refused
    # degree 4, but the slot expects k = 0
    bad = LocFrac(WPoly({(1, 0): 1}, locs13.pm), {}, locs13)
    with pytest.raises(DegreeMismatch):
        QuasiLinearForm(locs13, 0, bad)


# ------------------------------------------- multinomial coefficients of f^n

def _f_power_by_products(n, q):
    """Coefficient lists of (x^3 + z4 x + z6)^n, by n repeated products;
    each coefficient is a dict (e4, e6) -> int, reduced mod q unless q is
    None."""
    poly = [{(0, 0): 1}]
    for _ in range(n):
        out = [{} for _ in range(len(poly) + 3)]
        for dg, coeff in enumerate(poly):
            for (i, j), c in coeff.items():
                for shift, key in ((3, (i, j)), (1, (i + 1, j)),
                                   (0, (i, j + 1))):
                    slot = out[dg + shift]
                    slot[key] = slot.get(key, 0) + c
        poly = out
    if q is not None:
        poly = [{k: c % q for k, c in coeff.items() if c % q}
                for coeff in poly]
    return poly


@pytest.mark.parametrize("pm", [None, PrimePower(13, 1), PrimePower(5, 2),
                                PrimePower(13, 2)],
                         ids=lambda pm: str(pm and pm.q))
def test_f_power_coeff_matches_repeated_products(pm):
    """Both lanes against n products: below p the multinomial table, from
    n = p on (at q = 25) the exact multinomials reduced."""
    q = pm and pm.q
    for n in range(13):
        want = _f_power_by_products(n, q)
        for dg in range(3 * n + 4):
            expect = want[dg] if dg < len(want) else {}
            assert f_power_coeff(n, dg, pm).terms == expect, (n, dg)
