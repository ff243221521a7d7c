"""WPoly on coefficient arrays against dict oracles written here, exact
specialization of Laurent polynomials, and squarefree localizers."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellfrob.errors import DegreeMismatch, NegativeExponent, NotAUnit
from ellfrob.forms import hasse_poly
from ellfrob.psi import _proportional, exact_psi_table, psi_table
from ellfrob.residue import PrimePower
from ellfrob.upoly import UPoly
from ellfrob.wpoly import WPoly, discriminant

PM13 = PrimePower(13, 1)
BIG = PrimePower(1301, 3)  # q >= 2^31: _mulmod's digit loop, FFT products


def _clean(terms, pm):
    """Reduce mod q (pm given) and drop zero coefficients."""
    if pm is not None:
        terms = {k: c % pm.q for k, c in terms.items()}
    return {k: c for k, c in terms.items() if c}


def _mul(a, b, pm):
    out = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            out[(i + k, j + l)] = out.get((i + k, j + l), 0) + c * d
    return _clean(out, pm)


def _add(a, b, pm):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return _clean(out, pm)


COEFF = {"mod13": st.integers(-40, 40),
         "exact": st.fractions(min_value=-5, max_value=5, max_denominator=6)}


@st.composite
def homogeneous(draw, lane, anchor=None):
    """Terms z4^(lo+3k) z6^(e6-2k), k < n, all of one weight. With an
    anchor (lo, e6) the start slides along the j-line and exponents may be
    negative (Laurent); without one every exponent is >= 0."""
    n = draw(st.integers(0, 5))
    if anchor is None:
        lo, e6 = draw(st.integers(0, 4)), draw(st.integers(2 * max(n - 1, 0), 8))
    else:
        s = draw(st.integers(-2, 2))
        lo, e6 = anchor[0] + 3 * s, anchor[1] - 2 * s
    cs = draw(st.lists(COEFF[lane], min_size=n, max_size=n))
    return {(lo + 3 * k, e6 - 2 * k): c for k, c in enumerate(cs)}


ANCHORS = st.tuples(st.integers(-2, 4), st.integers(-4, 6))


def _pm(lane):
    return PM13 if lane == "mod13" else None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(COEFF)), st.data())
def test_product_and_sum_match_dict_oracle(lane, data):
    pm = _pm(lane)
    anchor = data.draw(ANCHORS)
    a = data.draw(homogeneous(lane, anchor))
    b = data.draw(homogeneous(lane, data.draw(ANCHORS)))
    c = data.draw(homogeneous(lane, anchor))  # the weight of a
    wa, wb, wc = WPoly(a, pm), WPoly(b, pm), WPoly(c, pm)
    assert wa.terms == _clean(a, pm)
    assert wa.to_json() == [(i, j, v)
                            for (i, j), v in sorted(_clean(a, pm).items())]
    assert (wa * wb).terms == _mul(a, b, pm)
    assert (wa + wc).terms == _add(a, c, pm)
    assert (wa - wc).terms == _add(a, {k: -v for k, v in c.items()}, pm)
    if not (wa.is_zero() or wb.is_zero()) and (
            wa.weighted_degree() != wb.weighted_degree()):
        with pytest.raises(DegreeMismatch):
            wa + wb


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 300), st.integers(1, 300), st.integers(-3, 3),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_product_past_word_moduli_matches_dict_oracle(la, lb, lo, top, seed):
    """Over q = 1301^3 >= 2^31 a product of int64 arrays, each operand short
    or past upoly._SHORT_LEN, and its scale equal the dict oracles; ``top``
    draws every coefficient from the largest residues."""
    rng = random.Random(seed)

    def operand(n, lo):
        cs = [BIG.q - 1 - rng.randrange(8) if top else rng.randrange(BIG.q)
              for _ in range(n)]
        return WPoly.from_coeffs(4 * lo + 12 * n, lo, cs, BIG)

    a, b = operand(la, lo), operand(lb, lo + 1)
    prod = a * b
    assert prod.c.dtype == np.int64
    assert prod.terms == _mul(a.terms, b.terms, BIG)
    c = BIG.q - 1 - seed % 8
    assert a.scale(c).terms == _clean({k: v * c for k, v in a.terms.items()},
                                      BIG)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(COEFF)), st.data(), st.integers(1, 5))
def test_compose_and_restrict_match_dict_oracle(lane, data, k):
    pm = _pm(lane)
    a = data.draw(homogeneous(lane, data.draw(ANCHORS)))
    w = WPoly(a, pm)
    assert w.compose_powers(k).terms == {(i * k, j * k): c
                                         for (i, j), c in _clean(a, pm).items()}
    assert w.restrict_z4_zero().terms == {key: c for key, c in _clean(a, pm).items()
                                          if key[0] == 0}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_divide_exact_round_trip(data):
    q = WPoly(data.draw(homogeneous("mod13")), PM13)
    g = WPoly(data.draw(homogeneous("mod13")), PM13)
    if g.is_zero():
        assert (q * g).divide_exact(g) is None
    else:
        assert (q * g).divide_exact(g) == q


# Lanes of the monomial and composed-row tests: exact, mod p, mod p^2 and
# past 2^31, each with coefficients that are non-units mod 13 as well.
LANES = {"exact": None, "mod13": PM13, "mod169": PrimePower(13, 2),
         "big": BIG}


def _coeffs(lane):
    if lane == "exact":
        return COEFF["exact"]
    q = LANES[lane].q
    return (st.integers(-2 * q, 2 * q)
            | st.integers(-q, q).map(lambda c: 13 * c)
            | st.integers(1, 8).map(lambda c: q - c))


@st.composite
def laurent(draw, lane, n=None):
    """Terms z4^(lo+3k) z6^(e6-2k), k < n, of one weight, exponents of
    either sign; with n given the first and last coefficients are nonzero
    (mod q), so the array spans exactly n entries."""
    pm = LANES[lane]
    if n is None:
        n = draw(st.integers(0, 5))
    nonzero = _coeffs(lane).filter(lambda c: c % pm.q if pm else c)
    cs = draw(st.lists(_coeffs(lane), min_size=n, max_size=n))
    if n:
        cs[0], cs[-1] = draw(nonzero), draw(nonzero)
    lo, e6 = draw(st.integers(-4, 4)), draw(st.integers(-4, 8))
    return {(lo + 3 * k, e6 - 2 * k): c for k, c in enumerate(cs)}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(LANES)), st.data())
def test_monomial_product_and_division_match_dict_oracle(lane, data):
    """A product with one term c z4^i z6^j, on either side, and the exact
    division by it, against term-by-term dict arithmetic on Laurent inputs;
    a division is None when a quotient exponent is negative, and a
    coefficient that is not a unit is refused as the long division refuses
    it."""
    pm = LANES[lane]
    a = _clean(data.draw(laurent(lane)), pm)
    c = data.draw(_coeffs(lane))
    e4, e6 = data.draw(st.integers(-3, 5)), data.draw(st.integers(-3, 5))
    mono = _clean({(e4, e6): c}, pm)
    wa, wm = WPoly(a, pm), WPoly(mono, pm)
    assert (wa * wm).terms == _mul(a, mono, pm)
    assert (wm * wa).terms == _mul(a, mono, pm)
    if not mono:
        assert wa.divide_exact(wm) is None
        return
    if not a:
        assert wa.divide_exact(wm).is_zero()
        return
    (_, c), = mono.items()
    if pm is not None and c % pm.p == 0:
        with pytest.raises(ValueError):
            wa.divide_exact(wm)
        return
    inv = 1 / Fraction(c) if pm is None else pow(c, -1, pm.q)
    want = _clean({(i - e4, j - e6): v * inv for (i, j), v in a.items()}, pm)
    got = wa.divide_exact(wm)
    if min(min(key) for key in want) < 0:
        assert got is None
    else:
        assert got.terms == want


def test_non_unit_divisor_is_refused_by_both_divisions():
    """A leading coefficient that is no unit mod 13^2 stops the monomial
    division as it stops the long division."""
    pm = LANES["mod169"]
    num = WPoly({(3, 0): 1, (0, 2): 5}, pm)
    for g in (WPoly.monomial(13, 0, 0, pm),
              WPoly({(3, 0): 26, (0, 2): 1}, pm)):
        with pytest.raises(ValueError):
            num.divide_exact(g)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(LANES)), st.data(), st.integers(2, 6))
def test_composed_row_product_matches_dict_oracle(lane, data, k):
    """A row composed at stride k times a factor of 1, k - 1, k or k + 1
    entries, against the dict product of the composed terms and against
    compose_powers(k) * g."""
    pm = LANES[lane]
    width = data.draw(st.sampled_from((1, k - 1, k, k + 1)))
    row = _clean(data.draw(laurent(lane)), pm)
    g = data.draw(laurent(lane, width))
    wr, wg = WPoly(row, pm), WPoly(g, pm)
    assert len(wg.c) == width
    want = _mul({(i * k, j * k): c for (i, j), c in row.items()},
                _clean(g, pm), pm)
    assert wr.compose_times(k, wg).terms == want
    assert (wr.compose_powers(k) * wg).terms == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(COEFF)), st.data(), st.integers(1, 12),
       st.integers(1, 12))
def test_specialize_matches_dict_oracle(lane, data, x, y):
    pm = _pm(lane)
    a = _clean(data.draw(homogeneous(lane, data.draw(ANCHORS))), pm)
    want = sum((c * Fraction(x) ** i * Fraction(y) ** j
                for (i, j), c in a.items()), Fraction(0))
    got = WPoly(a, pm).specialize(x, y)
    if pm is None:
        assert got == want
    else:
        assert got == want.numerator * pow(want.denominator, -1, 13) % 13


def _proportional_by_dicts(lhs, rhs, p):
    """The scan's proportionality test on term dicts: the witness is the
    least pair in one support only, else the least off the ratio c."""
    if set(lhs) != set(rhs):
        return False, None, sorted(set(lhs) ^ set(rhs))[0]
    if not rhs:
        return True, 0, None
    k0 = min(rhs)
    c = lhs[k0] * pow(rhs[k0], -1, p) % p
    bad = [k for k in sorted(rhs) if lhs[k] != c * rhs[k] % p]
    return (False, None, bad[0]) if bad else (True, c, None)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.booleans(), st.integers(1, 12))
def test_proportional_matches_dict_oracle(data, same_weight, scale):
    anchor = data.draw(ANCHORS)
    rhs = _clean(data.draw(homogeneous("mod13", anchor)), PM13)
    lhs = _clean(data.draw(homogeneous(
        "mod13", anchor if same_weight else data.draw(ANCHORS))), PM13)
    if data.draw(st.booleans()):
        lhs = {k: c * scale % 13 for k, c in rhs.items()}
    assert _proportional(WPoly(lhs, PM13), WPoly(rhs, PM13), 13) == \
        _proportional_by_dicts(lhs, rhs, 13)


def test_specialize_is_exact_on_laurent_input():
    psi_1 = exact_psi_table(9).psi(1)
    value = psi_1.specialize(1, 2)
    assert type(value) is Fraction and value == Fraction(1, 32)
    with pytest.raises(NotAUnit):
        psi_table(11).psi(1).specialize(1, 0)


@pytest.mark.parametrize("p", [13, 17, 61])
def test_localizers_are_squarefree(p):
    pm = PrimePower(p, 1)
    h = hasse_poly(p, pm)
    psi = psi_table(p).psi_big
    assert discriminant(pm).squarefree() and h.squarefree() and psi.squarefree()


def test_negative_powers_raise():
    # both power methods once returned the constant 1 for any n < 0
    with pytest.raises(NegativeExponent):
        discriminant(PM13) ** -2
    with pytest.raises(NegativeExponent):
        UPoly.x_cubic(2, 3, PM13) ** -2
    assert (discriminant(PM13) ** 0).terms == {(0, 0): 1}
    assert list((UPoly.x_cubic(2, 3, PM13) ** 0).coeffs) == [1]
