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
