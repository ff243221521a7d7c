import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellfrob.errors import DenominatorMismatch, InvalidModulus, NotIntegrable
from ellfrob.residue import PrimePower
from ellfrob.upoly import FracPoly, UPoly

PM5 = PrimePower(5, 1)
PM13 = PrimePower(13, 2)


def coeffs(poly):
    return list(poly.coeffs)


def test_derivative_of_cubic():
    f = UPoly.x_cubic(3, 5, PM13)
    assert coeffs(f.derivative()) == [3, 0, 3]


def test_compose_xp():
    g = UPoly([1, 1], PM5)  # x + 1
    assert coeffs(g.compose_xp()) == [1, 0, 0, 0, 0, 1]  # x^5 + 1


def test_square_of_cubic_x4_coefficient():
    a, b = 3, 5
    f = UPoly.x_cubic(a, b, PM13)
    assert (f * f).coeff(4) == 2 * a % 169


def test_antiderivative_simple():
    g = UPoly([0, 0, 3], PM13)  # 3x^2
    assert coeffs(g.antiderivative()) == [0, 0, 0, 1]


def test_antiderivative_mod5():
    # 3x^6 + 3x^2 over F_5 -> 4x^7 + x^3
    g = UPoly([0, 0, 3, 0, 0, 0, 3], PM5)
    assert coeffs(g.antiderivative()) == [0, 0, 0, 1, 0, 0, 0, 4]


def test_antiderivative_p_times_theta():
    # p*theta*x^(p-1) integrates exactly to theta*x^p
    p, theta = 5, 3
    pm2 = PrimePower(p, 2)
    g = UPoly.monomial(p * theta, p - 1, pm2)
    assert coeffs(g.antiderivative()) == [0] * p + [theta]


def test_antiderivative_obstruction():
    g = UPoly.monomial(1, 4, PM5)  # x^4 needs 5 | 1
    with pytest.raises(NotIntegrable) as e:
        g.antiderivative()
    assert e.value.s == 1


def test_derivative_antiderivative_roundtrip():
    rng = random.Random(7)
    pm = PrimePower(7, 2)
    for _ in range(10):
        h = UPoly([rng.randrange(49) for _ in range(13)], pm)
        try:
            w = h.antiderivative()
        except NotIntegrable:
            continue
        assert w.derivative() == h


def test_modulus_past_int64_storage_is_refused():
    # 5^30 >= 2^62: every way of building coefficients refuses it, while
    # 5^26 < 2^62, the largest power of 5 below, is stored
    big, small = PrimePower(5, 30), PrimePower(5, 26)
    for build in (lambda pm: UPoly([3, 1, 4], pm),
                  lambda pm: UPoly.monomial(1, 2, pm),
                  lambda pm: UPoly.x_cubic(2, 3, pm),
                  lambda pm: UPoly.const(5, small).times_p_to(pm)):
        with pytest.raises(InvalidModulus):
            build(big)
        assert build(small).coeffs.dtype == np.int64


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 168), max_size=8),
       st.lists(st.integers(0, 168), max_size=8))
def test_product_rule(ca, cb):
    f = UPoly(ca, PM13)
    g = UPoly(cb, PM13)
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert lhs == rhs


def test_divmod_monic():
    rng = random.Random(11)
    pm = PrimePower(13, 2)
    f = UPoly([rng.randrange(169) for _ in range(12)] + [1], pm)
    g = UPoly.x_cubic(4, 9, pm)
    quo, rem = f.divmod_monic(g)
    assert quo * g + rem == f
    assert rem.degree() < 3


def test_divexact_p():
    pm = PrimePower(5, 3)
    g = UPoly([5, 50, 10], pm)
    h = g.divexact_p()
    assert coeffs(h) == [1, 10, 2]
    assert h.pm.m == 2
    with pytest.raises(ArithmeticError):
        UPoly([1], pm).divexact_p()


def test_evaluate():
    f = UPoly.x_cubic(3, 5, PM13)
    assert f.evaluate(2) == (8 + 6 + 5) % 169


def test_fracpoly_equality_cross_multiplies():
    f = UPoly.x_cubic(1, 2, PM13)
    n = UPoly([1, 5, 7], PM13)
    assert FracPoly(n, 1, f) == FracPoly(n * f, 2, f)
    assert not FracPoly(n, 1, f) == FracPoly(n * f, 1, f)


def test_fracpoly_arithmetic():
    f = UPoly.x_cubic(1, 2, PM13)
    one = FracPoly(UPoly.const(1, PM13), 0, f)
    inv_f = FracPoly(UPoly.const(1, PM13), 1, f)
    assert one * inv_f == inv_f
    assert inv_f + inv_f == inv_f.scale(2)
    assert (one - one).is_zero()


def test_fracpoly_derivative_quotient_rule():
    f = UPoly.x_cubic(4, 7, PM13)
    # d/dx (1/f) = -f' / f^2
    inv_f = FracPoly(UPoly.const(1, PM13), 1, f)
    assert inv_f.derivative() == FracPoly(-f.derivative(), 2, f)
    # d/dx (N/f^2) against an expanded check
    n = UPoly([2, 0, 1, 3], PM13)
    g = FracPoly(n, 2, f)
    expect = FracPoly(n.derivative() * f - n.scale(2) * f.derivative(), 3, f)
    assert g.derivative() == expect


def test_fracpoly_refuses_another_f():
    one = UPoly.const(1, PM13)
    x = FracPoly(one, 1, UPoly.x_cubic(1, 2, PM13))
    y = FracPoly(one, 1, UPoly.x_cubic(1, 3, PM13))
    with pytest.raises(DenominatorMismatch):
        x + y
