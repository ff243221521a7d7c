import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellfrob.residue as residue
from ellfrob.errors import InvalidModulus
from ellfrob.residue import PrimePower, delta_scalar, inv_mod, is_prime


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2 ** 61 - 1)


def test_prime_power_rejects_bad_p():
    for p in (2, 3, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            PrimePower(p)
    with pytest.raises(ValueError):
        PrimePower(5, 0)


def test_prime_power_checks_each_p_once_and_rejects_every_bad_one(monkeypatch):
    """Miller-Rabin runs once per p, and the memo of passed primes never
    lets a bad modulus through: every bad construction raises, also when it
    is repeated and when p has passed before."""
    calls = []
    real = residue.is_prime
    monkeypatch.setattr(residue, "is_prime",
                        lambda n: calls.append(n) or real(n))
    pm = PrimePower(1000003, 2)
    assert PrimePower(1000003, 1).q == 1000003
    assert pm.q == 1000003 ** 2 and calls.count(1000003) <= 1
    assert pm == PrimePower(1000003, 2) and "q" not in repr(pm)
    for _ in range(2):
        for p, m in ((1, 1), (2, 1), (3, 1), (9, 1), (15, 2), (561, 1),
                     (1000003, 0), (13, -1)):
            with pytest.raises(InvalidModulus):
                PrimePower(p, m)
    assert calls.count(561) == 2


def test_prime_power_q_lift_drop():
    pm = PrimePower(13, 2)
    assert pm.q == 169
    assert pm.drop(1).q == 13


def test_inv_mod():
    assert inv_mod(7, 169) * 7 % 169 == 1


def test_delta_scalar_value():
    # (2 - 2^5)/5 = -6 = 19 mod 25
    assert int(delta_scalar(2, PrimePower(5, 2))) == 19


def test_delta_scalar_fermat_zero_mod_p():
    pm = PrimePower(13, 1)
    for a in range(13):
        # delta(a) = (a - a^p)/p is a well defined residue for every int
        delta_scalar(a, pm)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 11, 13]), st.integers(1, 3),
       st.integers(0, 10 ** 9), st.integers(0, 10 ** 9))
def test_delta_scalar_leibniz(p, m, a, b):
    pm = PrimePower(p, m)
    q = pm.q
    da = int(delta_scalar(a, pm))
    db = int(delta_scalar(b, pm))
    lhs = int(delta_scalar(a * b, pm))
    rhs = (pow(a, p, q) * db + pow(b, p, q) * da + p * da * db) % q
    assert lhs == rhs
