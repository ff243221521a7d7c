"""The UPoly product paths (int64 convolution, limb-split FFT, schoolbook)
against references that share no code with them, plus the Python-int
surface of the array storage."""

import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellfrob import upoly
from ellfrob.cli import _stringify, main
from ellfrob.errors import FFTRoundingError, NotMonic
from ellfrob.liftp import CurveContext, lie_verify, lie_verify_commutator
from ellfrob.liftp2 import build_lift_mod_p2
from ellfrob.residue import PrimePower
from ellfrob.upoly import UPoly

SMALL_MODULI = [PrimePower(p, m) for p in (5, 13, 101, 211, 499)
                for m in (1, 2, 3)]
BIG = PrimePower(1301, 3)  # q >= 2^31: object storage, schoolbook products


def schoolbook(a, b, q):
    """Reference product on Python ints, trimmed like UPoly.coeffs."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            window = out[i:i + len(b)]
            out[i:i + len(b)] = [o + x * y for o, y in zip(window, b)]
    out = [c % q for c in out]
    while out and out[-1] == 0:
        out.pop()
    return out


def kronecker(a, b, q):
    """Reference product through one Python big-int multiplication, with
    128-bit slots (enough for every sum of products used below)."""
    width = 16

    def pack(cs):
        return int.from_bytes(
            b"".join(int(c).to_bytes(width, "little") for c in cs), "little")

    n = len(a) + len(b) - 1
    raw = (pack(a) * pack(b)).to_bytes(width * n, "little")
    return [int.from_bytes(raw[width * i:width * (i + 1)], "little") % q
            for i in range(n)]


def operand(kind, length, q, rng):
    if kind == "zero":
        return []
    if kind == "const":
        return [rng.randrange(1, q)]
    if kind == "monomial":
        return [0] * (length - 1) + [rng.randrange(1, q)]
    return [rng.randrange(q) for _ in range(length)]


KINDS = st.sampled_from(["dense", "dense", "dense", "zero", "const",
                         "monomial"])


@settings(max_examples=40, deadline=None)
@given(pm=st.sampled_from(SMALL_MODULI + [BIG]),
       la=st.integers(1, 3000), lb=st.integers(1, 3000),
       kind_a=KINDS, kind_b=KINDS, square=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(pm=PrimePower(211, 3), la=700, lb=1, kind_a="dense", kind_b="dense",
         square=True, seed=5)  # an FFT square, always run
@example(pm=PrimePower(5, 1), la=3000, lb=2999, kind_a="dense",
         kind_b="monomial", square=False, seed=6)
def test_mul_matches_schoolbook(pm, la, lb, kind_a, kind_b, square, seed):
    q = pm.q
    if q >= 2 ** 31:
        # the library multiplies these with its own Python double loop, so
        # lengths stay short enough for two quadratic products per example
        la, lb = la % 400 + 1, lb % 400 + 1
    rng = random.Random(seed)
    a = operand(kind_a, la, q, rng)
    x = UPoly(a, pm)
    if square:
        prod, b = x * x, a
    else:
        b = operand(kind_b, lb, q, rng)
        prod = x * UPoly(b, pm)
    assert prod.pm == pm
    assert prod.coeffs.tolist() == schoolbook(a, b, q)


# the int64 FFT moduli the pipeline uses, up to the largest, 1289^3 < 2^31
SPARSE_MODULI = [PrimePower(13, 2), PrimePower(211, 3), PrimePower(1289, 3)]


@settings(max_examples=40, deadline=None)
@given(pm=st.sampled_from(SPARSE_MODULI),
       nnz=st.integers(1, upoly._SPARSE_NNZ),
       ls=st.integers(upoly._SPARSE_NNZ + 1, 3000),
       ld=st.integers(upoly._SHORT_LEN + 1, 3000),
       ends=st.booleans(), sparse_left=st.booleans(), top=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(pm=PrimePower(1289, 3), nnz=upoly._SPARSE_NNZ, ls=129, ld=3000,
         ends=True, sparse_left=False, top=True, seed=7)
@example(pm=PrimePower(13, 2), nnz=1, ls=3000, ld=129, ends=True,
         sparse_left=True, top=False, seed=8)
@example(pm=PrimePower(29, 1), nnz=3, ls=88, ld=3000, ends=True,
         sparse_left=False, top=True, seed=9)
@example(pm=PrimePower(1289, 3), nnz=upoly._SPARSE_NNZ, ls=upoly._SPARSE_NNZ + 1,
         ld=upoly._SHORT_LEN + 1, ends=True, sparse_left=True, top=True,
         seed=10)
def test_sparse_lane_matches_schoolbook(pm, nnz, ls, ld, ends, sparse_left,
                                        top, seed):
    """The dense operand is past the convolution lane's length and the
    sparse one is longer than its nonzero count, short (down to
    _SPARSE_NNZ + 1 coefficients) or long, so the product takes the sparse
    lane. The sparse operand's last index is always nonzero, so it keeps its
    length; ``ends`` adds index 0. ``top`` draws every coefficient from the
    largest residues, where the int64 sums are largest."""
    q = pm.q
    rng = random.Random(seed)

    def residue():
        return q - 1 - rng.randrange(8) if top else rng.randrange(1, q)

    inner = rng.sample(range(1, ls - 1), nnz - 1)
    if ends and nnz > 1:
        inner[0] = 0
    idx = set(inner) | {ls - 1}
    sparse = [residue() if i in idx else 0 for i in range(ls)]
    dense = [residue() for _ in range(ld)]
    lanes = []
    real = upoly._sparse_mul
    a, b = (sparse, dense) if sparse_left else (dense, sparse)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(upoly, "_sparse_mul",
                   lambda *args: lanes.append(1) or real(*args))
        prod = UPoly(a, pm) * UPoly(b, pm)
    assert lanes == [1]
    assert prod.coeffs.tolist() == schoolbook(a, b, q)


def test_product_at_largest_length_the_bound_admits():
    pm = PrimePower(499, 3)
    q = pm.q
    widest = upoly._limb_plan(2, 2, q)
    assert widest == (14, 2)
    lo, hi = 2, 1 << 20
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if upoly._limb_plan(mid, mid, q) == widest:
            lo = mid
        else:
            hi = mid - 1
    assert lo == 20406  # the Percival bound at q = 499^3, two 14-bit limbs
    assert upoly._limb_plan(lo + 1, lo + 1, q)[1] == 3
    rng = random.Random(499)
    for n in (lo, lo + 1):
        a = [rng.randrange(q) for _ in range(n)]
        b = [q - 1 - rng.randrange(8) for _ in range(n)]  # near-maximal limbs
        got = (UPoly(a, pm) * UPoly(b, pm)).coeffs.tolist()
        assert got == kronecker(a, b, q)


def test_rounding_guard_raises(monkeypatch):
    pm = PrimePower(211, 3)
    x = UPoly(list(range(1, 200)), pm)
    real = np.fft.irfft

    def noisy(*args, **kwargs):
        out = real(*args, **kwargs)
        out[0] += 0.3
        return out

    monkeypatch.setattr(np.fft, "irfft", noisy)
    with pytest.raises(FFTRoundingError):
        x * x


@pytest.mark.parametrize("pm", [PrimePower(13, 2), BIG])
def test_python_ints_at_the_surface(pm):
    x = UPoly([pm.q - 1, 0, 7, 3], pm) * UPoly([2, pm.q - 5], pm)
    assert x.coeffs.dtype == (np.int64 if pm.q < 2 ** 31 else object)
    assert all(type(x.coeff(d)) is int for d in range(-1, 8))
    assert all(type(s) is str for s in x.to_json())
    assert [int(s) for s in x.to_json()] == x.coeffs.tolist()
    assert type(x.evaluate(3)) is int
    doc = _stringify({"c": x.coeff(0), "terms": [x.coeff(d) for d in range(5)]})
    assert json.dumps(doc) == json.dumps(
        {"c": str(x.coeff(0)), "terms": [str(x.coeff(d)) for d in range(5)]})


def test_object_storage_agrees_with_int64_storage():
    # reduction mod p^2 commutes with every op below, so the object-dtype
    # results at p^3 >= 2^31 must reduce to the int64 results at p^2
    rng = random.Random(13)
    low = PrimePower(1301, 2)
    cs = [rng.randrange(BIG.q) for _ in range(60)]
    ds = [rng.randrange(BIG.q) for _ in range(45)]
    x, y = UPoly(cs, BIG), UPoly(ds, BIG)
    xl, yl = UPoly(cs, low), UPoly(ds, low)
    pairs = [(x + y, xl + yl), (x - y, xl - yl), (-x, -xl),
             (x.scale(-7), xl.scale(-7)), (x.derivative(), xl.derivative()),
             (x.compose_xp(), xl.compose_xp()),
             (x.antiderivative(), xl.antiderivative()), (x * y, xl * yl),
             (x.scale(1301).divexact_p(), xl.scale(1301).divexact_p())]
    for big, small in pairs:
        assert big.coeffs.dtype == (object if big.pm.q >= 2 ** 31 else np.int64)
        m = min(big.pm.m, small.pm.m)
        assert big.reduce_to(m) == small.reduce_to(m)


def test_coefficients_are_read_only():
    x = UPoly([1, 2, 3], PrimePower(13, 1))
    with pytest.raises(ValueError):
        x.coeffs[0] = 5


def test_memoized_powers_share_one_squaring_chain(monkeypatch):
    """f**31, f**15 and f**16 on one memoized f take 9 products: 8 for the
    chain 2, 3, 6, 7, 14, 15, 30, 31, none for the stored f**15 and one
    for f**16 = f**15 * f, from the largest stored power (21 with
    square-and-multiply per exponent). Each equals the product by repeated
    multiplication."""
    pm = PrimePower(31, 1)
    g = UPoly.x_cubic(3, 5, pm)
    want = {}
    acc = UPoly.const(1, pm)
    for n in range(1, 32):
        acc = acc * g
        want[n] = acc
    f = UPoly.x_cubic(3, 5, pm).memoize_powers()
    calls = []
    original = UPoly.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(UPoly, "__mul__", counting_mul)
    got = {n: f ** n for n in (31, 15, 16)}
    monkeypatch.undo()
    assert len(calls) <= 9
    for n, power in got.items():
        assert power == want[n]


def test_odd_power_stores_the_even_power_below_it(monkeypatch):
    """f**31 is formed as f**30 * f, so f**30 afterwards costs no product
    (one more with f**31 as (f**15)^2 * f)."""
    f = UPoly.x_cubic(3, 5, PrimePower(31, 1)).memoize_powers()
    f ** 31
    calls = []
    original = UPoly.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(UPoly, "__mul__", counting_mul)
    f30 = f ** 30
    monkeypatch.undo()
    assert calls == []
    assert f30 * f == f ** 31


def long_division(a, g, q):
    """Reference divmod by a monic g: the schoolbook loop on Python ints
    that UPoly.divmod_monic ran before its Newton inverse, trimmed."""
    rem = list(a)
    d = len(g) - 1
    quo = [0] * max(len(rem) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] % q
        if c:
            quo[i - d] = c
            for j, gj in enumerate(g):
                rem[i - d + j] = (rem[i - d + j] - c * gj) % q
    return schoolbook(quo, [1], q), schoolbook(rem[:d], [1], q)


def divisor(kind, pm, rng):
    q = pm.q
    if kind == "one":
        return UPoly.const(1, pm)
    if kind == "dense":
        return UPoly([rng.randrange(q) for _ in range(rng.randrange(1, 60))]
                     + [1], pm)
    f = UPoly.x_cubic(rng.randrange(q), rng.randrange(q), pm)
    return f if kind == "cubic" else f ** ((pm.p + 1) // 2)


@settings(max_examples=30, deadline=None)
@given(pm=st.sampled_from(SMALL_MODULI + [BIG]),
       kind=st.sampled_from(["one", "cubic", "f_power", "dense"]),
       quo_lens=st.lists(st.integers(-8, 1500), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
# one divisor, long then short then longer dividends: the stored inverse
# is sliced, then extended; quotients past _SHORT_LEN take the FFT lane
@example(pm=PrimePower(211, 3), kind="cubic", quo_lens=[700, 40, 1500],
         seed=1)
@example(pm=PrimePower(499, 2), kind="f_power", quo_lens=[300, -8, 1200],
         seed=2)
@example(pm=BIG, kind="f_power", quo_lens=[200, -3], seed=3)
@example(pm=BIG, kind="one", quo_lens=[150], seed=4)
def test_divmod_matches_long_division(pm, kind, quo_lens, seed):
    q = pm.q
    rng = random.Random(seed)
    g = divisor(kind, pm, rng)
    for n in quo_lens:
        if q >= 2 ** 31:
            n %= 300  # the references are quadratic Python loops
        length = max(0, g.degree() + n)
        a = [rng.randrange(q) for _ in range(length)]
        quo, rem = UPoly(a, pm).divmod_monic(g)
        want_quo, want_rem = long_division(a, g.coeffs.tolist(), q)
        assert quo.coeffs.tolist() == want_quo
        assert rem.coeffs.tolist() == want_rem
        assert quo.pm == rem.pm == pm
        assert rem.degree() < g.degree()


def test_divisor_keeps_and_extends_its_inverse():
    """A shorter quotient reuses the stored rev(g)^-1; a longer one extends
    it, keeping its prefix."""
    pm = PrimePower(31, 1)
    g = UPoly.x_cubic(3, 5, pm)
    rng = random.Random(31)

    def dividend(n):
        return UPoly([rng.randrange(pm.q) for _ in range(n + 3)], pm)

    dividend(200).divmod_monic(g)
    stored = g._inverse
    assert len(stored) == 200 and not stored.flags.writeable
    dividend(20).divmod_monic(g)
    assert g._inverse is stored
    dividend(500).divmod_monic(g)
    assert len(g._inverse) == 500
    assert g._inverse[:200].tolist() == stored.tolist()
    one = UPoly(g.coeffs[::-1], pm) * UPoly(g._inverse, pm)
    assert one.coeffs[:500].tolist() == [1] + [0] * 499


def test_divmod_by_non_monic_raises_typed_error():
    pm = PrimePower(13, 2)
    f = UPoly([1, 2, 3, 4], pm)
    with pytest.raises(NotMonic):
        f.divmod_monic(UPoly([1, 2], pm))
    with pytest.raises(NotMonic):
        f.divmod_monic(UPoly.zero(pm))


def test_lift_mod2_stdout_golden(capsys):
    """Byte-for-byte stdout of one mod-p^2 lift, as recorded before the FFT
    product path existed."""
    code = main(["lift", "--p", "101", "--a", "2202", "--b", "9326",
                 "--mod", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d63159e2655a3d419febba17b4e72c5fee583a359dce03d6a9dc9e3818393b0b"


def test_mod_p2_general_lift_at_p499_verifies():
    ctx = CurveContext(62381, 155358, PrimePower(499, 2))
    lift, info = build_lift_mod_p2(ctx)
    assert info["branch"] == "general"
    assert lie_verify(lift, 2)
    assert lie_verify_commutator(lift, 2)
