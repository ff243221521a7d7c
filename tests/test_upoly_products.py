"""The UPoly product paths (int64 convolution, limb-split FFT, structured
lane) and the residue multiply ``_mulmod`` against references that share no
code with them, plus the Python-int surface of the array storage."""

import decimal
import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellfrob import upoly
from ellfrob.cli import _dumps, main
from ellfrob.errors import FFTRoundingError, NotMonic
from ellfrob.liftp import CurveContext, lie_verify, lie_verify_commutator
from ellfrob.liftp2 import build_lift_mod_p2
from ellfrob.residue import PrimePower
from ellfrob.upoly import UPoly

SMALL_MODULI = [PrimePower(p, m) for p in (5, 13, 101, 211, 499)
                for m in (1, 2, 3)]
BIG = PrimePower(1301, 3)  # q >= 2^31: _mulmod's digit loop, FFT products
# past 2^31 up to the largest stored modulus: 13^16 (60 bits) and
# (2^31 - 1)^2 (62 bits), whose one-bit digits make _mulmod's longest loop
WIDE_MODULI = [BIG, PrimePower(13, 16), PrimePower(2 ** 31 - 1, 2)]


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
    """Reference product through one big-number multiplication: Kronecker
    substitution at base 10^width, wide enough for every sum of products,
    on decimal's number-theoretic transform for huge operands."""
    n = len(a) + len(b) - 1
    width = len(str(min(len(a), len(b)) * max(a) * max(b))) + 1

    def pack(cs):
        return decimal.Decimal("".join("%0*d" % (width, c)
                                       for c in reversed(cs)))

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    raw = str(exact.multiply(pack(a), pack(b))).rjust(width * n, "0")
    return [int(raw[len(raw) - width * (i + 1):len(raw) - width * i]) % q
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
@given(pm=st.sampled_from(SMALL_MODULI + WIDE_MODULI),
       la=st.integers(1, 3000), lb=st.integers(1, 3000),
       kind_a=KINDS, kind_b=KINDS, square=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(pm=PrimePower(211, 3), la=700, lb=1, kind_a="dense", kind_b="dense",
         square=True, seed=5)  # an FFT square, always run
@example(pm=PrimePower(5, 1), la=3000, lb=2999, kind_a="dense",
         kind_b="monomial", square=False, seed=6)
@example(pm=PrimePower(2 ** 31 - 1, 2), la=400, lb=400, kind_a="dense",
         kind_b="dense", square=False, seed=7)
def test_mul_matches_schoolbook(pm, la, lb, kind_a, kind_b, square, seed):
    q = pm.q
    if q >= 2 ** 31:
        # the quadratic reference multiplies multi-word Python ints here, so
        # lengths stay short enough for it
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


@pytest.mark.parametrize("kind", ["f", "df", "monomial", "one"])
def test_long_times_short_past_the_word(monkeypatch, kind):
    """At q = 1291^3 > 2^31 a long operand times f, f' or a monomial takes
    the copies lane, each copy reduced through _mulmod, not a full-length
    FFT; it equals schoolbook with the largest balanced residues on both
    sides, in either order."""
    pm = PrimePower(1291, 3)
    q = pm.q
    runs = []
    real = upoly._copies
    monkeypatch.setattr(upoly, "_copies",
                        lambda *args: runs.append(1) or real(*args))
    rng = random.Random(kind)
    pool = [(q - 1) // 2, (q + 1) // 2, q - 1]
    long = [rng.choice(pool) if i % 2 else rng.randrange(q)
            for i in range(3000)]
    f = UPoly.x_cubic(pool[0], pool[1], pm)
    short = {"f": f, "df": f.derivative(), "monomial": UPoly.monomial(
        pool[2], 2, pm), "one": UPoly.const(pool[1], pm)}[kind]
    few = short.coeffs.tolist()
    assert (UPoly(long, pm) * short).coeffs.tolist() == schoolbook(long, few, q)
    assert (short * UPoly(long, pm)).coeffs.tolist() == schoolbook(few, long, q)
    assert len(runs) == 2


# the int64 FFT moduli the pipeline uses, up to the largest, 1289^3 < 2^31
SPARSE_MODULI = [PrimePower(13, 2), PrimePower(211, 3), PrimePower(1289, 3)]


def lane_runs(mp):
    """Record, in the returned list, each product the structured lane
    computes while the monkeypatch ``mp`` is active."""
    runs = []
    real = upoly._structured

    def recording(a, b, q, dense):
        cost, run = real(a, b, q, dense)
        return cost, lambda: runs.append(1) or run()

    mp.setattr(upoly, "_structured", recording)
    return runs


@settings(max_examples=40, deadline=None)
@given(pm=st.sampled_from(SPARSE_MODULI),
       nnz=st.integers(1, 8),
       ls=st.integers(9, 3000),
       ld=st.integers(upoly._SHORT_LEN + 1, 3000),
       ends=st.booleans(), sparse_left=st.booleans(), top=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(pm=PrimePower(1289, 3), nnz=8, ls=129, ld=3000,
         ends=True, sparse_left=False, top=True, seed=7)
@example(pm=PrimePower(13, 2), nnz=1, ls=3000, ld=129, ends=True,
         sparse_left=True, top=False, seed=8)
@example(pm=PrimePower(29, 1), nnz=3, ls=88, ld=3000, ends=True,
         sparse_left=False, top=True, seed=9)
@example(pm=PrimePower(1289, 3), nnz=8, ls=9, ld=upoly._SHORT_LEN + 1,
         ends=True, sparse_left=True, top=True, seed=10)
def test_sparse_lane_matches_schoolbook(pm, nnz, ls, ld, ends, sparse_left,
                                        top, seed):
    """An operand with at most 8 nonzeros, short (down to 9 coefficients)
    or long, times a dense one past the convolution lane's length. Past that
    length on both sides the product takes the structured lane. The sparse
    operand's last index is always nonzero, so it keeps its length; ``ends``
    adds index 0. ``top`` draws every coefficient from the largest residues,
    where the int64 sums are largest."""
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
    a, b = (sparse, dense) if sparse_left else (dense, sparse)
    with pytest.MonkeyPatch.context() as mp:
        runs = lane_runs(mp)
        prod = UPoly(a, pm) * UPoly(b, pm)
    if ls > upoly._SHORT_LEN:
        assert runs == [1]
    assert prod.coeffs.tolist() == schoolbook(a, b, q)


# q = 997^3 sums up to 9 raw products of residues in an int64; q = 1289^3
# reduces every term first
LANE_MODULI = [PrimePower(13, 2), PrimePower(211, 1), PrimePower(211, 3),
               PrimePower(997, 3), PrimePower(1289, 3)]
SHAPES = ["head+stride", "short+stride", "stride", "single", "random8",
          "dense"]


def shaped(kind, g, q, rng, top):
    """An operand of one shape: a dense head of several strides g, of 1-8
    coefficients or none, then a tail on stride g with some slots zero;
    a head and a single-entry tail; at most 8 nonzeros at random positions;
    or dense."""
    def residue():
        return q - 1 - rng.randrange(8) if top else rng.randrange(1, q)

    if kind == "dense":
        return [residue() for _ in range(rng.randrange(1, 400))]
    if kind == "random8":
        n = rng.randrange(9, 2000)
        idx = set(rng.sample(range(n), rng.randint(1, 8))) | {n - 1}
        return [residue() if i in idx else 0 for i in range(n)]
    h = {"head+stride": g * rng.randint(2, 4) + rng.randrange(g),
         "short+stride": rng.randint(1, 8), "stride": 0,
         "single": rng.randrange(3 * g)}[kind]
    t = 1 if kind == "single" else rng.randint(2, 30)
    start = h + rng.randrange(2 * g)
    out = [residue() for _ in range(h)] + [0] * (start - h + g * (t - 1) + 1)
    for j in range(t):
        if j in (0, t - 1) or rng.random() < 0.75:
            out[start + g * j] = residue()
    return out


@settings(max_examples=40, deadline=None)
@given(pm=st.sampled_from(LANE_MODULI), kind_a=st.sampled_from(SHAPES),
       kind_b=st.sampled_from(SHAPES), ga=st.integers(16, 64),
       gb=st.integers(16, 64), same_stride=st.booleans(),
       square=st.booleans(), top=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
# short heads against long stride tails (the rows of a head), a long head
# against a few tail entries (shifted copies), two tails on strides 16 and
# 17 (no common stride) and on 32 and 48 (packed at 16), squares, and
# per-term reduction at 1289^3 next to raw sums at 997^3
@example(pm=PrimePower(211, 1), kind_a="head+stride", kind_b="short+stride",
         ga=40, gb=40, same_stride=True, square=False, top=False, seed=1)
@example(pm=PrimePower(997, 3), kind_a="head+stride", kind_b="single",
         ga=64, gb=16, same_stride=False, square=False, top=True, seed=2)
@example(pm=PrimePower(1289, 3), kind_a="stride", kind_b="stride",
         ga=16, gb=17, same_stride=False, square=False, top=True, seed=3)
@example(pm=PrimePower(13, 2), kind_a="head+stride", kind_b="stride",
         ga=32, gb=48, same_stride=False, square=False, top=False, seed=4)
@example(pm=PrimePower(1289, 3), kind_a="head+stride", kind_b="dense",
         ga=50, gb=50, same_stride=True, square=True, top=True, seed=5)
@example(pm=PrimePower(211, 3), kind_a="random8", kind_b="head+stride",
         ga=20, gb=30, same_stride=False, square=False, top=True, seed=6)
def test_structured_lane_matches_schoolbook(pm, kind_a, kind_b, ga, gb,
                                            same_stride, square, top, seed):
    """Every plan of the structured lane, one per pair of candidate splits
    (the whole operand as a head included), and the product as UPoly takes
    it, equal the schoolbook product."""
    q = pm.q
    rng = random.Random(seed)
    a = shaped(kind_a, ga, q, rng, top)
    b = a if square else shaped(kind_b, ga if same_stride else gb, q, rng,
                                top)
    want = schoolbook(a, b, q) if len(a) < len(b) else schoolbook(b, a, q)
    x = np.array(a, dtype=np.int64)
    y = x if square else np.array(b, dtype=np.int64)
    x.flags.writeable = y.flags.writeable = False

    def splits(v):
        return upoly._splits(v) + [(v, upoly._NO_TAIL, 0)]

    pairs = ([(s, s) for s in splits(x)] if square
             else [(s, t) for s in splits(x) for t in splits(y)])
    for sa, sb in pairs:
        _, run = upoly._plan(x, y, q, sa, sb)
        if run is not None:
            assert schoolbook(run().tolist(), [1], q) == want
    ux = UPoly(a, pm)
    prod = ux * ux if square else ux * UPoly(b, pm)
    assert prod.coeffs.tolist() == want


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
    # the Percival bound at q = 499^3, two balanced 14-bit limbs
    assert lo == 72633
    assert upoly._limb_plan(lo + 1, lo + 1, q)[1] == 3
    rng = random.Random(499)
    for n in (lo, lo + 1):
        a = [rng.randrange(q) for _ in range(n)]
        # balanced residues near -q/2: limbs of near-maximal magnitude
        b = [(q + 1) // 2 + rng.randrange(8) for _ in range(n)]
        got = (UPoly(a, pm) * UPoly(b, pm)).coeffs.tolist()
        assert got == kronecker(a, b, q)


def test_balanced_limbs_on_both_sides_of_the_one_limb_boundary():
    """At q = 211^2 one balanced 16-bit limb reaches length 10874 per side;
    the unsigned residues it replaced needed two limbs for the three largest
    products of a mod-p^2 lift at p = 211, which one limb now covers. Past
    the boundary two limbs take over. Residues are the largest balanced
    ones, +-(q-1)/2 up to 8, each side of one sign."""
    pm = PrimePower(211, 2)
    q = pm.q
    for lengths in ((23318, 631), (1582, 23738), (22578, 634)):
        assert upoly._limb_plan(*lengths, q) == (16, 1)
    assert upoly._limb_plan(10874, 10874, q) == (16, 1)
    assert upoly._limb_plan(10875, 10875, q)[1] == 2
    rng = random.Random(211)
    for n in (10874, 10875):
        a = [(q - 1) // 2 - rng.randrange(8) for _ in range(n)]
        b = [(q + 1) // 2 + rng.randrange(8) for _ in range(n)]
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
    assert x.coeffs.dtype == np.int64
    assert all(type(x.coeff(d)) is int for d in range(-1, 8))
    assert all(type(s) is str for s in x.to_json())
    assert [int(s) for s in x.to_json()] == x.coeffs.tolist()
    assert type(x.evaluate(3)) is int
    doc = _dumps({"c": x.coeff(0), "terms": [x.coeff(d) for d in range(5)]})
    assert doc == json.dumps(
        {"c": str(x.coeff(0)), "terms": [str(x.coeff(d)) for d in range(5)]},
        sort_keys=True, indent=2)


def test_storage_past_2_31_agrees_with_storage_below():
    # reduction mod p^2 commutes with every op below, so the results at
    # p^3 >= 2^31, through _mulmod's digit loop, must reduce to the results
    # at p^2, through one word product
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
        assert big.coeffs.dtype == small.coeffs.dtype == np.int64
        m = min(big.pm.m, small.pm.m)
        assert big.reduce_to(m) == small.reduce_to(m)


# 1301^3 just past the word, 101^5 (34 bits) where a word product would
# overflow, and (2^31 - 1)^2 with one-bit digits
@pytest.mark.parametrize("pm", [BIG, PrimePower(101, 5),
                                PrimePower(2 ** 31 - 1, 2)])
def test_mulmod_matches_python_ints(pm):
    """_mulmod against Python ints at the digit edges of c: 0, 1, the
    largest one-digit 2^s - 1, the smallest two-digit 2^s and q - 1, each as
    an int and as an array; and an array of random residues. On 40 and on
    _MOD_CUT random residues, for both forms of _mod."""
    q = pm.q
    s = 63 - (q - 1).bit_length()
    rng = random.Random(q)
    for size in (40, upoly._MOD_CUT):  # both sides of _mod's cut
        xs = [0, 1, q - 1] + [rng.randrange(q) for _ in range(size)]
        x = np.array(xs, dtype=np.int64)
        for c in (0, 1, 2 ** s - 1, 2 ** s, q - 1):
            want = [v * c % q for v in xs]
            assert upoly._mulmod(x, c, q).tolist() == want
            cs = np.full(len(xs), c, dtype=np.int64)
            assert upoly._mulmod(x, cs, q).tolist() == want
        cs = [rng.randrange(q) for _ in xs]
        assert (upoly._mulmod(x, np.array(cs, dtype=np.int64), q).tolist()
                == [v * c % q for v, c in zip(xs, cs)])


@settings(max_examples=60, deadline=None)
@given(q=st.one_of(st.integers(2, 2 ** 62 - 1),
                   st.sampled_from([2, 3, 2 ** 31 - 1, 2 ** 31 + 11,
                                    2 ** 62 - 1])),
       n=st.sampled_from([1, 7, upoly._MOD_CUT - 1, upoly._MOD_CUT, 3000]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mod_matches_remainder(q, n, seed):
    """_mod against np.remainder on both sides of _MOD_CUT: draws over the
    whole admitted range -(2^63 - q) .. 2^63 - 1, near +-2^62, and within a
    few q of zero, negatives included, with the range ends planted; in a
    new array and in place."""
    rng = np.random.default_rng(seed)
    lo, hi = -(2 ** 63 - q), 2 ** 63 - 1
    x = np.concatenate([
        rng.integers(lo, hi, n, endpoint=True),
        rng.choice([-1, 1], n) * (2 ** 62 + rng.integers(-2 ** 20, 2 ** 20, n)),
        rng.integers(max(lo, -3 * q), min(hi, 3 * q), n, endpoint=True)])
    x = rng.permutation(x)[:n]
    edges = [lo, lo + 1, -q, -1, 0, 1, q - 1, q, hi]
    x[rng.integers(0, n, len(edges))] = edges
    want = np.remainder(x, q)
    assert np.array_equal(upoly._mod(x, q), want)
    upoly._mod(x, q, out=x)
    assert np.array_equal(x, want)


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
    # f^((p+1)/2), its degree capped for p = 2^31 - 1
    return f if kind == "cubic" else f ** ((min(pm.p, 1301) + 1) // 2)


@settings(max_examples=30, deadline=None)
@given(pm=st.sampled_from(SMALL_MODULI + WIDE_MODULI),
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
@example(pm=PrimePower(2 ** 31 - 1, 2), kind="f_power", quo_lens=[300],
         seed=5)
def test_divmod_matches_long_division(pm, kind, quo_lens, seed):
    q = pm.q
    rng = random.Random(seed)
    g = divisor(kind, pm, rng)
    for n in quo_lens:
        if q >= 2 ** 31:
            n %= 300  # the quadratic references multiply multi-word ints
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
