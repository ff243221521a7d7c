"""Dense univariate polynomials over Z/p^m, and fractions with f-power denominators.

Storage. ``UPoly.coeffs`` is one trimmed, read-only int64 array, index =
degree, entries the canonical residues in [0, q), q = p^m < 2^62 (a larger
q raises ``InvalidModulus`` where an array is built). A sum of two residues
fits a word, and so does a product when q <= 2^31. Above that, ``_mulmod``
forms x c mod q by Horner's rule over the base-2^s digits c_i of c, s =
63 - bits(q-1): acc <- (acc 2^s mod q + x c_i mod q) mod q. As acc, x <
2^bits(q-1) and c_i < 2^s, each product is below 2^63, and so is the sum.
``coeff``, ``evaluate``, ``to_json`` and ``repr`` hand out Python ints only
(``coeff`` on a stack: a column). The products and sums below reduce their
int64 results mod q through ``_mod``, exact on every value they form.

Stacks. ``coeffs`` may also be a (B, n) array: B polynomials over one
modulus, one per row, such as the mod-p checks of B curves at once (liftp
module doc, Stacks). Every method indexes the last axis, and a 1-D operand
stands for every row. ``_trim`` drops the trailing columns that are zero
in every row, so ``degree`` is the largest over the rows and ``is_zero``
says that every row is zero. ``scale`` takes an int or a per-row array;
``equal_rows`` and FracPoly's ``==`` give one verdict per row, while
UPoly's ``==`` stays one bool. A product with a 2-D operand runs row by
row in one of two lanes. It takes the copies lane (below) when
``_convolves`` holds for the shorter length and one operand has at most
``_STACK_COPIES`` live columns, as f, f', a monomial or f'(x^p) have;
otherwise it takes the FFT lane along the last axis, whose limb plan rests
on per-row bounds (the lengths, hence the Percival bound, are those of one
row) and whose rounding guard checks every row. A copy costs one pass over
all rows, about what the FFT costs in all, so between dense operands the
FFT wins: at p = 61 it made the mod-p checks of a stack 1.4-1.6 times
faster. The structured lane stays 1-D.

Products. Degrees reach a few times p^2 in the mod-p^2 pipeline, so
``_mul``, the array product behind ``__mul__``, the division and the WPoly
product, picks one of four exact lanes by operand length, nonzero pattern
and q:

- int64 ``np.convolve`` when the shorter operand has at most
  ``_SHORT_LEN`` coefficients and (q-1)^2 min(la, lb) < 2^62, otherwise a
  limb-split float FFT (below): together, the dense lanes;
- for q < 2^31, the structured lane (below), where its estimated cost is
  below that of the dense lane it replaces;
- past the convolution's bound (q > 2^31), the copies lane with reduced
  copies, for a shorter operand of at most ``_SHORT_LEN`` coefficients,
  min(la, lb) q < 2^63 and an estimate (``_copies_cost``) below the FFT's:
  a long operand times f or f' at q = p^3, say, which would otherwise cost
  a transform of the full length.

The copies lane adds, for each live column of one operand (nonzero in some
row), the other operand times that column, shifted; it loops over the
operand with fewer live columns, so each output coefficient of a row sums
at most min(la, lb) terms. Summed as they are, the terms are products of
residues below (q-1)^2, and (q-1)^2 min(la, lb) < 2^62 keeps the int64 sum
exact: the bound of ``np.convolve``. Otherwise each copy is reduced below q
through ``_mulmod`` first, and the sum stays below min(la, lb) q < 2^63.

The structured lane. The lift phi(x) = x^p + pZ has Z = W + V(x^p) +
pU/f^p, so mod p the numerators the checks multiply are a short dense
polynomial plus a tail in x^p, such as N1 = W f(x^p) + (V f)(x^p); other
operands are monomials, binomials like f'(x^p) = 3x^(2p) + a, or rows
composed at stride p. An operand x splits into a head x[:h] and a tail,
the nonzeros past h. Counting a nonempty head as W = ``_TAIL_WEIGHT`` plus
h coefficients and each tail nonzero as W, h minimizes the sum; a head of
at most ``_SHORT_LEN`` coefficients is also tried empty, since a short
product can cost more than its nonzeros as tail entries. Then
ab = Ha Hb + Ha Tb + Ta Hb + Ta Tb, and a square is Ha^2 + 2 Ha Ta + Ta^2:

- Ha Hb is a product of its own, dense as a rule;
- Ha Tb is one shifted copy of Ha per tail nonzero, scaled by it; or, with
  the tail on a stride g (its indices equal mod g) and packed into T, so
  Tb = x^s T(x^g), a loop over the rows of Ha of width g, each adding its
  outer product with T into a grid of width g that, read row by row, is
  Ha T(x^g);
- Ta Tb on a common stride g is one product of the packed tails, spread
  at stride g; otherwise one scaled copy of the longer tail per nonzero of
  the shorter.

Each piece takes whichever of its two forms costs less, and the lane is
taken only where its estimate beats the dense lane's. The estimates are in
ns on a 2-vCPU x86 VM (module constants): a numpy call, an element of a
copy or an outer product, and T N log2 N for an FFT product of T real
transforms of size N. They choose a lane only; every lane is exact. The
lane is planned only past ``_PLAN_NS`` of estimated dense work. An operand
is split when under 1/W of its coefficients are nonzero, or when its back
half is that sparse and the dense lane is an FFT past ``_SEARCH_NS``, where
the search costs little beside it. An operand with at most 8 nonzeros is
the case of an empty or short head.

Overflow of the structured lane. Each raw term, a residue times a residue,
is below (q-1)^2 < 2^62. An output coefficient sums one reduced head
product, at most ta + tb terms from the two head-tail pieces (one per tail
nonzero whose window covers it; a square has one piece with the head
doubled mod q), and at most min(ta, tb) terms or one reduced value from
the tails, ta and tb counting tail nonzeros. When (2 + ta + tb +
min(ta, tb)) (q-1)^2 < 2^63 these int64 sums are exact as they are;
otherwise each term is reduced below q first, and the sum stays below
(2 + ta + tb + min(ta, tb)) q < 2^63. One reduction mod q ends the product.

The FFT lane writes each residue balanced, in (-q/2, q/2], and splits it
into k limbs of L = ceil(bits(q-1) / k) bits, c = sum_i c_i 2^(iL): each
low limb is ((c + 2^(L-1)) mod 2^L) - 2^(L-1), and the last is what
remains. Since q is odd, |c| <= (q-1)/2 <= 2^(kL-1) - 1, and each step
(c - c_i)/2^L keeps the remainder within 2^(-L)(|c| + 2^(L-1)), so the last
limb too is at most 2^(L-1) in absolute value. The lane convolves the limb
sequences in float64 with ``numpy.fft.rfft/irfft`` at a power-of-two
length N = 2^n >= la + lb - 1 and rounds. It recombines the limb sums
C_s, weighted 2^(sL), by Horner's rule from the top: out <- (C_s + out 2^L
mod q) mod q, the product through ``_mulmod``; below 2^52 + q < 2^63, the
sum is exact. The limb products with the same weight s are summed in
the frequency domain, so one output sequence adds at most k limb
convolutions. Exactness rests on an a priori bound. For a power-of-two FFT
with roots of unity accurate to beta, Percival (Math. Comp. 72 (2003),
Thm. 5.1) bounds every output error of a convolution by

    |x| |y| ((1+eps)^(3n) (1+eps sqrt5)^(3n+1) (1+beta)^(3n) - 1),

with |.| the Euclidean norm, eps = 2^-53 and here beta = eps. For balanced
limb vectors |x| |y| <= sqrt(la lb) 2^(2L-2), a quarter of the
(2^L - 1)^2 of unsigned limbs. ``_limb_plan`` takes the smallest k (the
widest limbs) for which k times that bound stays below 1/4, so rounding to
the nearest integer is exact with a factor two of slack; it also keeps
every exact limb sum, at most k min(la, lb) 2^(2L-2) in absolute value,
below 2^52. At q = 211^2 one 16-bit limb reaches 10874 coefficients a
side, and at q = 499^3 two 14-bit limbs 72633. numpy's pocketfft is not
the radix-2 FFT of the analysis, so a runtime guard checks that every
computed value lies within 1/4 of its rounded integer and raises
``FFTRoundingError`` (an InternalError, exit code 2) if one ever does not.
A square (``x * x`` with the same object on both sides) reuses its forward
transforms.

Division. ``divmod_monic`` divides P of length l by a monic g of degree d
with two products. Reversing coefficients turns P = g Q + R into
rev(P) = rev(g) rev(Q) mod x^n, n = l - d, so the quotient is the
reversed rev(P) rev(g)^-1 mod x^n, and R = P - g Q needs only the low d
terms of g Q. rev(g)^-1 comes from Newton's iteration
h <- h (2 - rev(g) h), which doubles the precision of h at each step
(von zur Gathen and Gerhard, Modern Computer Algebra, Sec. 9.1). It is
exact over Z/p^m: g is monic, so rev(g) has constant term 1, a unit, and
every step is ring arithmetic. Every operand stays a canonical residue,
as the product lanes require. The inverse is kept
on the divisor, which is immutable like every UPoly, so it lives exactly
as long as the divisor does (the CurveContext, for f and its powers): a
shorter request slices it, a longer one resumes Newton from it.
"""

import functools
import math

import numpy as np

from .errors import (DenominatorMismatch, FFTRoundingError, InvalidModulus,
                     ModulusMismatch, NegativeExponent, NotDivisible,
                     NotIntegrable, NotMonic)

_MAX_Q = 2 ** 62     # q below this: int64 storage (module doc, Storage)
_WORD_Q = 2 ** 31    # up to this q, a product of two residues fits int64
_SHORT_LEN = 128     # np.convolve beats the FFT up to this shorter length
_STACK_COPIES = 8    # a stack product takes copies up to this many live columns
_TAIL_WEIGHT = 16    # a tail nonzero costs about this many head coefficients
# The lane cost model, in ns on a 2-vCPU x86 VM (module doc, Products): one
# numpy call, and one element of a shifted copy or an outer product; a
# reduction mod q costs two elements.
_CALL_NS = 3000
_ELEM_NS = 3
_PLAN_NS = 10 * _CALL_NS    # planning the structured lane costs about this
_SEARCH_NS = 500000         # dense work that pays for a dense-looking split
_NO_TAIL = np.zeros(0, dtype=np.intp)
_EPS = 2.0 ** -53
_MOD_CUT = 1024     # from this many entries, _mod divides by multiplication


def _zeros(shape, q):
    if q >= _MAX_Q:
        raise InvalidModulus("modulus %d is not below 2^62, the limit of "
                             "int64 coefficient storage" % q)
    return np.zeros(shape, dtype=np.int64)


def _residues(values, q):
    """Canonical residues of an int sequence or array, as int64."""
    if isinstance(values, np.ndarray):
        return np.remainder(values, q, out=_zeros(values.shape, q),
                            casting="unsafe")
    out = _zeros(len(values), q)
    out[:] = [int(c) % q for c in values]
    return out


def _residue(c, q):
    """c mod q for an int, or for an array of per-row values of a stack."""
    return c % q if isinstance(c, np.ndarray) else int(c) % q


def _mod(x, q, out=None):
    """x mod q in [0, q) for an int64 array x and an int 0 < q < 2^62: from
    ``_MOD_CUT`` entries on, x - q floor(x/q) by ``np.floor_divide``, a
    multiply and a subtract, and ``np.remainder`` below. numpy divides an
    array by a scalar through a multiplication in floor_divide, but element
    by element in remainder: on a 2-vCPU VM (numpy 2.4) the first form ran
    1.4 times as fast at 1024 entries and 2.1-2.4 times at 4K-131K, and
    slower at 256.

    Exactness: floor_divide is exact, and q floor(x/q) lies in (x - q, x],
    so it fits int64 whenever -(2^63 - q) <= x < 2^63, which |x| <= 2^63 - q
    implies; the difference is then x mod q, as np.remainder gives. Every
    array reduced here is in that range by the bounds of the module doc:
    sums of products below 2^63, FFT limb sums below 2^52 plus a residue,
    and differences of residues above -q."""
    if x.size < _MOD_CUT:
        return np.remainder(x, q, out=out)
    quo = np.floor_divide(x, q)
    quo *= q
    return np.subtract(x, quo, out=quo if out is None else out)


def _mulmod(x, c, q):
    """x c mod q for an int64 residue array x and a residue c, an int or an
    array: above q = 2^31, Horner's rule over the base-2^s digits of c from
    its leading one (module doc, Storage)."""
    if q <= _WORD_Q:
        return _mod(x * c, q)
    bits = (q - 1).bit_length()
    s = 63 - bits
    shift = s * ((max(c.bit_length() if isinstance(c, int) else bits, 1) - 1)
                 // s)
    acc = _mod(x * (c >> shift), q)
    while shift:
        shift -= s
        acc = _mod(_mod(acc * (1 << s), q)
                   + _mod(x * (c >> shift & (1 << s) - 1), q), q)
    return acc


def powmod(x, e, q):
    """x^e mod q, elementwise, for an int64 residue array x and e >= 0, by
    square-and-multiply through ``_mulmod``."""
    if e < 0:
        raise NegativeExponent("powmod with exponent %d" % e)
    out = None
    while e:
        if e & 1:
            out = x if out is None else _mulmod(out, x, q)
        e >>= 1
        if e:
            x = _mulmod(x, x, q)
    return np.full_like(x, 1 % q) if out is None else out


def unit_inverses(x, pm):
    """x^-1 mod p^m, elementwise, for an array of units x: x^(phi(q) - 1)
    (Euler)."""
    return powmod(x, pm.q // pm.p * (pm.p - 1) - 1, pm.q)


def _live(arr):
    """The columns of arr (one row, or a stack) that are nonzero in some
    row."""
    return np.flatnonzero(arr if arr.ndim == 1 else arr.any(axis=0))


def _trim(arr):
    n = arr.shape[-1]
    if n and (arr[n - 1] == 0 if arr.ndim == 1
              else not arr[:, n - 1].any()):
        nz = _live(arr)
        n = int(nz[-1]) + 1 if len(nz) else 0
        arr = arr[..., :n]
    arr.flags.writeable = False
    return arr


def _fft_error_bound(la, lb, limb_bits, n_limbs, log2n):
    """Percival's bound for one output of the k-term limb convolution."""
    growth = math.expm1(3 * log2n * math.log1p(_EPS)
                        + (3 * log2n + 1) * math.log1p(_EPS * math.sqrt(5))
                        + 3 * log2n * math.log1p(_EPS))
    return n_limbs * math.sqrt(la * lb) * 2.0 ** (2 * limb_bits - 2) * growth


@functools.lru_cache(maxsize=1024)
def _limb_plan(la, lb, q):
    """(limb bits L, limb count k) for an exact FFT product mod q, widest first."""
    bits = (q - 1).bit_length()
    log2n = max(1, (la + lb - 2).bit_length())
    for k in range(1, bits + 1):
        width = -(-bits // k)
        exact_max = k * min(la, lb) << (2 * width - 2)
        if (exact_max < 2 ** 52
                and _fft_error_bound(la, lb, width, k, log2n) < 0.25):
            return width, k
    raise FFTRoundingError("no exact limb split for lengths %d, %d mod %d"
                           % (la, lb, q))


def _fft_mul(a, b, q):
    """Exact product of two int64 residue arrays, or stacks of them, mod q,
    along the last axis (see module doc)."""
    la, lb = a.shape[-1], b.shape[-1]
    width, k = _limb_plan(la, lb, q)
    n = la + lb - 1
    size = 1 << (n - 1).bit_length()
    half, mask = 1 << (width - 1), (1 << width) - 1
    rfft, irfft = np.fft.rfft, np.fft.irfft

    def spectra(x):
        c = np.where(x > q // 2, x - q, x)  # balanced residues
        out = []
        for _ in range(k - 1):
            c = c + half
            out.append(rfft((c & mask) - half, size))
            c >>= width
        return out + [rfft(c, size)]

    fa = spectra(a)
    fb = fa if b is a else spectra(b)
    out, weight = None, pow(2, width, q)
    for s in range(2 * k - 2, -1, -1):
        spec = None
        for i in range(max(0, s - k + 1), min(s, k - 1) + 1):
            term = fa[i] * fb[s - i]
            spec = term if spec is None else spec + term
        vals = irfft(spec, size)[..., :n]
        del spec
        exact = np.rint(vals)
        worst = float(np.max(np.abs(vals - exact)))
        if not worst < 0.25:
            raise FFTRoundingError(
                "FFT product off an integer by %.3g (lengths %d, %d mod %d)"
                % (worst, la, lb, q))
        limb = exact.astype(np.int64)
        del vals, exact
        if out is not None:
            limb += _mulmod(out, weight, q)
        out = _mod(limb, q, out=limb)
    return out


def _convolves(short, q):
    """Does a product with a shorter length ``short`` take np.convolve?"""
    return short <= _SHORT_LEN and (q - 1) ** 2 * short < 2 ** 62


def _dense_cost(la, lb, q, square):
    """Estimated ns of the dense lane on lengths la, lb (module doc)."""
    if _convolves(min(la, lb), q):
        return _CALL_NS + la * lb + 4 * _ELEM_NS * (la + lb)
    k = _limb_plan(la, lb, q)[1]
    size = 1 << (la + lb - 2).bit_length()
    transforms = (3 if square else 4) * k - 1
    return transforms * (size * size.bit_length() + 4 * _CALL_NS)


def _splits(x):
    """Candidate splits (head, tail indices, tail stride) of x: the head
    x[:h], the indices of the nonzeros past it, and the largest g with all
    of them equal mod g (0 for one). A nonempty head costs _TAIL_WEIGHT (one
    more product) plus h, each tail nonzero _TAIL_WEIGHT, and the first
    candidate's h minimizes the sum. A head of at most _SHORT_LEN
    coefficients may cost more as a product than as tail entries (a short
    FFT, or a convolution with few nonzeros), so no head is a second
    candidate then."""
    nz = x.nonzero()[0]
    cuts = [(x[:0], nz)]
    if len(nz):
        # a cut after nz[i] costs W + nz[i] + 1 + W (n - 1 - i), no head W n
        lead = nz - np.arange(0, _TAIL_WEIGHT * len(nz), _TAIL_WEIGHT)
        i = lead.argmin()
        if lead[i] < -1:
            h = int(nz[i]) + 1
            cuts = [(x[:h], nz[i + 1:])] + (cuts if h <= _SHORT_LEN else [])
    return [(head, idx, math.gcd(*(idx[1:] - idx[:-1]).tolist()))
            for head, idx in cuts]


def _head_tail(head, x, idx, g, q):
    """(cost, add): add(out, reduce) adds head times the tail of x at idx,
    on stride g, to out, reducing each term mod q first when asked. One
    shifted copy of the head per tail entry, or the head's rows of width g
    against the packed tail, whichever costs less."""
    h, t = len(head), len(idx)
    copies = t * (_CALL_NS + _ELEM_NS * h)
    if g:
        rows, start = -(-h // g), int(idx[0])
        s = x[start:int(idx[-1]) + 1:g]
        m = len(s)
        by_rows = (rows + 3) * _CALL_NS + _ELEM_NS * rows * m * g
    if g and by_rows < copies:
        def add(out, reduce):
            grid = np.zeros(rows * g, dtype=np.int64)
            grid[:h] = head
            acc = np.zeros((rows + m - 1, g), dtype=np.int64)
            for k, row in enumerate(grid.reshape(rows, g)):
                term = np.outer(s, row)
                if reduce:
                    _mod(term, q, out=term)
                acc[k:k + m] += term
            n = h + g * (m - 1)
            out[start:start + n] += acc.ravel()[:n]
        return by_rows, add

    def add(out, reduce):
        for i, c in zip(idx.tolist(), x[idx].tolist()):
            term = head * c
            if reduce:
                _mod(term, q, out=term)
            out[i:i + h] += term
    return copies, add


def _tail_tail(xa, ia, ga, xb, ib, gb, q):
    """(cost, add) for the product of two tails, as ``_head_tail``: one
    scaled copy of the longer tail per entry of the shorter, or, on a common
    stride g, one short product of the packed tails spread at stride g,
    whichever costs less."""
    if len(ia) > len(ib):
        xa, ia, xb, ib = xb, ib, xa, ia
    copies = len(ia) * (_CALL_NS + _ELEM_NS * len(ib))
    g = math.gcd(ga, gb) if len(ia) > 1 else 0
    if g:
        sa = xa[ia[0]:ia[-1] + 1:g]
        sb = sa if ib is ia else xb[ib[0]:ib[-1] + 1:g]
        packed = _CALL_NS + _dense_cost(len(sa), len(sb), q, sb is sa)
        if packed < copies:
            def add(out, reduce):
                prod = _mul(sa, sb, q)
                start = int(ia[0] + ib[0])
                out[start:start + g * len(prod):g] += prod
            return packed, add

    def add(out, reduce):
        vb = xb[ib]
        for i, c in zip(ia.tolist(), xa[ia].tolist()):
            term = vb * c
            if reduce:
                _mod(term, q, out=term)
            out[i + ib] += term
    return copies, add


def _structured(a, b, q, dense):
    """(cost, run) of the cheapest head/tail product of a and b mod q < 2^31:
    the estimated ns, and a function computing the product. An operand is
    split when it is sparse, or when its back half is and the dense lane,
    of estimated cost ``dense``, is an FFT that pays for the search (module
    doc, Products)."""
    square = a is b
    search = dense > _SEARCH_NS and not _convolves(min(len(a), len(b)), q)
    splits = []
    for x in (a,) if square else (a, b):
        n, half = len(x), len(x) // 2
        if (np.count_nonzero(x) * _TAIL_WEIGHT < n
                or search and np.count_nonzero(x[half:]) * _TAIL_WEIGHT
                < n - half):
            splits.append(_splits(x))
        else:
            splits.append([(x, _NO_TAIL, 0)])
    plans = ([_plan(a, b, q, s, s) for s in splits[0]] if square
             else [_plan(a, b, q, s, t) for s in splits[0] for t in splits[1]])
    return min(plans, key=lambda plan: plan[0])


def _plan(a, b, q, split_a, split_b):
    """(cost, run) of the product of a and b from one split of each."""
    la, lb = len(a), len(b)
    square = a is b
    (ha, ia, ga), (hb, ib, gb) = split_a, split_b
    ta, tb = len(ia), len(ib)
    if not ta and not tb:
        return math.inf, None
    heads = len(ha) and len(hb)
    pieces = []
    if square and heads:
        pieces.append(_head_tail(2 * ha % q, a, ia, ga, q))
    if not square and tb and len(ha):
        pieces.append(_head_tail(ha, b, ib, gb, q))
    if not square and ta and len(hb):
        pieces.append(_head_tail(hb, a, ia, ga, q))
    if ta and tb:
        pieces.append(_tail_tail(a, ia, ga, b, ib, gb, q))
    cost = (3 * _CALL_NS + 2 * _ELEM_NS * (la + lb) + sum(c for c, _ in pieces)
            + (_dense_cost(len(ha), len(hb), q, square) if heads else 0))
    reduce = (2 + ta + tb + min(ta, tb)) * (q - 1) ** 2 >= 2 ** 63

    def run():
        out = np.zeros(la + lb - 1, dtype=np.int64)
        if heads:
            out[:len(ha) + len(hb) - 1] = _mul(ha, ha if square else hb, q)
        for _, add in pieces:
            add(out, reduce)
        return _mod(out, q, out=out)
    return cost, run


def _fewer_live(a, b):
    """(x, y, live): the operands with y the one of fewer live columns
    (nonzero in some row), and the indices of those columns."""
    ia, ib = _live(a), _live(b)
    return (a, b, ib) if len(ib) <= len(ia) else (b, a, ia)


def _copies(a, b, live, q):
    """a b mod q as one shifted copy of a per live column of b (module doc,
    Stacks): each copy is summed as it is when ``_convolves`` holds for the
    shorter length, and reduced through ``_mulmod`` first otherwise."""
    la, lb = a.shape[-1], b.shape[-1]
    reduce = not _convolves(min(la, lb), q)
    out = np.zeros((a.shape[:-1] or b.shape[:-1]) + (la + lb - 1,),
                   dtype=np.int64)
    term = np.empty(out.shape[:-1] + (la,), dtype=np.int64)
    for j in live.tolist():
        c = b[..., j:j + 1]
        out[..., j:j + la] += (_mulmod(a, c, q) if reduce
                               else np.multiply(a, c, out=term))
    return _mod(out, q, out=out)


def _copies_cost(la, lb, q):
    """Estimated ns of ``_copies`` with each copy reduced: about four numpy
    passes over the longer operand per base-2^s digit of ``_mulmod``."""
    digits = -(-(q - 1).bit_length() // (63 - (q - 1).bit_length()))
    return min(la, lb) * digits * 4 * (_CALL_NS + _ELEM_NS * max(la, lb))


def _mul(a, b, q):
    """Exact product mod q of two canonical residue arrays, canonical and
    untrimmed; empty when a factor is (module doc, Products). On a stack
    (either operand 2-D) the product runs row by row (module doc, Stacks)."""
    la, lb = a.shape[-1], b.shape[-1]
    if not la or not lb:
        return a[..., :0]
    short = min(la, lb)
    if a.ndim > 1 or b.ndim > 1:
        x, y, live = _fewer_live(a, b)
        if _convolves(short, q) and len(live) <= _STACK_COPIES:
            return _copies(x, y, live, q)
        return _fft_mul(a, b, q)
    if q < _WORD_Q and max(la, lb) > _SHORT_LEN:
        dense = _dense_cost(la, lb, q, a is b)
        if dense > _PLAN_NS:
            cost, run = _structured(a, b, q, dense)
            if cost < dense:
                return run()
    if _convolves(short, q):
        return _mod(np.convolve(a, b), q)
    if (short <= _SHORT_LEN and short * q < 2 ** 63
            and _copies_cost(la, lb, q) < _dense_cost(la, lb, q, a is b)):
        return _copies(*_fewer_live(a, b), q)
    return _fft_mul(a, b, q)


def _series_inverse(r, n, q, h):
    """r^-1 mod x^n for r[0] = 1, extending h = r^-1 mod x^len(h).

    With r h = 1 + E x^k, Newton's h (2 - r h) is h - h E x^k, so up to
    x^m, m <= 2k, the low k terms stay and the next m - k are -(h E).
    """
    while h.shape[-1] < n:
        k = h.shape[-1]
        m = min(2 * k, n)
        err = _mul(r[..., :m], h, q)[..., k:m]
        out = _zeros(h.shape[:-1] + (m,), q)
        out[..., :k] = h
        corr = _mul(h[..., :m - k], err, q)[..., :m - k]
        out[..., k:k + corr.shape[-1]] = -corr % q
        h = out
    return h


class UPoly:
    __slots__ = ("coeffs", "pm", "_powers", "_inverse")

    def __init__(self, coeffs, pm):
        self.coeffs = _trim(_residues(coeffs, pm.q))
        self.pm = pm
        self._powers = None
        self._inverse = None  # rev(self)^-1 mod x^len, for divmod_monic

    @classmethod
    def _wrap(cls, arr, pm):
        """A UPoly over residues already canonical, as int64."""
        obj = cls.__new__(cls)
        obj.coeffs = _trim(arr)
        obj.pm = pm
        obj._powers = None
        obj._inverse = None
        return obj

    @classmethod
    def zero(cls, pm):
        return cls([], pm)

    @classmethod
    def const(cls, c, pm):
        return cls.monomial(c, 0, pm)

    @classmethod
    def monomial(cls, c, d, pm):
        """c x^d; a per-row array c gives a stack."""
        c = _residue(c, pm.q)
        out = _zeros(getattr(c, "shape", ()) + (d + 1,), pm.q)
        out[..., d] = c
        return cls._wrap(out, pm)

    @classmethod
    def x_cubic(cls, a, b, pm):
        """f(x) = x^3 + a x + b; per-row arrays a, b give a stack."""
        a = _residue(a, pm.q)
        out = _zeros(getattr(a, "shape", ()) + (4,), pm.q)
        out[..., 0], out[..., 1], out[..., 3] = _residue(b, pm.q), a, 1
        return cls._wrap(out, pm)

    def memoize_powers(self):
        """Make ``self ** n`` keep each result on this object; returns self.

        The owner of the object (a CurveContext) bounds the memo's lifetime.
        Results are shared, which is safe because coefficient arrays are
        read-only.
        """
        if self._powers is None:
            self._powers = {}
        return self

    def degree(self):
        """The degree; on a stack, the largest over its rows."""
        return self.coeffs.shape[-1] - 1

    def is_zero(self):
        """Is the polynomial, or every row of a stack, zero?"""
        return self.coeffs.shape[-1] == 0

    def coeff(self, d):
        """The x^d coefficient as an int; on a stack, the column of it."""
        c = self.coeffs
        if not 0 <= d < c.shape[-1]:
            return 0
        return c[:, d] if c.ndim > 1 else int(c[d])

    def _check(self, other):
        if self.pm != other.pm:
            raise ModulusMismatch("mixed moduli %r / %r" % (self.pm, other.pm))

    def __eq__(self, other):
        return (isinstance(other, UPoly) and self.pm == other.pm
                and np.array_equal(self.coeffs, other.coeffs))

    def equal_rows(self, other):
        """Per-row equality: a bool for two polynomials, one bool per row
        when either side is a stack (a polynomial stands for every row)."""
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if a.ndim == b.ndim == 1:  # both trimmed
            return np.array_equal(a, b)
        if a.shape[-1] < b.shape[-1]:
            a, b = b, a
        n = b.shape[-1]
        same = (a[..., :n] == b).all(axis=-1) & ~a[..., n:].any(axis=-1)
        return same if same.ndim else bool(same)

    def _addsub(self, other, sign):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        la, lb = a.shape[-1], b.shape[-1]
        out = _zeros((a.shape[:-1] or b.shape[:-1]) + (max(la, lb),),
                     self.pm.q)
        out[..., :la] = a
        if sign > 0:
            out[..., :lb] += b
        else:
            out[..., :lb] -= b
        return UPoly._wrap(_mod(out, self.pm.q, out=out), self.pm)

    def __add__(self, other):
        return self._addsub(other, 1)

    def __sub__(self, other):
        return self._addsub(other, -1)

    def __neg__(self):
        return UPoly._wrap(-self.coeffs % self.pm.q, self.pm)

    def scale(self, c):
        """c self, for an int c or, on a stack, a per-row array c."""
        q = self.pm.q
        c = (c % q)[..., None] if isinstance(c, np.ndarray) else int(c) % q
        return UPoly._wrap(_mulmod(self.coeffs, c, q), self.pm)

    def __mul__(self, other):
        self._check(other)
        return UPoly._wrap(_mul(self.coeffs, other.coeffs, self.pm.q),
                           self.pm)

    def __pow__(self, n):
        """self^n from the largest stored power self^k when k >= n/2, as
        self^k * self^(n-k); otherwise self^(n-1) * self for odd n and
        (self^(n/2))^2 for even n. Every smaller power goes through ``**``,
        so on a memoized base all powers share the stored ones, and a new
        exponent near an old one, such as (p-1)/2 + 2p next to p, costs a
        few products rather than a fresh squaring chain. self^1 is self
        and is not stored, which keeps the memo free of a reference cycle."""
        if n < 0:
            raise NegativeExponent("UPoly ** %d" % n)
        memo = self._powers
        if memo is not None and n in memo:
            return memo[n]
        if n <= 1:
            return self if n == 1 else UPoly.const(1, self.pm)
        stored = max([e for e in memo if e < n], default=0) if memo else 0
        if 2 * stored >= n:
            result = memo[stored] * self ** (n - stored)
        elif n & 1:
            result = self ** (n - 1) * self
        else:
            half = self ** (n // 2)
            result = half * half
        if memo is not None:
            memo[n] = result
        return result

    def derivative(self):
        c = self.coeffs
        q = self.pm.q
        idx = np.arange(1, c.shape[-1], dtype=np.int64) % q
        return UPoly._wrap(_mulmod(c[..., 1:], idx, q), self.pm)

    def compose_xp(self):
        """Substitute x -> x^p."""
        p = self.pm.p
        c = self.coeffs
        out = _zeros(c.shape[:-1] + (p * self.degree() + 1
                                     if c.shape[-1] else 0,), self.pm.q)
        out[..., ::p] = c
        return UPoly._wrap(out, self.pm)

    def antiderivative(self):
        """The W with dW/dx = self and W(0) = 0.

        A monomial c*x^(sp-1) needs p | c; the p cancels against the p in
        sp = p*s and the result coefficient is (c/p) * s^{-1} * x^{sp}.
        Everything else divides by degree+1, a unit (``unit_inverses``).
        Only the live columns are divided, so a zero coefficient asks
        nothing.
        """
        p, q = self.pm.p, self.pm.q
        c = self.coeffs
        idx = _live(c)
        vals = np.take(c, idx, axis=-1)
        deg1 = idx + 1
        special = deg1 % p == 0
        bad = special & (vals % p != 0)
        if bad.any():
            raise NotIntegrable(int(deg1[_live(bad)[0]]) // p)
        den = np.where(special, deg1 // p, deg1)
        num = np.where(special, vals // p, vals)
        if (den % p == 0).any():
            s = int(den[den % p == 0][0])
            raise NotIntegrable(s, "x^(%d*p-1): s is divisible by p, so the "
                                   "coefficient needs p^2" % s)
        out = _zeros(c.shape[:-1] + (c.shape[-1] + 1,), q)
        out[..., deg1] = _mulmod(num, unit_inverses(den % q, self.pm), q)
        return UPoly._wrap(out, self.pm)

    def evaluate(self, x0):
        q = self.pm.q
        acc = 0
        for c in reversed(self.coeffs.tolist()):
            acc = (acc * x0 + c) % q
        return acc

    def reduce_to(self, m):
        """Drop precision to p^m."""
        return UPoly(self.coeffs, self.pm.drop(m))

    def lift_to(self, pm):
        """Reinterpret representatives at higher precision (caller guarantees
        any ambiguity mod p^m is harmless, e.g. behind an explicit p factor)."""
        return UPoly(self.coeffs, pm)

    def times_p_to(self, pm):
        """p^j self over pm = p^(m+j), j >= 0. Exact for any representatives
        of self mod p^m, since p^j absorbs their ambiguity, and canonical
        without a reduction, since p^j c < p^(m+j) for c < p^m."""
        out = _zeros(self.coeffs.shape, pm.q)
        np.multiply(self.coeffs, pm.p ** (pm.m - self.pm.m), out=out)
        return UPoly._wrap(out, pm)

    def divexact_p(self):
        """Exact division by p, dropping one digit of precision."""
        p = self.pm.p
        c = self.coeffs
        quo, rem = np.divmod(c, p)
        if rem.any():
            bad = int(c.ravel()[np.flatnonzero(rem)[0]])
            raise NotDivisible("coefficient %d not divisible by %d" % (bad, p))
        # c < p^m, so the quotient is a canonical residue mod p^(m-1)
        return UPoly._wrap(quo, self.pm.drop(self.pm.m - 1))

    def divmod_monic(self, g):
        """divmod by a monic polynomial through rev(g)^-1, which is kept on
        g (module doc, Division)."""
        self._check(g)
        if g.is_zero() or np.count_nonzero(g.coeffs[..., -1] != 1):
            raise NotMonic("divisor %r is not monic" % (g,))
        q, d, c = self.pm.q, g.degree(), self.coeffs
        n = c.shape[-1] - d
        if n <= 0:
            return UPoly.zero(self.pm), self
        inv, rev = g._inverse, g.coeffs[..., ::-1]
        if inv is None or inv.shape[-1] < n:
            # rev[:1] = [1] is the inverse mod x, where Newton starts
            inv = g._inverse = _series_inverse(
                rev, n, q, rev[..., :1] if inv is None else inv)
            inv.flags.writeable = False
        quo = _mul(c[..., d:][..., ::-1], inv[..., :n],
                   q)[..., n - 1::-1].copy()
        rem = (c[..., :d] - _mul(g.coeffs[..., :d], quo[..., :d],
                                 q)[..., :d]) % q
        return UPoly._wrap(quo, self.pm), UPoly._wrap(rem, self.pm)

    def to_json(self):
        return [str(c) for c in self.coeffs.tolist()]

    def __repr__(self):
        return "UPoly(%r mod %d^%d)" % (self.coeffs.tolist(), self.pm.p,
                                        self.pm.m)


class FracPoly:
    """N(x) / f(x)^e over Z/p^m; the curve-side localization S[x]_f.

    f is monic, hence a nonzerodivisor, so equality after clearing a common
    f-power is honest equality in the localization.
    """

    __slots__ = ("num", "fexp", "f")

    def __init__(self, num, fexp, f):
        self.num = num
        self.fexp = fexp
        self.f = f

    @property
    def pm(self):
        return self.num.pm

    def _same_f(self, other):
        if self.f is not other.f and self.f != other.f:
            raise DenominatorMismatch("fractions over different f")

    def _align(self, other):
        self._same_f(other)
        e = max(self.fexp, other.fexp)
        a, b = self.num, other.num
        if e > self.fexp:
            a = a * self.f ** (e - self.fexp)
        if e > other.fexp:
            b = b * other.f ** (e - other.fexp)
        return a, b, e

    def __add__(self, other):
        a, b, e = self._align(other)
        return FracPoly(a + b, e, self.f)

    def __sub__(self, other):
        a, b, e = self._align(other)
        return FracPoly(a - b, e, self.f)

    def __mul__(self, other):
        if isinstance(other, UPoly):
            return FracPoly(self.num * other, self.fexp, self.f)
        self._same_f(other)
        return FracPoly(self.num * other.num, self.fexp + other.fexp, self.f)

    def scale(self, c):
        return FracPoly(self.num.scale(c), self.fexp, self.f)

    def derivative(self):
        """d/dx of N/f^e = (N' f - e N f') / f^(e+1)."""
        if self.fexp == 0:
            return FracPoly(self.num.derivative(), 0, self.f)
        n = self.num.derivative() * self.f - (self.num * self.f.derivative()).scale(self.fexp)
        return FracPoly(n, self.fexp + 1, self.f)

    def __eq__(self, other):
        """Equality in the localization: a bool, or one per row on a
        stack (``UPoly.equal_rows``)."""
        a, b, _ = self._align(other)
        return a.equal_rows(b)

    def is_zero(self):
        return self.num.is_zero()

    def __repr__(self):
        return "FracPoly(%r / f^%d)" % (self.num, self.fexp)
