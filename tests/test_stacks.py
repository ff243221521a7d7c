"""UPoly stacks, (B, n) coefficient arrays with one polynomial per row, and
the mod-p checks on a stack of pairs, against the same operations applied
row by row on 1-D UPolys and pair by pair."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ellfrob.liftp as liftp
from ellfrob import upoly
from ellfrob.errors import (NotDivisible, NotIntegrable, NotOrdinary,
                            NotStabilized, SingularPair, SingularSystem)
from ellfrob.liftp import (CurveContext, _solve3, build_lift_mod_p,
                           eigen_forcing_check, extendability_certificate,
                           lie_verify_commutator, mu_correct)
from ellfrob.liftp2 import (_solve_b0, d_values, solve_eigen_numeric,
                            solve_truncated, sources, stabilization_check)
from ellfrob.residue import PrimePower, delta_scalar
from ellfrob.upoly import FracPoly, UPoly
from ellfrob.verify import verify_pair

# q from 29 up to the largest stored modulus, (2^31 - 1)^2; 1291^3 and
# 13^16 are past the 2^31 word, where a stack product takes the FFT lane
MODULI = [PrimePower(29, 1), PrimePower(29, 2), PrimePower(211, 3),
          PrimePower(1291, 3), PrimePower(13, 16), PrimePower(2 ** 31 - 1, 2)]


def draw(rng, q, n, extreme):
    """n residues; with extreme, half of them the largest balanced residues
    (q - 1)/2 and (q + 1)/2, or q - 1."""
    pool = [(q - 1) // 2, (q + 1) // 2, q - 1]
    return [rng.choice(pool) if extreme and rng.random() < 0.5
            else rng.randrange(q) for _ in range(n)]


def stack(rows, pm):
    return UPoly(np.array(rows, dtype=np.int64), pm)


def rows_of(x, count):
    """The rows of a stack as trimmed lists; a 1-D UPoly stands for every
    row."""
    c = x.coeffs
    out = c.tolist() if c.ndim > 1 else [c.tolist()] * count
    for row in out:
        while row and row[-1] == 0:
            row.pop()
    return out


def monic(rng, q, length, extreme):
    return draw(rng, q, length - 1, extreme) + [1]


@settings(max_examples=40, deadline=None)
@given(pm=st.sampled_from(MODULI), count=st.integers(1, 5),
       la=st.integers(1, 300), lb=st.integers(1, 300),
       flat=st.sampled_from(["neither", "left", "right"]),
       extreme=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
# the copies lane (few live columns) and the FFT lane below _SHORT_LEN; a
# shorter operand past _SHORT_LEN at a small q; the FFT lane past the word
# with the largest balanced residues; and a 1-D operand against a stack on
# either side
@example(pm=PrimePower(29, 1), count=3, la=60, lb=5, flat="neither",
         extreme=False, seed=1)
@example(pm=PrimePower(29, 1), count=3, la=60, lb=40, flat="neither",
         extreme=False, seed=1)
@example(pm=PrimePower(29, 2), count=2, la=300, lb=upoly._SHORT_LEN + 1,
         flat="neither", extreme=True, seed=2)
@example(pm=PrimePower(2 ** 31 - 1, 2), count=5, la=50, lb=30,
         flat="neither", extreme=True, seed=3)
@example(pm=PrimePower(211, 3), count=4, la=200, lb=5, flat="left",
         extreme=False, seed=4)
@example(pm=PrimePower(1291, 3), count=2, la=3, lb=150, flat="right",
         extreme=True, seed=5)
@example(pm=PrimePower(13, 16), count=1, la=170, lb=1, flat="neither",
         extreme=False, seed=0)  # an antiderivative that needs p^2
def test_stack_ops_match_rows(pm, count, la, lb, flat, extreme, seed):
    rng = random.Random(seed)
    q = pm.q
    a_rows = [draw(rng, q, la, extreme) for _ in range(count)]
    b_rows = [draw(rng, q, lb, extreme) for _ in range(count)]
    g_rows = [monic(rng, q, lb, extreme) for _ in range(count)]
    if flat == "left":
        a_rows = [a_rows[0]] * count
    if flat == "right":
        b_rows, g_rows = [b_rows[0]] * count, [g_rows[0]] * count
    x = stack(a_rows, pm) if flat != "left" else UPoly(a_rows[0], pm)
    y = stack(b_rows, pm) if flat != "right" else UPoly(b_rows[0], pm)
    g = stack(g_rows, pm) if flat != "right" else UPoly(g_rows[0], pm)
    xs = [UPoly(r, pm) for r in a_rows]
    ys = [UPoly(r, pm) for r in b_rows]
    gs = [UPoly(r, pm) for r in g_rows]

    def same(got, want):
        assert got.pm == want[0].pm
        assert rows_of(got, count) == [w.coeffs.tolist() for w in want]

    same(x * y, [u * v for u, v in zip(xs, ys)])
    same(y * y, [v * v for v in ys])
    cs = np.array([rng.randrange(q) for _ in range(count)], dtype=np.int64)
    same(y.scale(cs), [v.scale(int(c)) for v, c in zip(ys, cs)])
    same(x.derivative(), [u.derivative() for u in xs])
    try:  # past x^(p^2 - 1) the antiderivative may need p^2: it refuses
        want = [u.derivative().antiderivative() for u in xs]
    except NotIntegrable:
        with pytest.raises(NotIntegrable):
            x.derivative().antiderivative()
    else:
        same(x.derivative().antiderivative(), want)
    quo, rem = x.divmod_monic(g)
    want = [u.divmod_monic(v) for u, v in zip(xs, gs)]
    same(quo, [w[0] for w in want])
    same(rem, [w[1] for w in want])
    if pm.p * la <= 10 ** 6:
        same(x.compose_xp(), [u.compose_xp() for u in xs])
    if pm.m > 1:
        low = pm.drop(pm.m - 1)
        z = UPoly(np.array(a_rows, dtype=np.int64), low).times_p_to(pm)
        same(z.divexact_p(), [UPoly(r, low) for r in a_rows])
    padded = [r + [0] * (la + lb - len(r))
              for r in ((u * v).coeffs.tolist() for u, v in zip(xs, ys))]
    assert np.all((x * y).equal_rows(stack(padded, pm)))


@pytest.mark.parametrize("pm, la, lb, lane", [
    (PrimePower(29, 2), 90, upoly._COPIES, "_copies"),
    (PrimePower(29, 2), 90, upoly._COPIES + 1, "_fft_mul"),
    (PrimePower(29, 2), 300, upoly._SHORT_LEN + 1, "_fft_mul"),
    (PrimePower(1291, 3), 20, 4, "_copies"),
])
def test_stack_product_lane(monkeypatch, pm, la, lb, lane):
    """Copies when an operand has at most _COPIES live columns, at any
    modulus (at 1291^3 each copy is reduced first), the FFT along the last
    axis otherwise; never np.convolve or the structured lane. Either way
    the stack equals each row's product."""
    runs = []
    real = getattr(upoly, lane)
    monkeypatch.setattr(upoly, lane,
                        lambda a, *rest: runs.append(a.ndim) or real(a, *rest))
    rng = random.Random(la)
    xs = [draw(rng, pm.q, la, True) for _ in range(3)]
    ys = [draw(rng, pm.q, lb, True) for _ in range(3)]
    got = stack(xs, pm) * stack(ys, pm)
    assert got.coeffs.shape[0] == 3
    assert runs == [2]
    for row, u, v in zip(rows_of(got, 3), xs, ys):
        want = (np.convolve(np.array(u, dtype=object),
                            np.array(v, dtype=object)) % pm.q).tolist()
        assert row == want[:len(row)] and not any(want[len(row):])


def test_equal_rows_gives_one_verdict_per_row():
    pm = PrimePower(13, 1)
    x = stack([[1, 2, 3], [1, 2, 0], [0, 0, 0]], pm)
    assert x.equal_rows(UPoly([1, 2], pm)).tolist() == [False, True, False]
    assert x.equal_rows(UPoly.zero(pm)).tolist() == [False, False, True]
    assert x.coeffs.shape == (3, 3) and x.degree() == 2
    assert UPoly([1, 2], pm).equal_rows(UPoly([1, 2, 0], pm)) is True
    assert (x == x) is True and x.coeff(1).tolist() == [2, 2, 0]
    f = UPoly.x_cubic(np.array([1, 2, 3]), np.array([4, 5, 6]), pm)
    assert (FracPoly(x, 0, f) == FracPoly(x, 0, f)).tolist() == [True] * 3


def eligible(p):
    rows = []
    for a in range(p):
        for b in range(p):
            try:
                rows.append((a, b, verify_pair(p, a, b, 1)))
            except (SingularPair, NotOrdinary):
                continue
    return rows


@pytest.mark.parametrize("p", [11, 23])
def test_mod_p_checks_on_a_stack_match_each_pair(p):
    """Every mod-p step on a stack of all eligible pairs gives, row by row,
    the verdicts and eigenvalue of the same step on one pair."""
    pairs = eligible(p)
    a = np.array([x for x, _, _ in pairs])
    b = np.array([y for _, y, _ in pairs])
    ctx = CurveContext(a, b, PrimePower(p, 1))
    lift = build_lift_mod_p(ctx)
    mu, corrected = mu_correct(ctx, lift)
    extendable, _ = extendability_certificate(ctx, corrected)
    lie = lie_verify_commutator(corrected, 1)
    eigen = eigen_forcing_check(corrected)
    for i, (x, y, row) in enumerate(pairs):
        one = CurveContext(x, y, PrimePower(p, 1))
        mu1, _ = mu_correct(one, build_lift_mod_p(one))
        assert [int(m[i]) for m in mu] == mu1
        assert int(corrected.lam[i]) == row["lambda"]
        assert bool(extendable[i]) is row["extendable"] is True
        assert bool(lie[i] & eigen[i]) is row["verified"] is True


def test_stack_refusals_name_the_first_pair():
    pm = PrimePower(13, 1)
    with pytest.raises(SingularPair, match=r"Delta\(0, 0\)"):
        CurveContext(np.array([1, 0, 0]), np.array([1, 0, 13]), pm)


def test_cramer_solve_on_a_stack():
    """Row by row the solution of one system; a singular row raises."""
    p, rows = 13, 6
    rng = random.Random(3)
    systems = []
    while len(systems) < rows:
        one = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        try:
            _solve3(one, [0, 0, 0], p)
        except SingularSystem:
            continue
        systems.append((one, [rng.randrange(p) for _ in range(3)]))
    cols = [[np.array([one[j][i] for one, _ in systems]) for i in range(3)]
            for j in range(3)]
    rhs = [np.array([v[i] for _, v in systems]) for i in range(3)]
    mu = _solve3(cols, rhs, p)
    for r, (one, v) in enumerate(systems):
        got = [int(m[r]) for m in mu]
        assert got == _solve3(one, v, p)
        for i in range(3):
            assert sum(one[j][i] * got[j] for j in range(3)) % p == v[i]
    cols[2] = [c.copy() for c in cols[1]]
    with pytest.raises(SingularSystem):
        _solve3(cols, rhs, p)


def test_commutator_verdict_is_the_and_of_both_generators(monkeypatch):
    """On a stack, the verdict per row is lie_verify and y_commutator; the
    y check runs only when some row passed the x check."""
    pairs = eligible(13)[:6]
    ctx = CurveContext(np.array([x for x, _, _ in pairs]),
                       np.array([y for _, y, _ in pairs]), PrimePower(13, 1))
    _, lift = mu_correct(ctx, build_lift_mod_p(ctx))
    calls = []
    y_rows = np.array([True, False, True, True, False, True])
    monkeypatch.setattr(liftp, "y_commutator",
                        lambda lift, m: calls.append(m) or y_rows)
    assert lie_verify_commutator(lift, 1).tolist() == y_rows.tolist()
    monkeypatch.setattr(liftp, "lie_verify",
                        lambda lift, m: np.zeros(6, dtype=bool))
    assert lie_verify_commutator(lift, 1).tolist() == [False] * 6
    assert calls == [1]


# a prime just under the int64 bound of a stack (verify module doc, Stacks):
# 7 p^5, the largest value of a mod-p stack, stays below 2^63 through p = 4201
TOP_P = 4093


def row_ints(values, i):
    """Row i of a list of per-row arrays and ints, as Python ints."""
    return [int(v[i]) if isinstance(v, np.ndarray) else v for v in values]


def test_row_solve_on_a_stack_at_the_largest_stacked_prime():
    """The source list and the mod-p row solve on rows of residues p - 1
    (and one row of others), through its longest truncation p - 1, equal
    the same on each row's Python ints: no int64 step overflows."""
    p, rng = TOP_P, random.Random(11)

    def col():
        return np.array([p - 1, p - 1, rng.randrange(1, p)], dtype=np.int64)

    u, v_unit, theta, da, db, v0 = (col() for _ in range(6))
    d = [0] + [col() for _ in range(4)]
    src = sources(p, u, theta, da, db, d)
    vs = solve_truncated(p, u, v_unit, src, v0, p - 1)
    for i in range(3):
        one = sources(p, *row_ints((u, theta, da, db), i), row_ints(d, i))
        assert row_ints(src, i) == one
        assert row_ints(vs, i) == solve_truncated(
            p, *row_ints((u, v_unit), i), one, int(v0[i]), p - 1)


def test_b0_solve_on_a_stack_at_the_largest_stacked_prime():
    """d_values and the b0 solve on a stack of ordinary b = 0 pairs at the
    largest stacked prime, a the largest residues mod p^2 for which H is a
    unit, against each pair alone."""
    p = TOP_P
    pm = PrimePower(p, 2)
    a = list(itertools.islice((x for x in range(p * p - 1, 0, -1)
                               if x % p and CurveContext(x, 0, pm).ordinary),
                              3))
    b = [0, p, p * p - p]
    ctx = CurveContext(np.array(a), np.array(b), pm)
    d, _ = d_values(ctx)
    v0, theta, vs = _solve_b0(ctx, d)
    for i in range(3):
        one = CurveContext(a[i], b[i], pm)
        d1, _ = d_values(one)
        assert row_ints(d, i) == d1
        v01, theta1, vs1 = _solve_b0(one, d1)
        assert (int(v0[i]), int(theta[i]), row_ints(vs, i)) == (v01, theta1,
                                                                vs1)


def test_delta_scalar_on_an_array_at_the_largest_stacked_prime():
    p = TOP_P
    for m in (1, 2):
        pm = PrimePower(p, m)
        values = [0, 1, p - 1, p * p - 1, p ** 3 - 1, 2 ** 63 - 1]
        out = delta_scalar(np.array(values, dtype=np.int64), pm)
        assert out.tolist() == [delta_scalar(x, pm) for x in values]


class NotPrime:
    """A modulus that PrimePower would refuse: 9 = 3^2, for which a - a^p
    need not be divisible by p."""
    p, m = 9, 1


def test_delta_scalar_refusal_on_an_array_names_the_value():
    with pytest.raises(NotDivisible, match=r"for a = 2$"):
        delta_scalar(np.array([0, 1, 2, 3], dtype=np.int64), NotPrime)
    with pytest.raises(NotDivisible, match=r"for a = 2$"):
        delta_scalar(2, NotPrime)


def test_stabilization_check_on_a_stack_names_the_failing_row():
    """Row by row the truncation of each pair alone; a stack whose middle
    row breaks one row of its system (pivots still zero) names that
    pair."""
    p, pairs = 13, [(1, 1), (2, 3), (1, 5)]
    ctx = CurveContext(np.array([a for a, _ in pairs]),
                       np.array([b for _, b in pairs]), PrimePower(p, 2))
    d, _ = d_values(ctx)
    v0, theta, _, _ = solve_eigen_numeric(ctx, d)
    src = sources(p, ctx.a % p, theta, ctx.delta_a() % p, ctx.delta_b() % p,
                  d)
    args = (p, ctx.a % p, ctx.b % p, src)
    vs = solve_truncated(*args, v0, (p + 7) // 2)
    truncated = stabilization_check(*args, vs)
    for i in range(3):
        assert row_ints(truncated, i) == stabilization_check(
            *row_ints(args[:3], i), row_ints(src, i), row_ints(vs, i))
    bad = vs[:3] + [(vs[3] + np.array([0, 1, 0])) % p] + vs[4:]
    with pytest.raises(NotStabilized, match=r"row fails .* \(2, 3\) mod 13"):
        stabilization_check(*args, bad)
