"""Mod-p^2 Lie invariant lifts: the linear system in the V-coefficients,
its truncation and stabilization, the 2x2 eigenvalue solve (numeric and
symbolic), and the b = 0 branch, where the rows are solved for v_(s-1).
The symbolic lane gives Theta as a quasi-linear form of weight 0 mod p
(forms.QuasiLinearForm), evaluated at a pair by forms.form_evaluate.

The lift is assembled as Z = W + V(x^p) + p U(x)/f(x)^p with eigenvalue
lambda = lambda0 (1 + p theta). The v_j and U only matter mod p: they enter
the verified congruences either multiplied by p or through d/dx, which
turns x^(jp) terms into p-multiples.

Stacks. The numeric lane also runs on a stack of pairs (liftp module doc,
Stacks), a context whose a and b are int64 arrays: d_values, the row
solves (sources, _row_rhs, solve_truncated, _solve_b0),
stabilization_check, solve_eigen_numeric, assemble_lift and
build_lift_mod_p2 then take and give per-row arrays where one pair has
ints, and an int among arrays stands for every row. Each check gives each
row its own verdict; when one fails, it raises through liftp._refuse,
which names the first failing pair (as (a, b) mod p in the row solves,
which see no more of it). A stack holds one branch: build_lift_mod_p2
takes the b0 solve when every row has b = 0 mod p, and the pivot solve
otherwise, where a row with b = 0 stops at BNotUnit. The row solves form
every product of two residues below p, reducing a row constant times a^p
before it meets v, so a row sum stays below 4 p^2, and the pivot solution
v_0 alpha + theta beta + rho below 3 p^2. The largest int64 value
of the lane is lambda0 (1 + p theta) before its reduction mod p^2, below
p^4; both are below 2^63 for every p whose p^2 a stack admits (<= 2^31).
"""

import numpy as np

from .errors import (BNotUnit, DegreeMismatch, InternalMismatch,
                     NotStabilized, PrecisionOutOfRange, PropertyViolation,
                     SigmaSingular, TOutOfRange)
from .forms import QuasiLinearForm, form_localizers, multinomial_rows
from .liftp import (CurveContext, FrobLift, _holds, _inverse, _refuse,
                    _y_poly, df_xp, k0_poly, w_poly)
from .psi import G_SOURCES, _require_pivot_prime, psi_table
from .residue import PrimePower, inv_mod
from .upoly import FracPoly, UPoly, _mulmod, unit_inverses
from .wpoly import LocFrac, WPoly


# ---------------------------------------------------------------- numeric lane

def d_values(ctx):
    """The x^(sp-1) coefficients d_1..d_4 of
    D = (lambda0/2) f^((p-1)/2) (K0 + (3x^(2p)+a^p) W0), all mod p,
    together with W0. deg D <= 5p-2 forces d_s = 0 for s >= 5.
    ctx.lambda0 refuses a pair that is not ordinary."""
    p = ctx.p
    lam0 = ctx.lambda0 % p
    fh = ctx.f_at(1) ** ((p - 1) // 2)
    w0 = w_poly(ctx, 1, lam0)
    dpoly = (fh * (k0_poly(ctx, 1) + df_xp(ctx, 1) * w0)) \
        .scale(lam0 * inv_mod(2, p))
    _refuse(~dpoly.coeffs[..., 5 * p - 1:].any(axis=-1), ctx.a, ctx.b,
            DegreeMismatch, "deg D exceeds 5p-2 at (%d, %d) mod %d", p)
    return [0] + [dpoly.coeff(s * p - 1) for s in range(1, 5)], w0


def sources(p, u, theta, da, db, d):
    """The inhomogeneous terms c_s + d_s + e_s + f_s of rows s = 0..4 mod p
    (row 0 has none, nor has any row past 4): delta(b)/2 at row 1,
    (a^p theta + delta(a))/2 at row 2 and 3 theta/2 at row 4, plus d_s
    from the list d (d_values), taken as 0 past its end."""
    inv2 = inv_mod(2, p)
    extra = [0, db * inv2, (u * theta + da) % p * inv2, 0, 3 * theta * inv2]
    return [((d[s] if s < len(d) else 0) + extra[s]) % p for s in range(5)]


def _row_rhs(s, p, u, src, vs):
    """(3/2-s) a^p v_(s-1) + (9/2-s) v_(s-3) + src[s], with v beyond the
    list and src beyond its end taken to be 0."""
    inv2 = inv_mod(2, p)

    def v(i):
        return vs[i] if 0 <= i < len(vs) else 0

    t = ((3 - 2 * s) * inv2 % p * u % p * v(s - 1)
         + (9 - 2 * s) * inv2 % p * v(s - 3))
    return (t + (src[s] if s < len(src) else 0)) % p


def solve_truncated(p, u, v_unit, src, v0, t_max):
    """The unique mod-p solution v_0..v_T of the first T rows
    s b^p v_s = (3/2-s) a^p v_(s-1) + (9/2-s) v_(s-3) + src[s], for b a
    unit, 1 <= T <= p-1 and src a ``sources`` list."""
    _refuse(v_unit % p != 0, u, v_unit, BNotUnit,
            "b = 0 at (a, b) = (%d, %d) mod %d: rows cannot be solved for v_s",
            p)
    if not 1 <= t_max <= p - 1:
        raise TOutOfRange("truncation %d outside [1, %d]" % (t_max, p - 1))
    inv_v = _inverse(v_unit % p, PrimePower(p, 1))
    vs = [v0 % p]
    for s in range(1, t_max + 1):
        rhs = _row_rhs(s, p, u, src, vs)
        vs.append(rhs * inv_mod(s, p) % p * inv_v % p)
    return vs


def stabilization_check(p, u, v_unit, src, vs):
    """Require the two pivots v_((p+5)/2), v_((p+7)/2) to vanish, truncate
    at (p+3)/2, and re-verify every row up to s = (p+13)/2 against the
    truncated solution (rows beyond that have all terms identically 0)."""
    piv = (p + 5) // 2
    _refuse((vs[piv] % p == 0) & (vs[piv + 1] % p == 0), u, v_unit,
            NotStabilized, "pivots v_%d, v_%d do not vanish at (a, b) = "
            "(%%d, %%d) mod %%d" % (piv, piv + 1), p)
    truncated = vs[:(p + 3) // 2 + 1]
    ok = True
    for s in range(1, (p + 13) // 2 + 1):
        lhs = s * v_unit % p * (truncated[s] if s < len(truncated) else 0) % p
        ok = ok & (lhs == _row_rhs(s, p, u, src, truncated))
    _refuse(ok, u, v_unit, NotStabilized,
            "a row fails after truncation at (a, b) = (%d, %d) mod %d", p)
    return truncated


def solve_eigen_numeric(ctx, d=None):
    """(v0, theta, det, vs): theta and v_0 forcing the two pivot
    coefficients to vanish, the pivot determinant, and the solution
    v_0..v_T, T = (p+7)/2. d is the d_values list, computed here when not
    given.

    v_n is affine in (v_0, theta): run the indicator streams alpha (v_0=1),
    beta (theta=1) and the inhomogeneous stream rho to row T, then solve the
    2x2 system at rows (p+5)/2, (p+7)/2. A vanishing determinant means the
    pair is sigma-singular for this construction. The solution is then
    v_0 alpha + theta beta + rho, row by row, with no fourth stream. The
    rows past p - 1 do not exist, so p < 11 is refused (PrimeTooSmall), as
    the symbolic pivot system refuses it.
    """
    _require_pivot_prime(ctx.p)
    if d is None:
        d, _ = d_values(ctx)
    p = ctx.p
    u, v_unit = ctx.a % p, ctx.b % p  # a^p = a mod p
    m_piv = (p + 5) // 2
    t_max = m_piv + 1
    alpha = solve_truncated(p, u, v_unit, [], 1, t_max)
    beta = solve_truncated(p, u, v_unit, sources(p, u, 1, 0, 0, []), 0, t_max)
    rho = solve_truncated(p, u, v_unit, sources(
        p, u, 0, ctx.da % p, ctx.db % p, d), 0, t_max)
    det = (alpha[m_piv] * beta[m_piv + 1]
           - alpha[m_piv + 1] * beta[m_piv]) % p
    _refuse(det != 0, ctx.a, ctx.b, SigmaSingular,
            "pivot determinant vanishes at (%d, %d) mod %d", p)
    det_inv = _inverse(det, PrimePower(p, 1))
    v0 = ((rho[m_piv + 1] * beta[m_piv] - rho[m_piv] * beta[m_piv + 1]) % p
          * det_inv % p)
    theta = ((rho[m_piv] * alpha[m_piv + 1] - rho[m_piv + 1] * alpha[m_piv])
             % p * det_inv % p)
    vs = [(v0 * x + theta * y + z) % p for x, y, z in zip(alpha, beta, rho)]
    return v0, theta, det, vs


def _solve_b0(ctx, d):
    """b = 0 mod p (so p = 1 mod 4 for an ordinary pair): rows become
    (s - 3/2) a^p v_(s-1) = (9/2-s) v_(s-3) + sources and are solved forward
    for v_(s-1); theta = -delta(a)/(4 a^p) - (alpha_2 + alpha_4)/2 where
    d_2 = alpha_2 a^p and d_4 = alpha_4. The single row s = (p+3)/2 with
    vanishing leading coefficient takes v_((p+1)/2) = 0 and must hold on
    its own."""
    p = ctx.p
    u = ctx.a % p  # a^p = a mod p, a unit as b = 0
    inv_u = _inverse(u, PrimePower(p, 1))
    inv2 = inv_mod(2, p)
    alpha2 = d[2] * inv_u % p
    alpha4 = d[4] % p
    alpha = (alpha2 + alpha4) * inv2 % p
    da, db = ctx.da % p, ctx.db % p
    theta = (-da * inv_u % p * inv_mod(4, p) - alpha) % p
    src = sources(p, u, theta, da, db, d)

    s_special = (p + 3) // 2
    vs = []
    for s in range(1, (p + 9) // 2 + 1):
        # v_(s-1) is not in vs yet, so _row_rhs drops its term
        rhs = _row_rhs(s, p, u, src, vs)
        if s == s_special:
            _refuse(rhs == 0, ctx.a, ctx.b, InternalMismatch,
                    "degenerate row %d fails at (%%d, %%d) mod %%d" % s, p)
            vs.append(0)
        else:
            # the leading coefficient is (2s - 3)/2 a^p
            lead_inv = inv_mod((2 * s - 3) * inv2, p)
            vs.append(rhs * lead_inv % p * inv_u % p)
    return vs[0], theta, vs


def branch_constants(p):
    """The universal scalars of the special-class eigenvalue formulas:
    beta_1, beta_4 and beta = (beta_1 + 2 beta_4)/3 read off d at (0, 1)
    when p = 1 mod 3, and alpha_2, alpha_4 and alpha = (alpha_2 + alpha_4)/2
    read off d at (1, 0) when p = 1 mod 4."""
    out = {}
    if p % 3 == 1:
        d, _ = d_values(CurveContext(0, 1, PrimePower(p, 1)))
        out.update(beta_1=d[1], beta_4=d[4],
                   beta=(d[1] + 2 * d[4]) * inv_mod(3, p) % p)
    if p % 4 == 1:
        d, _ = d_values(CurveContext(1, 0, PrimePower(p, 1)))
        out.update(alpha_2=d[2], alpha_4=d[4],
                   alpha=(d[2] + d[4]) * inv_mod(2, p) % p)
    return out


def assemble_lift(ctx, theta, vs, w0):
    """Build Z = W + V(x^p) + p U/f^p and lambda = lambda0 (1 + p theta)
    mod p^2 from a stabilized solution and the W0 of d_values.
    Integrability of dU/dx is exactly the row system, so the antiderivative
    call doubles as a check."""
    p = ctx.p
    pm1, pm2 = PrimePower(p, 1), PrimePower(p, 2)
    lam = ctx.lambda0 * (1 + p * theta) % pm2.q
    f2 = ctx.f_at(2)
    w = w_poly(ctx, 2, lam)

    f1 = ctx.f_at(1)
    fh1 = f1 ** ((p - 1) // 2)
    half = ctx.lambda0 * inv_mod(2, p) % p
    v_poly = UPoly(np.stack(np.broadcast_arrays(*vs), axis=-1)
                   if isinstance(ctx.a, np.ndarray) else vs, pm1)
    vxp = v_poly.compose_xp()
    # dU/dx = -x^(p-1) f^p V'(x^p) + (lambda0/2) f^((p-1)/2) Y(V(x^p) + W0
    #         + theta x^p), as K0 + delta(a) x^p + delta(b) = K mod p
    inner = _y_poly(ctx, vxp + w0 + UPoly.monomial(theta, p, pm1))
    du = ((fh1 * inner).scale(half)
          - UPoly.monomial(1, p - 1, pm1) * (f1 ** p) * v_poly.derivative().compose_xp())
    u_poly = du.antiderivative()

    num = (w + vxp.lift_to(pm2)) * (f2 ** p) + u_poly.times_p_to(pm2)
    return FrobLift(ctx, FracPoly(num, p, f2), lam)


def build_lift_mod_p2(ctx):
    """End-to-end mod-p^2 construction for an ordinary pair over Z/p^2,
    or for a stack of pairs of one branch (module doc, Stacks).

    b a unit mod p: the pivot solve, then the forward rows (labelled a0
    when a = 0 mod p, general otherwise); b = 0 mod p: the b0 solve.
    Returns (lift, info) with info holding the branch, theta, v0 and the
    v-vector: one of each per row on a stack, the branch one for all rows
    of the b0 solve.
    """
    p = ctx.p
    if ctx.pm.m < 2:
        raise PrecisionOutOfRange("mod-p^2 construction needs a precision-2 "
                                  "context, got p^%d" % ctx.pm.m)
    d, w0 = d_values(ctx)  # refuses a pair that is not ordinary
    u, v_unit = ctx.a % p, ctx.b % p  # a^p = a and b^p = b mod p
    if _holds(v_unit == 0):
        branch = "b0"
        v0, theta, vs = _solve_b0(ctx, d)
    else:
        # a stack with some b = 0 rows stops at BNotUnit in solve_truncated
        branch = (np.where(u != 0, "general", "a0")
                  if isinstance(u, np.ndarray) else "general" if u else "a0")
        v0, theta, _, vs = solve_eigen_numeric(ctx, d)
    src = sources(p, u, theta, ctx.da % p, ctx.db % p, d)
    vs = stabilization_check(p, u, v_unit, src, vs)
    lift = assemble_lift(ctx, theta, vs, w0)
    info = {"branch": branch, "theta": theta, "v0": v0, "vs": vs}
    return lift, info


# --------------------------------------------------------------- symbolic lane

def _row_product(a, b, r, p):
    """sum_dg a[dg] b[r - dg] for row tables of residues below p on the
    j-line, unreduced, entry t at z4^(r mod 3 + 3t). Row offsets dg mod 3
    and (r - dg) mod 3 add to r mod 3 plus a carry of 0 or 3, fixed on each
    class of dg mod 3: one matrix product per class, summed along
    anti-diagonals by a reshape in int64.

    The matrix products run in float64, on BLAS: numpy has no integer
    matmul kernel, and at p = 1999 one int64 product took 7.4 s, the
    float64 one 0.16 s. Exactness: a class holds at most (p + 1)/2 rows, so
    an inner sum has at most that many terms below p^2, and every partial
    sum is an integer below p^3/2 < 2^53 (for p < 2^18). Float64 adds,
    multiplies and FMAs are exact on such integers in any order and any
    blocking, so neither the BLAS kernel nor its thread count can change
    the result. Past that bound PrecisionOutOfRange is raised; no table
    that fits in memory reaches it."""
    wa, wb = a.shape[1], b.shape[1]
    acc = np.zeros((wa, wa + wb + 1), dtype=np.int64)
    lo, hi = max(0, r - len(b) + 1), min(r, len(a) - 1)
    for first in range(lo, min(lo + 3, hi + 1)):
        carry = (first % 3 + (r - first) % 3) // 3
        rows = a[first:hi + 1:3]
        if len(rows) * (p - 1) ** 2 >= 2 ** 53:
            raise PrecisionOutOfRange(
                "a row product of %d terms below %d^2 passes 2^53"
                % (len(rows), p))
        cols = b[r - first::-3][:len(rows)]
        acc[:, carry:carry + wb] += (rows.T.astype(np.float64)
                                     @ cols.astype(np.float64)
                                     ).astype(np.int64)
    return acc.ravel()[:wa * (wa + wb)].reshape(wa, wa + wb).sum(axis=0)


def sym_d_values(p, locs):
    """Symbolic d_1..d_4 over the fixed denominator H^2, weighted
    homogeneous of degree (8-2s)p, with d_5 checked to vanish.

    With lambda0 = 1/H and n = (p-1)/2, 2 H^2 d_s = [f^n (H K0 + (3x^(2p)
    + z4^p) H W0)]_(sp-1). Both tables are forms.multinomial_rows mod p, on
    every row: f^n holds n!/(i! j! k!) (n < p), the rows times n!, and
    K0 = (x^(3p) + z4^p x^p + z6^p - f^p)/p holds -(p-1)!/(i! j! k!) =
    1/(i! j! k!) (Wilson), the rows at n = p, 0 at the three corners. H is
    row p-1 of f^n, so H W0, the antiderivative of f^n - H x^(p-1), is row
    dg of f^n over dg + 1 at x^(dg+1); row p-1 is dropped, as the inverse
    of dg + 1 = p is 0^(p-2) = 0. A row product entry sums (3n+1)(n/3+1) <
    p^2 products below p^2, exact in int64 far past any p whose tables fit;
    ``_row_product`` forms them in float64 under its own bound.
    """
    pm, n = locs.pm, (p - 1) // 2
    fh = _mulmod(*multinomial_rows(n, pm, range(3 * n + 1)), p)  # times n!
    k0 = multinomial_rows(p, pm, range(3 * p + 1))[0]
    hw0 = fh * unit_inverses(np.arange(1, 3 * n + 2) % p, pm)[:, None] % p
    # [f^n K0]_(sp-1) and [f^n H W0]_(sp-1) (s <= 0: zero), x of weight 2
    fk0 = {s: WPoly.from_coeffs(6 * n + 6 * p + 2 - 2 * s * p, (s * p - 1) % 3,
                                _row_product(fh, k0, s * p - 1, p), pm)
           for s in range(1, 6)}
    fhw0 = {s: WPoly.from_coeffs(12 * n + 4 - 2 * s * p, (s * p - 2) % 3,
                                 _row_product(fh, hw0, s * p - 2, p), pm)
            for s in range(-1, 6)}
    z4p = WPoly.monomial(1, p, 0, pm)
    ds = [None] + [LocFrac((locs.polys["H"] * fk0[s] + z4p * fhw0[s]
                            + fhw0[s - 2].scale(3)).scale(inv_mod(2, p)),
                           {"H": 2}, locs) for s in range(1, 6)]
    if not ds[5].is_zero():
        raise InternalMismatch("d_5 does not vanish symbolically")
    for s in range(1, 5):
        wd = ds[s].weighted_degree()
        if wd is not None and wd != (8 - 2 * s) * p:
            raise PropertyViolation("d_%d has weighted degree %r, want %d"
                                    % (s, wd, (8 - 2 * s) * p))
    return ds[1:5]


def _laurent_to_locfrac(lau, locs):
    """Laurent WPoly to a localized fraction, (U, V) in the (z4, z6) slots."""
    shift = max(0, -lau.lowest_z6())
    return LocFrac(lau * WPoly.monomial(1, 0, shift, locs.pm),
                   {"z6": shift}, locs)


def eta_pivots(table, ds, locs):
    """Rows m = M, M+1 (M = (p+5)/2) of the eta stream (v_0 = 0, sources
    d_1..d_4) as sum_s d_s G_s(z4^p, z6^p) (see the psi module doc), from
    the G rows of a ``psi_table(p, G_SOURCES)``, each over z6^((m-2)p) H^2.
    Row n of a stream reaches at most one V deeper than rows n-1 and n-3,
    so V^-n from the source at step 1; but at n = (p+3)/2 the U v_{n-1}
    term has coefficient 3/2 - n = -p/2 = 0 mod p, and from there on the
    depth lags two behind n. Each G_s row meets d_s through
    WPoly.compose_times, one outer product at stride p, as d_s spans fewer
    than p columns; the shift by the z6 power is a monomial product."""
    p, pm = locs.pm.p, locs.pm
    etas = []
    for m in ((p + 5) // 2, (p + 7) // 2):
        num = sum((table.row(s + 1, m).compose_times(p, d.num)
                   for s, d in enumerate(ds, 1)), WPoly.zero(pm))
        shift = (m - 2) * p
        etas.append(LocFrac(num * WPoly.monomial(1, 0, shift, pm),
                            {"z6": shift, "H": 2}, locs))
    return etas


def solve_eigen_symbolic(p):
    """(Theta, det): the Cramer solve of the pivot system over the fraction
    ring localized at z4, z6, Delta, H and the pivot polynomial Psi, Theta
    the quasi-linear form Theta_const + Theta_z4' z4' + Theta_z6' z6' of
    weight 0 mod p (forms.QuasiLinearForm, which checks the slot degrees 0,
    -4p and -6p) and det the pivot determinant. det, Theta_z4' and
    Theta_z6' are solved on the (U, V) = (z4^p, z6^p) rows at stride 1 and
    composed once by LocFrac.frobenius, a ring map mod p: each localizer L
    has F_p coefficients, so L(z4^p, z6^p) = L^p. Only the eta pivots,
    dense in z4 and z6 through the d_s, meet composed alpha rows. Every
    pivot row, of alpha, beta and G_1..G_4, comes from one
    ``psi_table(p, G_SOURCES)``: one stream table, built in one pass."""
    table = psi_table(p, G_SOURCES)  # alpha, beta, then G_1..G_4
    locs = form_localizers(p, 1, table.psi_big)
    m_piv = (p + 5) // 2
    half = inv_mod(2, p)

    def pivots(s, c=1):
        return [_laurent_to_locfrac(table.row(s, n).scale(c), locs)
                for n in (m_piv, m_piv + 1)]

    a_m, a_m1 = pivots(0)
    b_m, b_m1 = pivots(1)
    det = a_m * b_m1 - a_m1 * b_m
    det_inv = det.reciprocal()

    # right-hand sides: minus the z4', z6' streams G_2/2, G_1/2 and eta
    theta_da, theta_db = [(det_inv * (a_m1 * r_m - a_m * r_m1)).frobenius()
                          for r_m, r_m1 in (pivots(3, half), pivots(2, half))]
    e_m, e_m1 = eta_pivots(table, sym_d_values(p, locs), locs)
    theta_const = det_inv.frobenius() * (a_m1.frobenius() * e_m
                                         - a_m.frobenius() * e_m1)
    return (QuasiLinearForm(locs, 0, theta_const, gamma_4=theta_da,
                            gamma_6=theta_db), det.frobenius())


def _eq_at_z4_zero(x, y):
    """Equality of two localized fractions after setting z4 = 0; valid when
    every denominator localizer stays nonzero there."""
    a, b, den = x._common(y)
    for name in den:
        if x.locs.polys[name].restrict_z4_zero().is_zero():
            raise PropertyViolation("localizer %s vanishes at z4 = 0" % name)
    return a.restrict_z4_zero() == b.restrict_z4_zero()


def lambda_properties(theta):
    """Checks on the Theta of the symbolic solve: quasi-linearity and the
    slot degrees (0, -4p, -6p) are the QuasiLinearForm's own; for p = 1
    mod 3, the a -> 0 specialization Theta = -z6'/(6 z6^p) - beta."""
    locs = theta.locs
    p = locs.pm.p
    result = {"degrees_ok": True, "a0_checked": False}
    if p % 3 == 1:
        beta = branch_constants(p)["beta"]
        tgt_db = LocFrac(WPoly.const(-inv_mod(6, p), locs.pm), {"z6": p}, locs)
        tgt_const = LocFrac(WPoly.const(-beta, locs.pm), {}, locs)
        if not theta.gamma_4.num.restrict_z4_zero().is_zero():
            raise PropertyViolation("Theta z4' slot nonzero at z4 = 0")
        if not _eq_at_z4_zero(theta.gamma_6, tgt_db):
            raise PropertyViolation("Theta z6' slot wrong at z4 = 0")
        if not _eq_at_z4_zero(theta.gamma_k, tgt_const):
            raise PropertyViolation("Theta constant slot wrong at z4 = 0")
        result["a0_checked"] = True
        result["beta"] = beta
    return result
