r"""
Geodesic cycle integrals: closed ones by quadrature, infinite ones (square
discriminant) by regularization, and the twisted traces built from them.

Closed case (disc > 0 non-square).  The geodesic of Q is a semicircle; the
stabilizer is generated by the fundamental automorph, and the cycle integral
is int over one automorph period of G(z) Q(z,1)^k dz along the oriented arc.
In hyperbolic arc length t, with u = e^t and w = (u + i)/(u - i) =
tanh t + i sech t, the semicircle and the integrand's factor are

    z(t) = center + radius w,    dz/dt = -2i radius u/(u - i)^2 = -i radius sech t w,
    Q(z,1)^k dz/dt = (2i a radius^2)^k (-i radius) (sech t w)^(k+1),

as Q(z,1) = a (z - center)^2 - a radius^2 = 2i a radius^2 sech t w on the
arc.  The automorph of trace tr translates t by the period
2 arccosh(tr/2) = 2 log eps_Q, with eps_Q = (tr + v sqrt(D/g^2))/2, g the
content of Q and (tr, v) the least solution of tr^2 - (D/g^2) v^2 = 4
(`pell_fundamental_4`, read off the principal form's rho-cycle).  Since
G(z) Q(z,1)^k dz is invariant under the stabilizer, the integrand in t is
periodic and real-analytic, so the equispaced trapezoid rule over one period
converges geometrically (Trefethen and Weideman, SIAM Rev. 56 (2014)) and
its samples nest under doubling.  Each level's new nodes form one
arithmetic progression t, t + h, ..., along which u = e^t takes one
product a node, u <- u e^h.

Regularized case (disc = f^2).  Normalize Q to (0, f, c); the geodesic is
the vertical line Re(z) = r with r = -c/f, an infinite geodesic running
between two cusps.  With ray data (r, c0, T) and Fourier coefficients a+-
of G, each ray contributes

    S(r, c0, T) = int_c0^T G(r + iy) y^k dy  -  a+(0) T^(k+1)/(k+1)
        + sum_{n != 0} a+(n) e(nr) Gamma(k+1, 2 pi n T)/(2 pi n)^(k+1)
        + a-(0) (T^-k / k   or  -log T  when k = 0)
        + sum_{n != 0} a-(n) e(nr) ( E_{2k+2}(4 pi n T) Gamma(k+1, 2 pi n T)
              / (2 pi n)^(k+1)
            - 2^(-2k-1) k! / (2 pi n)^(k+1)
              * sum_{j=0}^k (-1)^j / j!  E_{2k+2-j}(2 pi n T) ),

and the full integral is -f^k i^(k+1) (S(r+, c+, T) + (-1)^(k+1) S(r-, c-, T)),
where the minus-ray is the transported image of the bottom end at the cusp
r+ = p/q in lowest terms, with c+ = 1 and c- = 1/(c+ q^2) = 1/q^2.  At every
k the geodesic runs downward, from infinity to r+ (the a -> 0 limit of the
closed geodesics' orientation); the counterterms are antiderivatives of the
integrand's Fourier modes, so the value does not depend on T.

The alternative representation trades the counterterms for line integrals
of G against Bernoulli polynomials and of xi G against polygamma functions
along a horizontal period at height T.  Both representations run through
one driver, `_regularized`: it integrates each ray from its lower end to
height T once and adds the representation's part above T.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp, mpf, mpc
from mpmath.libmp import from_man_exp, to_fixed

from .specfun import (DEFAULT_PRECISION, gamma_upper, e_kappa, bernoulli_poly_eval, _coerce,
                      _tol, _workdps)
from .qforms import (class_reps, divisor_sigma1, genus_char, kronecker_symbol,
                     pell_fundamental_4, square_normalize, _xgcd)
from .quadrature import integrate_cc_doubling, integrate_periodic_doubling
from .forms import (HarmonicFourierData, eval_modular, eval_qexp, xi_symbolic, fine_pair,
                    fixed_exp, fixed_pair, pair_mul_pow, pair_to_mpc, _shift)


@dataclass(frozen=True)
class CycleIntegralResult:
    value: object
    quadrature_error: float
    nodes: int


# ---------------------------------------------------------------------------
# closed geodesics
# ---------------------------------------------------------------------------

def closed_cycle_integral(G_eval, Q, k=0, prec=DEFAULT_PRECISION, base_angle=None):
    """One automorph period of G(z) Q(z,1)^k dz along the oriented geodesic.

    G_eval must evaluate an object transforming with weight 2k+2 anywhere
    in H (route through the fundamental domain for q-series objects);
    violations show up as base-point dependence.  The period is integrated
    in arc length t by the nested trapezoid rule from 16 samples,
    doubling to _tol(prec, 3); base_angle is the polar angle of the base
    point on the semicircle (default pi/2, the top).  The rule asks for the
    sum over a progression t, t + h, ...: u = e^t walks as u <- u e^h in
    fixed-point integers from two fixed_exp, with guard bits for the walk's
    products, and each node takes z and (sech t w)^(k+1) from u (module
    docstring), with bits enough for the smallest sech t of the period.  G(z)
    is multiplied by it in the same fixed point, widened by the bits |G(z)|
    lies below 1 so that a small G(z) keeps its relative precision; the sum
    is kept at the largest bits seen and multiplied once by the constant
    (2i a radius^2)^k (-i radius), and the rule rounds each level to an mpc
    once.  The reported error is the rule's estimate plus its rounding
    floor (quadrature._error_estimate); for E2* it bounds the observed
    error on every class of D < 230, those whose integral is 0 included.
    """
    D = Q.disc
    if D <= 0 or math.isqrt(D) ** 2 == D:
        raise ValueError("closed_cycle_integral needs non-square disc > 0")
    with _workdps(prec):
        theta0 = mpmath.pi / 2 if base_angle is None else mpf(base_angle)
        t0 = mpmath.atanh(mpmath.cos(theta0))
        # one period 2 log eps_Q, toward the endpoint (-b + sqrt D)/(2a), i.e.
        # along increasing t (decreasing angle) when a > 0
        Dg = D // Q.content ** 2
        tr, v = pell_fundamental_4(Dg)
        period = 2 * mpmath.log((tr + v * mpmath.sqrt(Dg)) / 2)
        t1 = t0 + period if Q.a > 0 else t0 - period

        # room for the |t| / ln 2 bits by which u or sech t ~ 2/u falls below 1
        bits = mp.prec + 16 + (k + 1) * (int(max(abs(t0), abs(t1)) / math.log(2)) + 2)
        # center -b/2a and radius sqrt(D)/2|a|, exact in the node's fixed point
        one = 1 << bits
        c0, r0 = (-Q.b << bits) // (2 * Q.a), math.isqrt(D << 2 * bits) // (2 * abs(Q.a))
        K = [(t * r0) >> bits for t in fixed_pair(mpc(0, D) ** k / (2 * Q.a) ** k * -1j, bits)]
        Kabs = float(abs(pair_to_mpc(K, bits)))

        def progression(t, h, n):
            # u = e^t, then u <- u e^h: two fixed_exp a level, one product a
            # node, with guard bits for the n products' rounding
            wu = mp.prec + 24 + n.bit_length()
            m, e = fixed_exp(to_fixed(t._mpf_, wu), wu)
            mh, eh = fixed_exp(to_fixed(h._mpf_, wu), wu)
            top = 2 << wu
            acc, abits, size = [0, 0], bits, 0.0
            for _ in range(n):
                u = _shift(m, e + bits - wu)
                u2 = (u * u) >> bits
                tanh, sech = ((u2 - one) << bits) // (u2 + one), (u << bits + 1) // (u2 + one)
                # the node keeps every bit: reduction reads them
                z = mp.make_mpc((from_man_exp(c0 + ((r0 * tanh) >> bits), -bits),
                                 from_man_exp((r0 * sech) >> bits, -bits)))
                g, gb = fine_pair(G_eval(z), bits)   # a small G(z) keeps its relative precision
                sw = (sech * tanh) >> bits, (sech * sech) >> bits
                vr, vi = pair_mul_pow(g, sw, k + 1, bits)
                sh = max(vr.bit_length(), vi.bit_length(), 60) - 60
                size += math.ldexp(math.hypot(vr >> sh, vi >> sh), sh - gb)
                if gb > abits:
                    acc, abits = [x << gb - abits for x in acc], gb
                acc[0] += vr << abits - gb
                acc[1] += vi << abits - gb
                m, e = (m * mh) >> wu, e + eh
                if m >= top:
                    m, e = m >> 1, e + 1
            return pair_mul_pow(acc, K, 1, bits), abits, size * Kabs

        val, err, used = integrate_periodic_doubling(progression, t0, t1, _tol(prec, 3))
        return CycleIntegralResult(val, float(err), used)


# ---------------------------------------------------------------------------
# regularized integrals along infinite geodesics
# ---------------------------------------------------------------------------

def _square_ray_data(Q):
    """(f, r_plus, q_denom, r_minus) for square discriminant f^2."""
    QN, _ = square_normalize(Q)
    f = QN.b
    r_plus = Fraction(-QN.c, f)
    q = r_plus.denominator
    p = r_plus.numerator
    # sigma = ((p, -v), (q, u)), pu + qv = 1, sends infinity to the bottom
    # cusp p/q, and -Q_N o sigma = (0, f, -u(cu - fv)) puts that ray at -u/q
    _, u, _ = _xgcd(p, q)
    return f, r_plus, q, Fraction(-u, q)


def _ray_quadrature(G_fun, r, c0, T, k, tol, nodes):
    """int_c0^T G(r + iy) y^k dy with dyadic panels toward the bottom.

    q-series objects vary fastest at small heights, so the interval below
    height 1 is split dyadically; each panel uses the nested Clenshaw-Curtis
    rule from `nodes`.
    """
    lo, hi = mpf(c0), mpf(T)
    if hi == lo:
        return mpc(0), 0.0, 0
    if hi < lo:
        val, err, n = _ray_quadrature(G_fun, r, T, c0, k, tol, nodes)
        return -val, err, n
    edges = {lo, hi}
    h = min(hi, mpf(1))
    if lo < h:
        edges.add(h)
    while h / 2 > lo:
        h = h / 2
        edges.add(h)
    edges = sorted(edges)
    f = lambda y: G_fun(mpc(r, 0) + 1j * y) * y ** k
    runs = [integrate_cc_doubling(f, a, b, tol, n0=nodes) for a, b in zip(edges, edges[1:])]
    return (sum(val for val, _, _ in runs), sum(float(err) for _, err, _ in runs),
            max(n for _, _, n in runs))


def _ray_counterterms(G, k, r, T, prec):
    """The T-dependent subtraction making the ray integral convergent."""
    with _workdps(prec):
        Tm = mpf(T)
        rr = _coerce(r)
        e = lambda n: mpmath.e ** (2j * mpmath.pi * n * rr)
        acc = mpc(0)
        ap0 = _coerce(G.a_plus.get(0, 0))
        acc -= ap0 * Tm ** (k + 1) / (k + 1)
        for n, c in sorted(G.a_plus.items()):
            if n == 0 or not c:
                continue
            g = gamma_upper(k + 1, 2 * mpmath.pi * n * Tm, prec).value
            acc += _coerce(c) * e(n) * g / (2 * mpmath.pi * n) ** (k + 1)
        am0 = _coerce(G.a_minus.get(0, 0))
        if am0:
            if k == 0:
                acc += am0 * (-mpmath.log(Tm))
            else:
                acc += am0 * Tm ** (-k) / k
        kfac = mpmath.factorial(k)
        for n, c in sorted(G.a_minus.items()):
            if n == 0 or not c:
                continue
            tpn = 2 * mpmath.pi * n
            g = gamma_upper(k + 1, tpn * Tm, prec).value
            first = e_kappa(2 * k + 2, 2 * tpn * Tm, prec).value * g / tpn ** (k + 1)
            inner = mpc(0)
            for j in range(k + 1):
                inner += (mpf(-1) ** j / mpmath.factorial(j)) \
                    * e_kappa(2 * k + 2 - j, tpn * Tm, prec).value
            second = mpf(2) ** (-2 * k - 1) * kfac / tpn ** (k + 1) * inner
            acc += _coerce(c) * e(n) * (first - second)
        return acc


def _regularized(G, Q, k, T, prec, evaluator, nodes, tol, tail):
    """-f^k i^(k+1) (S(r+, c+, T) + (-1)^(k+1) S(r-, c-, T)), each ray's S its
    quadrature from c0 to T plus tail(G, G_fun, k, r, T, tol) -> (value,
    error), the part above height T in one representation, called at prec's
    working precision.  Both stop their doublings at tol, by default
    _tol(prec, 7)."""
    if G.kappa != 2 * k + 2:
        raise ValueError(f"G has weight {G.kappa}, not 2k + 2 = {2 * k + 2}")
    if T <= 0:
        raise ValueError("T must be positive")
    tol = _tol(prec, 7) if tol is None else tol
    f, r_plus, q, r_minus = _square_ray_data(Q)
    with _workdps(prec):
        G_fun = evaluator if evaluator is not None else (lambda z: eval_qexp(G, z, prec)[0])
        S, err, used = [], 0.0, 0
        for r, c0 in ((r_plus, 1), (r_minus, mpf(1) / (q * q))):
            quad, e_quad, n = _ray_quadrature(G_fun, _coerce(r), c0, mpf(T), k, tol, nodes)
            value, e_tail = tail(G, G_fun, k, r, T, tol)
            S.append(quad + value)
            err, used = err + e_quad + e_tail, max(used, n)
        S_plus, S_minus = S
        # downward at every k, from infinity to r+: the top ray is run down,
        # dz = i dy with Q(z,1) = f i y on it, and the bottom end, carried to
        # the minus-ray, is run up that ray with Q(z,1) = -f i y
        total = -mpf(f) ** k * (1j) ** (k + 1) * (S_plus + (-1) ** (k + 1) * S_minus)
        return CycleIntegralResult(total, err, used)


def reg_cycle_integral(G, Q, k=0, T=2, prec=DEFAULT_PRECISION,
                       evaluator=None, nodes=16, tol=None):
    """Regularized cycle integral of G along the infinite geodesic of Q.

    Q must have square discriminant f^2 (any representative; it is
    normalized to (0, f, c) first).  G is HarmonicFourierData of weight
    2k+2; `evaluator` overrides the pointwise evaluation of G on the rays
    (pass a fundamental-domain-reducing evaluator for genuinely modular G,
    so that the quadrature stays accurate at small heights).
    """
    tail = lambda G, G_fun, k, r, T, tol: (_ray_counterterms(G, k, r, T, prec), 0.0)
    return _regularized(G, Q, k, T, prec, evaluator, nodes, tol, tail)


def reg_cycle_integral_alt(G, Q, k=0, T=2, prec=DEFAULT_PRECISION,
                           evaluator=None, nodes=16, tol=None):
    """The Bernoulli/polygamma representation of the regularized integral.

    Needs xi_{2k+2} G, taken symbolically from the Fourier data.  Agrees
    with reg_cycle_integral; for holomorphic G (xi G constant) the
    polygamma terms vanish identically.
    """
    xiG = xi_symbolic(G, prec)
    # xi G without its constant term
    xi_data = HarmonicFourierData(xiG.kappa, {n: c for n, c in xiG.a_plus.items() if n},
                                  {}, xiG.order)

    def tail(G, G_fun, k, r, T, tol):
        Tm = mpf(T)
        rr = _coerce(r)
        am0 = _coerce(G.a_minus.get(0, 0))
        sgn = mpf(-1) ** k
        c_B = sgn * (1j) ** (k + 1) / (k + 1)
        c_xi = sgn * (1j) ** (-k) * mpmath.factorial(k) / mpmath.factorial(2 * k + 1)
        c_d = [mpmath.factorial(d + k) / mpmath.factorial(d + 1)
               * sum(math.comb(2 * k + 1, j) for j in range(k - d + 1))
               * (-1j * Tm) ** (-k - d - 1) for d in range(k + 1)]

        def line(x):
            # one period at height T: G against B_{k+1}, and xi G against
            # polygamma and against Bernoulli polynomials of the real part;
            # the xi G terms enter conjugated, which commutes with the
            # real-weighted rule
            w = x + 1j * Tm
            acc = c_B * (G_fun(rr + w) - am0 * Tm ** (-1 - 2 * k)) \
                * bernoulli_poly_eval(k + 1, w)
            xg = eval_qexp(xi_data, rr + w, prec)[0]
            if xg:
                inner = mpf(2) ** (2 * k - 1) * _psi_pair(k, w, mp.prec)
                for d, c in enumerate(c_d):
                    inner += c * bernoulli_poly_eval(d + 1, x)
                acc -= c_xi * mpmath.conj(xg * inner)
            return acc

        iline, err_line, _ = integrate_cc_doubling(line, 0, 1, tol, n0=nodes)
        if am0:
            iline += am0 * (-mpmath.log(Tm)) if k == 0 else am0 * Tm ** (-k) / k
        return iline, float(err_line)

    return _regularized(G, Q, k, T, prec, evaluator, nodes, tol, tail)


# ---------------------------------------------------------------------------
# the two evaluation lemmas (line integrals with closed forms)
# ---------------------------------------------------------------------------

def _height_quadrature(factor, n, y, prec):
    """int_{iy}^{iy+1} factor(z) e(nz) dz by quadrature, y an mpf at the working precision."""
    f = lambda x: factor(x + 1j * y) * mpmath.exp(2j * mpmath.pi * n * (x + 1j * y))
    return integrate_cc_doubling(f, 0, 1, _tol(prec, 1))[0]


def bernoulli_height_integral(kk, n, y, prec=DEFAULT_PRECISION):
    """(quadrature, closed form) for int_{iy}^{iy+1} B_k(z) e(nz) dz."""
    with _workdps(prec):
        ym = mpf(y)
        quad = _height_quadrature(lambda z: bernoulli_poly_eval(kk, z), n, ym, prec)
        if n == 0:
            closed = (1j * ym) ** kk
        elif kk == 0:
            closed = mpc(0)
        else:
            g = gamma_upper(kk, 2 * mpmath.pi * n * ym, prec).value
            closed = -kk * (1j) ** kk * g / (2 * mpmath.pi * n) ** kk
        return quad, closed


@lru_cache(maxsize=8192)
def _psi_pair(k, w, prec):
    """psi^(k)(w) + (-1)^k psi^(k)(1 - w) at the working precision prec (bits,
    keyed because w's value alone does not tell it): the polygamma factor of
    the alternative tail's line and of the lemma integrals, the same for
    every ray, form and n at one node."""
    return mpmath.psi(k, w) + mpf(-1) ** k * mpmath.psi(k, 1 - w)


def polygamma_height_integral(kk, n, y, prec=DEFAULT_PRECISION):
    """(quadrature, closed form) for
    int_{iy}^{iy+1} (psi^(k)(z) + (-1)^k psi^(k)(1-z)) e(nz) dz."""
    with _workdps(prec):
        ym = mpf(y)
        quad = _height_quadrature(lambda z: _psi_pair(kk, z, mp.prec), n, ym, prec)
        if n == 0:
            if kk == 0:
                closed = 2 * mpmath.log(ym)
            else:
                closed = 2 * mpf(-1) ** (kk + 1) * mpmath.factorial(kk - 1) \
                    * (1j * ym) ** (-kk)
        else:
            closed = -2 * (2j * mpmath.pi * n) ** kk * mpmath.factorial(kk) \
                * e_kappa(kk + 1, -2 * mpmath.pi * n * ym, prec).value
        return quad, closed


def lemma_integral_checks(k_max=4, n_max=3, ys=(0.5, 1, 2), prec=DEFAULT_PRECISION):
    """Quadrature-vs-closed-form errors for both evaluation lemmas; the
    unit integrals do not depend on y and are reported once."""
    grid = [(kk, n) for kk in range(k_max + 1) for n in range(-n_max, n_max + 1)]
    row = lambda lemma, kk, n, y, pair: {"lemma": lemma, "k": kk, "n": n, "y": y,
                                         "abs_error": float(abs(pair[0] - pair[1]))}
    report = [row("bernoulli-unit", kk, n, None, bernoulli_height_integral(kk, n, 0, prec))
              for kk, n in grid]
    for y in ys:
        for kk, n in grid:
            report.append(row("bernoulli-height", kk, n, y,
                              bernoulli_height_integral(kk, n, y, prec)))
            report.append(row("polygamma-height", kk, n, y,
                              polygamma_height_integral(kk, n, y, prec)))
    return report


# ---------------------------------------------------------------------------
# traces and L-values
# ---------------------------------------------------------------------------

def trace_cycle(G, delta, D, k=0, prec=DEFAULT_PRECISION, evaluator=None):
    """tr_delta(G, D) = sum over classes of disc |delta| D of chi_delta(Q)
    times the cycle integral of G, of weight 2k+2 (regularized, at T = 2, on
    square discriminants)."""
    delta = int(delta)
    D = int(D)
    if G.kappa != 2 * k + 2:
        raise ValueError(f"G has weight {G.kappa}, not 2k + 2 = {2 * k + 2}")
    if D <= 0:
        raise ValueError("trace_cycle needs D > 0")
    sD = D if delta > 0 else -D
    if sD % 4 not in (0, 1):
        raise ValueError("sgn(delta) D must be 0 or 1 mod 4")
    if (-1) ** (k + 1) * delta <= 0:
        raise ValueError("sign condition (-1)^(k+1) delta > 0 violated")
    disc = abs(delta) * D
    square = math.isqrt(disc) ** 2 == disc
    if evaluator is None:
        evaluator = lambda z: eval_modular(G, z, prec)[0]
    with _workdps(prec):
        acc = mpc(0)
        qerr = 0.0
        for Q in class_reps(disc).reps:
            chi = genus_char(delta, Q)
            if chi == 0:
                continue
            if square:
                res = reg_cycle_integral(G, Q, k, prec=prec, evaluator=evaluator)
            else:
                res = closed_cycle_integral(evaluator, Q, k, prec=prec)
            acc += chi * res.value
            qerr += res.quadrature_error
        return acc, qerr


def l_star_value(G, delta, k=0, prec=DEFAULT_PRECISION, evaluator=None):
    """L*_delta(G, k+1) = sqrt(|delta|) tr_delta(G, -delta) (all classes
    regularized: the discriminant is the square delta^2)."""
    delta = int(delta)
    if (-1) ** (k + 1) * delta <= 0:
        raise ValueError("sign condition violated")
    val, qerr = trace_cycle(G, delta, abs(delta), k, prec=prec, evaluator=evaluator)
    with _workdps(prec):
        return mpmath.sqrt(abs(delta)) * val, qerr


def sigma_exp_sum(delta, prec=DEFAULT_PRECISION):
    """(2 sqrt|delta| / pi) sum_{n>0} (delta/n) sigma_1(n)/n e^(-2 pi n/|delta|);
    an independent closed form for the square-trace L-value of the completed
    weight-2 Eisenstein series."""
    q = abs(int(delta))
    with _workdps(prec):
        acc, target = mpf(0), mpf(10) ** -(prec.working_digits + 15)
        for n in itertools.count(1):
            term = mpf(divisor_sigma1(n)) / n * mpmath.e ** (-2 * mpmath.pi * n / q)
            acc += kronecker_symbol(delta, n) * term
            if term < target and n > q:
                return 2 * mpmath.sqrt(q) / mpmath.pi * acc


# ---------------------------------------------------------------------------
# the binomial-sum identity from the constant-term computation
# ---------------------------------------------------------------------------

def combinatorial_identity_sides(d, k):
    """Both sides of
    sum_{j=ceil(k/2)}^k C(k,j) C(2j-d, k) (-1)^j/(2j+1)
        = (-1)^k k! (d+k)! / ((2k+1)! d!) sum_{j=0}^{k-d} C(2k+1, j),
    as exact rationals (0 <= d <= k)."""
    if not 0 <= d <= k:
        raise ValueError("needs 0 <= d <= k")
    lhs = Fraction(0)
    for j in range((k + 1) // 2, k + 1):
        lhs += Fraction(math.comb(k, j) * math.comb(2 * j - d, k) * (-1) ** j,
                        2 * j + 1)
    rhs = Fraction((-1) ** k * math.factorial(k) * math.factorial(d + k),
                   math.factorial(2 * k + 1) * math.factorial(d)) \
        * sum(math.comb(2 * k + 1, j) for j in range(k - d + 1))
    return lhs, rhs
