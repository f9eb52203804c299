r"""
High-precision special functions used throughout the package.

Everything here is an ordinary function of real (occasionally complex)
arguments together with an immutable Precision context.  Values are
returned as SpecialValue pairs (value, error_bound); the error bounds are
first-order and heuristic-but-reported, not interval arithmetic.

The workhorses:

* gamma_upper(s, y)    -- Gamma(s,y) = int_y^oo e^-t t^(s-1) dt, integer s >= 1,
                          via the closed form (s-1)! e^-y sum_{j<s} y^j/j!,
                          valid for every real y (including y < 0).
* exp_integral_ei(y)   -- Ei(y), principal value for y > 0.
* e_kappa(kappa, y)    -- the antiderivative of e^y (-y)^(-kappa) used in the
                          non-holomorphic Fourier parts:
                              Gamma(1-kappa, -y)                    kappa <= 0
                              ((-1)^(kappa+1)/(kappa-1)!) *
                                  (e^y sum_{j=0}^{kappa-2} y^(-j-1) j! - Ei(y))
                                                                    kappa > 0
* beta_fns(k, v, variant) -- beta_{3/2+k}(v) = int_1^oo e^-vt t^(-3/2-k) dt and
                          its analytic continuation beta^c through the unit
                          interval, via the termwise series
                          sum_m (-v)^m / (m! (m-k-1/2)).
* cal_F(w)             -- the weight-3/2 special function
                          (sqrt(pi)/2) w^-1/2 e^w erfc(sqrt w)
                          - sqrt(pi) int_0^sqrt(w) e^(t^2) erfc(t) dt
                          + log(w)/2 + log 2 + gamma/2.
* hurwitz_zeta, polygamma, erfc -- standard functions, backed by mpmath.
* bernoulli_poly       -- exact rational Bernoulli polynomial values.
* hermite_poly         -- physicists' Hermite polynomials by recurrence.
* kronecker_symbol     -- the Kronecker symbol (Delta/n), exact integers.
* dirichlet_L          -- L_Delta(s) for fundamental Delta at s = 1 and at
                          integers s <= 0, through Hurwitz zeta / digamma.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp, mpf, mpc


# ---------------------------------------------------------------------------
# precision context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Precision:
    """Working precision in decimal digits."""
    working_digits: int = 30

    def __post_init__(self):
        if self.working_digits < 15:
            raise ValueError("working_digits must be >= 15")

    @property
    def eps(self):
        return mpf(10) ** (-self.working_digits)


DEFAULT_PRECISION = Precision()

# empirical crossovers for the Ei evaluation, see exp_integral_ei
EI_SERIES_CUTOFF_NEG = 30.0    # |y| below this: power series (y < 0)
EI_ASYMPTOTIC_FACTOR = 2.5     # y > max(30, factor * dps): asymptotic series


@dataclass(frozen=True)
class SpecialValue:
    """A computed value together with a reported absolute error bound."""
    value: object
    error_bound: float

    def __post_init__(self):
        if mpmath.isnan(self.value):
            raise ArithmeticError("NaN produced in special-function evaluation")


def _workdps(prec):
    # guard digits for intermediate cancellation
    return mp.workdps(prec.working_digits + 10)


# ---------------------------------------------------------------------------
# incomplete gamma / exponential integral family
# ---------------------------------------------------------------------------

def gamma_upper(s, y, prec=DEFAULT_PRECISION):
    r"""Gamma(s, y) for integer s >= 1 and any real y.

    Uses Gamma(k+1, x) = k! e^-x sum_{j=0}^k x^j/j!, which extends the
    integral to x < 0.  The error bound reports the cancellation incurred
    in the alternating sum when y < 0.
    """
    if s < 1 or s != int(s):
        raise ValueError("gamma_upper requires integer s >= 1")
    s = int(s)
    with _workdps(prec):
        yy = mpf(y)
        term = mpf(1)
        acc = mpf(1)
        maxterm = mpf(1)
        for j in range(1, s):
            term = term * yy / j
            acc += term
            maxterm = max(maxterm, abs(term))
        val = mpmath.factorial(s - 1) * mpmath.e ** (-yy) * acc
        bound = float(prec.eps * mpmath.factorial(s - 1)
                      * mpmath.e ** (-yy) * maxterm * (s + 1))
        return SpecialValue(val, max(bound, float(prec.eps * abs(val))))


def exp_integral_ei(y, prec=DEFAULT_PRECISION):
    r"""The exponential integral Ei(y), y != 0.

    Principal value for y > 0.  Power series gamma + log|y| + sum y^m/(m m!)
    for y > 0 and for small |y|; a Lentz continued fraction for E_1(|y|)
    when y << 0; asymptotic expansion for very large y > 0.
    """
    if y == 0:
        raise ValueError("Ei has a logarithmic singularity at 0")
    with _workdps(prec):
        yy = mpf(y)
        if yy > 0:
            cutoff = max(EI_SERIES_CUTOFF_NEG, EI_ASYMPTOTIC_FACTOR * prec.working_digits)
            if yy <= cutoff:
                val = _ei_series(yy, prec)
            else:
                val = _ei_asymptotic(yy)
        else:
            if abs(yy) <= EI_SERIES_CUTOFF_NEG:
                # alternating series: bump precision to absorb cancellation
                extra = int(0.45 * float(abs(yy))) + 10
                with mp.workdps(mp.dps + extra):
                    val = _ei_series(yy, prec)
                val = +val
            else:
                val = -_e1_contfrac(-yy, prec)
        return SpecialValue(val, float(prec.eps * (abs(val) + 1)))


def _ei_series(y, prec):
    acc = mpmath.euler + mpmath.log(abs(y))
    term = mpf(1)
    m = 0
    target = mpf(10) ** (-(mp.dps - 2))
    while True:
        m += 1
        term = term * y / m
        piece = term / m
        acc += piece
        if abs(piece) < target * (1 + abs(acc)) and m > abs(y):
            return acc
        if m > 10000:
            raise ArithmeticError("Ei series did not converge")


def _ei_asymptotic(y):
    # e^y/y * sum m!/y^m, truncated at the smallest term
    acc = mpf(1)
    term = mpf(1)
    m = 0
    while True:
        m += 1
        nxt = term * m / y
        if abs(nxt) >= abs(term) or m > 2 * int(y):
            break
        term = nxt
        acc += term
    return mpmath.e ** y / y * acc


def _e1_contfrac(x, prec):
    # E_1(x) = e^-x / (x + 1 - 1/(x + 3 - 4/(x + 5 - 9/...))), x > 0 (Lentz)
    tiny = mpf(10) ** (-mp.dps - 30)
    b = x + 1
    C = b + 1 / tiny
    D = 1 / b
    h = D
    for n in range(1, 500):
        a = -mpf(n) ** 2
        b = x + 2 * n + 1
        D = b + a * D
        if D == 0:
            D = tiny
        C = b + a / C
        if C == 0:
            C = tiny
        D = 1 / D
        delta = C * D
        h *= delta
        if abs(delta - 1) < mpf(10) ** (-(mp.dps - 2)):
            break
    return mpmath.e ** (-x) * h


def e_kappa(kappa, y, prec=DEFAULT_PRECISION):
    r"""The antiderivative E_kappa(y) of e^y (-y)^(-kappa), y != 0.

    Two branches: Gamma(1-kappa, -y) for kappa <= 0, and the finite sum
    minus Ei(y) for kappa > 0 (Ei as a principal value when y > 0).
    The Ei here is mpmath's; exp_integral_ei is the independent series
    implementation the tests play the two off against.
    """
    kappa = int(kappa)
    if y == 0:
        raise ValueError("E_kappa is singular at y = 0")
    with _workdps(prec):
        yy = mpf(y)
        if kappa <= 0:
            g = gamma_upper(1 - kappa, -yy, prec)
            return SpecialValue(+g.value, g.error_bound)
        acc = mpf(0)
        fact = mpf(1)   # j!
        maxterm = mpf(0)
        for j in range(kappa - 1):
            if j > 0:
                fact *= j
            term = yy ** (-j - 1) * fact
            acc += term
            maxterm = max(maxterm, abs(term))
        ei = mpmath.ei(yy)
        expy = mpmath.e ** yy
        val = (mpf(-1) ** (kappa + 1) / mpmath.factorial(kappa - 1)) * (expy * acc - ei)
        bound = float(prec.eps * (abs(expy) * (maxterm + abs(acc)) + abs(ei) + abs(val)))
        return SpecialValue(val, bound)


def erfc(x, prec=DEFAULT_PRECISION):
    """Complementary error function (decaying convention)."""
    with _workdps(prec):
        val = mpmath.erfc(mpf(x))
        return SpecialValue(val, float(prec.eps * (abs(val) + mpf(10) ** (-mp.dps))))


# ---------------------------------------------------------------------------
# beta integrals and the weight-3/2 special function
# ---------------------------------------------------------------------------

def beta_fns(k, v, variant="tail", prec=DEFAULT_PRECISION):
    r"""beta_{3/2+k}(v) and its complementary continuation.

    tail:          int_1^oo e^-vt t^(-3/2-k) dt          (v >= 0)
    complementary: int_0^1 e^-vt t^(-3/2-k) dt, continued in k via
                   sum_m (-v)^m / (m! (m - k - 1/2))      (any real v)
    """
    k = int(k)
    if k < 0:
        raise ValueError("beta_fns requires k >= 0")
    with _workdps(prec):
        vv = mpf(v)
        if variant == "tail":
            if vv < 0:
                raise ValueError("tail variant needs v >= 0")
            if vv == 0:
                val = mpf(2) / (2 * k + 1)
                return SpecialValue(val, float(prec.eps * abs(val)))
            val = mpmath.quad(lambda t: mpmath.e ** (-vv * t) * t ** (mpf(-1.5) - k),
                              [1, mpmath.inf])
            return SpecialValue(val, float(prec.eps * (abs(val) + 1) * 10))
        if variant == "complementary":
            acc = mpf(0)
            term = mpf(1)   # (-v)^m / m!
            m = 0
            target = mpf(10) ** (-(mp.dps - 2))
            while True:
                piece = term / (m - k - mpf(1) / 2)
                acc += piece
                m += 1
                term = term * (-vv) / m
                if m > abs(vv) + 4 and abs(term) < target * (1 + abs(acc)):
                    break
                if m > 5000:
                    raise ArithmeticError("beta^c series did not converge")
            return SpecialValue(acc, float(prec.eps * (abs(acc) + 1) * 10))
        raise ValueError("variant must be 'tail' or 'complementary'")


def cal_F(w, prec=DEFAULT_PRECISION):
    r"""F(w) = (sqrt(pi)/2) w^(-1/2) e^w erfc(sqrt w)
             - sqrt(pi) int_0^sqrt(w) e^(t^2) erfc(t) dt
             + log(w)/2 + log 2 - Gamma'(1)/2,   w > 0.

    Finite as w -> 0+ (the log cancels against the erfc term).
    """
    if w <= 0:
        raise ValueError("cal_F requires w > 0")
    with _workdps(prec):
        ww = mpf(w)
        rw = mpmath.sqrt(ww)
        sp = mpmath.sqrt(mpmath.pi)
        inner = mpmath.quad(lambda t: mpmath.e ** (t * t) * mpmath.erfc(t), [0, rw])
        val = (sp / 2 * mpmath.e ** ww * mpmath.erfc(rw) / rw
               - sp * inner
               + mpmath.log(ww) / 2 + mpmath.log(2) + mpmath.euler / 2)
        return SpecialValue(val, float(prec.eps * (abs(val) + abs(inner) + 1) * 10))


# ---------------------------------------------------------------------------
# zeta / polygamma / polynomials
# ---------------------------------------------------------------------------

def _coerce(x):
    """Fraction -> p/q, int and float -> mpf, complex -> mpc; anything else
    (mpf, mpc, ...) unchanged.  Rounds at the working precision."""
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    if isinstance(x, (int, float)):
        return mpf(x)
    if isinstance(x, complex):
        return mpc(x)
    return x


def hurwitz_zeta(s, rho, prec=DEFAULT_PRECISION):
    """Hurwitz zeta(s, rho) for rho in (0, 1], continued in s (s != 1)."""
    if s == 1:
        raise ValueError("Hurwitz zeta has a pole at s = 1")
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    with _workdps(prec):
        val = mpmath.zeta(_coerce(s), _coerce(rho))
        return SpecialValue(val, float(prec.eps * (abs(val) + 1)))


def polygamma(k, x, prec=DEFAULT_PRECISION):
    """psi^(k)(x) for Re(x) > 0; x may be complex."""
    k = int(k)
    if k < 0:
        raise ValueError("polygamma order must be >= 0")
    with _workdps(prec):
        xx = mpmath.mpmathify(x)
        if mpmath.re(xx) <= 0 and mpmath.im(xx) == 0:
            raise ValueError("polygamma restricted to Re(x) > 0")
        val = mpmath.psi(k, xx)
        return SpecialValue(val, float(prec.eps * (abs(val) + 1)))


@lru_cache(maxsize=None)
def bernoulli_number(n):
    """Exact Bernoulli number B_n (B_1 = -1/2), cached."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    # sum_{j=0}^{m} C(m+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli_number(j)
    return -acc / (n + 1)


def bernoulli_poly(n, x):
    """Exact B_n(x) for rational x; returns a Fraction."""
    n = int(n)
    if n < 0:
        raise ValueError("bernoulli_poly requires n >= 0")
    xf = Fraction(x)
    acc = Fraction(0)
    for j in range(n + 1):
        acc += math.comb(n, j) * bernoulli_number(j) * xf ** (n - j)
    return acc


def bernoulli_poly_eval(n, z):
    """B_n(z) at an mpf/mpc point (exact coefficients, Horner)."""
    coeffs = [Fraction(math.comb(n, j)) * bernoulli_number(j) for j in range(n + 1)]
    # coefficient of z^(n-j) is coeffs[j]; Horner from highest power
    acc = mpc(0)
    for j in range(n + 1):
        acc = acc * z + mpf(coeffs[j].numerator) / coeffs[j].denominator
    return acc


def hermite_poly(n, x):
    """Physicists' Hermite H_n(x) via H_{n+1} = 2x H_n - 2n H_{n-1}."""
    n = int(n)
    if n < 0:
        raise ValueError("hermite_poly requires n >= 0")
    h0, h1 = 1, 2 * x
    if n == 0:
        return x * 0 + 1 if not isinstance(x, (int, float)) else 1
    if n == 1:
        return h1
    for m in range(1, n):
        h0, h1 = h1, 2 * x * h1 - 2 * m * h0
    return h1


# ---------------------------------------------------------------------------
# characters and L-series
# ---------------------------------------------------------------------------

def kronecker_symbol(delta, n):
    """The Kronecker symbol (delta/n), completely multiplicative in n."""
    delta = int(delta)
    n = int(n)
    if n == 0:
        return 1 if delta in (1, -1) else 0
    if n < 0:
        sign = -1 if delta < 0 else 1
        return sign * kronecker_symbol(delta, -n)
    result = 1
    # factor out 2
    while n % 2 == 0:
        n //= 2
        if delta % 2 == 0:
            return 0
        if delta % 8 in (3, 5):
            result = -result
    if delta % 2 == 0 and math.gcd(delta, n) > 1:
        return 0
    # Jacobi symbol (delta/n) for odd n > 0 by reciprocity
    a = delta % n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_fundamental_discriminant(delta):
    """1, squarefree = 1 mod 4, or 4m with m squarefree = 2,3 mod 4."""
    delta = int(delta)
    if delta == 0:
        return False
    if delta % 4 == 1:
        return _is_squarefree(delta)
    if delta % 4 == 0:
        m = delta // 4
        return m % 4 in (2, 3) and _is_squarefree(m)
    return False


def _is_squarefree(n):
    n = abs(n)
    if n == 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 1
    return True


def dirichlet_L(delta, s, prec=DEFAULT_PRECISION):
    r"""L_Delta(s) = sum (Delta/n) n^-s for fundamental Delta.

    Supported s: s = 1 (digamma-accelerated character sum, Delta != 1)
    and integer s <= 0 (finite Hurwitz-zeta combination
    L_Delta(s) = |Delta|^-s sum_{r mod |Delta|} (Delta/r) zeta(s, r/|Delta|)).
    """
    delta = int(delta)
    if not is_fundamental_discriminant(delta):
        raise ValueError("delta must be a fundamental discriminant")
    q = abs(delta)
    with _workdps(prec):
        if s == 1:
            if delta == 1:
                raise ValueError("L_1 = zeta has a pole at s = 1")
            # L(1) = -(1/q) sum_r chi(r) psi(r/q); the Euler terms cancel
            acc = mpf(0)
            for r in range(1, q):
                chi = kronecker_symbol(delta, r)
                if chi:
                    acc += chi * mpmath.psi(0, mpf(r) / q)
            val = -acc / q
            return SpecialValue(val, float(prec.eps * (abs(val) + 1) * q))
        if s > 0 or s != int(s):
            raise ValueError("only s = 1 or integer s <= 0 supported")
        s = int(s)
        if delta == 1:
            val = mpmath.zeta(mpf(s))
            return SpecialValue(val, float(prec.eps * (abs(val) + 1)))
        acc = mpf(0)
        for r in range(1, q + 1):
            chi = kronecker_symbol(delta, r)
            if chi:
                acc += chi * mpmath.zeta(mpf(s), mpf(r) / q)
        val = mpf(q) ** (-s) * acc
        return SpecialValue(val, float(prec.eps * (abs(val) + 1) * q))


def dirichlet_L_exact_nonpositive(delta, s):
    """Exact rational L_Delta(s) at integer s <= 0 via Bernoulli polynomials.

    zeta(-j, rho) = -B_{j+1}(rho)/(j+1), so the finite character sum is an
    exact rational number.
    """
    delta = int(delta)
    if not is_fundamental_discriminant(delta):
        raise ValueError("delta must be a fundamental discriminant")
    if s > 0 or s != int(s):
        raise ValueError("requires integer s <= 0")
    j = -int(s)
    q = abs(delta)
    acc = Fraction(0)
    for r in range(1, q + 1):
        chi = kronecker_symbol(delta, r)
        if chi:
            acc += chi * (-bernoulli_poly(j + 1, Fraction(r, q)) / (j + 1))
    return Fraction(q) ** j * acc
