r"""
High-precision special functions used throughout the package.

Everything here is an ordinary function of real arguments together with an
immutable Precision context.  Values are returned as SpecialValue wrappers,
which reject NaN.

The precision model.  Precision(d) (defined in the package __init__, which
imports nothing), the CLI's --precision d, runs every
package function that takes `prec` at d + 10 working digits (_workdps),
whatever the ambient mp.dps.  A nested quadrature rule stops at
_tol(prec, margin) = 10^-(d/2 + margin): each doubling squares the error of
a geometrically converging rule, so half the digits suffice.  The margin is
3 for closed cycles, 7 for regularized integrals (rays and line) and 1 for
the lemma integrals: 1e-18, 1e-22 and 1e-16 at d = 30; from d = 600 it is
an mpf, as the float would underflow.  A nested scope at the same working
precision is free: package code never assigns mp.prec or mp.dps, only
enters scopes, so _workdps at its target already returns one shared no-op.
The CLI scopes its own arithmetic in mp.workdps(d) for every command that
loads mpmath.  The kernels without
`prec` run at the caller's precision: quadrature, hyperbolic and
thetacore.fd_operators (hyperbolic's reduction widens only its own word
search, by the bits a deep point needs, and keeps the caller's tie width).

* gamma_upper(s, y)    -- Gamma(s,y) = int_y^oo e^-t t^(s-1) dt, integer s >= 1,
                          any real y: mpmath.gammainc.
* e_kappa(kappa, y)    -- the antiderivative Re Gamma(1-kappa, -y) of
                          e^y (-y)^(-kappa) used in the non-holomorphic
                          Fourier parts (a principal value for kappa > 0
                          and y > 0): mpmath.gammainc.
* bernoulli_number     -- exact rational B_n: mpmath.bernfrac.
* bernoulli_poly       -- exact rational Bernoulli polynomial values.
* dirichlet_L          -- L_Delta(s) for fundamental Delta at s = 1 and at
                          integers s <= 0, through Hurwitz zeta / digamma
                          (the Kronecker symbol comes from qforms).
"""

import math
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp, mpf, mpc
from mpmath.libmp import dps_to_prec

from . import Precision
from .qforms import kronecker_symbol, is_fundamental_discriminant


# ---------------------------------------------------------------------------
# precision context
# ---------------------------------------------------------------------------

DEFAULT_PRECISION = Precision()


@dataclass(frozen=True)
class SpecialValue:
    """A computed special-function value, checked for NaN."""
    value: object

    def __post_init__(self):
        if mpmath.isnan(self.value):
            raise ArithmeticError("NaN produced in special-function evaluation")


_SAME = nullcontext()


def _workdps(prec):
    # guard digits for intermediate cancellation; at the target already,
    # the shared no-op (module docstring)
    dps = prec.working_digits + 10
    if mp.dps == dps and mp.prec == dps_to_prec(dps):
        return _SAME
    return mp.workdps(dps)


def _tol(prec, margin):
    # a nested rule's stopping tolerance (module docstring); an mpf from 600
    # digits, where the float would turn subnormal and then underflow to 0
    e = prec.working_digits / 2 + margin
    return 10.0 ** -e if prec.working_digits < 600 else mpf(10) ** -e


# ---------------------------------------------------------------------------
# incomplete gamma / exponential integral family
# ---------------------------------------------------------------------------

def gamma_upper(s, y, prec=DEFAULT_PRECISION):
    r"""Gamma(s, y) for integer s >= 1 and any real y: mpmath's gammainc,
    which for integer s is entire in y, so y < 0 is allowed."""
    if s < 1 or s != int(s):
        raise ValueError("gamma_upper requires integer s >= 1")
    with _workdps(prec):
        return SpecialValue(mpmath.gammainc(int(s), mpf(y)))


def e_kappa(kappa, y, prec=DEFAULT_PRECISION):
    r"""The antiderivative E_kappa(y) = Re Gamma(1-kappa, -y) of
    e^y (-y)^(-kappa), y != 0, by mpmath's gammainc.  For kappa > 0 and
    y > 0, -y lies on the cut and the real part is the principal value;
    otherwise the value is real already."""
    if y == 0:
        raise ValueError("E_kappa is singular at y = 0")
    with _workdps(prec):
        return SpecialValue(mpmath.re(mpmath.gammainc(1 - int(kappa), -mpf(y))))


# ---------------------------------------------------------------------------
# number coercion and Bernoulli polynomials
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


@lru_cache(maxsize=None)
def bernoulli_number(n):
    """Exact Bernoulli number B_n (B_1 = -1/2), by mpmath's bernfrac, cached."""
    return Fraction(*mpmath.bernfrac(n))


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


# ---------------------------------------------------------------------------
# characters and L-series
# ---------------------------------------------------------------------------

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
            return SpecialValue(-acc / q)
        if s > 0 or s != int(s):
            raise ValueError("only s = 1 or integer s <= 0 supported")
        s = int(s)
        if delta == 1:
            return SpecialValue(mpmath.zeta(mpf(s)))
        acc = mpf(0)
        for r in range(1, q + 1):
            chi = kronecker_symbol(delta, r)
            if chi:
                acc += chi * mpmath.zeta(mpf(s), mpf(r) / q)
        return SpecialValue(mpf(q) ** (-s) * acc)


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
