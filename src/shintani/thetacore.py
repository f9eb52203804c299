r"""
The theta kernel attached to a fundamental discriminant, its Laplace
preimage, the truncated theta sum and the lift's constant term.  The
direct float64 lift quadrature is in lift.

For a form Q of discriminant |Delta| D, z = x + iy and tau = u + iv, with
p = p_z(Q) and the weight parameter k (so the z-weight is 2k+2):

kernel normalization (the summand of the theta function):

    phi0(Q, tau, z) = 2 v^(1/2) Q(zbar,1)^(k+1) / (|Delta|^((k+1)/2) y^(2k+2))
                      * exp(-4 pi v p^2 / |Delta|)

preimage normalization (the exact image of eta under the weight-(2k+2)
Laplacian; a v -> v/4 rescaling and the constant |Delta|^(-(k+1)/2) of the
kernel normalization, measured and frozen in the tests):

    phi0_pre(Q, tau, z) = v^(1/2) |Delta|^-(k+1) y^(-2k-2) Q(zbar,1)^(k+1)
                          * exp(-pi v p^2 / |Delta|)

    eta(Q, tau, z) = -(1 / (2 Q(z,1)^(k+1)))
                     * int_{|p|/sqrt|Delta|}^oo (t^2 + D)^k erfc(sqrt(pi v) t) dt

    xi_{2k+2} eta  = Q(z,1)^k / (2 |Delta|^(k+1/2))
                     * sgn(p) erfc(sqrt(pi v) |p| / sqrt|Delta|)
    Delta_{2k+2} eta = phi0_pre(Q, tau, z)

eta is continuous across the geodesic (it depends on |p|) and singular at
the CM point; xi eta jumps across the geodesic.  The finite-difference
harness fd_operators checks both differential equations numerically.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import mpmath
from mpmath import mpf, mpc

from .specfun import DEFAULT_PRECISION, gamma_upper, dirichlet_L, _workdps
from .qforms import QForm, genus_char, is_fundamental_discriminant
from .hyperbolic import form_polynomials


@dataclass(frozen=True)
class ThetaContext:
    delta: int
    k: int
    tau: complex
    truncation_radius: int = 25

    def __post_init__(self):
        if not is_fundamental_discriminant(self.delta):
            raise ValueError("delta must be a fundamental discriminant")
        if self.k < 0 or self.truncation_radius < 1:
            raise ValueError("need k >= 0 and truncation radius >= 1")
        if (-1) ** (self.k + 1) * self.delta <= 0:
            raise ValueError("need (-1)^(k+1) delta > 0")
        if mpmath.im(self.tau) <= 0:
            raise ValueError("tau must lie in the upper half-plane")

    @property
    def v(self):
        return mpmath.im(self.tau)

    @property
    def u(self):
        return mpmath.re(self.tau)


def _check_disc(ctx, Q):
    q = abs(ctx.delta)
    if Q.disc % q:
        raise ValueError("disc(Q) must be divisible by |delta|")
    return Q.disc // q   # the index D


def phi_sh0(ctx, Q, z, normalization="kernel", prec=DEFAULT_PRECISION):
    """The Schwartz-function summand at Q, z (see module docstring).

    normalization="kernel" is the theta-kernel convention;
    "preimage" is the exact Laplace image of eta.
    """
    D = _check_disc(ctx, Q)
    k, v = ctx.k, ctx.v
    q = abs(ctx.delta)
    with _workdps(prec):
        z = mpc(z)
        y = z.imag
        p, qz, _ = form_polynomials(Q, z)
        qbar = Q.a * mpmath.conj(z) ** 2 + Q.b * mpmath.conj(z) + Q.c
        if normalization == "kernel":
            return (2 * mpmath.sqrt(v) * qbar ** (k + 1)
                    / (mpf(q) ** (mpf(k + 1) / 2) * y ** (2 * k + 2))
                    * mpmath.e ** (-4 * mpmath.pi * v * p * p / q))
        if normalization == "preimage":
            return (mpmath.sqrt(v) * qbar ** (k + 1)
                    / (mpf(q) ** (k + 1) * y ** (2 * k + 2))
                    * mpmath.e ** (-mpmath.pi * v * p * p / q))
        raise ValueError("normalization must be 'kernel' or 'preimage'")


def phi_sh0_lattice(coeffs, v, z, k=0, prec=DEFAULT_PRECISION):
    """The untwisted summand v^(1/2) y^(-2k-2) Q(zbar)^(k+1) e^(-pi v p^2)
    for a real-coefficient triple (a, b, c); used to measure the
    normalization dictionary against phi_sh0."""
    a, b, c = coeffs
    with _workdps(prec):
        z = mpc(z)
        x, y = z.real, z.imag
        p = -(a * (x * x + y * y) + b * x + c) / y
        zb = mpmath.conj(z)
        qbar = a * zb * zb + b * zb + c
        return (mpmath.sqrt(v) * y ** (-2 * k - 2) * qbar ** (k + 1)
                * mpmath.e ** (-mpmath.pi * v * p * p))


ETA_SINGULARITY_THRESHOLD = 1e-8


def eta(ctx, Q, z, method="recursion", prec=DEFAULT_PRECISION):
    """The Laplace preimage at Q, z.

    method="recursion": exact finite reduction of the tail integral to
    incomplete-gamma and erfc values (k <= 6).  method="quadrature":
    adaptive quadrature of the tail integral (any k); the two paths are
    played off against each other in the tests.
    """
    D = _check_disc(ctx, Q)
    k, v = ctx.k, ctx.v
    q = abs(ctx.delta)
    with _workdps(prec):
        z = mpc(z)
        y = z.imag
        p, qz, _ = form_polynomials(Q, z)
        if abs(qz) / (y * y) < ETA_SINGULARITY_THRESHOLD:
            raise ArithmeticError("z is too close to the singular locus of Q")
        A = abs(p) / mpmath.sqrt(q)
        c = mpmath.sqrt(mpmath.pi * v)
        if method == "recursion":
            if k > 6:
                raise ValueError("recursion path supports k <= 6")
            tail = mpf(0)
            for j in range(k + 1):
                tail += math.comb(k, j) * mpf(D) ** (k - j) * _erfc_moment(2 * j, A, c, prec)
        elif method == "quadrature":
            f = lambda t: (t * t + D) ** k * mpmath.erfc(c * t)
            tail = mpmath.quad(f, [A, A + 2 / c, mpmath.inf])
        else:
            raise ValueError("method must be 'recursion' or 'quadrature'")
        return -tail / (2 * qz ** (k + 1))


def _erfc_moment(m, A, c, prec):
    """int_A^oo t^m erfc(c t) dt for even m, by parts:
    -A^(m+1) erfc(cA)/(m+1) + Gamma(m/2+1, c^2 A^2) / ((m+1) sqrt(pi) c^(m+1))."""
    g = gamma_upper(m // 2 + 1, c * c * A * A, prec).value
    return (-A ** (m + 1) * mpmath.erfc(c * A) / (m + 1)
            + g / ((m + 1) * mpmath.sqrt(mpmath.pi) * c ** (m + 1)))


def xi_eta_closed(ctx, Q, z, prec=DEFAULT_PRECISION):
    """Closed form of xi_{2k+2} eta; jumps across the geodesic (p = 0
    rejected)."""
    _check_disc(ctx, Q)
    k, v = ctx.k, ctx.v
    q = abs(ctx.delta)
    with _workdps(prec):
        z = mpc(z)
        p, qz, _ = form_polynomials(Q, z)
        if p == 0:
            raise ArithmeticError("xi eta has a jump discontinuity at p = 0")
        return (qz ** k / (2 * mpf(q) ** (k + mpf(1) / 2))
                * mpmath.sign(p)
                * mpmath.erfc(mpmath.sqrt(mpmath.pi * v) * abs(p) / mpmath.sqrt(q)))


# ---------------------------------------------------------------------------
# finite-difference differential operators
# ---------------------------------------------------------------------------

def fd_operators(f, kappa, z):
    """Richardson-extrapolated central differences assembling

        xi_kappa f     = i y^kappa conj(f_x + i f_y)
        Delta_kappa f  = -y^2 (f_xx + f_yy) + i kappa y (f_x + i f_y)

    at z, from the steps h = mpf(1e-3) (eta-check's output depends on its
    bits) and h/2.  Non-finite samples raise.  It runs at the caller's
    precision: 10 guard digits would move its result from the 13th digit on.
    """
    z = mpc(z)
    y = z.imag
    h = mpf(1e-3)

    def stencil(hh):
        fxp, fxm = f(z + hh), f(z - hh)
        fyp, fym = f(z + 1j * hh), f(z - 1j * hh)
        f0 = f(z)
        for val in (fxp, fxm, fyp, fym, f0):
            if not mpmath.isfinite(val):
                raise ArithmeticError("non-finite sample in finite differences")
        fx = (fxp - fxm) / (2 * hh)
        fy = (fyp - fym) / (2 * hh)
        fxx = (fxp - 2 * f0 + fxm) / (hh * hh)
        fyy = (fyp - 2 * f0 + fym) / (hh * hh)
        return fx, fy, fxx, fyy

    c1 = stencil(h)
    c2 = stencil(h / 2)
    fx, fy, fxx, fyy = [(4 * b - a) / 3 for a, b in zip(c1, c2)]
    dz_bar = (fx + 1j * fy) / 2
    xi = 2j * y ** kappa * mpmath.conj(dz_bar)
    lap = -y * y * (fxx + fyy) + 1j * kappa * y * (fx + 1j * fy)
    return xi, lap


# ---------------------------------------------------------------------------
# truncated theta sums
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _theta_forms(delta, radius):
    """Admissible forms |a|,|b|,|c| <= radius with their characters,
    grouped as flat arrays (a, b, c, D, chi)."""
    q = abs(delta)
    sgn = 1 if delta > 0 else -1
    rows = []
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            for c in range(-radius, radius + 1):
                if a == 0 and b == 0 and c == 0:
                    continue
                disc = b * b - 4 * a * c
                if disc % q:
                    continue
                D = disc // q
                if (sgn * D) % 4 not in (0, 1):
                    continue
                chi = genus_char(delta, QForm(a, b, c))
                if chi == 0:
                    continue
                rows.append((a, b, c, D, chi))
    arr = np.array(rows, dtype=np.float64).reshape(-1, 5)
    return arr


def theta_truncated(ctx, z, by_D=False):
    """Finite theta sum over |a|,|b|,|c| <= truncation_radius.

    Returns (value, tail_bound) or, with by_D, (dict D -> partial sum,
    tail_bound).  The tail bound is the heuristic Gaussian boundary-shell
    estimate; if it exceeds 1e-3 relative the radius should be raised.
    """
    arr = _theta_forms(ctx.delta, ctx.truncation_radius)
    q = abs(ctx.delta)
    k = ctx.k
    v = float(ctx.v)
    u = float(ctx.u)
    zc = complex(z)
    x, y = zc.real, zc.imag
    a, b, c, D, chi = arr.T
    p = -(a * (x * x + y * y) + b * x + c) / y
    zb = np.conj(zc)
    qbar = a * zb * zb + b * zb + c
    pref = 2 * math.sqrt(v) / (q ** ((k + 1) / 2) * y ** (2 * k + 2))
    terms = (chi * qbar ** (k + 1)
             * np.exp(-4 * math.pi * v * p * p / q - 2 * math.pi * v * D)
             * np.exp(-2j * math.pi * D * u)) * pref
    shell = np.abs(np.stack([a, b, c])).max(axis=0) >= ctx.truncation_radius - 2
    tail = 3.0 * float(np.abs(terms[shell]).sum()) if shell.any() else 0.0
    if by_D:
        out = {}
        for Dv in np.unique(D):
            out[int(Dv)] = complex(terms[D == Dv].sum())
        return out, tail
    return complex(terms.sum()), tail


# ---------------------------------------------------------------------------
# the lift's constant term
# ---------------------------------------------------------------------------

def lift_constant_term(delta, k, a_plus_0, prec=DEFAULT_PRECISION):
    """(-1)^(k+1) |Delta|^(-k/2) a+(0) L_Delta(-k) / |Delta|^((k+1)/2):
    the q^0 coefficient of the lift's holomorphic part."""
    if not is_fundamental_discriminant(delta):
        raise ValueError("delta must be a fundamental discriminant")
    if (-1) ** (k + 1) * delta <= 0:
        raise ValueError("sign condition violated")
    with _workdps(prec):
        if not a_plus_0:
            return mpc(0)
        q = mpf(abs(delta))
        L = dirichlet_L(delta, -k, prec).value
        return ((-1) ** (k + 1) * q ** (-mpf(k) / 2) * a_plus_0 * L
                / q ** (mpf(k + 1) / 2))
