r"""
The direct (slow) lift quadrature in float64: the q^D coefficient of the
Shintani lift of the completed weight-2 Eisenstein series E2* (k = 0) by 2D
quadrature over the truncated fundamental domain, against the exact
12 H(|Delta|) H(D) / sqrt|Delta|.

numpy and qforms only: the lift-coeff command loads no mpmath.
"""

import math

import numpy as np

from .qforms import QForm, divisor_sigma1, genus_char, is_fundamental_discriminant


# E2*'s a+ to order 48: 1, then -24 sigma_1(n), the integers of forms.e2_star_data
_E2STAR_COEFFS = np.array([1] + [-24 * divisor_sigma1(n) for n in range(1, 49)],
                          dtype=np.float64)


def _e2star_np(z):
    """E2* in float64 at an array of points, the series cut after the first
    index whose tail at the lowest point is below 1e-17 (about 9 terms at
    height sqrt(3)/2)."""
    coeffs = _E2STAR_COEFFS
    terms = np.abs(coeffs) * np.exp(-2 * np.pi * z.imag.min()) ** np.arange(len(coeffs))
    tails = np.cumsum(terms[::-1])[::-1] - terms      # sum past each index
    cut = int(np.argmax(tails < 1e-17)) + 1
    return (np.polynomial.polynomial.polyval(np.exp(2j * np.pi * z), coeffs[:cut])
            - 3 / (np.pi * z.imag))


def _disc_forms(delta, D, radius):
    """All forms of discriminant |delta| D with 0 < |a| <= radius, |b| <= radius,
    together with their characters (a = 0 forms only exist for square disc
    and are excluded here)."""
    disc = abs(delta) * D
    rows = []
    for a in range(-radius, radius + 1):
        if a == 0:
            continue
        for b in range(-radius, radius + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            chi = genus_char(delta, QForm(a, b, c))
            if chi:
                rows.append((a, b, c, chi))
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


LIFT_KERNEL_DICTIONARY = -1.0   # times 1/|delta|; see docstring below
LIFT_PRUNE_BOUND = 1e-20        # drop forms whose scaled term stays below this
LIFT_ROUNDING_UNITS = 32        # float64 units of the absolute sum in the estimate


def _min_abs_p(a, C, ylow, T):
    """min of |p| = |a y + C/y| over y in [ylow, T], per form (a != 0): 0 if
    the geodesic crosses (y^2 = -C/a), else an endpoint or 2 sqrt(aC)."""
    r = C / a
    ends = np.minimum(np.abs(a * ylow + C / ylow), np.abs(a * T + C / T))
    pmin = np.where((r >= ylow * ylow) & (r <= T * T), 2 * np.sqrt(np.abs(a * C)), ends)
    return np.where((-r >= ylow * ylow) & (-r <= T * T), 0.0, pmin)


def _above_T_bound(disc, q, v, T):
    """A closed-form bound for |int_{-1/2}^{1/2} int_T^oo E2*(z) conj(theta(z))
    dy dx / y^2|, the part of F above y = T that the quadrature leaves out;
    inf unless m(T) below is positive and past the peak of g.

    A form (a, b, c) of discriminant disc has, with u = x + b/(2a),
    |p| >= m(y) + |a| u^2 / y, m(y) = |a| y - disc/(4 |a| y), and m(y) >= m(T)
    + |a| (y - T).  Its term |Q(zbar)| e^(-beta p^2) / y^2 = g(|p|) / y, g(p) =
    sqrt(p^2 + disc) e^(-beta p^2), beta = 4 pi v/q, decreases past the peak,
    and g(m + w) <= (sqrt(m^2 + disc) + 1/(e beta m)) e^(-beta m^2 - beta m w).
    The sum over b (u spaced 1/(2|a|)) is at most 1 + 2 sqrt(pi |a| T/(beta m(T))),
    the y-integral gives 1/(2 beta |a| m(T)), and |E2*| <= 1 + 3/(pi T) +
    24 sum n^2 e^(-2 pi n T).  Both signs of a are summed, a = 1, 2, ...
    """
    beta = 4 * math.pi * v / q
    r = math.exp(-2 * math.pi * T)
    e2 = 1 + 3 / (math.pi * T) + 24 * r * (1 + r) / (1 - r) ** 3
    s_peak = q / (8 * math.pi * v) - disc
    total, a = 0.0, 1
    while True:
        m = a * T - disc / (4 * a * T)
        if m <= 0 or m * m < s_peak:
            return math.inf
        term = (e2 * math.exp(-beta * m * m)
                * (a + (math.sqrt(disc) + 1 / (math.e * beta * m)) / T)
                * (1 + 2 * math.sqrt(math.pi * a * T / (beta * m))) / (beta * m * a))
        total += term
        if term <= 1e-30 * total:
            return total
        a += 1


def lift_coefficient_quadrature(delta, D, v=0.25, grid=12, radius=40):
    """The q^D Fourier coefficient of sqrt|Delta| I(E2*) by 2D quadrature
    over the truncated fundamental domain (k = 0).

    Restricts the theta kernel to discriminant-|Delta| D forms, integrates
    E2*(z) conj(A_D(v, z)) over F_T, and scales by sqrt|Delta| e^(4 pi D v).
    The cut height is T = max(6, sqrt(|Delta| D)/2 + 3): the a = +-1
    geodesics of discriminant |Delta| D reach height sqrt(|Delta| D)/2, and a
    fixed T below them leaves an O(1) part of F unintegrated.
    For non-square |Delta| D every term decays square-exponentially and the
    cusp counterterm vanishes identically; square |Delta| D would need the
    a+-(0) subtraction and is not supported by this routine.

    One array pass per x-node covers all its y-nodes.  On its segment a
    form's scaled term is at most T sqrt(p^2 + |Delta| D) e^(-4 pi v p^2 /
    |Delta|) at the least |p|; forms whose bound is below LIFT_PRUNE_BOUND
    are dropped and their integrated bound added to the error estimate.

    The kernel-pairing value differs from the trace normalization of the
    Fourier expansion by the constant factor -1/|delta| (same family as the
    phi0 kernel/preimage dictionary), measured across (delta, D, v), frozen
    in the tests and applied here.
    Returns (coefficient, error_estimate): the estimate is the change from a
    half-resolution pass, plus the pruned forms' bound, plus
    LIFT_ROUNDING_UNITS float64 units of the sum of the terms' magnitudes,
    plus _above_T_bound for the part of F above y = T.
    """
    if delta >= 0 or not is_fundamental_discriminant(delta):
        raise ValueError("delta must be a negative fundamental discriminant")
    if D <= 0:
        raise ValueError("needs D > 0")
    if grid < 1 or radius < 1:
        raise ValueError("grid and radius must be at least 1")
    if not v > 0:
        raise ValueError("v must be positive")
    disc = abs(delta) * D
    if math.isqrt(disc) ** 2 == disc:
        raise NotImplementedError(
            "square |delta| D needs the cusp counterterm; only the "
            "square-exponentially decaying (non-square) case is implemented")
    T = max(6.0, math.sqrt(disc) / 2 + 3)
    forms = _disc_forms(delta, D, radius)
    if len(forms) == 0:
        raise ValueError("no forms of this discriminant in the search box")
    q = abs(delta)
    a, b, c, chi = forms.T
    gx, gw = np.polynomial.legendre.leggauss(8)
    # sqrt(s + disc) e^(-4 pi v s / q) decreases in s = p^2 past s_peak
    s_peak = q / (8 * math.pi * v) - disc

    def integrate(nx, ny):
        total, dropped, size = 0.0 + 0j, 0.0, 0.0
        xedges = np.linspace(-0.5, 0.5, nx + 1)
        for xi0, xi1 in zip(xedges[:-1], xedges[1:]):
            xm, xh = (xi0 + xi1) / 2, (xi1 - xi0) / 2
            for xnode, xwt in zip(gx, gw):
                x = xm + xh * xnode
                ylow = math.sqrt(max(1 - x * x, 0.75))
                # geometric y-panels concentrated at the bottom
                yedges = ylow * ((T / ylow) ** (1.0 / ny)) ** np.arange(ny + 1)
                ym, yh = (yedges[1:] + yedges[:-1]) / 2, (yedges[1:] - yedges[:-1]) / 2
                ys = (ym[:, None] + yh[:, None] * gx).ravel()
                s = np.maximum(_min_abs_p(a, a * x * x + b * x + c, ylow, T) ** 2, s_peak)
                bound = T * np.sqrt(s + disc) * np.exp(-4 * math.pi * v * s / q)
                keep = bound >= LIFT_PRUNE_BOUND
                ak, bk, ck = a[keep], b[keep], c[keep]
                yy, zb = ys[:, None], x - 1j * ys[:, None]
                p = -(ak * (x * x + yy * yy) + bk * x + ck) / yy
                terms = (chi[keep] * (ak * zb ** 2 + bk * zb + ck)
                         * np.exp(-4 * math.pi * v * p * p / q))
                # E2* times the (positive) weights and A_D's 1/y^2
                w = xwt * xh * (yh[:, None] * gw).ravel() / (ys * ys)
                e2 = _e2star_np(x + 1j * ys) * w
                total += (e2 * np.conj(terms.sum(axis=1))).sum()
                dropped += bound[~keep].sum() * np.abs(e2).sum()
                size += np.abs(e2) @ np.abs(terms).sum(axis=1)
        return total, dropped, size

    coarse, drop_c, _ = integrate(grid, grid)
    fine, drop_f, size = integrate(2 * grid, 2 * grid)
    # sqrt|Delta| e^(4 pi D v) A_D's 2 sqrt(v) e^(-4 pi D v) / sqrt|Delta|, -1/|Delta|
    scale = 2 * math.sqrt(v) * (LIFT_KERNEL_DICTIONARY / q)
    rounding = LIFT_ROUNDING_UNITS * np.finfo(float).eps * size
    above = _above_T_bound(disc, q, v, T)
    return scale * fine, abs(scale) * (abs(fine - coarse) + drop_c + drop_f + rounding + above)
