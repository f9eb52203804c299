r"""
Upper half-plane geometry attached to a binary quadratic form.

For z = x + iy with y > 0 and a form Q = (a, b, c):

    p_z(Q)  = -(a|z|^2 + b x + c)/y        (vanishes exactly on the geodesic)
    Q_z     = a z^2 + b z + c              (vanishes exactly at the CM point)
    r(Q, z) = |Q_z|^2 / y^2 = p_z(Q)^2 + disc(Q)

A positive definite form has the CM point z_Q = (-b + i sqrt(|disc|))/(2a);
an indefinite form has the oriented geodesic a|z|^2 + bx + c = 0 (semicircle
from (-b - sqrt(disc))/2a to (-b + sqrt(disc))/2a when a != 0, a vertical
line when a = 0, upward iff b > 0).

The SL_2(Z) action: gamma acts on points by fractional linear maps and on
forms by gamma . Q = Q o gamma^{-1}, so that p_{gamma z}(gamma . Q) = p_z(Q)
and z_{gamma . Q} = gamma z_Q.
"""

import math

import mpmath
from mpmath import mp, mpf, mpc
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .qforms import mat_inv, mat_mul


def form_polynomials(Q, z):
    """(p, qz, r) at z; r - p^2 = disc(Q) identically."""
    z = mpc(z)
    x, y = z.real, z.imag
    if y <= 0:
        raise ValueError("z must lie in the upper half-plane")
    p = -(Q.a * (x * x + y * y) + Q.b * x + Q.c) / y
    qz = Q.a * z * z + Q.b * z + Q.c
    r = abs(qz) ** 2 / (y * y)
    return p, qz, r


def cm_point(Q):
    """CM point of a positive definite form: the root of Q(z, 1) in H."""
    if Q.disc >= 0:
        raise ValueError("cm_point requires disc < 0")
    if Q.a <= 0:
        raise ValueError("cm_point requires a positive definite form (a > 0)")
    return mpc(-Q.b, mpmath.sqrt(-Q.disc)) / (2 * Q.a)


def apply_moebius(gamma, z):
    """Fractional linear action of an integer matrix with det 1."""
    (a, b), (c, d) = gamma
    if a * d - b * c != 1:
        raise ValueError("apply_moebius expects det 1")
    z = mpc(z)
    return (a * z + b) / (c * z + d)


def act_on_form(gamma, Q):
    """gamma . Q = Q o gamma^{-1} (discriminant preserved)."""
    return Q.compose(mat_inv(gamma))


REDUCTION_MAX_STEPS = 10000   # T/S steps before reduction gives up
_UNIT = 2.0 ** -52      # float rounding, with room
_CLEAR = 2.0 ** -30     # least clearance of a decision taken in floats


def _float_word(x, y, eps, max_steps):
    """The T/S word the exact loop would take from x + iy, chosen in floats.

    e bounds |float z - z|; a decision is taken only while it clears its
    boundary by more than 4 e plus the tie width eps plus _CLEAR, and the
    first one that does not ends the word.  Returns (gamma, steps, inside),
    inside telling that the word ended with z clearly inside F; the empty
    word where z is beyond the float range."""
    g = ((1, 0), (0, 1))
    if not (math.isfinite(x) and math.isfinite(y)):
        return g, 0, False
    e = (abs(x) + y) * _UNIT
    for step in range(max_steps):
        n = math.floor(x + 0.5)
        f = x - n
        if abs(f) >= 0.5 - (4 * e + eps + _CLEAR):
            return g, step, False
        (a, b), (c, d) = g
        a, b = a - n * c, b - n * d
        r2 = f * f + y * y
        m2 = 4 * (2 * math.sqrt(r2) * e + e * e + r2 * _UNIT) + eps + _CLEAR
        if r2 > 1 + m2:
            return ((a, b), (c, d)), step + 1, True
        r = math.sqrt(r2)
        if r2 >= 1 - m2 or r <= 2 * e or r2 < 1e-150:
            return ((a, b), (c, d)), step, False
        x, y = -f / r2, y / r2
        e = (e / (r - e) + 8 * _UNIT) / r
        g = ((-c, -d), (a, b))
    return g, max_steps, False


def _moebius_fixed(gamma, z):
    """gamma z for an integer matrix of det 1, as
    ((ax + b)(cx + d) + ac y^2 + i y) / |cz + d|^2 in fixed-point integers
    fine enough that cz + d cancels exactly; rounded once to mp.prec."""
    (a, b), (c, d) = gamma
    xm, ym = z._mpc_
    bits = mp.prec + 2 * max(abs(c), abs(d)).bit_length() + max(0, -(ym[2] + ym[3])) + 8
    X, Y, one = to_fixed(xm, bits), to_fixed(ym, bits), 1 << bits
    C = c * X + d * one
    den = C * C + c * c * Y * Y
    re = (((a * X + b * one) * C + a * c * Y * Y) << bits) // den
    im = (Y << 2 * bits) // den
    return mp.make_mpc((from_man_exp(re, -bits, mp.prec, round_nearest),
                        from_man_exp(im, -bits, mp.prec, round_nearest)))


def reduce_to_fundamental(z):
    """Move z into F = {|x| <= 1/2, |z| >= 1} by T/S words.

    Returns (z', gamma) with gamma z = z'.  Boundary ties go to x = -1/2
    and, on |z| = 1, to Re(z) <= 0.  The word is chosen in floats while
    every decision is clear (_float_word) and gamma is applied to z once;
    where a decision was not clear, the exact loop takes over from there
    and decides ties and near-boundary points.  It runs at the caller's
    precision, as must its tie width 10^-(dps-5): more digits move ties.
    """
    z = mpc(z)
    if z.imag <= 0:
        raise ValueError("z must lie in the upper half-plane")
    g, steps, inside = _float_word(float(z.real), float(z.imag), 10.0 ** (5 - mp.dps),
                                   REDUCTION_MAX_STEPS)
    if g != ((1, 0), (0, 1)):
        z = _moebius_fixed(g, z)
    if inside:
        return z, g
    eps, half = mpf(10) ** (-(mp.dps - 5)), mpf(0.5)
    S = ((0, -1), (1, 0))
    for _ in range(REDUCTION_MAX_STEPS - steps):
        n = int(mpmath.floor(z.real + half))
        # keep x = +1/2 ties on the -1/2 side
        if z.real - n > half - eps:
            n += 1
        if n:
            T = ((1, -n), (0, 1))
            z = z - n
            g = mat_mul(T, g)
        r2 = abs(z) ** 2
        if r2 < 1 - eps or (r2 < 1 + eps and z.real > eps):
            # inside the unit circle, or on it with Re(z) > 0
            z = -1 / z
            g = mat_mul(S, g)
            continue
        return z, g
    raise ArithmeticError("fundamental-domain reduction did not terminate")
