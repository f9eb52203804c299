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

import mpmath
from mpmath import mp, mpc
from mpmath.libmp import to_fixed

from .qforms import mat_inv


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


def _fixed_point(x, y):
    """The point with raw mpf parts x and y as the fixed-point triple
    (x, y, bits), with mp.prec + 16 fractional bits plus those by which y
    lies below 1: the shape reduce_to_fundamental starts from and returns."""
    bits = mp.prec + 16 + max(0, -(y[2] + y[3]))
    return to_fixed(x, bits), to_fixed(y, bits), bits


def _moebius_fixed(gamma, z):
    """gamma z for an integer matrix of det 1, as the fixed-point triple
    (re, im, bits) of ((ax + b)(cx + d) + ac y^2 + i y) / |cz + d|^2, with
    bits fine enough that cz + d cancels exactly."""
    (a, b), (c, d) = gamma
    xm, ym = z._mpc_
    bits = mp.prec + 2 * max(abs(c), abs(d)).bit_length() + max(0, -(ym[2] + ym[3])) + 8
    X, Y, one = to_fixed(xm, bits), to_fixed(ym, bits), 1 << bits
    C = c * X + d * one
    den = C * C + c * c * Y * Y
    re = (((a * X + b * one) * C + a * c * Y * Y) << bits) // den
    return re, (Y << 2 * bits) // den, bits


def reduce_to_fundamental(z):
    """Move z into F = {|x| <= 1/2, |z| >= 1} by T/S words.

    Returns ((x, y, bits), gamma) with gamma z = z' = (x + iy) 2^-bits:
    z' as fixed-point integers, within a unit of their last bit and never
    rounded (eval_modular carries them on; mpmath.ldexp(x, -bits) reads a
    part).  Boundary ties go to x = -1/2 and, on |z| = 1, to Re(z) <= 0.
    The word is chosen by one T/S loop in fixed-point integers with
    mp.prec + log2(1/y) + 16 fractional bits, read off z's own bits (an mpc
    is not rounded first), and gamma is applied to z once.  Ties are
    decided within the caller's tie width 10^-(dps-5): more digits would
    move them.
    """
    if not isinstance(z, mpc):
        z = mpc(z)
    xm, ym = z._mpc_
    if ym[0] or not ym[1]:
        raise ValueError("z must lie in the upper half-plane")
    X, Y, bits = _fixed_point(xm, ym)
    one, eps = 1 << bits, (1 << bits) // 10 ** (mp.dps - 5)
    half = one >> 1
    a, b, c, d = 1, 0, 0, 1
    for _ in range(REDUCTION_MAX_STEPS):
        n = (X + half) >> bits
        # keep x = +1/2 ties on the -1/2 side
        if X - (n << bits) > half - eps:
            n += 1
        X, a, b = X - (n << bits), a - n * c, b - n * d
        r2 = X * X + Y * Y
        if r2 >= (one + eps) << bits or (r2 >= (one - eps) << bits and X <= eps):
            g = ((a, b), (c, d))
            return ((X, Y, bits) if g == ((1, 0), (0, 1)) else _moebius_fixed(g, z)), g
        # inside the unit circle, or on it with Re(z) > 0: z -> -1/z
        X, Y = (-X << 2 * bits) // r2, (Y << 2 * bits) // r2
        a, b, c, d = -c, -d, a, b
    raise ArithmeticError("fundamental-domain reduction did not terminate")
