"""Correctness oracles for the benchmark.

Every target here is computed by the benchmark's own code, by a route
different from the library call being timed: class numbers by a b-first
enumeration (the library enumerates a-first), characters by an own
Kronecker symbol, L(1, chi) by Dirichlet's log-sine sum (the library uses
digamma), and the weight-2 L-value by an own divisor sieve.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np


def kronecker(d, n):
    """The Kronecker symbol (d/n), with (d/-1) = sign(d)."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if d < 0:
            sign = -1
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            sign = -sign
    # Jacobi symbol (d/n), n odd and positive
    a = d % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _squarefree(n):
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return n != 0


def is_fundamental(d):
    if d % 4 == 1:
        return _squarefree(d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and _squarefree(d // 4)


def hurwitz(D):
    """H(D) by a b-first enumeration of reduced forms of discriminant -D.

    For each b >= 0 with b = D mod 2 the forms (a, +-b, c) with
    b <= a <= c and ac = (b^2 + D)/4 are counted, weighted 1/3 for
    (a, a, a), 1/2 for (a, 0, a) and counted once when b = 0, b = a or
    a = c (the boundary cases of reduction), twice otherwise.
    """
    if D == 0:
        return Fraction(-1, 12)
    if D % 4 not in (0, 3):
        return Fraction(0)
    thirds = halves = whole = 0
    for b in range(D % 2, math.isqrt(D // 3) + 1, 2):
        m = (b * b + D) // 4
        for a in range(max(b, 1), math.isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if a == b == c:
                thirds += 1
            elif b == 0 and a == c:
                halves += 1
            elif b == 0 or b == a or a == c:
                whole += 1
            else:
                whole += 2
    return Fraction(thirds, 3) + Fraction(halves, 2) + whole


def divisor_sums(n_max):
    """sigma_1(n) for 0 <= n <= n_max by a sieve."""
    s = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for m in range(d, n_max + 1, d):
            s[m] += d
    return s


def sigma_exp_sum(delta):
    """(2 sqrt q / pi) sum_n (delta/n) sigma_1(n)/n e^(-2 pi n / q), q = |delta|,
    at the current mpmath precision: the closed form of L*(E2*, 1)/(12 sqrt q)."""
    q = abs(delta)
    tiny = mpmath.mpf(10) ** (-(mpmath.mp.dps + 5))
    n_max = q
    while mpmath.exp(-2 * mpmath.pi * n_max / q) * (1 + math.log(n_max)) > tiny:
        n_max *= 2
    sig = divisor_sums(n_max)
    acc = mpmath.mpf(0)
    for n in range(1, n_max + 1):
        chi = kronecker(delta, n)
        if chi:
            acc += chi * mpmath.mpf(sig[n]) / n * mpmath.exp(-2 * mpmath.pi * n / q)
    return 2 * mpmath.sqrt(q) / mpmath.pi * acc


def h_log_eps(D):
    """sqrt(D) L(1, chi_D) = -sum_{0<r<D} chi_D(r) log sin(pi r / D) for a
    fundamental D > 0; equals h+(D) log eps+(D)."""
    acc = mpmath.mpf(0)
    for r in range(1, D):
        chi = kronecker(D, r)
        if chi:
            acc -= chi * mpmath.log(mpmath.sin(mpmath.pi * r / D))
    return acc


def genus_char(delta, a, b, c):
    """chi_delta on the form (a, b, c): (delta/n) for any represented n
    coprime to delta, 0 when gcd(a, b, c, delta) > 1."""
    q = abs(delta)
    if math.gcd(math.gcd(math.gcd(a, b), c), q) > 1:
        return 0
    for r in range(1, 60):
        for x in range(0, r + 1):
            for y in (r - x, x - r):
                n = a * x * x + b * x * y + c * y * y
                if n and math.gcd(n, q) == 1:
                    return kronecker(delta, n)
    raise ArithmeticError(f"no represented value coprime to {delta} for {(a, b, c)}")


def theta_table(delta, radius):
    """Rows (a, b, c, D, chi) of the admissible forms in the box |a|, |b|, |c| <= radius."""
    q = abs(delta)
    sgn = 1 if delta > 0 else -1
    rows = []
    rng = range(-radius, radius + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                disc = b * b - 4 * a * c
                if (a, b, c) == (0, 0, 0) or disc % q or (sgn * (disc // q)) % 4 > 1:
                    continue
                chi = genus_char(delta, a, b, c)
                if chi:
                    rows.append((a, b, c, disc // q, chi))
    return np.array(rows, dtype=np.float64)


def theta_sum(table, delta, k, tau, z):
    """The truncated theta kernel sum over the table rows, in float64."""
    q = abs(delta)
    u, v = tau.real, tau.imag
    x, y = z.real, z.imag
    a, b, c, D, chi = table.T
    p = -(a * (x * x + y * y) + b * x + c) / y
    zb = z.conjugate()
    qbar = a * zb * zb + b * zb + c
    pref = 2 * math.sqrt(v) / (q ** ((k + 1) / 2) * y ** (2 * k + 2))
    terms = chi * qbar ** (k + 1) * np.exp(-4 * math.pi * v * p * p / q - 2 * math.pi * v * D
                                           - 2j * math.pi * D * u)
    return complex(terms.sum()) * pref


def digits(abs_error, cap):
    """-log10 of an absolute error, capped at the working precision."""
    if abs_error <= 0:
        return float(cap)
    return min(float(cap), -math.log10(abs_error))
