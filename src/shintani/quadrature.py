"""Gauss-Legendre quadrature with high-precision nodes, and the nested
trapezoid rule for periodic integrands.

Gauss-Legendre nodes are seeded from numpy's float64 rule and
Newton-polished in mpmath, then cached per (n, dps).  Integrands may be
complex valued; intervals are finite (the analytic integrands in this
package are truncated explicitly).
"""

import itertools

import numpy as np
import mpmath
from mpmath import mp, mpf

_NODE_CACHE = {}


def _legendre_and_derivative(n, x):
    # P_n(x) and P_n'(x) by the three-term recurrence
    p0, p1 = mpf(1), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    dp = n * (x * p1 - p0) / (x * x - 1)
    return p1, dp


def gauss_legendre(n, dps=None):
    """Nodes and weights on [-1, 1] at dps working digits, ascending.

    The rule is symmetric (numpy's seeds are exactly so, and Newton's
    iteration commutes with x -> -x), so only the nonnegative half is
    polished and the other half is its mirror image.
    """
    if dps is None:
        dps = mp.dps
    key = (n, dps)
    if key in _NODE_CACHE:
        return _NODE_CACHE[key]
    with mp.workdps(dps + 10):
        seeds, _ = np.polynomial.legendre.leggauss(n)
        nodes, weights = [], []
        for s in seeds[n // 2:]:
            x = mpf(float(s))
            for _ in range(60):
                p, dp = _legendre_and_derivative(n, x)
                dx = p / dp
                x = x - dx
                if abs(dx) < mpf(10) ** (-dps - 5):
                    break
            _, dp = _legendre_and_derivative(n, x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        odd = n % 2
        nodes = [-x for x in reversed(nodes[odd:])] + nodes
        weights = weights[odd:][::-1] + weights
    _NODE_CACHE[key] = (nodes, weights)
    return nodes, weights


def integrate_gl(f, a, b, n=128):
    """Gauss-Legendre integral of f over [a, b] with n nodes."""
    a, b = mpf(a), mpf(b)
    nodes, weights = gauss_legendre(n)
    mid, half = (a + b) / 2, (b - a) / 2
    acc = 0
    for x, w in zip(nodes, weights):
        acc += w * f(mid + half * x)
    return half * acc


def _until_converged(levels, tol, nmax):
    """(value, changes, n) from the first of the successive (value, n)
    levels whose change from the previous one is at most tol (1 + |value|);
    changes lists the change under every doubling taken.  Raises past nmax."""
    prev, _ = next(levels)
    changes = []
    for cur, n in levels:
        changes.append(abs(cur - prev))
        if changes[-1] <= mpf(tol) * (1 + abs(cur)):
            return cur, changes, n
        if n >= nmax:
            raise ArithmeticError(
                f"quadrature did not converge below {tol} with {n} nodes "
                f"(last change {float(changes[-1]):.3e})")
        prev = cur


def integrate_gl_doubling(f, a, b, n0=64, tol=1e-20, nmax=2048):
    """Node-doubling Gauss-Legendre; returns (value, error_estimate, n_used).

    The error estimate is the change under the final doubling; failure to
    converge below tol raises.
    """
    levels = ((integrate_gl(f, a, b, n0 << i), n0 << i) for i in itertools.count())
    value, changes, n = _until_converged(levels, tol, nmax)
    return value, changes[-1], n


def integrate_periodic_doubling(f, a, b, n0=16, tol=1e-20, nmax=4096):
    """Nested trapezoid rule for f periodic with period b - a; returns
    (value, error_estimate, n_used).

    For a real-analytic periodic f the equispaced rule converges
    geometrically.  Each doubling samples only the new midpoints, so n_used
    is also the number of evaluations of f.  Convergence and failure as in
    integrate_gl_doubling.  After one doubling the error estimate is its
    change; after more, the last change squared over the one before (the
    rule's error is at most that while the changes shrink geometrically),
    plus a rounding floor eps |b - a| sum |f| over the samples.
    """
    a0, width = mpf(a), mpf(b) - mpf(a)
    size = 0.0       # float sum of |f| over the samples

    def total(ts):
        nonlocal size
        acc = 0
        for t in ts:
            v = f(t)
            acc += v
            size += abs(complex(v))
        return acc

    def levels():
        n, h = n0, width / n0
        acc = total(a0 + j * h for j in range(n))
        while True:
            yield h * acc, n
            h /= 2
            acc += total(a0 + (2 * j + 1) * h for j in range(n))
            n *= 2

    value, changes, n = _until_converged(levels(), tol, nmax)
    if len(changes) < 2:
        return value, changes[-1], n
    last, before = changes[-1], changes[-2]
    rate = last * last / before if before else last
    return value, rate + mp.eps * abs(width) * size, n
