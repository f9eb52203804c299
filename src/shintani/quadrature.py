"""Nested quadrature rules: Clenshaw-Curtis on a finite interval and the
trapezoid rule over one period of a periodic integrand.

Both double their node count until two successive levels agree to the
tolerance, and both nest: every node of one level is a node of the next,
so each doubling evaluates the integrand only at the new nodes.
Clenshaw-Curtis is the trapezoid rule in theta = arccos x applied to
f(cos theta); its nodes cos(j pi / n) are explicit, and each weight is one
cosine sum (Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?",
SIAM Rev. 50 (2008)).  Nodes and weights are cached per (n, mp.prec).
The trapezoid rule's new nodes at each level are one arithmetic
progression, and its integrand returns their sum in fixed point, so that
the integrand can walk the progression in its own arithmetic and the rule
rounds to an mpc once a level.  The rules take no Precision: they run at
the caller's mp.prec, to the caller's tolerance (specfun._tol).

For real-analytic integrands both rules converge geometrically, so the
error estimate is the change under the one doubling taken, or, once three
levels exist, the last change squared over the one before; either way plus
a rounding floor from the samples' own rounding and the running sum's.
Integrands may be complex valued; intervals are finite (the analytic
integrands in this package are truncated explicitly).
"""

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest

_CC_CACHE = {}


def clenshaw_curtis(n):
    """Nodes cos(j pi / n), j = 0..n, and weights of the (n + 1)-point
    Clenshaw-Curtis rule on [-1, 1] at mp.prec, for even n."""
    if n < 2 or n % 2:
        raise ValueError("Clenshaw-Curtis needs an even n >= 2")
    key = (n, mp.prec)
    if key not in _CC_CACHE:
        half = n // 2
        nodes = [mpmath.cospi(mpf(j) / n) for j in range(n + 1)]
        cos = nodes + nodes[-2:0:-1]            # cos(m pi / n), m < 2n
        coef = [mpf(2) / (4 * k * k - 1) for k in range(1, half + 1)]
        coef[-1] /= 2
        weights = [(1 - mpmath.fdot(coef, [cos[2 * k * j % (2 * n)]
                                           for k in range(1, half + 1)])) * 2 / n
                   for j in range(half + 1)]
        weights[0] /= 2
        _CC_CACHE[key] = nodes, weights + weights[half - 1::-1]
    return _CC_CACHE[key]


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


def _error_estimate(changes, width, size, n):
    """The change under a single doubling; after more, the last change
    squared over the one before (the rule's error is at most that while the
    changes shrink geometrically).  Either way plus the rounding floor
    eps |width| size (n + 1)/n, size being the float sum of |f| over the n
    samples: each sample arrives rounded to the working precision, within
    eps |f| of its value, and each of at most n additions to a running sum
    rounds by at most eps size; a weight of about |width|/n carries both
    into the value."""
    last = changes[-1]
    if len(changes) > 1 and changes[-2]:
        last = last * last / changes[-2]
    return last + mp.eps * abs(width) * size * (n + 1) / n


def integrate_cc_doubling(f, a, b, tol, n0=16, nmax=4096):
    """Nested Clenshaw-Curtis rule for f over [a, b] (n0 even); returns
    (value, error_estimate, n_used) after n_used + 1 evaluations of f.
    Convergence and failure as in _until_converged, the estimate as in
    _error_estimate."""
    a, b = mpf(a), mpf(b)
    mid, half = (a + b) / 2, (b - a) / 2
    size = 0.0       # float sum of |f| over the samples

    def samples(xs):
        nonlocal size
        vals = [f(mid + half * x) for x in xs]
        size += sum(abs(complex(v)) for v in vals)
        return vals

    def levels():
        n = n0
        vals = samples(clenshaw_curtis(n)[0])
        while True:
            yield half * mpmath.fdot(clenshaw_curtis(n)[1], vals), n
            new = samples(clenshaw_curtis(2 * n)[0][1::2])
            vals = [v for pair in zip(vals, new) for v in pair] + vals[-1:]
            n *= 2

    value, changes, n = _until_converged(levels(), tol, nmax)
    return value, _error_estimate(changes, b - a, size, n), n


def integrate_periodic_doubling(f, a, b, tol, nmax=4096):
    """Nested trapezoid rule for f periodic with period b - a, from 16
    samples; returns (value, error_estimate, n_used).

    f is asked for sums over arithmetic progressions: f(t, h, n) returns
    the sum of the samples at t, t + h, ..., t + (n - 1) h as (pair, bits,
    size), a fixed-point pair (re, im) with `bits` fractional bits and the
    float sum of the samples' moduli.  The rule passes t and h exactly
    (each level's midpoints start at a + h/2), adds each level's new sum to
    the last in fixed point at the larger of the two bits, and rounds h
    times that sum to an mpc once a level.  For a real-analytic periodic f
    the equispaced rule converges geometrically; each doubling samples only
    the new midpoints, so n_used is also the number of samples.
    Convergence, failure and the error estimate as in integrate_cc_doubling.
    """
    a0, width = mpf(a), mpf(b) - mpf(a)
    size = 0.0       # float sum of |f| over the samples

    def scaled(pair, bits, h):
        sign, man, exp, _ = h._mpf_
        man = -man if sign else man
        return mp.make_mpc(tuple(from_man_exp(t * man, exp - bits, mp.prec, round_nearest)
                                 for t in pair))

    def levels():
        nonlocal size
        n, h = 16, width / 16
        acc, bits, size = f(a0, h, n)
        while True:
            yield scaled(acc, bits, h), n
            new, nbits, s = f(mpmath.fadd(a0, h / 2, exact=True), h, n)
            size += s
            if nbits > bits:
                acc, bits, new, nbits = new, nbits, acc, bits
            acc = tuple(x + (y << bits - nbits) for x, y in zip(acc, new))
            h /= 2
            n *= 2

    value, changes, n = _until_converged(levels(), tol, nmax)
    return value, _error_estimate(changes, width, size, n), n
