"""Quadrature rules: nested Clenshaw-Curtis and the nested periodic
trapezoid rule."""

import pytest
import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import to_fixed

from shintani.quadrature import (clenshaw_curtis, integrate_cc_doubling,
                                 integrate_periodic_doubling)


def progression(f):
    """The periodic rule's integrand from a pointwise f: the sum of f over
    t, t + h, ..., t + (n - 1) h as a fixed-point pair 16 bits past the
    working precision, with the float sum of the samples' moduli."""
    def sums(t, h, n):
        bits = mp.prec + 16
        vals = [mpc(f(t + j * h)) for j in range(n)]
        pair = tuple(sum(to_fixed(getattr(v, part)._mpf_, bits) for v in vals)
                     for part in ("real", "imag"))
        return pair, bits, sum(abs(complex(v)) for v in vals)
    return sums


def test_clenshaw_curtis_nested_samples():
    # int_{-1}^{2} e^{ix} / (1 + x^2) dx against mpmath's own quadrature
    calls = []

    def f(x):
        calls.append(x)
        return mpmath.exp(1j * x) / (1 + x * x)

    val, err, n = integrate_cc_doubling(f, -1, 2, n0=8, tol=1e-25)
    exact = mpmath.quad(lambda x: mpmath.exp(1j * x) / (1 + x * x), [-1, 2])
    assert abs(val - exact) < 1e-28
    assert abs(val - exact) <= err
    assert len(calls) == n + 1 and len(set(calls)) == n + 1
    # the reversed interval gives the negated value
    back, _, _ = integrate_cc_doubling(f, 2, -1, n0=8, tol=1e-25)
    assert abs(back + val) < 1e-28


@pytest.mark.parametrize("n", [2, 8, 64])
def test_clenshaw_curtis_exact_on_polynomials(n):
    # the (n + 1)-point rule integrates every polynomial of degree <= n
    nodes, weights = clenshaw_curtis(n)
    assert len(nodes) == len(weights) == n + 1
    for deg in range(n + 1):
        exact = mpf(2) / (deg + 1) if deg % 2 == 0 else 0
        assert abs(mpmath.fdot(weights, [x ** deg for x in nodes]) - exact) < 1e-28


def test_clenshaw_curtis_raises_past_nmax():
    f = lambda x: 1 / (mpf("0.0001") + x * x)
    with pytest.raises(ArithmeticError):
        integrate_cc_doubling(f, -1, 1, 1e-20, n0=8, nmax=64)
    with pytest.raises(ValueError):
        clenshaw_curtis(7)


def test_periodic_trapezoid_nested_samples():
    # int_0^{2 pi} dt / (2 - cos t) = 2 pi / sqrt 3, over a shifted period
    calls = []

    def f(t):
        calls.append(t)
        return 1 / (2 - mpmath.cos(t))

    a = mpf("0.7")
    val, err, n = integrate_periodic_doubling(progression(f), a, a + 2 * mpmath.pi, tol=1e-25)
    exact = 2 * mpmath.pi / mpmath.sqrt(3)
    assert abs(val - exact) < 1e-28
    assert abs(val - exact) <= err
    assert len(calls) == n and len(set(calls)) == n
    # the reversed period gives the negated value
    back, _, _ = integrate_periodic_doubling(progression(f), a + 2 * mpmath.pi, a, tol=1e-25)
    assert abs(back + val) < 1e-28


def test_periodic_trapezoid_complex_exact_at_first_doubling():
    # a trigonometric polynomial of degree < 16 is integrated exactly from
    # the rule's 16 samples on, so the first doubling changes nothing
    f = lambda t: mpmath.e ** (3j * t) + 2 - 1j * mpmath.sin(5 * t)
    val, err, n = integrate_periodic_doubling(progression(f), 0, 2 * mpmath.pi, 1e-20)
    assert n == 32 and abs(val - 4 * mpmath.pi) < 1e-28 and err < 1e-28


def test_periodic_trapezoid_raises_past_nmax():
    f = lambda t: 1 / (mpf("1.0001") - mpmath.cos(t))
    with pytest.raises(ArithmeticError):
        integrate_periodic_doubling(progression(f), 0, 2 * mpmath.pi, 1e-20, nmax=64)
