"""Quadrature rules: the mirrored Gauss-Legendre build and the nested
periodic trapezoid rule."""

import numpy as np
import pytest
import mpmath
from mpmath import mp, mpf

from shintani.quadrature import gauss_legendre, integrate_periodic_doubling


def _full_gauss_legendre(n, dps):
    """Every node Newton-polished from its own numpy seed (no mirroring)."""
    def p_and_dp(x):
        p0, p1 = mpf(1), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        return p1, n * (x * p1 - p0) / (x * x - 1)

    with mp.workdps(dps + 10):
        seeds, _ = np.polynomial.legendre.leggauss(n)
        nodes, weights = [], []
        for s in seeds:
            x = mpf(float(s))
            for _ in range(60):
                p, dp = p_and_dp(x)
                dx = p / dp
                x = x - dx
                if abs(dx) < mpf(10) ** (-dps - 5):
                    break
            dp = p_and_dp(x)[1]
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


@pytest.mark.parametrize("n", [64, 128])
def test_gauss_legendre_mirror_bit_identical(n):
    nodes, weights = gauss_legendre(n, 30)
    ref_nodes, ref_weights = _full_gauss_legendre(n, 30)
    assert [x._mpf_ for x in nodes] == [x._mpf_ for x in ref_nodes]
    assert [w._mpf_ for w in weights] == [w._mpf_ for w in ref_weights]
    assert all(a < b for a, b in zip(nodes, nodes[1:]))


def test_gauss_legendre_odd_order_keeps_zero_node():
    nodes, weights = gauss_legendre(7, 30)
    assert len(nodes) == len(weights) == 7 and nodes[3] == 0
    assert abs(sum(weights) - 2) < 1e-28


def test_periodic_trapezoid_nested_samples():
    # int_0^{2 pi} dt / (2 - cos t) = 2 pi / sqrt 3, over a shifted period
    calls = []

    def f(t):
        calls.append(t)
        return 1 / (2 - mpmath.cos(t))

    a = mpf("0.7")
    val, err, n = integrate_periodic_doubling(f, a, a + 2 * mpmath.pi, n0=8, tol=1e-25)
    exact = 2 * mpmath.pi / mpmath.sqrt(3)
    assert abs(val - exact) < 1e-28
    assert abs(val - exact) <= err
    assert len(calls) == n and len(set(calls)) == n
    # the reversed period gives the negated value
    back, _, _ = integrate_periodic_doubling(f, a + 2 * mpmath.pi, a, n0=8, tol=1e-25)
    assert abs(back + val) < 1e-28


def test_periodic_trapezoid_complex_exact_at_first_doubling():
    # a trigonometric polynomial of degree < n0 is integrated exactly
    f = lambda t: mpmath.e ** (3j * t) + 2 - 1j * mpmath.sin(5 * t)
    val, err, n = integrate_periodic_doubling(f, 0, 2 * mpmath.pi, n0=8)
    assert n == 16 and abs(val - 4 * mpmath.pi) < 1e-28 and err < 1e-28


def test_periodic_trapezoid_raises_past_nmax():
    f = lambda t: 1 / (mpf("1.0001") - mpmath.cos(t))
    with pytest.raises(ArithmeticError):
        integrate_periodic_doubling(f, 0, 2 * mpmath.pi, n0=8, nmax=64)
