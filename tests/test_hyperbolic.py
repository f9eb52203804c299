"""Upper half-plane geometry: form polynomials, CM points, geodesics,
group actions, fundamental-domain reduction."""

import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc

from shintani import cycles as cy
from shintani import forms as fo
from shintani import hyperbolic as hy
from shintani import qforms as qf
from shintani.qforms import QForm
from test_qforms import random_sl2


def random_z(rng, ymin=0.2, ymax=3.0):
    return mpc(rng.uniform(-2, 2), rng.uniform(ymin, ymax))


def random_form(rng, lo=-5, hi=5):
    while True:
        Q = QForm(rng.randint(lo, hi) or 1, rng.randint(lo, hi),
                  rng.randint(lo, hi) or 2)
        if Q.disc != 0:
            return Q


# ---------------------------------------------------------------------------
# form polynomials
# ---------------------------------------------------------------------------

def test_form_polynomials_vertical_geodesic():
    p, qz, r = hy.form_polynomials(QForm(0, 1, 0), mpc(0, 1.7))
    assert abs(p) < 1e-28


def test_form_polynomials_cm_point():
    p, qz, r = hy.form_polynomials(QForm(1, 0, 1), mpc(0, 1))
    assert abs(qz) < 1e-28 and abs(r) < 1e-28
    assert abs(p - (-2)) < 1e-28


def test_r_identity():
    # |Q(z,1)|^2 / y^2 - p^2 = disc  (algebraic identity; the sign is fixed
    # by the CM-point evaluation above, where r = 0 and p^2 = -disc)
    rng = random.Random(77)
    for _ in range(1000):
        Q = random_form(rng)
        z = random_z(rng)
        p, qz, r = hy.form_polynomials(Q, z)
        assert abs(r - p * p - Q.disc) <= 1e-9 * (1 + abs(r))


# ---------------------------------------------------------------------------
# CM points and geodesics
# ---------------------------------------------------------------------------

def test_cm_point_examples():
    assert abs(hy.cm_point(QForm(1, 0, 1)) - mpc(0, 1)) < 1e-28
    rho = (-1 + 1j * mpmath.sqrt(3)) / 2
    assert abs(hy.cm_point(QForm(1, 1, 1)) - rho) < 1e-28
    expect = (-1 + 1j * mpmath.sqrt(7)) / 4
    assert abs(hy.cm_point(QForm(2, 1, 1)) - expect) < 1e-28


def test_cm_point_rejects_indefinite():
    with pytest.raises(ValueError):
        hy.cm_point(QForm(1, 0, -1))


def test_geodesic_membership():
    # every node closed_cycle_integral samples lies on Q's geodesic,
    # p_z(Q) = 0, for the class representatives and their negatives
    E2 = fo.e2_star_data(64)
    worst = 0.0
    for disc in (5, 8, 12, 13, 21, 33, 40, 48):
        for R in qf.class_reps(disc).reps:
            for Q in (R, R.neg()):
                nodes = []

                def ev(z):
                    nodes.append(z)
                    return fo.eval_modular(E2, z)[0]

                cy.closed_cycle_integral(ev, Q, 0)
                worst = max(worst, max(abs(hy.form_polynomials(Q, z)[0]) for z in nodes))
    assert worst < 1e-25, worst


# ---------------------------------------------------------------------------
# group actions
# ---------------------------------------------------------------------------

def test_identity_action():
    z = mpc(0.3, 0.9)
    assert hy.apply_moebius(qf.IDENTITY, z) == z
    Q = QForm(2, 1, 3)
    assert hy.act_on_form(qf.IDENTITY, Q) == Q


def test_transformation_rules():
    # p_{gamma z}(Q) = p_z(gamma^{-1} Q) and r(Q, gamma z) = r(gamma^{-1} Q, z)
    rng = random.Random(31)
    for _ in range(100):
        Q = random_form(rng, -4, 4)
        gamma = random_sl2(rng)
        z = random_z(rng, 0.4, 2.0)
        gz = hy.apply_moebius(gamma, z)
        ginvQ = hy.act_on_form(qf.mat_inv(gamma), Q)
        p1, _, r1 = hy.form_polynomials(Q, gz)
        p2, _, r2 = hy.form_polynomials(ginvQ, z)
        assert abs(p1 - p2) < 1e-10 * (1 + abs(p1))
        assert abs(r1 - r2) < 1e-9 * (1 + abs(r1))


def test_cm_equivariance():
    rng = random.Random(53)
    for _ in range(100):
        disc = rng.choice([-3, -4, -7, -20, -23])
        Q = rng.choice(qf.class_reps(disc).reps)
        gamma = random_sl2(rng)
        gQ = hy.act_on_form(gamma, Q)
        if gQ.a < 0:
            gQ = gQ.neg()
        lhs = hy.cm_point(gQ)
        rhs = hy.apply_moebius(gamma, hy.cm_point(Q))
        assert abs(lhs - rhs) < 1e-10


def test_moebius_requires_det_one():
    with pytest.raises(ValueError):
        hy.apply_moebius(((2, 0), (0, 1)), mpc(0, 1))


# ---------------------------------------------------------------------------
# fundamental domain
# ---------------------------------------------------------------------------

def _reduced(z0):
    # reduce_to_fundamental's point rounded to an mpc at the working precision
    (x, y, bits), g = hy.reduce_to_fundamental(z0)
    return mpc(+mpmath.ldexp(x, -bits), +mpmath.ldexp(y, -bits)), g


def test_reduce_to_fundamental_examples():
    z, g = _reduced(mpc(0, 1))
    assert abs(z - mpc(0, 1)) < 1e-25 and g == qf.IDENTITY
    z, g = _reduced(mpc(0.5, 2))
    assert abs(z - mpc(-0.5, 2)) < 1e-25
    assert g == ((1, -1), (0, 1))


def test_reduce_to_fundamental_random():
    rng = random.Random(61)
    for _ in range(100):
        z0 = mpc(rng.uniform(-3, 3), rng.uniform(0.05, 4))
        z, g = _reduced(z0)
        assert abs(z.real) <= 0.5 + 1e-20
        assert abs(z) >= 1 - 1e-20
        assert abs(hy.apply_moebius(g, z0) - z) < 1e-12


def test_reduce_to_fundamental_triple_is_gamma_z():
    # the fixed-point triple is gamma z0 to a unit of its last bit, identity
    # words (points already in F) and deep points included
    rng = random.Random(62)
    for _ in range(100):
        z0 = mpc(rng.uniform(-3, 3), 10 ** rng.uniform(-8, 0.5))
        (x, y, bits), g = hy.reduce_to_fundamental(z0)
        assert bits >= mp.prec + 8
        with mp.workprec(bits + 64):
            exact = hy.apply_moebius(g, z0)
            assert abs(x - exact.real * 2 ** bits) <= 1
            assert abs(y - exact.imag * 2 ** bits) <= 1


def _reduce_exact_loop(z, max_steps=10000):
    # the T/S loop in plain mpmath, run 60 digits past the caller's precision
    # with the caller's tie width 10^-(dps-5): the oracle for the word
    g = ((1, 0), (0, 1))
    S = ((0, -1), (1, 0))
    eps = mpf(10) ** (-(mp.dps - 5))
    with mp.workdps(mp.dps + 60):
        z = mpc(z)
        for _ in range(max_steps):
            n = int(mpmath.floor(z.real + mpf(1) / 2))
            if z.real - n > mpf(1) / 2 - eps:
                n += 1
            if n:
                z = z - n
                g = qf.mat_mul(((1, -n), (0, 1)), g)
            r2 = abs(z) ** 2
            if r2 < 1 - eps or (r2 < 1 + eps and z.real > eps):
                z = -1 / z
                g = qf.mat_mul(S, g)
                continue
            return z, g
    raise ArithmeticError("no termination")


_heights = st.floats(-8, 1).map(lambda e: mpf(10) ** e)
_points = st.one_of(
    st.builds(mpc, st.floats(-3, 3), _heights),
    # on the lines x = k +- 1/2
    st.builds(lambda k, s, y: mpc(k + s * mpf(1) / 2, y),
              st.integers(-3, 3), st.sampled_from([-1, 1]), _heights),
    # on the unit circle and its translates
    st.builds(lambda k, t: k + mpmath.expjpi(t), st.integers(-2, 2), st.floats(0.001, 0.999)),
    st.builds(lambda k: mpc(k, 1), st.integers(-2, 2)),
    # near cusps p/q, where the word is long
    st.builds(lambda p, q, y: mpc(mpf(p) / q, y),
              st.integers(-40, 40), st.integers(1, 40), _heights),
)


@settings(max_examples=300)
@given(z0=_points)
def test_reduce_to_fundamental_matches_exact_loop(z0):
    # the fixed-point loop chooses the wide loop's word, ties included, and
    # the point is no further from gamma z0 than the wide loop's
    z, g = _reduced(z0)
    want_z, want_g = _reduce_exact_loop(z0)
    assert g == want_g
    (a, b), (c, d) = g
    with mp.workdps(mp.dps + 40):
        exact = (a * z0 + b) / (c * z0 + d)
    assert abs(z - exact) <= abs(want_z - exact) + mpf(2) ** (8 - mp.prec) * abs(exact)


def test_reduce_to_fundamental_beyond_float_range():
    # x past the float range: the first T step removes it exactly
    z0 = mpc(mpf("1e400"), 2)
    z, g = _reduced(z0)
    assert g == _reduce_exact_loop(z0)[1]
    assert abs(z.real) <= 0.5 and abs(z - mpc(0, 2)) < 1e-20


@pytest.mark.parametrize("dps", [15, 30, 40])
@pytest.mark.parametrize("y", ["1e-5", "6.4e-7", "1e-8"])
def test_reduce_to_fundamental_deep_ties(dps, y):
    # k +- 1/2 + iy is equivalent to -1/2 + i/(4y) on F's boundary: the word
    # must reach the tie and send it to x = -1/2, however deep y lies
    with mp.workdps(dps):
        eps = mpf(10) ** (-(dps - 5))
        for k in (-2, 0, 3):
            for s in (-1, 1):
                z0 = mpc(k + s * mpf(1) / 2, mpf(y))
                z, g = _reduced(z0)
                assert abs(z.real + mpf(1) / 2) <= eps, (k, s, str(z))
                assert abs(z.imag * 4 * mpf(y) - 1) <= eps, (k, s, str(z))


def test_reduce_to_fundamental_rejects_lower_half():
    with pytest.raises(ValueError):
        hy.reduce_to_fundamental(mpc(0, -1))
