"""Fourier data: the classical level-1 forms, the completed weight-2
Eisenstein series, harmonic Fourier data and the xi-operator."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, mpc

from shintani import forms as fo
from shintani import hyperbolic
from shintani import qforms as qf
from shintani.forms import HarmonicFourierData
from shintani.specfun import Precision

F = fo.build_standard_forms(64)


# ---------------------------------------------------------------------------
# standard forms
# ---------------------------------------------------------------------------

def test_delta_normalized():
    assert F["DeltaCusp"].a_plus.get(1, 0) == 1
    assert F["DeltaCusp"].a_plus.get(0, 0) == 0
    assert F["DeltaCusp"].a_plus.get(2, 0) == -24


def test_j_coefficient_independent_route():
    # series division oracle: j - 1728 = E6^2/Delta, computed independently
    assert F["j"].a_plus.get(-1, 0) == 1
    assert F["j"].a_plus.get(1, 0) == 196884
    order = 16
    sigma = lambda n, k: sum(d ** k for d in range(1, n + 1) if n % d == 0)
    e6 = [1] + [-504 * sigma(n, 5) for n in range(1, order + 1)]
    e6_2 = fo._series_mul(e6, e6, order)
    e4 = [1] + [240 * sigma(n, 3) for n in range(1, order + 1)]
    e4_3 = fo._series_mul(fo._series_mul(e4, e4, order), e4, order)
    delta = [(x - y) // 1728 for x, y in zip(e4_3, e6_2)][1:]
    inv = fo._series_inv(delta, order)
    other = fo._series_mul(e6_2, inv, order)   # (j - 1728) * q
    for n in range(-1, 10):
        assert F["j"].a_plus.get(n, 0) - (1728 if n == 0 else 0) == other[n + 1]


def test_j_first_coefficients_positive():
    for n in range(1, 11):
        c = F["j"].a_plus.get(n, 0)
        assert isinstance(c, int) and c > 0


def test_J_constant_term_zero():
    assert F["J"].a_plus.get(0, 0) == 0


def test_build_rejects_tiny_order():
    with pytest.raises(ValueError):
        fo.build_standard_forms(1)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_J_at_i_stabilization_oracle():
    # j(i) = 1728 observed by stabilization across truncation orders
    for order in (50, 80):
        Fo = fo.build_standard_forms(order)
        v, tail = fo.eval_modular(Fo["j"], mpc(0, 1))
        assert abs(v - 1728) < 1e-12
    v, _ = fo.eval_modular(F["J"], mpc(0, 1))
    assert abs(v - 984) < 1e-12


def test_eval_J_at_rho():
    rho = (mpc(-1) + 1j * mpmath.sqrt(3)) / 2
    v, _ = fo.eval_modular(F["J"], rho)
    assert abs(v + 744) < 1e-12


def test_delta_positive_on_imaginary_axis():
    for y in (mpf(1), mpf(2)):
        v, _ = fo.eval_qexp(F["DeltaCusp"], mpc(0, y))
        assert abs(v.imag) < 1e-25
        assert v.real > 0


def test_eval_qexp_tail_failure():
    # below y = ln 2 / 2 pi, for q-series and harmonic Fourier data alike
    for f in (F["j"], fo.e2_star_data(16)):
        with pytest.raises(fo.TailBoundError):
            fo.eval_qexp(f, mpc(0, 0.05))


def test_weight_functional_equation():
    rng = random.Random(3)
    for name, w in (("E4", 4), ("E6", 6), ("DeltaCusp", 12)):
        for _ in range(20):
            z = mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 1.8))
            v1, t1 = fo.eval_qexp(F[name], -1 / z)
            v2, t2 = fo.eval_qexp(F[name], z)
            assert abs(v1 - z ** w * v2) <= 10 * (t1 + t2 * abs(z) ** w) + mpf(10) ** (-20)


# ---------------------------------------------------------------------------
# E2*
# ---------------------------------------------------------------------------

def _e2_star(z):
    # E2* summed from its Fourier data at z itself, with no reduction
    return fo.eval_qexp(fo.e2_star_data(64), z)[0]


def test_e2_star_weight_two():
    z = mpc("0.3", "1.1")
    lhs = _e2_star(-1 / z)
    rhs = z ** 2 * _e2_star(z)
    assert abs(lhs - rhs) < 1e-12


def test_e2_star_periodicity():
    z = mpc("0.27", "0.95")
    assert abs(_e2_star(z + 1) - _e2_star(z)) < 1e-25


def _e2_star_oracle(z, digits=50):
    # 1 - 24 sum sigma_1(n) q^n - 3/(pi y), sigma_1 by trial division, summed
    # until the terms drop below 10^-(digits - 5)
    with mp.workdps(digits):
        z = mpc(z)
        q = mpmath.exp(2j * mpmath.pi * z)
        acc, n = mpc(1), 0
        while True:
            n += 1
            term = 24 * sum(d for d in range(1, n + 1) if n % d == 0) * q ** n
            acc -= term
            if abs(term) < mpf(10) ** (5 - digits):
                return acc - 3 / (mpmath.pi * z.imag)


def test_e2_star_data_matches_direct():
    rng = random.Random(8)
    G = fo.e2_star_data(48)
    assert G.kappa == 2 and G.a_plus[0] == 1 and G.a_plus[1] == -24
    for _ in range(20):
        z = mpc(rng.uniform(-1, 1), rng.uniform(0.7, 2.5))
        assert abs(fo.eval_qexp(G, z)[0] - _e2_star_oracle(z)) <= 1e-25
    # against the brute-force oracle, inside F and below it
    inside = [mpc(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.5)) for _ in range(10)]
    below = [mpc(rng.uniform(-1, 1), rng.uniform(0.2, 0.8)) for _ in range(10)]
    G64 = fo.e2_star_data(64)
    for z in inside + below:
        exact = _e2_star_oracle(z)
        assert abs(fo.eval_qexp(G64, z)[0] - exact) <= 1e-25
        assert abs(fo.e2_star_modular(z) - exact) <= 1e-25
        assert abs(fo.eval_modular(G64, z)[0] - exact) <= 1e-25


@pytest.mark.parametrize("digits", [30, 50])
@pytest.mark.parametrize("order", [16, 24, 32])
def test_e2_star_order_tail_bounds_truncation_error(order, digits):
    # the tail E2* data reports covers the terms past its order: order 16
    # at the corner of F is off by 2.9e-38 from order 256, above the cut.
    # Points: the corner 1/2 + i sqrt(3)/2, i, seeded points of F, and three
    # images gamma^-1 (0.49 + 0.875i) off F, where the tail must carry the
    # cocycle's |a - c z*|^kappa (unscaled, it is 5.5 to 75.8 times too small)
    rng = random.Random(13)
    pts = [mpc(0.5, math.sqrt(3) / 2), mpc(0, 1)]
    while len(pts) < 10:
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(math.sqrt(3) / 2, 2))
        if abs(z) >= 1:
            pts.append(mpc(z))
    for gamma in (((2, 1), (5, 3)), ((7, 3), (9, 4)), ((13, 5), (18, 7))):
        pts.append(hyperbolic.apply_moebius(qf.mat_inv(gamma), mpc(0.49, 0.875)))
    prec = Precision(digits)
    for z in pts:
        value, tail = fo.eval_modular(fo.e2_star_data(order, prec), z, prec)
        exact, _ = fo.eval_modular(fo.e2_star_data(256, prec), z, prec)
        assert abs(value - exact) <= tail, (str(z), float(abs(value - exact)), tail)


@pytest.mark.parametrize("evaluate", [
    lambda z, prec: fo.eval_modular(fo.e2_star_data(64, prec), z, prec)[0],
    lambda z, prec: fo.e2_star_modular(z, 64, prec),
], ids=["eval_modular", "e2_star_modular"])
def test_modular_evaluation_holds_requested_precision(evaluate):
    # called at 15 digits, Precision(50) still holds: reduction, series and
    # cocycle all run at its working precision
    with mp.workdps(70):
        z = mpf(1) / 3 + 1j * (mpf(1) / 7)
    exact = _e2_star_oracle(z, 70)
    with mp.workdps(15):
        value = evaluate(z, Precision(50))
    with mp.workdps(70):
        assert abs(value - exact) <= mpf("1e-45"), float(abs(value - exact))


@lru_cache(maxsize=None)
def _form(name, order):
    # E2*'s holomorphic part to q^order, or J with coefficients up to q^order
    if name == "E2*":
        return HarmonicFourierData(2, dict(fo.e2_star_data(order).a_plus), {}, order)
    return fo.build_standard_forms(order + 1)["J"]


@given(name=st.sampled_from(["E2*", "J"]), order=st.integers(16, 128),
       x=st.floats(-0.5, 0.5), y=st.floats(math.sqrt(3) / 2, 4))
def test_height_cut_within_reported_tail(name, order, x, y):
    # 60 digits, so that rounding (|J| reaches e^(8 pi) here) stays far
    # below the 1e-35 allowance and only the cut and the tail are measured
    f = _form(name, order)
    z = mpc(x, y)
    value, tail = fo.eval_qexp(f, z, Precision(60))
    with mp.workdps(90):
        q = mpmath.exp(2j * mpmath.pi * z)
        full = sum(mpmath.mpmathify(c) * q ** n for n, c in f.a_plus.items())
        assert abs(value - full) <= tail + 1e-35


def _plain_series(f, z):
    """sum c_n q^n term by term in mpmath, 64 bits past the working
    precision, over the terms _series keeps (the same height cut, from the
    same float |q|), plus the a-(0) y^(1-kappa) term.  Returns (value,
    dropped, sum of the terms' moduli)."""
    ns = sorted(n for n, c in f.a_plus.items() if c)
    cs = [mpmath.mpmathify(f.a_plus[n]) for n in ns]
    mags = [float(abs(c)) for c in cs]
    absq, cut = math.exp(-2 * math.pi * float(z.imag)), 10.0 ** -(mp.dps + 10)
    keep, dropped = len(ns), 0.0
    while keep and ns[keep - 1] > 0 and dropped + mags[keep - 1] * absq ** ns[keep - 1] < cut:
        keep -= 1
        dropped += mags[keep] * absq ** ns[keep]
    with mp.workprec(mp.prec + 64):
        q = mpmath.exp(2j * mpmath.pi * z)
        terms = [mpmath.mpmathify(c) * q ** n for n, c in zip(ns[:keep], cs)]
        terms += [mpmath.mpmathify(c) * z.imag ** (1 - f.kappa)
                  for n, c in f.a_minus.items() if n == 0]
        return mpmath.fsum(terms), dropped, mpmath.fsum(abs(t) for t in terms)


_SERIES_OBJECTS = {
    "E2*": fo.e2_star_data(64),
    "E4": F["E4"],
    "Delta": F["DeltaCusp"],
    "j": F["j"],
    # complex, with a principal part and a leading coefficient far below 1
    "complex": HarmonicFourierData(
        2, {n: complex(math.cos(n), math.sin(3 * n)) * (1e-12 if n == 0 else 1)
            for n in range(-2, 20)}, {}, 20),
    # a principal part whose every coefficient lies far below 1: the guard
    # bits must apply at the lowest index, negative as it is
    "tiny": HarmonicFourierData(
        0, {n: complex(math.sin(n + 0.5), math.cos(2 * n)) * 1e-15 for n in range(-3, 24)},
        {}, 23),
}


@settings(max_examples=80)
@given(name=st.sampled_from(sorted(_SERIES_OBJECTS)), digits=st.sampled_from([15, 30, 50]),
       x=st.floats(-0.5, 0.5), y=st.floats(math.sqrt(3) / 2, 3))
# Delta at y = 3 is about 2^-27: its last place lies below the table's
# fixed-point bits unless q's part of the sum is carried with more
@example(name="Delta", digits=30, x=0.1, y=3.0)
def test_fixed_point_series_matches_plain_sum(name, digits, x, y):
    # the Horner sum in fixed-point integers, times q^n0 and plus E2*'s
    # a-(0) term, against term-by-term mpmath: a few units of the working
    # precision's last place of sum |c_n q^n|, with the same height cut and
    # dropped tail
    f = _SERIES_OBJECTS[name]
    with mp.workdps(digits):
        z = mpc(x, y)
        zt = fo._fixed_point(*z._mpc_)
        absq = math.exp(-2 * math.pi * float(z.imag))
        dropped = fo._series(fo._table(f), zt, absq)[1]
        value = fo._evaluate(f, zt, Precision(digits))[0]
        want, want_dropped, size = _plain_series(f, z)
        assert dropped == want_dropped
        assert abs(value - want) <= 4 * mpf(2) ** -mp.prec * size, (
            float(abs(value - want) / (mpf(2) ** -mp.prec * size)))


def _full_walk(n0, mags, absq):
    """The height cut's walk from the top index down: the oracle of
    _height_cut, which starts lower."""
    cut = 10.0 ** -(mp.dps + 10)
    keep, dropped = len(mags), 0.0
    while keep and n0 + keep - 1 > 0:
        term = mags[keep - 1] * absq ** (n0 + keep - 1)
        if dropped + term >= cut:
            break
        keep, dropped = keep - 1, dropped + term
    return keep, dropped


_CUT_TABLES = {
    **{name: F[name] for name in ("E4", "E6", "DeltaCusp", "j", "J")},
    **{f"E2*/{order}": fo.e2_star_data(order) for order in (16, 32, 64)},
    **{f"series/{name}": f for name, f in _SERIES_OBJECTS.items()},
    # zero coefficients: a lone top term far below the rest above a gap, and
    # a table that is zero at six indices in seven
    "sparse": HarmonicFourierData(0, {1: 1, 2: 0, 30: 2.5, 64: 1e-20}, {}, 64),
    "gaps": HarmonicFourierData(2, {n: (n % 7 == 0) * n ** 3 for n in range(-1, 50)}, {}, 49),
}


def test_height_cut_matches_full_walk():
    # keep and dropped bit for bit as the walk from the top gives them, from
    # |q| just below 1/2 through sqrt(3)/2 height (|q| = 0.0043) up to
    # height 20, at 15 to 100 digits
    qs = [0.4999 * math.exp(-2 * math.pi * 20 * i / 299) for i in range(300)]
    assert min(qs) < math.exp(-math.pi * math.sqrt(3)) < max(qs)
    for digits in (15, 30, 50, 100):
        with mp.workdps(digits):
            for name, f in _CUT_TABLES.items():
                n0, _, _, _, mags, top, *_ = fo._table(f)
                for absq in qs:
                    assert fo._height_cut(n0, mags, top, absq) == _full_walk(n0, mags, absq), (
                        name, digits, absq)


@settings(max_examples=80)
@given(digits=st.sampled_from([15, 30, 50]),
       x=st.one_of(st.sampled_from([0.0, 0.25, -0.25, 0.5, -0.5]), st.floats(-0.5, 0.5)),
       y=st.floats(math.sqrt(3) / 2, 40))
def test_fixed_point_q_matches_mpmath_exp(digits, x, y):
    # q = e(z) from z's fixed-point parts (exp_basecase past multiples of
    # ln 2, cos_sin_basecase on the folded quarter turn) against mpmath's
    # exp, within a few units of the working precision's last place
    # relative to |q|, at the quarter turns and up to |q| ~ 1e-109
    with mp.workdps(digits):
        z = mpc(x, y)
        qr, qi, e = fo._q(*fo._fixed_point(*z._mpc_), mp.prec + 8)
        bound = 4 * mpf(2) ** -mp.prec
        with mp.workprec(mp.prec + 64):
            want = mpmath.exp(2j * mpmath.pi * z)
            got = mpc(mpmath.ldexp(qr, -e), mpmath.ldexp(qi, -e))
            assert abs(got - want) <= bound * abs(want), float(abs(got / want - 1) / bound)


# weight -2, a principal part, and a- modes of nonzero index: the
# evaluator's mpc branch and the negative-weight cocycle
_SYNTHETIC = HarmonicFourierData(
    -2, {n: complex(math.cos(n + 1), math.sin(2 * n)) for n in range(-1, 21)},
    {n: complex(math.sin(n + 2), math.cos(n)) / 4 for n in (-2, -1, 0, 1)}, 20)
# weight -2 on the all-fixed-point route (n0 = 0, a-(0) alone): at height
# 1e-12 the cocycle scales the value by about 1e-12
_NEGATIVE = HarmonicFourierData(
    -2, {n: complex(math.cos(n + 1), math.sin(2 * n)) for n in range(21)}, {0: 0.25 + 0.5j}, 20)


def _modular_oracle(f, z, gamma, digits):
    """f(gamma z) (cz + d)^-kappa in plain mpmath, 30 digits past `digits`:
    gamma z by apply_moebius, every coefficient of f summed directly there
    (E_kappa(y) = Gamma(1 - kappa, -y) for kappa <= 0 through mpmath's
    gammainc), and the cocycle by complex powers."""
    with mp.workdps(digits + 30):
        w = hyperbolic.apply_moebius(gamma, z)
        y, q = w.imag, mpmath.exp(2j * mpmath.pi * w)
        acc = mpmath.fsum(mpmath.mpmathify(c) * q ** n for n, c in f.a_plus.items())
        for n, c in f.a_minus.items():
            if n == 0:
                acc += mpmath.mpmathify(c) * y ** (1 - f.kappa)
            else:
                assert f.kappa <= 0
                acc += mpmath.mpmathify(c) * mpmath.gammainc(1 - f.kappa, -4 * mpmath.pi * n * y) \
                    * q ** n
        (_, _), (c, d) = gamma
        return acc * (c * z + d) ** -f.kappa


def _near_boundary_points(rng):
    """Seeded points, one at height 1e-12 (a long word, and a cocycle far
    from 1), and points within 1e-12 of F's boundary with their images
    under seeded SL2(Z) words, so that reduction decides near its ties."""
    from test_qforms import random_sl2
    pts = [mpc(rng.uniform(-1, 1), rng.uniform(0.25, 2)) for _ in range(6)]
    pts.append(mpc(rng.uniform(-0.5, 0.5), 1e-12))
    with mp.workdps(60):
        for _ in range(4):
            eps = mpf(10) ** -rng.randint(13, 20) * rng.choice([-1, 1])
            side = mpc(rng.choice([-0.5, 0.5]) + eps, rng.uniform(0.9, 1.5))
            arc = mpmath.expjpi(rng.uniform(1 / 3, 2 / 3)) * (1 + eps)
            for b in (side, arc):
                g = random_sl2(rng, size=2, length=3)
                pts += [b, hyperbolic.apply_moebius(qf.mat_inv(g), b)]
    return pts


@pytest.mark.parametrize("digits", [30, 50])
@pytest.mark.parametrize("name", ["E2*", "E4", "E6", "Delta", "J", "synthetic", "negative"])
def test_eval_modular_matches_plain_mpmath_route(name, digits):
    # eval_modular's fixed-point pass (series, a- terms and cocycle) against
    # the plain route, at the word the reduction returns: within the
    # reported tail plus 10^-(digits + 8) relative to the value, as the
    # pass keeps all but two of the working precision's 10 guard digits,
    # also where the cocycle is tiny
    prec = Precision(digits)
    f = {"E2*": fo.e2_star_data(64, prec), "E4": F["E4"], "E6": F["E6"],
         "Delta": F["DeltaCusp"], "J": F["J"], "synthetic": _SYNTHETIC,
         "negative": _NEGATIVE}[name]
    for z in _near_boundary_points(random.Random(21)):
        value, tail = fo.eval_modular(f, z, prec)
        with mp.workdps(digits + 10):
            gamma = hyperbolic.reduce_to_fundamental(z)[1]
        want = _modular_oracle(f, z, gamma, digits)
        with mp.workdps(digits + 30):
            assert abs(value - want) <= tail + mpf(10) ** -(digits + 8) * abs(want), (
                name, str(z), float(abs(value - want)))


@pytest.mark.parametrize("name", ["E2*", "synthetic"])
def test_table_values_are_keyed_by_precision(name):
    # _table keeps per-precision values (a-(0)'s fixed-point pair, the mpc
    # branch's flag, the tail's magnitude): one object evaluated at 30,
    # then 50, then 30 digits again returns, at each, a fresh object's bits.
    # E2* has the a-(0) pair; the synthetic data has n0 < 0 and a-(n != 0)
    f = {"E2*": fo.e2_star_data(64, Precision(50)), "synthetic": _SYNTHETIC}[name]
    pts = [mpc(0.1, 0.9), mpc(-0.45, 1.2), mpc(0.3, 0.05)]
    for digits in (30, 50, 30):
        prec = Precision(digits)
        fresh = HarmonicFourierData(f.kappa, dict(f.a_plus), dict(f.a_minus), f.order)
        for z in pts:
            for evaluate in (fo.eval_modular, fo.eval_qexp):
                if evaluate is fo.eval_qexp and z.imag < 0.5:
                    continue
                got, want = evaluate(f, z, prec), evaluate(fresh, z, prec)
                assert (got[0]._mpc_, got[1]) == (want[0]._mpc_, want[1]), (digits, str(z))


def test_fourier_data_is_read_only():
    # the maps are read-only copies taken at construction, so neither a
    # write through the object (e2_star_data's is shared by every caller)
    # nor a later change to the dict it was built from can reach a table
    # that _table has cached
    G = fo.e2_star_data(64)
    with pytest.raises(TypeError):
        G.a_plus[1] = 0
    with pytest.raises(TypeError):
        G.a_minus[0] = 0
    coeffs = {0: 1, 1: 240}
    E = HarmonicFourierData(4, coeffs, {}, 1)
    before = fo.eval_qexp(E, mpc(0.1, 1.1))[0]
    coeffs[1] = 0
    assert E.a_plus == {0: 1, 1: 240} and fo.eval_qexp(E, mpc(0.1, 1.1))[0] == before


def test_xi_e2_star():
    xi = fo.xi_symbolic(fo.e2_star_data(16))
    assert xi.kappa == 0 and xi.a_minus == {}
    assert abs(xi.a_plus.get(0, 0) - 3 / mpmath.pi) < 1e-25
    assert all(n == 0 for n in xi.a_plus if xi.a_plus[n] != 0)


# ---------------------------------------------------------------------------
# harmonic Fourier data
# ---------------------------------------------------------------------------

def test_single_nonholomorphic_term():
    from shintani.specfun import e_kappa
    G = HarmonicFourierData(2, {}, {1: 1}, 8)
    y = mpf("0.8")
    v = fo.eval_qexp(G, mpc(0, y))[0]
    expect = e_kappa(2, 4 * mpmath.pi * y).value * mpmath.e ** (-2 * mpmath.pi * y)
    assert abs(v - expect) < 1e-24


def test_xi_symbolic_empty():
    G = HarmonicFourierData(4, {0: 1, 1: 2}, {}, 8)
    xi = fo.xi_symbolic(G)
    assert all(c == 0 for c in xi.a_plus.values())


def test_xi_symbolic_synthetic_vs_finite_difference():
    # xi from the Fourier data against the finite-difference xi of the
    # evaluated series
    from shintani.thetacore import fd_operators
    G = HarmonicFourierData(4, {}, {-2: 1j, 1: 0.5}, 8)
    xi = fo.xi_symbolic(G)
    assert xi.kappa == -2
    z = mpc("0.23", "0.9")
    fd_xi, _ = fd_operators(lambda w: fo.eval_qexp(G, w)[0], 4, z)
    direct, _ = fo.eval_qexp(xi, z)
    assert abs(fd_xi - direct) < 1e-6


def test_harmonicity_of_model():
    # the finite-difference Laplacian annihilates the model
    from shintani.thetacore import fd_operators
    G = HarmonicFourierData(4, {-1: 0.3, 2: 1.0}, {0: 0.7, -2: 1j, 1: -0.2}, 8)
    z = mpc("0.31", "1.07")
    _, lap = fd_operators(lambda w: fo.eval_qexp(G, w)[0], 4, z)
    assert abs(lap) < 1e-5


def test_kappa_one_log_convention():
    G = HarmonicFourierData(1, {}, {0: 2}, 8)
    y = mpf("1.37")
    assert abs(fo.eval_qexp(G, mpc(0, y))[0] - 2 * mpmath.log(y)) < 1e-24


# ---------------------------------------------------------------------------
# weight-3/2 Eisenstein coefficients
# ---------------------------------------------------------------------------

def test_e32_coefficients():
    # the holomorphic coefficients of the weight-3/2 Eisenstein series are
    # the Hurwitz class numbers H(D), which the e32 command lists
    holo = {D: qf.hurwitz_class_number(D) for D in range(9)}
    assert holo[0] == Fraction(-1, 12)
    assert holo[3] == Fraction(1, 3)
    assert holo[4] == Fraction(1, 2)
