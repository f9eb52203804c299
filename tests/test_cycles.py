"""Cycle integrals: closed-geodesic quadrature, the two regularized
representations, the evaluation lemmas, traces and L-values."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc

from shintani import cycles as cy
from shintani import forms as fo
from shintani.specfun import Precision
from shintani.qforms import (QForm, class_reps, genus_char, hurwitz_class_number,
                             pell_fundamental_4, square_normalize, _cycle)
from shintani.forms import HarmonicFourierData, build_standard_forms
from test_qforms import random_sl2

E2 = fo.e2_star_data(64)
E2_EVAL = lambda z: fo.e2_star_modular(z, 64)


def synthetic_data(k, rng):
    ap = {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in range(-1, 4)}
    am = {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in range(-3, 2)}
    return HarmonicFourierData(2 * k + 2, ap, am, 8)


# ---------------------------------------------------------------------------
# closed cycle integrals
# ---------------------------------------------------------------------------

def test_closed_integral_zero_integrand():
    res = cy.closed_cycle_integral(lambda z: mpc(0), QForm(1, 0, -3), 0)
    assert abs(res.value) < 1e-28


def test_closed_integral_base_point_invariance():
    Q = QForm(1, 2, -2)
    r1 = cy.closed_cycle_integral(E2_EVAL, Q, 0, base_angle=mpmath.pi / 2)
    r2 = cy.closed_cycle_integral(E2_EVAL, Q, 0, base_angle=mpf("1.1"))
    assert abs(r1.value - r2.value) < 1e-10


def test_closed_integral_rejects_square_disc():
    with pytest.raises(ValueError):
        cy.closed_cycle_integral(E2_EVAL, QForm(0, 3, 1), 0)


def test_closed_integral_samples_nest():
    # every evaluation of the integrand lands in the returned rule, and the
    # disc-33 classes (regulator log((23 + 4 sqrt 33)/2)) converge by 256
    for Q in class_reps(33).reps:
        calls = []

        def ev(z):
            calls.append(z)
            return fo.eval_modular(E2, z)[0]

        res = cy.closed_cycle_integral(ev, Q, 0)
        assert len(calls) == res.nodes <= 256


def test_closed_integral_imprimitive_form_one_period():
    # 2 (-2, 2, 1) shares the stabilizer of (-2, 2, 1); at k = 0 both
    # integrate G dz over the same closed geodesic once
    r1 = cy.closed_cycle_integral(E2_EVAL, QForm(-2, 2, 1), 0)
    r2 = cy.closed_cycle_integral(E2_EVAL, QForm(-4, 4, 2), 0)
    assert abs(r1.value - r2.value) < 1e-25


def test_hecke_imprimitive_classes():
    # disc 48 has content-2 classes (disc 12 forms doubled) with chi_{-3} != 0;
    # 12 H(3) H(16) = 12 (1/3) (3/2) = 6
    tr, _ = cy.trace_cycle(E2, -3, 16, 0)
    assert abs(tr - 6) < 1e-25


def test_hecke_single_pair():
    # the acceptance-critical example: disc 12 classes against chi_{-4}
    tr, _ = cy.trace_cycle(E2, -4, 3, 0, evaluator=E2_EVAL)
    assert abs(tr - 2) < 1e-6


# ---------------------------------------------------------------------------
# the Rademacher symbol: an exact per-class oracle for E2* closed cycles
# ---------------------------------------------------------------------------

def dedekind_sum(h, k):
    """s(h, k) for k > 0 and gcd(h, k) = 1, by reciprocity:
    s(h, k) + s(k, h) = (h^2 + k^2 + 1)/(12 h k) - 1/4."""
    h %= k
    if not h:
        return Fraction(0)
    return Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4) - dedekind_sum(k, h)


def rademacher_symbol(Q):
    """Psi(gamma_Q) = (A + E)/C - 12 sgn(C) s(E, |C|) - 3 sgn(C (A + E)) at the
    automorph gamma_Q = ((A, B), (C, E)) = ((t - bu)/2, -cu; au, (t + bu)/2)
    of Q/g = (a, b, c), with (t, u) the least Pell solution for D/g^2
    (Rademacher and Grosswald, Dedekind Sums, 1972).  For k = 0 it is the
    cycle integral of E2* over Q's class; it shares only the Pell solution
    with the quadrature it checks."""
    g = Q.content
    a, b = Q.a // g, Q.b // g
    t, u = pell_fundamental_4(Q.disc // (g * g))
    A, C, E = (t - b * u) // 2, a * u, (t + b * u) // 2
    sgn = lambda x: (x > 0) - (x < 0)
    return Fraction(A + E, C) - 12 * sgn(C) * dedekind_sum(E, abs(C)) - 3 * sgn(C * (A + E))


def test_dedekind_sum_matches_definition():
    saw = lambda x: x - math.floor(x) - Fraction(1, 2) if x.denominator > 1 else 0
    for k in range(1, 30):
        for h in range(-k, 2 * k):
            if math.gcd(h, k) == 1:
                want = sum(saw(Fraction(r, k)) * saw(Fraction(h * r, k)) for r in range(1, k))
                assert dedekind_sum(h, k) == want, (h, k)


_NONSQUARE = [D for D in range(5, 230) if D % 4 in (0, 1) and math.isqrt(D) ** 2 != D]


def _psi_error(Q, psi):
    """(|closed cycle integral of E2* over Q - psi|, reported error) at the
    default precision."""
    res = cy.closed_cycle_integral(lambda z: fo.eval_modular(E2, z)[0], Q, 0)
    with mp.workdps(80):
        return float(abs(res.value - mpf(psi.numerator) / psi.denominator)), res.quadrature_error


def test_closed_integral_matches_rademacher_symbol_grid():
    # every class of non-square D < 230, the long regulators included
    # (D = 193, 211, 229): within 1e-35 of Psi, and within the reported
    # error, whose rounding floor covers the classes with Psi = 0
    classes = [Q for D in _NONSQUARE for Q in class_reps(D).reps]
    assert len(classes) == 260
    for Q in classes:
        err, qerr = _psi_error(Q, rademacher_symbol(Q))
        assert err <= 1e-35 and err <= qerr, (Q, err, qerr)


@settings(max_examples=40)
@given(D=st.sampled_from(_NONSQUARE), index=st.integers(0, 63), sign=st.sampled_from([1, -1]),
       seed=st.integers(0, 2 ** 32))
def test_closed_integral_rademacher_symbol_on_images(D, index, sign, seed):
    # Psi is a class invariant: an SL2(Z) image of +-Q, whose geodesic is
    # smaller and whose nodes lie deeper, integrates to Psi(+-Q) as well
    reps = class_reps(D).reps
    Q = reps[index % len(reps)]
    Q = Q if sign > 0 else Q.neg()
    image = Q.compose(random_sl2(random.Random(seed)))
    err, qerr = _psi_error(image, rademacher_symbol(Q))
    assert err <= qerr, (Q, image, err, qerr)


@pytest.mark.parametrize("shift", [100, 300])
def test_closed_cycle_node_keeps_a_small_integrands_precision(shift, monkeypatch):
    # each node widens its fixed point by the bits |G(z)| lies below 1, so the
    # node values of G 2^-shift are 2^-shift times those of G to a few eps of
    # the largest, the scale of the rule's rounding floor
    integrands = []
    monkeypatch.setattr(cy, "integrate_periodic_doubling",
                        lambda f, a, b, tol: integrands.append((f, a, b)) or (0, 0.0, 16))
    scale = mpf(2) ** -shift
    for s in (1, scale):
        cy.closed_cycle_integral(lambda z, s=s: fo.eval_modular(E2, z)[0] * s,
                                 QForm(-1, 13, 1), 0)
    (f, a, b), (g, _, _) = integrands

    def node(f, t):
        # the integrand sums progressions: one node is a progression of one
        (re, im), bits, _ = f(t, b - a, 1)
        return mpc(mpmath.ldexp(re, -bits), mpmath.ldexp(im, -bits))

    with mp.workdps(40):
        ts = [a + (b - a) * j / 16 for j in range(16)]
        want = [node(f, t) * scale for t in ts]
        size = max(map(abs, want))
        for j, t in enumerate(ts):
            assert abs(node(g, t) - want[j]) <= 4 * mp.eps * size, j


@pytest.mark.parametrize("delta, D", [(-11, 59), (-7, 103), (-11, 107)])
def test_closed_cycle_nodes_follow_the_u_recurrence(delta, D, monkeypatch):
    # a progression walks u <- u e^h in fixed point from two fixed_exp: over
    # a full period of 512 nodes, every node's z, and its height, agrees with
    # z at u = e^t taken node by node at t = a + j h, to 2^-(prec + 4)
    # relative, on the longest regulators the CLI reaches (log eps to 44)
    integrands = []
    monkeypatch.setattr(cy, "integrate_periodic_doubling",
                        lambda f, a, b, tol: integrands.append((f, a, b)) or (0, 0.0, 16))
    for Q in class_reps(-delta * D).reps:
        zs = []
        cy.closed_cycle_integral(lambda z: zs.append(z) or mpc(1), Q, 0)
        f, a, b = integrands.pop()
        with mp.workdps(40):     # the closed integral's working precision
            h = (b - a) / 512
            f(a, h, 512)
            bound = mpf(2) ** -(mp.prec + 4)
            with mp.workprec(mp.prec + 64):
                center, radius = mpf(-Q.b) / (2 * Q.a), mpmath.sqrt(Q.disc) / (2 * abs(Q.a))
                for j, z in enumerate(zs):
                    t = a + j * h
                    want = center + radius * mpc(mpmath.tanh(t), mpmath.sech(t))
                    assert abs(z - want) <= bound * abs(want), (Q, j)
                    assert abs(z.imag - want.imag) <= bound * want.imag, (Q, j)
        assert len(zs) == 512


def test_closed_integral_of_the_negated_class():
    # -Q's class, represented by P = min of the rho-cycle of (-c, b, -a), which
    # is (-Q) o S, integrates to (-1)^(k+1) times Q's: Q(z,1)^k changes sign k
    # times and the geodesic's orientation reverses.  On the hecke pairs of
    # these discriminants, -Q lies in another class wherever chi(Q) != 0, with
    # chi(-Q) = -chi(Q)
    forms = build_standard_forms(48)
    evals = {0: E2_EVAL, 1: lambda z: fo.eval_modular(forms["E4"], z)[0],
             2: lambda z: fo.eval_modular(forms["E6"], z)[0]}
    pairs = {12: [(-3, 4), (-4, 3)], 21: [(-3, 7), (-7, 3)],
             60: [(-3, 20), (-20, 3), (-4, 15), (-15, 4)], 96: [(-4, 24), (-24, 4)]}
    for D, hecke in pairs.items():
        for Q in class_reps(D).reps:
            P = min(_cycle(QForm(-Q.c, Q.b, -Q.a))[0])
            for delta, _ in hecke:
                chi = genus_char(delta, Q)
                assert genus_char(delta, P) == -chi and (not chi or P != Q), (delta, Q)
            for k, ev in evals.items():
                value = cy.closed_cycle_integral(ev, Q, k).value
                negated = cy.closed_cycle_integral(ev, P, k).value
                assert abs(negated - (-1) ** (k + 1) * value) <= 1e-36 * max(1, abs(value)), (
                    Q, k, float(abs(negated - (-1) ** (k + 1) * value)))


# ---------------------------------------------------------------------------
# regularized integrals
# ---------------------------------------------------------------------------

def test_reg_T_independence_e2():
    # (0, 3, 0) vanishes and (0, 3, 1) is 12 s(1, 3) = 2/3; at T = 1/2 a ray
    # whose lower end is at height 1 is integrated downward, from 1 to T
    for Q, exact in ((QForm(0, 3, 0), 0), (QForm(0, 3, 1), mpf(2) / 3)):
        vals = [cy.reg_cycle_integral(E2, Q, 0, T=T, evaluator=E2_EVAL).value
                for T in (0.5, 2, 5)]
        assert max(abs(v - vals[1]) for v in vals) < 1e-9, (Q, vals)
        assert abs(vals[1] - exact) < 1e-20, (Q, vals[1])


def test_square_class_integral_matches_dedekind_sum():
    # the per-class oracle of the square classes, as the Rademacher symbol
    # is of the closed ones: at k = 0 the regularized integral of E2* over
    # (0, f, c) is 12 s(c/g, f/g), g = gcd(c, f), for every class with f <= 8
    classes = [Q for f in range(1, 9) for Q in class_reps(f * f).reps]
    assert len(classes) == 36
    for Q in classes:
        g = math.gcd(Q.b, Q.c)
        want = 12 * dedekind_sum(Q.c // g, Q.b // g)
        res = cy.reg_cycle_integral(E2, Q, 0, evaluator=E2_EVAL)
        with mp.workdps(80):
            err = float(abs(res.value - mpf(want.numerator) / want.denominator))
        assert err <= 1e-35 and err <= res.quadrature_error, (Q, err, res.quadrature_error)


def test_reg_xy_type_vanishes_numerically():
    # the scaled-xy representative has both rays at the same real part and
    # vanishes for even k without being hard-coded
    res = cy.reg_cycle_integral(E2, QForm(0, 3, 0), 0, T=2, evaluator=E2_EVAL)
    assert abs(res.value) < 1e-20


def test_reg_cusp_form_direct_oracle():
    # cusp forms Delta (weight 12, k = 5) and Delta E6 (weight 18, k = 8):
    # the regularized value equals the direct convergent integral down the
    # full geodesic of (0, 3, 1), the line Re z = -1/3 from infinity to the
    # cusp, dz = i dy with Q(z, 1) = 3iy; one odd and one even k, so that
    # an orientation that flips with the parity of k fails
    from shintani.quadrature import integrate_cc_doubling
    F = build_standard_forms(80)
    delta = [F["DeltaCusp"].a_plus.get(n, 0) for n in range(81)]
    e6 = [F["E6"].a_plus[n] for n in range(81)]
    delta_e6 = HarmonicFourierData(18, dict(enumerate(fo._series_mul(delta, e6, 80))), {}, 80)
    Q, r = QForm(0, 3, 1), mpf(-1) / 3
    for G, k in ((F["DeltaCusp"], 5), (delta_e6, 8)):
        ev = lambda z: fo.eval_modular(G, z)[0]

        def integrand(y):
            return ev(mpc(r, y)) * (3j * y) ** k * 1j

        up, _, _ = integrate_cc_doubling(integrand, mpf("0.01"), mpf(12),
                                         n0=128, tol=1e-14, nmax=2048)
        res = cy.reg_cycle_integral(G, Q, k=k, T=2, evaluator=ev)
        assert abs(up) > 0.1 and abs(-up - res.value) < 1e-8, (k, up, res.value)


def test_reg_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cy.reg_cycle_integral(E2, QForm(1, 0, -3), 0)    # non-square disc
    with pytest.raises(ValueError):
        cy.reg_cycle_integral(E2, QForm(0, 3, 1), 0, T=-1)


def test_reg_rejects_weight_other_than_2k_plus_2():
    # E2* has weight 2: at k = 1 both representations used to return a
    # T-dependent value with a reported error of 1.5e-32 (the definition:
    # -8.83 - 0.72i at T = 1, -11.70 - 0.72i at T = 2)
    for integral in (cy.reg_cycle_integral, cy.reg_cycle_integral_alt):
        with pytest.raises(ValueError, match=r"weight 2, not 2k \+ 2 = 4"):
            integral(E2, QForm(0, 3, 1), 1, T=2, evaluator=E2_EVAL)


def test_def_vs_alt_e2():
    rd = cy.reg_cycle_integral(E2, QForm(0, 3, 1), 0, T=2, evaluator=E2_EVAL)
    ra = cy.reg_cycle_integral_alt(E2, QForm(0, 3, 1), 0, T=2, evaluator=E2_EVAL)
    assert abs(rd.value - ra.value) < 1e-7


def test_alt_holomorphic_polygamma_terms_vanish():
    # xi G constant: the alternative path reduces to the Bernoulli line
    # integral plus counterterms; cross-check against the definition
    D = build_standard_forms(48)["DeltaCusp"]
    ev = lambda z: fo.eval_modular(D, z)[0]
    rd = cy.reg_cycle_integral(D, QForm(0, 3, 2), 5, T=2, evaluator=ev)
    ra = cy.reg_cycle_integral_alt(D, QForm(0, 3, 2), 5, T=2, evaluator=ev)
    assert abs(rd.value - ra.value) < 1e-10


def test_synthetic_one_term_kminus():
    rng = random.Random(2)
    data = HarmonicFourierData(4, {}, {1: 1}, 4)
    rd = cy.reg_cycle_integral(data, QForm(0, 3, 1), 1, T=2)
    ra = cy.reg_cycle_integral_alt(data, QForm(0, 3, 1), 1, T=2)
    assert abs(rd.value - ra.value) < 1e-6


def test_square_ray_data_bottom_ray_orientation():
    # r- = -u/q comes from sigma = ((p, -v), (q, u)) in SL2(Z) with sigma
    # infinity = r+ = p/q, and -Q_N o sigma is the normal form (0, f, -f r-)
    # of the bottom ray, for every square class with f <= 40
    for f in range(1, 41):
        for Q in class_reps(f * f).reps:
            g, r_plus, q, r_minus = cy._square_ray_data(Q)
            p, u = r_plus.numerator, -r_minus * q
            assert g == f and q == r_plus.denominator and u.denominator == 1
            v, rem = divmod(1 - p * int(u), q)
            assert rem == 0
            Qm = square_normalize(Q)[0].neg().compose(((p, -v), (q, int(u))))
            assert (Qm.a, Qm.b, Fraction(-Qm.c, f)) == (0, f, r_minus)


def test_reg_rays_match_counterterm_closed_form():
    # for finite Fourier data the counterterms are exact antiderivatives of
    # the ray integrand, so the regularized integral down the geodesic is
    # -f^k i^(k+1) (CT(r+, c+) + (-1)^(k+1) CT(r-, c-)), CT taken at each
    # ray's lower end; on acceptance criterion 5's ten synthetic instances
    # and settings both routes meet it, inside their reported error
    prec = Precision(30)
    rng = random.Random(2024)
    with mp.workdps(40):
        for k, count in enumerate((4, 3, 3)):
            for _ in range(count):
                G = synthetic_data(k, rng)
                Q = QForm(0, 3, rng.choice([1, 2]))
                f, r_plus, q, r_minus = cy._square_ray_data(Q)
                exact = -mpf(f) ** k * (1j) ** (k + 1) * (
                    cy._ray_counterterms(G, k, r_plus, 1, prec)
                    + (-1) ** (k + 1) * cy._ray_counterterms(G, k, r_minus, mpf(1) / (q * q),
                                                             prec))
                runs = [cy.reg_cycle_integral(G, Q, k, T=T, prec=prec, nodes=32, tol=1e-14)
                        for T in (1, 2, 5)]
                runs.append(cy.reg_cycle_integral_alt(G, Q, k, T=2, prec=prec, nodes=32,
                                                      tol=1e-14))
                for route, res in zip(("T=1", "T=2", "T=5", "alternative"), runs):
                    err = abs(res.value - exact)
                    assert err < 1e-24 and err <= res.quadrature_error, \
                        (k, route, err, res.quadrature_error)


# ---------------------------------------------------------------------------
# evaluation lemmas
# ---------------------------------------------------------------------------

def test_bernoulli_unit_integral_values():
    # the unit integrals int_0^1 B_j(x) e(nx) dx are the height integrals at y = 0
    q, c = cy.bernoulli_height_integral(2, 0, 0)
    assert abs(q - c) < 1e-20 and abs(c) < 1e-20
    q, c = cy.bernoulli_height_integral(1, 1, 0)
    assert abs(c - 1 / (2j * mpmath.pi)) < 1e-25
    assert abs(q - c) < 1e-10


def test_polygamma_integral_log_case():
    q, c = cy.polygamma_height_integral(0, 0, 2)
    assert abs(c - 2 * mpmath.log(2)) < 1e-25
    assert abs(q - c) < 1e-9


def test_lemma_suite_small():
    rep = cy.lemma_integral_checks(k_max=2, n_max=2, ys=(1,))
    assert all(r["abs_error"] < 1e-8 for r in rep)


# ---------------------------------------------------------------------------
# traces, L-values, complementary trace
# ---------------------------------------------------------------------------

def test_trace_zero_form():
    zero = HarmonicFourierData(2, {}, {}, 4)
    tr, _ = cy.trace_cycle(zero, -4, 3, 0)
    assert abs(tr) < 1e-20


def test_trace_gamma_class_independence():
    # replacing a representative by a translate leaves the trace unchanged
    from test_qforms import random_sl2
    from shintani import qforms as qf
    rng = random.Random(15)
    Q = class_reps(12).reps[0]
    base = cy.closed_cycle_integral(E2_EVAL, Q, 0).value
    for _ in range(2):
        QT = Q.compose(random_sl2(rng, size=2, length=3))
        moved = cy.closed_cycle_integral(E2_EVAL, QT, 0).value
        assert abs(base - moved) < 1e-8


def test_trace_rejects_bad_signs():
    with pytest.raises(ValueError):
        cy.trace_cycle(E2, -3, 2, 0)     # sgn(delta) D = -2 mod 4
    with pytest.raises(ValueError):
        cy.trace_cycle(E2, 5, 4, 0)      # (-1)^(k+1) delta < 0 at k = 0


def test_trace_rejects_weight_other_than_2k_plus_2():
    # E2* has weight 2, so k = 0 is its only cycle integral; k != 0 used to
    # return a meaningless value on square pairs and exhaust the closed rule
    for delta, D, k in ((5, 5, 1), (-3, 3, 2), (5, 12, 1)):
        with pytest.raises(ValueError, match="weight 2, not 2k"):
            cy.trace_cycle(E2, delta, D, k)


def test_l_star_value_and_sigma_sum():
    L, _ = cy.l_star_value(E2, -3, 0, evaluator=E2_EVAL)
    v = L / (12 * mpmath.sqrt(3))
    assert abs(v - mpf(1) / 9) < 1e-8
    assert abs(cy.sigma_exp_sum(-3) - mpf(1) / 9) < 1e-20
    assert abs(v - cy.sigma_exp_sum(-3)) < 1e-8


def test_combinatorial_identity_small():
    for k in range(9):
        for d in range(k + 1):
            lhs, rhs = cy.combinatorial_identity_sides(d, k)
            assert lhs == rhs, (d, k)
    with pytest.raises(ValueError):
        cy.combinatorial_identity_sides(3, 2)


def test_hecke_identity_square_discriminant_route():
    # D = |delta| makes |delta| D a square: the same closed-form target
    # 12 H(|d|) H(D), reached through the regularized dispatch of trace_cycle
    tr, _ = cy.trace_cycle(E2, -3, 3, 0, evaluator=E2_EVAL)
    assert abs(tr - mpf(4) / 3) < 1e-6
    tr, _ = cy.trace_cycle(E2, -4, 4, 0, evaluator=E2_EVAL)
    assert abs(tr - 3) < 1e-6


# nodes of every class's cycle integral on the grid below, in class_reps
# order (closed pairs: trapezoid samples; square pairs: the larger of the two
# rays' final Clenshaw-Curtis levels n, each taking n + 1 samples per panel)
HECKE_GRID_NODES = {
    (-3, 3): (64, 64), (-3, 4): (32, 32), (-3, 7): (32, 32), (-3, 8): (64, 64),
    (-3, 11): (128, 128), (-3, 12): (64, 64, 64, 64), (-3, 15): (64, 64),
    (-3, 16): (32, 64, 32, 64), (-3, 19): (128, 128), (-3, 20): (64, 64, 64, 64),
    (-4, 3): (32, 32), (-4, 4): (64, 64), (-4, 7): (64, 64), (-4, 8): (64, 64),
    (-4, 11): (64, 64), (-4, 12): (64, 64), (-4, 15): (64, 64, 64, 64), (-7, 3): (32, 32),
    (-7, 4): (64, 64), (-7, 7): (64, 64, 64, 64, 64, 64), (-7, 8): (128, 128),
    (-8, 3): (64, 64), (-8, 4): (64, 64), (-8, 7): (128, 128), (-11, 3): (128, 128),
    (-11, 4): (64, 64), (-15, 3): (64, 64), (-15, 4): (64, 64, 64, 64), (-19, 3): (128, 128),
    (-20, 3): (64, 64, 64, 64),
}


def _recording(fn, nodes):
    def wrapper(*args, **kwargs):
        res = fn(*args, **kwargs)
        nodes.append(res.nodes)
        return res
    return wrapper


@lru_cache(maxsize=None)
def _hecke_grid():
    """(delta, D) -> (|tr_delta(E2*, D) - 12 H(|delta|) H(D)|, reported error,
    nodes per class) for every admissible pair with |delta| D <= 60."""
    from shintani.specfun import is_fundamental_discriminant
    pairs = [(d, D) for d in range(-3, -61, -1) if is_fundamental_discriminant(d)
             for D in range(1, 60 // -d + 1) if -D % 4 in (0, 1)]
    nodes, originals = [], {}
    for name in ("closed_cycle_integral", "reg_cycle_integral"):
        originals[name] = getattr(cy, name)
        setattr(cy, name, _recording(originals[name], nodes))
    try:
        out = {}
        for d, D in pairs:
            nodes.clear()
            tr, qerr = cy.trace_cycle(E2, d, D, 0)
            H = 12 * hurwitz_class_number(-d) * hurwitz_class_number(D)
            with mp.workdps(80):
                err = float(abs(tr - mpf(H.numerator) / H.denominator))
            out[d, D] = (err, qerr, tuple(nodes))
        return out
    finally:
        for name, fn in originals.items():
            setattr(cy, name, fn)


def test_hecke_identity_grid():
    # tr_delta(E2*, D) = 12 H(|delta|) H(D) for every admissible pair with
    # |delta| D <= 60
    grid = _hecke_grid()
    square = [(d, D) for d, D in grid if math.isqrt(-d * D) ** 2 == -d * D]
    assert len(grid) == 30
    assert square == [(-3, 3), (-3, 12), (-4, 4), (-7, 7)]
    for pair, (err, _, _) in grid.items():
        assert err < (1e-6 if pair in square else 1e-25), (pair, err)


def test_hecke_grid_error_bounded():
    # the reported error bounds the observed one on all 30 pairs: both the
    # closed pairs' trapezoid rule and the square pairs' Clenshaw-Curtis
    # rays report the geometric rate plus a rounding floor
    for pair, (err, qerr, _) in _hecke_grid().items():
        assert err <= qerr, (pair, err, qerr)


def test_hecke_grid_node_counts():
    # the evaluator's kernel changes no convergence decision
    assert {pair: nodes for pair, (_, _, nodes) in _hecke_grid().items()} == HECKE_GRID_NODES


def test_closed_integral_weight_six_invariance():
    # k = 2 closed path with a genuine weight-6 form: base-point and
    # representative independence exercise the cocycle evaluation
    E6 = build_standard_forms(48)["E6"]
    ev = lambda z: fo.eval_modular(E6, z)[0]
    Q = QForm(1, 2, -2)
    r1 = cy.closed_cycle_integral(ev, Q, 2, base_angle=mpmath.pi / 2)
    r2 = cy.closed_cycle_integral(ev, Q, 2, base_angle=mpf("0.9"))
    assert abs(r1.value - r2.value) < 1e-9
    from test_qforms import random_sl2
    rng = random.Random(3)
    QT = Q.compose(random_sl2(rng, size=2, length=3))
    r3 = cy.closed_cycle_integral(ev, QT, 2)
    assert abs(r1.value - r3.value) < 1e-8


def test_closed_integral_weight_four_invariance():
    # k = 1 closed path with E4 (weight 2k + 2 = 4): base-point and
    # representative independence exercise Q(z,1)^k in the node geometry
    E4 = build_standard_forms(48)["E4"]
    ev = lambda z: fo.eval_modular(E4, z)[0]
    Q = QForm(1, 2, -2)
    r1 = cy.closed_cycle_integral(ev, Q, 1, base_angle=mpmath.pi / 2)
    r2 = cy.closed_cycle_integral(ev, Q, 1, base_angle=mpf("0.9"))
    assert abs(r1.value) > 1 and abs(r1.value - r2.value) < 1e-9
    from test_qforms import random_sl2
    rng = random.Random(4)
    QT = Q.compose(random_sl2(rng, size=2, length=3))
    r3 = cy.closed_cycle_integral(ev, QT, 1)
    assert abs(r1.value - r3.value) < 1e-8


def _cohen_H(r, N):
    """Cohen's generalized class number H(r, N) for N > 0, exactly: with
    (-1)^r N = d f^2 and d fundamental, L(1 - r, chi_d) times
    sum_{e | f} mu(e) chi_d(e) e^(r-1) sigma_(2r-1)(f/e); 0 where (-1)^r N
    is not a discriminant."""
    from shintani.specfun import (dirichlet_L_exact_nonpositive, is_fundamental_discriminant,
                                  kronecker_symbol)
    from shintani.qforms import _factor
    M = (-1) ** r * N
    if M % 4 not in (0, 1):
        return Fraction(0)
    f = next(f for f in range(math.isqrt(N), 0, -1)
             if M % (f * f) == 0 and is_fundamental_discriminant(M // (f * f)))
    d = M // (f * f)
    mu = lambda e: 0 if any(x > 1 for x in _factor(e).values()) else (-1) ** len(_factor(e))
    sigma = lambda n: sum(t ** (2 * r - 1) for t in range(1, n + 1) if n % t == 0)
    return dirichlet_L_exact_nonpositive(d, 1 - r) * sum(
        mu(e) * kronecker_symbol(d, e) * e ** (r - 1) * sigma(f // e)
        for e in range(1, f + 1) if f % e == 0)


def test_cohen_class_number_is_hurwitz_at_r_one():
    # the oracle of the test below: H(1, N) is the Hurwitz class number
    assert [_cohen_H(1, N) for N in range(1, 201)] == \
        [hurwitz_class_number(N) for N in range(1, 201)]
    assert _cohen_H(2, 16) == Fraction(-55, 12) and _cohen_H(2, 3) == 0


@lru_cache(maxsize=None)
def _eisenstein(order):
    """The weight-(2k+2) Eisenstein data by k = 0, 1, 2, 3: E2*, E4, E6 and
    E8 = E4^2, the last three the only forms of their weights."""
    F = build_standard_forms(order)
    e4 = [F["E4"].a_plus[n] for n in range(order + 1)]
    return {0: fo.e2_star_data(order), 1: F["E4"], 2: F["E6"],
            3: HarmonicFourierData(8, dict(enumerate(fo._series_mul(e4, e4, order))), {}, order)}


# (delta, D), delta fundamental with (-1)^(k+1) delta > 0 and |delta| D not
# a square; (8, 16) has a non-fundamental D
_EISENSTEIN_PAIRS = {
    1: [(5, 1), (5, 4), (5, 8), (5, 12), (8, 1), (8, 5), (8, 16), (12, 1), (13, 4)],
    2: [(-3, 4), (-3, 7), (-3, 8), (-4, 3), (-4, 7), (-4, 8), (-7, 3), (-7, 4), (-8, 3)],
    3: [(5, 1), (5, 4), (5, 8), (8, 1), (8, 5), (8, 12), (12, 1), (12, 5), (13, 4)],
}
# and with |delta| D a square; (5, 20) and (-3, 12) have a non-fundamental D
_SQUARE_EISENSTEIN_PAIRS = {
    1: [(5, 5), (8, 8), (5, 20)],
    2: [(-3, 3), (-4, 4), (-3, 12)],
    3: [(5, 5), (8, 8), (12, 12)],
}


def _check_eisenstein_traces(pairs, square):
    # tr_delta(E_{2k+2}, D) = -H(k+1, |delta|) H(k+1, D) / zeta(-1-2k) for
    # k = 1, 2, 3 (the constants -120, 252, -240; k = 0 is crit 3's 12 H H)
    from shintani.specfun import dirichlet_L_exact_nonpositive
    E = _eisenstein(64)
    for k, kpairs in pairs.items():
        c = -1 / dirichlet_L_exact_nonpositive(1, -1 - 2 * k)
        assert c == (-120, 252, -240)[k - 1]
        for delta, D in kpairs:
            assert (math.isqrt(abs(delta) * D) ** 2 == abs(delta) * D) == square
            target = c * _cohen_H(k + 1, abs(delta)) * _cohen_H(k + 1, D)
            tr, qerr = cy.trace_cycle(E[k], delta, D, k)
            with mp.workdps(80):
                # within the reported error itself, which is stricter than
                # that error plus 1e-35 max(1, |target|)
                t = mpf(target.numerator) / target.denominator
                assert abs(tr - t) <= qerr, (k, delta, D, float(abs(tr - t)), qerr, target)


def test_eisenstein_traces_on_closed_cycles():
    # the identity on closed cycles: the holomorphic tables and the cocycle
    # at weight 4, 6 and 8, with Q(z, 1)^k in the node geometry
    _check_eisenstein_traces(_EISENSTEIN_PAIRS, square=False)


def test_eisenstein_traces_on_square_discriminants():
    # the same identity through the regularized integrals along infinite
    # geodesics, each run downward: an orientation that flips with the
    # parity of k negates the odd-k traces
    _check_eisenstein_traces(_SQUARE_EISENSTEIN_PAIRS, square=True)


def test_negated_square_classes():
    # -Q pairs with Q on square discriminants as on closed cycles, so one
    # integral can serve both classes: -Q's class, square_normalize(-Q), has
    # chi(-Q) = sgn(delta) chi(Q), and where chi != 0 its regularized
    # integral is I(-Q) = (-1)^(k+1) I(Q) within the two integrals' reported
    # errors, at k = 0-3 and so on either side of the sign condition.  At
    # odd k (delta > 0) Q and -Q carry the same chi and the same integral;
    # (0, 5, 2) and (0, 5, 3) at disc 25 are their own negatives
    E = _eisenstein(32)     # order 32 is past every term these rays keep
    results = {}

    def integral(Q, k):
        if (Q, k) not in results:
            G = E[k]
            results[Q, k] = cy.reg_cycle_integral(
                G, Q, k, evaluator=lambda z: fo.eval_modular(G, z)[0])
        return results[Q, k]

    own = set()
    for delta, D in ((-3, 3), (-4, 4), (-3, 12), (5, 5), (8, 8)):
        reps = class_reps(abs(delta) * D).reps
        for Q in reps:
            N, _ = square_normalize(Q.neg())
            chi = genus_char(delta, Q)
            assert N in reps and genus_char(delta, N) == (1 if delta > 0 else -1) * chi
            if not chi:
                continue
            if N == Q:
                own.add(Q)
            for k in ((1, 3) if delta > 0 else (0, 2)):
                I, J = integral(Q, k), integral(N, k)
                with mp.workdps(60):
                    err = abs(J.value - (-1) ** (k + 1) * I.value)
                assert err <= I.quadrature_error + J.quadrature_error, (delta, D, Q, k, err)
    assert own == {QForm(0, 5, 2), QForm(0, 5, 3)}
