"""The Schwartz-function summand, its Laplace preimage, the truncated
theta sums and the direct lift quadrature."""

import math
import random

import mpmath
import pytest
from mpmath import mp, mpf, mpc

from shintani import lift
from shintani import thetacore as th
from shintani.qforms import QForm, class_reps, hurwitz_class_number
from shintani.hyperbolic import form_polynomials


def random_admissible(rng, delta, k):
    """(ctx, Q, z) with z away from the singular loci."""
    ctx = th.ThetaContext(delta, k, mpc(rng.uniform(-0.4, 0.4),
                                        rng.uniform(0.4, 1.5)))
    while True:
        if delta < 0:
            D = rng.choice([-1, 1, -4, 4, 3]) if delta == -3 else rng.choice([-4, 4, 3, -7])
        else:
            D = rng.choice([1, -1, 4, -4, 5])
        sD = D if delta > 0 else -D
        if sD % 4 not in (0, 1):
            continue
        disc = abs(delta) * D
        if disc % 4 not in (0, 1) or disc == 0:
            continue
        reps = class_reps(disc).reps
        if not reps:
            continue
        Q = rng.choice(reps)
        if Q.disc < 0 and Q.a < 0:
            Q = Q.neg()
        z = mpc(rng.uniform(-0.9, 0.9), rng.uniform(0.5, 1.7))
        p, qz, _ = form_polynomials(Q, z)
        if abs(qz) / z.imag ** 2 > 0.08 and abs(p) > 0.08:
            return ctx, Q, z


# ---------------------------------------------------------------------------
# phi0 and eta
# ---------------------------------------------------------------------------

def test_phi0_nonzero_at_cm_point():
    ctx = th.ThetaContext(-3, 0, mpc(0.1, 0.9))
    Q = QForm(1, 1, 1)
    from shintani.hyperbolic import cm_point
    z = cm_point(Q)
    val = th.phi_sh0(ctx, Q, z, "kernel")
    # at the CM point |Q(z,1)| = 0, so the exponent is +4 pi v D (D = -1)
    assert abs(val) > 0
    y = z.imag
    qbar = Q.a * mpmath.conj(z) ** 2 + Q.b * mpmath.conj(z) + Q.c
    expect = 2 * mpmath.sqrt(ctx.v) * qbar / (mpmath.sqrt(3) * y * y) \
        * mpmath.e ** (4 * mpmath.pi * ctx.v * (-1))
    assert abs(val - expect) < 1e-24


def test_phi0_decay_off_locus():
    ctx = th.ThetaContext(-3, 0, mpc(0.0, 1.0))
    Q = QForm(1, 1, 1)
    for j in range(10):
        z = mpc(5 + j, mpf("0.1"))     # far from the CM point: |p| large
        p, _, _ = form_polynomials(Q, z)
        assert abs(p) > 20
        assert abs(th.phi_sh0(ctx, Q, z, "kernel")) < 1e-30


def test_normalization_dictionary_measured():
    # preimage(v) = |delta|^-(k+1)/2 kernel(v/4), and kernel = 2^-k times the
    # untwisted summand at the rescaled coefficients 2(a,b,c)/sqrt|delta|
    rng = random.Random(20)
    for k, delta in ((0, -3), (1, 5), (2, -4)):
        for _ in range(20):
            ctx, Q, z = random_admissible(rng, delta, k)
            ctx4 = th.ThetaContext(delta, k, mpc(ctx.u, ctx.v / 4))
            pre = th.phi_sh0(ctx, Q, z, "preimage")
            ker4 = th.phi_sh0(ctx4, Q, z, "kernel")
            const = mpf(abs(delta)) ** (-mpf(k + 1) / 2)
            assert abs(pre - const * ker4) <= 1e-22 * (1 + abs(pre))
            sc = 2 / mpmath.sqrt(abs(delta))
            lat = th.phi_sh0_lattice((Q.a * sc, Q.b * sc, Q.c * sc), ctx.v, z, k)
            ker = th.phi_sh0(ctx, Q, z, "kernel")
            assert abs(ker - mpf(2) ** (-k) * lat) <= 1e-22 * (1 + abs(ker))


def test_eta_dual_paths():
    rng = random.Random(21)
    for k in (0, 1, 2, 3):
        delta = -3 if k % 2 == 0 else 5
        for _ in range(13):
            ctx, Q, z = random_admissible(rng, delta, k)
            a = th.eta(ctx, Q, z, "recursion")
            b = th.eta(ctx, Q, z, "quadrature")
            assert abs(a - b) <= 1e-10 * (1 + abs(a)), (k, Q)


def test_eta_singularity_guard():
    ctx = th.ThetaContext(-3, 0, mpc(0.1, 0.9))
    Q = QForm(1, 1, 1)
    from shintani.hyperbolic import cm_point
    z = cm_point(Q) + mpf("1e-9")
    with pytest.raises(ArithmeticError):
        th.eta(ctx, Q, z)


def test_eta_tail_envelope():
    # k = 0, large |p|: |eta| <= erfc-tail / (2|Q(z,1)|) with Gaussian envelope
    ctx = th.ThetaContext(-3, 0, mpc(0.0, 1.0))
    Q = QForm(0, 3, 1)   # D = 3, indefinite
    for x in (2, 3, 4):
        z = mpc(x, mpf("0.7"))
        p, qz, _ = form_polynomials(Q, z)
        v = ctx.v
        envelope = mpmath.e ** (-mpmath.pi * v * p * p / 3) / abs(qz)
        assert abs(th.eta(ctx, Q, z)) < envelope


def test_eta_continuous_across_geodesic():
    ctx = th.ThetaContext(-3, 0, mpc(0.2, 0.8))
    Q = QForm(0, 3, 1)   # geodesic x = -1/3
    x0 = mpf(-1) / 3
    for y in (mpf("0.7"), mpf("1.3")):
        # |p|-dependence only: probes straddling the geodesic differ by the
        # smooth O(eps) variation, with no jump term
        a = th.eta(ctx, Q, mpc(x0 - mpf("1e-12"), y))
        b = th.eta(ctx, Q, mpc(x0 + mpf("1e-12"), y))
        assert abs(a - b) < 1e-8


def test_xi_eta_jump_across_geodesic():
    ctx = th.ThetaContext(-3, 0, mpc(0.2, 0.8))
    Q = QForm(0, 3, 1)
    x0 = mpf(-1) / 3
    y = mpf("1.1")
    a = th.xi_eta_closed(ctx, Q, mpc(x0 - mpf("1e-6"), y))
    b = th.xi_eta_closed(ctx, Q, mpc(x0 + mpf("1e-6"), y))
    # jump = Q(z,1)^k / |delta|^(k+1/2) * erfc(0) with a sign flip: k = 0
    assert abs(abs(a - b) - 1 / mpmath.sqrt(3)) < 1e-4
    # exactly on a geodesic (x = 0 for (0,3,0)): rejected
    with pytest.raises(ArithmeticError):
        th.xi_eta_closed(ctx, QForm(0, 3, 0), mpc(0, y))


def test_eta_growth_along_vertical_line():
    # log|eta| against y^2 slopes downward both for y -> 0 and y -> oo
    ctx = th.ThetaContext(-3, 0, mpc(0.0, 0.9))
    for Q in (QForm(1, 1, 1), QForm(1, 0, 3), QForm(2, 1, 2), QForm(1, 1, 7),
              QForm(3, 3, 1)):
        if Q.disc % 3:
            continue
        xline = mpf("0.37")
        # past the |p|-minimum of every listed form: slope of log|eta|
        # against y^2 is negative as y grows
        ys = [mpf(t) for t in ("3.5", "4.5", "5.5")]
        vals = [float(mpmath.log(abs(th.eta(ctx, Q, mpc(xline, y))))) for y in ys]
        slopes = [(vals[i + 1] - vals[i]) / float(ys[i + 1] ** 2 - ys[i] ** 2)
                  for i in range(2)]
        assert all(s < 0 for s in slopes), Q
        # and against 1/y^2 as y -> 0
        ys = [mpf(t) for t in ("0.2", "0.15", "0.1")]
        vals = [float(mpmath.log(abs(th.eta(ctx, Q, mpc(xline, y))))) for y in ys]
        slopes = [(vals[i + 1] - vals[i]) / float(1 / ys[i + 1] ** 2 - 1 / ys[i] ** 2)
                  for i in range(2)]
        assert all(s < 0 for s in slopes), Q


# ---------------------------------------------------------------------------
# fd operators
# ---------------------------------------------------------------------------

def test_fd_holomorphic_killed_by_xi():
    f = lambda z: z ** 3
    for kappa in (0, 2, 5):
        xi, _ = th.fd_operators(f, kappa, mpc("0.4", "1.2"))
        assert abs(xi) < 1e-8


def test_fd_harmonic_y():
    _, lap = th.fd_operators(lambda z: z.imag, 0, mpc("0.3", "0.8"))
    assert abs(lap) < 1e-8


def test_fd_rejects_nonfinite():
    def bad(z):
        return mpf("nan")
    with pytest.raises(ArithmeticError):
        th.fd_operators(bad, 2, mpc(0, 1))


def test_eta_differential_equations():
    # xi_{2k+2} eta = closed form (1e-6), Delta_{2k+2} eta = phi0 preimage (1e-4)
    rng = random.Random(31)
    for k in (0, 1, 2):
        delta = -3 if k % 2 == 0 else 5
        for _ in range(20):
            ctx, Q, z = random_admissible(rng, delta, k)
            f = lambda w: th.eta(ctx, Q, w, "recursion")
            xi, lap = th.fd_operators(f, 2 * k + 2, z)
            closed = th.xi_eta_closed(ctx, Q, z)
            pre = th.phi_sh0(ctx, Q, z, "preimage")
            assert abs(xi - closed) <= 1e-6 * (1 + abs(closed)), (k, Q, z)
            assert abs(lap - pre) <= 1e-4 * (1 + abs(pre)), (k, Q, z)


# ---------------------------------------------------------------------------
# theta sums
# ---------------------------------------------------------------------------

def test_theta_weight_in_z():
    ctx = th.ThetaContext(-3, 0, mpc(0.1, 0.8), truncation_radius=25)
    for zz in (mpc("0.2", "1.3"), mpc("-0.35", "0.9")):
        v1, t1 = th.theta_truncated(ctx, zz)
        v2, t2 = th.theta_truncated(ctx, -1 / zz)
        z = complex(zz)
        assert abs(v2 - z ** 2 * v1) <= 10 * (t1 + t2) + 1e-12


def test_theta_tau_translation_phases():
    import cmath
    ctx1 = th.ThetaContext(-3, 0, mpc(0.1, 0.8), truncation_radius=15)
    ctx2 = th.ThetaContext(-3, 0, mpc(1.1, 0.8), truncation_radius=15)
    z = mpc("0.2", "1.3")
    a, _ = th.theta_truncated(ctx1, z, by_D=True)
    b, _ = th.theta_truncated(ctx2, z, by_D=True)
    for D in a:
        assert abs(b[D] - a[D] * cmath.exp(-2j * cmath.pi * D)) < 1e-15


def test_theta_coefficient_extraction_two_paths():
    # u-integration over one period against the direct per-D partial sums
    import numpy as np
    z = mpc("0.15", "1.2")
    v = 0.8
    M = 2200   # exceeds twice the largest |D| in the radius-15 sum
    ctx0 = th.ThetaContext(-3, 0, mpc(0.0, v), truncation_radius=15)
    byD, _ = th.theta_truncated(ctx0, z, by_D=True)
    targets = [d for d in sorted(byD) if abs(byD[d]) > 1e-18][:3]
    us = np.arange(M) / M
    samples = []
    for u in us:
        ctx = th.ThetaContext(-3, 0, mpc(float(u), v), truncation_radius=15)
        val, _ = th.theta_truncated(ctx, z)
        samples.append(val)
    samples = np.array(samples)
    for D in targets:
        coeff = (samples * np.exp(2j * np.pi * D * us)).mean()
        assert abs(coeff - byD[D]) < 1e-10, D


def test_theta_radius_stability():
    ctx25 = th.ThetaContext(-3, 0, mpc(0.1, 0.8), truncation_radius=25)
    ctx35 = th.ThetaContext(-3, 0, mpc(0.1, 0.8), truncation_radius=35)
    z = mpc("0.2", "1.1")
    v25, t25 = th.theta_truncated(ctx25, z)
    v35, _ = th.theta_truncated(ctx35, z)
    assert abs(v25 - v35) <= max(t25, 1e-14)


def test_context_validation():
    with pytest.raises(ValueError):
        th.ThetaContext(-3, 1, mpc(0, 1))    # sign condition
    with pytest.raises(ValueError):
        th.ThetaContext(-6, 0, mpc(0, 1))    # not fundamental
    with pytest.raises(ValueError):
        th.ThetaContext(-3, 0, mpc(0, -1))   # lower half-plane
    with pytest.raises(ValueError):
        th.ThetaContext(5, -1, mpc(0, 1))    # weight 2k + 2 = 0, outside k >= 0
    for radius in (0, -3):                   # an empty sum claims no tail
        with pytest.raises(ValueError):
            th.ThetaContext(-3, 0, mpc(0, 1), truncation_radius=radius)


# ---------------------------------------------------------------------------
# lift quadrature and constant term
# ---------------------------------------------------------------------------

def test_lift_constant_term_values():
    got = th.lift_constant_term(-3, 0, 1)
    expect = -mpf(1) / (3 * mpmath.sqrt(3))
    assert abs(got - expect) < 1e-20
    assert th.lift_constant_term(-3, 0, 0) == 0
    # consistency with the -H(|delta|) constant of the Eisenstein lift:
    # sqrt(3) * value = -H(3) for a+(0) = 1
    assert abs(mpmath.sqrt(3) * got + mpf(1) / 3) < 1e-10


def test_lift_kernel_dictionary_constant():
    # the kernel-pairing/trace-normalization ratio is the same constant
    # -1/|delta| across D and v (measured; frozen here)
    for delta, D in ((-3, 7), (-4, 8)):
        for v in (0.25, 0.4):
            coeff, est = lift.lift_coefficient_quadrature(delta, D, v=v, grid=6, radius=32)
            raw = coeff / (lift.LIFT_KERNEL_DICTIONARY / abs(delta))
            target = float(12 * hurwitz_class_number(abs(delta))
                           * hurwitz_class_number(D) / math.sqrt(abs(delta)))
            ratio = raw.real / target
            assert abs(ratio - (-abs(delta))) < 5e-3 * abs(delta), (delta, D, v)


@pytest.mark.slow
def test_lift_quadrature_acceptance_pairs():
    for delta, D in ((-3, 4), (-4, 3)):
        coeff, est = lift.lift_coefficient_quadrature(delta, D, v=0.25,
                                                    grid=12, radius=40)
        target = float(12 * hurwitz_class_number(abs(delta))
                       * hurwitz_class_number(D) / math.sqrt(abs(delta)))
        assert abs(coeff.real - target) <= 5e-2 * abs(target)
        assert abs(coeff.imag) < 1e-8
        assert est <= 5e-2 * abs(target)


def _lift_oracle_raw(delta, D, v, grid, T=6.0, radius=40, order=48):
    """The lift's two raw kernel pairings (coarse, fine) by the per-point
    loop: every y-point of every y-panel of every x-node summed over the
    whole radius box, with E2* by powers of q."""
    import numpy as np
    from shintani.forms import e2_star_data
    a_plus = e2_star_data(order).a_plus
    forms = lift._disc_forms(delta, D, radius, radius)
    q, disc = abs(delta), abs(delta) * D
    a, b, c, chi = forms.T

    def e2star(z):
        out, qq = np.full(z.shape, 1.0 + 0j), np.exp(2j * np.pi * z)
        qn = np.ones_like(qq)
        for n in range(1, order + 1):
            qn = qn * qq
            out += a_plus[n] * qn
        return out - 3 / (np.pi * z.imag)

    def integrate(nx, ny):
        gx, gw = np.polynomial.legendre.leggauss(8)
        total = 0.0 + 0j
        xedges = np.linspace(-0.5, 0.5, nx + 1)
        for xi0, xi1 in zip(xedges[:-1], xedges[1:]):
            xm, xh = (xi0 + xi1) / 2, (xi1 - xi0) / 2
            for xnode, xwt in zip(gx, gw):
                x = xm + xh * xnode
                ylow = math.sqrt(max(1 - x * x, 0.75))
                ratio = (T / ylow) ** (1.0 / ny)
                yedges = ylow * ratio ** np.arange(ny + 1)
                for y0, y1 in zip(yedges[:-1], yedges[1:]):
                    ym, yh = (y0 + y1) / 2, (y1 - y0) / 2
                    ys = ym + yh * gx
                    zs = x + 1j * ys
                    e2 = e2star(zs)
                    vals = np.zeros_like(zs)
                    for i, zz in enumerate(zs):
                        yy = ys[i]
                        p = -(a * (x * x + yy * yy) + b * x + c) / yy
                        qbar = a * np.conj(zz) ** 2 + b * np.conj(zz) + c
                        AD = (2 * math.sqrt(v) * (chi * qbar *
                              np.exp(-4 * math.pi * v * (p * p + disc) / q)).sum()
                              / (math.sqrt(q) * yy * yy))
                        vals[i] = e2[i] * np.conj(AD)
                    total += xwt * xh * (gw * yh * vals).sum()
        return total

    return integrate(grid, grid), integrate(2 * grid, 2 * grid)


def test_lift_quadrature_matches_per_point_oracle():
    # the array pass with pruned forms against the per-point loop over the
    # whole box; the estimate is a difference of two passes plus the bound
    # for F above y = T (added here to the oracle's difference), so both are
    # compared relative to the coefficient
    for delta, D in ((-4, 3), (-3, 4), (-3, 7), (-4, 8)):
        for grid in (3, 5):
            for v in (0.25, 0.4):
                coarse, fine = _lift_oracle_raw(delta, D, v, grid)
                coeff, coeff_est = lift.lift_coefficient_quadrature(delta, D, v=v, grid=grid)
                # the raw kernel pairing, with the kernel dictionary taken out
                dictionary = lift.LIFT_KERNEL_DICTIONARY / abs(delta)
                for normalized in (True, False):
                    scale = math.sqrt(abs(delta)) * math.exp(4 * math.pi * D * v)
                    if normalized:
                        scale *= lift.LIFT_KERNEL_DICTIONARY / abs(delta)
                    want, want_est = scale * fine, abs(scale * (fine - coarse))
                    unit = 2 * math.sqrt(v) * (abs(lift.LIFT_KERNEL_DICTIONARY) / abs(delta)
                                               if normalized else 1)
                    want_est += unit * lift._above_T_bound(abs(delta) * D, abs(delta), v, 6.0)
                    got, est = ((coeff, coeff_est) if normalized
                                else (coeff / dictionary, coeff_est / abs(dictionary)))
                    case = (delta, D, grid, v, normalized)
                    assert abs(got - want) <= 1e-13 * abs(want), case
                    assert abs(est - want_est) <= 1e-13 * abs(want), case


@pytest.mark.parametrize("delta, D", [(-4, 3), (-3, 7)])
@pytest.mark.parametrize("grid", [4, 8, 10])
def test_lift_error_estimate_bounds_error(delta, D, grid):
    # at T = 6 the part of F above y = T is what the fine and coarse passes
    # share: for (-4, 3) it is the 3.3e-12 that the pass difference misses
    coeff, est = lift.lift_coefficient_quadrature(delta, D, grid=grid)
    target = float(12 * hurwitz_class_number(abs(delta)) * hurwitz_class_number(D)
                   / math.sqrt(abs(delta)))
    assert abs(coeff.real - target) <= est, (abs(coeff.real - target), est)
    assert abs(coeff.imag) <= est


@pytest.mark.parametrize("delta, D", [(-4, 39), (-3, 52), (-8, 15), (-7, 24)])
def test_lift_cut_height_follows_discriminant(delta, D):
    # |delta| D > 36: the a = +-1 geodesics reach above y = 6, and at a fixed
    # T = 6 the error was O(1) (2.6 at (-4, 39))
    coeff, est = lift.lift_coefficient_quadrature(delta, D, grid=8)
    target = float(12 * hurwitz_class_number(abs(delta)) * hurwitz_class_number(D)
                   / math.sqrt(abs(delta)))
    err = abs(coeff - target)
    assert err <= est and err <= 1e-4, (err, est)


def test_above_T_bound_scales():
    # the bound follows the a = +-1 terms' decay e^(-beta m(T)^2); it is
    # infinite once an a = +-1 geodesic reaches above T
    b6, b7 = (lift._above_T_bound(12, 4, 0.25, T) for T in (6.0, 7.0))
    assert 1e-11 < b6 < 1e-9 and b7 < b6 * 1e-3
    assert lift._above_T_bound(400, 4, 0.25, 6.0) == math.inf


def test_lift_quadrature_memory():
    # one x-node at a time: a points-by-forms broadcast of the grid-12 fine
    # pass would hold ~130 MB per complex temporary
    import tracemalloc
    tracemalloc.start()
    try:
        lift.lift_coefficient_quadrature(-4, 3, grid=12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


def test_lift_rejects_bad_arguments():
    # the CLI checks the others (test_usage_error_exit_code)
    for delta in (-5, 0):
        with pytest.raises(ValueError, match="negative fundamental discriminant"):
            lift.lift_coefficient_quadrature(delta, 1)


def test_e2star_np_matches_multiprecision():
    import numpy as np
    from shintani.forms import e2_star_data, eval_qexp
    xs, ys = np.meshgrid(np.linspace(-0.5, 0.5, 9), np.linspace(0.8, 6.0, 9))
    zs = (xs + 1j * ys).ravel()
    got = lift._e2star_np(zs)
    for zv, gv in zip(zs, got):
        assert abs(gv - complex(eval_qexp(e2_star_data(48), mpc(zv))[0])) <= 1e-12


def test_lift_rejects_square_disc():
    with pytest.raises(NotImplementedError):
        lift.lift_coefficient_quadrature(-3, 3)
