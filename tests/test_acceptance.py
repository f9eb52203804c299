"""Acceptance gate: every closed-form criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them on success)
and enforces both the numeric tolerance and the runtime budget.
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf, mpc

from shintani import cycles as cy
from shintani import cmtraces as cm
from shintani import forms as fo
from shintani import qforms as qf
from shintani import lift
from shintani import thetacore as th
from shintani.specfun import Precision, dirichlet_L, dirichlet_L_exact_nonpositive
from shintani.qforms import QForm, hurwitz_class_number
from shintani.forms import HarmonicFourierData


def _line(num, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail} ({elapsed:.1f}s)")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. Hurwitz class numbers against an independent weighted enumeration
# ---------------------------------------------------------------------------

def _brute_force_H(D):
    """Direct scan of reduced positive definite forms of discriminant -D,
    weighted 1/3 for (a,a,a), 1/2 for (a,0,a), 1 otherwise.  Organized as a
    b-first divisor scan (the library enumerates a-first with a modular
    test), with (a,b,c) and (a,-b,c) counted separately when inequivalent.
    """
    if D == 0:
        return Fraction(-1, 12)
    acc = Fraction(0)
    b = D % 2
    while 3 * b * b <= D:
        m = b * b + D
        if m % 4 == 0:
            ac = m // 4
            for a in range(max(b, 1), math.isqrt(ac) + 1):
                if ac % a:
                    continue
                c = ac // a
                mult = 1 if (b == 0 or b == a or a == c) else 2
                if a == b == c:
                    acc += Fraction(mult, 3)
                elif b == 0 and a == c:
                    acc += Fraction(mult, 2)
                else:
                    acc += mult
        b += 2
    return acc


def test_criterion_01_hurwitz_class_numbers():
    t0 = time.time()
    bad = []
    for D in range(0, 201):
        if D % 4 not in (0, 3):
            continue
        if hurwitz_class_number(D) != _brute_force_H(D):
            bad.append(D)
    elapsed = time.time() - t0
    ok = not bad and elapsed < 5
    _line(1, ok, f"H(D) exact for all valid D <= 200 (mismatches: {bad})", elapsed)


# ---------------------------------------------------------------------------
# 2. Dirichlet class number formula
# ---------------------------------------------------------------------------

def test_criterion_02_class_number_formula():
    t0 = time.time()
    worst = 0.0
    for delta in (-3, -4, -7, -8, -11, -15, -19, -20, -23, -24):
        H = hurwitz_class_number(abs(delta))
        Hm = mpf(H.numerator) / H.denominator
        L0 = dirichlet_L(delta, 0).value
        L1 = dirichlet_L(delta, 1).value
        e0 = abs(L0 - Hm)
        e1 = abs(mpmath.sqrt(abs(delta)) * L1 / mpmath.pi - Hm)
        worst = max(worst, float(e0), float(e1))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 10
    _line(2, ok, f"L(0) = H and sqrt|d| L(1)/pi = H, worst error {worst:.2e}", elapsed)


# ---------------------------------------------------------------------------
# 3. Hecke / Eisenstein trace identity (non-square discriminants)
# ---------------------------------------------------------------------------

def test_criterion_03_hecke_identity():
    t0 = time.time()
    G = fo.e2_star_data(64)
    ev = lambda z: fo.e2_star_modular(z, 64)
    worst = 0.0
    for delta, D in ((-4, 3), (-3, 4), (-4, 7), (-3, 7), (-7, 3)):
        tr, _ = cy.trace_cycle(G, delta, D, 0, evaluator=ev)
        target = 12 * hurwitz_class_number(abs(delta)) * hurwitz_class_number(D)
        tm = mpf(target.numerator) / target.denominator
        worst = max(worst, float(abs(tr - tm)))
    elapsed = time.time() - t0
    ok = worst < 1e-5 and elapsed < 120
    _line(3, ok, f"trace = 12 H(|d|) H(D) on 5 pairs, worst error {worst:.2e}", elapsed)


# ---------------------------------------------------------------------------
# 4. square-discriminant L-value identity with sigma-sum cross-check
# ---------------------------------------------------------------------------

def test_criterion_04_square_lvalue():
    t0 = time.time()
    G = fo.e2_star_data(64)
    ev = lambda z: fo.e2_star_modular(z, 64)
    worst_H = 0.0
    worst_cross = 0.0
    for delta in (-3, -4, -7, -8):
        L, _ = cy.l_star_value(G, delta, 0, evaluator=ev)
        val = L / (12 * mpmath.sqrt(abs(delta)))
        H = hurwitz_class_number(abs(delta))
        target = mpf(H.numerator) ** 2 / H.denominator ** 2
        sig = cy.sigma_exp_sum(delta)
        worst_H = max(worst_H, float(abs(val - target)))
        worst_cross = max(worst_cross, float(abs(val - sig)))
    elapsed = time.time() - t0
    ok = worst_H < 1e-5 and worst_cross < 1e-8 and elapsed < 120
    _line(4, ok, f"L*/(12 sqrt|d|) = H^2 (err {worst_H:.2e}), "
                 f"sigma-sum cross-check (err {worst_cross:.2e})", elapsed)


# ---------------------------------------------------------------------------
# 5. regularized cycle integral well-definedness
# ---------------------------------------------------------------------------

def test_criterion_05_regularized_well_defined():
    t0 = time.time()
    prec = Precision(30)
    rng = random.Random(2024)
    worst_T = 0.0
    worst_alt = 0.0

    def check(G, k, Q, evaluator=None):
        nonlocal worst_T, worst_alt
        vals = {}
        for T in (1, 2, 5):
            vals[T] = cy.reg_cycle_integral(G, Q, k, T=T, prec=prec, nodes=32,
                                            tol=1e-14, evaluator=evaluator).value
        worst_T = max(worst_T, float(abs(vals[1] - vals[2])),
                      float(abs(vals[2] - vals[5])))
        alt = cy.reg_cycle_integral_alt(G, Q, k, T=2, prec=prec, nodes=32,
                                        tol=1e-14, evaluator=evaluator).value
        worst_alt = max(worst_alt, float(abs(vals[2] - alt)))

    check(fo.e2_star_data(64), 0, QForm(0, 3, 1),
          evaluator=lambda z: fo.e2_star_modular(z, 64))
    per_k = (4, 3, 3)   # ten synthetic instances across k = 0, 1, 2
    for k, count in enumerate(per_k):
        for _ in range(count):
            ap = {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for n in range(-1, 4)}
            am = {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for n in range(-3, 2)}
            G = HarmonicFourierData(2 * k + 2, ap, am, 8)
            Q = QForm(0, 3, rng.choice([1, 2]))
            check(G, k, Q)
    elapsed = time.time() - t0
    ok = worst_T < 1e-9 and worst_alt < 1e-6 and elapsed < 60
    _line(5, ok, f"T-independence (err {worst_T:.2e}), definition vs "
                 f"alternative (err {worst_alt:.2e})", elapsed)


# ---------------------------------------------------------------------------
# 6. the Laplace-preimage differential equations
# ---------------------------------------------------------------------------

def test_criterion_06_eta_preimage():
    from test_thetacore import random_admissible
    t0 = time.time()
    rng = random.Random(7)
    worst_xi = 0.0
    worst_lap = 0.0
    for k in (0, 1, 2):
        delta = -3 if k % 2 == 0 else 5
        for _ in range(20):
            ctx, Q, z = random_admissible(rng, delta, k)
            f = lambda w: th.eta(ctx, Q, w, "recursion")
            xi, lap = th.fd_operators(f, 2 * k + 2, z)
            closed = th.xi_eta_closed(ctx, Q, z)
            pre = th.phi_sh0(ctx, Q, z, "preimage")
            worst_xi = max(worst_xi, float(abs(xi - closed) / (1 + abs(closed))))
            worst_lap = max(worst_lap, float(abs(lap - pre) / (1 + abs(pre))))
    elapsed = time.time() - t0
    ok = worst_xi < 1e-6 and worst_lap < 1e-4 and elapsed < 60
    _line(6, ok, f"fd xi eta vs closed (err {worst_xi:.2e}), fd Laplacian vs "
                 f"Schwartz summand (err {worst_lap:.2e})", elapsed)


# ---------------------------------------------------------------------------
# 7. the two evaluation lemmas
# ---------------------------------------------------------------------------

def test_criterion_07_lemma_integrals():
    t0 = time.time()
    report = cy.lemma_integral_checks(k_max=4, n_max=3, ys=(0.5, 1, 2))
    worst = max(r["abs_error"] for r in report)
    elapsed = time.time() - t0
    ok = worst < 1e-8 and elapsed < 30
    _line(7, ok, f"{len(report)} lemma integrals vs closed forms, "
                 f"worst error {worst:.2e}", elapsed)


# ---------------------------------------------------------------------------
# 8. the binomial-sum identity, exact
# ---------------------------------------------------------------------------

def test_criterion_08_combinatorial_identity():
    t0 = time.time()
    bad = [(d, k) for k in range(9) for d in range(k + 1)
           if cy.combinatorial_identity_sides(d, k)[0]
           != cy.combinatorial_identity_sides(d, k)[1]]
    elapsed = time.time() - t0
    ok = not bad and elapsed < 1
    _line(8, ok, f"exact rational equality for 0 <= d <= k <= 8 "
                 f"(failures: {bad})", elapsed)


# ---------------------------------------------------------------------------
# 9. square-trace dichotomy
# ---------------------------------------------------------------------------

def test_criterion_09_square_trace():
    t0 = time.time()
    worst = 0.0
    for delta in (-3, -4, -7):
        H = hurwitz_class_number(abs(delta))
        Hm = mpf(H.numerator) / H.denominator
        for aD in range(1, 26):
            if aD % 4 not in (0, 1):
                continue
            tr = cm.trace_cm(1, delta, -aD)
            v = mpf(tr.value.numerator) / tr.value.denominator / mpmath.sqrt(aD)
            root = math.isqrt(aD)
            target = Hm if root * root == aD else mpf(0)
            worst = max(worst, float(abs(v - target)))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 10
    _line(9, ok, f"tr+(1,D)/sqrt|D| = H(|d|) iff |D| square, "
                 f"worst error {worst:.2e}", elapsed)


# ---------------------------------------------------------------------------
# 10. direct lift quadrature against the closed form (slow gate)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_10_direct_lift_quadrature():
    t0 = time.time()
    worst_rel = 0.0
    for delta, D in ((-3, 4), (-4, 3)):
        coeff, est = lift.lift_coefficient_quadrature(delta, D, v=0.25,
                                                    grid=12, radius=40)
        target = float(12 * hurwitz_class_number(abs(delta))
                       * hurwitz_class_number(D) / math.sqrt(abs(delta)))
        worst_rel = max(worst_rel, abs(coeff.real - target) / abs(target))
    elapsed = time.time() - t0
    ok = worst_rel < 5e-2 and elapsed < 600
    _line(10, ok, f"direct lift coefficient vs 12 H(|d|) H(D)/sqrt|d|, "
                  f"worst relative error {worst_rel:.2e}", elapsed)
