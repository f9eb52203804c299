"""CM-value traces, the singular-moduli series, and the identity suite."""

import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf, mpc

from shintani import cmtraces as cm
from shintani import hyperbolic as hy
from shintani import qforms as qf
from shintani.forms import build_standard_forms
from shintani.specfun import Precision
from test_qforms import random_sl2

J = build_standard_forms(128)["J"]


def test_trace_constant_is_class_number():
    # tr+_1(1, D) = H(|D|), a pure combinatorial identity, exact rationals
    for aD in range(3, 101):
        if aD % 4 not in (0, 3):
            continue
        tr = cm.trace_cm(1, 1, -aD)
        assert tr.value == qf.hurwitz_class_number(aD), aD


def test_trace_J_single_class():
    # disc -4 has the single class (1,0,1) with stabilizer 2; J(i) = 984
    tr = cm.trace_cm(J, 1, -4)
    assert abs(tr.value - 492) < 1e-10
    assert tr.class_count == 1


def test_trace_square_trace_values():
    # tr+_{-3}(1, -4)/2 = H(3); the |D| = 3 case is inadmissible (empty)
    tr = cm.trace_cm(1, -3, -4)
    assert tr.value == Fraction(2, 3)
    with pytest.raises(ValueError):
        cm.trace_cm(1, -3, -3)


def test_trace_representative_independence():
    rng = random.Random(6)
    base = cm.trace_cm(J, -3, -4)
    # translate every representative and recompute by hand
    disc = 12
    acc = mpc(0)
    for Q in qf.class_reps(-disc).reps:
        QT = Q.compose(random_sl2(rng, size=3, length=4))
        if QT.a < 0:
            QT = QT.neg()
        chi = qf.genus_char(-3, QT)
        if chi == 0:
            continue
        w = qf.stabilizer_order(QT)
        from shintani.forms import eval_modular
        acc += chi * eval_modular(J, hy.cm_point(QT))[0] / w
    assert abs(base.value - acc) < 1e-9


def test_trace_rejects_bad_parameters():
    with pytest.raises(ValueError):
        cm.trace_cm(1, -3, 4)      # D > 0
    with pytest.raises(ValueError):
        cm.trace_cm(1, -6, -4)     # not fundamental


def test_f_series_zagier_f3():
    fs = cm.f_series(-3, 4)
    assert fs[-3] == 1
    assert abs(fs[1] + 248) < 1e-8
    assert abs(fs[4] - 26752) < 1e-8
    assert 2 not in fs and 3 not in fs   # inadmissible indices absent


def test_f_series_coefficients_real():
    fs = cm.f_series(-4, 8)
    for n, v in fs.items():
        if n > 0:
            assert abs(mpmath.im(v)) < 1e-8


def test_f_series_stable_under_order_doubling():
    # f_series builds J at order 128; J at order 256 gives the same series
    a = cm.f_series(-3, 4)
    J = build_standard_forms(256)["J"]
    for n in a:
        b = cm.trace_cm(J, -3, -n).value / mpmath.sqrt(n) if n > 0 else 1
        assert abs(mpmath.mpmathify(a[n]) - mpmath.mpmathify(b)) < 1e-8


def test_identity_suite_reports():
    steps = cm.identity_steps((4,))
    named = [(name, r) for name, step in steps.items() for r in step(-3)]
    # each identity keeps its own tolerance unless one tol replaces them all
    assert all(r.tolerance == cm.IDENTITY_TOLS[name] for name, r in named)
    assert {r.tolerance for r in cm.identity_steps(tol=1e-3)["class-number"](-3)} == {1e-3}
    reports = [r for _, r in named]
    by_id = {}
    for r in reports:
        by_id.setdefault(r.identity_id, []).append(r)
    assert set(by_id) == {"class-number-L0", "class-number-L1", "square-lvalue",
                          "sigma-sum", "hecke", "square-trace"}
    for r in reports:
        assert r.passed, (r.identity_id, r.params, r.abs_error)
        assert r.runtime_ms >= 0
        d = r.to_json()
        assert d["pass"] is True


def test_identity_errors_against_exact_targets():
    # H(3) = 1/3 is not a float: the error is taken against the exact
    # target at the working precision, not against float(1/3)
    steps = cm.identity_steps()
    L0 = [r for r in steps["class-number"](-3) if r.identity_id == "class-number-L0"]
    assert [r.abs_error for r in L0] == [0.0]
    rows = steps["square-lvalue"](-3)
    assert len(rows) == 2 and all(r.abs_error < 1e-25 for r in rows), rows


@pytest.mark.parametrize("digits", [50, 80, 100])
def test_identity_errors_follow_precision(digits):
    # every quadrature tolerance derives from the working precision, so the
    # closed-cycle Hecke trace and the regularized square L-value keep
    # gaining digits past 50 (both stalled near 1e-55 under fixed tolerances)
    steps = cm.identity_steps((8,), Precision(digits))
    rows = steps["hecke"](-3) + steps["square-lvalue"](-4)
    assert len(rows) == 3
    assert all(r.abs_error <= 10.0 ** (5 - digits) for r in rows), \
        [(r.identity_id, r.abs_error) for r in rows]
