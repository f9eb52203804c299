r"""
Twisted traces of CM values and the identity-verification steps.

tr+_delta(F, D), for D < 0 with sgn(delta) D = 0, 1 mod 4, sums
chi_delta(Q) F(z_Q) / |stabilizer| over the positive definite classes of
discriminant |delta| D.  With F = 1 and delta = 1 this is the Hurwitz
class number.  The generating series of twisted singular moduli collects
tr+_delta(J, D)/sqrt(|D|) against q^|D| behind the principal term q^delta.

identity_steps packages the numeric checks of the closed-form identities
(Hecke/Eisenstein trace, class number formula, the square-discriminant
L-value, the square-trace dichotomy) into IdentityReport records.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf, mpc

from .specfun import (DEFAULT_PRECISION, dirichlet_L, dirichlet_L_exact_nonpositive,
                      _coerce, _workdps)
from .qforms import (class_reps, genus_char, is_fundamental_discriminant, stabilizer_order,
                     hurwitz_class_number)
from .hyperbolic import cm_point
from .forms import HarmonicFourierData, build_standard_forms, eval_modular, e2_star_data


@dataclass(frozen=True)
class TraceResult:
    value: object
    class_count: int


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    params: dict
    target: float
    computed: float
    abs_error: float
    runtime_ms: int
    tolerance: float

    @property
    def passed(self):
        return self.abs_error <= self.tolerance

    def to_json(self):
        return {"identity_id": self.identity_id, "params": self.params,
                "target": repr(self.target), "computed": repr(self.computed),
                "abs_error": repr(self.abs_error), "runtime_ms": self.runtime_ms,
                "pass": bool(self.passed)}


def _admissible_cm(delta, D):
    if D >= 0:
        return False
    sD = D if delta > 0 else -D
    return sD % 4 in (0, 1)


def trace_cm(F, delta, D, prec=DEFAULT_PRECISION):
    """tr+_delta(F, D) over positive definite classes of disc |delta| D.

    F is an exact constant (int or Fraction), summed exactly, or Fourier
    data, evaluated at the CM points through the fundamental domain.
    """
    delta = int(delta)
    D = int(D)
    if not is_fundamental_discriminant(delta):
        raise ValueError("delta must be a fundamental discriminant")
    if not _admissible_cm(delta, D):
        raise ValueError("need D < 0 with sgn(delta) D = 0, 1 mod 4")
    disc = abs(delta) * D
    exact = not isinstance(F, HarmonicFourierData)
    with _workdps(prec):
        acc = Fraction(0) if exact else mpc(0)
        count = 0
        for Q in class_reps(disc).reps:
            chi = genus_char(delta, Q)
            if chi == 0:
                continue
            w = stabilizer_order(Q)
            if exact:
                acc += Fraction(chi * F, w)
            else:
                acc += chi * eval_modular(F, cm_point(Q), prec)[0] / w
            count += 1
        return TraceResult(acc, count)


def f_series(delta, D_max, prec=DEFAULT_PRECISION):
    """Coefficients of the twisted singular-moduli series.

    Index delta carries 1 (principal term); index |D| carries
    tr+_delta(J, D)/sqrt(|D|) for admissible D < 0, |D| <= D_max, with J's
    q-series to order 128.
    """
    delta = int(delta)
    if delta >= 0 or not is_fundamental_discriminant(delta):
        raise ValueError("delta must be a negative fundamental discriminant")
    J = build_standard_forms(128)["J"]
    out = {delta: mpf(1)}
    with _workdps(prec):
        for aD in range(1, D_max + 1):
            D = -aD
            if not _admissible_cm(delta, D):
                continue
            tr = trace_cm(J, delta, D, prec)
            out[aD] = tr.value / mpmath.sqrt(aD)
    return out


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def _check(identity_id, params, target, compute, prec, tol):
    """Time compute() at prec's working precision and report it against
    the exact target; the error is taken at the same precision."""
    t0 = time.perf_counter()
    with _workdps(prec):
        computed = _coerce(compute())
        error = abs(computed - _coerce(target))
    return IdentityReport(identity_id, params, float(target), float(mpmath.re(computed)),
                          float(error), int((time.perf_counter() - t0) * 1000), tol)


# each identity's tolerance on abs_error, by step name
IDENTITY_TOLS = {"class-number": 1e-10, "square-lvalue": 1e-5, "hecke": 1e-5,
                 "square-trace": 1e-10}
SQUARE_TRACE_DMAX = 25     # the square-trace step checks |D| = 1, ..., this


def identity_steps(D_list=(3, 4), prec=DEFAULT_PRECISION, tol=None):
    """The closed-form identity checks in report order, as {name: step}.

    step(delta) runs one identity for one delta and returns its reports;
    a delta that is not a negative fundamental discriminant gets none.
    tol replaces every identity's tolerance (default: IDENTITY_TOLS).
    Individual failures are recorded in the reports, never raised.
    """
    from . import cycles
    tols = IDENTITY_TOLS if tol is None else dict.fromkeys(IDENTITY_TOLS, tol)
    G = e2_star_data(64, prec)

    def class_number(delta, H):
        # Dirichlet class number formula, both evaluation routes
        L0 = lambda: dirichlet_L_exact_nonpositive(delta, 0)
        L1 = lambda: mpmath.sqrt(-delta) * dirichlet_L(delta, 1, prec).value / mpmath.pi
        return [_check(name, {"delta": delta}, H, f, prec, tols["class-number"])
                for name, f in (("class-number-L0", L0), ("class-number-L1", L1))]

    def square_lvalue(delta, H):
        # square-discriminant L-value = H(|delta|)^2, plus the sigma cross-check
        L = lambda: (cycles.l_star_value(G, delta, 0, prec=prec)[0]
                     / (12 * mpmath.sqrt(-delta)))
        sig = lambda: cycles.sigma_exp_sum(delta, prec)
        return [_check(name, {"delta": delta}, H * H, f, prec, tols["square-lvalue"])
                for name, f in (("square-lvalue", L), ("sigma-sum", sig))]

    def hecke(delta, H):
        # Hecke / Eisenstein trace identity over the D grid
        tr = lambda D: cycles.trace_cycle(G, delta, D, 0, prec=prec)[0]
        return [_check("hecke", {"delta": delta, "D": D}, 12 * H * hurwitz_class_number(D),
                       lambda: tr(D), prec, tols["hecke"])
                for D in D_list if -D % 4 in (0, 1)]

    def square_trace(delta, H):
        # square-trace dichotomy: tr+(1, D)/sqrt|D| = H(|delta|) iff |D| square
        tr = lambda aD: _coerce(trace_cm(1, delta, -aD, prec).value) / mpmath.sqrt(aD)
        return [_check("square-trace", {"delta": delta, "D": -aD},
                       H if math.isqrt(aD) ** 2 == aD else 0, lambda: tr(aD), prec,
                       tols["square-trace"])
                for aD in range(1, SQUARE_TRACE_DMAX + 1) if _admissible_cm(delta, -aD)]

    def step(rows):
        return lambda delta: (rows(delta, hurwitz_class_number(-delta))
                              if delta < 0 and is_fundamental_discriminant(delta) else [])

    return {"class-number": step(class_number), "square-lvalue": step(square_lvalue),
            "hecke": step(hecke), "square-trace": step(square_trace)}

