"""Command-line front end, configuration and reporting.

Subcommands cover the library surface: class-number, classes, chi,
cm-trace, cycle-trace, l-value, f-series, e32, verify, eta-check, theta,
lift-coeff.  Output is JSON by default (--format csv for flat tables);
floats are printed with 17 significant digits, exact rationals as "p/q".
Exit codes: 0 success; 1 identity-suite failure or a failed computation
(an uncaught ArithmeticError); 2 usage error, including arguments the
library rejects with ValueError or NotImplementedError.

Each command imports the modules it computes with.  class-number, classes
and chi are exact integer arithmetic (qforms) and lift-coeff is a float64
quadrature (numpy and qforms): these four load no mpmath.  Every other
command loads mpmath, and theta, eta-check and lift-coeff load numpy.  A
command runs inside mpmath.workdps(--precision) when it loads mpmath or
mpmath is loaded already, so the caller's mp.dps is left as it was.
"""

import csv
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import click

from . import Precision
from .qforms import QForm, class_reps, genus_char, hurwitz_class_number

# the commands that load no mpmath (module docstring)
_WITHOUT_MPMATH = ("class-number", "classes", "chi", "lift-coeff")


@dataclass(frozen=True)
class Config:
    prec: Precision
    fmt: str
    tolerance: float


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _encode(v):
    if isinstance(v, Fraction):
        return str(v)   # "p/q", or "p" for integers
    mp = sys.modules.get("mpmath")     # an mpf or mpc exists only once it is loaded
    if mp and isinstance(v, mp.mpf):
        return float(v)
    if isinstance(v, complex) or mp and isinstance(v, mp.mpc):
        c = complex(v)
        if c.imag == 0:
            return c.real
        return {"re": c.real, "im": c.imag}
    if isinstance(v, dict):
        return {str(k): _encode(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_encode(x) for x in v]
    return v


def _format_float(x):
    return format(x, ".17g")


def emit_report(reports, fmt="json"):
    """Serialize a list of flat dicts as JSON or CSV (the CSV header is the
    union of the rows' keys in first-seen order; a cell holding a comma,
    such as a list, is quoted) to sys.stdout as it is at the call."""
    rows = [_flatten(_encode(r)) for r in reports]
    for row in rows:
        for k, v in row.items():
            if isinstance(v, float):
                row[k] = _format_float(v)
    if fmt == "json":
        sys.stdout.write(json.dumps(rows, indent=2) + "\n")
        return
    if not rows:
        sys.stdout.write("\n")
        return
    header = list(dict.fromkeys(k for row in rows for k in row))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([row.get(h, "") for h in header] for row in rows)


def _flatten(d, prefix=""):
    flat = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            flat.update(_flatten(v, key + "."))
        else:
            flat[key] = v
    return flat


# ---------------------------------------------------------------------------
# the command group
# ---------------------------------------------------------------------------

class _Group(click.Group):
    """Reports a ValueError or NotImplementedError from any command as a
    usage error (exit 2)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, NotImplementedError) as exc:
            raise click.UsageError(str(exc), ctx) from exc


@click.group(cls=_Group)
@click.option("--precision", default=30, show_default=True,
              help="working precision in decimal digits")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--tolerance", type=float, default=None,
              help="per-run override of identity tolerances")
@click.pass_context
def main(ctx, precision, fmt, tolerance):
    """Quadratic-form classes, cycle-integral traces and theta-kernel checks."""
    ctx.obj = Config(Precision(precision), fmt, tolerance)
    if "mpmath" in sys.modules or ctx.invoked_subcommand not in _WITHOUT_MPMATH:
        import mpmath
        ctx.with_resource(mpmath.mp.workdps(precision))


@main.command("class-number")
@click.argument("d", type=int)
@click.pass_obj
def cmd_class_number(config, d):
    """Hurwitz class number H(D)."""
    emit_report([{"D": d, "H": hurwitz_class_number(d)}], config.fmt)


@main.command("classes")
@click.option("--disc", type=int, required=True)
@click.pass_obj
def cmd_classes(config, disc):
    """Class representatives of a discriminant."""
    emit_report([class_reps(disc).to_json()], config.fmt)


@main.command("chi")
@click.option("--delta", type=int, required=True)
@click.option("--form", "form_str", required=True, metavar="a,b,c")
@click.pass_obj
def cmd_chi(config, delta, form_str):
    """Genus character of a form."""
    try:
        a, b, c = (int(t) for t in form_str.split(","))
    except ValueError:
        raise click.UsageError("--form expects three integers a,b,c")
    chi = genus_char(delta, QForm(a, b, c))
    emit_report([{"delta": delta, "form": [a, b, c], "chi": chi}], config.fmt)


@main.command("cm-trace")
@click.option("--delta", type=int, required=True)
@click.option("--D", "dd", type=int, required=True)
@click.option("--F", "fname", type=click.Choice(["one", "J"]), default="J",
              show_default=True)
@click.pass_obj
def cmd_cm_trace(config, delta, dd, fname):
    """Twisted trace of CM values tr+_delta(F, D), D < 0."""
    from . import cmtraces, forms
    F = 1 if fname == "one" else forms.build_standard_forms(128)["J"]
    tr = cmtraces.trace_cm(F, delta, dd, config.prec)
    emit_report([{"delta": delta, "D": dd, "F": fname,
                  "value": tr.value, "classes": tr.class_count}], config.fmt)


@main.command("cycle-trace")
@click.option("--delta", type=int, required=True)
@click.option("--D", "dd", type=int, required=True)
@click.pass_obj
def cmd_cycle_trace(config, delta, dd):
    """Twisted trace of cycle integrals of the completed weight-2
    Eisenstein series (weight 2, so k = 0)."""
    from . import cycles, forms
    G = forms.e2_star_data(64, config.prec)
    tr, qerr = cycles.trace_cycle(G, delta, dd, 0, prec=config.prec)
    emit_report([{"delta": delta, "D": dd, "k": 0, "value": tr,
                  "quadrature_error": qerr}], config.fmt)


@main.command("l-value")
@click.option("--delta", type=int, required=True)
@click.pass_obj
def cmd_l_value(config, delta):
    """(1/(12 sqrt|delta|)) L*(E2*, 1) with the sigma-sum cross-check."""
    import mpmath
    from . import cycles, forms
    G = forms.e2_star_data(64, config.prec)
    L, qerr = cycles.l_star_value(G, delta, 0, prec=config.prec)
    val = L / (12 * mpmath.sqrt(abs(delta)))
    sig = cycles.sigma_exp_sum(delta, config.prec)
    # the L-value is real: its real part is reported, and the quadrature's
    # imaginary residual stays in abs_difference
    emit_report([{"delta": delta, "normalized_lvalue": mpmath.re(val),
                  "sigma_sum": sig, "abs_difference": float(abs(val - sig))}],
                config.fmt)


@main.command("f-series")
@click.option("--delta", type=int, required=True)
@click.option("--dmax", type=int, default=12, show_default=True)
@click.pass_obj
def cmd_f_series(config, delta, dmax):
    """Coefficients of the twisted singular-moduli generating series."""
    import mpmath
    from . import cmtraces
    coeffs = cmtraces.f_series(delta, dmax, prec=config.prec)
    emit_report([{"delta": delta, "index": n,
                  "coefficient": float(mpmath.re(v)),
                  "imag_residual": float(mpmath.im(v))}
                 for n, v in sorted(coeffs.items())], config.fmt)


@main.command("e32")
@click.option("--dmax", type=int, default=20, show_default=True)
@click.pass_obj
def cmd_e32(config, dmax):
    """Holomorphic coefficients H(D) of the weight-3/2 Eisenstein series."""
    from . import forms
    holo = forms.e32_star_coeffs(dmax)
    emit_report([{"D": D, "H": v} for D, v in sorted(holo.items())], config.fmt)


@main.command("verify")
@click.option("--identity", "which", default="all",
              type=click.Choice(["all", "hecke", "square-lvalue", "class-number",
                                 "square-trace"]))
@click.option("--delta", "deltas", type=int, multiple=True)
@click.option("--D", "ds", type=int, multiple=True)
@click.pass_obj
def cmd_verify(config, which, deltas, ds):
    """Run the closed-form identity suite; exit 1 if any check fails."""
    from . import cmtraces
    deltas = list(deltas) or [-3, -4]
    ds = list(ds) or [3, 4]
    steps = cmtraces.identity_steps(ds, config.prec, config.tolerance)
    if which != "all":
        steps = {which: steps[which]}
    reports = [r for d in deltas for step in steps.values() for r in step(d)]
    emit_report([r.to_json() for r in reports], config.fmt)
    if any(not r.passed for r in reports):
        sys.exit(1)


@main.command("eta-check")
@click.option("--k", type=int, default=0, show_default=True)
@click.option("--samples", type=int, default=5, show_default=True)
@click.option("--seed", type=int, default=1)
@click.pass_obj
def cmd_eta_check(config, k, samples, seed):
    """Finite-difference check of the differential equations for eta."""
    from mpmath import mpc
    from . import thetacore
    from .hyperbolic import form_polynomials
    rng = random.Random(seed)
    delta = -3 if k % 2 == 0 else 5
    # D0 of both signs with sgn(delta) D0 = 0, 1 mod 4, so that every
    # |delta| D0 is a discriminant
    choices = [1, -3, -4, 4, 5] if delta == 5 else [-1, -4, 3, 4, 7]
    rows = []
    for _ in range(samples):
        ctx = thetacore.ThetaContext(delta, k,
                                     mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 1.5)))
        Q = _form_of_disc(abs(delta) * rng.choice(choices), rng)
        z = mpc(rng.uniform(-0.8, 0.8), rng.uniform(0.6, 1.6))
        p, qz, _ = form_polynomials(Q, z)
        if abs(qz) / z.imag ** 2 < 0.05 or abs(p) < 0.05:
            continue
        f = lambda w: thetacore.eta(ctx, Q, w, "recursion", config.prec)
        xi, lap = thetacore.fd_operators(f, 2 * k + 2, z)
        rows.append({
            "k": k, "delta": delta, "form": [Q.a, Q.b, Q.c],
            "xi_error": float(abs(xi - thetacore.xi_eta_closed(ctx, Q, z, config.prec))),
            "laplace_error": float(abs(lap - thetacore.phi_sh0(ctx, Q, z, "preimage",
                                                                 config.prec))),
        })
    emit_report(rows, config.fmt)


def _form_of_disc(disc, rng):
    reps = class_reps(disc).reps
    Q = rng.choice(reps)
    if Q.disc < 0 and Q.a < 0:
        Q = Q.neg()
    return Q


@main.command("theta")
@click.option("--delta", type=int, required=True)
@click.option("--k", type=int, default=0, show_default=True)
@click.option("--tau", default="0.1,0.8", metavar="u,v", show_default=True)
@click.option("--z", "z_str", default="0.2,1.3", metavar="x,y", show_default=True)
@click.option("--radius", type=int, default=25, show_default=True)
@click.pass_obj
def cmd_theta(config, delta, k, tau, z_str, radius):
    """Truncated theta-kernel sum with its tail bound."""
    from mpmath import mpc
    from . import thetacore
    try:
        u, v = (float(t) for t in tau.split(","))
        x, y = (float(t) for t in z_str.split(","))
    except ValueError:
        raise click.UsageError("--tau and --z expect two floats each")
    ctx = thetacore.ThetaContext(delta, k, mpc(u, v), radius)
    val, tail = thetacore.theta_truncated(ctx, mpc(x, y))
    emit_report([{"delta": delta, "k": k, "tau": [u, v], "z": [x, y],
                  "radius": radius, "value": val, "tail_bound": tail}],
                config.fmt)


@main.command("lift-coeff")
@click.option("--delta", type=int, required=True)
@click.option("--D", "dd", type=int, required=True)
@click.option("--v", type=float, default=0.25, show_default=True)
@click.option("--grid", type=int, default=10, show_default=True)
@click.option("--radius", type=int, default=40, show_default=True)
@click.pass_obj
def cmd_lift_coeff(config, delta, dd, v, grid, radius):
    """Direct 2D quadrature of the lift's q^D coefficient (k = 0, E2*)."""
    from .lift import lift_coefficient_quadrature
    t0 = time.perf_counter()
    coeff, est = lift_coefficient_quadrature(delta, dd, v=v, grid=grid, radius=radius)
    target = float(12 * hurwitz_class_number(abs(delta)) * hurwitz_class_number(dd)
                   / math.sqrt(abs(delta)))
    emit_report([{"delta": delta, "D": dd, "coefficient": coeff.real,
                  "imag_residual": coeff.imag,
                  "target": target, "abs_error": abs(coeff.real - target),
                  "error_estimate": est,
                  "runtime_ms": int((time.perf_counter() - t0) * 1000)}], config.fmt)


if __name__ == "__main__":
    main()
