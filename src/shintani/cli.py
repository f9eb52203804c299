"""Command-line front end, configuration and reporting.

argparse subcommands cover the library surface: class-number, classes,
chi, cm-trace, cycle-trace, l-value, f-series, e32, verify, eta-check,
theta, lift-coeff.  Output is JSON by default (--format csv for flat
tables); floats are printed with 17 significant digits, exact rationals as
"p/q".  Exit codes: 0 success; 1 identity-suite failure or a failed
computation (an uncaught ArithmeticError); 2 usage error (an "Error:" line
on stderr), including arguments the library rejects with ValueError or
NotImplementedError.

Each command imports the modules it computes with.  class-number, classes,
chi and e32 are exact integer arithmetic (qforms) and lift-coeff is a
float64 quadrature (numpy and qforms): these five load no mpmath.  Every other
command loads mpmath, and theta, eta-check and lift-coeff load numpy.  A
command runs inside mpmath.workdps(--precision) when it loads mpmath or
mpmath is loaded already, so the caller's mp.dps is left as it was.
"""

import argparse
import csv
import json
import math
import random
import re
import sys
import time
from collections import namedtuple
from fractions import Fraction

from . import Precision
from .qforms import QForm, class_reps, genus_char, hurwitz_class_number

Config = namedtuple("Config", "prec fmt tolerance")
# the commands that load no mpmath (module docstring)
_WITHOUT_MPMATH = ("class-number", "classes", "chi", "e32", "lift-coeff")


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


def emit_report(reports, fmt="json"):
    """Serialize a list of flat dicts as JSON or CSV (the CSV header is the
    union of the rows' keys in first-seen order; a cell holding a comma,
    such as a list, is quoted) to sys.stdout as it is at the call."""
    rows = [_flatten(_encode(r)) for r in reports]
    for row in rows:
        for k, v in row.items():
            if isinstance(v, float):
                row[k] = format(v, ".17g")
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
# the commands
# ---------------------------------------------------------------------------

def cmd_class_number(config, d):
    """Hurwitz class number H(D)."""
    emit_report([{"D": d, "H": hurwitz_class_number(d)}], config.fmt)


def cmd_classes(config, disc):
    """Class representatives of a discriminant."""
    emit_report([class_reps(disc).to_json()], config.fmt)


def cmd_chi(config, delta, form_str):
    """Genus character of a form."""
    try:
        a, b, c = (int(t) for t in form_str.split(","))
    except ValueError:
        raise ValueError("--form expects three integers a,b,c") from None
    chi = genus_char(delta, QForm(a, b, c))
    emit_report([{"delta": delta, "form": [a, b, c], "chi": chi}], config.fmt)


def cmd_cm_trace(config, delta, D, fname):
    """Twisted trace of CM values tr+_delta(F, D), D < 0."""
    from . import cmtraces, forms
    F = 1 if fname == "one" else forms.build_standard_forms(128)["J"]
    tr = cmtraces.trace_cm(F, delta, D, config.prec)
    emit_report([{"delta": delta, "D": D, "F": fname,
                  "value": tr.value, "classes": tr.class_count}], config.fmt)


def cmd_cycle_trace(config, delta, D):
    """Twisted trace of cycle integrals of the completed weight-2
    Eisenstein series (weight 2, so k = 0)."""
    from . import cycles, forms
    G = forms.e2_star_data(64, config.prec)
    tr, qerr = cycles.trace_cycle(G, delta, D, 0, prec=config.prec)
    emit_report([{"delta": delta, "D": D, "k": 0, "value": tr,
                  "quadrature_error": qerr}], config.fmt)


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


def cmd_f_series(config, delta, dmax):
    """Coefficients of the twisted singular-moduli generating series."""
    import mpmath
    from . import cmtraces
    coeffs = cmtraces.f_series(delta, dmax, prec=config.prec)
    emit_report([{"delta": delta, "index": n,
                  "coefficient": float(mpmath.re(v)),
                  "imag_residual": float(mpmath.im(v))}
                 for n, v in sorted(coeffs.items())], config.fmt)


def cmd_e32(config, dmax):
    """Holomorphic coefficients H(D) of the weight-3/2 Eisenstein series."""
    if dmax < 0:
        raise ValueError("D_max must be >= 0")
    emit_report([{"D": D, "H": hurwitz_class_number(D)} for D in range(dmax + 1)],
                config.fmt)


def cmd_verify(config, which, deltas, ds):
    """Run the closed-form identity suite; exit 1 if any check fails."""
    from . import cmtraces
    deltas = deltas or [-3, -4]
    ds = ds or [3, 4]
    steps = cmtraces.identity_steps(ds, config.prec, config.tolerance)
    if which != "all":
        steps = {which: steps[which]}
    reports = [r for d in deltas for step in steps.values() for r in step(d)]
    emit_report([r.to_json() for r in reports], config.fmt)
    if any(not r.passed for r in reports):
        sys.exit(1)


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
        Q = rng.choice(class_reps(abs(delta) * rng.choice(choices)).reps)
        z = mpc(rng.uniform(-0.8, 0.8), rng.uniform(0.6, 1.6))
        p, qz = form_polynomials(Q, z)
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


def cmd_theta(config, delta, k, tau, z_str, radius):
    """Truncated theta-kernel sum with its tail bound."""
    from mpmath import mpc
    from . import thetacore
    try:
        u, v = (float(t) for t in tau.split(","))
        x, y = (float(t) for t in z_str.split(","))
    except ValueError:
        raise ValueError("--tau and --z expect two floats each") from None
    ctx = thetacore.ThetaContext(delta, k, mpc(u, v), radius)
    val, tail = thetacore.theta_truncated(ctx, mpc(x, y))
    emit_report([{"delta": delta, "k": k, "tau": [u, v], "z": [x, y],
                  "radius": radius, "value": val, "tail_bound": tail}],
                config.fmt)


def cmd_lift_coeff(config, delta, D, v, grid, radius):
    """Direct 2D quadrature of the lift's q^D coefficient (k = 0, E2*)."""
    from .lift import lift_coefficient_quadrature
    t0 = time.perf_counter()
    coeff, est = lift_coefficient_quadrature(delta, D, v=v, grid=grid, radius=radius)
    target = float(12 * hurwitz_class_number(abs(delta)) * hurwitz_class_number(D)
                   / math.sqrt(abs(delta)))
    emit_report([{"delta": delta, "D": D, "coefficient": coeff.real,
                  "imag_residual": coeff.imag,
                  "target": target, "abs_error": abs(coeff.real - target),
                  "error_estimate": est,
                  "runtime_ms": int((time.perf_counter() - t0) * 1000)}], config.fmt)


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # usage errors exit 2 with an "Error: <message>" line
        self.exit(2, f"{self.format_usage()}Error: {message}\n")

    def parse_args(self, args):
        # name an unknown option before the command, which argparse would set
        # aside, reading its value as the command (--prec 50: "invalid choice: '50'")
        leading = iter(args)
        for arg in leading:
            if not arg.startswith("-"):
                break
            action = self._option_string_actions.get(arg.split("=")[0])
            if action is None:
                self.error(f"unrecognized arguments: {arg}")
            if action.nargs is None and "=" not in arg:
                next(leading, None)     # the option's value
        return super().parse_args(args)


def _parser():
    formatter = argparse.ArgumentDefaultsHelpFormatter
    parser = _Parser(prog="shintani", description=main.__doc__, allow_abbrev=False,
                     formatter_class=formatter)
    parser.add_argument("--precision", type=int, default=30,
                        help="working precision in decimal digits")
    parser.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
    parser.add_argument("--tolerance", type=float,
                        help="per-run override of identity tolerances")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, run, *required):
        """The add_argument of a subcommand that calls run(config, **options),
        with the required integer options already added."""
        doc = " ".join(run.__doc__.split())
        sub = commands.add_parser(name, help=doc, description=doc, allow_abbrev=False,
                                  formatter_class=formatter)
        sub.set_defaults(run=run)
        for flag in required:
            sub.add_argument(flag, type=int, required=True)
        return sub.add_argument

    command("class-number", cmd_class_number)("d", type=int, metavar="D")
    command("classes", cmd_classes, "--disc")
    command("chi", cmd_chi, "--delta")("--form", dest="form_str", required=True,
                                       metavar="a,b,c")
    command("cm-trace", cmd_cm_trace, "--delta", "--D")(
        "--F", dest="fname", choices=["one", "J"], default="J", help="the form: 1 or J")
    command("cycle-trace", cmd_cycle_trace, "--delta", "--D")
    command("l-value", cmd_l_value, "--delta")
    command("f-series", cmd_f_series, "--delta")("--dmax", type=int, default=12,
                                                 help="largest index")
    command("e32", cmd_e32)("--dmax", type=int, default=20, help="largest D")
    arg = command("verify", cmd_verify)
    arg("--identity", dest="which", default="all", help="the identities to run",
        choices=["all", "hecke", "square-lvalue", "class-number", "square-trace"])
    arg("--delta", dest="deltas", type=int, action="append", metavar="DELTA")
    arg("--D", dest="ds", type=int, action="append", metavar="D")
    arg = command("eta-check", cmd_eta_check)
    arg("--k", type=int, default=0, help="weight parameter")
    arg("--samples", type=int, default=5, help="random points tried")
    arg("--seed", type=int, default=1, help="random seed")
    arg = command("theta", cmd_theta, "--delta")
    arg("--k", type=int, default=0, help="weight parameter")
    arg("--tau", default="0.1,0.8", metavar="u,v", help="tau = u + iv")
    arg("--z", dest="z_str", default="0.2,1.3", metavar="x,y", help="z = x + iy")
    arg("--radius", type=int, default=25, help="truncation radius")
    arg = command("lift-coeff", cmd_lift_coeff, "--delta", "--D")
    arg("--v", type=float, default=0.25, help="imaginary part of tau")
    arg("--grid", type=int, default=10, help="quadrature resolution")
    arg("--radius", type=int, default=40, help="truncation radius")
    return parser


def _glued(argv):
    # a value that starts with "-" and a digit or "." (--form -1,2,3) is glued
    # to its option, as argparse reads one that is no plain number as an option
    out = []
    for arg in argv:
        if out and re.fullmatch(r"--[^=]+", out[-1]) and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    """Quadratic-form classes, cycle-integral traces and theta-kernel checks."""
    parser = _parser()
    options = vars(parser.parse_args(_glued(sys.argv[1:] if argv is None else argv)))
    run, command, precision = (options.pop(k) for k in ("run", "command", "precision"))
    try:
        config = Config(Precision(precision), options.pop("fmt"), options.pop("tolerance"))
        if "mpmath" in sys.modules or command not in _WITHOUT_MPMATH:
            import mpmath
            with mpmath.workdps(precision):
                return run(config, **options)
        return run(config, **options)
    except (ValueError, NotImplementedError) as exc:
        parser.error(str(exc))


# perfbench/launch.py calls main the way click's command objects are called
main.main = lambda args=None, prog_name=None: main(args)

if __name__ == "__main__":
    main()
