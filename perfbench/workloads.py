"""The four workloads.  Each request is one identity check.

A workload's inputs come from the seed alone (the constructor); bind()
attaches a freshly imported copy of the package, and warm_up() fills its
per-process caches on inputs disjoint from the timed ones.  Timed requests
come in rounds; every round has the same composition of request kinds (so
every run of whole rounds measures the same mix) with seeded parameters in
a seeded order.
Oracles live in oracles.py and never call the function being timed.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath

import oracles as O

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DPS = 30        # mpmath.mp.dps pinned for the whole run
FLOAT_DIGITS = 15    # working precision of a float64 result


class Request:
    """One timed call plus the check of its output against an oracle.

    check(value) returns the absolute error; the request passes when the
    error is at most tol.  cap is the working precision in digits.  group
    (the kind, unless a kind spans several costs) holds requests of about
    the same cost: a traced run traces every second request of a group and
    compares traced with untraced latency within it.
    """

    def __init__(self, kind, params, call, check, tol, cap, group=None):
        self.kind, self.params, self.group = kind, params, group or kind
        self.call, self.check, self.tol, self.cap = call, check, tol, cap


# ---------------------------------------------------------------------------
# hecke-closed: tr_delta(E2*, D) = 12 H(|delta|) H(D) on closed geodesics
# ---------------------------------------------------------------------------

# Admissible non-square pairs whose classes all converge at the 256-node
# level from the default 128 (Pell solutions t <= 11).  HECKE_POOL pairs
# have two classes with chi != 0, HECKE_FOUR pairs four; the two pairs of a
# discriminant integrate over the same classes.  Pairs needing 512 or 1024
# nodes, such as (-3, 11) and (-11, 3) at 40-54 s, are left out: one would
# outweigh a run.
HECKE_POOL = [(-4, 3), (-3, 4), (-7, 3), (-3, 7), (-8, 4), (-4, 8), (-15, 3),
              (-3, 15), (-11, 7), (-7, 11), (-8, 3), (-3, 8), (-3, 39), (-39, 3)]
HECKE_FOUR = [(-3, 20), (-20, 3), (-4, 15), (-15, 4), (-4, 24), (-24, 4)]
# Orders of the E2* q-expansion.  Each gives full precision on the
# fundamental domain (|q| < 0.005) and the cost grows with it, so a round
# (every order with a two- and with a four-class pair) spreads from about
# 0.5 to 2.4 s warm: with no two requests alike, the median moves smoothly
# rather than in jumps as the machine's speed drifts during a run.
HECKE_ORDERS = (16, 32, 64)
HECKE_TOL = 1e-5


class HeckeClosed:
    def __init__(self, seed, root):
        self.rng = random.Random(seed)
        # the warm-up takes one two-class discriminant and the timed requests
        # every other pair, so no timed pair shares a class with it
        w = self.rng.randrange(len(HECKE_POOL) // 2)
        self.warm = HECKE_POOL[2 * w]
        two = HECKE_POOL[:2 * w] + HECKE_POOL[2 * w + 2:]
        self.two = self.rng.sample(two, len(two))
        self.four = self.rng.sample(HECKE_FOUR, len(HECKE_FOUR))

    def bind(self, lib):
        self.lib = lib
        self.prec = lib.shintani.Precision(WORK_DPS)
        self.G = lib.forms.e2_star_data(64, self.prec)

    def _request(self, delta, D, order=64):
        lib, prec, G = self.lib, self.prec, self.G
        ev = lambda z: lib.forms.e2_star_modular(z, order, prec)
        target = 12 * O.hurwitz(abs(delta)) * O.hurwitz(D)

        def call():
            return lib.cycles.trace_cycle(G, delta, D, 0, prec=prec, evaluator=ev)[0]

        def check(value):
            return float(abs(value - mpmath.mpf(target.numerator) / target.denominator))

        four = (delta, D) in HECKE_FOUR
        return Request("trace_cycle", {"delta": delta, "D": D, "order": order}, call, check,
                       HECKE_TOL, WORK_DPS, f"trace_cycle/{4 if four else 2}/{order}")

    def warm_up(self):
        self._request(*self.warm).call()

    def round(self, i):
        m = len(HECKE_ORDERS)
        reqs = [self._request(*pool[(m * i + j) % len(pool)], order)
                for pool in (self.two, self.four)
                for j, order in enumerate(self.rng.sample(HECKE_ORDERS, m))]
        self.rng.shuffle(reqs)
        return reqs


# ---------------------------------------------------------------------------
# regularized: T-independence, the alternative representation, L*(E2*, 1)
# ---------------------------------------------------------------------------

REG_T = (1, 2, 5)
REG_T_TOL = 1e-9
REG_ALT_TOL = 1e-6
LSTAR_TOL = 1e-5


class _Group:
    """The four integrals of one (G, Q, k, precision): T = 1, 2, 5 and alt."""

    def __init__(self):
        self.values = {}

    def error(self, label):
        v = self.values
        if label == "alt":
            return float(abs(v["alt"] - v[2]))
        if label == 2:
            return max(float(abs(v[1] - v[2])), float(abs(v[5] - v[2])))
        return float(abs(v[label] - v[2]))


class Regularized:
    def __init__(self, seed, root):
        self.rng = random.Random(seed)

    def bind(self, lib):
        self.lib = lib
        self.HFD = lib.shintani.HarmonicFourierData
        self.prec30 = lib.shintani.Precision(WORK_DPS)
        self.prec50 = lib.shintani.Precision(50)
        self.E2 = lib.forms.e2_star_data(64, self.prec30)

    def _synthetic(self, k):
        # shaped like acceptance criterion 5: a+ on -1..3, a- on -3..1
        u = self.rng.uniform
        ap = {n: complex(u(-1, 1), u(-1, 1)) for n in range(-1, 4)}
        am = {n: complex(u(-1, 1), u(-1, 1)) for n in range(-3, 2)}
        # disc 9 with c coprime to 3, as in criterion 5: both rays are proper
        # and every group costs about the same
        Q = self.lib.shintani.QForm(0, 3, self.rng.choice([1, 2]))
        return self.HFD(2 * k + 2, ap, am, 8), Q

    def _group(self, k, prec):
        cyc = self.lib.cycles
        G, Q = self._synthetic(k)
        group = _Group()
        params = {"k": k, "Q": [Q.a, Q.b, Q.c], "digits": prec.working_digits}
        reqs = []

        def make(label):
            if label == "alt":
                fn = lambda: cyc.reg_cycle_integral_alt(G, Q, k, T=2, prec=prec, nodes=32,
                                                        tol=1e-14).value
            else:
                fn = lambda: cyc.reg_cycle_integral(G, Q, k, T=label, prec=prec, nodes=32,
                                                    tol=1e-14).value

            def call():
                group.values[label] = fn()
                return group.values[label]

            kind = "reg_cycle_integral_alt" if label == "alt" else "reg_cycle_integral"
            return Request(kind, dict(params, T=2 if label == "alt" else label), call,
                           lambda value: group.error(label),
                           REG_ALT_TOL if label == "alt" else REG_T_TOL, prec.working_digits)

        for label in REG_T + ("alt",):
            reqs.append(make(label))
        return reqs

    def _lstar(self, delta):
        lib, prec = self.lib, self.prec30
        ev = lambda z: lib.forms.e2_star_modular(z, 64, prec)
        h2 = O.hurwitz(abs(delta)) ** 2
        target = mpmath.mpf(h2.numerator) / h2.denominator

        def call():
            L, _ = lib.cycles.l_star_value(self.E2, delta, 0, prec=prec, evaluator=ev)
            return L / (12 * mpmath.sqrt(abs(delta)))

        def check(value):
            # the closed form and the sigma-sum must agree before either is trusted
            cross = float(abs(O.sigma_exp_sum(delta) - target))
            return max(float(abs(value - target)), cross)

        return Request("l_star_value", {"delta": delta}, call, check, LSTAR_TOL, WORK_DPS)

    def warm_up(self):
        # fills the node sets of both precisions and of the 64-node start
        # that l_star_value uses, on small data no timed request sees
        cyc = self.lib.cycles
        G = self.HFD(2, {0: 1, 1: 0.5}, {-1: 0.25, 0: 0.5}, 8)
        Q = self.lib.shintani.QForm(0, 2, 1)
        for prec, nodes in ((self.prec30, 32), (self.prec50, 32), (self.prec30, 64)):
            cyc.reg_cycle_integral(G, Q, 0, T=2, prec=prec, nodes=nodes, tol=1e-14)

    def round(self, i):
        # the groups k = 0, 1 at 30 digits and k = 2 at 50, and L-values for
        # delta = -3 and -4: 14 requests, so p50 (7th) falls among the T = 2
        # and 5 integrals and p75 (11th) on the middle alt
        reqs = [r for k in range(3)
                for r in self._group(k, self.prec50 if k == 2 else self.prec30)]
        reqs += [self._lstar(-3), self._lstar(-4)]
        self.rng.shuffle(reqs)
        return reqs


# ---------------------------------------------------------------------------
# cm-exact: exact class-number arithmetic, CM traces and theta sums
# ---------------------------------------------------------------------------

H_BLOCK = 6
THETA_RADIUS = 14
THETA_CASES = [(-3, 0), (-4, 0), (5, 1), (8, 1)]
F3_PREFIX = {1: -248, 4: 26752, 5: -85995, 8: 1707264, 9: -4096248}


class CMExact:
    def __init__(self, seed, root):
        self.rng = random.Random(seed)
        # fresh D for every H(D), so the lru_cache never hits; warm-ups
        # take their own blocks
        hd = [D for D in range(20000, 80000) if D % 4 in (0, 3)]
        self.h_pool = self.rng.sample(hd, len(hd))
        real = [D for D in range(100, 1000) if O.is_fundamental(D)]
        self.real_pool = self.rng.sample(real, len(real))
        self.neg = [d for d in range(-3, -25, -1) if O.is_fundamental(d)]
        self.theta_tables = {}
        self.n_h = self.n_real = 0

    def bind(self, lib):
        self.lib = lib
        self.prec = lib.shintani.Precision(WORK_DPS)

    def _take_h(self):
        block = self.h_pool[self.n_h:self.n_h + H_BLOCK]
        self.n_h += H_BLOCK
        return block

    def _take_real(self):
        D = self.real_pool[self.n_real % len(self.real_pool)]
        self.n_real += 1
        return D

    def _hblock(self, Ds):
        qf = self.lib.qforms

        def check(values):
            return max(float(abs(v - O.hurwitz(D))) for D, v in zip(Ds, values))

        return Request("hurwitz_class_number", {"D": Ds},
                       lambda: [qf.hurwitz_class_number(D) for D in Ds], check, 0, WORK_DPS)

    def _square_trace(self):
        cm = self.lib.cmtraces
        delta = self.rng.choice(self.neg)
        squares = [n * n for n in range(1, 12) if n * n % 4 in (0, 1)]
        others = [n for n in range(2, 121) if n % 4 in (0, 1) and math.isqrt(n) ** 2 != n]
        aDs = self.rng.sample(squares, 4) + self.rng.sample(others, 4)
        H = O.hurwitz(abs(delta))

        def call():
            return [cm.trace_cm(1, delta, -aD, self.prec).value for aD in aDs]

        def check(values):
            # tr+(1, D) = H(|delta|) sqrt|D| for square |D|, else 0 (exact)
            err = 0
            for aD, v in zip(aDs, values):
                r = math.isqrt(aD)
                err = max(err, abs(Fraction(v) - (H * r if r * r == aD else 0)))
            return float(err)

        return Request("trace_cm", {"delta": delta, "D": [-a for a in aDs]}, call, check,
                       0, WORK_DPS)

    def _f_series(self):
        cm = self.lib.cmtraces
        delta = self.rng.choice([-3, -4, -7, -8])
        dmax = self.rng.randrange(8, 15)

        def check(coeffs):
            # integral coefficients (relative to their size), principal term 1,
            # and Zagier's f_3 = q^-3 - 248 q + 26752 q^4 - ... for delta = -3
            err = float(abs(coeffs[delta] - 1))
            for n, v in coeffs.items():
                v = mpmath.mpmathify(v)
                near = int(mpmath.nint(mpmath.re(v)))
                err = max(err, float(abs(v - near) / max(1, abs(near))))
                if delta == -3 and n in F3_PREFIX and near != F3_PREFIX[n]:
                    err = max(err, 1.0)
            return err

        return Request("f_series", {"delta": delta, "dmax": dmax},
                       lambda: cm.f_series(delta, dmax, prec=self.prec), check, 1e-12,
                       WORK_DPS)

    def _indefinite(self, D):
        qf = self.lib.qforms

        def call():
            L1 = self.lib.specfun.dirichlet_L(D, 1, self.prec).value
            return len(qf.class_reps(D).reps), qf.pell_fundamental_4(D), L1

        def check(value):
            # h+(D) log eps+ = sqrt(D) L(1, chi_D): the library's two sides
            # against each other and against the log-sine sum
            h, (t, u), L1 = value
            lhs = h * mpmath.log((t + u * mpmath.sqrt(D)) / 2)
            ref = O.h_log_eps(D)
            return max(float(abs(lhs - ref)), float(abs(mpmath.sqrt(D) * L1 - ref)))

        return Request("class_number_formula", {"D": D}, call, check, 1e-20, WORK_DPS)

    def _theta(self, case=None, tau=None, z=None):
        th = self.lib.thetacore
        delta, k = case or self.rng.choice(THETA_CASES)
        u = self.rng.uniform
        tau = tau or complex(u(-0.5, 0.5), u(0.6, 1.2))
        z = z or complex(u(-0.5, 0.5), u(0.9, 1.6))

        def call():
            ctx = th.ThetaContext(delta, k, mpmath.mpc(tau), THETA_RADIUS)
            return th.theta_truncated(ctx, mpmath.mpc(z))[0]

        def check(value):
            if (delta, THETA_RADIUS) not in self.theta_tables:
                self.theta_tables[delta, THETA_RADIUS] = O.theta_table(delta, THETA_RADIUS)
            ref = O.theta_sum(self.theta_tables[delta, THETA_RADIUS], delta, k, tau, z)
            return abs(complex(value) - ref) / max(1.0, abs(ref))

        return Request("theta_truncated", {"delta": delta, "k": k, "tau": [tau.real, tau.imag],
                                           "z": [z.real, z.imag]}, call, check, 1e-9,
                       FLOAT_DIGITS)

    def warm_up(self):
        # theta form tables (one per case) and the exact layers, on inputs
        # outside the timed ones: the first H block, z on the line x = 0.7
        self._hblock(self._take_h()).call()
        for case in THETA_CASES:
            self._theta(case, complex(0.0, 1.0), complex(0.7, 1.1)).call()
        self.lib.cmtraces.trace_cm(1, -3, -125, self.prec)
        self.lib.cmtraces.f_series(-3, 4, prec=self.prec)
        self._indefinite(5).call()

    def round(self, i):
        reqs = [self._hblock(self._take_h()), self._square_trace(), self._f_series(),
                self._indefinite(self._take_real()), self._theta()]
        self.rng.shuffle(reqs)
        return reqs


# ---------------------------------------------------------------------------
# cli-cold: one fresh `python -m shintani.cli` process per request
# ---------------------------------------------------------------------------

CLI_TIMEOUT = 150
# One pair for every lift: at one grid the cost differs by up to 40% between
# pairs, and p50 and p75 fall on lifts, so a seeded pair would move them.
LIFT_PAIR = (-4, 3)
LIFT_TOL = 5e-2      # relative; the float64 lift is good to about a percent
LIFT_DIGITS = 5      # digits credited to a float64 lift
# about 0.65 to 1.5 s a process.  Grids 6 and 8 twice: p50 and p75 fall
# inside their requests rather than between two grids, and each is an order
# statistic of more requests.
LIFT_GRIDS = (4, 5, 6, 6, 7, 8, 8)


class CliError(RuntimeError):
    pass


class CliCold:
    in_process = False

    def __init__(self, seed, root):
        self.root = root
        self.rng = random.Random(seed)
        self.env = dict(os.environ)
        self.env.pop("SHINTANI_CACHE_DIR", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        pool = [D for D in range(1000, 50000) if D % 4 in (0, 3)]
        self.cn_pool = self.rng.sample(pool, 200)
        self.tracer_out = None     # set by the runner for traced requests
        self.traced = []           # per traced request: the launcher's totals

    def run_cli(self, args, traced=False):
        if traced:
            out = os.path.join(self.tracer_out, f"cli-{len(self.traced)}.json")
            cmd = [sys.executable, os.path.join(HERE, "launch.py"), out] + args
        else:
            cmd = [sys.executable, "-m", "shintani.cli"] + args
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT)
        if traced:
            with open(out) as fh:
                self.traced.append(json.load(fh))
        if proc.returncode != 0:
            raise CliError(f"exit {proc.returncode}: {proc.stderr[-300:]}")
        return json.loads(proc.stdout)

    def _req(self, kind, args, check, tol, cap, group=None):
        return Request(kind, {"args": args}, lambda traced=False: self.run_cli(args, traced),
                       check, tol, cap, group)

    def _class_number(self, D):
        return self._req("class-number", ["class-number", str(D)],
                         lambda rows: float(abs(Fraction(rows[0]["H"]) - O.hurwitz(D))),
                         0, FLOAT_DIGITS)

    def _f_series(self):
        delta = self.rng.choice([-3, -4, -7, -8])
        dmax = self.rng.randrange(8, 15)

        def check(rows):
            err = 0.0
            for r in rows:
                c = float(r["coefficient"])
                near = round(c)
                if r["index"] == delta:
                    near = 1
                err = max(err, abs(c - near) / max(1, abs(near)), abs(float(r["imag_residual"])))
            return err

        return self._req("f-series", ["f-series", "--delta", str(delta), "--dmax", str(dmax)],
                         check, 1e-12, FLOAT_DIGITS)

    def _lift(self, grid):
        delta, D = LIFT_PAIR
        target = float(12 * O.hurwitz(abs(delta)) * O.hurwitz(D)) / math.sqrt(abs(delta))
        return self._req("lift-coeff", ["lift-coeff", "--delta", str(delta), "--D", str(D),
                                        "--grid", str(grid)],
                         lambda rows: abs(float(rows[0]["coefficient"]) - target),
                         LIFT_TOL * target, LIFT_DIGITS, f"lift-coeff/{grid}")

    def _l_value(self, delta):
        h2 = float(O.hurwitz(abs(delta)) ** 2)

        def check(rows):
            r = rows[0]
            return max(abs(float(r["normalized_lvalue"]) - h2),
                       abs(float(r["sigma_sum"]) - float(O.sigma_exp_sum(delta))))

        return self._req("l-value", ["l-value", "--delta", str(delta)], check, LSTAR_TOL,
                         FLOAT_DIGITS)

    def _cycle_trace(self):
        delta, D = self.rng.choice(HECKE_POOL)
        target = float(12 * O.hurwitz(abs(delta)) * O.hurwitz(D))

        def check(rows):
            r = rows[0]
            return abs(complex(float(r.get("value.re", r.get("value"))),
                               float(r.get("value.im", 0))) - target)

        return self._req("cycle-trace", ["cycle-trace", "--delta", str(delta), "--D", str(D)],
                         check, HECKE_TOL, FLOAT_DIGITS)

    def bind(self, lib):
        pass

    def warm_up(self):
        # compiles and caches the package's bytecode; its D is never timed
        self.run_cli(["class-number", str(self.cn_pool[-1])])

    def round(self, i):
        # p50 and p75 fall amid the lift-coeff, seven of a round's ten
        # requests, so the heavy request that alternates between rounds
        # never lands on them; cycle-trace and l-value build quadrature nodes
        # in every process
        reqs = [self._class_number(self.cn_pool[i % 199]), self._f_series()]
        reqs += [self._lift(grid) for grid in LIFT_GRIDS]
        reqs.append(self._cycle_trace() if i % 2 == 0 else self._l_value((-3, -4)[i // 2 % 2]))
        self.rng.shuffle(reqs)
        return reqs


WORKLOADS = {"hecke-closed": HeckeClosed, "regularized": Regularized,
             "cm-exact": CMExact, "cli-cold": CliCold}
