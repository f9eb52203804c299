"""Span tracing of the shintani package from outside, for the per-layer metrics.

Every public function of the package is wrapped where it is looked up: in
its defining module and in every module that imported it by name.  Each
call records a span (name, request, parent, start, end); spans stay in
compact in-memory arrays and are written out once, at the end of the run.
Self time is a span's duration minus the time of its child spans and is
accumulated per function while the run goes on.
"""

import functools
import inspect
import math
import sys
import time
from array import array

PACKAGE = "shintani"

# Per-layer metrics reported by a traced run, in BENCHMARK.json's order.
LAYER_METRICS = [
    "quadrature.gauss_legendre.calls", "quadrature.node_build_s",
    "quadrature.integrate_gl.calls", "quadrature.integrate_gl.self_s",
    "quadrature.integrand_evals", "quadrature.doubling_rounds",
    "quadrature.useful_eval_ratio",
    "forms.e2_star.calls", "forms.e2_star.self_s",
    "forms.eval_harmonic.calls", "forms.eval_harmonic.self_s",
    "forms.eval_qexp.calls", "forms.eval_qexp.self_s",
    "forms.build_standard_forms.self_s",
    "hyperbolic.reduce_to_fundamental.calls", "hyperbolic.reduce_to_fundamental.self_s",
    "hyperbolic.apply_moebius.calls",
    "specfun.e_kappa.calls", "specfun.e_kappa.self_s",
    "specfun.gamma_upper.calls", "specfun.gamma_upper.self_s",
    "specfun.bernoulli_poly_eval.self_s", "specfun.dirichlet_L.self_s",
    "specfun.kronecker_symbol.calls", "specfun.kronecker_symbol.self_s",
    "qforms.class_reps.calls", "qforms.class_reps.self_s",
    "qforms.genus_char.calls", "qforms.genus_char.self_s",
    "qforms.hurwitz_class_number.self_s", "qforms.hurwitz_class_number.hit_ratio",
    "qforms.divisor_sigma1.calls", "qforms.divisor_sigma1.self_s",
    "qforms.pell_fundamental_4.self_s", "qforms.stabilizer_order.self_s",
    "cycles.trace_cycle.self_s", "cycles.closed_cycle_integral.calls",
    "cycles.closed_cycle_integral.self_s", "cycles.reg_cycle_integral.self_s",
    "cycles.reg_cycle_integral_alt.self_s", "cycles.l_star_value.calls",
    "cycles.sigma_exp_sum.self_s",
    "cmtraces.trace_cm.calls", "cmtraces.trace_cm.self_s",
    "cmtraces.f_series.self_s", "cmtraces.identity_suite.self_s",
    "thetacore.theta_truncated.calls", "thetacore.theta_truncated.self_s",
    "thetacore.lift_coefficient_quadrature.self_s",
    "cli.import_s", "cli.process_s", "cli.main.self_s",
    "other.self_s", "trace.overhead_ratio", "trace.requests",
]

# counters kept by the hooks below, beside each function's calls and self time
COUNTERS = ("quadrature.node_build_s", "quadrature.integrand_evals",
            "quadrature.doubling_rounds", "quadrature.final_level_evals",
            "quadrature.doubling_evals", "qforms.hurwitz_class_number.hits",
            "qforms.hurwitz_class_number.misses")


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _gl_pre(tracer, fn, args, kwargs):
    # a node set is built when its (n, dps) is new in the process
    a = _bound(fn, args, kwargs)
    dps = a.get("dps")
    if dps is None:
        dps = sys.modules["mpmath"].mp.dps
    cache = getattr(sys.modules.get(fn.__module__), "_NODE_CACHE", tracer.seen_nodes)
    key = (a["n"], dps)
    new = key not in cache
    tracer.seen_nodes.add(key)
    return new


def _gl_post(tracer, new, result, self_s):
    if new:
        tracer.counters["quadrature.node_build_s"] += self_s


def _integrate_pre(tracer, fn, args, kwargs):
    tracer.counters["quadrature.integrand_evals"] += _bound(fn, args, kwargs)["n"]


def _doubling_pre(tracer, fn, args, kwargs):
    return _bound(fn, args, kwargs)["n0"]


def _doubling_post(tracer, n0, result, self_s):
    n_used = result[2]
    c = tracer.counters
    c["quadrature.doubling_rounds"] += round(math.log2(n_used / n0))
    c["quadrature.final_level_evals"] += n_used
    c["quadrature.doubling_evals"] += 2 * n_used - n0   # n0 + 2 n0 + ... + n_used


HOOKS = {
    "quadrature.gauss_legendre": (_gl_pre, _gl_post),
    "quadrature.integrate_gl": (_integrate_pre, None),
    "quadrature.integrate_gl_doubling": (_doubling_pre, _doubling_post),
}


class Tracer:
    def __init__(self):
        self.names, self.ids = [], {}
        self.calls = []
        self.self_s = []
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self.seen_nodes = set()
        self.stack = []          # frames [span id, child time]
        self.next_id = 0
        self.request = -1
        self.top_time = 0.0      # time covered by depth-0 spans
        self.sp_id, self.sp_parent = array("q"), array("q")
        self.sp_name, self.sp_req = array("i"), array("i")
        self.sp_t0, self.sp_t1 = array("d"), array("d")
        self.patches = []
        self.cached = []         # [name, lru-cached original, cache_info at install]

    # -- wrapping -----------------------------------------------------------

    def wrap_package(self):
        """Prepare wrappers for the package's modules as now imported; call
        again after a fresh import.  Totals and spans carry over."""
        self.patches, self.cached = [], []
        wrappers = {}
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                if id(obj) not in wrappers:
                    name = f"{home.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._make_wrapper(obj, name)
                    if hasattr(obj, "cache_info"):
                        self.cached.append([name, obj, None])
                self.patches.append((mod, attr, obj, wrappers[id(obj)]))

    def _make_wrapper(self, fn, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        nid = self.ids[name]
        pre, post = HOOKS.get(name, (None, None))
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if pre is not None:
                try:
                    state = pre(tracer, fn, args, kwargs)
                except (TypeError, KeyError, ValueError):
                    state = None
            stack = tracer.stack
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.top_time += dur
                tracer.calls[nid] += 1
                tracer.self_s[nid] += own
                tracer.sp_id.append(sid)
                tracer.sp_parent.append(parent)
                tracer.sp_name.append(nid)
                tracer.sp_req.append(tracer.request)
                tracer.sp_t0.append(t0)
                tracer.sp_t1.append(t1)
            if post is not None and state is not None:
                try:
                    post(tracer, state, result, own)
                except (TypeError, KeyError, IndexError, ValueError, ZeroDivisionError):
                    pass
            return result

        return wrapper

    def install(self):
        for mod, attr, _, wrapper in self.patches:
            setattr(mod, attr, wrapper)
        for entry in self.cached:
            entry[2] = entry[1].cache_info()

    def uninstall(self):
        for mod, attr, original, _ in self.patches:
            setattr(mod, attr, original)
        for name, original, before in self.cached:
            after = original.cache_info()
            if name == "qforms.hurwitz_class_number":
                self.counters[name + ".hits"] += after.hits - before.hits
                self.counters[name + ".misses"] += after.misses - before.misses

    # -- results ------------------------------------------------------------

    def totals(self):
        """Aggregates as a JSON-able dict: per-function calls and self time
        plus the counters; summed across processes by merge()."""
        out = dict(self.counters)
        for name, calls, own in zip(self.names, self.calls, self.self_s):
            out[name + ".calls"] = calls
            out[name + ".self_s"] = own
        return out

    def write_spans(self, path):
        """Write every recorded span, in one file, at the end of the run."""
        import numpy as np
        np.savez(path, names=np.array(self.names), id=np.frombuffer(self.sp_id, np.int64),
                 parent=np.frombuffer(self.sp_parent, np.int64),
                 name=np.frombuffer(self.sp_name, np.int32),
                 request=np.frombuffer(self.sp_req, np.int32),
                 start=np.frombuffer(self.sp_t0, np.float64),
                 end=np.frombuffer(self.sp_t1, np.float64))


def merge(into, totals):
    for k, v in totals.items():
        into[k] = into.get(k, 0) + v


def layer_metrics(totals, records, percentile):
    """The per-layer metrics from summed totals; absent functions read 0.

    trace.overhead_ratio is the median, over groups of like requests, of
    the traced to untraced ratio of that group's median latency in the
    same run.
    """
    out = {name: float(totals.get(name, 0)) for name in LAYER_METRICS}
    evals = totals.get("quadrature.doubling_evals", 0)
    out["quadrature.useful_eval_ratio"] = (
        totals.get("quadrature.final_level_evals", 0) / evals if evals else 0.0)
    hits = totals.get("qforms.hurwitz_class_number.hits", 0)
    looked = hits + totals.get("qforms.hurwitz_class_number.misses", 0)
    out["qforms.hurwitz_class_number.hit_ratio"] = hits / looked if looked else 0.0
    ratios = []
    for group in sorted({r["group"] for r in records}):
        on = [r["wall_s"] for r in records if r["group"] == group and r["traced"]]
        off = [r["wall_s"] for r in records if r["group"] == group and not r["traced"]]
        if on and off:
            ratios.append(percentile(on, 50) / percentile(off, 50))
    out["trace.overhead_ratio"] = percentile(ratios, 50) if ratios else 0.0
    out["trace.requests"] = float(sum(r["traced"] for r in records))
    return out
