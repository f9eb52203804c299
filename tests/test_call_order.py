"""Results do not depend on call order or cache state: the same calls, run
in two orders in fresh processes, cold and then warm, give the same bits."""

import json
import os
import pathlib
import subprocess
import sys

import shintani

# Runs the calls named in argv in that order twice, with the caches the
# first pass fills (quadrature._CC_CACHE, cycles._psi_pair, forms' _tables,
# specfun.bernoulli_number, qforms._delta_primes) and prints each pass's
# results as exact bits, with the size of each cache after the first pass.
SCRIPT = r'''
import json, sys
import mpmath
from shintani import Precision, cmtraces, cycles, forms, qforms, quadrature, specfun

mpmath.mp.dps = 30
G = lambda: forms.e2_star_data(64, Precision())


def bits(v):
    if isinstance(v, mpmath.mpc):
        return repr(v._mpc_)
    if isinstance(v, mpmath.mpf):
        return repr(v._mpf_)
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, cmtraces.IdentityReport):   # all but its runtime
        return [v.identity_id, v.params, bits(v.computed), bits(v.abs_error)]
    if isinstance(v, (tuple, list)):
        return [bits(x) for x in v]
    return repr(v)


CALLS = {
    "verify-hecke": lambda: cmtraces.identity_steps((3, 4))["hecke"](-4),
    "verify-class-number": lambda: cmtraces.identity_steps((3, 4))["class-number"](-4),
    "closed-trace": lambda: cycles.trace_cycle(G(), -4, 3, 0),
    "l-star": lambda: cycles.l_star_value(G(), -3, 0),
    "lemma-rows": lambda: [cycles.bernoulli_height_integral(3, 2, 0),
                           cycles.bernoulli_height_integral(2, -1, 0.5),
                           cycles.polygamma_height_integral(1, 1, 0.5),
                           cycles.polygamma_height_integral(2, -3, 2)],
    # the same rows at another precision: the precision-keyed caches hold both
    "lemma-rows-20": lambda: [cycles.bernoulli_height_integral(2, -1, 0.5, Precision(20)),
                              cycles.polygamma_height_integral(1, 1, 0.5, Precision(20))],
}
run = lambda: {name: bits(CALLS[name]()) for name in sys.argv[1:]}
cold = run()
caches = {"_CC_CACHE": len(quadrature._CC_CACHE),
          "_psi_pair": cycles._psi_pair.cache_info().currsize,
          "_tables": len(vars(G()).get("_tables", {})),
          "bernoulli_number": specfun.bernoulli_number.cache_info().currsize,
          "_delta_primes": qforms._delta_primes.cache_info().currsize}
print(json.dumps({"cold": cold, "warm": run(), "caches": caches}))
'''
NAMES = ["verify-hecke", "verify-class-number", "closed-trace", "l-star", "lemma-rows",
         "lemma-rows-20"]


def _run(order):
    src = pathlib.Path(shintani.__file__).parents[1]
    r = subprocess.run([sys.executable, "-c", SCRIPT, *order], capture_output=True,
                       text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    return json.loads(r.stdout)


def test_results_do_not_depend_on_call_order_or_cache_state():
    forward, backward = _run(NAMES), _run(NAMES[::-1])
    for run in (forward, backward):
        assert all(run["caches"].values()), run["caches"]
    for name in NAMES:
        assert forward["cold"][name] == forward["warm"][name] == \
            backward["cold"][name] == backward["warm"][name], name
