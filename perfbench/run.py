"""The shintani benchmark: time to a verified identity.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all       # every workload, one table

Run from the root of a checkout; the package is imported from ./src.  One
client in one process, no threads, closed loop: each request is one
identity check, sent when the previous one has finished.  Workloads are
defined in workloads.py, oracles in oracles.py.

The run has three segments.  Each starts with a set-up (a fresh import of
the package, input generation in the first, an untimed warm-up) and then
runs whole rounds of requests up to the round boundary nearest to its
share of --seconds; a segment whose share the earlier rounds already
filled runs none.  Every round holds the same mix of request kinds, so
every run measures the same mix.  setup_s is the median of the three
set-ups.  Outputs are checked after the last segment.

--trace 0 prints the end-to-end metrics.  --trace 1 wraps every public
function of the package (tracer.py) on every second request of each
group of like requests (the first, third, ...) and prints the per-layer
metrics, summed over the traced requests; trace.overhead_ratio compares
traced with untraced latency within each group.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
The line before it holds the run's metadata; per-request records and spans
go to perfbench/out/.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

SETUPS = 3
MODULES = ("shintani", "shintani.qforms", "shintani.specfun", "shintani.forms",
           "shintani.cycles", "shintani.cmtraces", "shintani.thetacore")
END_TO_END_UNITS = {"setup_s": "s", "latency_p50_s": "s", "latency_p75_s": "s",
                    "throughput_rps": "1/s", "verified_frac": "ratio",
                    "digits_min": "digits", "peak_rss_mb": "MB"}


def percentile(values, p):
    """Nearest-rank percentile: a measured value, never an interpolation."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


class Lib:
    """The package's modules, from a fresh import."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "shintani" or m.startswith("shintani.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name.rsplit(".", 1)[-1], importlib.import_module(name))


def check_checkout(root):
    src = os.path.join(root, "src", "shintani", "__init__.py")
    if not os.path.isfile(src):
        sys.exit(f"perfbench: no shintani sources at {src}; run from the root of a checkout")
    sys.path.insert(0, os.path.join(root, "src"))


def metadata(root, seed):
    src = os.path.join(root, "src")
    lines, digest = 0, hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(data)
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import mpmath
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": numpy.__version__, "commit": git_commit(root),
            "src_sha256": digest.hexdigest(), "seed": seed, "src_lines": lines}


def git_commit(root):
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run(name, seed, seconds, trace, root):
    import mpmath
    from oracles import digits
    from workloads import WORKLOADS, WORK_DPS
    cls = WORKLOADS[name]
    in_process = getattr(cls, "in_process", True)
    mpmath.mp.dps = WORK_DPS

    out_dir = os.path.join(HERE, "out", f"{name}-s{seed}-t{int(trace)}")
    os.makedirs(out_dir, exist_ok=True)
    for f in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, f))
    tracer = None
    if trace and in_process:
        from tracer import Tracer
        tracer = Tracer()

    # SETUPS segments, each a fresh set-up followed by whole timed rounds up
    # to the round boundary nearest to its share of the time budget, so
    # set-up is measured several times and the timed requests are spread
    # over the whole run rather than one stretch of it
    wl = None
    setup_times, records, done = [], [], []
    seen = {}    # occurrences per group: odd ones are traced, so every group is traced
    timed_s = last_round = 0.0
    i = 0
    for seg in range(SETUPS):
        t0 = time.perf_counter()
        if wl is None:
            wl = cls(seed, root)
            if not in_process:
                wl.tracer_out = out_dir
        wl.bind(Lib() if in_process else None)
        wl.warm_up()
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.wrap_package()
        while timed_s + last_round / 2 < seconds * (seg + 1) / SETUPS:
            t_round = time.perf_counter()
            for req in wl.round(i):
                seen[req.group] = seen.get(req.group, 0) + 1
                traced = bool(trace) and seen[req.group] % 2 == 1
                rec = {"kind": req.kind, "group": req.group, "params": req.params,
                       "traced": traced}
                top0 = 0.0
                if traced and tracer:
                    tracer.request = len(records)
                    top0 = tracer.top_time
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    value = req.call(traced) if not in_process else req.call()
                    rec["error"] = None
                except Exception as exc:   # a failed request is counted, never fatal
                    value, rec["error"] = None, f"{type(exc).__name__}: {exc}"
                rec["wall_s"] = time.perf_counter() - t0
                if traced and tracer:
                    tracer.uninstall()
                    rec["spans_s"] = tracer.top_time - top0
                if mpmath.mp.dps != WORK_DPS:
                    rec["error"] = rec["error"] or f"mp.dps left at {mpmath.mp.dps}"
                    mpmath.mp.dps = WORK_DPS
                records.append(rec)
                done.append((req, value))
            i += 1
            last_round = time.perf_counter() - t_round
            timed_s += last_round

    # verification, outside the timed phase
    for rec, (req, value) in zip(records, done):
        rec["abs_error"], rec["digits"], rec["ok"] = None, 0.0, False
        if rec["error"] is None:
            try:
                err = req.check(value)
            except Exception as exc:
                rec["error"] = f"check {type(exc).__name__}: {exc}"
            else:
                rec["abs_error"] = err
                rec["digits"] = digits(err, req.cap)
                rec["ok"] = err <= req.tol
                if not rec["ok"]:
                    rec["error"] = f"error {err:.3e} above tolerance {req.tol:.1e}"

    attempted = len(records)
    ok = sum(r["ok"] for r in records)
    lat = [r["wall_s"] for r in records]
    if trace:
        metrics = layer_metrics(records, tracer, wl, out_dir)
    else:
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        metrics = {
            "setup_s": statistics.median(setup_times),
            "latency_p50_s": percentile(lat, 50),
            "latency_p75_s": percentile(lat, 75),
            "throughput_rps": ok / timed_s,
            "verified_frac": ok / attempted,
            "digits_min": min(r["digits"] for r in records),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
    meta = metadata(root, seed)
    meta.update(workload=name, seconds=seconds, trace=int(trace), timed_s=timed_s,
                setup_times_s=setup_times, rounds=i, requests=attempted)
    with open(os.path.join(out_dir, "run.json"), "w") as fh:
        json.dump({"meta": meta, "metrics": metrics, "records": records}, fh, default=str)
    result = {"correct": ok == attempted, "attempted": attempted, "failed": attempted - ok,
              "metrics": {k: {"value": v, "unit": END_TO_END_UNITS.get(k) or layer_unit(k)}
                          for k, v in metrics.items()}}
    return meta, result


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def layer_metrics(records, tracer, wl, out_dir):
    from tracer import layer_metrics as compute, merge
    traced = [r for r in records if r["traced"]]
    if tracer is not None:
        totals = tracer.totals()
        totals["other.self_s"] = sum(r["wall_s"] - r["spans_s"] for r in traced)
        tracer.write_spans(os.path.join(out_dir, "spans.npz"))
    else:
        # cli-cold: each traced request ran under launch.py and left its totals
        totals = {}
        for child, rec in zip(wl.traced, traced):
            merge(totals, child)
            totals["cli.process_s"] = totals.get("cli.process_s", 0) + rec["wall_s"]
            totals["other.self_s"] = totals.get("other.self_s", 0) + (
                rec["wall_s"] - child["cli.import_s"] - child["cli.main_s"])
    return compute(totals, records, percentile)


def run_all(args, root):
    """Every workload in its own process; prints one table."""
    from workloads import WORKLOADS
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=root, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            sys.exit(f"perfbench: {name} failed: {proc.stderr[-500:]}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, mv in results[name]["metrics"].items():
            print(f"{name:13s} {metric:42s} {mv['value']:14.6g} {mv['unit']}")
        r = results[name]
        print(f"{name:13s} correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


def main():
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)   # BENCHMARK.json's run_seconds
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    check_checkout(root)
    if args.workload == "all":
        return run_all(args, root)
    meta, result = run(args.workload, args.seed, args.seconds, args.trace, root)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
