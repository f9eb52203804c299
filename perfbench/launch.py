"""Run one shintani CLI command with the tracer installed.

Usage: python launch.py OUT.json <shintani cli arguments...>

The command's output goes to stdout as usual and the exit code is passed
through; the per-layer totals go to OUT.json and the spans next to it.
"""

import json
import sys
import time

t0 = time.perf_counter()
import shintani.cli  # noqa: E402  (the import is what cli.import_s times)
import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402

out, argv = sys.argv[1], sys.argv[2:]
tracer = Tracer()
tracer.wrap_package()
tracer.install()
code = 0
t1 = time.perf_counter()
try:
    shintani.cli.main.main(args=argv, prog_name="shintani")
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
main_s = time.perf_counter() - t1
tracer.uninstall()
totals = tracer.totals()
totals["cli.import_s"] = import_s
totals["cli.main_s"] = main_s
totals["cli.main.self_s"] = main_s - tracer.top_time
with open(out, "w") as fh:
    json.dump(totals, fh)
tracer.write_spans(out[:-len(".json")] + "-spans.npz")
sys.exit(code)
