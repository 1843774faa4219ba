"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; mhslab is imported from its `src`.

--trace 0 (end-to-end): sets up the workload several times in fresh
interpreters for `setup_s`, then runs whole rounds of ops for at least
S seconds and reports `ops_per_s`, `op_p50_s`, `setup_s` and
`peak_rss_mib`.

--trace 1 (per layer): runs the first round once untraced and once with
spans around every public function of the traced layers, and reports the
per-layer metrics of the traced round plus the tracing overhead per op.
Spans are written to perfbench/out/.  The round is fixed by the seed, so
counts repeat exactly between traced runs.

Every output is checked after the timed phase; `correct` is false if any
check fails.  Ops that raise a library error are counted in `failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5


def load():
    """Import mhslab from this checkout (and nowhere else) and the workloads."""
    if not os.path.isfile(os.path.join(SRC, "mhslab", "__init__.py")):
        sys.exit(f"error: no mhslab sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import workloads
    return workloads


def run_ops(ops):
    """Time each op; a library error is the op's (failed) result."""
    from mhslab.errors import MhsError
    times, results, failed = [], [], 0
    for label, fn in ops:
        t0 = time.perf_counter()
        try:
            out = fn()
        except MhsError as exc:
            out = exc
        times.append(time.perf_counter() - t0)
        failed += isinstance(out, Exception)
        results.append((label, out))
    return times, results, failed


def end_to_end(wl, args):
    setups = []
    for _ in range(SETUP_PROBES):
        # The probe prints the monotonic clock (shared by all processes)
        # once it is ready, so its exit and the parent's polling for the
        # child are not counted.
        t0 = time.monotonic()
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", args.seed],
            check=True, timeout=120, capture_output=True, text=True)
        setups.append(float(probe.stdout.split()[-1]) - t0)
    times, results, failed = [], [], 0
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < args.seconds:
        t, res, f = run_ops(wl.ops(r))
        times += t
        results += res
        failed += f
        r += 1
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": {"value": len(times) / sum(times), "unit": "op/s"},
        "op_p50_s": {"value": statistics.median(times), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mib": {"value": peak_kib / 1024, "unit": "MiB"},
    }
    return metrics, results, len(times), failed


def per_layer(wl, args):
    from sympy.core.cache import clear_cache
    from spans import Tracer
    # Both rounds start from an empty sympy cache, so the second does not
    # profit from the first's symbolic work.
    clear_cache()
    plain, results, failed = run_ops(wl.ops(0))
    clear_cache()
    ops = wl.ops(0)  # inputs are generated before tracing starts
    tracer = Tracer()
    tracer.install()
    try:
        traced, results_t, failed_t = run_ops(
            [(label, lambda fn=fn: tracer.span("bench.op", fn)) for label, fn in ops])
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.tsv"))
    n = len(traced)
    metrics = tracer.metrics(n)
    metrics["trace.overhead_s"] = {"value": (sum(traced) - sum(plain)) / n,
                                   "unit": "s/op"}
    return metrics, results + results_t, 2 * n, failed + failed_t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workloads = load()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    if args.setup_probe:
        print(time.monotonic())
        return 0
    run = per_layer if args.trace else end_to_end
    metrics, results, attempted, failed = run(wl, args)
    problems = wl.check(results)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
