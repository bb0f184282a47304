"""One workload in a fresh process: timed passes, then an optional traced one.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --out DIR [--scale paper|smoke]

Writes ``DIR/worker.json`` (pass times, rows, peak RSS, per-layer metrics)
and, when traced, ``DIR/spans.json``. The process holds nothing but the
workload, so its peak RSS is the workload's.
"""

import argparse
import json
import resource
import statistics
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from workloads import atxxz
from tracing import Tracer, layer_metrics


def run_pass(specs):
    """Solve one pass; returns (seconds, rows) or raises what run_sweep raised."""
    t0 = perf_counter()
    results = [atxxz.sweeps.run_sweep(spec) for spec in specs]
    return perf_counter() - t0, workloads.rows_of(results)


def timed_passes(specs, budget, traced=False):
    """Run passes while the next one is predicted to end within ``budget``.

    At least one pass runs. Returns a list of dicts, one per pass.
    """
    passes = []
    start = perf_counter()
    while True:
        rec = {}
        try:
            if traced:
                with Tracer() as tracer:
                    rec["seconds"], rec["rows"] = run_pass(specs)
                rec["spans"] = tracer.spans
            else:
                rec["seconds"], rec["rows"] = run_pass(specs)
        except Exception:  # a failed pass is reported, not fatal
            rec["error"] = traceback.format_exc()
            passes.append(rec)
            return passes
        passes.append(rec)
        typical = statistics.median(p["seconds"] for p in passes)
        if perf_counter() - start + typical > budget:
            return passes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--scale", choices=tuple(workloads.SIZES), default="paper")
    args = ap.parse_args(argv)

    # first calls (lazy imports, numba JIT) are set-up, not workload time
    with tempfile.TemporaryDirectory(dir=args.out) as tmp:
        run_pass(workloads.pass_specs(args.workload, args.seed, Path(tmp),
                                      "smoke"))
    specs = workloads.pass_specs(args.workload, args.seed, args.out,
                                 args.scale)
    report = {"points_per_pass": sum(len(s.grid()) for s in specs)}
    if args.trace:
        # half the budget untraced, half traced: the ratio is the overhead
        untraced = timed_passes(specs, args.seconds / 2)
        traced = timed_passes(specs, args.seconds / 2, traced=True)
        spans = [p.pop("spans") for p in traced if "spans" in p]
        per_pass = [layer_metrics(s) for s in spans]
        if per_pass:
            report["layers"] = {
                k: (statistics.median(m[k][0] for m in per_pass), u)
                for k, (_, u) in per_pass[0].items()}
        report["traced"] = traced
        with open(args.out / "spans.json", "w") as fh:
            json.dump(spans, fh)
    else:
        untraced = timed_passes(specs, args.seconds)
    report["passes"] = untraced
    report["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(args.out / "worker.json", "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
