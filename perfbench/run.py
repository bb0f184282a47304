#!/usr/bin/env python3
"""atxxz benchmark: one workload per run, timed end to end or traced.

Usage (from the checkout root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in a fresh worker process (``worker.py``). With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it reports the per-layer metrics instead, from passes
whose calls into atxxz are wrapped by ``tracing.Tracer``. Every run checks
its rows (``checks.py``), prints one ``name = value unit`` line per metric,
writes ``perfbench/out/<run>/result.json`` with an environment record, and
prints the result JSON as its last line. It exits 1 when any grid point
fails the correctness gate.
"""

import argparse
import ctypes
import glob
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
from bootstrap import OUT, ROOT, SRC
from workloads import NAMES, atxxz

SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
# import plus the lazy first-call work of both kernels (numba JIT, if
# present), then the system-wide monotonic clock at the moment it is ready
PROBE = ("import atxxz as a\n"
         "for m in ('at', 'xxz'):\n"
         "    p = a.ModelParams(m, 2, delta=1.0)\n"
         "    a.ground_state(a.build_hamiltonian(p, a.ground_sector(p)))\n"
         "import time\n"
         "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n")


def setup_seconds():
    """Median time from launching a fresh interpreter until atxxz is ready.

    The probe reports when it is ready, so neither interpreter teardown nor
    the polling interval of a subprocess wait is counted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                             check=True, cwd=ROOT, capture_output=True,
                             text=True, timeout=60)
        times.append(float(out.stdout.split()[-1]) - t0)
    return statistics.median(times), times


def _blas_threads():
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def _kernel_paths_agree():
    """bench_kernels.py's jitted-vs-numpy triplet check, when numba runs."""
    if not atxxz.kernels.NUMBA_ENABLED:
        return None
    path = ROOT / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    for model in ("at", "xxz"):
        mod.bench_model(model, 4)  # asserts that both paths agree
    return True


def environment(seed, workers):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(), "seed": seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "sweep_workers": workers,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_path": "numba" if atxxz.kernels.NUMBA_ENABLED else "numpy",
    }


def gate(report, seed, reference=None):
    """Correctness gate over every pass; returns (failed, attempted, detail).

    ``reference`` holds seed-0 rows to match; without it, the other chain's
    ground energy at one seeded point must equal the row's (20-spin passes).
    """
    passes = report["passes"] + report.get("traced", [])
    per_pass = report["points_per_pass"]
    good = [p["rows"] for p in passes if "rows" in p]
    detail = {"errors": [p["error"] for p in passes if "error" in p]}
    bad = set()
    if good:
        first = good[0]
        bad |= checks.unconverged(first)
        if reference is not None:
            bad |= checks.mismatched(first, reference)
        else:
            failed, detail["equivalence"] = checks.energy_equivalence(
                first, seed)
            bad |= failed
        failed, detail["dense_oracle"] = checks.dense_oracle(first, seed)
        bad |= failed
    failed = per_pass * len(detail["errors"])
    for rows in good:
        # later passes and the traced pass must repeat the first one's rows
        failed += len(bad | checks.mismatched(rows, good[0]))
    return failed, per_pass * len(passes), detail


def run(workload, seed, seconds, trace, scale="paper"):
    """One benchmark run; returns the result dict that main() prints."""
    out = OUT / f"{scale}-{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    if not trace:
        setup_s, setup_all = setup_seconds()
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out), "--scale", scale]
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=sys.stderr,
                   timeout=WORKER_TIMEOUT_S)
    with open(out / "worker.json") as fh:
        report = json.load(fh)

    reference = None
    if seed == 0 and scale == "paper":
        with open(ROOT / "perfbench" / "reference" / f"{workload}.json") as fh:
            reference = json.load(fh)["rows"]
    failed, attempted, detail = gate(report, seed, reference)
    wall = [p["seconds"] for p in report["passes"] if "seconds" in p]
    if trace:
        metrics = dict(report.get("layers", {}))
        traced = [p["seconds"] for p in report["traced"] if "seconds" in p]
        if wall and traced:
            metrics["trace.overhead_frac"] = (
                statistics.median(traced) / statistics.median(wall) - 1.0,
                "ratio")
        detail["kernel_paths_agree"] = _kernel_paths_agree()
        workers = metrics.get("sweeps.workers", (None,))[0]
    else:
        metrics = {"setup_s": (setup_s, "s"),
                   "peak_rss_mb": (report["peak_rss_mib"], "MiB")}
        if wall:
            metrics["wall_s"] = (statistics.median(wall), "s")
        detail["setup_s_all"] = setup_all
        workers = None
    result = {
        "correct": failed == 0 and len(metrics) > 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    record = dict(result, workload=workload, scale=scale, seconds=seconds,
                  pass_seconds=wall, detail=detail,
                  environment=environment(seed, workers))
    with open(out / "result.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    result = run(args.workload, args.seed, args.seconds, args.trace)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} grid points)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
