#!/usr/bin/env python3
"""Harness self-check at smoke size (M <= 4); takes about twenty seconds.

Usage: python3 perfbench/selfcheck.py

Runs all three workload shapes untraced and traced, asserts that every
metric named in BENCHMARK.json is emitted with its unit and that the layer
map covers exactly the per-layer metrics, feeds the gate one corrupted
reference value and asserts that it is caught, and asserts that the
benchmark refuses to run without the atxxz sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads
from bootstrap import OUT, ROOT
from worker import run_pass


def _expected(section):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def check_metrics():
    end_to_end, per_layer = _expected("end_to_end"), _expected("per_layer")
    with open(ROOT / "perfbench" / "layer_map.json") as fh:
        mapped = set(json.load(fh))
    if mapped != set(per_layer):
        raise AssertionError(f"layer map differs: {mapped ^ set(per_layer)}")
    for name in workloads.NAMES:
        for trace, want in ((0, end_to_end), (1, per_layer)):
            result = run.run(name, 1, 1, trace, scale="smoke")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want or not result["correct"]:
                raise AssertionError(f"{name} trace={trace}: {result}")
            print(f"ok  {name} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} points")


def check_gate_catches_corruption():
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        specs = workloads.pass_specs("at20_delta", 0, Path(tmp), "smoke")
        seconds, rows = run_pass(specs)
    report = {"points_per_pass": 3,
              "passes": [{"seconds": seconds, "rows": rows}]}
    reference = [list(r) for r in rows]
    if run.gate(report, 0, reference)[0] != 0:
        raise AssertionError("gate failed an exact reference")
    i = next(i for i, r in enumerate(reference) if r[5] == "energy")
    reference[i][6] += 10 * checks.ENERGY_TOL
    failed = run.gate(report, 0, reference)[0]
    if failed != 1:
        raise AssertionError(f"corrupted reference gave failed={failed}")
    print("ok  corrupted reference value caught")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "at20_delta",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"ran without sources: {proc}")
    print("ok  refuses to run without src/atxxz")


if __name__ == "__main__":
    OUT.mkdir(parents=True, exist_ok=True)
    check_metrics()
    check_gate_catches_corruption()
    check_refuses_without_sources()
