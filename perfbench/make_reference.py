#!/usr/bin/env python3
"""Regenerate the seed-0 reference rows that the correctness gate compares.

Usage: python3 perfbench/make_reference.py [WORKLOAD ...]

Writes ``perfbench/reference/<workload>.json``. Run it only at a commit
whose outputs are trusted: every later seed-0 run must match these rows
(energies to 1e-9, other values to 1e-8).
"""

import json
import sys
import tempfile
from pathlib import Path

import workloads
from bootstrap import OUT, ROOT
from worker import run_pass


def main(names):
    OUT.mkdir(parents=True, exist_ok=True)
    for name in names or workloads.NAMES:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            seconds, rows = run_pass(workloads.pass_specs(name, 0, Path(tmp)))
        path = ROOT / "perfbench" / "reference" / f"{name}.json"
        with open(path, "w") as fh:
            json.dump({"workload": name, "seed": 0, "rows": rows}, fh,
                      indent=0)
        print(f"{name}: {len(rows)} rows in {seconds:.1f} s -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
