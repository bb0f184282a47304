#!/usr/bin/env python3
"""Ungated layer report: regenerates the ROADMAP baseline table as JSON.

Usage: python3 perfbench/layer_report.py [--out PATH]   (about two minutes)

Rows: the 20-spin build split; lanczos_ground against
scipy.sparse.linalg.eigsh(k=2) on the same matrix; reorthogonalization vs
matvec time at M=9; dense vs Lanczos vs eigsh at M=6; dense_spectrum at
M=7; run_sweep with 1 and 2 threads at M=8; fig6 with 1 and 2 threads.
Thread counts above nproc are not run: the table's old threads=4 rows
oversubscribed the 2-core machine they came from. Single runs, no gate.
"""

import argparse
import dataclasses
import json
import os
import tempfile
from pathlib import Path
from time import perf_counter

import scipy.sparse.linalg as sla

import run
from bootstrap import OUT
from tracing import Tracer, layer_metrics
from workloads import atxxz


def _timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return perf_counter() - t0, out


def _at(m_sites, delta=1.0):
    p = atxxz.ModelParams("at", m_sites, delta=delta, beta=1.0)
    return p, atxxz.ground_sector(p)


def build_split(m_sites=10):
    with Tracer() as tracer:
        total, h = _timed(atxxz.sweeps.build_hamiltonian, *_at(m_sites))
    m = layer_metrics(tracer.spans)
    return h, {"m_sites": m_sites, "dim": h.dim, "nnz": int(h.matrix.nnz),
               "build_s": total,
               "basis_s": m["basis.build_basis.s"][0],
               "entries_s": m["kernels.entries.s"][0],
               "coo_to_csr_s": m["models.build_hamiltonian.self_s"][0]}


def solver_pair(h):
    t_lz, res = _timed(atxxz.lanczos_ground, h, k=2)
    t_ev, (w, _) = _timed(sla.eigsh, h.matrix, k=2, which="SA")
    return {"lanczos_ground_s": t_lz, "eigsh_s": t_ev,
            "e0_diff": abs(res.ground_energy - float(min(w)))}


def reorth_share(m_sites=9):
    with Tracer() as tracer:
        h = atxxz.sweeps.build_hamiltonian(*_at(m_sites))
        t, _ = _timed(atxxz.eigensolve.lanczos_ground, h, k=2)
    m = layer_metrics(tracer.spans)
    return {"m_sites": m_sites, "dim": h.dim, "lanczos_s": t,
            "outside_matvec_s": m["eigensolve.lanczos_ground.self_s"][0],
            "matvec_s": m["eigensolve.matvec.s"][0],
            "matvecs": m["eigensolve.matvec.count"][0]}


def small_solvers():
    h = atxxz.build_hamiltonian(*_at(6))
    t_gs, _ = _timed(atxxz.ground_state, h, k=2)
    row = solver_pair(h)
    row.update(m_sites=6, dim=h.dim, ground_state_default_s=t_gs)
    h7 = atxxz.build_hamiltonian(*_at(7))
    t7, _ = _timed(atxxz.dense_spectrum, h7)
    return row, {"m_sites": 7, "dim": h7.dim, "dense_spectrum_s": t7}


def sweep_threads(tmp):
    nproc = len(os.sched_getaffinity(0))
    threads = [t for t in (1, 2) if t <= nproc]
    spec = atxxz.SweepSpec(model="at", m_sites=8, sweep="delta", start=0.8,
                           stop=1.2, step=0.05, quantities=("entropy",))
    sweep = {t: _timed(atxxz.run_sweep,
                       dataclasses.replace(spec, threads=t))[0]
             for t in threads}
    fig6 = {}
    for t in threads:
        specs = [dataclasses.replace(s, threads=t) for s in
                 atxxz.figure_presets("fig6", out_dir=str(tmp))]
        fig6[t] = _timed(lambda: [atxxz.run_sweep(s) for s in specs])[0]
    return ({"m_sites": 8, "points": len(spec.grid()), "seconds_by_threads":
             sweep},
            {"sweeps": 6, "seconds_by_threads": fig6,
             "omitted": "threads=4 exceeds nproc"})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=OUT / "layer_report.json")
    args = ap.parse_args()
    h, split = build_split()
    report = {"build_at20": split, "solve_at20": solver_pair(h)}
    del h
    report["reorth_vs_matvec_m9"] = reorth_share()
    report["solvers_m6"], report["dense_spectrum_m7"] = small_solvers()
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        report["run_sweep_m8"], report["fig6"] = sweep_threads(tmp)
    report["environment"] = run.environment(None, None)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
