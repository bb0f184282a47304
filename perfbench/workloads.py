"""Workloads: sweep specs generated from a workload seed.

Each workload is one *pass*: the list of ``SweepSpec`` that a run solves
with ``run_sweep`` under the program's defaults (``threads=None``, so the
sweep pool and OpenBLAS pick their own thread counts). The seed shifts every
grid by a fraction of its step and becomes ``SweepSpec.seed``; seed 0 gives
the grids below exactly.

The 20-spin passes are three-point windows (the fewest a ``d1:`` column
accepts) of the paper's grids, so that one pass fits a benchmark run:
``at20_delta`` takes delta = 0.95, 1.0, 1.05 from 0.9:1.1:0.05 and
``xxz20_beta`` takes beta = 0.875, 1.25, 1.625 from 0.5:2.0:0.375.
"""

import dataclasses

import numpy as np

from bootstrap import import_atxxz

atxxz = import_atxxz()

NAMES = ("at20_delta", "xxz20_beta", "fig6_reduced")

# chain sizes (M, Ashkin-Teller sites) per scale; "smoke" keeps M <= 4 so
# the harness self-check finishes in seconds
SIZES = {
    "paper": {"at20_delta": 10, "xxz20_beta": 10, "fig6_reduced": None},
    "smoke": {"at20_delta": 4, "xxz20_beta": 4, "fig6_reduced": (2, 3)},
}


def grid_shift(seed):
    """Fraction of a step in [-0.5, 0.5) that moves every grid; 0 at seed 0."""
    if seed == 0:
        return 0.0
    return float(np.random.default_rng(seed).uniform(-0.5, 0.5))


def pass_specs(name, seed, out_dir, scale="paper"):
    """The sweeps one pass of workload ``name`` solves, CSVs under out_dir."""
    m = SIZES[scale][name]
    if name == "at20_delta":
        specs = [atxxz.SweepSpec(
            model="at", m_sites=m, sweep="delta", start=0.95, stop=1.05,
            step=0.05, beta=1.0, block="frontal-pair",
            quantities=("energy", "entropy", "d1:entropy", "negativity",
                        "m", "g"),
            out=str(out_dir / f"{name}.csv"))]
    elif name == "xxz20_beta":
        specs = [atxxz.SweepSpec(
            model="xxz", m_sites=m, sweep="beta", start=0.875, stop=1.625,
            step=0.375, delta=1.0, block="quartet",
            quantities=("energy", "entropy", "d1:entropy", "dsb"),
            out=str(out_dir / f"{name}.csv"))]
    elif name == "fig6_reduced":
        specs = atxxz.figure_presets("fig6", out_dir=str(out_dir))
        if m is not None:
            specs = [dataclasses.replace(s, m_sites=k, out=s.out.replace(
                f"spins{2 * s.m_sites}", f"spins{2 * k}"))
                for s, k in zip(specs, m)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    shift = grid_shift(seed)
    return [dataclasses.replace(s, start=s.start + shift * s.step,
                                stop=s.stop + shift * s.step, seed=seed)
            for s in specs]


def point_key(row):
    """Grid point a CSV row belongs to: (chain_spins, delta, beta)."""
    return (row[1], row[2], row[3])


def rows_of(results):
    """Plain tuples of every row of a pass, in emission order."""
    return [(r.model, r.chain_spins, r.delta, r.beta, r.block, r.quantity,
             r.value, bool(r.converged))
            for res in results for r in res.rows]
