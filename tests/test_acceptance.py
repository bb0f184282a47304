"""Acceptance suite: one test per physics acceptance criterion.

Each test records a single machine-greppable verdict line of the form

    criterion NN [PASS|FAIL] short description: measured values

echoed in the terminal summary, then asserts. Two sub-criteria that
the implemented models demonstrably cannot meet at the stated sizes are
marked strict-xfail; see the repository notes for the measured numbers.
Criteria 3-7 and 9 read their values from ``run_sweep``, the path that
``atxxz figure`` runs.
"""

import functools
import sys

import numpy as np
import pytest

from atxxz import (ModelParams, build_basis, build_hamiltonian,
                   dense_spectrum, ground_sector, link_variable)
from atxxz.basis import Full, QuantumState, XParity, pauli
from atxxz.eigensolve import ground_state, lanczos_ground
from atxxz.entanglement import reduce_state, von_neumann
from atxxz.models import ASHKIN_TELLER, STAGGERED_XXZ
from atxxz.observables import locate_extremes
from atxxz.sweeps import SweepSpec, run_sweep
from atxxz import verify
from oracles import dimer_quartet_analytic, lambda_analytic

STEP = 0.025

ACCEPTANCE_LINES = []  # echoed in the terminal summary by conftest


def report(num, ok, detail):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.stderr, flush=True)


def grid_around(start, stop):
    n = int(round((stop - start) / STEP)) + 1
    return np.round(start + STEP * np.arange(n), 10)


@functools.lru_cache(maxsize=None)
def sweep_columns(model, m_sites, block, quantities, start, stop,
                  sweep="delta", fixed=1.0):
    """Value columns of one ``run_sweep`` over ``grid_around(start, stop)``;
    ``fixed`` is the other parameter of (delta, beta). Every row must be
    converged, so a degenerate or failed point fails the criterion."""
    other = "beta" if sweep == "delta" else "delta"
    spec = SweepSpec(model=model, m_sites=m_sites, sweep=sweep, start=start,
                     stop=stop, step=STEP, block=block, quantities=quantities,
                     **{other: fixed})
    rows = run_sweep(spec).rows
    assert len(rows) == len(grid_around(start, stop)) * len(quantities)
    assert all(r.converged for r in rows)
    return {q: np.array([r.value for r in rows if r.quantity == q])
            for q in quantities}


SMALL_SIZES = (4, 5, 6, 7, 8)  # 8 to 16 spins
PARAM_GRID = [(float(d), float(b))
              for d in np.linspace(-0.5, 2.0, 5)
              for b in np.linspace(0.5, 2.0, 5)]


def test_criterion_01_energy_equivalence(solve_ground):
    worst = 0.0
    for m in (3, 4, 5, 6):
        for d, b in PARAM_GRID:
            _, at = solve_ground(ASHKIN_TELLER, m, d, b)
            _, xxz = solve_ground(STAGGERED_XXZ, m, d, b)
            worst = max(worst, abs(at.ground_energy - xxz.ground_energy))
    ok = worst <= 1e-8
    report(1, ok, f"energy equivalence M=3..6, 5x5 grid: max |dE|={worst:.2e}"
                  " (tol 1e-8)")
    assert ok


def test_criterion_02_appendix_density_equality(solve_ground):
    worst_s = worst_ev = 0.0
    for m in (3, 4, 5):
        for d, b in PARAM_GRID:
            _, at = solve_ground(ASHKIN_TELLER, m, d, b)
            _, xxz = solve_ground(STAGGERED_XXZ, m, d, b)
            if at.degenerate or xxz.degenerate:
                continue
            rho_at = reduce_state(at.ground_state, (0, 1))
            rho_xxz = reduce_state(xxz.ground_state, (0, 1))
            worst_s = max(worst_s, abs(von_neumann(rho_at) - von_neumann(rho_xxz)))
            ev_at = np.sort(np.linalg.eigvalsh(rho_at.matrix))
            ev_xxz = np.sort(np.linalg.eigvalsh(rho_xxz.matrix))
            worst_ev = max(worst_ev, float(np.abs(ev_at - ev_xxz).max()))
    ok = worst_s <= 1e-8 and worst_ev <= 1e-9
    report(2, ok, f"reduced-matrix equality M=3..5: max |dS|={worst_s:.2e} "
                  f"(tol 1e-8), max eigenvalue dev={worst_ev:.2e} (tol 1e-9)")
    assert ok


def test_criterion_03_entropy_maximum_at_one():
    grid = grid_around(0.5, 1.5)
    verdicts = []
    for m in SMALL_SIZES:
        entropy = sweep_columns(ASHKIN_TELLER, m, "frontal-pair", ("entropy",),
                                0.5, 1.5)["entropy"]
        found = locate_extremes(grid, entropy)
        maxima = [x for x in found if x[1] == "max"]
        ok = (len(found) == 1 and len(maxima) == 1
              and abs(maxima[0][0] - 1.0) <= STEP + 1e-12)
        verdicts.append((2 * m, maxima[0][0] if maxima else float("nan"), ok))
    ok = all(v[2] for v in verdicts)
    where = ", ".join(f"{n}sp@{x:.3f}" for n, x, _ in verdicts)
    report(3, ok, f"unique frontal-pair S(delta) max at 1+-{STEP}: {where}")
    assert ok


def test_criterion_04_concavity_flip():
    grid = grid_around(0.5, 1.5)
    verdicts = []
    for beta, want in ((0.5, "min"), (0.75, "min"), (1.0, "max"),
                       (1.25, "max"), (1.75, "max")):
        entropy = sweep_columns(ASHKIN_TELLER, 6, "frontal-pair", ("entropy",),
                                0.5, 1.5, fixed=beta)["entropy"]
        found = [x for x in locate_extremes(grid, entropy)
                 if abs(x[0] - 1.0) <= STEP + 1e-12]
        ok = len(found) == 1 and found[0][1] == want
        verdicts.append((beta, found[0][1] if found else "none", ok))
    ok = all(v[2] for v in verdicts)
    detail = ", ".join(f"beta={b:g}:{kind}" for b, kind, _ in verdicts)
    report(4, ok, f"12-spin S(delta) extremum at 1 flips with beta: {detail}")
    assert ok


def test_criterion_05_pairwise_null_results():
    grid = grid_around(0.0, 2.0)
    worst_f = worst_c = 0.0
    monotone_ok = True
    for m in SMALL_SIZES:
        neg = {block: sweep_columns(ASHKIN_TELLER, m, block, ("negativity",),
                                    0.0, 2.0)["negativity"]
               for block in ("frontal-pair", "sigma-tau-cross-pair",
                             "sigma-sigma-pair")}
        worst_f = max(worst_f, neg["frontal-pair"].max())
        worst_c = max(worst_c, neg["sigma-tau-cross-pair"].max())
        win = (grid >= 0.9 - 1e-9) & (grid <= 1.1 + 1e-9)
        diffs = np.diff(neg["sigma-sigma-pair"][win])
        monotone_ok &= bool(np.all(diffs >= 0) or np.all(diffs <= 0))
    ok = worst_f <= 1e-10 and worst_c <= 1e-10 and monotone_ok
    report(5, ok, f"null pair negativities: frontal max={worst_f:.1e}, "
                  f"cross max={worst_c:.1e} (tol 1e-10); sigma-sigma "
                  f"monotone near 1: {monotone_ok}")
    assert ok


def test_criterion_06_dsb_cusp():
    verdicts = []
    for m in (4, 5, 6, 7, 8, 9, 10):
        lo, hi = (0.5, 1.5) if m <= 8 else (0.7, 1.3)
        grid = grid_around(lo, hi)
        scan = sweep_columns(ASHKIN_TELLER, m, "frontal-pair",
                             ("dsb", "m", "g"), lo, hi)
        lam = scan["dsb"]
        analytic = np.array([lambda_analytic(scan["m"][i], scan["g"][i], d)
                             for i, d in enumerate(grid)])
        dev = float(np.abs(lam - analytic).max())
        i1 = int(np.argmin(np.abs(grid - 1.0)))
        left = (lam[i1] - lam[i1 - 1]) / STEP
        right = (lam[i1 + 1] - lam[i1]) / STEP
        # grid-induced slope uncertainty from the branch curvatures,
        # excluding the three points around the cusp itself
        d2 = np.abs(np.diff(lam, 2)) / STEP**2
        d2[max(0, i1 - 2):i1 + 2] = 0.0
        uncert = STEP * float(d2.max())
        ok = dev <= 1e-8 and abs(right - left) > 10.0 * uncert
        verdicts.append((2 * m, dev, abs(right - left), uncert, ok))
    ok = all(v[4] for v in verdicts)
    worst_dev = max(v[1] for v in verdicts)
    min_ratio = min(v[2] / max(v[3], 1e-300) for v in verdicts)
    report(6, ok, f"DSB cusp 8-20 spins: max analytic dev={worst_dev:.1e} "
                  f"(tol 1e-8), min slope-separation ratio={min_ratio:.0f}x "
                  "(need >10x)")
    assert ok


def test_criterion_07_negativity_maximum():
    def nn_negativity(m_sites, lo, hi):
        return sweep_columns(STAGGERED_XXZ, m_sites, "nn-pair",
                             ("negativity",), lo, hi)["negativity"]

    values = {2 * m: float(nn_negativity(m, 1.0, 1.0)[0]) for m in (8, 9, 10)}
    in_range = all(0.35 <= v <= 0.42 for v in values.values())

    argmax_ok = True
    for m, lo, hi in ((8, 0.5, 1.5), (10, 0.9, 1.1)):
        grid = grid_around(lo, hi)
        i = int(np.argmax(nn_negativity(m, lo, hi)))
        argmax_ok &= 0 < i < len(grid) - 1 and abs(grid[i] - 1.0) <= STEP + 1e-12
    ok = in_range and argmax_ok
    vals = ", ".join(f"{n}sp:{v:.4f}" for n, v in sorted(values.items()))
    report(7, ok, f"nn negativity at delta=1 ({vals}) in [0.35, 0.42]; "
                  f"argmax at 1+-{STEP}: {argmax_ok}")
    assert ok


def _dimer_limit_state():
    p = ModelParams(STAGGERED_XXZ, 6, delta=1.0, beta=100.0)
    h = build_hamiltonian(p, ground_sector(p))
    return ground_state(h, k=1, seed=0).ground_state


def test_criterion_08a_dimer_limit_entropy():
    psi = _dimer_limit_state()
    s = von_neumann(reduce_state(psi, (0, 1, 2, 3)))
    ok = abs(s - 2.0) <= 0.02
    report(8, ok, f"dimer-limit quartet entropy S={s:.6f}, |S-2|={abs(s - 2):.1e}"
                  " (tol 0.02)")
    assert ok


@pytest.mark.xfail(strict=True, reason="the product-of-dimers matrix is the "
                   "beta->infinity limit; at beta=100 the finite-coupling "
                   "corrections are O(1/beta) ~ 6e-4, far above 1e-6")
def test_criterion_08b_dimer_limit_density_matrix():
    psi = _dimer_limit_state()
    rho = reduce_state(psi, (0, 1, 2, 3)).matrix
    dev = float(np.abs(rho - dimer_quartet_analytic()).max())
    ok = dev <= 1e-6
    report(8, ok, f"dimer-limit quartet matrix vs analytic: max entry "
                  f"dev={dev:.2e} (tol 1e-6)")
    assert ok


def _quartet_entropy_beta(m_sites):
    return sweep_columns(ASHKIN_TELLER, m_sites, "quartet", ("entropy",),
                         0.1, 3.0, sweep="beta", fixed=5.0)["entropy"]


def _dsdb_maxima(grid, entropy):
    d = np.gradient(entropy, grid)
    return [x for x in locate_extremes(grid, d) if x[1] == "max"]


@functools.lru_cache(maxsize=None)
def _precursor_maxima_8_spins():
    grid = grid_around(0.1, 3.0)
    return grid, _dsdb_maxima(grid, _quartet_entropy_beta(4))


def test_criterion_09a_precursor_first_peak():
    _, maxima = _precursor_maxima_8_spins()
    first = [x for x in maxima if 0.2 < x[0] < 0.5]
    ok = len(maxima) >= 2 and len(first) == 1
    where = ", ".join(f"{x[0]:.3f}" for x in maxima)
    report(9, ok, f"8-spin dS/dbeta maxima at beta={{{where}}}; "
                  "first in (0.2, 0.5)")
    assert ok


@pytest.mark.xfail(strict=True, reason="at 8 spins the second precursor peak "
                   "sits near beta=1.65 and only drifts toward the quoted "
                   "2.14 as the chain grows; the (1.8, 2.5) window needs "
                   "larger sizes")
def test_criterion_09b_precursor_second_peak_window():
    _, maxima = _precursor_maxima_8_spins()
    second = [x for x in maxima if 1.8 < x[0] < 2.5]
    later = [x for x in maxima if x[0] > 1.0]
    ok = len(second) == 1
    where = later[0][0] if later else float("nan")
    report(9, ok, f"8-spin second dS/dbeta peak at beta={where:.3f}, "
                  "required window (1.8, 2.5)")
    assert ok


def test_criterion_09c_precursor_full_size():
    grid = grid_around(0.1, 3.0)
    maxima = _dsdb_maxima(grid, _quartet_entropy_beta(10))
    near = {target: [x for x in maxima if abs(x[0] - target) <= 0.05]
            for target in (0.337, 2.14)}
    ok = all(len(v) == 1 for v in near.values())
    where = ", ".join(f"{x[0]:.3f}" for x in maxima)
    report(9, ok, f"20-spin dS/dbeta maxima at beta={{{where}}}; "
                  "targets 0.337+-0.05 and 2.14+-0.05")
    assert ok


def test_criterion_10_oracle_equivalence():
    params = [(1.0, 1.0), (0.5, 1.5), (-0.25, 0.8), (1.7, 0.6)]
    worst_lanczos = worst_sector = 0.0
    for model in (ASHKIN_TELLER, STAGGERED_XXZ):
        for m in (2, 3, 4, 5, 6, 7):
            for i, (d, b) in enumerate(params):
                if m == 7 and i >= 2:
                    continue  # dense 3k-4k oracle solves: sample two points
                p = ModelParams(model, m, delta=d, beta=b)
                h = build_hamiltonian(p, ground_sector(p))
                e_dense = dense_spectrum(h, k=1).ground_energy
                if h.dim >= 2:
                    e_l = lanczos_ground(h, k=1, seed=0).ground_energy
                    worst_lanczos = max(worst_lanczos, abs(e_l - e_dense))
                if p.n_spins <= 10 or (p.n_spins == 12 and i == 0):
                    e_full = dense_spectrum(
                        build_hamiltonian(p, Full()), k=1).ground_energy
                    worst_sector = max(worst_sector, abs(e_full - e_dense))
    ok = worst_lanczos <= 1e-9 and worst_sector <= 1e-9
    report(10, ok, f"oracle equivalence: max |Lanczos-dense|="
                   f"{worst_lanczos:.1e}, max |sector-full|="
                   f"{worst_sector:.1e} (tol 1e-9)")
    assert ok


def test_criterion_11_link_variable_suite():
    algebra_ok = True
    for model in (ASHKIN_TELLER, STAGGERED_XXZ):
        for m in (2, 3, 4):
            algebra_ok &= verify.check_link_algebra(model, m).max_deviation == 0.0

    worst = 0.0
    for model in (ASHKIN_TELLER, STAGGERED_XXZ):
        for m in (3, 4, 5, 6):
            rep = verify.check_constraints_on_ground_state(
                ModelParams(model, m, delta=0.8, beta=1.2))
            if not np.isnan(rep.max_deviation):
                worst = max(worst, rep.max_deviation)

    # negative controls: a wrong operator breaks the algebra, a wrong-sector
    # state breaks the constraints
    p = ModelParams(ASHKIN_TELLER, 2)
    variables = {(kind, i): link_variable(kind, i, p)
                 for kind in ("eta", "gamma") for i in range(1, 5)}
    variables[("eta", 2)] = pauli((0, "x"))
    control_a = not verify.check_link_algebra(
        ASHKIN_TELLER, 2, variables=variables).passed
    b = build_basis(6, XParity(-1, 1), frame="x")
    rng = np.random.default_rng(0)
    amps = rng.normal(size=b.dim)
    bad_state = QuantumState(amps / np.linalg.norm(amps), b)
    control_b = not verify.check_constraints_on_ground_state(
        ModelParams(ASHKIN_TELLER, 3), state=bad_state).passed

    ok = algebra_ok and worst <= 1e-9 and control_a and control_b
    report(11, ok, f"link-variable suite: algebra exact={algebra_ok}, "
                   f"max constraint residual={worst:.1e} (tol 1e-9), "
                   f"negative controls fail={control_a and control_b}")
    assert ok
