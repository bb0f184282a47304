"""Executable checks of the chain equivalences and operator identities.

Each check returns a VerificationReport; failures are reported, not raised,
so a suite can run to completion and aggregate.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .basis import MAX_SPINS, Full, expectation, pauli, pauli_action
from .models import (ASHKIN_TELLER, STAGGERED_XXZ, ModelParams,
                     build_hamiltonian, ground_sector, link_variable)
from .eigensolve import dense_spectrum, ground_state
from .entanglement import reduce_state, von_neumann

# suite name -> largest M it accepts, in report order: ground-sector solves
# bound constraints, energy and density, a dense full-space one the last
SUITE_MAX_M = {"link-algebra": MAX_SPINS // 2, "constraints": 10, "energy": 10,
               "density": 10, "spectral-inclusion": 3}


@dataclass
class VerificationReport:
    name: str
    chain_spins: int
    params: dict
    max_deviation: float
    tolerance: float
    notes: str = ""

    @property
    def passed(self):
        return self.max_deviation <= self.tolerance

    @property
    def inconclusive(self):
        """A check that could not decide reports a NaN deviation."""
        return bool(np.isnan(self.max_deviation))

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        par = ", ".join(f"{k}={v}" for k, v in self.params.items())
        line = (f"[{status}] {self.name} (spins={self.chain_spins}, {par}): "
                f"max deviation {self.max_deviation:.3e} vs tol {self.tolerance:.1e}")
        if self.notes:
            line += f" [{self.notes}]"
        return line


def _check_size(suite, m_sites):
    if m_sites > SUITE_MAX_M[suite]:
        raise ValueError(f"{suite} check limited to m_sites <= {SUITE_MAX_M[suite]}")


def check_link_algebra(model, m_sites, variables=None):
    """Squares to the identity and every (anti)commutation case, read from
    the masks: phase X^x Z^z squares to phase^2 (-1)^|x & z|, and two strings
    anticommute when |x_a & z_b| + |z_a & x_b| is odd. A deviation is the
    largest entry the dense P^2 - 1, AB - BA or AB + BA would have."""
    _check_size("link-algebra", m_sites)
    p = ModelParams(model, m_sites)
    two_m = 2 * m_sites
    if variables is None:
        variables = {(kind, i): link_variable(kind, i, p)
                     for kind in ("eta", "gamma") for i in range(1, two_m + 1)}
    masks = {key: s.masks(p.n_spins) for key, s in variables.items()}
    dev = max(abs(ph * ph * (-1) ** (x & z).bit_count() - 1)
              for x, z, ph in masks.values())
    for ((ka, j), a), ((kb, k), b) in combinations(masks.items(), 2):
        # eta and gamma always commute; so do algebra non-neighbours
        anti = ka == kb and (abs(j - k) == 1 or {j, k} == {1, two_m})
        if ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) % 2 != anti:
            dev = max(dev, 2 * abs(a[2] * b[2]))
    return VerificationReport("link-algebra", p.n_spins, {"model": model}, dev, 1e-12)


def _solved_ground(p, solved=None):
    """Ground-sector solve of p; kept in the dict ``solved``, if one is
    given, so that suites run together solve each model once."""
    if solved is None:
        return ground_state(build_hamiltonian(p, ground_sector(p)))
    if p not in solved:
        solved[p] = _solved_ground(p)
    return solved[p]


def check_constraints_on_ground_state(p, state=None, solved=None):
    """Product-operator constraints applied to the ground state."""
    _check_size("constraints", p.m_sites)
    notes = ""
    if state is None:
        res = _solved_ground(p, solved)
        if res.degenerate:
            notes = "inconclusive: degenerate ground state"
        state = res.ground_state
    two_m = 2 * p.m_sites

    sites = range(1, p.m_sites + 1)
    if p.model == ASHKIN_TELLER:
        products = {
            "prod eta_even": [link_variable("eta", 2 * j, p) for j in sites],
            "prod gamma_even": [link_variable("gamma", 2 * j, p) for j in sites],
            "prod sigma^x": [pauli((2 * (j - 1), "x")) for j in sites],
            "prod tau^x": [pauli((2 * (j - 1) + 1, "x")) for j in sites],
        }
    else:
        products = {
            "prod eta_odd gamma_even": (
                [link_variable("eta", 2 * j - 1, p) for j in sites]
                + [link_variable("gamma", 2 * j, p) for j in sites]),
            "prod gamma_odd eta_even": (
                [link_variable("gamma", 2 * j - 1, p) for j in sites]
                + [link_variable("eta", 2 * j, p) for j in sites]),
            "Q_x": [pauli((b, "x")) for b in range(two_m)],
            "Q_y": [pauli((b, "y")) for b in range(two_m)],
        }

    dev = 0.0
    details = []
    for name, factors in products.items():
        # |P psi - psi|^2: |moved - target|^2 on every label of P psi, plus
        # psi's weight where P psi is 0, on the labels P moves out
        moved, target, left = pauli_action(state, *factors)
        d = float(np.sqrt(np.linalg.norm(moved - target) ** 2 + left))
        details.append(f"{name}: {d:.2e}")
        dev = max(dev, d)
    return VerificationReport(
        "ground-state-constraints", two_m,
        {"model": p.model, "delta": p.delta, "beta": p.beta},
        float("nan") if notes else dev, 1e-9, notes or "; ".join(details))


def check_energy_equivalence(delta, beta, m_sites, solved=None):
    """|E0(AT, M) - E0(XXZ, 2M)| inside the respective ground sectors."""
    _check_size("energy", m_sites)
    e_at, e_xxz = (_solved_ground(ModelParams(model, m_sites, delta=delta,
                                              beta=beta), solved).ground_energy
                   for model in (ASHKIN_TELLER, STAGGERED_XXZ))
    return VerificationReport(
        "energy-equivalence", 2 * m_sites,
        {"delta": delta, "beta": beta}, abs(e_at - e_xxz), 1e-8,
        f"E0={e_at:.10f}")


def check_density_equality(delta, beta, m_sites, solved=None):
    """Frontal-pair vs intra-dimer-pair reduced matrices, eigenvalue match."""
    _check_size("density", m_sites)
    res_at, res_xxz = (_solved_ground(ModelParams(model, m_sites, delta=delta,
                                                  beta=beta), solved)
                       for model in (ASHKIN_TELLER, STAGGERED_XXZ))
    if res_at.degenerate or res_xxz.degenerate:
        return VerificationReport(
            "density-equality", 2 * m_sites,
            {"delta": delta, "beta": beta}, float("nan"), 1e-9,
            "inconclusive: degenerate ground state")

    rho_at = reduce_state(res_at.ground_state, (0, 1))
    rho_xxz = reduce_state(res_xxz.ground_state, (0, 1))
    ev_at = np.sort(np.linalg.eigvalsh(rho_at.matrix))
    ev_xxz = np.sort(np.linalg.eigvalsh(rho_xxz.matrix))
    dev = float(np.abs(ev_at - ev_xxz).max())

    # correspondence of the matrix coefficients: u = p and v = -q
    psi_xxz = res_xxz.ground_state
    u = expectation(res_at.ground_state, pauli((0, "x")))
    v = expectation(res_at.ground_state, pauli((0, "x"), (1, "x")))
    p_corr = expectation(psi_xxz, pauli((0, "x"), (1, "x")))
    q_corr = expectation(psi_xxz, pauli((0, "z"), (1, "z")))
    s_at = von_neumann(rho_at)
    s_xxz = von_neumann(rho_xxz)
    notes = (f"|u-p|={abs(u - p_corr):.2e}, |v+q|={abs(v + q_corr):.2e}, "
             f"|S_at-S_xxz|={abs(s_at - s_xxz):.2e}")
    dev = max(dev, abs(u - p_corr), abs(v + q_corr))
    return VerificationReport(
        "density-equality", 2 * m_sites,
        {"delta": delta, "beta": beta}, dev, 1e-9, notes)


def check_spectral_inclusion(delta, beta, m_sites):
    """Every AT Q=0 level appears in the full XXZ spectrum (dense, M <= 3)."""
    _check_size("spectral-inclusion", m_sites)
    p_at = ModelParams(ASHKIN_TELLER, m_sites, delta=delta, beta=beta)
    p_xxz = ModelParams(STAGGERED_XXZ, m_sites, delta=delta, beta=beta)
    at_levels = dense_spectrum(build_hamiltonian(p_at, ground_sector(p_at))).energies
    xxz_levels = dense_spectrum(build_hamiltonian(p_xxz, Full())).energies

    # greedy multiset inclusion on sorted lists
    tol = 1e-8
    dev = 0.0
    i = 0
    for e in at_levels:
        while i < len(xxz_levels) and xxz_levels[i] < e - tol:
            i += 1
        if i < len(xxz_levels) and abs(xxz_levels[i] - e) <= tol:
            i += 1
        else:
            gap = np.abs(xxz_levels - e).min() if len(xxz_levels) else np.inf
            dev = max(dev, float(gap))
    return VerificationReport(
        "spectral-inclusion", 2 * m_sites,
        {"delta": delta, "beta": beta}, dev, tol)


def run_suites(names, m_sites, delta, beta):
    """Reports of the named suites ("all" for every one), each run at
    ``min(m_sites, SUITE_MAX_M[name])``, in table order."""
    unknown = set(names) - set(SUITE_MAX_M) - {"all"}
    if unknown:
        raise ValueError(f"unknown verification suites {sorted(unknown)}")
    models = (ASHKIN_TELLER, STAGGERED_XXZ)
    solved = {}  # constraints, energy and density share each model's solve
    suites = {
        "link-algebra": lambda m: [check_link_algebra(x, m) for x in models],
        "constraints": lambda m: [check_constraints_on_ground_state(
            ModelParams(x, m, delta=delta, beta=beta), solved=solved)
            for x in models],
        "energy": lambda m: [check_energy_equivalence(delta, beta, m, solved)],
        "density": lambda m: [check_density_equality(delta, beta, m, solved)],
        "spectral-inclusion": lambda m: [check_spectral_inclusion(delta, beta, m)],
    }
    reports = []
    for name, largest in SUITE_MAX_M.items():
        if name in names or "all" in names:
            reports += suites[name](min(m_sites, largest))
    return reports
