"""Scalar observables of chain ground states and swept-series utilities."""

from dataclasses import dataclass

import numpy as np

from .models import ASHKIN_TELLER


class SymmetryViolationError(Exception):
    """Site or species symmetry broken beyond tolerance (wrong ground state?)."""


def _site_diagonal_average(psi, bits, tol):
    """Per-bit <diagonal Pauli> of an x-frame state, checked for uniformity."""
    prob = np.abs(psi.amplitudes) ** 2
    states = psi.basis.states
    vals = np.array([(prob * (1 - 2 * ((states >> np.int64(b)) & 1))).sum()
                     for b in bits])
    if vals.max() - vals.min() > tol:
        raise SymmetryViolationError(
            f"site values spread {vals.max() - vals.min():.3e} exceeds {tol:.1e}")
    return vals


def magnetization_x(psi, p, tol=1e-9):
    """Site-averaged <sigma^x> of an Ashkin-Teller ground state.

    The state must live in the x frame; sigma and tau averages are checked
    to agree, as PBC translation invariance requires.
    """
    if p.model != ASHKIN_TELLER or psi.basis.frame != "x":
        raise ValueError("magnetization_x expects an x-frame Ashkin-Teller state")
    psi = psi.unfold()
    sigma = _site_diagonal_average(psi, range(0, p.n_spins, 2), tol)
    tau = _site_diagonal_average(psi, range(1, p.n_spins, 2), tol)
    if abs(sigma.mean() - tau.mean()) > tol:
        raise SymmetryViolationError(
            f"sigma/tau asymmetry {abs(sigma.mean() - tau.mean()):.3e}")
    return float((sigma.mean() + tau.mean()) / 2.0)


def correlator_x(psi, p, tol=1e-9):
    """Site-averaged on-site correlator <sigma^x tau^x>."""
    if p.model != ASHKIN_TELLER or psi.basis.frame != "x":
        raise ValueError("correlator_x expects an x-frame Ashkin-Teller state")
    psi = psi.unfold()
    prob = np.abs(psi.amplitudes) ** 2
    states = psi.basis.states
    vals = []
    for j in range(p.m_sites):
        zs = 1 - 2 * ((states >> np.int64(2 * j)) & 1)
        zt = 1 - 2 * ((states >> np.int64(2 * j + 1)) & 1)
        vals.append(float((prob * zs * zt).sum()))
    vals = np.array(vals)
    if vals.max() - vals.min() > tol:
        raise SymmetryViolationError(
            f"correlator spread {vals.max() - vals.min():.3e} exceeds {tol:.1e}")
    return float(vals.mean())


@dataclass(eq=False)
class Series:
    """Sampled curve of one quantity along a parameter grid."""

    parameter: str  # "delta" or "beta"
    grid: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values length mismatch")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")


def _check_uniform(grid):
    steps = np.diff(grid)
    if steps.max() - steps.min() > 1e-9 * steps.mean():
        raise ValueError("finite differences require a uniform grid")
    return float(steps.mean())


def finite_difference(series, order=1):
    """Central differences in the interior, one-sided at the endpoints."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if len(series.grid) < 3:
        raise ValueError("need at least 3 samples")
    h = _check_uniform(series.grid)
    v = series.values
    out = np.empty_like(v)
    if order == 1:
        out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
        out[0] = (v[1] - v[0]) / h
        out[-1] = (v[-1] - v[-2]) / h
    else:
        out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
        out[0] = (v[2] - 2 * v[1] + v[0]) / h**2
        out[-1] = (v[-1] - 2 * v[-2] + v[-3]) / h**2
    label = f"d{order}({series.label})" if series.label else f"d{order}"
    return Series(series.parameter, series.grid.copy(), out, label)


def locate_extremes(series):
    """Interior extremes from first-difference sign changes.

    Plateaus resolve deterministically to the smaller parameter value.
    Returns a list of (parameter_value, kind, value) with kind in
    {"max", "min"}.
    """
    if len(series.grid) < 3:
        raise ValueError("need at least 3 samples")
    v = series.values
    found = []
    for i in range(1, len(v) - 1):
        left = v[i] - v[i - 1]
        right = v[i + 1] - v[i]
        if left > 0 and right <= 0:
            found.append((float(series.grid[i]), "max", float(v[i])))
        elif left < 0 and right >= 0:
            found.append((float(series.grid[i]), "min", float(v[i])))
    return found
