"""Scalar observables of chain ground states and swept-column utilities."""

import numpy as np

from .models import ASHKIN_TELLER


class SymmetryViolationError(Exception):
    """Site or species symmetry broken beyond tolerance (wrong ground state?)."""


# largest spread of site values, and sigma/tau difference, read as symmetric
SYMMETRY_TOL = 1e-9


# signs of sigma^x, tau^x and sigma^x tau^x over a site's joint probability
# columns, sigma bit + 2 * tau bit (a set bit is x-frame eigenvalue -1)
_SIGNS = np.array([[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])


def _site_values(psi, p, name):
    """<sigma^x>, <tau^x> and <sigma^x tau^x> of each site, top site first.

    Site j is bits 2j, 2j + 1. From the top site down, the row sums of the
    probability vector's top two bits are the site's joint probabilities,
    and the column sums leave the probabilities of the bits below.
    """
    if p.model != ASHKIN_TELLER or psi.basis.frame != "x":
        raise ValueError(f"{name} expects an x-frame Ashkin-Teller state")
    if p.n_spins != psi.basis.n_spins:
        raise ValueError(f"{name}: a {psi.basis.n_spins}-spin state for a "
                         f"{p.n_spins}-spin chain")
    low = np.abs(psi.expand_full().amplitudes) ** 2
    joint = []
    for _ in range(p.m_sites):
        top = low.reshape(4, -1)
        joint.append(top.sum(axis=1))
        low = top.sum(axis=0)
    return np.array(joint) @ _SIGNS.T


def _uniform(vals, what):
    """Mean of the site values, checked to agree as translation requires."""
    if vals.max() - vals.min() > SYMMETRY_TOL:
        raise SymmetryViolationError(f"{what} spread {vals.max() - vals.min():.3e}"
                                     f" exceeds {SYMMETRY_TOL:.1e}")
    return vals.mean()


def magnetization_x(psi, p):
    """Site-averaged <sigma^x> of an x-frame Ashkin-Teller ground state,
    whose sigma and tau averages are checked to agree (exchange symmetry)."""
    vals = _site_values(psi, p, "magnetization_x")
    sigma = _uniform(vals[:, 0], "site values")
    tau = _uniform(vals[:, 1], "site values")
    if abs(sigma - tau) > SYMMETRY_TOL:
        raise SymmetryViolationError(f"sigma/tau asymmetry {abs(sigma - tau):.3e}")
    return float((sigma + tau) / 2.0)


def correlator_x(psi, p):
    """Site-averaged on-site correlator <sigma^x tau^x>."""
    vals = _site_values(psi, p, "correlator_x")
    return float(_uniform(vals[:, 2], "correlator"))


def finite_difference(values, step, order=1):
    """Derivative of samples spaced ``step`` apart: numpy's central
    differences inside and one-sided ones at the ends (order 1), or the
    three-point stencil, whose end rows repeat their neighbours (order 2)."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if not 0 < step < np.inf:  # also refuses NaN
        raise ValueError(f"step must be finite and positive, got {step!r}")
    if len(values) < 3:
        raise ValueError("need at least 3 samples")
    if order == 1:
        return np.gradient(values, step)
    return np.pad(np.diff(values, 2) / step**2, 1, mode="edge")


def locate_extremes(grid, values):
    """Interior extremes, as (grid value, "max" or "min", value), from sign
    changes of the first difference; a plateau resolves to its left end."""
    v = np.asarray(values, dtype=float)
    if len(grid) != len(v):
        raise ValueError("grid and values length mismatch")
    if len(v) < 3:
        raise ValueError("need at least 3 samples")
    found = []
    for i in range(1, len(v) - 1):
        left = v[i] - v[i - 1]
        right = v[i + 1] - v[i]
        if left > 0 and right <= 0:
            found.append((float(grid[i]), "max", float(v[i])))
        elif left < 0 and right >= 0:
            found.append((float(grid[i]), "min", float(v[i])))
    return found
