"""Scalar observables of chain ground states and swept-column utilities."""

import numpy as np

from .basis import popcount
from .models import ASHKIN_TELLER


def _label_weights(psi, p, name):
    """Labels of an x-frame Ashkin-Teller state and their weights |c|^2.

    m and g read a label only through popcounts that translation,
    reflection and exchange keep, so a K0 representative stands for its
    whole orbit, whose weight is |c_r|^2.
    """
    b = psi.basis
    if p.model != ASHKIN_TELLER or b.frame != "x":
        raise ValueError(f"{name} expects an x-frame Ashkin-Teller state")
    if p.n_spins != b.n_spins:
        raise ValueError(f"{name}: a {b.n_spins}-spin state for a "
                         f"{p.n_spins}-spin chain")
    return b.states, np.abs(psi.amplitudes) ** 2


def magnetization_x(psi, p):
    """Site average of <sigma^x> and <tau^x>: a set bit is eigenvalue -1."""
    s, w = _label_weights(psi, p, "magnetization_x")
    return float(w @ (1 - 2 * popcount(s) / p.n_spins))


def correlator_x(psi, p):
    """Site-averaged on-site correlator <sigma^x tau^x>, which is -1 where
    the sigma bit 2j and the tau bit 2j + 1 differ."""
    s, w = _label_weights(psi, p, "correlator_x")
    even = sum(1 << i for i in range(0, p.n_spins, 2))
    return float(w @ (1 - 2 * popcount((s ^ s >> 1) & even) / p.m_sites))


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
