"""Dense and ARPACK eigensolvers for the sparse chain Hamiltonians."""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .basis import CapacityError, QuantumState

DENSE_LIMIT = 4096
# ground_state solves densely up to this dimension, above it with ARPACK;
# measured crossover: dense eigh wins at dim 64, eigsh at dim 256
DENSE_CUTOFF = 128
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1000
GAP_TOL_REL = 1e-8


class ConvergenceError(Exception):
    """The iterative solver failed to reach the residual tolerance."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(eq=False)
class EigenResult:
    """Ascending eigenvalues with matching states and residual info."""

    energies: np.ndarray
    states: List[QuantumState]
    residuals: np.ndarray
    converged: List[bool]
    gap: Optional[float] = None
    degenerate: bool = False

    @property
    def ground_energy(self):
        return float(self.energies[0])

    @property
    def ground_state(self):
        return self.states[0]


def dense_spectrum(h, k=None):
    """Full symmetric eigendecomposition; oracle for small dimensions.

    Returns the lowest ``k`` levels (all by default); the gap and the
    degeneracy flag come from the whole spectrum.
    """
    if h.dim > DENSE_LIMIT:
        raise CapacityError(f"dense solve refused at dimension {h.dim} > {DENSE_LIMIT}")
    w, v = np.linalg.eigh(h.dense())
    k = len(w) if k is None else min(k, len(w))
    states = [QuantumState(v[:, i].copy(), h.basis, float(w[i]))
              for i in range(k)]
    gap = float(w[1] - w[0]) if len(w) > 1 else None
    degenerate = gap is not None and gap < GAP_TOL_REL * max(abs(w[0]), 1.0)
    return EigenResult(w[:k], states, np.zeros(k), [True] * k, gap, degenerate)


def lanczos_ground(h, k=1, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, seed=0):
    """Lowest-k eigenpairs by implicitly restarted Lanczos (ARPACK ``eigsh``).

    The matrix is reached only through ``h.matvec``. The start vector comes
    from ``seed``, so a run is deterministic; ``max_iter`` caps ARPACK's
    restarts. Every returned pair must satisfy ``|Hv - theta v| <= tol``
    (ARPACK's own tolerance is relative to |theta|). Failing that, or on an
    ARPACK error, the solve is retried once from a reseeded vector before
    ConvergenceError is raised. Exactly degenerate levels may be reported
    once (a single Krylov start vector cannot split them); use the dense
    path when the multiplicity itself matters.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if h.dim < k:
        raise ValueError(f"dimension {h.dim} smaller than requested k={k}")

    op = LinearOperator((h.dim, h.dim), matvec=h.matvec, dtype=float)
    best = np.inf
    # ARPACK stops at residual <= rel_tol * |theta|: 0.01 * tol meets the
    # absolute tol up to |theta| = 100 (E0 is about -50 at 28 spins), and
    # the retry runs to machine precision
    for s, rel_tol in ((seed, 0.01 * tol), (seed + 1, 0.0)):
        rng = np.random.default_rng(s)
        v0 = rng.uniform(-1.0, 1.0, h.dim)
        try:
            if h.dim == k:  # ARPACK needs k < dim
                theta, vectors = np.linalg.eigh(h.dense())
            else:
                theta, vectors = eigsh(op, k=k, which="SA", v0=v0, tol=rel_tol,
                                       maxiter=max_iter, rng=rng)
        except ArpackError:  # includes ArpackNoConvergence
            # no k pairs to check: report the start vector's Rayleigh residual
            v = v0 / np.linalg.norm(v0)
            hv = h.matvec(v)
            best = min(best, float(np.linalg.norm(hv - (v @ hv) * v)))
            continue
        residuals = np.array([np.linalg.norm(h.matvec(v) - t * v)
                              for t, v in zip(theta, vectors.T)])
        if residuals.max() <= tol:
            states = [QuantumState(vectors[:, i].copy(), h.basis, float(theta[i]))
                      for i in range(k)]
            gap = float(theta[1] - theta[0]) if k == 2 else None
            degenerate = gap is not None and gap < GAP_TOL_REL * max(abs(theta[0]), 1.0)
            return EigenResult(theta, states, residuals, [True] * k, gap, degenerate)
        best = min(best, float(residuals.max()))
    raise ConvergenceError(
        f"eigsh residual {best:.3e} above tol {tol:.1e} after restart",
        best_residual=best)


def ground_state(h, k=2, tol=DEFAULT_TOL, seed=0):
    """Convenience ground-state solve: dense up to DENSE_CUTOFF, else ARPACK."""
    if h.dim <= DENSE_CUTOFF:
        return dense_spectrum(h, k=k)
    return lanczos_ground(h, k=k, tol=tol, seed=seed)
