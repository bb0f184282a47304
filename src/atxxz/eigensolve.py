"""Dense and ARPACK eigensolvers for the sparse chain Hamiltonians."""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .basis import CapacityError, QuantumState

DENSE_LIMIT = 4096
# ground_state solves densely up to this dimension, above it with ARPACK.
# A cold single solve is faster dense at dim 155, but inside a warm-started
# K0 sweep ARPACK already wins at dim 181 (fig6's M = 7 sweep, 41 points:
# median 89 ms at this cutoff against 104 ms dense, 2 vCPUs)
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
    gap: Optional[float] = None
    degenerate: bool = False
    # |<psi0|T|psi0>| for T the translation by one site
    overlap: float = 1.0

    @property
    def ground_energy(self):
        return float(self.energies[0])

    @property
    def ground_state(self):
        return self.states[0]


def _result(h, w, v, k, residuals):
    """EigenResult of the lowest ``k`` of the ascending pairs ``w``, ``v``.

    The level is degenerate when the gap ``w[1] - w[0]`` is below
    GAP_TOL_REL, or when ``psi0`` is no eigenvector of translation: ARPACK
    may report a degenerate level once, with the next level's gap, and its
    vector then mixes momenta, while a unique level's vector does not.
    """
    states = [QuantumState(v[:, i].copy(), h.basis) for i in range(k)]
    gap = float(w[1] - w[0]) if len(w) > 1 else None
    overlap = _translation_overlap(states[0])
    degenerate = (gap is not None and gap < GAP_TOL_REL * max(abs(w[0]), 1.0)
                  or overlap < 1 - 1e-9)
    return EigenResult(w[:k], states, residuals, gap, degenerate, overlap)


def _translation_overlap(psi):
    """|<psi|T|psi>| for T the translation by one site (two bits): 1 for an
    eigenvector of T, such as a unique level's state, and for a K0 state.
    T keeps a parent sector, so a moved label's row is its ``rank``."""
    b, s = psi.basis, psi.basis.states
    if b.parent is not None:
        return 1.0
    moved = ((s << 2) | (s >> (b.n_spins - 2))) & ((1 << b.n_spins) - 1)
    return float(abs(np.vdot(psi.amplitudes, psi.amplitudes[b.rank(moved)])))


def _check_dense(dim):
    if dim > DENSE_LIMIT:
        raise CapacityError(f"dense solve refused at dimension {dim} > "
                            f"{DENSE_LIMIT}; ARPACK solves at most 2 levels")


def dense_spectrum(h, k=None):
    """Symmetric eigendecomposition; oracle for small dimensions.

    Returns every level by default (``numpy.linalg.eigh``). With ``k``,
    LAPACK's subset routine solves only levels ``0..k`` and returns the
    lowest ``k``; level ``k`` is solved so that ``k = 1`` still has its gap
    and degeneracy flag, which read the two lowest levels.
    """
    _check_dense(h.dim)
    if k is None:
        w, v = np.linalg.eigh(h.dense())
        k = len(w)
    else:
        w, v = scipy.linalg.eigh(h.dense(), subset_by_index=[0, min(k, h.dim - 1)])
        k = min(k, len(w))
    return _result(h, w, v, k, np.zeros(k))


def check_solver_args(tol, seed):
    """Refuse a ``tol`` or ``seed`` that no solve can use; callers that build
    a Hamiltonian first call this before they build it."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _check_inputs(dim, tol, seed, v0):
    check_solver_args(tol, seed)
    if v0 is not None:
        v0 = np.asarray(v0)
        if v0.shape != (dim,) or not np.all(np.isfinite(v0)) or not np.any(v0):
            raise ValueError(f"start vector must be a finite, nonzero vector "
                             f"of length {dim}")


def lanczos_ground(h, k=1, tol=DEFAULT_TOL, seed=0, v0=None):
    """Lowest-k eigenpairs by implicitly restarted Lanczos (ARPACK ``eigsh``).

    The matrix is reached only through ``h.matvec``. The first attempt
    starts from ``v0`` if given, else from a vector drawn from ``seed``, so
    a run is deterministic; DEFAULT_MAX_ITER caps ARPACK's restarts. Every
    returned pair must satisfy ``|Hv - theta v| <= tol`` (ARPACK's own
    tolerance is relative to |theta|). Failing that, or on an ARPACK error,
    the solve is retried once from a vector drawn from ``seed + 1`` before
    ConvergenceError is raised. Exactly degenerate levels may be reported
    once (a single Krylov start vector cannot split them); use the dense
    path when the multiplicity itself matters.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    _check_inputs(h.dim, tol, seed, v0)
    if h.dim < k:
        raise ValueError(f"dimension {h.dim} smaller than requested k={k}")
    if h.dim == k:  # ARPACK needs k < dim
        return dense_spectrum(h, k)

    op = LinearOperator((h.dim, h.dim), matvec=h.matvec, dtype=float)
    best = np.inf
    # ARPACK stops at residual <= rel_tol * |theta|: 0.01 * tol meets the
    # absolute tol up to |theta| = 100 (E0 is about -50 at 28 spins), and
    # the retry runs to machine precision
    for s, rel_tol, start in ((seed, 0.01 * tol, v0), (seed + 1, 0.0, None)):
        rng = np.random.default_rng(s)
        if start is None:
            start = rng.uniform(-1.0, 1.0, h.dim)
        try:
            theta, vectors = eigsh(op, k=k, which="SA", v0=start, tol=rel_tol,
                                   maxiter=DEFAULT_MAX_ITER, rng=rng)
        except ArpackError:  # includes ArpackNoConvergence
            # no k pairs to check: report the start vector's Rayleigh residual
            v = start / np.linalg.norm(start)
            hv = h.matvec(v)
            best = min(best, float(np.linalg.norm(hv - (v @ hv) * v)))
            continue
        residuals = np.array([np.linalg.norm(h.matvec(v) - t * v)
                              for t, v in zip(theta, vectors.T)])
        if residuals.max() <= tol:
            return _result(h, theta, vectors, k, residuals)
        best = min(best, float(residuals.max()))
    raise ConvergenceError(
        f"eigsh residual {best:.3e} above tol {tol:.1e} after restart",
        best_residual=best)


def solver_path(dim, k):
    """"dense" or "arpack": how ``ground_state`` solves ``k`` levels at ``dim``.

    Dense when ``dim <= DENSE_CUTOFF`` or ``k > 2``, with CapacityError above
    DENSE_LIMIT, so a caller can refuse before it builds the Hamiltonian.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if dim > DENSE_CUTOFF and k <= 2:
        return "arpack"
    _check_dense(dim)
    return "dense"


def ground_state(h, k=2, tol=DEFAULT_TOL, seed=0, v0=None):
    """The lowest ``k`` levels of ``h``; the one solver entry.

    The path is ``solver_path(h.dim, k)``; only the ARPACK path reads
    ``seed`` and the start vector ``v0`` (see ``lanczos_ground``). ``k < 1``,
    a ``tol`` that is not positive, a negative ``seed`` and a malformed
    ``v0`` are refused on both paths.
    """
    _check_inputs(h.dim, tol, seed, v0)
    if solver_path(h.dim, k) == "dense":
        return dense_spectrum(h, k=k)
    return lanczos_ground(h, k=k, tol=tol, seed=seed, v0=v0)
