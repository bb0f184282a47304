"""Reduced density matrices, negativity, separability distance, entropy.

Row/column index convention for reduced matrices: bit ``i`` of the index
corresponds to ``sites[i]`` (first retained site is the least significant
bit). A matrix is written in the frame of the state it was traced from;
every reported quantity is invariant under that per-spin rotation.
"""

from dataclasses import dataclass

import numpy as np

from . import basis
from .basis import CapacityError

MAX_KEPT_SITES = 14
PSD_WINDOW = 1e-10
TRACE_TOL = 1e-8


class InvalidStateError(Exception):
    """A density matrix violates trace/positivity beyond roundoff."""


@dataclass(eq=False)
class DensityMatrix:
    """Hermitian unit-trace matrix over an ordered subset of sites."""

    sites: tuple
    matrix: np.ndarray


def check_sites(sites, n_spins):
    """The sites as a tuple of ints; ValueError for none, a repeated one, or
    one that is a bool, not an integer or outside [0, n_spins), and
    CapacityError for more than a reduced matrix can hold."""
    sites = tuple(sites)
    if any(isinstance(s, bool) or not isinstance(s, (int, np.integer)) for s in sites):
        raise ValueError(f"sites {sites} are not all integers")
    if not sites or len(set(sites)) < len(sites) or min(sites) < 0 or max(sites) >= n_spins:
        raise ValueError(f"invalid sites {sites} for {n_spins} spins")
    if len(sites) > MAX_KEPT_SITES:
        raise CapacityError(f"cannot keep more than {MAX_KEPT_SITES} sites densely")
    return tuple(int(s) for s in sites)


def reduce_state(psi, keep):
    """Unit-trace partial trace of |psi><psi| keeping the given sites."""
    n = psi.basis.n_spins
    keep = check_sites(keep, n)

    # the rows whose labels share the bits from ``low`` up form one slice,
    # zero-padded to 2^low amplitudes; the kept sites all lie below ``low``,
    # so each slice adds its own term to rho. Past n/2 a slice is whole high
    # parts of an SzFixed label and whole parity pairs of an XParity one
    b, k = psi.basis, len(keep)
    low = min(n, max(basis._CHUNK.bit_length() - 1, max(keep) + 1, n // 2 + 1))
    amps = psi.amplitudes
    if b.parent is not None:
        amps = amps / np.sqrt(b.sizes)
    buf = np.zeros(1 << low, amps.dtype)
    rho = np.zeros((1 << k, 1 << k), dtype=amps.dtype)
    # bit s of a label is axis low-1-s of the slice tensor; the kept axes go
    # to the front in reversed order, so keep[0] is rho's least significant bit
    axes = [low - 1 - s for s in reversed(keep)]
    written = slice(0)  # the entries the last slice wrote, zeroed before the next
    for lo, hi, bits in (b if b.parent is None else b.parent).slices(low):
        buf[written] = 0
        written = bits
        buf[bits] = amps[lo:hi] if b.parent is None else amps[b.orbit[lo:hi]]
        tens = np.moveaxis(buf.reshape((2,) * low), axes, range(k))
        mat = tens.reshape(1 << k, -1)
        rho += mat @ mat.conj().T
    return DensityMatrix(tuple(keep), rho / np.trace(rho).real)


def partial_transpose(rho, subsystem_a):
    """Transpose the indices of subsystem A; Hermitian involution."""
    a = set(subsystem_a)
    sites = rho.sites
    if not a or not a < set(sites):
        raise ValueError("subsystem_a must be a proper nonempty subset of sites")
    k = len(sites)
    # tensor axes: axis (k-1-i) is the row bit of sites[i], axis (2k-1-i) the
    # column bit (numpy reshape puts the last axis fastest)
    tens = rho.matrix.reshape((2,) * (2 * k))
    perm = list(range(2 * k))
    for i, s in enumerate(sites):
        if s in a:
            perm[k - 1 - i], perm[2 * k - 1 - i] = perm[2 * k - 1 - i], perm[k - 1 - i]
    return tens.transpose(perm).reshape(1 << k, 1 << k)


def negativity(rho, subsystem_a=None):
    """Twice the magnitude of the most negative PT eigenvalue, floored at 0."""
    return max(0.0, dsb(rho, subsystem_a))


def dsb(rho, subsystem_a=None):
    """Distance from the separability boundary: -2 min PT eigenvalue."""
    if subsystem_a is None:
        subsystem_a = (rho.sites[0],)
    return -2.0 * float(np.linalg.eigvalsh(partial_transpose(rho, subsystem_a))[0])


def von_neumann(rho):
    """Base-2 entropy of a density matrix; 0 log 0 := 0."""
    tr = float(np.real(np.trace(rho.matrix)))
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidStateError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
    w = np.linalg.eigvalsh(rho.matrix)
    if w[0] < -PSD_WINDOW:
        raise InvalidStateError(f"eigenvalue {w[0]} below the PSD roundoff window")
    w = np.clip(w, 0.0, 1.0)
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())

