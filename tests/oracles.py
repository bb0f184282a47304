"""Analytic and label oracles, and checks, that only the tests use."""

from collections import defaultdict

import numpy as np

from atxxz.basis import XParity, popcount
from atxxz.entanglement import (PSD_WINDOW, TRACE_TOL, DensityMatrix,
                                InvalidStateError)
from atxxz.models import ASHKIN_TELLER

PAULI_2x2 = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
             "y": np.array([[0, -1j], [1j, 0]]),
             "z": np.array([[1, 0], [0, -1]], dtype=complex)}


def dense_op(string, n):
    """Dense matrix of a Pauli string by an np.kron chain (site 0 = LSB)."""
    out = np.array([[1.0 + 0j]])
    ops = {s: PAULI_2x2[ax] for s, ax in string.terms}
    for s in range(n - 1, -1, -1):
        out = np.kron(out, ops.get(s, np.eye(2)))
    return string.coefficient * out


def expand_full(psi):
    """The state's 2^n amplitudes, zero outside its sector, by one gather
    and one scatter. A K0 state gives each parent label the amplitude
    c_r / sqrt(N_r) of its orbit r, with N_r the orbit size."""
    b = psi.basis
    amps, labels = psi.amplitudes, b.states
    if b.parent is not None:
        amps, labels = (amps / np.sqrt(b.sizes))[b.orbit], b.parent.labels()
    out = np.zeros(1 << b.n_spins, dtype=amps.dtype)
    out[labels] = amps
    return out


def dense_in_frame(string, n, frame):
    """dense_op of a physical-frame string, written in the labels of a basis
    of the given frame: conjugated by a Hadamard on every spin in "x"."""
    op = dense_op(string, n)
    if frame == "z":
        return op
    had = np.array([[1.0]])
    for _ in range(n):
        had = np.kron(had, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2))
    return had @ op @ had


def validate_density_matrix(rho):
    """Raise InvalidStateError unless rho is unit-trace, Hermitian and PSD."""
    tr = np.trace(rho.matrix)
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidStateError(f"trace {tr} deviates from 1")
    if np.max(np.abs(rho.matrix - rho.matrix.conj().T)) > 1e-12:
        raise InvalidStateError("matrix is not Hermitian")
    w = np.linalg.eigvalsh(rho.matrix)
    if w[0] < -PSD_WINDOW:
        raise InvalidStateError(f"negative eigenvalue {w[0]} beyond roundoff")


def series(result, quantity):
    """One quantity of a SweepResult as (grid, values) arrays."""
    rows = [r for r in result.rows if r.quantity == quantity]
    return (np.array([getattr(r, result.spec.sweep) for r in rows]),
            np.array([r.value for r in rows]))


def at_free_fermion(m_sites, beta):
    """(E0, m, g) of the Ashkin-Teller chain at delta = 0: two decoupled
    periodic transverse-field Ising chains, each in its even sector, where
    the Jordan-Wigner fermions take k = (2j + 1) pi / M (Pfeuty, Ann. Phys.
    57, 79 (1970)). m = <sigma^x>, and g = <sigma^x tau^x> = m^2."""
    k = (2 * np.arange(m_sites) + 1) * np.pi / m_sites
    r = np.sqrt(1 + beta**2 - 2 * beta * np.cos(k))
    m = np.mean((1 - beta * np.cos(k)) / r)
    return -2 * r.sum(), m, m**2


def binary_entropy(p):
    """H2(p) = -p log2 p - (1 - p) log2(1 - p), elementwise; 0 log 0 := 0."""
    q = np.clip(np.stack([p, 1 - np.asarray(p)]), 0.0, 1.0)
    return -np.sum(q * np.log2(np.where(q > 0, q, 1.0)), axis=0)


def xx_ring(m_sites, beta):
    """(E0, quartet entropy) of the staggered XXZ chain at delta = 0: free
    fermions on a ring of 2M sites with hoppings -2 and -2 beta, M of them
    in SzFixed(M), where the wrap bond carries the extra sign (-1)^(M - 1).
    E0 sums the M lowest levels; the entropy of sites 0..3 is the sum of
    H2 over the eigenvalues of the correlation matrix restricted to them
    (Peschel, J. Phys. A 36, L205 (2003))."""
    n = 2 * m_sites
    t = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        hop = -2.0 if i % 2 == 0 else -2.0 * beta
        if j == 0:
            hop *= (-1) ** (m_sites - 1)
        t[i, j] += hop
        t[j, i] += hop
    w, v = np.linalg.eigh(t)
    occ = v[:4, :m_sites]
    return w[:m_sites].sum(), binary_entropy(np.linalg.eigvalsh(occ @ occ.T)).sum()


def reduce_dense(psi, keep):
    """Unit-trace partial trace through the dense 2^n amplitude vector.

    Bit s of a label is axis n-1-s of the 2^n tensor; the kept axes go to
    the front in reversed order, so keep[0] is rho's least significant bit.
    """
    n = psi.basis.n_spins
    tens = expand_full(psi).reshape((2,) * n)
    tens = np.moveaxis(tens, [n - 1 - s for s in reversed(keep)], range(len(keep)))
    mat = tens.reshape(1 << len(keep), -1)
    rho = mat @ mat.conj().T
    return rho / np.trace(rho).real


def reduce_by_labels(psi, keep):
    """Partial trace of |psi><psi| by a loop over the sector's labels.

    Each label splits into a kept part (bit i from site keep[i]) and a
    traced part; amplitudes that share the traced part add up in rho. A K0
    state's amplitude c_r is spread as c_r / sqrt(N_r) over the N_r labels
    of orbit r.
    """
    b = psi.basis
    amps, labels = psi.amplitudes / psi.norm, b.states
    if b.parent is not None:
        amps = amps[b.orbit] / np.sqrt(b.sizes[b.orbit])
        labels = b.parent.labels()
    rest = [s for s in range(b.n_spins) if s not in keep]
    pack = lambda label, sites: sum(((int(label) >> s) & 1) << i
                                    for i, s in enumerate(sites))
    by_rest = defaultdict(list)
    for label, a in zip(labels, amps):
        by_rest[pack(label, rest)].append((pack(label, keep), a))
    rho = np.zeros((1 << len(keep),) * 2, dtype=complex)
    for entries in by_rest.values():
        for r1, a1 in entries:
            for r2, a2 in entries:
                rho[r1, r2] += a1 * np.conj(a2)
    return rho


def classify_sector(label, p):
    """Symmetry quantum number of a basis label.

    Ashkin-Teller (x-frame label): Q in {0,1,2,3} from the sigma/tau
    popcount parities. XXZ (z-frame label): magnetization n = M - r with
    r the number of set bits (reversed spins).
    """
    if label < 0 or label >= (1 << p.n_spins):
        raise ValueError("label out of range")
    if p.model == ASHKIN_TELLER:
        sigma_mask = sum(1 << i for i in range(0, p.n_spins, 2))
        tau_mask = sum(1 << i for i in range(1, p.n_spins, 2))
        p1 = 1 if int(popcount(label & sigma_mask)) % 2 == 0 else -1
        p2 = 1 if int(popcount(label & tau_mask)) % 2 == 0 else -1
        return {(1, 1): 0, (1, -1): 1, (-1, -1): 2, (-1, 1): 3}[(p1, p2)]
    r = int(popcount(label))
    return p.m_sites - r


def frontal_pair_analytic(m, g):
    """Diagonal x-frame density matrix of a same-site sigma-tau pair.

    Entries are u = 1/4 + m/2 + g/4, v = 1/4 - g/4 (twice), and
    w = 1/4 - m/2 + g/4, with m the x magnetization and g the on-site
    sigma-tau x correlator.
    """
    if not -1.0 <= m <= 1.0 or not -1.0 <= g <= 1.0:
        raise ValueError("m and g must lie in [-1, 1]")
    u = 0.25 + 0.5 * m + 0.25 * g
    v = 0.25 - 0.25 * g
    w = 0.25 - 0.5 * m + 0.25 * g
    for entry in (u, v, w):
        if entry < -PSD_WINDOW or entry > 1.0 + PSD_WINDOW:
            raise ValueError(f"inconsistent inputs: diagonal entry {entry}")
    return DensityMatrix((0, 1), np.diag([u, v, v, w]).astype(float))


def lambda_analytic(m, g, delta):
    """Piecewise separability distance of the frontal pair.

    The minimizing PT eigenvalue switches branch exactly at delta = 1.
    """
    if delta <= 1.0:
        return -0.5 + m - 0.5 * g
    return -0.5 + 0.5 * g


def dimer_quartet_analytic():
    """Four-site density matrix of the strong-staggering limit.

    Two maximally mixed edge qubits around a pure triplet-0 inner pair;
    ordering matches reduce_state with keep = (s, s+1, s+2, s+3).
    """
    t0 = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    inner = np.outer(t0, t0)
    half = np.eye(2) / 2.0
    return np.kron(half, np.kron(inner, half))


_REVERSED_BYTE = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)],
                          dtype=np.int64)


def k0_by_search(parent):
    """(states, orbit, sizes) of K0(parent.sector) by the int64 image loop and
    a binary search of each label's smallest image among the parent labels;
    orbit is int32, as the basis holds it.

    ``parent`` is an XParity(p, p) or SzFixed(n/2) basis, or a K0 basis's
    parent, which computes its labels.
    """
    n = parent.n_spins
    ones = np.int64((1 << n) - 1)
    if isinstance(parent.sector, XParity):
        even = np.int64(sum(1 << i for i in range(0, n, 2)))
        exchange = lambda s: ((s & even) << 1) | ((s >> 1) & even)
    else:
        exchange = lambda s: s ^ ones
    s = parent.labels()
    n_bytes = -(-n // 8)
    mirror = np.zeros_like(s)
    for j in range(n_bytes):
        mirror |= _REVERSED_BYTE[(s >> (8 * j)) & 255] << (8 * (n_bytes - 1 - j))
    mirror >>= 8 * n_bytes - n
    rep = s.copy()
    for image in (s, exchange(s), mirror, exchange(mirror)):
        for t in range(0, n, 2):
            rep = np.minimum(rep, ((image << t) & ones) | (image >> (n - t)))
    states = s[rep == s]
    orbit = np.searchsorted(states, rep)
    return states, orbit.astype(np.int32), np.bincount(orbit, minlength=len(states))
