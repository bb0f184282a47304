"""Hot kernels: COO entry generation for the sparse Hamiltonians.

Both kernels take (states, m_sites, beta, delta), apply H to every basis
label and emit (targets, cols, vals): the label each term maps to, the
column of the source label and the matrix element, vectorized with one
numpy pass per term. The basis turns target labels into rows; duplicate
(row, col) pairs are summed by the CSR conversion.
"""

import numpy as np

# the numpy kernels are the only path; perfbench/run.py reads this on every run
NUMBA_ENABLED = False


def xxz_entries(states, m_sites, beta, delta):
    """Staggered XXZ in the z frame: -c(XX+YY) + c*delta*ZZ on each ring bond
    (i, i+1), with c = 1 for even i and c = beta for odd i."""
    n = 2 * m_sites
    dim = len(states)
    idx = np.arange(dim, dtype=np.int64)
    diag = np.zeros(dim)
    targets, cols, vals = [states], [idx], [diag]
    for a in range(n):
        b = (a + 1) % n
        c = 1.0 if a % 2 == 0 else beta
        za = 1 - 2 * ((states >> np.int64(a)) & 1)
        zb = 1 - 2 * ((states >> np.int64(b)) & 1)
        diag += c * delta * za * zb
        mask = za != zb
        targets.append(states[mask] ^ np.int64((1 << a) | (1 << b)))
        cols.append(idx[mask])
        vals.append(np.full(mask.sum(), -2.0 * c))
    return np.concatenate(targets), np.concatenate(cols), np.concatenate(vals)


def at_entries(states, m_sites, beta, delta):
    """Ashkin-Teller in the x frame: diagonal site terms plus bond flips.

    Sigma spin j sits on bit 2j, tau spin j on bit 2j+1 (j = 0..M-1).
    """
    dim = len(states)
    idx = np.arange(dim, dtype=np.int64)
    diag = np.zeros(dim)
    targets, cols, vals = [states], [idx], [diag]
    for j in range(m_sites):
        zs = 1 - 2 * ((states >> np.int64(2 * j)) & 1)
        zt = 1 - 2 * ((states >> np.int64(2 * j + 1)) & 1)
        diag += -(zs + zt + delta * zs * zt)
    if m_sites == 1:
        # the single periodic bond wraps onto itself; every bond operator
        # squares to the identity and only shifts the diagonal
        diag += -beta * (2.0 + delta)
        return np.concatenate(targets), np.concatenate(cols), np.concatenate(vals)
    for j in range(m_sites):
        jp = (j + 1) % m_sites
        m_sig = (1 << (2 * j)) | (1 << (2 * jp))
        m_tau = (1 << (2 * j + 1)) | (1 << (2 * jp + 1))
        for mask, val in ((m_sig, -beta), (m_tau, -beta),
                          (m_sig | m_tau, -beta * delta)):
            targets.append(states ^ np.int64(mask))
            cols.append(idx)
            vals.append(np.full(dim, val))
    return np.concatenate(targets), np.concatenate(cols), np.concatenate(vals)
