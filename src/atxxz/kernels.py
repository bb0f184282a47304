"""Hot kernel: COO entries of a sum of Pauli strings on basis labels.

Only a pencil's coefficients (``models.hamiltonian_terms``) are complex;
the elements are linear in them, so a + 1j b gives A + 1j B.
"""

import numpy as np

# the numpy kernel is the only path; perfbench/run.py reads this on every run
NUMBA_ENABLED = False


def pauli_entries(states, terms):
    """(targets, cols, vals) of sum c X^x Z^z over the (x, z, c) ``terms``
    (``basis.compose``) on the labels ``states``: the label each entry maps
    to, the column of its source label and the element. The basis turns
    targets into rows, and the CSR conversion sums duplicate entries.

    Terms with equal (x, z) are merged first, so that exact cancellations
    stay exact. Each x mask is one flip s -> s ^ x, whose element sums
    c (-1)^|s & z| over the mask's terms; it is dropped on the labels where
    that sum is zero, as XX + YY is where the two bits agree. The diagonal
    (x = 0) is always emitted.
    """
    merged = {}
    for x, z, c in terms:
        merged[x, z] = merged.get((x, z), 0) + c
    groups = {0: []}
    for (x, z), c in merged.items():
        groups.setdefault(x, []).append((z, c))
    dim = len(states)
    idx = np.arange(dim, dtype=np.int64)
    targets, cols, vals = [], [], []
    for x, group in groups.items():
        dtype = np.result_type(0.0, *(c for _, c in group))
        val = np.full(dim, sum(c for z, c in group if not z), dtype=dtype)
        for z, c in group:
            if z:
                val += np.where(np.bitwise_count(states & z) & 1, -c, c)
        keep = slice(None) if x == 0 or val.all() else np.flatnonzero(val)
        targets.append(states[keep] ^ x)
        cols.append(idx[keep])
        vals.append(val[keep])
    return np.concatenate(targets), np.concatenate(cols), np.concatenate(vals)


# the names perfbench/tracing.py patches; build_hamiltonian looks them up by
# model at call time
at_entries = xxz_entries = pauli_entries
