"""Correctness gate. Each check returns the set of grid points it failed.

A grid point is ``(chain_spins, delta, beta)``; every row of a failed point
counts once against ``failed`` (and so ``failed_frac``).
"""

import numpy as np

from workloads import atxxz, point_key

ENERGY_TOL = 1e-9
VALUE_TOL = 1e-8
GRID_TOL = 1e-12
EIGH_MAX_DIM = 1024  # eigh at dim 4096 takes ~11 s on two Xeon vCPUs
EIGH_SAMPLE = 4


def _close(a, b):
    """Rows a and b describe the same quantity with the same value."""
    if (a[0], a[1], a[4], a[5]) != (b[0], b[1], b[4], b[5]):
        return False
    if abs(a[2] - b[2]) > GRID_TOL or abs(a[3] - b[3]) > GRID_TOL:
        return False
    tol = ENERGY_TOL if a[5] == "energy" else VALUE_TOL
    return bool(abs(a[6] - b[6]) <= tol)


def mismatched(rows, reference):
    """Points whose rows differ from the reference rows (same order)."""
    if len(rows) != len(reference):
        return {point_key(r) for r in rows}
    return {point_key(r) for r, ref in zip(rows, reference)
            if not _close(r, ref)}


def unconverged(rows):
    """Points with a row flagged unconverged or holding a non-finite value."""
    return {point_key(r) for r in rows
            if not r[7] or not np.isfinite(r[6])}


def _ground(model, m_sites, delta, beta):
    p = atxxz.ModelParams(model, m_sites, delta=delta, beta=beta)
    return atxxz.build_hamiltonian(p, atxxz.ground_sector(p))


def energy_equivalence(rows, seed):
    """E0 of the other chain at one seeded (delta, beta) equals the row's E0.

    The Ashkin-Teller chain of M sites and the staggered XXZ chain of 2M
    spins share their ground energy; this is the paper's equivalence.
    """
    energy = [r for r in rows if r[5] == "energy"]
    if not energy:
        return set(), []
    r = energy[np.random.default_rng(seed).integers(len(energy))]
    other = "xxz" if r[0] == "at" else "at"
    h = _ground(other, r[1] // 2, r[2], r[3])
    e = atxxz.ground_state(h, k=2, seed=seed).ground_energy
    ok = abs(e - r[6]) <= ENERGY_TOL
    record = {"point": list(point_key(r)), "model": r[0], "e0": r[6],
              "other": other, "other_e0": e, "ok": ok}
    return (set() if ok else {point_key(r)}), [record]


def _entropy_from_vector(basis, vec, sites):
    """Base-2 entropy of the kept sites, by numpy alone, from a sector vector."""
    n = basis.n_spins
    full = np.zeros(1 << n)
    full[basis.states] = vec
    axes = [n - 1 - s for s in sites]  # bit s is axis n-1-s of the tensor
    rest = [a for a in range(n) if a not in axes]
    mat = full.reshape((2,) * n).transpose(axes + rest).reshape(
        1 << len(sites), -1)
    w = np.linalg.eigvalsh(mat @ mat.T / (vec @ vec))
    w = w[w > 1e-300]
    return float(-(w * np.log2(w)).sum())


def dense_oracle(rows, seed):
    """Seeded sample of points with dim <= EIGH_MAX_DIM against numpy eigh.

    Each sampled point's energy and entropy rows are recomputed from the
    lowest eigenvector of ``h.matrix.toarray()``.
    """
    # every ground sector of n <= 12 spins has dim <= 1024
    keys = sorted({point_key(r) for r in rows
                   if r[5] in ("energy", "entropy") and r[1] <= 12})
    if not keys:
        return set(), []
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(keys), size=min(EIGH_SAMPLE, len(keys)),
                       replace=False)
    failed, records = set(), []
    for i in sorted(picks):
        key = keys[i]
        sample = [r for r in rows if point_key(r) == key
                  and r[5] in ("energy", "entropy")]
        h = _ground(sample[0][0], key[0] // 2, key[1], key[2])
        if h.dim > EIGH_MAX_DIM:
            raise ValueError(f"dense oracle sample at dim {h.dim}")
        w, v = np.linalg.eigh(h.matrix.toarray())
        ok = w[1] - w[0] > 1e-8  # a degenerate ground state has no one entropy
        for r in sample:
            if r[5] == "energy":
                want = float(w[0])
                ok = ok and abs(r[6] - want) <= ENERGY_TOL
            else:
                _, sites = atxxz.sweeps.resolve_block(r[4], r[0], key[0])
                want = _entropy_from_vector(h.basis, v[:, 0], sites)
                ok = ok and abs(r[6] - want) <= VALUE_TOL
            records.append({"point": list(key), "quantity": r[5],
                            "value": r[6], "oracle": want, "ok": bool(ok)})
        if not ok:
            failed.add(key)
    return failed, records
