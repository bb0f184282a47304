"""Ashkin-Teller and staggered XXZ chain Hamiltonians with PBC.

The XXZ chain is assembled in the z frame (magnetization diagonal), the
Ashkin-Teller chain in the x frame (species parities diagonal), so each
model's ground-state sector is a plain index filter on basis labels.

Site conventions (n = 2M spins in both models):
  Ashkin-Teller: sigma_j -> bit 2(j-1), tau_j -> bit 2(j-1)+1, j = 1..M.
  XXZ:           spin i  -> bit i-1, i = 1..2M.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import Full, SzFixed, XParity, SpinBasis, PauliString, build_basis, popcount
from . import kernels

ASHKIN_TELLER = "at"
STAGGERED_XXZ = "xxz"


@dataclass(frozen=True)
class ModelParams:
    """Couplings and geometry of one chain."""

    model: str  # "at" or "xxz"
    m_sites: int  # M; both chains carry 2M spins
    j_coupling: float = 1.0
    delta: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        if self.model not in (ASHKIN_TELLER, STAGGERED_XXZ):
            raise ValueError(f"unknown model {self.model!r}")
        if self.m_sites < 1:
            raise ValueError("need at least one Ashkin-Teller site (two spins)")
        if self.j_coupling <= 0:
            raise ValueError("j_coupling must be positive")

    @property
    def n_spins(self):
        return 2 * self.m_sites


@dataclass(eq=False)
class SparseHamiltonian:
    """Real symmetric Hamiltonian in CSR layout over a (sector) basis."""

    basis: SpinBasis
    matrix: sp.csr_matrix
    params: ModelParams

    @property
    def dim(self):
        return self.basis.dim

    def dense(self):
        return self.matrix.toarray()

    def matvec(self, v):
        return self.matrix @ v


def ground_sector(p):
    """Symmetry sector containing the ground state; refused for delta < -1.

    Below -1 the ground state leaves it (against the full spectrum: XXZ
    from delta = -1.05, Ashkin-Teller from -1.1).
    """
    if p.delta < -1:
        raise ValueError(f"delta = {p.delta:g} < -1 leaves the ground sector; "
                         "use `atxxz spectrum --sector full`")
    if p.model == ASHKIN_TELLER:
        return XParity(1, 1)
    return SzFixed(p.m_sites)


def build_hamiltonian(p, sector=Full()):
    """Assemble the model Hamiltonian restricted to ``sector``."""
    if isinstance(sector, SzFixed) and p.model != STAGGERED_XXZ:
        raise ValueError("SzFixed sectors apply to the XXZ chain only")
    if isinstance(sector, XParity) and p.model != ASHKIN_TELLER:
        raise ValueError("XParity sectors apply to the Ashkin-Teller chain only")

    n = p.n_spins
    if p.model == STAGGERED_XXZ:
        basis = build_basis(n, sector, frame="z")
        bond_a = []
        bond_b = []
        coupling = []
        for j in range(p.m_sites):
            bond_a.append(2 * j)
            bond_b.append(2 * j + 1)
            coupling.append(p.j_coupling)
            bond_a.append(2 * j + 1)
            bond_b.append((2 * j + 2) % n)
            coupling.append(p.j_coupling * p.beta)
        rows, cols, vals = kernels.xxz_entries(
            basis.states, np.asarray(bond_a, dtype=np.int64),
            np.asarray(bond_b, dtype=np.int64), np.asarray(coupling),
            float(p.delta))
    else:
        basis = build_basis(n, sector, frame="x")
        rows, cols, vals = kernels.at_entries(
            basis.states, p.m_sites, float(p.j_coupling), float(p.beta),
            float(p.delta))

    mat = sp.csr_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim))
    mat.sum_duplicates()
    mat.sort_indices()
    return SparseHamiltonian(basis, mat, p)


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


@dataclass(frozen=True)
class LinkVariable:
    """One of the bond/site operators through which both chains coincide."""

    kind: str  # "eta" or "gamma"
    index: int  # 1..2M
    realization: PauliString


def link_variable(kind, index, p):
    """Physical-frame Pauli realization of eta_index or gamma_index."""
    if kind not in ("eta", "gamma"):
        raise ValueError(f"unknown link-variable kind {kind!r}")
    if not 1 <= index <= 2 * p.m_sites:
        raise ValueError(f"link index {index} outside [1, {2 * p.m_sites}]")
    M = p.m_sites
    if p.model == ASHKIN_TELLER:
        if index % 2 == 1:  # eta_{2j-1} = sigma_j^x, gamma_{2j-1} = tau_j^x
            j = (index + 1) // 2
            bit = 2 * (j - 1) + (0 if kind == "eta" else 1)
            terms = ((bit, "x"),)
        else:  # eta_{2j} = sigma_j^z sigma_{j+1}^z, gamma_{2j} likewise on tau
            j = index // 2
            off = 0 if kind == "eta" else 1
            a, b = 2 * (j - 1) + off, 2 * (j % M) + off
            # M = 1 wraps a bond onto itself; the square is the identity
            terms = () if a == b else ((a, "z"), (b, "z"))
    else:
        n = 2 * M
        if index % 2 == 1:  # eta: XX on the intra-dimer bond, gamma: YY
            j = (index + 1) // 2
            a, b = 2 * j - 2, 2 * j - 1
            ax = "x" if kind == "eta" else "y"
        else:  # eta: YY on the staggered bond, gamma: XX
            j = index // 2
            a, b = 2 * j - 1, (2 * j) % n
            ax = "y" if kind == "eta" else "x"
        terms = ((a, ax), (b, ax))
    return LinkVariable(kind, index, PauliString(terms))
