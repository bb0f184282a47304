"""Ashkin-Teller and staggered XXZ chain Hamiltonians with PBC.

The XXZ chain is assembled in the z frame (magnetization diagonal), the
Ashkin-Teller chain in the x frame (species parities diagonal), so each
model's ground-state sector is a plain index filter on basis labels.

Site conventions (n = 2M spins in both models):
  Ashkin-Teller: sigma_j -> bit 2(j-1), tau_j -> bit 2(j-1)+1, j = 1..M.
  XXZ:           spin i  -> bit i-1, i = 1..2M.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .basis import Full, K0, SzFixed, XParity, SpinBasis, PauliString, build_basis
from . import kernels

ASHKIN_TELLER = "at"
STAGGERED_XXZ = "xxz"
# basis frame of each model's Hamiltonian and ground sector
FRAMES = {ASHKIN_TELLER: "x", STAGGERED_XXZ: "z"}


@dataclass(frozen=True)
class ModelParams:
    """Couplings and geometry of one chain. A complex coupling is for
    assembly only; ``ground_sector`` and ``k0_domain`` take real ones."""

    model: str  # "at" or "xxz"
    m_sites: int  # M; both chains carry 2M spins
    delta: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        if self.model not in FRAMES:
            raise ValueError(f"unknown model {self.model!r}")
        if self.m_sites < 1:
            raise ValueError("need at least one Ashkin-Teller site (two spins)")
        if not np.all(np.isfinite([self.delta, self.beta])):
            raise ValueError("delta and beta must be finite")

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


def k0_domain(p):
    """Whether the ground state provably lies in K0(ground_sector(p)).

    For beta > 0, and delta >= 0 on the Ashkin-Teller chain, every
    off-diagonal element of H in the ground sector is <= 0 and connects the
    sector, so by Perron-Frobenius its ground state is unique and nodeless;
    every symmetry, a label permutation, then maps it onto itself.
    """
    return p.beta > 0 and (p.model == STAGGERED_XXZ or p.delta >= 0)


def build_hamiltonian(p, sector=Full(), pencil=None):
    """Assemble the model Hamiltonian restricted to ``sector``, which may be
    the SpinBasis of an earlier build (``h.basis``), not enumerated again.
    With ``pencil`` ("delta" or "beta") that coupling is raised by 1j; H is
    affine in it, so the matrix is H(p) + 1j dH/d(pencil) on one pattern.

    In a K0 sector the element between orbit states r' and r is
    sqrt(N_r / N_r') times the sum of <s'|H|r> over s' in the orbit of r'.
    """
    basis = sector if isinstance(sector, SpinBasis) else None
    if basis is not None:
        if (basis.n_spins, basis.frame) != (p.n_spins, FRAMES[p.model]):
            raise ValueError(f"a {basis.n_spins}-spin {basis.frame}-frame basis "
                             f"does not fit the {p.n_spins}-spin {p.model} chain")
        sector = basis.sector
    parent = sector.parent if isinstance(sector, K0) else sector
    if isinstance(parent, SzFixed) and p.model != STAGGERED_XXZ:
        raise ValueError("SzFixed sectors apply to the XXZ chain only")
    if isinstance(parent, XParity) and p.model != ASHKIN_TELLER:
        raise ValueError("XParity sectors apply to the Ashkin-Teller chain only")

    if basis is None:
        basis = build_basis(p.n_spins, sector, frame=FRAMES[p.model])
    entries = kernels.at_entries if p.model == ASHKIN_TELLER else kernels.xxz_entries
    q = replace(p, **{pencil: getattr(p, pencil) + 1j}) if pencil else p
    targets, cols, vals = entries(basis.states, p.m_sites, q.beta, q.delta)
    rows = basis.index_of(targets)
    if basis.sizes is not None:
        vals = vals * np.sqrt(basis.sizes[cols] / basis.sizes[rows])

    # the COO constructor sums duplicate entries and sorts the indices
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim))
    return SparseHamiltonian(basis, mat, p)


def link_variable(kind, index, p):
    """Physical-frame Pauli string of eta_index or gamma_index, one of the
    bond/site operators through which both chains coincide."""
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
    return PauliString(terms)
