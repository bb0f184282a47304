"""Ashkin-Teller and staggered XXZ chain Hamiltonians with PBC.

The XXZ chain is assembled in the z frame (magnetization diagonal), the
Ashkin-Teller chain in the x frame (species parities diagonal), so each
model's ground-state sector is a plain index filter on basis labels.

Site conventions (n = 2M spins in both models):
  Ashkin-Teller: sigma_j -> bit 2(j-1), tau_j -> bit 2(j-1)+1, j = 1..M.
  XXZ:           spin i  -> bit i-1, i = 1..2M.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .basis import (Full, K0, SzFixed, XParity, SpinBasis, PauliString,
                    build_basis, compose)
from . import basis as basis_mod, kernels

ASHKIN_TELLER = "at"
STAGGERED_XXZ = "xxz"
# basis frame of each model's Hamiltonian and ground sector
FRAMES = {ASHKIN_TELLER: "x", STAGGERED_XXZ: "z"}


def check_real(name, x):
    """Refuse ``x`` unless it is a finite real number: no bool, complex,
    string or None."""
    real = isinstance(x, (int, float, np.integer, np.floating))
    if isinstance(x, bool) or not real or not np.isfinite(x):
        raise ValueError(f"{name} must be a finite real number, got {x!r}")


@dataclass(frozen=True)
class ModelParams:
    """Couplings and geometry of one chain; the couplings are finite reals."""

    model: str  # "at" or "xxz"
    m_sites: int  # M; both chains carry 2M spins
    delta: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        if self.model not in FRAMES:
            raise ValueError(f"unknown model {self.model!r}")
        m = self.m_sites
        if isinstance(m, bool) or not (isinstance(m, (int, np.integer)) and m >= 1):
            raise ValueError("need a whole number of Ashkin-Teller sites, at "
                             f"least one (two spins), got {self.m_sites!r}")
        for name in ("delta", "beta"):
            check_real(name, getattr(self, name))

    @property
    def n_spins(self):
        return 2 * self.m_sites


@dataclass(eq=False)
class SparseHamiltonian:
    """Real symmetric Hamiltonian in CSR layout over a (sector) basis. A
    build with a ``pencil`` also holds ``slope``, the derivative of H by
    that coupling, as data on the matrix's own indices."""

    basis: SpinBasis
    matrix: sp.csr_matrix
    params: ModelParams
    slope: Optional[np.ndarray] = None

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
    """Assemble the model Hamiltonian restricted to the sector descriptor
    ``sector``. With ``pencil`` ("delta" or "beta") the matrix holds H(p)
    and ``slope`` holds dH/d(pencil) on the same pattern, from the real and
    imaginary parts of ``hamiltonian_terms(p, pencil)``.

    In a K0 sector the element between orbit states r' and r is
    sqrt(N_r / N_r') times the sum of <s'|H|r> over s' in the orbit of r'.
    """
    parent = sector.parent if isinstance(sector, K0) else sector
    if isinstance(parent, SzFixed) and p.model != STAGGERED_XXZ:
        raise ValueError("SzFixed sectors apply to the XXZ chain only")
    if isinstance(parent, XParity) and p.model != ASHKIN_TELLER:
        raise ValueError("XParity sectors apply to the Ashkin-Teller chain only")

    terms = hamiltonian_terms(p, pencil)  # refuses a bad pencil before any basis
    basis = build_basis(p.n_spins, sector, frame=FRAMES[p.model])
    dim = basis.dim
    entries = kernels.at_entries if p.model == ASHKIN_TELLER else kernels.xxz_entries
    # column r holds the terms of H on label r alone, and H is symmetric, so
    # each chunk of columns, read as rows, is appended to the CSR arrays in
    # turn: allocated for a diagonal term and a flip per nonzero x mask per
    # column, then resized, which returns the pages of the unwritten tail
    per_col = 1 + len({x for x, _, _ in terms if x})
    width = max(1, basis_mod._CHUNK // per_col)
    index = np.int32 if dim * per_col < 2**31 else np.int64
    indptr = np.zeros(dim + 1, dtype=index)
    indices = np.empty(dim * per_col, dtype=index)
    a = np.empty(dim * per_col)
    b = np.empty(dim * per_col) if pencil else None
    nnz = 0
    for lo in range(0, dim, width):
        block = _column_block(basis, entries, terms, lo, width)
        end = nnz + block.nnz
        indptr[lo + 1:lo + 1 + block.shape[0]] = block.indptr[1:] + nnz
        indices[nnz:end] = block.indices
        a[nnz:end] = block.data.real
        if pencil:
            b[nnz:end] = block.data.imag
        nnz = end
        del block  # before the next block's temporaries
    for arr in (indices, a, b):
        if arr is not None:
            arr.resize(nnz, refcheck=False)
    mat = sp.csr_matrix((a, indices, indptr), shape=(dim, dim))
    return SparseHamiltonian(basis, mat, p, b)


def _column_block(basis, entries, terms, lo, width):
    """Columns lo..lo+width of the Hamiltonian as CSR rows of its transpose;
    the COO constructor sums duplicate entries and sorts the indices."""
    targets, cols, vals = entries(basis.states[lo:lo + width], terms)
    rows = basis.index_of(targets)
    del targets
    if basis.sizes is not None:
        vals = vals * np.sqrt(basis.sizes[cols + lo] / basis.sizes[rows])
    return sp.csr_matrix((vals, (cols, rows)),
                         shape=(min(width, basis.dim - lo), basis.dim))


def hamiltonian_terms(p, pencil=None):
    """H = -sum_k c_k (eta_k + gamma_k + delta eta_k gamma_k), k = 1..2M,
    with c_k = 1 for odd k and beta for even k, as (x, z, coefficient)
    triples in the model's frame (see ``basis.compose``). Both chains share
    this polynomial in the link variables; only their Pauli strings differ.
    Every product is Hermitian with a real phase. A ``pencil`` ("delta" or
    "beta") raises that coupling by 1j: H is affine in it, so the real parts
    are the coefficients of H(p), the imaginary parts those of dH/d(pencil)."""
    if pencil not in (None, "delta", "beta"):
        raise ValueError(f"pencil must be 'delta' or 'beta', got {pencil!r}")
    delta = p.delta + 1j if pencil == "delta" else p.delta
    beta = p.beta + 1j if pencil == "beta" else p.beta
    terms = []
    for k in range(1, p.n_spins + 1):
        c = 1.0 if k % 2 else beta
        eta, gamma = link_variable("eta", k, p), link_variable("gamma", k, p)
        for strings, w in ((eta,), c), ((gamma,), c), ((eta, gamma), c * delta):
            x, z, phase = compose(strings, p.n_spins, FRAMES[p.model])
            terms.append((x, z, -w * phase.real))
    return terms


def link_variable(kind, index, p):
    """Physical-frame Pauli string of eta_index or gamma_index, one of the
    bond/site operators through which both chains coincide."""
    if kind not in ("eta", "gamma"):
        raise ValueError(f"unknown link-variable kind {kind!r}")
    if not 1 <= index <= p.n_spins:
        raise ValueError(f"link index {index} outside [1, {p.n_spins}]")
    even, n = index % 2 == 0, p.n_spins
    if p.model == STAGGERED_XXZ:  # bond (index, index + 1) of spins 1..2M
        # eta: XX on the intra-dimer bonds, YY on the others; gamma: swapped
        ax = "x" if (kind == "eta") != even else "y"
        return PauliString(((index - 1, ax), (index % n, ax)))
    off = int(kind == "gamma")  # tau_j sits one bit above sigma_j
    if not even:  # eta_{2j-1} = sigma_j^x, gamma_{2j-1} = tau_j^x
        return PauliString(((index - 1 + off, "x"),))
    # eta_{2j} = sigma_j^z sigma_{j+1}^z, gamma_{2j} likewise on tau; M = 1
    # wraps the bond onto itself, and the square is the identity
    a, b = index - 2 + off, index % n + off
    return PauliString(() if a == b else ((a, "z"), (b, "z")))
