"""Exact diagonalization and entanglement for the quantum Ashkin-Teller
and staggered XXZ spin-1/2 chains."""

__version__ = "0.1.0"

from .basis import (Full, K0, SzFixed, XParity, SpinBasis, QuantumState,
                    PauliString, pauli, build_basis, pauli_action,
                    expectation)
from .models import (ASHKIN_TELLER, STAGGERED_XXZ, ModelParams,
                     SparseHamiltonian, build_hamiltonian,
                     ground_sector, k0_domain, link_variable)
from .eigensolve import (EigenResult, ConvergenceError, dense_spectrum,
                         lanczos_ground, ground_state)
from .entanglement import (DensityMatrix, reduce_state, partial_transpose,
                           negativity, dsb, von_neumann)
from .observables import (finite_difference, locate_extremes,
                          magnetization_x, correlator_x)
from .sweeps import SweepSpec, SweepResult, run_sweep, figure_presets
