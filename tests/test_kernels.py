import numpy as np
import pytest

from atxxz import ModelParams, build_hamiltonian, ground_sector
from atxxz.models import ASHKIN_TELLER, STAGGERED_XXZ
from test_models import at_dense_oracle, xxz_dense_oracle


def _sector_deviation(model, oracle, m_sites, delta, beta):
    """Kernel build on the ground-sector basis vs the restricted Pauli oracle.

    On a sector basis SpinBasis.index_of maps the kernels' flipped labels to
    rows by rank, which the Full-basis oracle tests in test_models only
    exercise as the identity.
    """
    p = ModelParams(model, m_sites, delta=delta, beta=beta)
    h = build_hamiltonian(p, ground_sector(p))
    states = h.basis.states
    return np.abs(h.dense() - oracle(p)[np.ix_(states, states)]).max()


@pytest.mark.parametrize("m_sites", [1, 2, 3, 4])
@pytest.mark.parametrize("delta,beta", [(0.0, 1.0), (1.0, 1.0), (-0.4, 1.7)])
def test_xxz_paths_agree(m_sites, delta, beta):
    assert _sector_deviation(STAGGERED_XXZ, xxz_dense_oracle,
                             m_sites, delta, beta) < 1e-12


@pytest.mark.parametrize("m_sites", [1, 2, 3, 4])
@pytest.mark.parametrize("delta,beta", [(0.0, 1.0), (1.0, 1.0), (-0.4, 1.7)])
def test_at_paths_agree(m_sites, delta, beta):
    assert _sector_deviation(ASHKIN_TELLER, at_dense_oracle,
                             m_sites, delta, beta) < 1e-12


def test_hamiltonians_symmetric():
    for model in (ASHKIN_TELLER, STAGGERED_XXZ):
        p = ModelParams(model, 3, delta=0.8, beta=1.4)
        h = build_hamiltonian(p, ground_sector(p)).dense()
        assert np.abs(h - h.T).max() < 1e-14
