import numpy as np
import pytest

from atxxz import ModelParams, build_hamiltonian, ground_sector
from atxxz.basis import Full, K0, SzFixed, XParity, compose, pauli
from atxxz.kernels import pauli_entries
from atxxz.models import ASHKIN_TELLER, STAGGERED_XXZ, hamiltonian_terms
from oracles import dense_op
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


@pytest.mark.parametrize("strings", [
    # repeated (x, z): both strings are X_0 Z_1
    [pauli((0, "x"), (1, "z")), pauli((1, "z"), (0, "x"), coefficient=0.5)],
    [pauli((0, "y"), coefficient=0.3 + 0.2j),
     pauli((1, "x"), (2, "y"), coefficient=-1j),
     pauli((2, "z"), coefficient=2j), pauli((0, "x"), (2, "x"))],
    # XX + YY: zero where the two bits agree
    [pauli((0, "x"), (2, "x")), pauli((0, "y"), (2, "y"))],
    [pauli((0, "z")), pauli((1, "z"), (2, "z"), coefficient=-0.7)],
    [],
], ids=["repeated", "complex", "xx+yy", "diagonal", "empty"])
def test_pauli_entries_match_dense_sum(strings):
    n = 3
    states = np.arange(1 << n, dtype=np.int64)
    targets, cols, vals = pauli_entries(
        states, [compose((s,), n, "z") for s in strings])
    got = np.zeros((1 << n, 1 << n), dtype=complex)
    np.add.at(got, (targets, cols), vals)
    want = sum((dense_op(s, n) for s in strings), np.zeros((1 << n, 1 << n)))
    assert np.abs(got - want).max() <= 1e-15
    # every diagonal element is emitted, and no zero off it
    flips = targets != states[cols]
    assert np.sum(~flips) == 1 << n
    assert np.all(vals[flips] != 0)


def test_pauli_entries_merge_cancelling_bonds():
    # XXZ at M = 1 puts both bonds on one pair: XX and YY each come twice,
    # with coefficients -1, -beta and 1, beta. Summed per label in term
    # order they would leave roundoff where the bits agree; merged first
    # they cancel exactly, and the all-up state keeps its diagonal alone
    p = ModelParams(STAGGERED_XXZ, 1, delta=0.7, beta=1.3)
    targets, cols, vals = pauli_entries(np.array([0], dtype=np.int64),
                                        hamiltonian_terms(p))
    assert targets.tolist() == [0] and cols.tolist() == [0]
    assert vals[0] == pytest.approx(2.3 * 0.7, abs=1e-15)
    for n_up in range(3):
        h = build_hamiltonian(p, SzFixed(n_up))
        states = h.basis.states
        assert np.abs(h.dense() - xxz_dense_oracle(p)[np.ix_(states, states)]
                      ).max() < 1e-14


def _sectors(model, m_sites):
    n = 2 * m_sites
    if model == ASHKIN_TELLER:
        parents = [XParity(a, b) for a in (1, -1) for b in (1, -1)]
        return [Full()] + parents + [K0(XParity(1, 1)), K0(XParity(-1, -1))]
    return ([Full()] + [SzFixed(k) for k in range(n + 1)]
            + [K0(SzFixed(m_sites))])


@pytest.mark.parametrize("beta", [0.0, 0.7])
@pytest.mark.parametrize("delta", [0.0, 0.7])
@pytest.mark.parametrize("m_sites", [1, 2, 3, 4])
@pytest.mark.parametrize("model", [ASHKIN_TELLER, STAGGERED_XXZ])
def test_no_stored_off_diagonal_zero(model, m_sites, delta, beta):
    # a coupling at zero, or XX + YY on equal bits, stores nothing
    p = ModelParams(model, m_sites, delta=delta, beta=beta)
    for sector in _sectors(model, m_sites):
        m = build_hamiltonian(p, sector).matrix.tocoo()
        off = m.row != m.col
        assert np.all(m.data[off] != 0), sector
        # the diagonal is always stored
        assert np.sum(~off) == m.shape[0]
