import numpy as np
import pytest

from atxxz import (ModelParams, build_hamiltonian, classify_sector,
                   dense_spectrum, ground_sector, link_variable)
from atxxz.basis import Full, SzFixed, XParity
from atxxz.models import ASHKIN_TELLER, STAGGERED_XXZ
from atxxz.verify import pauli_dense
from atxxz.basis import pauli


def xxz_dense_oracle(p):
    """Independent dense build straight from the Pauli definition."""
    n = p.n_spins
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for j in range(p.m_sites):
        for (a, b, c) in (((2 * j), (2 * j + 1), p.j_coupling),
                          ((2 * j + 1), (2 * j + 2) % n, p.j_coupling * p.beta)):
            for ax in ("x", "y"):
                h -= c * pauli_dense(pauli((a, ax), (b, ax)), n)
            h += c * p.delta * pauli_dense(pauli((a, "z"), (b, "z")), n)
    return h.real


def at_dense_oracle(p):
    """Dense physical-frame build, then rotated to the x frame."""
    n = p.n_spins
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for j in range(p.m_sites):
        s, t = 2 * j, 2 * j + 1
        h -= p.j_coupling * (pauli_dense(pauli((s, "x")), n)
                             + pauli_dense(pauli((t, "x")), n)
                             + p.delta * pauli_dense(pauli((s, "x"), (t, "x")), n))
        sp_, tp = (2 * ((j + 1) % p.m_sites)), (2 * ((j + 1) % p.m_sites) + 1)
        if sp_ == s:  # single site: the periodic bond squares to the identity
            eye = np.eye(1 << n)
            h -= p.j_coupling * p.beta * (2.0 + p.delta) * eye
            continue
        zz_s = pauli_dense(pauli((s, "z"), (sp_, "z")), n)
        zz_t = pauli_dense(pauli((t, "z"), (tp, "z")), n)
        zz4 = pauli_dense(pauli((s, "z"), (sp_, "z"), (t, "z"), (tp, "z")), n)
        h -= p.j_coupling * p.beta * (zz_s + zz_t + p.delta * zz4)
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    rot = np.array([[1.0]])
    for _ in range(n):
        rot = np.kron(had, rot)
    return (rot @ h @ rot).real


class TestModelParams:
    def test_valid(self):
        p = ModelParams(STAGGERED_XXZ, 3, delta=0.5, beta=2.0)
        assert p.n_spins == 6

    @pytest.mark.parametrize("kw", [
        {"model": "ising"}, {"m_sites": 0}, {"j_coupling": 0.0},
        {"j_coupling": -1.0}])
    def test_invalid(self, kw):
        base = {"model": ASHKIN_TELLER, "m_sites": 2}
        base.update(kw)
        with pytest.raises(ValueError):
            ModelParams(**base)


class TestBuildHamiltonian:
    @pytest.mark.parametrize("m_sites", [1, 2, 3])
    @pytest.mark.parametrize("delta,beta", [(1.0, 1.0), (0.3, 1.6), (-0.5, 0.5),
                                            (-0.4, 1.7)])
    def test_xxz_matches_dense_oracle(self, m_sites, delta, beta):
        p = ModelParams(STAGGERED_XXZ, m_sites, delta=delta, beta=beta)
        h = build_hamiltonian(p, Full()).dense()
        assert np.abs(h - xxz_dense_oracle(p)).max() < 1e-12

    @pytest.mark.parametrize("m_sites", [1, 2, 3])
    @pytest.mark.parametrize("delta,beta", [(1.0, 1.0), (0.3, 1.6), (-0.5, 0.5),
                                            (-0.4, 1.7)])
    def test_at_matches_dense_oracle(self, m_sites, delta, beta):
        p = ModelParams(ASHKIN_TELLER, m_sites, delta=delta, beta=beta)
        h = build_hamiltonian(p, Full()).dense()
        # internal build works in the x frame; the oracle rotates to match
        assert np.abs(h - at_dense_oracle(p)).max() < 1e-12

    def test_dimer_ground_energy(self):
        # single dimer, uniform couplings: E0 = -6J on the triplet-0 state
        p = ModelParams(STAGGERED_XXZ, 1, delta=1.0, beta=1.0)
        res = dense_spectrum(build_hamiltonian(p, ground_sector(p)))
        assert res.ground_energy == pytest.approx(-6.0, abs=1e-12)

    def test_sector_block_consistency(self):
        # the sector-restricted matrix is the corresponding diagonal block
        p = ModelParams(STAGGERED_XXZ, 2, delta=0.7, beta=1.2)
        full = build_hamiltonian(p, Full())
        sec = build_hamiltonian(p, SzFixed(2))
        idx = sec.basis.states
        assert np.abs(full.dense()[np.ix_(idx, idx)] - sec.dense()).max() < 1e-13
        off = np.delete(np.arange(full.dim), idx)
        assert np.abs(full.dense()[np.ix_(off, idx)]).max() < 1e-13

    def test_at_sector_block_consistency(self):
        p = ModelParams(ASHKIN_TELLER, 2, delta=0.7, beta=1.2)
        full = build_hamiltonian(p, Full())
        sec = build_hamiltonian(p, XParity(1, 1))
        idx = sec.basis.states
        assert np.abs(full.dense()[np.ix_(idx, idx)] - sec.dense()).max() < 1e-13

    def test_sector_model_mismatch(self):
        with pytest.raises(ValueError):
            build_hamiltonian(ModelParams(ASHKIN_TELLER, 2), SzFixed(2))
        with pytest.raises(ValueError):
            build_hamiltonian(ModelParams(STAGGERED_XXZ, 2), XParity(1, 1))

    @pytest.mark.parametrize("model", [ASHKIN_TELLER, STAGGERED_XXZ])
    def test_ground_sector_refuses_delta_below_minus_one(self, model):
        with pytest.raises(ValueError, match="--sector full"):
            ground_sector(ModelParams(model, 3, delta=-1.05))

    def test_ground_sector_contains_ground_state(self):
        # over the accepted domain delta >= -1 (the XXZ sector fails at -1.05)
        points = [(0.9, 1.1)] + [(d, b) for b in (0.25, 1.0, 4.0)
                                 for d in np.linspace(-1.0, 3.0, 17)]
        for model in (ASHKIN_TELLER, STAGGERED_XXZ):
            for m_sites in (2, 3):
                for delta, beta in points:
                    p = ModelParams(model, m_sites, delta=delta, beta=beta)
                    e_full = dense_spectrum(
                        build_hamiltonian(p, Full())).ground_energy
                    e_sec = dense_spectrum(
                        build_hamiltonian(p, ground_sector(p))).ground_energy
                    assert e_sec == pytest.approx(e_full, abs=1e-10)


class TestClassifySector:
    def test_at_quadrants(self):
        p = ModelParams(ASHKIN_TELLER, 2)
        assert classify_sector(0b0000, p) == 0
        assert classify_sector(0b0010, p) == 1  # one tau bit set
        assert classify_sector(0b0011, p) == 2  # one sigma and one tau bit
        assert classify_sector(0b0001, p) == 3  # one sigma bit set
        assert classify_sector(0b0101, p) == 0

    def test_xxz_magnetization(self):
        p = ModelParams(STAGGERED_XXZ, 2)
        assert classify_sector(0b0000, p) == 2
        assert classify_sector(0b0011, p) == 0
        assert classify_sector(0b1111, p) == -2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            classify_sector(16, ModelParams(STAGGERED_XXZ, 2))


class TestLinkVariables:
    def test_bad_arguments(self):
        p = ModelParams(ASHKIN_TELLER, 2)
        with pytest.raises(ValueError):
            link_variable("zeta", 1, p)
        with pytest.raises(ValueError):
            link_variable("eta", 5, p)
        with pytest.raises(ValueError):
            link_variable("eta", 0, p)

    def test_at_realizations(self):
        p = ModelParams(ASHKIN_TELLER, 2)
        assert link_variable("eta", 1, p).realization.terms == ((0, "x"),)
        assert link_variable("gamma", 1, p).realization.terms == ((1, "x"),)
        assert link_variable("eta", 2, p).realization.terms == ((0, "z"), (2, "z"))
        assert link_variable("gamma", 4, p).realization.terms == ((3, "z"), (1, "z"))

    def test_xxz_realizations(self):
        p = ModelParams(STAGGERED_XXZ, 2)
        assert link_variable("eta", 1, p).realization.terms == ((0, "x"), (1, "x"))
        assert link_variable("gamma", 1, p).realization.terms == ((0, "y"), (1, "y"))
        assert link_variable("eta", 2, p).realization.terms == ((1, "y"), (2, "y"))
        assert link_variable("gamma", 4, p).realization.terms == ((3, "x"), (0, "x"))

    def test_self_wrapped_bond_is_identity(self):
        p = ModelParams(ASHKIN_TELLER, 1)
        assert link_variable("eta", 2, p).realization.terms == ()
