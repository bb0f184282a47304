import numpy as np
import pytest
import scipy.sparse as sp

from atxxz import ModelParams
from atxxz.basis import (PauliString, QuantumState, XParity,
                         apply_pauli_string, build_basis, pauli)
from atxxz.models import ASHKIN_TELLER, STAGGERED_XXZ, link_variable
from atxxz import verify
from oracles import dense_op


class TestPauliDense:
    """PauliString.matrix against the np.kron oracle."""

    def test_single_site(self):
        m = pauli((0, "z")).matrix(2)
        assert sp.issparse(m) and m.format == "csr"
        assert np.array_equal(m.toarray(), np.diag([1.0, -1.0, 1.0, -1.0]))

    def test_coefficient_and_y(self):
        m = pauli((0, "y"), coefficient=2.0).matrix(1)
        assert np.array_equal(m.toarray(), 2.0 * np.array([[0, -1j], [1j, 0]]))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        sites = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        axes = rng.choice(list("xyz"), size=len(sites))
        axes[0] = "y"
        string = PauliString(tuple(zip(map(int, sites), axes)),
                             coefficient=complex(rng.normal(), rng.normal()))
        m = string.matrix(n)
        assert m.shape == (1 << n, 1 << n) and m.nnz == 1 << n
        assert np.allclose(m.toarray(), dense_op(string, n), rtol=0, atol=1e-15)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            pauli((1, "x"), (3, "z")).matrix(3)
        with pytest.raises(ValueError, match="out of range"):
            apply_pauli_string(pauli((3, "x")), QuantumState(np.ones(8),
                                                             build_basis(3)))

    @pytest.mark.parametrize("frame", ["z", "x"])
    def test_real_strings_keep_real_states_real(self, frame):
        string = pauli((0, "x"), (2, "z"), (3, "x"))
        assert string.matrix(4).dtype == np.float64
        psi = QuantumState(np.arange(16.0), build_basis(4, frame=frame))
        out = apply_pauli_string(string, psi)
        assert out.amplitudes.dtype == np.float64
        if frame == "z":
            assert np.array_equal(out.amplitudes,
                                  dense_op(string, 4).real @ psi.amplitudes)


class TestLinkAlgebra:
    @pytest.mark.parametrize("model", [ASHKIN_TELLER, STAGGERED_XXZ])
    @pytest.mark.parametrize("m_sites", [2, 3])
    def test_passes(self, model, m_sites):
        rep = verify.check_link_algebra(model, m_sites)
        assert rep.passed
        assert rep.max_deviation == 0.0

    def test_negative_control(self):
        # replace one operator with something commuting with everything
        p = ModelParams(ASHKIN_TELLER, 2)
        variables = {(kind, i): link_variable(kind, i, p)
                     for kind in ("eta", "gamma") for i in range(1, 5)}
        variables[("eta", 2)] = pauli((0, "x"))  # wrong realization
        rep = verify.check_link_algebra(ASHKIN_TELLER, 2, variables=variables)
        assert not rep.passed

    def test_size_limit(self):
        with pytest.raises(ValueError):
            verify.check_link_algebra(ASHKIN_TELLER, 5)


class TestGroundStateConstraints:
    @pytest.mark.parametrize("model", [ASHKIN_TELLER, STAGGERED_XXZ])
    def test_passes(self, model):
        p = ModelParams(model, 3, delta=0.8, beta=1.2)
        rep = verify.check_constraints_on_ground_state(p)
        assert rep.passed
        assert rep.max_deviation <= 1e-9

    def test_negative_control_wrong_sector(self):
        # within the ground sector the constraints hold identically, so the
        # control state comes from an odd-parity sector where they flip sign
        p = ModelParams(ASHKIN_TELLER, 3, delta=0.8, beta=1.2)
        b = build_basis(p.n_spins, XParity(-1, 1), frame="x")
        rng = np.random.default_rng(0)
        amps = rng.normal(size=b.dim)
        psi = QuantumState(amps / np.linalg.norm(amps), b)
        rep = verify.check_constraints_on_ground_state(p, state=psi)
        assert not rep.passed
        assert rep.max_deviation == pytest.approx(2.0, abs=1e-12)


class TestEnergyEquivalence:
    @pytest.mark.parametrize("delta,beta", [(1.0, 1.0), (0.5, 1.5), (-0.2, 0.7)])
    def test_passes(self, delta, beta):
        rep = verify.check_energy_equivalence(delta, beta, 3)
        assert rep.passed

    def test_size_limit(self):
        with pytest.raises(ValueError):
            verify.check_energy_equivalence(1.0, 1.0, 8)


class TestDensityEquality:
    @pytest.mark.parametrize("delta,beta", [(1.0, 1.0), (0.6, 1.4)])
    def test_passes(self, delta, beta):
        rep = verify.check_density_equality(delta, beta, 3)
        assert rep.passed


class TestSpectralInclusion:
    @pytest.mark.parametrize("m_sites", [1, 2, 3])
    def test_passes(self, m_sites):
        rep = verify.check_spectral_inclusion(0.8, 1.3, m_sites)
        assert rep.passed

    def test_negative_control(self):
        # mismatched couplings must break the inclusion the check relies on
        from atxxz import build_hamiltonian, dense_spectrum, ground_sector
        from atxxz.basis import Full
        p_at = ModelParams(ASHKIN_TELLER, 2, delta=0.8, beta=1.3)
        p_xxz = ModelParams(STAGGERED_XXZ, 2, delta=0.8, beta=2.6)
        at = dense_spectrum(build_hamiltonian(p_at, ground_sector(p_at))).energies
        xxz = dense_spectrum(build_hamiltonian(p_xxz, Full())).energies
        dev = max(min(abs(xxz - e)) for e in at)
        assert dev > 1e-3


class TestRunSuites:
    def test_all(self):
        reports = verify.run_suites(["all"], 2, 1.0, 1.0)
        assert [r.name for r in reports] == [
            "link-algebra", "link-algebra", "ground-state-constraints",
            "ground-state-constraints", "energy-equivalence",
            "density-equality", "spectral-inclusion"]
        assert all(r.passed and r.chain_spins == 4 for r in reports)

    def test_each_suite_capped_at_its_largest_m(self):
        reports = verify.run_suites(["spectral-inclusion", "link-algebra"],
                                    9, 0.8, 1.3)
        assert [(r.name, r.chain_spins) for r in reports] == [
            ("link-algebra", 8), ("link-algebra", 8), ("spectral-inclusion", 6)]

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="no-such-suite"):
            verify.run_suites(["energy", "no-such-suite"], 2, 1.0, 1.0)


class TestReportFormat:
    def test_summary_lines(self):
        rep = verify.VerificationReport("demo", 6, {"delta": 1.0}, 1e-12, 1e-9)
        assert rep.summary().startswith("[PASS]")
        assert not rep.inconclusive
        rep.max_deviation = 1.0
        assert rep.summary().startswith("[FAIL]")
        assert not rep.inconclusive
        rep.max_deviation = float("nan")
        assert rep.inconclusive and not rep.passed
