import tracemalloc

import numpy as np
import pytest

from atxxz import ModelParams
from atxxz.basis import (K0, Full, PauliString, QuantumState, SzFixed, XParity,
                         build_basis, expectation, pauli, pauli_action)
from atxxz.eigensolve import ground_state
from atxxz.models import (ASHKIN_TELLER, STAGGERED_XXZ, build_hamiltonian,
                          link_variable)
from atxxz import cli, verify
from oracles import dense_in_frame, dense_op, expand_full


def random_string(rng, n, coefficient=None):
    sites = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
    terms = tuple((int(s), "xyz"[rng.integers(3)]) for s in sites)
    if coefficient is None:
        coefficient = complex(rng.normal(), rng.normal())
    return PauliString(terms, coefficient)


def link_variables(model, m_sites, wrong=False):
    """Every eta and gamma; with ``wrong``, eta_2 is sigma^x_0, which
    commutes with its algebra neighbour eta_1 (criterion 11's control)."""
    p = ModelParams(model, m_sites)
    variables = {(kind, i): link_variable(kind, i, p)
                 for kind in ("eta", "gamma") for i in range(1, 2 * m_sites + 1)}
    if wrong:
        variables[("eta", 2)] = pauli((0, "x"))
    return variables


def dense_link_deviation(variables, n):
    """The link-algebra deviation of the n = 2M spin variables from dense_op
    products: the largest entry of P^2 - 1, and of AB - BA or AB + BA as
    the algebra requires."""
    dense = {key: dense_op(s, n) for key, s in variables.items()}
    dev = max(np.abs(a @ a - np.eye(1 << n)).max() for a in dense.values())
    for (ka, j), a in dense.items():
        for (kb, k), b in dense.items():
            if (ka, j) >= (kb, k):
                continue
            anti = ka == kb and (abs(j - k) == 1 or {j, k} == {1, n})
            dev = max(dev, np.abs(a @ b + b @ a if anti else a @ b - b @ a).max())
    return dev


class TestPauliDense:
    """The mask form of Pauli strings against the np.kron oracle."""

    def test_single_site(self):
        assert pauli((0, "z")).masks(2) == (0, 1, 1.0)
        moved, target, left = pauli_action(
            QuantumState(np.arange(4.0), build_basis(2)), pauli((0, "z")))
        assert np.array_equal(moved, np.diag([1.0, -1.0, 1.0, -1.0]) @ np.arange(4.0))
        assert np.array_equal(target, np.arange(4.0)) and left == 0.0

    def test_coefficient_and_y(self):
        # Y = iXZ
        assert pauli((0, "y"), coefficient=2.0).masks(1) == (1, 1, 2j)
        assert pauli((1, "x"), (0, "y"), (2, "z")).masks(3) == (3, 5, 1j)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle_random(self, seed):
        # phase X^x Z^z, built from the masks, is the kron product
        rng = np.random.default_rng(seed)
        n = 4
        string = random_string(rng, n)
        x, z, phase = string.masks(n)
        xz = np.zeros((1 << n, 1 << n), dtype=complex)
        s = np.arange(1 << n)
        xz[s ^ x, s] = phase * (-1.0) ** np.bitwise_count(s & z)
        assert np.allclose(xz, dense_op(string, n), rtol=0, atol=1e-15)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            pauli((1, "x"), (3, "z")).masks(3)
        with pytest.raises(ValueError, match="out of range"):
            expectation(QuantumState(np.ones(8), build_basis(3)), pauli((3, "x")))

    @pytest.mark.parametrize("frame", ["z", "x"])
    def test_real_strings_keep_real_states_real(self, frame):
        string = pauli((0, "x"), (2, "z"), (3, "x"))
        psi = QuantumState(np.arange(16.0), build_basis(4, frame=frame))
        moved, target, _ = pauli_action(psi, string)
        assert moved.dtype == target.dtype == np.float64
        out = np.zeros(16)
        out[psi.basis.states ^ (0b1001 if frame == "z" else 0b0100)] = moved
        assert np.allclose(out, dense_in_frame(string, 4, frame).real
                           @ psi.amplitudes, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("frame", ["z", "x"])
    @pytest.mark.parametrize("sector", [Full(), SzFixed(3), XParity(1, -1),
                                        K0(XParity(1, 1)), K0(SzFixed(3))])
    def test_products_match_dense(self, sector, frame):
        # products of 1-3 strings, most of which leave the sector; the
        # expectation value of a Hermitian string, and |P psi - psi| as the
        # constraint check forms it, against dense_op products
        rng = np.random.default_rng(11)
        n = 6
        b = build_basis(n, sector, frame=frame)
        amps = rng.normal(size=b.dim) + 1j * rng.normal(size=b.dim)
        psi = QuantumState(amps / np.linalg.norm(amps), b)
        full = expand_full(psi)
        leaves = 0
        for _ in range(20):
            strings = [random_string(rng, n) for _ in range(rng.integers(1, 4))]
            dense = np.eye(1 << n)
            for s in strings:
                dense = dense_in_frame(s, n, frame) @ dense
            moved, target, left = pauli_action(psi, *strings)
            residual = np.sqrt(np.linalg.norm(moved - target) ** 2 + left)
            assert abs(residual - np.linalg.norm(dense @ full - full)) <= 1e-12
            assert abs(np.vdot(target, moved) - np.vdot(full, dense @ full)) <= 1e-12
            leaves += left > 0
            hermitian = random_string(rng, n, coefficient=rng.normal())
            want = np.vdot(full, dense_in_frame(hermitian, n, frame) @ full).real
            assert abs(expectation(psi, hermitian) - want) <= 1e-12
        assert leaves > 0 or isinstance(sector, Full)

    def test_link_expectations_stay_small(self):
        # 40 link variables on a 20-spin state whose sector holds 2^18
        # labels; a 2^20 amplitude vector alone takes 8 MiB
        p = ModelParams(ASHKIN_TELLER, 10, delta=1.0, beta=1.0)
        psi = ground_state(build_hamiltonian(p, K0(XParity(1, 1)))).ground_state
        variables = link_variables(ASHKIN_TELLER, 10).values()
        tracemalloc.start()
        try:
            values = [expectation(psi, v) for v in variables]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(values) == 40 and all(-1 <= v <= 1 for v in values)
        assert peak < 24 << 20


class TestLinkAlgebra:
    @pytest.mark.parametrize("model", [ASHKIN_TELLER, STAGGERED_XXZ])
    @pytest.mark.parametrize("m_sites", [2, 3])
    def test_passes(self, model, m_sites):
        rep = verify.check_link_algebra(model, m_sites)
        assert rep.passed
        assert rep.max_deviation == 0.0

    def test_negative_control(self):
        rep = verify.check_link_algebra(
            ASHKIN_TELLER, 2, variables=link_variables(ASHKIN_TELLER, 2, wrong=True))
        assert not rep.passed

    @pytest.mark.parametrize("m_sites", [2, 3, 4])
    @pytest.mark.parametrize("model,wrong", [(ASHKIN_TELLER, False),
                                             (STAGGERED_XXZ, False),
                                             (ASHKIN_TELLER, True)])
    def test_matches_dense_products(self, model, wrong, m_sites):
        variables = link_variables(model, m_sites, wrong)
        rep = verify.check_link_algebra(model, m_sites, variables=variables)
        dense = dense_link_deviation(variables, 2 * m_sites)
        assert rep.max_deviation == dense == (2.0 if wrong else 0.0)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            verify.check_link_algebra(ASHKIN_TELLER, 15)


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


    def test_weight_leaving_the_sector_counts(self):
        # Q_x maps SzFixed(2) onto SzFixed(4) of 6 spins: P psi and psi have
        # disjoint supports, so |P psi - psi| = sqrt(2)
        p = ModelParams(STAGGERED_XXZ, 3, delta=0.8, beta=1.2)
        b = build_basis(p.n_spins, SzFixed(2))
        amps = np.random.default_rng(0).normal(size=b.dim)
        psi = QuantumState(amps / np.linalg.norm(amps), b)
        full = expand_full(psi)
        q_x = dense_op(pauli(*((s, "x") for s in range(6))), 6)
        rep = verify.check_constraints_on_ground_state(p, state=psi)
        assert rep.max_deviation == pytest.approx(
            np.linalg.norm(q_x @ full - full), abs=1e-12)
        assert rep.max_deviation == pytest.approx(np.sqrt(2), abs=1e-12)


class TestEnergyEquivalence:
    @pytest.mark.parametrize("delta,beta", [(1.0, 1.0), (0.5, 1.5), (-0.2, 0.7)])
    def test_passes(self, delta, beta):
        rep = verify.check_energy_equivalence(delta, beta, 3)
        assert rep.passed

    def test_size_limit(self):
        with pytest.raises(ValueError):
            verify.check_energy_equivalence(1.0, 1.0, 11)


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
                                    20, 0.8, 1.3)
        assert [(r.name, r.chain_spins) for r in reports] == [
            ("link-algebra", 28), ("link-algebra", 28), ("spectral-inclusion", 6)]
        assert verify.SUITE_MAX_M == {
            "link-algebra": 14, "constraints": 10, "energy": 10, "density": 10,
            "spectral-inclusion": 3}

    def test_suites_share_each_models_solve(self, monkeypatch, capsys):
        # constraints, energy and density read the same two ground states
        solves = []
        real = verify.ground_state
        monkeypatch.setattr(verify, "ground_state", lambda h: (
            solves.append(h.params.model) or real(h)))
        code = cli.main(["verify", "constraints", "energy", "density", "--m", "4"])
        assert code == 0 and "all checks passed" in capsys.readouterr().out
        assert sorted(solves) == [ASHKIN_TELLER, STAGGERED_XXZ]

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
