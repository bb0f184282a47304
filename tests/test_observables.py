import numpy as np
import pytest

from atxxz import ModelParams, build_basis, build_hamiltonian, ground_sector
from atxxz.basis import K0, Full, QuantumState, XParity, expectation, pauli
from atxxz.eigensolve import dense_spectrum
from atxxz.models import ASHKIN_TELLER, STAGGERED_XXZ
from atxxz.observables import (correlator_x, finite_difference,
                               locate_extremes, magnetization_x)


@pytest.fixture(scope="module", params=[1, 2, 3])
def at_ground(request):
    # at M = 1 the sigma and tau bits are the whole label
    p = ModelParams(ASHKIN_TELLER, request.param, delta=0.8, beta=1.2)
    res = dense_spectrum(build_hamiltonian(p, ground_sector(p)))
    return p, res.ground_state


class TestMagnetization:
    def test_matches_pauli_expectation(self, at_ground):
        p, psi = at_ground
        m = magnetization_x(psi, p)
        direct = np.mean([expectation(psi, pauli((b, "x")))
                          for b in range(p.n_spins)])
        assert m == pytest.approx(direct, abs=1e-12)

    def test_correlator_matches_pauli_expectation(self, at_ground):
        p, psi = at_ground
        g = correlator_x(psi, p)
        direct = np.mean([expectation(psi, pauli((2 * j, "x"), (2 * j + 1, "x")))
                          for j in range(p.m_sites)])
        assert g == pytest.approx(direct, abs=1e-12)

    def test_k0_state_matches_ground_sector(self, at_ground):
        # a K0 vector is spread over its orbits before the averages
        p, psi = at_ground
        k0 = dense_spectrum(build_hamiltonian(p, K0(ground_sector(p)))).ground_state
        assert k0.basis.dim < psi.basis.dim or p.m_sites == 1
        m = np.mean([expectation(k0, pauli((b, "x"))) for b in range(p.n_spins)])
        g = np.mean([expectation(k0, pauli((2 * j, "x"), (2 * j + 1, "x")))
                     for j in range(p.m_sites)])
        assert magnetization_x(k0, p) == pytest.approx(m, abs=1e-12)
        assert correlator_x(k0, p) == pytest.approx(g, abs=1e-12)
        assert magnetization_x(k0, p) == pytest.approx(magnetization_x(psi, p), abs=1e-12)
        assert correlator_x(k0, p) == pytest.approx(correlator_x(psi, p), abs=1e-12)

    def test_rejects_wrong_model(self):
        p = ModelParams(ASHKIN_TELLER, 3)
        psi = dense_spectrum(build_hamiltonian(p, ground_sector(p))).ground_state
        p_xxz = ModelParams(STAGGERED_XXZ, 3)
        with pytest.raises(ValueError):
            magnetization_x(psi, p_xxz)
        with pytest.raises(ValueError):
            correlator_x(psi, p_xxz)
        # a chain of another size, shorter or longer than the state's
        for m_sites in (2, 5):
            wrong = ModelParams(ASHKIN_TELLER, m_sites)
            for fn in (magnetization_x, correlator_x):
                with pytest.raises(ValueError,
                                   match=f"6-spin state for a {2 * m_sites}-spin"):
                    fn(psi, wrong)

    def test_asymmetric_states_match_pauli_expectation(self):
        # random states break translation, reflection and exchange; the
        # label sums are still the exact site averages of each state
        rng = np.random.default_rng(7)
        for m_sites in (1, 2, 3):
            p = ModelParams(ASHKIN_TELLER, m_sites)
            for sector in (Full(), XParity(1, 1)):
                b = build_basis(p.n_spins, sector, frame="x")
                amps = rng.normal(size=b.dim) + 1j * rng.normal(size=b.dim)
                psi = QuantumState(amps / np.linalg.norm(amps), b)
                m = np.mean([expectation(psi, pauli((s, "x")))
                             for s in range(p.n_spins)])
                g = np.mean([expectation(psi, pauli((2 * j, "x"), (2 * j + 1, "x")))
                             for j in range(m_sites)])
                assert abs(magnetization_x(psi, p) - m) <= 1e-12
                assert abs(correlator_x(psi, p) - g) <= 1e-12


class TestFiniteDifference:
    def grid(self):
        return np.linspace(0.0, 2.0, 81)

    def test_first_derivative_of_cubic(self):
        x = self.grid()
        d = finite_difference(x**3, 0.025, order=1)
        # central differences are exact to O(h^2); endpoints one-sided O(h)
        assert np.abs(d[1:-1] - 3 * x[1:-1] ** 2).max() < 1e-3
        assert d[0] == pytest.approx((x[1] ** 3 - x[0] ** 3) / 0.025, abs=1e-12)

    def test_second_derivative_of_cubic(self):
        x = self.grid()
        d = finite_difference(x**3, 0.025, order=2)
        assert np.abs(d[1:-1] - 6 * x[1:-1]).max() < 1e-9
        # the end rows repeat their interior neighbours
        assert d[0] == d[1] and d[-1] == d[-2]

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            finite_difference([0.0, 1.0, 4.0], 1.0, order=3)
        with pytest.raises(ValueError):
            finite_difference([0.0, 1.0], 1.0)
        for step in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="step"):
                finite_difference([0.0, 1.0, 4.0], step)


class TestLocateExtremes:
    def test_single_maximum(self):
        x = np.linspace(-1.0, 1.0, 21)
        found = locate_extremes(x, -(x - 0.1) ** 2)
        assert len(found) == 1
        pos, kind, _ = found[0]
        assert kind == "max"
        assert pos == pytest.approx(0.1, abs=0.051)

    def test_min_and_max(self):
        x = np.linspace(0.0, 2.0 * np.pi, 100)
        found = locate_extremes(x, np.sin(x))
        kinds = [k for _, k, _ in found]
        assert kinds == ["max", "min"]

    def test_plateau_resolves_left(self):
        v = [0.0, 1.0, 1.0, 0.0]
        found = locate_extremes([0.0, 1.0, 2.0, 3.0], v)
        assert found == [(1.0, "max", 1.0)]

    def test_monotone_has_none(self):
        x = np.linspace(0.0, 1.0, 11)
        assert locate_extremes(x, x) == []

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="length"):
            locate_extremes([0.0, 1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            locate_extremes([0.0, 1.0], [1.0, 2.0])
