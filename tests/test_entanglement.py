import tracemalloc

import numpy as np
import pytest

import atxxz.basis as basis_mod
from atxxz.basis import (K0, CapacityError, Full, QuantumState, SzFixed,
                         XParity, build_basis)
from atxxz.eigensolve import ground_state
from atxxz.entanglement import (DensityMatrix, InvalidStateError, dsb,
                                negativity, partial_transpose, reduce_state,
                                von_neumann)
from atxxz.models import ASHKIN_TELLER, ModelParams, build_hamiltonian
from oracles import (dimer_quartet_analytic, frontal_pair_analytic,
                     lambda_analytic, reduce_by_labels, reduce_dense,
                     validate_density_matrix)


def state(amps, n, frame="z"):
    return QuantumState(np.asarray(amps, dtype=complex),
                        build_basis(n, Full(), frame=frame))


def bell(n=2):
    v = np.zeros(1 << n)
    v[0] = v[(1 << n) - 1] = 1.0 / np.sqrt(2.0)
    return state(v, n)


def oracle_states():
    """A complex full-space state and random states of each sector kind."""
    rng = np.random.default_rng(11)
    states = [state(rng.normal(size=16) + 1j * rng.normal(size=16), 4)]
    for sector, frame in ((XParity(1, -1), "x"), (SzFixed(2), "z"),
                          (K0(XParity(1, 1)), "x"), (K0(SzFixed(3)), "z")):
        b = build_basis(6, sector, frame)
        states.append(QuantumState(rng.normal(size=b.dim), b))
    return states


class TestReduceState:
    def test_bell_reduction_is_maximally_mixed(self):
        rho = reduce_state(bell(), [0])
        assert np.allclose(rho.matrix, np.eye(2) / 2.0, atol=1e-12)

    def test_product_state_pure_reduction(self):
        # |10>: site 1 down, site 0 up
        rho = reduce_state(state([0, 0, 1, 0], 2), [1])
        assert np.allclose(rho.matrix, np.diag([0.0, 1.0]), atol=1e-12)

    @pytest.mark.parametrize("keep", [[0], [2], [0, 1], [1, 3], [3, 0], [0, 2, 3],
                                      [2, 0, 3]])
    def test_matches_einsum_oracle(self, keep):
        # the dense oracle transposes the whole 2^n tensor; the label loop
        # reads the sector labels one at a time
        for psi in oracle_states():
            rho = reduce_state(psi, keep)
            for oracle in (reduce_dense, reduce_by_labels):
                assert np.allclose(rho.matrix, oracle(psi, keep), atol=1e-12)
            validate_density_matrix(rho)

    @pytest.mark.parametrize("chunk", [2, 8, 1 << 16])
    @pytest.mark.parametrize("m_sites", [1, 2, 3, 4, 5])
    def test_slices_match_dense_trace(self, monkeypatch, chunk, m_sites):
        # slices of 2^low labels, some of them empty, add up to the trace of
        # the whole 2^n vector; keeps are unordered or hold the top site
        monkeypatch.setattr(basis_mod, "_CHUNK", chunk)
        n = 2 * m_sites
        rng = np.random.default_rng(n)
        keeps = [[0], [n - 1], [n - 1, 0], list(range(n))[::-1][:4]]
        keeps += [[int(s) for s in rng.permutation(n)[:3]] for _ in range(2)]
        bases = [build_basis(n, sector, frame) for sector, frame in (
            (Full(), "z"), (XParity(1, -1), "x"), (SzFixed(m_sites), "z"),
            (K0(XParity(1, 1)), "x"), (K0(SzFixed(m_sites)), "z"))]
        for b in bases:
            for amps in (rng.normal(size=b.dim),
                         rng.normal(size=b.dim) + 1j * rng.normal(size=b.dim)):
                psi = QuantumState(amps, b)
                for keep in keeps:
                    rho = reduce_state(psi, keep).matrix
                    assert np.abs(rho - reduce_dense(psi, keep)).max() <= 1e-14

    @pytest.mark.parametrize("sector,frame", [(XParity(1, 1), "x"), (SzFixed(9), "z")])
    def test_k0_matches_parent_sector_over_many_slices(self, sector, frame):
        # 18 spins: four slices of 2^16 labels at the default _CHUNK, which
        # the K0 state reads through its parent's computed labels, and the
        # parent-sector and full-space states through their stored ones
        n = 18
        k0 = build_basis(n, K0(sector), frame)
        plain = build_basis(n, sector, frame)
        full = build_basis(n, Full(), frame)
        assert len(list(k0.parent.slices(16))) == 4
        rng = np.random.default_rng(3)
        amps = rng.normal(size=k0.dim) + 1j * rng.normal(size=k0.dim)
        spread = amps[k0.orbit] / np.sqrt(k0.sizes[k0.orbit])
        expanded = np.zeros(full.dim, complex)
        expanded[plain.states] = spread
        for keep in ((0, 1), (2, 0, 3), (15,), (5, 14, 9, 12)):
            want = reduce_state(QuantumState(spread, plain), keep).matrix
            got = reduce_state(QuantumState(amps, k0), keep).matrix
            assert np.abs(got - want).max() <= 1e-14
            got = reduce_state(QuantumState(expanded, full), keep).matrix
            assert np.abs(got - want).max() <= 1e-14

    def test_frontal_pair_allocates_no_state_vector(self):
        # a 20-spin amplitude vector alone takes 8 MiB
        p = ModelParams(ASHKIN_TELLER, 10, delta=1.0, beta=1.0)
        psi = ground_state(build_hamiltonian(p, K0(XParity(1, 1)))).ground_state
        tracemalloc.start()
        try:
            reduce_state(psi, (0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_complement_spectra_agree(self):
        # pure global state: rho_A and rho_B share nonzero eigenvalues
        rng = np.random.default_rng(5)
        psi = state(rng.normal(size=32), 5)
        a = np.sort(np.linalg.eigvalsh(reduce_state(psi, [0, 2]).matrix))[::-1]
        b = np.sort(np.linalg.eigvalsh(reduce_state(psi, [1, 3, 4]).matrix))[::-1]
        assert np.allclose(a, b[:4], atol=1e-12)

    def test_bad_arguments(self):
        psi = bell()
        with pytest.raises(ValueError):
            reduce_state(psi, [])
        with pytest.raises(ValueError):
            reduce_state(psi, [0, 0])
        with pytest.raises(ValueError):
            reduce_state(psi, [5])
        # a bool or a float is refused, not truncated onto another site
        for keep in ([True], [0, True], [0, 1.0], [1.7]):
            with pytest.raises(ValueError):
                reduce_state(psi, keep)
        assert np.array_equal(reduce_state(psi, np.array([1, 0])).matrix,
                              reduce_state(psi, [1, 0]).matrix)
        with pytest.raises(CapacityError):
            reduce_state(state(np.ones(1 << 16), 16), list(range(15)))


class TestPartialTranspose:
    def test_involution_and_trace(self):
        rng = np.random.default_rng(2)
        psi = state(rng.normal(size=16) + 1j * rng.normal(size=16), 4)
        rho = reduce_state(psi, [0, 1, 2])
        pt = partial_transpose(rho, (0,))
        assert np.trace(pt) == pytest.approx(1.0, abs=1e-12)
        rho_pt = DensityMatrix(rho.sites, pt)
        assert np.allclose(partial_transpose(rho_pt, (0,)), rho.matrix,
                           atol=1e-13)

    def test_full_transpose_composition(self):
        rng = np.random.default_rng(3)
        psi = state(rng.normal(size=8) + 1j * rng.normal(size=8), 3)
        rho = reduce_state(psi, [0, 2])
        once = DensityMatrix(rho.sites, partial_transpose(rho, (0,)))
        both = partial_transpose(once, (2,))
        assert np.allclose(both, rho.matrix.T, atol=1e-13)

    def test_subset_validation(self):
        rho = reduce_state(bell(), [0, 1])
        with pytest.raises(ValueError):
            partial_transpose(rho, ())
        with pytest.raises(ValueError):
            partial_transpose(rho, (0, 1))
        with pytest.raises(ValueError):
            partial_transpose(rho, (7,))


class TestMeasures:
    def test_bell_pair(self):
        rho = reduce_state(bell(), [0, 1])
        assert negativity(rho) == pytest.approx(1.0, abs=1e-12)
        assert dsb(rho) == pytest.approx(1.0, abs=1e-12)

    def test_product_pair_separable(self):
        plus = np.ones(4) / 2.0
        rho = reduce_state(state(plus, 2), [0, 1])
        assert negativity(rho) <= 1e-12
        assert dsb(rho) <= 1e-12

    def test_negativity_floors_dsb(self):
        rho = DensityMatrix((0, 1), np.eye(4) / 4.0)
        assert dsb(rho) < 0.0
        assert negativity(rho) == 0.0

    def test_entropy_values(self):
        assert von_neumann(reduce_state(bell(), [0])) == pytest.approx(1.0)
        assert von_neumann(reduce_state(state([1, 0, 0, 0], 2), [0])) == 0.0
        quartet = DensityMatrix((0, 1), np.eye(4) / 4.0)
        assert von_neumann(quartet) == pytest.approx(2.0)

    def test_entropy_validation(self):
        with pytest.raises(InvalidStateError):
            von_neumann(DensityMatrix((0,), np.eye(2)))
        bad = DensityMatrix((0,), np.diag([1.5, -0.5]))
        with pytest.raises(InvalidStateError):
            von_neumann(bad)

    def test_validate_rejects_non_hermitian(self):
        m = np.eye(2) / 2.0
        m[0, 1] = 0.3
        with pytest.raises(InvalidStateError):
            validate_density_matrix(DensityMatrix((0,), m))


class TestAnalyticForms:
    def test_frontal_pair_matrix(self):
        rho = frontal_pair_analytic(0.4, 0.2)
        assert np.allclose(np.diag(rho.matrix), [0.5, 0.2, 0.2, 0.1])
        validate_density_matrix(rho)

    def test_frontal_pair_validation(self):
        with pytest.raises(ValueError):
            frontal_pair_analytic(1.5, 0.0)
        with pytest.raises(ValueError):
            frontal_pair_analytic(0.9, -0.9)  # w would be negative

    def test_lambda_matches_pt_of_diagonal_matrix(self):
        # for the diagonal frontal-pair form the minimum PT eigenvalue is
        # known in closed form on both sides of the coupling threshold
        m, g = 0.55, 0.15
        rho = frontal_pair_analytic(m, g)
        assert dsb(rho) == pytest.approx(max(-0.5 + m - 0.5 * g,
                                             -0.5 + 0.5 * g), abs=1e-12)
        assert lambda_analytic(m, g, 0.5) == pytest.approx(-0.5 + m - 0.5 * g)
        assert lambda_analytic(m, g, 1.5) == pytest.approx(-0.5 + 0.5 * g)

    def test_dimer_quartet(self):
        rho = dimer_quartet_analytic()
        assert rho.shape == (16, 16)
        assert np.trace(rho) == pytest.approx(1.0)
        d = DensityMatrix((0, 1, 2, 3), rho)
        validate_density_matrix(d)
        assert von_neumann(d) == pytest.approx(2.0, abs=1e-12)
        # edge qubits are maximally mixed
        half = np.eye(2) / 2.0
        t0 = np.zeros((4, 4))
        t0[1, 1] = t0[2, 2] = t0[1, 2] = t0[2, 1] = 0.5
        assert np.allclose(rho, np.kron(half, np.kron(t0, half)), atol=1e-12)
