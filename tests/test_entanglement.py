import numpy as np
import pytest

from atxxz.basis import (K0, CapacityError, Full, QuantumState, SzFixed,
                         XParity, build_basis)
from atxxz.entanglement import (DensityMatrix, InvalidStateError, dsb,
                                min_pt_eigenvalue, negativity,
                                partial_transpose, reduce_state, von_neumann)
from oracles import (dimer_quartet_analytic, frontal_pair_analytic,
                     lambda_analytic, reduce_by_labels,
                     validate_density_matrix)


def state(amps, n, frame="z"):
    return QuantumState(np.asarray(amps, dtype=complex),
                        build_basis(n, Full(), frame=frame))


def bell(n=2):
    v = np.zeros(1 << n)
    v[0] = v[(1 << n) - 1] = 1.0 / np.sqrt(2.0)
    return state(v, n)


def reduce_oracle(psi, keep):
    """Partial trace by a transpose of the full 2^n tensor."""
    n = psi.basis.n_spins
    amps = psi.expand_full().amplitudes
    # numpy axis q holds bit n-1-q; order kept bits so keep[0] lands on the
    # least significant position of the row index
    tens = np.transpose((amps / np.linalg.norm(amps)).reshape(
        (2,) * n), [n - 1 - s for s in reversed(keep)] +
        [n - 1 - s for s in range(n) if s not in keep])
    k = len(keep)
    mat = tens.reshape(1 << k, -1)
    return mat @ mat.conj().T


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
        # the tensor oracle shares the implementation's algorithm; the label
        # loop reads the sector labels and never builds the 2^n vector
        for psi in oracle_states():
            rho = reduce_state(psi, keep)
            for oracle in (reduce_oracle, reduce_by_labels):
                assert np.allclose(rho.matrix, oracle(psi, keep), atol=1e-12)
            validate_density_matrix(rho)

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
        assert min_pt_eigenvalue(rho) == pytest.approx(-0.5, abs=1e-12)

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
