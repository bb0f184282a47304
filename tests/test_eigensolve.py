import numpy as np
import pytest
from scipy.sparse.linalg import ArpackError

from atxxz import (ModelParams, build_hamiltonian, dense_spectrum,
                   ground_sector, lanczos_ground)
from atxxz.basis import CapacityError, Full, SpinBasis
from atxxz import eigensolve
from atxxz.eigensolve import ConvergenceError, ground_state
from atxxz.models import ASHKIN_TELLER, STAGGERED_XXZ


class _DenseWrapper:
    """Minimal Hamiltonian stand-in for solver edge-case tests."""

    def __init__(self, mat):
        self.mat = np.asarray(mat, dtype=float)
        n = int(np.log2(len(mat)))
        self.basis = SpinBasis(max(n, 1), np.arange(len(mat), dtype=np.int64))

    @property
    def dim(self):
        return len(self.mat)

    def dense(self):
        return self.mat

    def matvec(self, v):
        return self.mat @ v


def random_sym(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    return (a + a.T) / 2.0


class TestDense:
    def test_matches_numpy(self):
        h = _DenseWrapper(random_sym(40, 0))
        res = dense_spectrum(h)
        w = np.linalg.eigvalsh(h.mat)
        assert np.allclose(res.energies, w, atol=1e-12)
        assert res.gap == pytest.approx(w[1] - w[0])

    def test_lowest_k_levels(self):
        h = _DenseWrapper(random_sym(40, 0))
        full, low = dense_spectrum(h), dense_spectrum(h, k=3)
        assert len(low.energies) == len(low.states) == len(low.residuals) == 3
        assert np.array_equal(low.energies, full.energies[:3])
        assert (low.gap, low.degenerate) == (full.gap, full.degenerate)
        assert len(dense_spectrum(h, k=99).states) == 40

    def test_capacity_refusal(self):
        p = ModelParams(STAGGERED_XXZ, 7, delta=1.0)
        h = build_hamiltonian(p, Full())  # dim 16384
        with pytest.raises(CapacityError):
            dense_spectrum(h)


class TestLanczos:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2])
    def test_random_matrix_oracle(self, seed, k):
        # dims 2 and 3 sit at ARPACK's k < dim limit; dim == k solves densely
        for dim in (300, 2, 3):
            h = _DenseWrapper(random_sym(dim, seed))
            res = lanczos_ground(h, k=k, seed=seed)
            w = np.linalg.eigvalsh(h.mat)
            assert np.allclose(res.energies, w[:k], atol=1e-9)
            assert all(res.converged)
            assert res.residuals.max() < 1e-10

    @pytest.mark.parametrize("model", [ASHKIN_TELLER, STAGGERED_XXZ])
    def test_chain_matches_dense(self, model):
        p = ModelParams(model, 4, delta=0.8, beta=1.3)
        h = build_hamiltonian(p, ground_sector(p))
        res_l = lanczos_ground(h, k=2, seed=0)
        res_d = dense_spectrum(h)
        assert res_l.ground_energy == pytest.approx(res_d.ground_energy, abs=1e-9)
        assert res_l.energies[1] == pytest.approx(res_d.energies[1], abs=1e-9)
        # eigenvector agreement up to sign
        overlap = abs(res_l.ground_state.amplitudes
                      @ res_d.ground_state.amplitudes)
        assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_deterministic_given_seed(self):
        h = _DenseWrapper(random_sym(120, 5))
        a = lanczos_ground(h, k=2, seed=3)
        b = lanczos_ground(h, k=2, seed=3)
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.ground_state.amplitudes,
                              b.ground_state.amplitudes)

    def test_degenerate_spectrum_flagged_dense(self):
        # the dense path resolves and flags exact degeneracy; single-vector
        # Lanczos sees only one copy but still returns the right ground energy
        mat = np.diag([-2.0, -2.0, 0.5, 1.0, 3.0, 4.0, 5.0, 6.0])
        res_d = ground_state(_DenseWrapper(mat), k=2)
        assert res_d.degenerate
        assert np.allclose(res_d.energies, [-2.0, -2.0], atol=1e-12)
        res_l = lanczos_ground(_DenseWrapper(mat), k=2, seed=0)
        assert res_l.ground_energy == pytest.approx(-2.0, abs=1e-9)

    def test_low_rank_early_termination(self):
        # Krylov space exhausts after a handful of steps; deflation must
        # still deliver both requested eigenpairs
        rng = np.random.default_rng(1)
        u = rng.normal(size=(64, 3))
        mat = u @ np.diag([-5.0, -1.0, 2.0]) @ u.T / 64.0
        res = lanczos_ground(_DenseWrapper(mat), k=2, seed=0)
        w = np.linalg.eigvalsh(mat)
        assert np.allclose(res.energies, w[:2], atol=1e-9)

    def test_convergence_error(self):
        h = _DenseWrapper(random_sym(200, 7))
        with pytest.raises(ConvergenceError) as exc:
            lanczos_ground(h, k=1, max_iter=3, tol=1e-12)
        assert exc.value.best_residual > 0

    def test_arpack_error_becomes_convergence_error(self, monkeypatch):
        def broken(*a, **k):
            raise ArpackError(-9999)
        monkeypatch.setattr(eigensolve, "eigsh", broken)
        with pytest.raises(ConvergenceError) as exc:
            lanczos_ground(_DenseWrapper(random_sym(50, 0)), k=2)
        assert 0 < exc.value.best_residual < np.inf

    def test_argument_validation(self):
        h = _DenseWrapper(random_sym(8, 0))
        with pytest.raises(ValueError):
            lanczos_ground(h, k=3)
        with pytest.raises(ValueError):
            lanczos_ground(h, tol=0.0)
        with pytest.raises(ValueError):
            lanczos_ground(_DenseWrapper(np.eye(1)), k=2)


class TestGroundState:
    def test_dense_path_below_cutoff(self):
        p = ModelParams(ASHKIN_TELLER, 3, delta=1.0)
        h = build_hamiltonian(p, ground_sector(p))
        res = ground_state(h, k=2)
        assert len(res.energies) == 2
        assert all(res.converged)

    def test_lanczos_path_above_cutoff(self):
        h = _DenseWrapper(random_sym(200, 2))
        res = ground_state(h, k=2)
        w = np.linalg.eigvalsh(h.mat)
        assert np.allclose(res.energies, w[:2], atol=1e-9)
