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
        # the subset comes from another LAPACK routine than the full solve
        assert np.allclose(low.energies, full.energies[:3], rtol=0, atol=1e-12)
        assert low.gap == pytest.approx(full.gap, abs=1e-12)
        assert low.degenerate == full.degenerate
        assert len(dense_spectrum(h, k=99).states) == 40

    def test_subset_sees_degenerate_ground_level(self):
        # k = 1 still solves level 1, so the gap and the flag see the pair
        h = _DenseWrapper(np.diag([-2.0, -2.0, 0.5, 1.0, 3.0]))
        full, low = dense_spectrum(h), dense_spectrum(h, k=1)
        assert len(low.energies) == 1 and low.degenerate and full.degenerate
        assert low.gap == pytest.approx(full.gap, abs=1e-12)

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

    def test_convergence_error(self, monkeypatch):
        monkeypatch.setattr(eigensolve, "DEFAULT_MAX_ITER", 3)
        h = _DenseWrapper(random_sym(200, 7))
        with pytest.raises(ConvergenceError) as exc:
            lanczos_ground(h, k=1, tol=1e-12)
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
        with pytest.raises(ValueError, match="seed"):
            lanczos_ground(h, seed=-1)

    @pytest.mark.parametrize("v0", [
        np.ones(99), np.ones((100, 1)), np.full(100, np.nan),
        np.r_[np.inf, np.ones(99)], np.zeros(100)])
    def test_start_vector_refused_before_arpack(self, v0, monkeypatch):
        calls = []
        monkeypatch.setattr(eigensolve, "eigsh", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="start vector"):
            lanczos_ground(_DenseWrapper(random_sym(100, 0)), k=2, v0=v0)
        assert calls == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_start_from_neighbouring_states(self, seed):
        # psi0 + psi1 of a nearby matrix: the same pairs, in fewer matvecs
        class Counted(_DenseWrapper):
            matvecs = 0

            def matvec(self, v):
                self.matvecs += 1
                return super().matvec(v)
        near = lanczos_ground(_DenseWrapper(random_sym(300, seed)), k=2)
        mat = random_sym(300, seed) + 0.01 * random_sym(300, seed + 100)
        cold, warm = Counted(mat), Counted(mat)
        res_c = lanczos_ground(cold, k=2, seed=seed)
        res_w = lanczos_ground(warm, k=2, seed=seed, v0=near.states[0].amplitudes
                               + near.states[1].amplitudes)
        w = np.linalg.eigvalsh(mat)[:2]
        assert np.abs(res_w.energies - w).max() <= 1e-9
        assert np.abs(res_c.energies - w).max() <= 1e-9
        assert warm.matvecs < cold.matvecs


class TestGroundState:
    def test_dense_path_below_cutoff(self):
        p = ModelParams(ASHKIN_TELLER, 3, delta=1.0)
        h = build_hamiltonian(p, ground_sector(p))
        res = ground_state(h, k=2)
        assert len(res.energies) == 2

    def test_lanczos_path_above_cutoff(self):
        h = _DenseWrapper(random_sym(200, 2))
        res = ground_state(h, k=2)
        w = np.linalg.eigvalsh(h.mat)
        assert np.allclose(res.energies, w[:2], atol=1e-9)

    def test_more_than_two_levels_solve_densely(self, monkeypatch):
        monkeypatch.setattr(eigensolve, "lanczos_ground", None)
        h = _DenseWrapper(random_sym(200, 2))
        res = ground_state(h, k=5)
        assert np.allclose(res.energies, np.linalg.eigvalsh(h.mat)[:5],
                           atol=1e-12)

    def test_more_than_two_levels_refused_beyond_dense_limit(self):
        class Huge:
            dim = eigensolve.DENSE_LIMIT + 1
        with pytest.raises(CapacityError, match=r"4097 > 4096"):
            ground_state(Huge(), k=3)

    @pytest.mark.parametrize("dim", [40, 200])  # dense and ARPACK paths
    @pytest.mark.parametrize("kw", [{"k": 0}, {"k": -1}, {"tol": -1.0},
                                    {"tol": 0.0}, {"tol": np.nan},
                                    {"tol": np.inf}, {"seed": -1},
                                    {"v0": np.ones(3)}])
    def test_argument_validation(self, dim, kw):
        with pytest.raises(ValueError):
            ground_state(_DenseWrapper(random_sym(dim, 0)), **kw)
