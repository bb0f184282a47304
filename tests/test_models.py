import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from atxxz import (ModelParams, build_hamiltonian,
                   dense_spectrum, ground_sector, link_variable)
from atxxz import basis as basis_mod, kernels
from atxxz.basis import Full, K0, SzFixed, XParity, pauli
from atxxz.models import ASHKIN_TELLER, STAGGERED_XXZ, hamiltonian_terms
from oracles import classify_sector, dense_op


def xxz_dense_oracle(p):
    """Independent dense build straight from the Pauli definition."""
    n = p.n_spins
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for j in range(p.m_sites):
        for (a, b, c) in (((2 * j), (2 * j + 1), 1.0),
                          ((2 * j + 1), (2 * j + 2) % n, p.beta)):
            for ax in ("x", "y"):
                h -= c * dense_op(pauli((a, ax), (b, ax)), n)
            h += c * p.delta * dense_op(pauli((a, "z"), (b, "z")), n)
    return h.real


def at_dense_oracle(p):
    """Dense physical-frame build, then rotated to the x frame."""
    n = p.n_spins
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for j in range(p.m_sites):
        s, t = 2 * j, 2 * j + 1
        h -= (dense_op(pauli((s, "x")), n) + dense_op(pauli((t, "x")), n)
              + p.delta * dense_op(pauli((s, "x"), (t, "x")), n))
        sp_, tp = (2 * ((j + 1) % p.m_sites)), (2 * ((j + 1) % p.m_sites) + 1)
        if sp_ == s:  # single site: the periodic bond squares to the identity
            eye = np.eye(1 << n)
            h -= p.beta * (2.0 + p.delta) * eye
            continue
        zz_s = dense_op(pauli((s, "z"), (sp_, "z")), n)
        zz_t = dense_op(pauli((t, "z"), (tp, "z")), n)
        zz4 = dense_op(pauli((s, "z"), (sp_, "z"), (t, "z"), (tp, "z")), n)
        h -= p.beta * (zz_s + zz_t + p.delta * zz4)
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
        {"model": "ising"}, {"m_sites": 0}, {"m_sites": -1}, {"model": "AT"},
        {"delta": np.inf}, {"beta": -np.inf}, {"delta": np.nan},
        {"delta": -np.inf}, {"beta": np.nan}, {"beta": np.inf},
        {"m_sites": 2.0}, {"m_sites": 2.5}, {"m_sites": "3"},
        {"m_sites": True}])
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

    @pytest.mark.parametrize("model", [ASHKIN_TELLER, STAGGERED_XXZ])
    @pytest.mark.parametrize("m_sites", [1, 2])
    def test_canonical_csr(self, model, m_sites):
        # M = 1 and 2 emit duplicate COO entries, which the CSR constructor sums
        p = ModelParams(model, m_sites, delta=0.7, beta=1.3)
        for sector in (Full(), ground_sector(p)):
            assert build_hamiltonian(p, sector).matrix.has_canonical_format

    def test_dimer_ground_energy(self):
        # single dimer, uniform couplings: E0 = -6 on the triplet-0 state
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
    @pytest.mark.parametrize("m_sites", [1, 2, 3, 4])
    def test_build_on_earlier_basis(self, model, m_sites):
        # h.basis is no sector descriptor and is refused; a second build
        # from the sector itself equals the first, bit for bit
        p = ModelParams(model, m_sites, delta=0.7, beta=1.2)
        q = replace(p, delta=-0.4, beta=-0.6)
        for sector in (Full(), ground_sector(p), K0(ground_sector(p))):
            h = build_hamiltonian(p, sector)
            with pytest.raises(ValueError, match="unknown sector descriptor"):
                build_hamiltonian(q, h.basis)
            a, b = (build_hamiltonian(q, sector).matrix for _ in range(2))
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(a, attr), getattr(b, attr))

    @pytest.mark.parametrize("coupling", ["delta", "beta"])
    @pytest.mark.parametrize("model", [ASHKIN_TELLER, STAGGERED_XXZ])
    @pytest.mark.parametrize("m_sites", [1, 2, 3, 4])
    def test_pencil_holds_both_terms(self, model, m_sites, coupling):
        # H(x) = A + x B: the pencil build at x holds A = H(x) as its matrix
        # and B as its slope. A plain build drops the entries a vanishing
        # coupling zeroes, so only values are compared; the pencil's own
        # pattern does not depend on x
        patterns = {}
        for x in (0.0, -0.6):
            p = ModelParams(model, m_sites, **{"delta": 0.7, "beta": 1.3,
                                               coupling: x})
            for sector in (Full(), ground_sector(p), K0(ground_sector(p))):
                pencil = build_hamiltonian(p, sector, coupling)
                a, b = pencil.matrix, pencil.slope
                h0, h1 = (build_hamiltonian(replace(p, **{coupling: y}),
                                            sector).matrix for y in (x, x + 1))
                assert a.dtype == b.dtype == h0.dtype == np.float64
                assert b.shape == a.data.shape
                assert (a != h0).nnz == 0
                ab = a.copy()
                ab.data = a.data + b
                assert abs(ab - h1).max() <= 1e-14
                patterns.setdefault(sector, []).append((a.indptr, a.indices))
        for (p0, i0), (p1, i1) in patterns.values():
            assert np.array_equal(p0, p1) and np.array_equal(i0, i1)

    def test_misfit_basis_refused(self):
        # a basis of another size or frame is refused as any basis is
        at = build_hamiltonian(ModelParams(ASHKIN_TELLER, 2), Full()).basis
        for p in (ModelParams(ASHKIN_TELLER, 3), ModelParams(STAGGERED_XXZ, 2)):
            with pytest.raises(ValueError, match="unknown sector descriptor"):
                build_hamiltonian(p, at)
        for sector in (Full(), SzFixed(2)):  # z-frame bases
            xxz = build_hamiltonian(ModelParams(STAGGERED_XXZ, 2), sector).basis
            with pytest.raises(ValueError, match="unknown sector descriptor"):
                build_hamiltonian(ModelParams(ASHKIN_TELLER, 2), xxz)

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


class TestK0Sector:
    @pytest.mark.parametrize("model", [ASHKIN_TELLER, STAGGERED_XXZ])
    @pytest.mark.parametrize("m_sites", [1, 2, 3, 4, 5])
    def test_projects_parent_hamiltonian(self, model, m_sites):
        # the symmetric subspace is invariant for every (delta, beta)
        for delta, beta in ((1.0, 1.0), (0.3, 1.6), (-0.7, 0.5), (-1.0, 2.0),
                            (2.0, -0.8)):
            p = ModelParams(model, m_sites, delta=delta, beta=beta)
            parent = build_hamiltonian(p, ground_sector(p))
            k0 = build_hamiltonian(p, K0(ground_sector(p)))
            b = k0.basis
            iso = np.zeros((parent.dim, k0.dim))
            iso[np.arange(parent.dim), b.orbit] = 1.0 / np.sqrt(b.sizes[b.orbit])
            assert np.abs(iso.T @ iso - np.eye(k0.dim)).max() < 1e-12
            assert np.abs(iso.T @ parent.dense() @ iso - k0.dense()).max() < 1e-12

    def test_sector_model_mismatch(self):
        with pytest.raises(ValueError):
            build_hamiltonian(ModelParams(ASHKIN_TELLER, 2), K0(SzFixed(2)))
        with pytest.raises(ValueError):
            build_hamiltonian(ModelParams(STAGGERED_XXZ, 2), K0(XParity(1, 1)))


def isometry(b):
    """P with H_sector = P^T H_full P: the identity's columns at a sector's
    labels, or a K0 orbit's labels each weighted 1/sqrt(N_r)."""
    iso = np.zeros((1 << b.n_spins, b.dim))
    if b.parent is None:
        iso[b.states, np.arange(b.dim)] = 1.0
    else:
        iso[b.parent.states, b.orbit] = 1.0 / np.sqrt(b.sizes[b.orbit])
    return iso


class TestColumnChunks:
    @pytest.mark.parametrize("pencil", [None, "delta", "beta"])
    @pytest.mark.parametrize("model", [ASHKIN_TELLER, STAGGERED_XXZ])
    @pytest.mark.parametrize("m_sites", [1, 2, 3, 4, 5])
    def test_single_columns_match_one_chunk(self, monkeypatch, model, m_sites,
                                            pencil):
        p = ModelParams(model, m_sites, delta=0.7, beta=1.3)
        other = XParity(1, -1) if model == ASHKIN_TELLER else SzFixed(m_sites - 1)
        sectors = (Full(), ground_sector(p), other, K0(ground_sector(p)))
        # below M = 6 every sector is one chunk of columns at the default budget
        whole = [build_hamiltonian(p, sector, pencil) for sector in sectors]
        dense = {x: build_hamiltonian(replace(p, **{pencil: x}), Full()).dense()
                 for x in ((getattr(p, pencil), getattr(p, pencil) + 1)
                           if pencil else ())}
        dense[None] = build_hamiltonian(p, Full()).dense()
        # a budget of 3 terms: 3 // per_col columns per chunk (one, but for
        # the Ashkin-Teller chain at M = 1, which has no flips), and parent
        # chunks of 3 rows, which end mid-orbit
        monkeypatch.setattr(basis_mod, "_CHUNK", 3)
        per_col = 1 + len({x for x, _, _ in hamiltonian_terms(p) if x})
        width = max(1, 3 // per_col)
        calls = []
        for attr in ("at_entries", "xxz_entries"):
            real = getattr(kernels, attr)
            monkeypatch.setattr(kernels, attr, lambda *a, f=real: (
                calls.append(len(a[0])) or f(*a)))
        for sector, one in zip(sectors, whole):
            calls.clear()
            h = build_hamiltonian(p, sector, pencil)
            assert calls == [min(width, h.dim - lo)
                             for lo in range(0, h.dim, width)]
            a = h.matrix
            assert np.array_equal(a.indptr, one.matrix.indptr)
            assert np.array_equal(a.indices, one.matrix.indices)
            assert np.abs(a.data - one.matrix.data).max() <= 1e-14
            iso = isometry(h.basis)
            if pencil is None:
                assert h.slope is None
                pairs = [(a.toarray(), dense[None])]
            else:
                assert np.abs(h.slope - one.slope).max() <= 1e-14
                x = getattr(p, pencil)
                b = a.copy()
                b.data = a.data + h.slope
                pairs = [(a.toarray(), dense[x]), (b.toarray(), dense[x + 1])]
            for got, full in pairs:
                assert np.abs(got - iso.T @ full @ iso).max() <= 1e-12

    def test_k0_pencil_build_stays_small(self):
        # 20 spins: the parent's labels take 2 MiB and the int32 orbit 1 MiB,
        # the CSR pattern with A and B 4.1 MiB, and one chunk of columns'
        # temporaries about 3.5 MiB. Whole-sector triplet arrays and an int64
        # orbit peaked at 18.2 MiB
        p = ModelParams(ASHKIN_TELLER, 10, delta=1.0, beta=1.0)
        tracemalloc.start()
        try:
            h = build_hamiltonian(p, K0(XParity(1, 1)), "delta")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 << 20
        assert h.dim == 6990 and h.slope.dtype == np.float64


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
        assert link_variable("eta", 1, p).terms == ((0, "x"),)
        assert link_variable("gamma", 1, p).terms == ((1, "x"),)
        assert link_variable("eta", 2, p).terms == ((0, "z"), (2, "z"))
        assert link_variable("gamma", 4, p).terms == ((3, "z"), (1, "z"))

    def test_xxz_realizations(self):
        p = ModelParams(STAGGERED_XXZ, 2)
        assert link_variable("eta", 1, p).terms == ((0, "x"), (1, "x"))
        assert link_variable("gamma", 1, p).terms == ((0, "y"), (1, "y"))
        assert link_variable("eta", 2, p).terms == ((1, "y"), (2, "y"))
        assert link_variable("gamma", 4, p).terms == ((3, "x"), (0, "x"))

    def test_self_wrapped_bond_is_identity(self):
        p = ModelParams(ASHKIN_TELLER, 1)
        assert link_variable("eta", 2, p).terms == ()
