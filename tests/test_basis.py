import tracemalloc

import numpy as np
import pytest

from atxxz import basis
from atxxz.basis import (CapacityError, Full, K0, PauliString, QuantumState,
                         SzFixed, XParity, build_basis, expectation, pauli,
                         pauli_action, popcount)
from atxxz.eigensolve import ground_state
from atxxz.models import (ASHKIN_TELLER, STAGGERED_XXZ, ModelParams,
                          build_hamiltonian)
from oracles import dense_op, expand_full, k0_by_search


def basis_state(label, n, frame="z"):
    b = build_basis(n, Full(), frame=frame)
    amps = np.zeros(b.dim)
    amps[label] = 1.0
    return QuantumState(amps, b)


class TestBuildBasis:
    def test_full_two_spins(self):
        b = build_basis(2, Full())
        assert list(b.states) == [0, 1, 2, 3]

    def test_sz_fixed_counts(self):
        b = build_basis(4, SzFixed(2))
        assert b.dim == 6
        assert all(bin(s).count("1") == 2 for s in b.states)

    def test_xparity_counts(self):
        b = build_basis(4, XParity(1, 1), frame="x")
        assert b.dim == 4
        for s in b.states:
            assert bin(s & 0b0101).count("1") % 2 == 0
            assert bin(s & 0b1010).count("1") % 2 == 0

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_sector_dim_is_closed_form(self, n):
        # 2^n, 2^(n-2) and C(n, k), equal to the enumerated dimensions
        for sector in (Full(), XParity(1, 1), XParity(-1, 1), *map(SzFixed, range(n + 1))):
            frame = "x" if isinstance(sector, XParity) else "z"
            assert basis.sector_dim(n, sector) == build_basis(n, sector, frame).dim
        with pytest.raises(ValueError):
            basis.sector_dim(n, K0(XParity(1, 1)))

    @pytest.mark.parametrize("sector", [Full(), SzFixed(3), XParity(-1, 1)])
    def test_deterministic_and_sorted(self, sector):
        a = build_basis(6, sector, frame="x" if isinstance(sector, XParity) else "z")
        b = build_basis(6, sector, frame="x" if isinstance(sector, XParity) else "z")
        assert np.array_equal(a.states, b.states)
        assert np.all(np.diff(a.states) > 0)

    def test_lookup_roundtrip(self):
        b = build_basis(6, SzFixed(2))
        assert np.array_equal(b.index_of(b.states), np.arange(b.dim))
        with pytest.raises(KeyError):
            b.index_of([0])  # zero set bits, not in the sector

    @pytest.mark.parametrize("label", [7.9, 7.5, -1, 64, np.nan, np.inf])
    @pytest.mark.parametrize("sector,frame", [
        (Full(), "z"), (SzFixed(3), "z"), (XParity(1, 1), "x"),
        (K0(SzFixed(3)), "z"), (K0(XParity(1, 1)), "x")])
    def test_lookup_refuses_bad_labels(self, sector, frame, label):
        # a non-integer label is refused, not truncated onto a row; labels
        # outside [0, 2^n) are refused before they are ranked
        b = build_basis(6, sector, frame=frame)
        with pytest.raises(KeyError):
            b.index_of([b.states[0], label])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_lookup_refuses_exactly_the_outside_labels(self, n):
        # membership is a closed form, the popcounts of the sector
        labels = np.arange(1 << n)
        sectors = [(SzFixed(k), "z") for k in range(n + 1)] + [(Full(), "z")]
        if n % 2 == 0:
            sectors += [(XParity(p1, p2), "x") for p1 in (1, -1) for p2 in (1, -1)]
            sectors += [(K0(XParity(1, 1)), "x"), (K0(XParity(-1, -1)), "x"),
                        (K0(SzFixed(n // 2)), "z")]
        for sector, frame in sectors:
            b = build_basis(n, sector, frame)
            members = set((b.states if b.parent is None else b.parent.labels()).tolist())
            for label in labels:
                if label in members:
                    row = b.index_of([label])[0]
                    assert (b.states[row] == label if b.parent is None
                            else label in symmetry_orbit(int(b.states[row]), n,
                                                         isinstance(sector.parent, XParity)))
                else:
                    with pytest.raises(KeyError):
                        b.index_of([label])

    def test_lookup_takes_integral_floats(self):
        b = build_basis(6, SzFixed(3))
        assert np.array_equal(b.index_of([7.0, 56.0]), b.index_of([7, 56]))
        assert b.index_of([]).size == 0

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            build_basis(29)
        with pytest.raises(CapacityError):
            build_basis(0)

    def test_bad_sector_arguments(self):
        with pytest.raises(ValueError):
            build_basis(4, SzFixed(5))
        with pytest.raises(ValueError):
            build_basis(4, XParity(2, 1))
        with pytest.raises(ValueError):
            build_basis(3, XParity(1, 1))


@pytest.mark.parametrize("n", range(1, 17))
def test_enumeration_matches_brute_force(n, monkeypatch):
    # every SzFixed(k), and every XParity pair at even n, against the
    # popcount filter of all 2^n labels: the stored labels, those the sector
    # computes from rank ranges and runs where it stores none, membership,
    # and rows and orbits by rank. Chunks of 37 rows end inside SzFixed high
    # parts, and the ranges start and end on both sides of chunk and
    # high-part boundaries
    monkeypatch.setattr(basis, "_CHUNK", 37)
    rng = np.random.default_rng(n)
    labels = np.arange(1 << n)
    sigma = sum(1 << i for i in range(0, n, 2))
    sectors = [(SzFixed(k), popcount(labels) == k, "z") for k in range(n + 1)]
    if n % 2 == 0:
        sectors += [(XParity(p1, p2), (
            ((popcount(labels & sigma) % 2) == (p1 == -1))
            & ((popcount(labels & (sigma << 1)) % 2) == (p2 == -1))), "x")
            for p1 in (1, -1) for p2 in (1, -1)]
    for sector, inside, frame in sectors:
        want = labels[inside]
        b = build_basis(n, sector, frame=frame)
        assert b.states.dtype == np.int64 and np.array_equal(b.states, want)
        assert np.array_equal(b.index_of(b.states), np.arange(b.dim))
        space = basis._label_space(n, sector, frame)
        assert space.states is None and space.dim == b.dim
        assert np.array_equal(space.labels(), want)
        assert np.array_equal(space.contains(labels), inside)
        cuts = list(range(0, b.dim + 1, 37))
        if isinstance(sector, SzFixed):
            cuts += list(space.lin[0])
        cuts = np.clip(np.add.outer(cuts, [-1, 0, 1]).ravel(), 0, b.dim)
        for lo, hi in rng.choice(cuts, size=(40, 2)):
            assert np.array_equal(space.labels(lo, hi), want[lo:hi])
        for low in range(n // 2 + 1, n + 1):
            runs = list(space.slices(low))
            assert [lo for lo, _, _ in runs[1:]] == [hi for _, hi, _ in runs[:-1]]
            assert runs[0][0] == 0 and runs[-1][1] == b.dim
            for lo, hi, bits in runs:
                assert len(np.unique(want[lo:hi] >> low)) == 1
                assert np.array_equal(bits, want[lo:hi] & ((1 << low) - 1))
        if n % 2 == 0 and sector in (XParity(1, 1), XParity(-1, -1), SzFixed(n // 2)):
            k0 = build_basis(n, K0(sector), frame=frame)
            assert np.array_equal(k0.index_of(k0.parent.labels()), k0.orbit)


def reachable_arrays(obj, path="basis"):
    """(path, array) of every numpy array reachable from obj through
    attributes, tuples and lists."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, (tuple, list)):
        for i, item in enumerate(obj):
            yield from reachable_arrays(item, f"{path}[{i}]")
    elif hasattr(obj, "__dict__"):
        for name, value in vars(obj).items():
            yield from reachable_arrays(value, f"{path}.{name}")


def symmetry_orbit(label, n, exchange):
    """Closure of one label under 2-site translation, reflection and
    exchange (swap of bits 2j, 2j+1) or spin flip, on bit lists."""
    def images(bits):
        yield bits[-2:] + bits[:-2]
        yield bits[::-1]
        if exchange:
            yield [bits[i ^ 1] for i in range(n)]
        else:
            yield [1 - b for b in bits]
    start = [(label >> i) & 1 for i in range(n)]
    seen, todo = {tuple(start)}, [start]
    while todo:
        for img in images(todo.pop()):
            if tuple(img) not in seen:
                seen.add(tuple(img))
                todo.append(img)
    return {sum(b << i for i, b in enumerate(bits)) for bits in seen}


class TestK0Basis:
    # 10 and 12 spins: the bit reversal pads the labels to whole bytes
    @pytest.mark.parametrize("m_sites", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("parent,frame", [("xparity", "x"), ("szfixed", "z")])
    def test_orbits_match_closure(self, m_sites, parent, frame):
        n = 2 * m_sites
        sector = XParity(1, 1) if parent == "xparity" else SzFixed(m_sites)
        b = build_basis(n, K0(sector), frame=frame)
        members = {}
        for s, row in zip(b.parent.labels(), b.orbit):
            members.setdefault(int(row), set()).add(int(s))
        assert len(members) == b.dim
        for row, labels in members.items():
            orbit = symmetry_orbit(min(labels), n, parent == "xparity")
            assert labels == orbit
            assert b.states[row] == min(orbit) and b.sizes[row] == len(orbit)

    def test_dimensions(self):
        # k=0 sector sizes at 14, 16 and 20 spins, from the parent's 4096 /
        # 16384 / 262144 (Ashkin-Teller) and 3432 / 12870 / 184756 (XXZ) states
        for m, at, xxz in ((7, 181, 155), (8, 627, 496), (10, 6990, 4971)):
            assert build_basis(2 * m, K0(XParity(1, 1)), frame="x").dim == at
            assert build_basis(2 * m, K0(SzFixed(m))).dim == xxz

    @pytest.mark.parametrize("m_sites", [8, 9, 10])
    @pytest.mark.parametrize("parent,frame", [("xparity", "x"), ("szfixed", "z")])
    def test_arrays_match_search_oracle(self, m_sites, parent, frame):
        sector = XParity(1, 1) if parent == "xparity" else SzFixed(m_sites)
        b = build_basis(2 * m_sites, K0(sector), frame=frame)
        for got, want in zip((b.states, b.orbit, b.sizes), k0_by_search(b.parent)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("parent,frame", [("xparity", "x"), ("szfixed", "z")])
    def test_chunked_images_match_search_oracle(self, parent, frame, monkeypatch):
        # chunks that end mid-orbit, as 2^20-row chunks do from 24 spins on
        monkeypatch.setattr(basis, "_CHUNK", 1000)
        sector = XParity(1, 1) if parent == "xparity" else SzFixed(8)
        b = build_basis(16, K0(sector), frame=frame)
        for got, want in zip((b.states, b.orbit, b.sizes), k0_by_search(b.parent)):
            assert np.array_equal(got, want)

    # 3 to 16 parent chunks, past the reach of the search oracle
    @pytest.mark.parametrize("m_sites,at_dim,xxz_dim", [(10, 6990, 4971), (11, 24367, 16545)])
    @pytest.mark.parametrize("parent,frame", [("xparity", "x"), ("szfixed", "z")])
    def test_invariants_over_many_chunks(self, m_sites, at_dim, xxz_dim, parent, frame):
        n = 2 * m_sites
        sector = XParity(1, 1) if parent == "xparity" else SzFixed(m_sites)
        b = build_basis(n, K0(sector), frame=frame)
        assert b.parent.dim > 2 * basis._CHUNK
        assert b.dim == (at_dim if parent == "xparity" else xxz_dim)
        assert np.all(np.diff(b.states) > 0)
        assert np.array_equal(b.orbit[b.parent.rank(b.states)], np.arange(b.dim))
        assert np.array_equal(np.bincount(b.orbit), b.sizes)
        assert b.sizes.sum() == b.parent.dim
        even = sum(1 << i for i in range(0, n, 2))
        if parent == "xparity":
            exchange = lambda s: ((s & even) << 1) | ((s >> 1) & even)
        else:
            exchange = lambda s: s ^ ((1 << n) - 1)
        s = b.states.astype(np.uint32)
        for image in basis._images(s, n, exchange):
            assert np.all(s <= image)

    @pytest.mark.parametrize("m_sites", [6, 7, 8])
    @pytest.mark.parametrize("parent,frame", [("xparity", "x"), ("szfixed", "z")])
    def test_k0_basis_keeps_only_orbit_as_long_as_parent(self, m_sites, parent, frame):
        # the parent's labels are computed chunk by chunk and never stored
        sector = XParity(1, 1) if parent == "xparity" else SzFixed(m_sites)
        b = build_basis(2 * m_sites, K0(sector), frame=frame)
        long = [path for path, a in reachable_arrays(b) if a.size >= b.parent.dim]
        assert long == ["basis.orbit"] and b.orbit.dtype == np.int32
        assert b.parent.states is None

    @pytest.mark.parametrize("sector", [XParity(1, -1), SzFixed(2), Full()])
    def test_refuses_asymmetric_parent(self, sector):
        with pytest.raises(ValueError):
            build_basis(6, K0(sector), frame="x")

    def test_expand_full_spreads_orbits(self):
        b = build_basis(8, K0(XParity(1, 1)), frame="x")
        amps = np.random.default_rng(0).normal(size=b.dim)
        psi = QuantumState(amps / np.linalg.norm(amps), b)
        full = expand_full(psi)
        assert len(full) == 256
        assert np.linalg.norm(full) == pytest.approx(1.0, abs=1e-12)
        for row, rep in enumerate(b.states):
            orbit = sorted(symmetry_orbit(int(rep), 8, True))
            assert np.allclose(full[orbit], amps[row] / np.linalg.norm(amps)
                               / np.sqrt(len(orbit)), atol=1e-14)
        assert not full[np.setdiff1d(np.arange(256), b.parent.labels())].any()
        # Pauli strings read the K0 state as its expansion
        expanded = QuantumState(full, build_basis(8, Full(), frame="x"))
        assert expectation(psi, pauli((0, "z"), (2, "z"))) == pytest.approx(
            expectation(expanded, pauli((0, "z"), (2, "z"))), abs=1e-14)


class TestPauliString:
    def test_repeated_site_rejected(self):
        with pytest.raises(ValueError):
            PauliString(((0, "x"), (0, "z")))

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            PauliString(((0, "w"),))

    def test_non_integral_site_rejected(self):
        # a site that is not an integer once matched no bit and acted as
        # the identity: <Z_0> on (|01> + |10>)/sqrt(2) read 1.0, not 0
        for site in (0.5, 1.0, True, "0", None):
            with pytest.raises(ValueError, match="not an integer"):
                pauli((site, "z"))
        psi = QuantumState(np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2),
                           build_basis(2))
        assert expectation(psi, pauli((np.int64(0), "z"))) == pytest.approx(0.0)

    def test_sigma_z_on_up(self):
        moved, target, left = pauli_action(basis_state(0, 1), pauli((0, "z")))
        assert np.array_equal(moved, [1.0, 0.0])
        assert np.array_equal(target, [1.0, 0.0]) and left == 0.0

    def test_sigma_x_flips(self):
        # label s goes to s ^ 1: the amplitude of |0> lands on |1>, where
        # the state has none
        moved, target, _ = pauli_action(basis_state(0, 1), pauli((0, "x")))
        assert np.array_equal(moved, [1.0, 0.0])
        assert np.array_equal(target, [0.0, 1.0])

    def test_yy_on_01_matches_dense(self):
        # |01> means bit 0 set: label 1 on two spins; YY sends it to label 2
        s = pauli((0, "y"), (1, "y"))
        psi = basis_state(1, 2)
        moved, _, _ = pauli_action(psi, s)
        out = np.zeros(4, dtype=complex)
        out[np.arange(4) ^ 3] = moved
        assert np.allclose(out, dense_op(s, 2) @ psi.amplitudes)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        sites = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        terms = tuple((int(s), "xyz"[rng.integers(3)]) for s in sites)
        string = PauliString(terms, coefficient=complex(rng.normal(), rng.normal()))
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi = QuantumState(amps, build_basis(n))
        moved, target, left = pauli_action(psi, string)
        dense = dense_op(string, n) @ amps
        assert np.vdot(target, moved) == pytest.approx(np.vdot(amps, dense),
                                                       abs=1e-12)
        assert left == 0.0

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_involution(self, axis):
        rng = np.random.default_rng(7)
        amps = rng.normal(size=8)
        psi = QuantumState(amps.astype(complex), build_basis(3))
        s = pauli((1, axis))
        moved, target, left = pauli_action(psi, s, s)
        assert np.allclose(moved, psi.amplitudes, atol=1e-12)
        assert np.allclose(target, psi.amplitudes, atol=1e-12) and left == 0.0

    def test_norm_preservation(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=16)
        psi = QuantumState(amps, build_basis(4))
        moved, _, _ = pauli_action(psi, pauli((0, "x"), (2, "z")))
        assert np.linalg.norm(moved) == pytest.approx(psi.norm, abs=1e-12)

    def test_x_frame_conjugation(self):
        # in the x frame, label 0 is the all-(sigma^x=+1) state
        psi = basis_state(0, 2, frame="x")
        assert expectation(psi, pauli((0, "x"))) == pytest.approx(1.0)
        assert expectation(psi, pauli((1, "x"))) == pytest.approx(1.0)


class TestExpectation:
    def test_z_eigenstate(self):
        assert expectation(basis_state(0, 1), pauli((0, "z"))) == pytest.approx(1.0)

    def test_plus_state(self):
        b = build_basis(1)
        psi = QuantumState(np.array([1.0, 1.0]) / np.sqrt(2), b)
        assert expectation(psi, pauli((0, "x"))) == pytest.approx(1.0)

    def test_bell_zz(self):
        b = build_basis(2)
        psi = QuantumState(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2), b)
        assert expectation(psi, pauli((0, "z"), (1, "z"))) == pytest.approx(1.0)

    def test_sector_states_agree(self):
        # XX on an intra-dimer pair leaves SzFixed and K0, yet its
        # expectation value is defined on every form of the ground state
        p = ModelParams(STAGGERED_XXZ, 3, delta=1.0)
        sz = ground_state(build_hamiltonian(p, SzFixed(3))).ground_state
        k0 = ground_state(build_hamiltonian(p, K0(SzFixed(3)))).ground_state
        xx = pauli((0, "x"), (1, "x"))
        full = expand_full(sz)
        want = np.vdot(full, dense_op(xx, 6) @ full).real
        assert want == pytest.approx(0.62283903060711, abs=1e-12)
        assert expectation(sz, xx) == pytest.approx(want, abs=1e-14)
        assert expectation(k0, xx) == pytest.approx(want, abs=1e-14)

    def test_k0_expectation_takes_one_chunk_at_a_time(self):
        # 20 spins: the K0 state spreads over 2^18 parent rows, and the
        # whole moved/target pair of pauli_action peaks at 6.4 MiB
        p = ModelParams(ASHKIN_TELLER, 10, delta=1.0, beta=1.0)
        psi = ground_state(build_hamiltonian(p, K0(XParity(1, 1)))).ground_state
        string = pauli((0, "x"), (2, "x"))
        tracemalloc.start()
        try:
            value = expectation(psi, string)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20
        moved, target, _ = pauli_action(psi, string)
        assert abs(value - np.vdot(target, moved).real) <= 1e-14

    def test_non_hermitian_rejected(self):
        b = build_basis(1)
        psi = QuantumState(np.array([1.0, 1.0]) / np.sqrt(2), b)
        with pytest.raises(ValueError):
            expectation(psi, pauli((0, "x"), coefficient=1j))
