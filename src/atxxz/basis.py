"""Spin-1/2 computational bases, symmetry sectors, and Pauli-string operations.

States are labelled by integers: spin (or qubit) ``i`` occupies bit ``i``,
and bit value 0 means eigenvalue +1 of the diagonal Pauli of the basis
frame ("z" frame: sigma^z = +1, i.e. spin up; "x" frame: sigma^x = +1).
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# a Full basis's 2^28 int64 labels take 2 GiB; _images is exact to 32 spins
MAX_SPINS = 28

# labels per chunk of a basis enumeration, terms per chunk of columns of a
# Hamiltonian build, and amplitudes per slice of a partial trace; a power of
# two
_CHUNK = 1 << 16

# bit-reversed value of each byte
_REVERSED_BYTE = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)],
                          dtype=np.uint32)


class CapacityError(Exception):
    """Requested object exceeds the supported problem size."""


# --- sector descriptors ---------------------------------------------------

@dataclass(frozen=True)
class Full:
    """No symmetry restriction."""


@dataclass(frozen=True)
class SzFixed:
    """Fixed number of down spins (set bits); U(1) magnetization sector."""
    n_up: int


@dataclass(frozen=True)
class XParity:
    """Popcount parities (+1 even, -1 odd) of sigma bits and tau bits.

    Meaningful in the x frame, where the two species parity operators are
    diagonal. Sigma spins sit on even bit positions, tau spins on odd ones.
    """
    p1: int
    p2: int


@dataclass(frozen=True)
class K0:
    """States of ``parent`` even under translation, reflection and exchange.

    ``parent`` is XParity(p, p) in the x frame, where exchange swaps the
    sigma (even) and tau (odd) bits, or SzFixed(n/2) in the z frame, where
    it is the global spin flip. Translation moves labels by two bits and
    reflection reverses them. A basis label is the smallest label of its
    orbit; its basis vector is the normalized sum over the orbit.
    """
    parent: object


def popcount(x):
    """Number of set bits; works elementwise on integer arrays."""
    return np.bitwise_count(np.asarray(x)).astype(np.int64)


@dataclass(eq=False)
class SpinBasis:
    """Ordered list of basis labels, optionally restricted to a sector."""

    n_spins: int
    states: np.ndarray  # strictly increasing int64 labels
    sector: object = field(default_factory=Full)
    frame: str = "z"  # "z" or "x": which single-spin Pauli is diagonal
    # K0 sectors only: the parent sector's basis, the row of each parent
    # state's orbit, and the orbit size of each row
    parent: Optional["SpinBasis"] = None
    orbit: Optional[np.ndarray] = None
    sizes: Optional[np.ndarray] = None
    # SzFixed sectors only: Lin's tables (hi_off, lo_rank) of rank()
    lin: Optional[tuple] = None

    @property
    def dim(self):
        return len(self.states)

    def rank(self, labels):
        """Row that each label in [0, 2^n) would hold in this Full, XParity
        or SzFixed basis; checked against ``states`` only by index_of.

        XParity fixes the two lowest bits by the parities of the others, so
        the row is s >> 2. SzFixed ranks by the high half of the bits, then
        by the low half among those of the same popcount: H. Q. Lin, Phys.
        Rev. B 42, 6561 (1990). The sum may pass the last row for a label
        outside the sector.
        """
        if isinstance(self.sector, XParity):
            return labels >> 2
        if isinstance(self.sector, SzFixed):
            hi_off, lo_rank = self.lin
            half = self.n_spins // 2
            return hi_off[labels >> half] + lo_rank[labels & ((1 << half) - 1)]
        return labels

    def index_of(self, labels):
        """Rows of the given labels (in a K0 sector, of their orbits);
        raises KeyError on a label outside the sector."""
        labels = np.asarray(labels)
        if labels.size and (labels.min() < 0 or labels.max() >= 1 << self.n_spins):
            raise KeyError(f"label outside [0, 2^{self.n_spins})")
        if labels.dtype.kind not in "biu" and not np.all(labels == np.trunc(labels)):
            raise KeyError("non-integer label")
        labels = labels.astype(np.int64, copy=False)
        b = self if self.parent is None else self.parent
        rows = b.rank(labels)
        if np.any(np.take(b.states, rows, mode="clip") != labels):
            raise KeyError("label not in basis sector")
        return rows if self.parent is None else self.orbit[rows]


def sector_dim(n_spins, sector):
    """Dimension of a Full, XParity or SzFixed sector, by its closed form;
    nothing is enumerated. A K0 sector has none: ValueError."""
    if isinstance(sector, Full):
        return 1 << n_spins
    if isinstance(sector, XParity):
        return 1 << (n_spins - 2)
    if isinstance(sector, SzFixed):
        return math.comb(n_spins, sector.n_up)
    raise ValueError(f"no closed-form dimension for sector {sector!r}")


def build_basis(n_spins, sector=Full(), frame="z"):
    """Enumerate the basis of an ``n_spins`` chain restricted to ``sector``."""
    if not 1 <= n_spins <= MAX_SPINS:
        raise CapacityError(f"n_spins={n_spins} outside supported range [1, {MAX_SPINS}]")
    if frame not in ("z", "x"):
        raise ValueError(f"unknown frame {frame!r}")

    if isinstance(sector, Full):
        states = np.arange(1 << n_spins, dtype=np.int64)
        return SpinBasis(n_spins, states, sector, frame)
    if isinstance(sector, K0):
        return _k0_basis(n_spins, sector, frame)
    if isinstance(sector, SzFixed):
        if not 0 <= sector.n_up <= n_spins:
            raise ValueError(f"n_up={sector.n_up} inconsistent with n_spins={n_spins}")
        return _sz_basis(n_spins, sector, frame)
    if not isinstance(sector, XParity):
        raise ValueError(f"unknown sector descriptor {sector!r}")
    if sector.p1 not in (-1, 1) or sector.p2 not in (-1, 1):
        raise ValueError("parity eigenvalues must be +1 or -1")
    if n_spins % 2:
        raise ValueError("XParity sectors need an even number of spins")
    # the label (r << 2) | b0 | b1 << 1, with sigma bit 0 and tau bit 1 set
    # so that the sigma and tau parities come out as asked; written over
    # chunks of ranks r, so no other array is as long as the labels
    even = sum(1 << i for i in range(0, n_spins - 2, 2))
    states = np.empty(1 << (n_spins - 2), dtype=np.int64)
    for lo in range(0, len(states), _CHUNK):
        r = np.arange(lo, min(lo + _CHUNK, len(states)), dtype=np.int64)
        b0 = (np.bitwise_count(r & even) & 1) ^ (sector.p1 == -1)
        b1 = (np.bitwise_count(r & (even << 1)) & 1) ^ (sector.p2 == -1)
        states[lo:lo + len(r)] = (r << 2) | b0 | (b1 << 1)
    return SpinBasis(n_spins, states, sector, frame)


def _sz_basis(n_spins, sector, frame):
    """SzFixed labels in increasing order, with Lin's two rank tables.

    A label is its high bits h above its low ``half`` bits l. The labels
    with high part h are h followed by each low part of popcount
    n_up - popcount(h), in increasing order; hi_off[h] counts the labels
    before them, and lo_rank[l] is the place of l among the low parts of
    its popcount.
    """
    half = n_spins // 2
    lo = np.arange(1 << half, dtype=np.int64)
    lo_pc = popcount(lo)
    by_pc = np.argsort(lo_pc, kind="stable")  # low parts, grouped by popcount
    size = np.bincount(lo_pc, minlength=half + 1)
    start = np.cumsum(size) - size
    lo_rank = np.empty_like(lo)
    lo_rank[by_pc] = lo - start[lo_pc[by_pc]]
    hi = np.arange(1 << (n_spins - half), dtype=np.int64)
    need = sector.n_up - popcount(hi)
    fits = (need >= 0) & (need <= half)
    need = np.where(fits, need, 0)
    count = np.where(fits, size[need], 0)
    hi_off = np.cumsum(count) - count
    states = np.empty(hi_off[-1] + count[-1], dtype=np.int64)
    # chunks of whole high parts, each starting at a multiple of _CHUNK
    # labels, so that no other array is as long as the labels
    cuts = np.unique(np.append(
        np.searchsorted(hi_off, np.arange(0, len(states), _CHUNK)), len(hi)))
    for h0, h1 in zip(cuts[:-1], cuts[1:]):
        c, off = count[h0:h1], hi_off[h0:h1] - hi_off[h0]
        rows = np.arange(c.sum()) + np.repeat(start[need[h0:h1]] - off, c)
        states[hi_off[h0]:hi_off[h0] + len(rows)] = (
            np.repeat(hi[h0:h1] << half, c) | by_pc[rows])
    return SpinBasis(n_spins, states, sector, frame, lin=(hi_off, lo_rank))


def _k0_basis(n_spins, sector, frame):
    """Orbit representatives of the parent sector under the 4M symmetries."""
    parent = build_basis(n_spins, sector.parent, frame)
    ones = np.uint32((1 << n_spins) - 1)
    if isinstance(sector.parent, XParity) and sector.parent.p1 == sector.parent.p2:
        even = np.uint32(sum(1 << i for i in range(0, n_spins, 2)))
        exchange = lambda s: ((s & even) << 1) | ((s >> 1) & even)
    elif isinstance(sector.parent, SzFixed) and 2 * sector.parent.n_up == n_spins:
        exchange = lambda s: s ^ ones
    else:
        raise ValueError(f"K0 refines XParity(p, p) or SzFixed(n/2), not {sector.parent!r}")
    # one pass over chunks of parent rows, in order. The smallest image of a
    # label is a representative, at the label's own row or an earlier one:
    # a representative's row takes the next orbit number, by an int32 cumsum
    # over the chunk, and every other row copies its representative's. So
    # orbit (int32) is the only array as long as the parent's labels
    orbit = np.empty(parent.dim, dtype=np.int32)
    reps, done = [], 0
    for lo in range(0, parent.dim, _CHUNK):
        labels = parent.states[lo:lo + _CHUNK]
        chunk = slice(lo, lo + len(labels))
        s = labels.astype(np.uint32)
        rep = s.copy()
        for image in _images(s, n_spins, exchange):
            np.minimum(rep, image, out=rep)
        rows = parent.rank(rep)
        is_rep = rows == np.arange(chunk.start, chunk.stop)
        orbit[chunk] = np.cumsum(is_rep, dtype=np.int32) + (done - 1)
        orbit[chunk] = orbit[rows]
        reps.append(labels[is_rep])
        done += len(reps[-1])
    states = np.concatenate(reps)
    # orbit-stabilizer: an orbit has 2n labels over the number of the 4M = 2n
    # symmetries that fix its representative
    s = states.astype(np.uint32)
    fixed = sum(image == s for image in _images(s, n_spins, exchange))
    sizes = 2 * n_spins // fixed
    return SpinBasis(n_spins, states, sector, frame, parent, orbit, sizes)


def _images(s, n_spins, exchange):
    """Yield the image of the uint32 labels s under each of the 4M symmetries:
    every rotation by two bits of s, its mirror image and their exchanged
    images. Each image is yielded in the same reused array.

    Works in uint32, exact up to 32 spins (MAX_SPINS = 28).
    """
    ones = np.uint32((1 << n_spins) - 1)
    # reflection: reverse the bytes of the label, each through the table,
    # then drop the padding bits above n_spins
    n_bytes = -(-n_spins // 8)
    mirror = np.zeros_like(s)
    for j in range(n_bytes):
        mirror |= _REVERSED_BYTE[(s >> (8 * j)) & 255] << (8 * (n_bytes - 1 - j))
    mirror >>= 8 * n_bytes - n_spins
    rot, low = np.empty_like(s), np.empty_like(s)
    for image in (s, exchange(s), mirror, exchange(mirror)):
        for t in range(0, n_spins, 2):
            np.left_shift(image, t, out=rot)
            np.bitwise_and(rot, ones, out=rot)
            np.right_shift(image, n_spins - t, out=low)
            np.bitwise_or(rot, low, out=rot)
            yield rot


# --- states ---------------------------------------------------------------

@dataclass(eq=False)
class QuantumState:
    """Amplitude vector over a SpinBasis."""

    amplitudes: np.ndarray
    basis: SpinBasis

    @property
    def norm(self):
        return float(np.linalg.norm(self.amplitudes))


# --- Pauli strings --------------------------------------------------------

@dataclass(frozen=True)
class PauliString:
    """Product of single-site Pauli operators on distinct sites."""

    terms: tuple  # ((site, axis), ...)
    coefficient: complex = 1.0

    def __post_init__(self):
        sites = [s for s, _ in self.terms]
        if len(set(sites)) != len(sites):
            raise ValueError("repeated site in Pauli string")
        for s, ax in self.terms:
            if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
                raise ValueError(f"site {s!r} is not an integer")
            if s < 0:
                raise ValueError(f"negative site index {s}")
            if ax not in ("x", "y", "z"):
                raise ValueError(f"unknown axis {ax!r}")

    def masks(self, n_spins):
        """(x, z, phase) such that the string is phase * X^x Z^z, with bit i
        of each mask for site i and Y = iXZ; the coefficient is in the phase.
        This is the binary symplectic form of Aaronson and Gottesman, Phys.
        Rev. A 70, 052328 (2004)."""
        x = z = 0
        phase = self.coefficient
        for s, ax in self.terms:
            if s >= n_spins:
                raise ValueError(f"site {s} out of range for {n_spins} spins")
            x |= (ax != "z") << int(s)
            z |= (ax != "x") << int(s)
            if ax == "y":
                phase *= 1j
        return x, z, phase


def pauli(*site_axis_pairs, coefficient=1.0):
    """Convenience constructor: pauli((0, 'x'), (3, 'z'))."""
    return PauliString(tuple(site_axis_pairs), coefficient)


def compose(strings, n_spins, frame):
    """(x, z, phase) of the product P = phase X^x Z^z of the physical-frame
    strings, applied first to last, written in the labels of a basis of the
    given frame: in the x frame each spin is Hadamard rotated, which swaps
    the masks at a sign."""
    x = z = 0
    phase = 1.0
    for string in strings:
        xs, zs, ps = string.masks(n_spins)
        # X^xs Z^zs X^x Z^z = (-1)^|zs & x| X^(xs ^ x) Z^(zs ^ z)
        phase *= ps * (-1) ** (zs & x).bit_count()
        x, z = x ^ xs, z ^ zs
    if frame == "x":
        phase *= (-1) ** (x & z).bit_count()
        x, z = z, x
    return x, z, phase


def pauli_action(psi, *strings):
    """The product P = phase X^x Z^z of the strings (``compose``) on the
    labels s of psi's sector (a K0 state: c / sqrt(N) on its parent's).
    Returns the moved amplitudes phase (-1)^|s & z| psi(s), which land on
    s ^ x; psi(s ^ x), zero outside the sector; and psi's weight on the
    labels P moves out of it."""
    b = psi.basis
    x, z, phase = compose(strings, b.n_spins, b.frame)
    amps, labels = psi.amplitudes, b.states
    if b.parent is not None:
        amps, labels = (amps / np.sqrt(b.sizes))[b.orbit], b.parent.states
        b = b.parent
    moved = phase * np.where(np.bitwise_count(labels & z) & 1, -amps, amps)
    labels = labels ^ x
    rows = b.rank(labels)
    inside = np.take(b.states, rows, mode="clip") == labels
    target = np.where(inside, np.take(amps, rows, mode="clip"), 0)
    return moved, target, float(np.sum(np.abs(amps[~inside]) ** 2))


def expectation(psi, string):
    """<psi| string |psi> for a normalized state; must be real."""
    moved, target, _ = pauli_action(psi, string)
    val = np.vdot(target, moved)
    if abs(np.imag(val)) > 1e-10:
        raise ValueError(f"non-real expectation value {val} (non-Hermitian string?)")
    return float(np.real(val))
