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
# the XParity(1, 1) label of each row below 256: the row above the parities
# of its even and odd bits
_BYTE_LABELS = np.array([b << 2 | (b & 0x55).bit_count() % 2
                         | (b & 0xAA).bit_count() % 2 << 1 for b in range(256)])


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
    # strictly increasing int64 labels; None where they are computed from
    # their rows instead (``labels``), as for a K0 basis's parent
    states: Optional[np.ndarray]
    sector: object = field(default_factory=Full)
    frame: str = "z"  # "z" or "x": which single-spin Pauli is diagonal
    # K0 sectors only: the parent sector, which stores no labels, the row of
    # each parent state's orbit, and the orbit size of each row
    parent: Optional["SpinBasis"] = None
    orbit: Optional[np.ndarray] = None
    sizes: Optional[np.ndarray] = None
    # SzFixed sectors only: Lin's tables (hi_off, lo_rank) of rank(), with
    # the end of the last high part at hi_off[-1], and the low parts grouped
    # by popcount (by_pc, shift) that labels() reads
    lin: Optional[tuple] = None

    @property
    def dim(self):
        if self.states is None:
            return sector_dim(self.n_spins, self.sector)
        return len(self.states)

    def rank(self, labels):
        """Row that each label of this Full, XParity or SzFixed sector holds;
        meaningless for a label outside it (``contains``).

        XParity fixes the two lowest bits by the parities of the others, so
        the row is s >> 2. SzFixed ranks by the high half of the bits, then
        by the low half among those of the same popcount: H. Q. Lin, Phys.
        Rev. B 42, 6561 (1990).
        """
        if isinstance(self.sector, XParity):
            return labels >> 2
        if isinstance(self.sector, SzFixed):
            hi_off, lo_rank = self.lin[:2]
            half = self.n_spins // 2
            return hi_off[labels >> half] + lo_rank[labels & ((1 << half) - 1)]
        return labels

    def contains(self, labels):
        """Whether each label in [0, 2^n) lies in this Full, XParity or
        SzFixed sector, by the popcounts that define the sector."""
        if isinstance(self.sector, XParity):
            sigma = sum(1 << i for i in range(0, self.n_spins, 2))
            return (((np.bitwise_count(labels & sigma) & 1) == (self.sector.p1 == -1))
                    & ((np.bitwise_count(labels & (sigma << 1)) & 1) == (self.sector.p2 == -1)))
        if isinstance(self.sector, SzFixed):
            return np.bitwise_count(labels) == self.sector.n_up
        return np.ones(np.shape(labels), dtype=bool)

    def labels(self, lo=0, hi=None):
        """Labels of rows lo..hi: a slice of ``states``, or, where none are
        stored, computed from the rows of this Full, XParity or SzFixed
        sector."""
        hi = self.dim if hi is None else hi
        if self.states is not None:
            return self.states[lo:hi]
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        if isinstance(self.sector, SzFixed):
            return self._sz_labels(lo, hi)
        if isinstance(self.sector, Full):
            return np.arange(lo, hi, dtype=np.int64)
        return _xparity_labels(lo, hi, (self.sector.p1 == -1) | (self.sector.p2 == -1) << 1)

    def _sz_labels(self, lo, hi):
        """SzFixed labels of rows lo..hi, from the whole high parts h0..h1
        that hold them: the labels with high part h are h followed by each
        low part of popcount n_up - popcount(h), in increasing order, and
        row r of part h takes low part by_pc[r + shift[h]]."""
        hi_off, _, by_pc, shift = self.lin
        h0 = np.searchsorted(hi_off, lo, "right") - 1
        h1 = np.searchsorted(hi_off, hi)
        count = np.diff(hi_off[h0:h1 + 1])
        rows = np.repeat(shift[h0:h1], count)
        rows += np.arange(hi_off[h0], hi_off[h1])
        labels = by_pc[rows]
        labels |= np.repeat(np.arange(h0, h1, dtype=np.int64) << self.n_spins // 2, count)
        return labels[lo - hi_off[h0]:hi - hi_off[h0]]

    def slices(self, low):
        """(lo, hi, bits) for each nonempty run of rows lo..hi whose labels
        share their bits from ``low`` up, in order, with ``bits`` the low
        ``low`` bits of those labels; needs n/2 < low <= n.

        An SzFixed run is whole high parts, and its bits depend only on the
        popcount of its high bits. A Full or XParity run has the bits of
        rows 0, 1, ..., with the two parity bits flipped by the parities of
        its high bits.
        """
        n, mask = self.n_spins, (1 << low) - 1
        if isinstance(self.sector, SzFixed):
            edges = self.lin[0][::1 << (low - n // 2)]
            by_popcount = {}
            for t, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
                if lo < hi:
                    c = t.bit_count()
                    if c not in by_popcount:
                        by_popcount[c] = self.labels(lo, hi) & mask
                    yield lo, hi, by_popcount[c]
            return
        parity = isinstance(self.sector, XParity)
        sigma = parity * sum(1 << i for i in range(0, n, 2))
        table = self.labels(0, 1 << (low - 2 * parity))
        for lo in range(0, self.dim, len(table)):
            high = lo << 2 * parity
            flip = (high & sigma).bit_count() % 2 | (high & sigma << 1).bit_count() % 2 << 1
            yield lo, lo + len(table), table ^ flip

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
        if not b.contains(labels).all():
            raise KeyError("label not in basis sector")
        rows = b.rank(labels)
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
    if isinstance(sector, K0):
        return _k0_basis(n_spins, sector, frame)
    b = _label_space(n_spins, sector, frame)
    # chunks of rows, so that no other array is as long as the labels
    states = np.empty(b.dim, dtype=np.int64)
    for lo in range(0, len(states), _CHUNK):
        states[lo:lo + _CHUNK] = b.labels(lo, min(lo + _CHUNK, len(states)))
    b.states = states
    return b


def _label_space(n_spins, sector, frame):
    """A Full, XParity or SzFixed basis that stores no labels: its rows,
    labels and membership all come from closed forms."""
    if not 1 <= n_spins <= MAX_SPINS:
        raise CapacityError(f"n_spins={n_spins} outside supported range [1, {MAX_SPINS}]")
    if frame not in ("z", "x"):
        raise ValueError(f"unknown frame {frame!r}")
    b = SpinBasis(n_spins, None, sector, frame)
    if isinstance(sector, SzFixed):
        if not 0 <= sector.n_up <= n_spins:
            raise ValueError(f"n_up={sector.n_up} inconsistent with n_spins={n_spins}")
        b.lin = _lin_tables(n_spins, sector.n_up)
    elif isinstance(sector, XParity):
        if sector.p1 not in (-1, 1) or sector.p2 not in (-1, 1):
            raise ValueError("parity eigenvalues must be +1 or -1")
        if n_spins % 2:
            raise ValueError("XParity sectors need an even number of spins")
    elif not isinstance(sector, Full):
        raise ValueError(f"unknown sector descriptor {sector!r}")
    return b


def _xparity_labels(lo, hi, flip):
    """XParity labels (r << 2) | b0 | b1 << 1 of rows r in lo..hi, with
    sigma bit 0 and tau bit 1 set so that the sigma and tau parities come
    out as asked: the parities of r's even and odd bits, xor ``flip``.

    A row shifted by 8 bits keeps its parities, and a label is affine in its
    row over GF(2), so the label of row a 2^8 + b is the label of row a, its
    row bits shifted by 8, xor (b << 2) | parities(b): one xor per label, on
    the labels of 256 times fewer rows.
    """
    if hi <= 256:
        return _BYTE_LABELS[lo:hi] ^ flip
    a0 = lo >> 8
    heads = _xparity_labels(a0, ((hi - 1) >> 8) + 1, flip)
    heads = heads >> 2 << 10 | heads & 3
    return (heads[:, None] ^ _BYTE_LABELS).ravel()[lo - (a0 << 8):hi - (a0 << 8)]


def _lin_tables(n_spins, n_up):
    """(hi_off, lo_rank, by_pc, shift) of an SzFixed(n_up) sector.

    A label is its high bits h above its low ``half`` bits l. hi_off[h]
    counts the labels before those of high part h, and hi_off[-1] all of
    them; lo_rank[l] is the place of l among the low parts of its popcount.
    by_pc lists the low parts grouped by popcount, in increasing order
    within a group, and the group of high part h starts at row
    hi_off[h] + shift[h] of it.
    """
    half = n_spins // 2
    lo = np.arange(1 << half, dtype=np.int64)
    lo_pc = popcount(lo)
    by_pc = np.argsort(lo_pc, kind="stable")
    size = np.bincount(lo_pc, minlength=half + 1)
    start = np.cumsum(size) - size
    lo_rank = np.empty_like(lo)
    lo_rank[by_pc] = lo - start[lo_pc[by_pc]]
    need = n_up - popcount(np.arange(1 << (n_spins - half), dtype=np.int64))
    fits = (need >= 0) & (need <= half)
    need = np.where(fits, need, 0)
    hi_off = np.concatenate(([0], np.cumsum(np.where(fits, size[need], 0))))
    return hi_off, lo_rank, by_pc, start[need] - hi_off[:-1]


def _k0_basis(n_spins, sector, frame):
    """Orbit representatives of the parent sector under the 4M symmetries.
    The parent keeps no labels: each pass computes those of a chunk of its
    rows, and orbit (int32) is the only array as long as the parent."""
    parent = _label_space(n_spins, sector.parent, frame)
    ones = np.uint32((1 << n_spins) - 1)
    if isinstance(sector.parent, XParity) and sector.parent.p1 == sector.parent.p2:
        even = np.uint32(sum(1 << i for i in range(0, n_spins, 2)))
        exchange = lambda s: ((s & even) << 1) | ((s >> 1) & even)
    elif isinstance(sector.parent, SzFixed) and 2 * sector.parent.n_up == n_spins:
        exchange = lambda s: s ^ ones
    else:
        raise ValueError(f"K0 refines XParity(p, p) or SzFixed(n/2), not {sector.parent!r}")
    mirror = lambda s: _mirror(s, n_spins)
    rotate = lambda s, t: ((s << t) & ones) | (s >> (n_spins - t))
    turns = np.arange(0, n_spins, 2, dtype=np.uint32)[:, None]
    # a label is a representative when no image of it is smaller. A chunk's
    # candidates meet the rotations of s one at a time, and about 90 % leave;
    # the rest meet all rotations of exchange(s), of mirror(s) and of
    # exchange(mirror(s)) at once, one of the three at a time
    reps = []
    for lo in range(0, parent.dim, _CHUNK):
        s = parent.labels(lo, min(lo + _CHUNK, parent.dim)).astype(np.uint32)
        for t in range(2, n_spins, 2):
            s = s[s <= rotate(s, t)]
        for symmetry in (exchange, mirror, lambda s: exchange(mirror(s))):
            s = s[(s <= rotate(symmetry(s), turns)).all(axis=0)]
        reps.append(s)
    states = np.concatenate(reps)
    # every parent label is an image of its representative, so a pass over
    # their images, chunk by chunk, fills orbit. Orbit-stabilizer: an orbit
    # has 2n labels over the number of the 4M = 2n symmetries that fix its
    # representative
    orbit = np.empty(parent.dim, dtype=np.int32)
    fixed = np.zeros(len(states), dtype=np.int64)
    for lo in range(0, len(states), _CHUNK):
        s = states[lo:lo + _CHUNK]
        rows = np.arange(lo, lo + len(s), dtype=np.int32)
        for image in _images(s, n_spins, exchange):
            orbit[parent.rank(image)] = rows
            fixed[lo:lo + len(s)] += image == s
    sizes = 2 * n_spins // fixed
    return SpinBasis(n_spins, states.astype(np.int64), sector, frame, parent, orbit, sizes)


def _mirror(s, n_spins):
    """Reflection of the uint32 labels s, byte by byte through the table."""
    n_bytes = -(-n_spins // 8)
    mirror = np.zeros_like(s)
    for j in range(n_bytes):
        mirror |= _REVERSED_BYTE[(s >> (8 * j)) & 255] << (8 * (n_bytes - 1 - j))
    mirror >>= 8 * n_bytes - n_spins
    return mirror


def _images(s, n_spins, exchange):
    """Yield the image of the uint32 labels s under each of the 4M symmetries:
    every rotation by two bits of s, its mirror image and their exchanged
    images. Each image is yielded in the same reused array.

    Works in uint32, exact up to 32 spins (MAX_SPINS = 28).
    """
    ones = np.uint32((1 << n_spins) - 1)
    mirror = _mirror(s, n_spins)
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


def _action_chunks(psi, strings):
    """``pauli_action``'s values one ``_CHUNK`` of (parent) rows at a time:
    yields the rows' slice, their moved amplitudes and targets, and the
    weight they lose out of the sector."""
    b = psi.basis
    x, z, phase = compose(strings, b.n_spins, b.frame)
    amps, orbit = psi.amplitudes, None
    if b.parent is not None:
        amps, orbit, b = amps / np.sqrt(b.sizes), b.orbit, b.parent
    spread = lambda rows: amps[rows] if orbit is None else amps[orbit[rows]]

    def act(lo, hi):
        s, a = b.labels(lo, hi), spread(slice(lo, hi))
        moved = phase * np.where(np.bitwise_count(s & z) & 1, -a, a)
        s = s ^ x
        inside = b.contains(s)
        left = float(np.sum(np.abs(a[~inside]) ** 2))
        del a  # before target and its gather, which set the chunk's peak
        target = np.zeros(hi - lo, amps.dtype)
        target[inside] = spread(b.rank(s[inside]))
        return slice(lo, hi), moved, target, left
    # act's temporaries die as it returns, and this frame keeps nothing of
    # what it yields
    for lo in range(0, b.dim, _CHUNK):
        yield act(lo, min(lo + _CHUNK, b.dim))


def pauli_action(psi, *strings):
    """The product P = phase X^x Z^z of the strings (``compose``) on the
    labels s of psi's sector (a K0 state: c / sqrt(N) on its parent's).
    Returns the moved amplitudes phase (-1)^|s & z| psi(s), which land on
    s ^ x; psi(s ^ x), zero outside the sector; and psi's weight on the
    labels P moves out of it."""
    b = psi.basis if psi.basis.parent is None else psi.basis.parent
    moved = target = None
    left = 0.0
    for rows, m, t, w in _action_chunks(psi, strings):
        if moved is None:
            moved, target = np.empty(b.dim, m.dtype), np.empty(b.dim, t.dtype)
        moved[rows], target[rows] = m, t
        left += w
    return moved, target, left


def expectation(psi, string):
    """<psi| string |psi> for a normalized state; must be real. The sum
    runs chunk by chunk, so no parent-size array is made."""
    # map, unlike a for loop, drops each chunk before it asks for the next
    val = sum(map(lambda c: np.vdot(c[2], c[1]), _action_chunks(psi, (string,))))
    if abs(np.imag(val)) > 1e-10:
        raise ValueError(f"non-real expectation value {val} (non-Hermitian string?)")
    return float(np.real(val))
