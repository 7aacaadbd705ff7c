"""Dense functions and Walsh spectra on the Boolean cube {0,1}^n.

Conventions used by every module in this package:

* A point of {0,1}^n is stored as the integer whose bit i holds
  coordinate i+1, and dense arrays over the cube are indexed by that
  integer.  Point addition is bitwise XOR.
* Characters are W_a(x) = (-1)^<a,x> with <a,x> counting shared bits.
* The analysis transform carries the 2^-n factor,

      fhat(a) = 2^-n * sum_x f(x) (-1)^<a,x>,

  so coefficients are averages and Parseval reads
  sum_a fhat(a)^2 = E f^2 with E the average over the cube.
  Synthesis carries no factor:  f(x) = sum_a fhat(a) (-1)^<a,x>.

Dense work refuses dimensions above ``DEFAULT_DENSE_CAP`` (24, sixteen
million cells) instead of degrading silently; see
:class:`~cubequartic.errors.ResourceLimitError`.  The quartic ascent and
the XOR self-convolution of a support set run in the smallest coset that
holds it (``SupportSet.affine``), so their cap applies to its affine
rank, not to n; ``additive.plan`` decides every route of a set from its
size and rank before any work.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError, UndefinedRatioError

DEFAULT_DENSE_CAP = 24

# Direct pair enumeration materialises |A|^2 XOR values; beyond this
# many entries the dense convolution path must carry the computation.
# No set of more elements than this is built from a family either.
PAIR_ENUMERATION_LIMIT = 40_000_000

_INT64_MAX = (1 << 63) - 1

# a float Walsh transform applies up to this many butterfly levels in one
# product with the Sylvester Hadamard matrix of order 2^_BLOCK_BITS;
# _HADAMARD[b] is the matrix of order 2^b, built once here
_BLOCK_BITS = 6
_HADAMARD = [
    reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * bits, np.ones((1, 1)))
    for bits in range(_BLOCK_BITS + 1)
]

__all__ = [
    "DEFAULT_DENSE_CAP",
    "PAIR_ENUMERATION_LIMIT",
    "SupportSet",
    "AffineFrame",
    "MultiplicityTable",
    "PairIndex",
    "CubeFunction",
    "SpectrumVector",
    "Moments",
    "walsh_transform",
    "analyze",
    "synthesize",
    "moments",
    "support_of",
]


def _require_dense(n: int) -> None:
    if n > DEFAULT_DENSE_CAP:
        raise ResourceLimitError(
            f"dense cube of dimension {n} exceeds the cap of {DEFAULT_DENSE_CAP}"
        )


def _weight_levels(n: int, k: int, spare: int) -> list[np.ndarray]:
    """Level w = 0..k: the sorted masks of weight w below 2^min(n, spare + w),
    by Pascal's rule: those below 2^(b+1) are those below 2^b, then the
    first C(b, w-1) of level w-1 with bit b set.  Python ints (an object
    array) from n = 63 up, as in ``SupportSet.masks``."""
    levels = [np.zeros(1, dtype=object if n >= 63 else np.int64)]
    for w in range(1, k + 1):
        below = levels[-1]
        tops = range(w - 1, min(n, spare + w))
        levels.append(np.concatenate([below[: math.comb(b, w - 1)] | (1 << b) for b in tops]))
    return levels


def _check_family_size(family: str, n: int, k: int, size: int) -> None:
    """Refuse a sphere or ball from its closed-form size, before any mask
    is built."""
    if size > PAIR_ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"the {family} of radius {k} in n={n} has {size} elements, "
            f"past the cap of {PAIR_ENUMERATION_LIMIT}"
        )


def _square_sum(counts: np.ndarray) -> int:
    """sum of c^2 over the counts, exactly: int64 dots over chunks short
    enough that no partial sum passes 2^63 - 1, added in python ints, or
    python ints throughout once a single square would pass it."""
    counts = counts.astype(np.int64, copy=False)
    top = int(counts.max(initial=0))
    step = _INT64_MAX // (top * top) if top else len(counts)
    if step == 0:
        return sum(c * c for c in counts.tolist())
    chunks = (counts[i : i + step] for i in range(0, len(counts), step))
    return sum(int(np.dot(chunk, chunk)) for chunk in chunks)


def _check_dimension(n: int) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"dimension must be a non-negative integer, got {n!r}")


@dataclass(frozen=True)
class SupportSet:
    """A subset of {0,1}^n given as a sorted tuple of bitmasks.

    Construct through :meth:`from_masks` (which sorts and rejects
    duplicates) or one of the named families below.  The set holds its
    mask array (``masks``), affine frame (``affine``), pair index
    (``pairs``) and convolution table (``convolution``) once a reader asks
    for them, each built once and read-only.
    """

    n: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        masks = self.elements
        # compared in C, not in a Python loop: sets reach millions of masks
        if not all(map(operator.lt, masks, masks[1:])):
            raise ValueError("elements must be strictly increasing")
        # sorted, so the ends are the extremes
        for m in masks[:1] + masks[-1:]:
            if not 0 <= m < (1 << self.n):
                raise ValueError(f"mask {m} out of range for n={self.n}")

    @classmethod
    def from_masks(cls, n: int, masks: Sequence[int]) -> "SupportSet":
        unique = sorted(set(int(m) for m in masks))
        if len(unique) != len(masks):
            raise ValueError("duplicate masks in support set")
        return cls(n, tuple(unique))

    @classmethod
    def sphere(cls, n: int, k: int) -> "SupportSet":
        """All points of Hamming weight exactly k; more than
        ``PAIR_ENUMERATION_LIMIT`` of them are refused."""
        if not 0 <= k <= n:
            raise ValueError(f"weight {k} out of range for n={n}")
        _check_family_size("sphere", n, k, math.comb(n, k))
        return cls(n, tuple(_weight_levels(n, k, n - k)[k].tolist()))

    @classmethod
    def ball(cls, n: int, k: int) -> "SupportSet":
        """All points of Hamming weight at most k; more than
        ``PAIR_ENUMERATION_LIMIT`` of them are refused."""
        if not 0 <= k <= n:
            raise ValueError(f"weight {k} out of range for n={n}")
        _check_family_size("ball", n, k, sum(math.comb(n, w) for w in range(k + 1)))
        return cls(n, tuple(np.sort(np.concatenate(_weight_levels(n, k, n))).tolist()))

    @classmethod
    def span(cls, n: int, generators: Sequence[int]) -> "SupportSet":
        """XOR span of the generators (a linear subspace, 0 included)."""
        members = {0}
        for g in generators:
            if not 0 <= g < (1 << n):
                raise ValueError(f"generator {g} out of range for n={n}")
            members |= {m ^ g for m in members}
        return cls(n, tuple(sorted(members)))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, mask: int) -> bool:
        i = bisect.bisect_left(self.elements, mask)
        return i < len(self.elements) and self.elements[i] == mask

    def weights(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.elements)

    def sphere_radius(self) -> int | None:
        """k if this set is the full weight-k sphere, else None."""
        if not self.elements:
            return None
        k = self.elements[0].bit_count()
        # C(n, k) distinct masks of weight k are the sphere
        if len(self.elements) != math.comb(self.n, k):
            return None
        if self.masks.dtype == object:
            return k if all(m.bit_count() == k for m in self.elements) else None
        # each mask's eight byte weights, summed into its top byte (numpy
        # before 2.0 has no bitwise_count)
        byte_weights = np.array([i.bit_count() for i in range(256)], dtype=np.uint8)
        weights = byte_weights[self.masks.view(np.uint8)].view(np.uint64)
        same = (weights * np.uint64(0x0101010101010101) >> np.uint64(56) == k).all()
        return k if same else None

    def indicator(self) -> "CubeFunction":
        """Dense 0/1 indicator of the set."""
        _require_dense(self.n)
        values = np.zeros(1 << self.n)
        values[list(self.elements)] = 1.0
        return CubeFunction(self.n, values)

    @cached_property
    def masks(self) -> np.ndarray:
        """The elements as int64, or as python ints (an object array) from
        2^62 up."""
        wide = len(self.elements) > 0 and self.elements[-1] >= 1 << 62
        masks = np.asarray(self.elements, dtype=object if wide else np.int64)
        masks.flags.writeable = False
        return masks

    @cached_property
    def pairs(self) -> "PairIndex":
        """The pair index of the set's frame coordinates ``affine.coords``
        (|A|^2 int64 entries): its sums are the coordinates of A + A, in
        mask order.  Refused past the cap before anything is allocated."""
        size = len(self.elements)
        if size * size > PAIR_ENUMERATION_LIMIT:
            raise ResourceLimitError(
                f"pair stage: enumerating the {size * size} pairs of a "
                f"{size}-element set exceeds the cap of {PAIR_ENUMERATION_LIMIT}"
            )
        return PairIndex.of(self.affine.coords)

    @cached_property
    def affine(self) -> "AffineFrame":
        """The smallest coset holding the set, with each element's
        coordinates in it (see ``AffineFrame``)."""
        frame = _affine_frame(self.masks)
        frame.coords.flags.writeable = False
        return frame

    @cached_property
    def convolution(self) -> "MultiplicityTable":
        """The pair table from the dense XOR self-convolution over the 2^d
        points of the affine frame.  ``additive.plan`` decides whether it
        may run: the rank d within the dense cap, and 2^d |A| at most 2^53
        (see ``_convolution_table``)."""
        return _convolution_table(self)


@dataclass(frozen=True, eq=False)
class AffineFrame:
    """Coordinates of a set in the smallest coset of F_2^n that holds it.

    The coset is c + V, for c the smallest mask and V spanned by the
    differences a ^ c.  The pivots are the bits at which nonzero vectors
    of V lead, and coords[i] is the bits of (element ^ c) at the pivots,
    the j-th smallest at bit j: in element order, int64 while the rank
    is below 63.  Reading the pivot bits is linear and one-to-one on V,
    so a ^ b = c ^ d exactly when the coordinate XORs are equal, and
    vectors of V order as their coordinates.

    Every quantity of the quartic problem (F, E(A), each |M_x|, m(A))
    is unchanged by an affine bijection x -> Lx ^ c, so the pair and
    dense stages run on the coordinates, dense work on arrays of 2^rank
    entries instead of 2^n; a Hamming sphere S(n, k) with 0 < k < n has
    rank n - 1.
    """

    rank: int
    coords: np.ndarray


def _affine_frame(masks: np.ndarray) -> AffineFrame:
    """The ``AffineFrame`` of a sorted array of masks, in at most 2 rank
    vectorised passes over the elements (one per pivot to find it, one
    to read its coordinate bit) and no per-element loop."""
    if len(masks) == 0:
        return AffineFrame(0, np.zeros(0, dtype=np.int64))
    differences = masks ^ masks[0]
    work = differences.copy()
    pivots: list[int] = []
    top = int(work.max())
    while top:
        # every entry is at most top, so its pivot bit is set exactly in
        # the entries >= 2^pivot; clearing it lowers the maximum
        pivot = top.bit_length() - 1
        hit = work >= 1 << pivot
        work[hit] ^= top
        pivots.append(pivot)
        top = int(work.max())
    pivots.reverse()
    rank = len(pivots)
    coords = np.zeros(len(masks), dtype=np.int64 if rank < 63 else object)
    for j, pivot in enumerate(pivots):
        coords |= ((differences >> pivot) & 1).astype(coords.dtype) << j
    return AffineFrame(rank, coords)


@dataclass(frozen=True, eq=False)
class MultiplicityTable:
    """|M_x| for every x hit by A + A: ``sums`` in increasing order (so
    sums[0] = 0) and ``counts[k]`` = |M_x| for x = sums[k]; a set's
    tables hold frame coordinates, in mask order.  Its readers share the
    arrays, so they are read-only."""

    sums: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        for array in vars(self).values():
            array.flags.writeable = False

    def m_bound(self) -> int:
        """m(A) = 1 + max over x != 0 of |M_x|; 1 for singletons."""
        return 1 + int(self.counts[1:].max(initial=0))

    def energy(self) -> int:
        """E2(A, A) = sum over x of |M_x|^2, exact, computed on first use
        and kept by the table."""
        return self._energy

    @cached_property
    def _energy(self) -> int:
        return _square_sum(self.counts)


@dataclass(frozen=True, eq=False)
class PairIndex(MultiplicityTable):
    """The pair table of an array of keys, from every ordered pair grouped
    by its XOR sum; ``inverse[i, j]`` is the position in ``sums`` of
    keys[i] ^ keys[j].  Building it costs one pass over the |A|^2 pair
    sums, after which the pair table, the sparse quartic kernel and the
    hereditary searches read it directly; a support set builds its own
    once, as ``SupportSet.pairs``, from its frame coordinates.

    The pass is a histogram of the sums when it is no longer than the
    list of pairs, i.e. 2^bitlen(max key) <= |A|^2, and a sort
    (``np.unique``) otherwise; both give the same arrays with the same
    dtypes.  Keys from 2^62 up (python ints) take the sort: 2^63 pairs
    are far past the pair cap.
    """

    inverse: np.ndarray

    @classmethod
    def of(cls, keys: np.ndarray) -> "PairIndex":
        """The index of an array of distinct non-negative keys: masks, or
        coordinates as in ``AffineFrame.coords``."""
        size = len(keys)
        xors = (keys[:, None] ^ keys[None, :]).ravel()
        if size and 1 << int(keys.max()).bit_length() <= size * size:
            histogram = np.bincount(xors)
            sums = np.flatnonzero(histogram)
            counts = histogram[sums]
            # the position of each hit sum among the hit sums
            inverse = (np.cumsum(histogram > 0) - 1)[xors]
        else:
            sums, inverse, counts = np.unique(xors, return_inverse=True, return_counts=True)
        return cls(sums, counts, inverse.reshape(size, size))

    def pair_sums(
        self, coords: np.ndarray, other: np.ndarray | None = None
    ) -> np.ndarray:
        """sum over (a, b) in M_x of y_a z_b, for each x in ``sums``.

        z is ``other``, or y itself when it is not given.
        """
        weights = np.outer(coords, coords if other is None else other)
        return np.bincount(self.inverse.ravel(), weights=weights.ravel())


@dataclass(eq=False)
class CubeFunction:
    """A real-valued array on {0,1}^n, dense, indexed by bitmask: a
    function of the points, or (from ``analyze``) its Walsh coefficients
    indexed by the character mask.

    The constructor copies its input, so the function owns its storage.
    """

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        self.values = np.array(self.values, dtype=np.float64, copy=True)
        if self.values.ndim != 1 or self.values.shape[0] != (1 << self.n):
            raise ValueError(
                f"expected a flat array of length 2^{self.n}={1 << self.n}, "
                f"got shape {self.values.shape}"
            )


@dataclass
class SpectrumVector:
    """Walsh coefficients restricted to a support set.

    ``coords[i]`` is the coefficient of the character indexed by
    ``support.elements[i]``.  This is the sparse object the quartic
    optimiser works with; it never needs a dense array until a cube
    function is requested.
    """

    support: SupportSet
    coords: np.ndarray

    def __post_init__(self) -> None:
        self.coords = np.array(self.coords, dtype=np.float64, copy=True)
        if self.coords.ndim != 1 or self.coords.shape[0] != len(self.support):
            raise ValueError(
                f"coords shape {self.coords.shape} does not match support "
                f"of size {len(self.support)}"
            )

    @classmethod
    def uniform(cls, support: SupportSet) -> "SpectrumVector":
        """The constant unit vector 1/sqrt(|A|) on the support."""
        size = len(support)
        if size == 0:
            raise ValueError("cannot build the uniform vector on an empty set")
        return cls(support, np.full(size, 1.0 / math.sqrt(size)))

    @classmethod
    def unit_indicator(cls, support: SupportSet, subset: SupportSet) -> "SpectrumVector":
        """The unit vector 1/sqrt(|B|) on a non-empty subset B of the
        support; error on any other B."""
        # both sorted, so this finds B's positions if B is within the support
        where = np.searchsorted(support.masks, subset.masks)
        if (
            len(subset) == 0
            or subset.n != support.n
            or np.any(where == len(support))
            or np.any(support.masks[where] != subset.masks)
        ):
            raise ValueError("indicator subset is not a non-empty subset of the support")
        coords = np.zeros(len(support))
        coords[where] = 1.0 / math.sqrt(len(subset))
        return cls(support, coords)

    def norm_squared(self) -> float:
        return float(np.dot(self.coords, self.coords))

    def normalize(self) -> "SpectrumVector":
        """Rescale to the unit sphere, up to a rounding that grows with the
        length (1 + 1.5e-12 on 2.7 million equal entries); error on the zero
        vector."""
        norm = math.sqrt(self.norm_squared())
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        coords = self.coords / norm
        # a second division, after the first one's rounding
        coords /= math.sqrt(float(np.dot(coords, coords)))
        return SpectrumVector(self.support, coords)

    def to_function(self) -> CubeFunction:
        """Synthesize the cube function with these coefficients."""
        _require_dense(self.support.n)
        dense = np.zeros(1 << self.support.n)
        dense[self.support.masks] = self.coords
        return synthesize(CubeFunction(self.support.n, dense))


def walsh_transform(values: np.ndarray) -> np.ndarray:
    """Unnormalised in-place Walsh-Hadamard transform along the last axis,
    O(n 2^n) per row.

    An array of more than one axis is a stack of rows, each transformed
    alone, so one call serves every start of the ascent.  The n index
    bits split into ceil(n / _BLOCK_BITS) blocks of near-equal size, and
    each block is one product with the Hadamard matrix of its order (the
    lowest block as one matrix product per row, the others as a stack of
    them).  That is a few BLAS calls where the butterfly makes n numpy
    passes that each copy half the array.  Sums run in a different order
    from the butterfly, so the last bits can differ; a row's result does
    not depend on the rows stacked with it, because every product has
    the same shape whatever the number of rows.

    The array must be float or complex: the products are written back
    into it, which would silently truncate an integer array, so any
    other dtype raises ``TypeError``.

    The input array is modified and also returned.  Applying it twice
    multiplies each row by 2^n.
    """
    if values.dtype.kind not in "fc":
        raise TypeError(f"expected a float or complex array, got dtype {values.dtype}")
    lead, size = values.shape[:-1], values.shape[-1]
    if size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    n = size.bit_length() - 1
    blocks = -(-n // _BLOCK_BITS)
    done = 0
    # every reshape below splits the last axis only, so it is a view
    for i in range(blocks):
        bits = (n - done) // (blocks - i)
        hadamard = _HADAMARD[bits]
        if done == 0:
            # H is symmetric, so the lowest bits are one product on the right
            rows = values.reshape(lead + (-1, 1 << bits))
            rows[...] = rows @ hadamard
        else:
            stack = values.reshape(lead + (-1, 1 << bits, 1 << done))
            stack[...] = hadamard @ stack
        done += bits
    return values


def _convolution_table(A: SupportSet) -> MultiplicityTable:
    """|M_x| via the convolution theorem on the indicator of A, taken
    over the 2^d coordinates of its affine frame (rank d).

    wht(1_A)^2 transformed back and divided by 2^d is the XOR
    self-convolution.  Every value on the way is an integer: after the
    first transform at most |A| in size, after squaring at most |A|^2.
    Every partial sum of the second transform, in any order and in any
    block of the BLAS products (entries +-1), is a signed sum of some of
    the squares, which are all >= 0 and by Parseval add up to 2^d |A|;
    so no value exceeds 2^d |A| < 2^(d + bitlen|A|).  While that is at
    most 2^53 (checked by the caller) every sum is exact in float64, and
    the result is rounded to int64.  The sums are frame coordinates of
    A + A, as in ``A.pairs``.  Read it through ``A.convolution``.
    """
    frame = A.affine
    ind = np.zeros(1 << frame.rank, dtype=np.float64)
    ind[frame.coords] = 1
    walsh_transform(ind)
    ind *= ind
    walsh_transform(ind)
    # only the nonzero entries are converted: at the dense cap the array
    # holds 2^24 floats, and |A + A| is usually far fewer
    np.rint(ind, out=ind)
    sums = np.flatnonzero(ind)
    counts, remainder = np.divmod(ind[sums].astype(np.int64), 1 << frame.rank)
    if remainder.any():
        # past the pair cap this is the only check of the convolution
        raise RuntimeError("pair stage: convolution output not divisible by 2^d")
    return MultiplicityTable(sums, counts)


def analyze(f: CubeFunction) -> CubeFunction:
    """Walsh coefficients of f, with the averaging 2^-n factor, as the
    values of a CubeFunction indexed by the character mask."""
    _require_dense(f.n)
    work = f.values.copy()
    walsh_transform(work)
    work /= float(1 << f.n)
    return CubeFunction(f.n, work)


def synthesize(spec: CubeFunction) -> CubeFunction:
    """Evaluate sum_a fhat(a) W_a pointwise for the coefficients in
    ``spec.values``; exact inverse of analyze."""
    _require_dense(spec.n)
    work = spec.values.copy()
    walsh_transform(work)
    return CubeFunction(spec.n, work)


@dataclass(frozen=True)
class Moments:
    """Second and fourth moments under the uniform measure."""

    second: float
    fourth: float

    def ratio(self) -> float:
        """fourth / second^2, the quantity the whole package is about."""
        if self.second <= 0.0:
            raise UndefinedRatioError(
                "moment ratio undefined for the zero function"
            )
        return self.fourth / (self.second * self.second)


def moments(f: CubeFunction) -> Moments:
    """E f^2 and E f^4 over the uniform measure on the cube."""
    sq = f.values * f.values
    scale = 1.0 / (1 << f.n)
    return Moments(
        second=float(np.sum(sq) * scale),
        fourth=float(np.sum(sq * sq) * scale),
    )


def support_of(f: CubeFunction, tol: float = 0.0) -> SupportSet:
    """Indices where |value| > tol, as a SupportSet: the support in point
    space of a function, or in character space of its ``analyze``."""
    if tol < 0.0:
        raise ValueError("tolerance must be non-negative")
    idx = np.nonzero(np.abs(f.values) > tol)[0]
    return SupportSet(f.n, tuple(int(i) for i in idx))
