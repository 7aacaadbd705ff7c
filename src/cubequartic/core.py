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

Dense work refuses dimensions above a configurable cap (default 24,
sixteen million cells) instead of degrading silently; see
:class:`~cubequartic.errors.ResourceLimitError`.  The quartic ascent and
the XOR self-convolution of a support set run in the smallest coset that
holds it (``SupportSet.affine``), so their cap applies to its affine
rank, not to n.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError, UndefinedRatioError

DEFAULT_DENSE_CAP = 24

# Direct pair enumeration materialises |A|^2 XOR values; beyond this
# many entries the dense convolution path must carry the computation.
PAIR_ENUMERATION_LIMIT = 40_000_000

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
    "PairIndex",
    "CubeFunction",
    "Spectrum",
    "SpectrumVector",
    "Moments",
    "walsh_transform",
    "analyze",
    "synthesize",
    "moments",
    "support_of",
]


def _require_dense(n: int, dense_cap: int | None) -> None:
    cap = DEFAULT_DENSE_CAP if dense_cap is None else dense_cap
    if n > cap:
        raise ResourceLimitError(
            f"dense cube of dimension {n} exceeds the cap of {cap}; "
            f"raise dense_cap to force the dense path"
        )


def _weight_masks(n: int, k: int) -> Iterator[int]:
    """The masks of weight k in {0,1}^n, without visiting the other 2^n points."""
    return (sum(1 << i for i in bits) for bits in itertools.combinations(range(n), k))


def _check_dimension(n: int) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"dimension must be a non-negative integer, got {n!r}")


@dataclass(frozen=True)
class SupportSet:
    """A subset of {0,1}^n given as a sorted tuple of bitmasks.

    Construct through :meth:`from_masks` (which sorts and rejects
    duplicates) or one of the named families below.  The set holds its
    affine frame (``affine``), its pair index (``pairs``) and its
    convolution table (``convolution``) once a reader asks for them.
    """

    n: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        prev = -1
        for m in self.elements:
            if not 0 <= m < (1 << self.n):
                raise ValueError(f"mask {m} out of range for n={self.n}")
            if m <= prev:
                raise ValueError("elements must be strictly increasing")
            prev = m

    @classmethod
    def from_masks(cls, n: int, masks: Sequence[int]) -> "SupportSet":
        unique = sorted(set(int(m) for m in masks))
        if len(unique) != len(masks):
            raise ValueError("duplicate masks in support set")
        return cls(n, tuple(unique))

    @classmethod
    def sphere(cls, n: int, k: int) -> "SupportSet":
        """All points of Hamming weight exactly k."""
        if not 0 <= k <= n:
            raise ValueError(f"weight {k} out of range for n={n}")
        return cls(n, tuple(sorted(_weight_masks(n, k))))

    @classmethod
    def ball(cls, n: int, k: int) -> "SupportSet":
        """All points of Hamming weight at most k."""
        if not 0 <= k <= n:
            raise ValueError(f"weight {k} out of range for n={n}")
        return cls(
            n, tuple(sorted(m for j in range(k + 1) for m in _weight_masks(n, j)))
        )

    @classmethod
    def span(cls, n: int, generators: Sequence[int]) -> "SupportSet":
        """XOR span of the generators (a linear subspace, 0 included)."""
        members = {0}
        for g in generators:
            if not 0 <= g < (1 << n):
                raise ValueError(f"generator {g} out of range for n={n}")
            members |= {m ^ g for m in members}
        return cls(n, tuple(sorted(members)))

    @classmethod
    def full(cls, n: int, dense_cap: int | None = None) -> "SupportSet":
        _require_dense(n, dense_cap)
        return cls(n, tuple(range(1 << n)))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, mask: int) -> bool:
        i = bisect.bisect_left(self.elements, mask)
        return i < len(self.elements) and self.elements[i] == mask

    def masks_array(self) -> np.ndarray:
        return _mask_array(self.elements)

    def weights(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.elements)

    def sphere_radius(self) -> int | None:
        """k if this set is the full weight-k sphere, else None."""
        if not self.elements:
            return None
        k = self.elements[0].bit_count()
        if any(m.bit_count() != k for m in self.elements):
            return None
        if len(self.elements) != math.comb(self.n, k):
            return None
        return k

    def indicator(self, dense_cap: int | None = None) -> "CubeFunction":
        """Dense 0/1 indicator of the set."""
        _require_dense(self.n, dense_cap)
        values = np.zeros(1 << self.n)
        values[list(self.elements)] = 1.0
        return CubeFunction(self.n, values)

    def pairs_within_cap(self) -> bool:
        """Whether |A|^2 is within PAIR_ENUMERATION_LIMIT, so ``pairs`` may be built."""
        return len(self.elements) ** 2 <= PAIR_ENUMERATION_LIMIT

    @cached_property
    def pairs(self) -> "PairIndex":
        """The pair index, built on first use and kept for the set's
        lifetime (|A|^2 int64 entries); its readers share it, so its arrays
        are read-only.  Refused past the cap before anything is allocated."""
        size = len(self.elements)
        if not self.pairs_within_cap():
            raise ResourceLimitError(
                f"pair stage: enumerating the {size * size} pairs of a "
                f"{size}-element set exceeds the cap of {PAIR_ENUMERATION_LIMIT}"
            )
        index = PairIndex.of(self.elements)
        for array in (index.masks, index.sums, index.counts, index.inverse):
            array.flags.writeable = False
        return index

    @cached_property
    def affine(self) -> "AffineFrame":
        """The smallest coset holding the set, with each element's
        coordinates in it (see ``AffineFrame``); built on first use and
        kept for the set's lifetime, so its coordinates are read-only."""
        frame = _affine_frame(self.masks_array())
        frame.coords.flags.writeable = False
        return frame

    @cached_property
    def convolution(self) -> tuple[np.ndarray, np.ndarray]:
        """(sums, counts) of the dense XOR self-convolution, in the layout
        of ``PairIndex``: the x with |M_x| > 0 in increasing order and
        their |M_x|.  It runs over the 2^d points of the affine frame and
        maps its sums back to masks.  Computed on first use and kept for
        the set's lifetime; its readers share the arrays, so they are
        read-only.  The caller checks the dense cap against the rank d and
        that 2^d |A| is at most 2^53 (see ``_convolution_table``)."""
        sums, counts = _convolution_table(self)
        sums.flags.writeable = False
        counts.flags.writeable = False
        return sums, counts


def _mask_array(masks: Sequence[int]) -> np.ndarray:
    """Masks as int64, or as python ints (an object array) from 2^62 up."""
    wide = len(masks) > 0 and max(masks) >= 1 << 62
    return np.asarray(masks, dtype=object if wide else np.int64)


@dataclass(frozen=True, eq=False)
class AffineFrame:
    """Coordinates of a set in the smallest coset of F_2^n that holds it.

    The coset is c + V, for c the smallest mask and V spanned by the
    differences a ^ c.  ``basis`` is the reduced row-echelon basis of V,
    one vector per coordinate bit: basis[j] has its highest bit at the
    j-th smallest pivot, and no other basis vector has that bit set.  So
    element i is c ^ (the XOR of basis[j] over the set bits j of
    coords[i]), and coords[i] is the bits of (element ^ c) at the
    pivots; coords are in element order, int64 while the rank is below
    63.

    Every quantity of the quartic problem (F, E(A), each |M_x|, m(A))
    is unchanged by an affine bijection x -> Lx ^ c, so dense work on the
    coordinates runs on arrays of 2^rank entries instead of 2^n; a
    Hamming sphere S(n, k) with 0 < k < n has rank n - 1.
    """

    rank: int
    basis: tuple[int, ...]
    coords: np.ndarray

    def linear_masks(self, coords: np.ndarray) -> np.ndarray:
        """The vectors of V with the given coordinates, such as XOR sums of
        elements: the XOR of basis[j] over the set bits j, untranslated.
        A leading bit of a vector of V is always a pivot, so increasing
        coordinates give increasing masks."""
        wide = len(self.basis) > 0 and max(self.basis) >= 1 << 62
        out = np.zeros(len(coords), dtype=object if wide else np.int64)
        for j, vector in enumerate(self.basis):
            out ^= ((coords >> j) & 1).astype(out.dtype) * vector
        return out


def _affine_frame(masks: np.ndarray) -> AffineFrame:
    """The ``AffineFrame`` of a sorted array of masks, in at most 2 rank
    vectorised passes over the elements (one per pivot to find the basis,
    one per pivot to read the coordinates) and no per-element loop."""
    if len(masks) == 0:
        return AffineFrame(0, (), np.zeros(0, dtype=np.int64))
    differences = masks ^ masks[0]
    work = differences.copy()
    pivots: list[int] = []
    vectors: list[int] = []
    top = int(work.max())
    while top:
        # every entry is at most top, so its pivot bit is set exactly in
        # the entries >= 2^pivot; clearing it lowers the maximum
        pivot = top.bit_length() - 1
        hit = work >= 1 << pivot
        work[hit] ^= top
        pivots.append(pivot)
        vectors.append(top)
        top = int(work.max())
    # pivots fall with the index, and vectors[j] has no bit above its own
    # pivot; clear each pivot from the vectors before it
    for j, pivot in enumerate(pivots):
        for i in range(j):
            if vectors[i] >> pivot & 1:
                vectors[i] ^= vectors[j]
    pivots.reverse()
    vectors.reverse()
    rank = len(pivots)
    coords = np.zeros(len(masks), dtype=np.int64 if rank < 63 else object)
    for j, pivot in enumerate(pivots):
        coords |= ((differences >> pivot) & 1).astype(coords.dtype) << j
    return AffineFrame(rank, tuple(vectors), coords)


@dataclass(frozen=True, eq=False)
class PairIndex:
    """Every ordered pair of a set of masks, grouped by its XOR sum.

    ``sums`` holds the distinct values of A + A in increasing order and
    ``counts[k]`` = |M_x| for x = sums[k]; ``inverse[i, j]`` is the
    position in ``sums`` of masks[i] ^ masks[j].  Building it costs one
    pass over the |A|^2 pair sums, after which the pair table, the sparse
    quartic kernel and the hereditary searches read it directly; a
    support set builds its own once, as ``SupportSet.pairs``.  Masks are
    int64, or python ints (object arrays) from 2^62 up.

    The pass is a histogram of the sums when it is no longer than the
    list of pairs, i.e. 2^bitlen(max mask) <= |A|^2, and a sort
    (``np.unique``) otherwise and on object arrays; both give the same
    arrays with the same dtypes.
    """

    masks: np.ndarray
    sums: np.ndarray
    counts: np.ndarray
    inverse: np.ndarray

    @classmethod
    def of(cls, masks: Sequence[int]) -> "PairIndex":
        arr = _mask_array(masks)
        size = len(arr)
        xors = (arr[:, None] ^ arr[None, :]).ravel()
        if size and arr.dtype != object and 1 << int(arr.max()).bit_length() <= size * size:
            histogram = np.bincount(xors)
            sums = np.flatnonzero(histogram)
            counts = histogram[sums]
            # the position of each hit sum among the hit sums
            inverse = (np.cumsum(histogram > 0) - 1)[xors]
        else:
            sums, inverse, counts = np.unique(xors, return_inverse=True, return_counts=True)
        return cls(arr, sums, counts, inverse.reshape(size, size))

    def energy(self) -> int:
        # E2 <= |A|^3, far inside int64 for any set whose pairs fit in memory
        return int(np.dot(self.counts, self.counts))

    def pair_sums(
        self, coords: np.ndarray, other: np.ndarray | None = None
    ) -> np.ndarray:
        """sum over (a, b) in M_x of y_a z_b, for each x in ``sums``.

        z is ``other``, or y itself when it is not given.
        """
        weights = np.outer(coords, coords if other is None else other)
        return np.bincount(self.inverse.ravel(), weights=weights.ravel())


def _as_dense(n: int, values: np.ndarray | Sequence[float]) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1 or arr.shape[0] != (1 << n):
        raise ValueError(
            f"expected a flat array of length 2^{n}={1 << n}, got shape {arr.shape}"
        )
    return arr


@dataclass
class CubeFunction:
    """A real-valued function on {0,1}^n, dense, indexed by bitmask.

    The constructor copies its input, so the function owns its storage.
    """

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        self.values = _as_dense(self.n, self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CubeFunction):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.values, other.values)


@dataclass
class Spectrum:
    """Dense Walsh coefficients fhat(a), indexed by the character mask a."""

    n: int
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        self.coefficients = _as_dense(self.n, self.coefficients)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.n == other.n and np.array_equal(
            self.coefficients, other.coefficients
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
    normalized: bool = field(default=False)

    NORM_TOL = 1e-12

    def __post_init__(self) -> None:
        self.coords = np.array(self.coords, dtype=np.float64, copy=True)
        if self.coords.ndim != 1 or self.coords.shape[0] != len(self.support):
            raise ValueError(
                f"coords shape {self.coords.shape} does not match support "
                f"of size {len(self.support)}"
            )
        if self.normalized and abs(self.norm_squared() - 1.0) > self.NORM_TOL:
            raise ValueError(
                f"vector flagged normalized but sum of squares is "
                f"{self.norm_squared()!r}"
            )

    @classmethod
    def uniform(cls, support: SupportSet) -> "SpectrumVector":
        """The constant unit vector 1/sqrt(|A|) on the support."""
        size = len(support)
        if size == 0:
            raise ValueError("cannot build the uniform vector on an empty set")
        return cls(support, np.full(size, 1.0 / math.sqrt(size)), normalized=True)

    def norm_squared(self) -> float:
        return float(np.dot(self.coords, self.coords))

    def normalize(self) -> "SpectrumVector":
        """Rescale to the unit sphere; error on the zero vector."""
        norm = math.sqrt(self.norm_squared())
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        coords = self.coords / norm
        # guard against representable-norm rounding right at the tolerance
        coords /= math.sqrt(float(np.dot(coords, coords)))
        return SpectrumVector(self.support, coords, normalized=True)

    def to_spectrum(self, dense_cap: int | None = None) -> Spectrum:
        _require_dense(self.support.n, dense_cap)
        dense = np.zeros(1 << self.support.n)
        dense[self.support.masks_array()] = self.coords
        return Spectrum(self.support.n, dense)

    def to_function(self, dense_cap: int | None = None) -> CubeFunction:
        """Synthesize the cube function with these coefficients."""
        return synthesize(self.to_spectrum(dense_cap), dense_cap=dense_cap)


def walsh_transform(values: np.ndarray) -> np.ndarray:
    """Unnormalised in-place Walsh-Hadamard transform along the last axis,
    O(n 2^n) per row.

    An array of more than one axis is a stack of rows, each transformed
    alone, so one call serves every start of the ascent.  Float and
    complex arrays go through blocked matrix products: the n index bits
    split into ceil(n / _BLOCK_BITS) blocks of near-equal size, and each
    block is one product with the Hadamard matrix of its order (the
    lowest block as one matrix product per row, the others as a stack of
    them).  That is a few BLAS calls where the butterfly makes n numpy
    passes that each copy half the array.  Sums run in a different order
    from the butterfly, so the last bits can differ; a row's result does
    not depend on the rows stacked with it, because every product has
    the same shape whatever the number of rows.

    Integer and object arrays keep the butterfly and stay in their
    dtype: integer matrix products have no BLAS kernel and are slower
    than the butterfly.

    The input array is modified and also returned.  Applying it twice
    multiplies each row by 2^n.
    """
    lead, size = values.shape[:-1], values.shape[-1]
    if size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    # every reshape below splits the last axis only, so it is a view
    if values.dtype.kind in "fc":
        n = size.bit_length() - 1
        blocks = -(-n // _BLOCK_BITS)
        done = 0
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
    h = 1
    while h < size:
        view = values.reshape(lead + (-1, 2, h))
        top = view[..., 0, :].copy()
        view[..., 0, :] += view[..., 1, :]
        view[..., 1, :] = top - view[..., 1, :]
        h *= 2
    return values


def _convolution_table(A: SupportSet) -> tuple[np.ndarray, np.ndarray]:
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
    the result is rounded to int64.  The translation cancels in a ^ b,
    so the coordinates of the sums map back to masks by the basis alone.
    Returns (sums, counts) in the layout of ``PairIndex``; read it
    through ``A.convolution``.
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
    return frame.linear_masks(sums), counts


def analyze(f: CubeFunction, *, dense_cap: int | None = None) -> Spectrum:
    """Walsh coefficients of f, with the averaging 2^-n factor."""
    _require_dense(f.n, dense_cap)
    work = f.values.copy()
    walsh_transform(work)
    work /= float(1 << f.n)
    return Spectrum(f.n, work)


def synthesize(spec: Spectrum, *, dense_cap: int | None = None) -> CubeFunction:
    """Evaluate sum_a fhat(a) W_a pointwise; exact inverse of analyze."""
    _require_dense(spec.n, dense_cap)
    work = spec.coefficients.copy()
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


def support_of(obj: CubeFunction | Spectrum, tol: float = 0.0) -> SupportSet:
    """Indices where |value| > tol, as a SupportSet.

    Accepts either a cube function (support in point space) or a
    spectrum (support in character space); both are dense arrays over
    the same index range, so one helper serves both.
    """
    if isinstance(obj, CubeFunction):
        arr, n = obj.values, obj.n
    elif isinstance(obj, Spectrum):
        arr, n = obj.coefficients, obj.n
    else:
        raise TypeError(f"expected CubeFunction or Spectrum, got {type(obj)!r}")
    if tol < 0.0:
        raise ValueError("tolerance must be non-negative")
    idx = np.nonzero(np.abs(arr) > tol)[0]
    return SupportSet(n, tuple(int(i) for i in idx))
