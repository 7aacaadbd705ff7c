"""Additive structure of subsets of the cube under XOR.

Everything here is exact integer or rational arithmetic.  For a set A
and a point x, M_x is the set of ordered pairs (a, b) in A x A with
a XOR b = x; the table of |M_x| drives the additive energy

    E2(A, A) = sum_x |M_x|^2
             = #{(a, b, c, d) in A^4 : a ^ b ^ c ^ d = 0},

the multiplicity bound m(A) = 1 + max_{x != 0} |M_x|, and the
hereditary energy maximum over subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import core
from .core import DEFAULT_DENSE_CAP, MultiplicityTable, PairIndex, SpectrumVector, SupportSet
from .errors import DimensionMismatchError, ResourceLimitError

# the greedy removal sweep costs O(|A|^2) numpy work (its row sums once,
# then |A| - 1 rounds of a few O(|A|) passes on fixed-length arrays);
# above this size only the full set and the certificate level sets are
# scored.  Raising the limit would change the reported hereditary bound
# of larger sets, such as sphere 11 4 (330 elements)
GREEDY_LIMIT = 300

# the exhaustive search visits all 2^|A| subsets, so past this size it
# would run for hours; a request above it is refused before any work
EXHAUSTIVE_LIMIT = 26

# the exhaustive search transforms its 2^|A| subset codes in chunks of at
# most this many entries (a quarter of a megabyte of int16), which keeps
# its peak memory flat in |A|
_BLOCK_ENTRIES = 1 << 17

__all__ = [
    "Plan",
    "plan",
    "PairIndex",
    "MultiplicityTable",
    "LevelSetDecomposition",
    "HereditaryResult",
    "pair_multiplicities",
    "m_bound",
    "additive_energy",
    "energy_ratio",
    "sumset",
    "hereditary_energy",
    "dyadic_level_sets",
]


@dataclass(frozen=True)
class Plan:
    """The routes ``plan`` chose for one set.  kernel: "sparse" (the pair
    index) or "dense" (the Walsh transform); pairs: whether the pair index
    is built; convolution: "route" (the pair table's only one),
    "cross-check" or None; hereditary: "exhaustive", "greedy", "full set"
    (the full set and the certificate's level sets are scored) or None
    (not planned)."""

    kernel: str
    pairs: bool
    convolution: str | None
    hereditary: str | None


def plan(
    size: int, rank: int, dense_cap: int = DEFAULT_DENSE_CAP, exact_limit: int | None = None
) -> Plan:
    """Every route for a set of ``size`` elements and affine rank ``rank``,
    decided before any work, or ResourceLimitError naming the first stage
    that has none.  The dense cap (clamped at 62, past which coordinates
    leave int64) refuses dense work only: past it a set whose |A|^2 pairs
    are within ``PAIR_ENUMERATION_LIMIT`` runs sparse.  The hereditary
    stage takes no dense cap, so past the pair cap its scoring of the full
    set and the level sets (by convolutions) needs d <= ``DEFAULT_DENSE_CAP``.
    """
    pairs = size * size <= core.PAIR_ENUMERATION_LIMIT
    cap = min(dense_cap, 62)
    # a kernel call costs about |A|^2 on the pair index and d 2^d dense
    if pairs and (size * size <= rank << rank or rank > cap):
        kernel = "sparse"
    elif rank <= cap:
        kernel = "dense"
    else:
        raise ResourceLimitError(
            f"estimation stage: affine rank {rank} exceeds the dense cap {cap}, "
            f"and the {size * size} pairs of a {size}-element set exceed the "
            f"enumeration cap {core.PAIR_ENUMERATION_LIMIT}"
        )
    # the convolution's partial sums reach 2^d |A| < 2^(d + bitlen |A|)
    convolution = rank <= dense_cap and rank + size.bit_length() <= 53
    if not (pairs or convolution):
        raise ResourceLimitError(
            f"pair stage: the {size * size} pairs of a {size}-element set of "
            f"affine rank d={rank} exceed the enumeration cap, and the dense "
            f"convolution needs d <= {dense_cap} and d + bitlen|A| <= 53"
        )
    if exact_limit is None:
        hereditary = None
    elif size <= exact_limit:
        if size > EXHAUSTIVE_LIMIT:
            raise ResourceLimitError(
                f"hereditary stage: exhaustive search over the 2^{size} subsets "
                f"of a {size}-element set exceeds the cap of {EXHAUSTIVE_LIMIT} "
                f"elements; lower the exact limit below {size}"
            )
        hereditary = "exhaustive"
    elif pairs and size <= GREEDY_LIMIT:
        hereditary = "greedy"
    elif pairs or rank <= DEFAULT_DENSE_CAP:
        hereditary = "full set"
    else:
        raise ResourceLimitError(
            f"hereditary stage: scoring a {size}-element set past the pair cap "
            f"needs its affine rank {rank} within the default dense cap "
            f"{DEFAULT_DENSE_CAP}"
        )
    convolution = ("cross-check" if pairs else "route") if convolution else None
    return Plan(kernel, pairs, convolution, hereditary)


def pair_multiplicities(
    A: SupportSet, *, dense_cap: int = DEFAULT_DENSE_CAP
) -> MultiplicityTable:
    """The table x -> |M_x| over ordered pairs of A.

    Two independent routes exist: direct pair enumeration (any n, cost
    |A|^2, read off ``A.pairs``) and dense XOR self-convolution (cost
    d 2^d for the affine rank d, read off ``A.convolution``); ``plan``
    chooses, and the table returned is the set's own.  When both run, the
    convolution cross-checks the enumeration before the table is returned.
    """
    if len(A) == 0:
        raise ValueError("pair multiplicities undefined for the empty set")
    route = plan(len(A), A.affine.rank, dense_cap)
    if not route.pairs:
        return A.convolution
    index = A.pairs
    if route.convolution:
        table = A.convolution
        if not (np.array_equal(index.sums, table.sums) and np.array_equal(index.counts, table.counts)):
            raise RuntimeError(
                "pair multiplicity cross-check failed between "
                "enumeration and convolution"
            )
    return index


def m_bound(A: SupportSet, *, dense_cap: int = DEFAULT_DENSE_CAP) -> int:
    """m(A) = 1 + max over x != 0 of |M_x|; 1 for singletons."""
    return pair_multiplicities(A, dense_cap=dense_cap).m_bound()


def additive_energy(A: SupportSet) -> int:
    """E2(A, A), the number of XOR quadruples, exactly."""
    return pair_multiplicities(A).energy()


def energy_ratio(A: SupportSet) -> Fraction:
    """E2(A, A) / |A|^2 as an exact rational.

    This is the value of the quartic form at the uniform unit vector on
    A, hence a certified lower bound for the maximum.
    """
    return Fraction(additive_energy(A), len(A) ** 2)


def sumset(B: SupportSet, C: SupportSet) -> SupportSet:
    """B + C = {b ^ c}, with |B + C| >= max(|B|, |C|) when both non-empty."""
    if B.n != C.n:
        raise DimensionMismatchError(
            f"sumset needs equal dimensions, got {B.n} and {C.n}"
        )
    if len(B) == 0 or len(C) == 0:
        return SupportSet(B.n, ())
    if len(B) * len(C) > core.PAIR_ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"sumset enumeration of {len(B)}x{len(C)} pairs exceeds the cap"
        )
    # sort and drop repeats: a bare np.unique would import numpy.ma
    xors = np.sort((B.masks[:, None] ^ C.masks[None, :]).ravel())
    fresh = np.concatenate(([True], xors[1:] != xors[:-1]))
    return SupportSet(B.n, tuple(xors[fresh].tolist()))


@dataclass(frozen=True)
class HereditaryResult:
    """Best subset found for the hereditary energy maximum.

    ``exact`` records whether the ratio is the proven maximum, found
    either by the pair-count certificate or by visiting every non-empty
    subset; when False the ratio is only a certified lower bound for the
    maximum.
    """

    best: SupportSet
    ratio: Fraction
    exact: bool

    def __post_init__(self) -> None:
        if len(self.best) == 0:
            raise ValueError("hereditary result needs a non-empty subset")


def _zero_quadruples(index: PairIndex) -> np.ndarray:
    """Subset codes of the 4-subsets of A whose XOR is 0, each listed once.

    Element i sits at bit m - 1 - i of a code.  Two distinct pairs of
    distinct elements with the same sum are disjoint, so every two such
    pairs sharing a sum make a 4-subset with XOR 0.  Each such {a < b < c < d} splits into pairs of
    equal sum in three ways; it is listed from the split {a, b}, {c, d}.
    """
    m = len(index.inverse)
    rows, cols = np.triu_indices(m, 1)
    sums = index.inverse[rows, cols]
    order = np.argsort(sums, kind="stable")
    sums, rows, cols = sums[order], rows[order], cols[order]
    codes = (1 << (m - 1 - rows)) | (1 << (m - 1 - cols))
    found = [np.zeros(0, dtype=codes.dtype)]
    # the pairs of one sum are consecutive, in increasing order of their
    # smaller element; ``gap`` walks every distance within a group
    for gap in range(1, len(sums)):
        same = sums[:-gap] == sums[gap:]
        if not same.any():
            break
        keep = same & (cols[:-gap] < rows[gap:])
        found.append(codes[:-gap][keep] | codes[gap:][keep])
    return np.concatenate(found)


def _exhaustive_hereditary(index: PairIndex) -> tuple[tuple[int, ...], Fraction]:
    """The exact maximum of E2(B, B) / |B|^2 over all non-empty B, B as
    its element positions.

    An ordered quadruple of B with XOR 0 either pairs up two values (the
    3|B|^2 - 2|B| quadruples with a = b, c = d or a permutation of that)
    or holds four distinct elements; none holds exactly three.  So
    E2(B, B) = 3|B|^2 - 2|B| + 24 Q(B), where Q(B) counts the 4-subsets
    of B with XOR 0 (``_zero_quadruples``), and for each size the best
    subset is the one with the most such 4-subsets.  Q over all 2^m
    subsets is the subset-sum (zeta) transform of their indicator, which
    costs about m 2^m int16 additions; Q <= C(26, 4) fits int16 below
    the size cap.

    The subset codes, with element i at bit m - 1 - i, are walked in
    chunks of at most ``_BLOCK_ENTRIES`` entries with the top bits fixed
    per chunk: the chunk of top code T transforms the 4-subsets whose
    top part lies within T over the low bits.  The high half of the low
    bits is transformed in place, the low half after a transpose, so no
    pass runs over short strided runs.

    For each size the best subset is one integer key, Q shifted left by
    m bits, OR-ed with its code.  Among equal Q the larger key is the
    subset holding the least element of the symmetric difference, i.e.
    the lexicographically smaller tuple (masks are sorted).  Across
    sizes the higher ratio wins, then the smaller subset.
    """
    m = len(index.inverse)
    quads = _zero_quadruples(index)
    low = min(m, _BLOCK_ENTRIES.bit_length() - 1)
    split = low // 2
    low_mask = (1 << low) - 1
    tops, lows = quads >> low, quads & low_mask
    # a transposed chunk holds code l1 * 2^split + l0 at (l0, l1); its
    # entries are read in order of popcount (built by doubling), and
    # in order of position within one popcount
    sizes = np.zeros(1, dtype=np.int8)
    for _ in range(low):
        sizes = np.concatenate((sizes, sizes + 1))
    where = np.argsort(sizes.reshape(-1, 1 << split).T.ravel(), kind="stable")
    codes = (where & ((1 << (low - split)) - 1)) << split | where >> (low - split)
    size_starts = np.cumsum([0] + [math.comb(low, k) for k in range(low)])
    best = np.zeros(m + 1, dtype=np.int64)
    for top in range(1 << (m - low)):
        block = np.bincount(lows[(tops & ~top) == 0], minlength=1 << low)
        block = block.astype(np.int16)
        for bit in range(split, low):
            pairs = block.reshape(-1, 2, 1 << bit)
            pairs[:, 1] += pairs[:, 0]
        block = block.reshape(-1, 1 << split).T.copy()
        for bit in range(split):
            pairs = block.reshape(-1, 2, (1 << bit) * block.shape[1])
            pairs[:, 1] += pairs[:, 0]
        keys = block.ravel()[where].astype(np.int64) << low | codes
        keys = np.maximum.reduceat(keys, size_starts)
        keys = (keys >> low << m) | (keys & low_mask) | top << low
        size = bin(top).count("1")
        window = best[size : size + low + 1]
        np.maximum(window, keys, out=window)
    best_size, best_ratio = 1, Fraction(1)
    for size in range(2, m + 1):
        energy = 3 * size * size - 2 * size + 24 * (int(best[size]) >> m)
        ratio = Fraction(energy, size * size)
        if ratio > best_ratio:
            best_size, best_ratio = size, ratio
    key = int(best[best_size])
    members = [i for i in range(m) if key >> (m - 1 - i) & 1]
    return tuple(members), best_ratio


def _fill_bounds(index: PairIndex) -> list[int]:
    """U(s) for s = 0..|A|: the largest sum over x != 0 of C(q_x, 2) over
    integers 0 <= q_x <= min(p_x, s // 2) with sum q_x = C(s, 2), where
    p_x is the number of unordered pairs of A with XOR x.

    C(., 2) is convex, so the filling that pours the C(s, 2) pairs into
    the largest caps first majorizes every other one and has the largest
    sum.  The caps are walked as groups of equal p, poured at once.
    """
    many = np.bincount(index.counts[1:] >> 1).tolist()
    caps = [(p, many[p]) for p in range(len(many) - 1, 0, -1) if many[p]]
    bounds = []
    for size in range(len(index.inverse) + 1):
        half = size // 2
        left = size * (size - 1) // 2
        total = 0
        for p, count in caps:
            if not left:
                break
            q = min(p, half)
            full = min(count, left // q)
            total += full * (q * (q - 1) // 2)
            left -= full * q
            if full < count:
                # the rest, fewer than q pairs, goes into the next cap of q
                total += left * (left - 1) // 2
                left = 0
        bounds.append(total)
    return bounds


def _full_set_is_best(index: PairIndex) -> bool:
    """True when every non-empty proper subset B of A has a smaller ratio
    E2(B, B) / |B|^2 than A itself, proved from the pair counts of A.

    Pairs of A with one sum x are disjoint, so a subset B of size s holds
    p_x(B) <= min(p_x, s // 2) of the p_x pairs with sum x, and the
    p_x(B) add up to C(s, 2).  Since E2(B, B) = 3 s^2 - 2 s +
    8 sum_x C(p_x(B), 2), and that sum is three times the number of
    4-subsets of B with XOR 0, E2(B, B) <= 3 s^2 - 2 s + 24 floor(U(s) / 3)
    with U from ``_fill_bounds``.  The test is strict because a smaller
    subset wins a tie.
    """
    m = len(index.inverse)
    energy = index.energy()
    return all(
        (3 * s * s - 2 * s + 24 * (bound // 3)) * m * m < energy * s * s
        for s, bound in enumerate(_fill_bounds(index)[1:m], start=1)
    )


def _greedy_hereditary(index: PairIndex) -> tuple[tuple[int, ...], Fraction]:
    """Peel off one element at a time, keeping whichever removal helps
    most; the best subset seen is returned as its element positions.

    With c the pair counts of the current set B, removing a lowers
    E2(B, B) by (2 c_0 - 1) + sum over b in B, b != a, of (4 c_{a^b} - 4)
    = 4 r_a - 6|B| + 3, where r_a = sum over b in B of c_{a^b}.  So each
    round removes the first a (in mask order) with the least row sum r_a.

    The row sums are computed once.  Removing p changes the counts to
    c'_x = c_x - 2 [p ^ x in B] + [x = 0], so every remaining row moves
    by r'_a = r_a - 3 c_{a^p} + 3 with the counts before the removal.
    A round is O(|A|) work on arrays that keep length |A|, and the sweep
    O(|A|^2).  A removed row is parked at 2^62, far above any live sum
    (at most |A|^2); it reads only true counts c_{a^p} <= |A|, so it moves
    by at most 3|A| a round and never wins the argmin or leaves int64.
    Counts and row sums stay exact int64, and ratios are compared by
    cross-multiplying python ints.
    """
    counts = index.counts.copy()
    row_sums = counts[index.inverse].sum(axis=1)
    size = len(row_sums)
    # removing p takes 2 off c_{a^p} for each live a, none for a removed a
    drops = np.full(size, 2, dtype=counts.dtype)
    energy = index.energy()
    removed: list[int] = []
    best_energy, best_size = energy, size
    while size > 1:
        pick = int(np.argmin(row_sums))
        energy -= 4 * int(row_sums[pick]) - 6 * size + 3
        # a ^ p is distinct for distinct a.  c_0 is read only by the row
        # of p itself, so the +1 at x = 0 need not be applied
        row_p = index.inverse[pick]
        c = counts[row_p]
        row_sums -= 3 * c - 3
        counts[row_p] = c - drops
        row_sums[pick] = 1 << 62
        drops[pick] = 0
        removed.append(pick)
        size -= 1
        if energy * best_size * best_size > best_energy * size * size:
            best_energy, best_size = energy, size
    best = np.delete(np.arange(len(row_sums)), removed[: len(row_sums) - best_size])
    return tuple(best.tolist()), Fraction(best_energy, best_size * best_size)


def _subset_energy(A: SupportSet, B: SupportSet) -> int:
    """E2(B, B) for B within A, enumerating no set past the pair cap:
    off A's index when the plan builds it (no new index is built), else
    off B's own index or, past the cap, B's pair table."""
    if plan(len(A), A.affine.rank).pairs:
        index = A.pairs
        if len(B) == len(A):
            return index.energy()
        rows = np.searchsorted(A.masks, B.elements)
        counts = np.bincount(index.inverse[np.ix_(rows, rows)].ravel())
        return int(np.dot(counts, counts))
    table = B.pairs if plan(len(B), B.affine.rank).pairs else pair_multiplicities(B)
    return table.energy()


def hereditary_energy(
    A: SupportSet,
    *,
    exact_limit: int = 20,
    certificate: SpectrumVector | None = None,
) -> HereditaryResult:
    """max over non-empty B subset of A of E2(B, B) / |B|^2.

    ``plan`` picks the search, at the default dense cap, and refuses
    before any work what it cannot afford.  The exhaustive search (up to
    ``exact_limit`` elements) is exact: A itself when its pair counts
    prove that no proper subset reaches its ratio (``_full_set_is_best``),
    else the subset transform over all 2^|A| subsets.  Past the limit a
    heuristic search runs: a greedy element-removal sweep or the full set
    alone, and, when a certificate vector on A is supplied, its dyadic
    level sets.  The heuristic answer is a certified lower bound with
    ``exact=False``.  No set past the pair cap is enumerated (see
    ``_subset_energy``).
    """
    if len(A) == 0:
        raise ValueError("hereditary energy undefined for the empty set")
    if certificate is not None and certificate.support != A:
        raise ValueError("certificate support does not match the set")
    route = plan(len(A), A.affine.rank, exact_limit=exact_limit).hereditary
    if route == "exhaustive":
        index = A.pairs
        if _full_set_is_best(index):
            return HereditaryResult(A, Fraction(index.energy(), len(A) ** 2), exact=True)
        members, ratio = _exhaustive_hereditary(index)
        best = SupportSet(A.n, tuple(A.elements[i] for i in members))
        return HereditaryResult(best, ratio, exact=True)

    candidates: list[SupportSet] = []
    if certificate is not None and certificate.norm_squared() > 0.0:
        decomposition = dyadic_level_sets(certificate)
        candidates = [level for _, level in decomposition.levels]
        candidates.append(decomposition.tail)
    if route == "greedy":
        members, best_ratio = _greedy_hereditary(A.pairs)
        best_set = tuple(A.elements[i] for i in members)
    else:
        best_set = A.elements
        best_ratio = Fraction(_subset_energy(A, A), len(A) ** 2)
    for cand in candidates:
        # both searches start from the full set, which a candidate equal
        # to it cannot beat under the tie rule; an empty tail scores nothing
        if not 0 < len(cand) < len(A):
            continue
        ratio = Fraction(_subset_energy(A, cand), len(cand) ** 2)
        if ratio > best_ratio or (
            ratio == best_ratio
            and (len(cand), cand.elements) < (len(best_set), best_set)
        ):
            best_set, best_ratio = cand.elements, ratio
    return HereditaryResult(SupportSet(A.n, best_set), best_ratio, exact=False)


@dataclass(frozen=True)
class LevelSetDecomposition:
    """Dyadic slices of a spectrum vector y, by the size of |y| / |y|_2.

    Level i (1-based) holds the coordinates with 2^-i < y_a <= 2^-(i-1);
    levels run up to the cutoff N = ceil(log2 |A| / 2) + 2 and whatever
    remains in (0, 2^-N] lands in the tail.  Coordinates equal to zero
    belong to no slice.
    """

    levels: tuple[tuple[int, SupportSet], ...]
    cutoff: int
    tail: SupportSet


def dyadic_level_sets(y: SpectrumVector) -> LevelSetDecomposition:
    """Split the support of y by dyadic coefficient size.

    The slices are those of ``normalize()`` of |y|, the standard reduction
    before level-set arguments, so every coordinate is at most 1 and level
    indices start at 1.  The zero vector raises ValueError.
    """
    y = SpectrumVector(y.support, np.abs(y.coords)).normalize()
    size = len(y.support)
    cutoff = math.ceil(math.log2(size) / 2) + 2 if size > 1 else 2
    # y_a = m 2^e with 1/2 <= m < 1 lies in (2^-i, 2^-(i-1)] for i = 1 - e,
    # or for i = 2 - e when m = 1/2; the tail takes level cutoff + 1, zeros 0
    mantissa, exponent = np.frexp(y.coords)
    level = np.minimum(np.where(mantissa > 0.5, 1 - exponent, 2 - exponent), cutoff + 1)
    level[mantissa == 0.0] = 0
    # a stable sort keeps each slice in mask order
    order = np.argsort(level, kind="stable")
    level = level[order]
    masks = y.support.masks[order].tolist()
    bounds = [0, *(np.flatnonzero(level[1:] != level[:-1]) + 1).tolist(), size]
    slices = {int(level[lo]): tuple(masks[lo:hi]) for lo, hi in zip(bounds, bounds[1:])}
    slices.pop(0, None)
    n = y.support.n
    tail = SupportSet(n, slices.pop(cutoff + 1, ()))
    levels = tuple((i, SupportSet(n, slices[i])) for i in sorted(slices))
    return LevelSetDecomposition(levels, cutoff, tail)
