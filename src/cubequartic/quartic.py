"""The quartic form over a Fourier support set and its optimisation.

For a support set A and a coefficient vector y on A, the quartic form

    F(y) = sum over x in A+A of ( sum over (a,b) with a^b = x of y_a y_b )^2

equals E f^4 for f = sum_a y_a W_a when y is a unit vector, so the
maximum of F over the unit sphere is exactly the fourth-moment ratio
maximum over functions with spectrum in A.  This module computes F two
independent ways (pair sums and the dense transform), certified lower
bounds via multi-start ascent on the sphere, assembled upper bounds,
the pair-sum matrix representation, and the last-coordinate split.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .additive import dyadic_level_sets, m_bound, plan
from .asymptotics import psi_value
from .core import (
    DEFAULT_DENSE_CAP,
    CubeFunction,
    PairIndex,
    SpectrumVector,
    SupportSet,
    walsh_transform,
)
from .spheres import sphere_sum_bound

__all__ = [
    "OptimizerConfig",
    "AscentRun",
    "MuEstimate",
    "BoundSet",
    "SplitPair",
    "big_f",
    "mu_lower",
    "mu_upper",
    "shkredov_matrix",
    "decompose_last",
]


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the multi-start sphere ascent."""

    starts: int = 32
    max_iters: int = 10_000
    tol: float = 1e-12
    seed: int = 0

    def __post_init__(self) -> None:
        tol_ok = math.isfinite(self.tol) and self.tol >= 0.0
        # random.Random(-s) would silently equal seed s, so seeds are >= 0
        if self.starts < 0 or self.max_iters < 1 or not tol_ok or self.seed < 0:
            raise ValueError(f"invalid optimizer configuration: {self}")


@dataclass(frozen=True)
class AscentRun:
    """One start of the sphere ascent and how it ended.

    kind is where the start came from: "uniform", "extra", "gaussian"
    or "level".  exit is "stationary" (the projected gradient
    vanished), "no-uphill" (F did not rise along the step's search
    direction, or the best point of its great circle did not raise F),
    "window" (the last _WINDOW steps gained less than tol) or
    "iteration-cap".
    """

    kind: str
    value: float
    iterations: int
    exit: str

    @property
    def converged(self) -> bool:
        return self.exit != "iteration-cap"


@dataclass
class MuEstimate:
    """Lower bound on the sphere maximum of F, found by ascent.

    value is F evaluated in floats at the (feasible, normalized)
    certificate, so it is a lower bound regardless of convergence, but
    only up to the rounding of that evaluation: on sphere 11 4 it reads
    4.0e-13 above r(11,4) = 3736/33 (ROADMAP item 1, exact lower
    certificates).  converged reports whether the run that produced the
    best value met the stopping criterion rather than the iteration cap.
    runs holds one record per start, in the order the starts ran;
    starts_used and iterations are counted from it.
    """

    value: float
    certificate: SpectrumVector
    converged: bool
    runs: tuple[AscentRun, ...]

    @property
    def starts_used(self) -> int:
        return len(self.runs)

    @property
    def iterations(self) -> int:
        return sum(run.iterations for run in self.runs)


@dataclass(frozen=True)
class BoundSet:
    """Upper bounds on the sphere maximum of F over a support set.

    Cardinality and multiplicity apply to every set; the two
    sphere-specific bounds are attached only when the set is recognised
    as a full Hamming sphere (the exponential one additionally needs
    k <= n/2).
    """

    cardinality_bound: int
    multiplicity_bound: int
    sphere_psi_bound: float | None
    sphere_sum_bound: int | None

    def __post_init__(self) -> None:
        if any(b < 1 for b in self.present_bounds()):
            raise ValueError("all bounds must be at least 1")

    def present_bounds(self) -> list[float]:
        out: list[float] = [self.cardinality_bound, self.multiplicity_bound]
        if self.sphere_psi_bound is not None:
            out.append(self.sphere_psi_bound)
        if self.sphere_sum_bound is not None:
            out.append(self.sphere_sum_bound)
        return out

    @property
    def best(self) -> float:
        """The least of the present bounds."""
        return float(min(self.present_bounds()))


def _pair_sums(support: SupportSet, coords: np.ndarray) -> np.ndarray:
    """The values sum_{(a,b) in M_x} y_a y_b over all x in A+A.

    Masks from 2^62 up are held as python ints in object arrays.  This
    enumeration stays apart from ``PairIndex`` so that ``big_f`` checks
    the kernels by an independent route.
    """
    arr = support.masks
    xors = (arr[:, None] ^ arr[None, :]).ravel()
    weights = np.outer(coords, coords).ravel()
    _, inverse = np.unique(xors, return_inverse=True)
    return np.bincount(inverse, weights=weights)


def big_f(y: SpectrumVector) -> float:
    """F(y) from its defining pair-sum formula; no normalization needed.

    F is 4-homogeneous, so callers scale as they please; the transform
    path E f^4 agrees with this value for unit y.
    """
    if len(y.support) == 0:
        raise ValueError("F undefined on an empty support")
    sums = _pair_sums(y.support, y.coords)
    return float(np.dot(sums, sums))


def shkredov_matrix(A: SupportSet, y: SpectrumVector) -> np.ndarray:
    """The |A| x |A| symmetric matrix T(a1, a2) = pair sum at a1 ^ a2.

    With s_x = sum_{(b1,b2) in M_x} y_b1 y_b2 this is T[i, j] =
    s_{a_i ^ a_j}, and y'Ty = sum_x s_x^2 = F(y); the maximal
    eigenvalue over unit y upper-bounds nothing by itself but exposes
    the spectral structure of the form.
    """
    if y.support != A:
        raise ValueError("vector support does not match the set")
    if len(A) == 0:
        raise ValueError("empty support")
    return A.pairs.pair_sums(y.coords)[A.pairs.inverse]


# a stack of ascent starts holds at most this many entries of kernel
# state (rows times the width of its widest row: 2^rank dense, |A+A|
# sparse), so a large transform climbs one start at a time; the budget
# also splits a pool of several sets' rows (see _climb)
_STACK_ENTRIES = 1 << 18


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of a with the same row of b.

    A stacked matrix product runs one BLAS dot per row, which is faster
    than the ufunc reductions and equals ``np.dot`` on each row.  Every
    product in the ascent keeps one matrix per row like this one, never
    one product over all rows, so that a row's result does not depend
    on the other rows of its set stacked with it.  Rows of other sets in
    a pooled stack can change its last bits, through the stack's width
    and row length (see ``_DenseKernel`` and ``_SparseKernel``).
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


# where the circle coefficients sit in a flattened 2 x 3 Gram matrix
# [u; w] [u, v, w]' of the kernels (m2 needs one more term on the sparse one)
_GRAM_2X3 = np.array([0, 1, 2, 4, 5])


class _DenseKernel:
    """Fast F and gradient evaluation through the dense transform.

    The transform runs over the 2^d coordinates of a set's affine frame
    (rank d), where F, the gradient and the circle coefficients take the
    same values as over the masks in 2^n: each coefficient y_a sits at
    the coordinate of a, and the results come back in element order.

    One kernel serves one or more sets.  Every method takes a stack of
    vectors, one per row (rows x L), and returns one result per row.
    ``evaluate`` also takes each row's set, as an index into the sets
    (all 0 by default), and returns F and a state that ``gradient``,
    ``circle`` and ``move`` take back: a tuple of arrays whose first axis
    is the row, so the ascent drops a row by indexing each.  Here it is
    the point values f of the synthesized functions (rows x 2^D, for D
    the largest rank of the rows' sets), a buffer (rows x 3 x 2^D) whose
    first row holds f^2, each row's slots as frame coordinates (rows x
    L) and the gradient's factor on each slot (rows x L).  A set of rank
    d < D fills the first 2^d coordinates, and its f repeats 2^(D - d)
    times over the 2^D points, so no mean changes.  A row of a set
    shorter than L is padded with slots at a frame coordinate outside
    its set: they hold 0 in y and have factor 0, so every vector of the
    ascent is 0 there.
    """

    def __init__(self, *sets: SupportSet) -> None:
        self.widths = [1 << A.affine.rank for A in sets]
        sizes = np.array([len(A) for A in sets])
        self.coords = np.zeros((len(sets), sizes.max()), dtype=np.int64)
        for row, A in zip(self.coords, sets):
            row[: len(A)] = A.affine.coords
            if len(A) < len(row):
                # a set that is not a full coset misses one of 0, ..., |A|
                low = A.affine.coords[A.affine.coords <= len(A)]
                row[len(A) :] = np.argmin(np.bincount(low, minlength=len(A) + 1))
        self.real = np.arange(self.coords.shape[1]) < sizes[:, None]

    @staticmethod
    def _flat(slots: np.ndarray, width: int) -> np.ndarray:
        """The slots' indices in a flattened stack of rows of this width:
        row width + frame coordinate."""
        return slots + np.arange(0, len(slots) * width, width)[:, None]

    @staticmethod
    def _at(
        point_values: np.ndarray, powers: np.ndarray, *rest: np.ndarray
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """F = mean(f^4) and the state at the given point values, with f^2
        written into the first row of the buffer ``powers``."""
        sq = np.multiply(point_values, point_values, out=powers[..., 0, :])
        scale = 1.0 / point_values.shape[-1]
        return _row_dots(sq, sq) * scale, (point_values, powers, *rest)

    def evaluate(
        self, coords: np.ndarray, row_sets: np.ndarray | None = None
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Returns (F of each row, the state of each synthesized f)."""
        row_sets = np.zeros(len(coords), dtype=int) if row_sets is None else row_sets
        width = max(self.widths[i] for i in row_sets.tolist())
        slots = self.coords[row_sets, : coords.shape[-1]]
        factor = self.real[row_sets, : coords.shape[-1]] * (4.0 / width)
        dense = np.zeros((len(coords), width))
        dense.reshape(-1)[self._flat(slots, width)] = coords
        walsh_transform(dense)
        return self._at(dense, np.empty((len(coords), 3, width)), slots, factor)

    def gradient(self, state: tuple[np.ndarray, ...]) -> np.ndarray:
        """4 * analyze(f^3) on the support, given f and f^2."""
        point_values, powers, slots, factor = state
        cube = powers[..., 0, :] * point_values
        walsh_transform(cube)
        # take keeps the rows C-contiguous, as the BLAS row dots need
        return np.take(cube, self._flat(slots, cube.shape[-1])) * factor

    def circle(
        self, state: tuple[np.ndarray, ...], direction: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """F along cos(t) y + sin(t) d, and the point values b of d.

        With a the point values of y, F = mean((c a + s b)^4), so the
        coefficients are the means of a^(4-i) b^i for i = 0..4.  As
        a^2.b^2 = ab.ab, all five are entries of one stacked product
        [a^2; b^2] [a^2, ab, b^2]'; ab and b^2 go into the state's buffer
        next to a^2.
        """
        point_values, powers, slots, _ = state
        b = np.zeros(point_values.shape)
        b.reshape(-1)[self._flat(slots, b.shape[-1])] = direction
        walsh_transform(b)
        np.multiply(point_values, b, out=powers[..., 1, :])
        np.multiply(b, b, out=powers[..., 2, :])
        gram = powers[..., ::2, :] @ np.swapaxes(powers, -1, -2)
        # [a2.a2, a2.ab, a2.b2, b2.a2, b2.ab, b2.b2] without the repeat
        coefficients = gram.reshape(gram.shape[:-2] + (6,))[..., _GRAM_2X3]
        return coefficients * (1.0 / b.shape[-1]), b

    def move(
        self,
        state: tuple[np.ndarray, ...],
        b: np.ndarray,
        c: np.ndarray,
        s: np.ndarray,
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """F and the state at cos(t) y + sin(t) d, with no transform.

        The new state reuses the buffer of the given one, which the
        ascent never reads again, and s b goes through the row that held
        ab, so a step allocates no more than the point values: near the
        dense cap a row is 2^24 entries.
        """
        point_values, powers, *rest = state
        f = c[..., None] * point_values
        f += np.multiply(s[..., None], b, out=powers[..., 1, :])
        return self._at(f, powers, *rest)


# a sparse kernel call works on blocks of consecutive rows of at most
# this many pair entries (rows times |A|^2), so that the stacked index and
# weights of a block's bincount stay in cache
_BLOCK_PAIRS = 1 << 15


class _SparseKernel:
    """F and gradient from the pair index, at cost |A|^2 per row.

    With s_x the pair sums, F = s.s and grad F = 4 T y for the pair-sum
    matrix T[i, j] = s at a_i ^ a_j.  One kernel serves the sets of one
    or more pair indexes, and its methods take stacks and each row's set
    like the dense kernel's.  The state passed from ``evaluate`` to the
    other methods is y (rows x L), a buffer (rows x 3 x W, for W the
    widest |A+A| of the rows' sets) whose first row holds s, and the
    stack's blocks (``_PairBlocks``).

    Each call works block by block: one bincount over a stacked bin index
    (position in the block x W + pair index) forms a block's pair sums,
    and one take of those sums over the same index gives its rows' T for
    one stacked product T y.  Per row these are the float operations of
    ``PairIndex.pair_sums`` and ``s[inverse] @ y``, so a one-set stack
    gives the bits of each row alone.  A block of one set's rows reads
    that set's stacked index, which the kernel keeps and extends when a
    longer block first needs it.  A block that mixes sets pads each row to its longest set with zero
    coefficients, whose pairs fall into one extra dump bin (a stack that
    pads has W + 1 bins); their sums, T rows and gradient are 0, so
    every vector of the ascent is 0 there.
    """

    def __init__(self, *indexes: PairIndex) -> None:
        self.indexes = indexes
        self.sizes = [len(index.masks) for index in indexes]
        self.widths = [len(index.sums) for index in indexes]
        # each set's index over the longest block of its rows so far
        self.full = [index.inverse.reshape(-1) for index in indexes]
        # the weights or T of any block, allocated once: a fresh array of
        # that size per call would cost its page faults each time
        self.scratch = np.empty(max(_BLOCK_PAIRS, max(self.sizes) ** 2))

    def _blocks(self, row_sets: np.ndarray) -> list[tuple[int, int, int, int, np.ndarray]]:
        """(first row, end row, row length, bins, stacked index) of each
        block of a stack whose rows belong to the sets ``row_sets``."""
        if not len(row_sets):
            return []
        # the open block's runs of rows of one set, and its widest |A|^2
        blocks, pieces, top = [], [], 0
        ends = (np.flatnonzero(row_sets[1:] != row_sets[:-1]) + 1).tolist()
        for lo, hi in zip([0, *ends], [*ends, len(row_sets)]):
            j = int(row_sets[lo])
            pairs = self.sizes[j] ** 2
            while lo < hi:
                top = max(top, pairs)
                room = max(1, _BLOCK_PAIRS // top) - (lo - pieces[0][0] if pieces else 0)
                if room > 0:
                    pieces.append((lo, min(hi, lo + room), j))
                    lo = pieces[-1][1]
                else:
                    blocks.append(self._block(pieces))
                    pieces, top = [], 0
        blocks.append(self._block(pieces))
        return blocks

    def _block(self, pieces: list[tuple[int, int, int]]) -> tuple[int, int, int, int, np.ndarray]:
        """The block of these runs of rows (first row, end row, set)."""
        lo, hi = pieces[0][0], pieces[-1][1]
        if len(pieces) == 1:
            j, size = pieces[0][2], self.sizes[pieces[0][2]]
            if len(self.full[j]) < (hi - lo) * size * size:
                offsets = np.arange(hi - lo) * self.widths[j]
                self.full[j] = (offsets[:, None] + self.full[j][: size * size]).ravel()
            return lo, hi, size, self.widths[j], self.full[j][: (hi - lo) * size * size]
        sets = [j for *_, j in pieces]
        length, top = max(self.sizes[j] for j in sets), max(self.widths[j] for j in sets)
        bins = top + (min(self.sizes[j] for j in sets) < length)
        index = np.full((hi - lo, length, length), top)
        for a, b, j in pieces:
            index[a - lo : b - lo, : self.sizes[j], : self.sizes[j]] = self.indexes[j].inverse
        index += (np.arange(hi - lo) * bins)[:, None, None]
        return lo, hi, length, bins, index.ravel()

    def _sums(self, blocks: _PairBlocks, y: np.ndarray, z: np.ndarray, out: np.ndarray) -> None:
        """The pair sums of y (x) z, row by row, into out (rows x W)."""
        for lo, hi, length, bins, index in blocks.blocks:
            weights = self.scratch[: index.size].reshape(hi - lo, length, length)
            np.multiply(y[lo:hi, :length, None], z[lo:hi, None, :length], out=weights)
            sums = np.bincount(index, weights.reshape(-1), minlength=(hi - lo) * bins)
            out[lo:hi, :bins] = sums.reshape(hi - lo, bins)
            if bins < out.shape[-1]:
                out[lo:hi, bins:] = 0.0

    def evaluate(
        self, coords: np.ndarray, row_sets: np.ndarray | None = None
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, _PairBlocks]]:
        """F and the state of each row."""
        row_sets = np.zeros(len(coords), dtype=int) if row_sets is None else row_sets
        used = set(row_sets.tolist())
        pads = min(self.sizes[j] for j in used) < coords.shape[-1]
        sums = np.empty((len(coords), 3, max(self.widths[j] for j in used) + pads))
        blocks = _PairBlocks(self, row_sets)
        self._sums(blocks, coords, coords, sums[:, 0])
        return _row_dots(sums[:, 0], sums[:, 0]), (coords, sums, blocks)

    def gradient(self, state: tuple[np.ndarray, np.ndarray, _PairBlocks]) -> np.ndarray:
        coords, sums, blocks = state
        grad = np.zeros(coords.shape)
        for lo, hi, length, bins, index in blocks.blocks:
            # take keeps the rows C-contiguous; sums[:, 0][:, inverse] is not,
            # and its stacked product changes the last bits; every index is
            # in range, and "clip" writes out unbuffered
            pairs = self.scratch[: index.size].reshape(hi - lo, length, length)
            np.take(sums[lo:hi, 0, :bins], index, out=pairs.reshape(-1), mode="clip")
            grad[lo:hi, :length] = (pairs @ coords[lo:hi, :length, None])[..., 0]
        grad *= 4.0
        return grad

    def circle(
        self, state: tuple[np.ndarray, np.ndarray, _PairBlocks], direction: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """F along cos(t) y + sin(t) d; the pair sums needed to move go
        into the state's buffer.

        With P, Q and R the pair sums of y(x)y, y(x)d and d(x)d, the
        pair sums on the circle are c^2 P + 2cs Q + s^2 R, so the
        coefficients are P.P, P.Q, (2 Q.Q + P.R) / 3, Q.R and R.R: all
        but Q.Q are entries of one stacked product [P; R] [P, Q, R]'.
        """
        coords, sums, blocks = state
        self._sums(blocks, coords, direction, sums[:, 1])
        self._sums(blocks, direction, direction, sums[:, 2])
        gram = sums[:, ::2] @ sums.transpose(0, 2, 1)
        coefficients = gram.reshape(-1, 6)[:, _GRAM_2X3]
        q = sums[:, 1]
        coefficients[:, 2] = (2.0 * _row_dots(q, q) + coefficients[:, 2]) / 3.0
        return coefficients, direction

    def move(
        self,
        state: tuple[np.ndarray, np.ndarray, _PairBlocks],
        direction: np.ndarray,
        c: np.ndarray,
        s: np.ndarray,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, _PairBlocks]]:
        """F and the state at cos(t) y + sin(t) d, with no enumeration."""
        coords, sums, blocks = state
        c, s = c[:, None], s[:, None]
        moved = np.empty_like(sums)
        # c^2 P + 2cs Q + s^2 R, one row-by-row product
        weights = np.concatenate((c * c, 2.0 * c * s, s * s), axis=1)[:, None]
        p = np.matmul(weights, sums, out=moved[:, :1])[:, 0]
        return _row_dots(p, p), (c * coords + s * direction, moved, blocks)


class _PairBlocks:
    """The blocks of a sparse stack (see ``_SparseKernel._blocks``) for
    the rows' sets ``row_sets``.  The ascent drops rows by indexing each
    part of the state with a row mask; indexed so, this cuts the kept
    rows into blocks afresh, so a mixed block's index is built once per
    ``evaluate`` and per drop, never per call."""

    def __init__(self, kernel: _SparseKernel, row_sets: np.ndarray) -> None:
        self.kernel, self.row_sets = kernel, row_sets
        self.blocks = kernel._blocks(row_sets)

    def __getitem__(self, keep: np.ndarray) -> _PairBlocks:
        return _PairBlocks(self.kernel, self.row_sets[keep])


# relative window improvement below which an ascent run stops
_WINDOW = 50

# Powell's restart threshold on |g.g_| / |g|^2 for the tangent gradients
# g and g_ of two successive steps (see _ascend)
_RESTART = 0.1


# m1 times the companion matrix of g, flattened, is m @ _COMPANION: its
# first row is the coefficients of g over m1 times m1, its subdiagonal m1
_COMPANION = np.zeros((5, 16))
_COMPANION[[0, 2, 1, 3, 2, 4, 3], [0, 0, 1, 1, 2, 2, 3]] = [1.0, -3.0, 3.0, -3.0, 3.0, -1.0, 1.0]
_COMPANION[1, [4, 9, 14]] = 1.0


def _circle_argmax(
    coefficients: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cos t, sin t) at the maximum of F over each row's great circle.

    F(cos(t) y + sin(t) d) = sum_i C(4, i) m_i cos^(4-i)(t) sin^i(t)
    for the coefficients m, one row of five per circle.  With v = cot t
    this is sin^4(t) p(v) for p(v) = sum_i C(4, i) m_i v^(4-i), and its
    derivative in t is -sin^4(t) g(v) with g(v) = (1 + v^2) p'(v) -
    4v p(v), a quartic whose degree-5 terms cancel.  F has period pi in
    t and rises from t = 0 at rate 4 m1, so when m1 > 0 its maximum
    sits at a root of g in (0, pi).  The roots are the eigenvalues of
    the companion matrix over m1: one stacked ``eigvals`` call solves
    every row's 4 x 4 matrix, scaled by m1 so that no row divides by
    zero.  Complex roots are kept by their real part: every candidate is
    a point of the circle, and the best one (the first on ties) wins.
    The four candidates of a row are scored in Python floats: for stacks
    of up to a few dozen rows that costs less than the dozen numpy calls
    of a vectorised scoring.

    Returns c, s and the uphill mask, one entry per row.  A row is not
    uphill when m1 <= 0, i.e. F does not rise along d at float
    resolution; its c and s are 1 and 0, the start of the circle.
    """
    scaled = (coefficients[:, None] @ _COMPANION).reshape(-1, 4, 4)
    roots = np.linalg.eigvals(scaled).real.tolist()
    c, s, uphill = [], [], []
    for (m0, m1, m2, m3, m4), row_roots in zip(coefficients.tolist(), roots):
        best, step = -math.inf, None
        if m1 > 0.0:
            for w in row_roots:
                v = w / m1
                h = math.hypot(1.0, v)
                cc, ss = v / h, 1.0 / h
                c2, s2 = cc * cc, ss * ss
                value = c2 * (c2 * m0 + 4.0 * cc * ss * m1 + 6.0 * s2 * m2) + s2 * (
                    4.0 * cc * ss * m3 + s2 * m4
                )
                if value > best:
                    best, step = value, (cc, ss)
        c.append(1.0 if step is None else step[0])
        s.append(0.0 if step is None else step[1])
        uphill.append(step is not None)
    return np.array(c), np.array(s), np.array(uphill)


def _ascend(
    kernel: _DenseKernel | _SparseKernel,
    starts: np.ndarray,
    cfg: OptimizerConfig,
    row_sets: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Monotone ascent of F on the unit sphere by exact great-circle
    steps along conjugate directions, for a stack of starts (rows x L)
    in lockstep; row_sets gives each row's set among the kernel's (see
    ``_DenseKernel``).

    Each step moves from y to the maximum of F over the great circle
    cos(t) y + sin(t) d, for the unit search direction d = p / |p|.
    Along it F is a quartic form in (cos t, sin t) with five
    coefficients, which the kernel returns together with what it needs
    to form the new point without a fresh evaluation;
    ``_circle_argmax`` finds the maximum exactly.  A step is taken only
    if F does not fall; otherwise the run stops.

    The search vector is p = g + beta p_ for the tangent gradient g at
    y, with p_ the previous search vector carried to y along its circle
    as |p_| (cos(t) d_ - sin(t) y_), the circle's tangent there.  beta
    = max(0, (g.g - g.g_) / |g_|^2) (Polak-Ribiere+) is 0, a gradient
    step, on a row's first step, when |g.g_| >= _RESTART |g|^2
    (Powell's restart) and when g.p <= 0.  g is orthogonal to y, so
    g.g_ needs no projection of g_.  On a gradient step a shifted power
    step normalize(grad F + alpha y), for any alpha > 0, lies on the
    same circle, so that step gains no less than it would.  beta is
    formed by elementwise array operations, the same float operations on
    each row as a loop over the rows, so a row's path does not depend on
    the other rows of its set stacked with it.

    Every kernel call serves all rows still climbing: the dense kernel
    runs two stacked Walsh transforms of length 2^d per step (the
    gradients and the transforms of the directions), the sparse one two
    bincounts and one take per block of rows over the pair index (see
    ``_SparseKernel``).  A row leaves the stack when
    its run ends, so each row follows the path it would follow alone, up
    to its last bits in a pool of several sets.

    Returns, one entry per row: the last points, their values, the
    iterations and the exit reasons (see ``AscentRun``).
    """
    y = starts / np.sqrt(_row_dots(starts, starts))[:, None]
    value, state = kernel.evaluate(y, row_sets)
    rows = len(y)
    out_y, out_value = np.empty_like(y), np.empty(rows)
    out_iterations, out_exit = np.zeros(rows, dtype=int), [""] * rows
    live = np.arange(rows)
    # ring[:, j % (_WINDOW + 1)] holds each row's value after iteration j
    ring = np.empty((rows, _WINDOW + 1))
    ring[:, 0] = value
    # each row's tangent gradient, its squared norm and its search vector
    # carried to the current point, from the previous step
    last_grad, last_norm2, last_search = np.zeros_like(y), np.ones(rows), np.zeros_like(y)

    def finish(
        done: np.ndarray, iterations: int, reason: str | np.ndarray, *extra: np.ndarray
    ) -> list[np.ndarray]:
        """Record the rows ``done`` as ended, with ``reason`` (one string or
        one per row), and drop them from every per-row array: live, y,
        value, state, ring and the previous step's vectors here, and the
        ``extra`` arrays live at the call, which it returns."""
        nonlocal live, y, value, state, ring, last_grad, last_norm2, last_search
        reasons = np.broadcast_to(np.asarray(reason), done.shape)[done].tolist()
        for row, point, reached, why in zip(live[done], y[done], value[done], reasons):
            out_y[row], out_value[row] = point, reached
            out_iterations[row], out_exit[row] = iterations, why
        keep = ~done
        live, y, value, ring = live[keep], y[keep], value[keep], ring[keep]
        last_grad, last_norm2 = last_grad[keep], last_norm2[keep]
        last_search = last_search[keep]
        state = tuple(part[keep] for part in state)
        return [part[keep] for part in extra]

    for iterations in range(1, cfg.max_iters + 1):
        grad = kernel.gradient(state)
        # radial = grad.y = 4F, and F = E f^4 >= (E f^2)^2 = 1 on the unit
        # sphere, so the relative test needs no floor at 1; nor does the
        # window's below
        radial = _row_dots(grad, y)
        tangent = grad - radial[:, None] * y
        stationary = np.sqrt(_row_dots(tangent, tangent)) <= 1e-14 * radial
        if np.count_nonzero(stationary):
            (tangent,) = finish(stationary, iterations, "stationary", tangent)
            if not len(live):
                break
        # a second projection: near a stationary point the first leaves
        # a radial part of relative size eps |grad| / |tangent|, which
        # would tilt the circle off the sphere and let F grow with |y|
        tangent -= _row_dots(tangent, y)[:, None] * y
        norm2 = _row_dots(tangent, tangent)
        search = tangent
        if iterations > 1:
            cross = _row_dots(tangent, last_grad)
            beta = (norm2 - cross) / last_norm2
            # Powell's test also catches every beta <= 0, where g.g_ >= g.g;
            # g.p = g.g + beta g.p_
            slope = norm2 + beta * _row_dots(tangent, last_search)
            beta[(np.abs(cross) >= _RESTART * norm2) | (slope <= 0.0)] = 0.0
            search = tangent + beta[:, None] * last_search
        length = np.sqrt(_row_dots(search, search))[:, None]
        direction = search / length
        coefficients, arc = kernel.circle(state, direction)
        c, s, uphill = _circle_argmax(coefficients)
        value_new, state = kernel.move(state, arc, c, s)
        # the dense arc is rows x 2^n: drop it before the next gradient
        del arc
        # no uphill point on the circle at float resolution: the row ends
        # where it stands
        stuck = ~uphill | (value_new < value)
        c, s = c[:, None], s[:, None]
        y_new = c * y + s * direction
        last_grad, last_norm2 = tangent, norm2
        last_search = length * (c * direction - s * y)
        if np.count_nonzero(stuck):
            y_new[stuck], value_new[stuck] = y[stuck], value[stuck]
        y, value = y_new, value_new
        ring[:, iterations % (_WINDOW + 1)] = value
        done = stuck
        if iterations >= _WINDOW:
            oldest = ring[:, (iterations + 1) % (_WINDOW + 1)]
            done = stuck | (value - oldest <= cfg.tol * value)
        if np.count_nonzero(done):
            finish(done, iterations, np.where(stuck, "no-uphill", "window"))
            if not len(live):
                break
    else:
        finish(np.ones(len(live), dtype=bool), cfg.max_iters, "iteration-cap")
    return out_y, out_value, out_iterations, out_exit


def _gaussian(rng: random.Random, size: int) -> np.ndarray:
    """size standard normal draws, by Box-Muller over 2 * size uniforms.

    Python fixes the ``random()`` stream of an integer seed across
    versions (it promises no such thing for ``gauss()``), and ``random``
    is loaded with numpy anyway, unlike the lazily imported
    ``numpy.random``.  The uniforms are read in bulk and are the same
    floats as 2 * size calls of ``random()``, which leaves the generator
    where those calls would: ``random()`` is (a 2^26 + b) / 2^53 for the
    next two 32-bit outputs w1, w2 of the generator, a = w1 >> 5 and
    b = w2 >> 6, and ``getrandbits(64 m)`` holds 2m successive outputs
    as little-endian 32-bit words.
    """
    count = 2 * size
    words = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    w = np.frombuffer(words, dtype="<u4").astype(np.int64)
    u = ((w[0::2] >> 5) * (1 << 26) + (w[1::2] >> 6)) / float(1 << 53)
    # 1 - u lies in (0, 1], so the logarithm is finite
    return np.sqrt(-2.0 * np.log1p(-u[:size])) * np.cos(2.0 * math.pi * u[size:])


def mu_lower(
    A: SupportSet,
    cfg: OptimizerConfig = OptimizerConfig(),
    *,
    dense_cap: int = DEFAULT_DENSE_CAP,
    extra_starts: tuple[SpectrumVector, ...] = (),
) -> MuEstimate:
    """Best F value found by multi-start ascent on the unit sphere.

    The start list is, in order: the uniform vector on A, any caller
    extras, cfg.starts seeded gaussian vectors, and indicator vectors
    of each dyadic level set of the best first-phase iterate.  Every
    reported value is F at a feasible point, hence a lower bound up to
    float rounding (see ``MuEstimate``); the uniform start pins it at or
    above the energy ratio of A.

    F and its gradient come from the kernel that ``plan`` picks: the pair
    index ``A.pairs`` or the dense transform over the affine frame.  The
    reported value is F at the normalized certificate through the same
    kernel; ``big_f`` is the independent route that tests compare it with.

    When |A| = 2^d, A is a coset of a subspace, and F <= |A| on the unit
    sphere (the cardinality bound) with equality at the uniform vector:
    that start is returned as exact, with no kernel and no iteration.
    """
    return _climb([(A, extra_starts)], cfg, dense_cap)[0]


def _climb(
    problems: list[tuple[SupportSet, tuple[SpectrumVector, ...]]],
    cfg: OptimizerConfig,
    dense_cap: int,
) -> list[MuEstimate]:
    """``mu_lower`` of each set, given with its extra starts, at once.

    Each set gets the starts, runs and certificate that ``mu_lower``
    describes, but the rows of the sets planned on one kernel share
    stacks: each phase pools them set by set in order of width (2^rank
    dense, |A+A| sparse), and a stack closes where its kernel state
    (rows times the largest width) would pass _STACK_ENTRIES, or before
    a set whose width would make the stack's padding take more entries
    than its rows fill.  Pooling saves the fixed cost of each numpy call
    of a step, and padding costs entries: on a 2-vCPU host, one stack of
    width 2^9 for the dense cells of ``scan --n-max 10`` (33 starts
    each) climbed 1.8x slower than the cells alone.
    """
    out: dict[int, MuEstimate] = {}
    planned: dict[str, list[int]] = {"sparse": [], "dense": []}
    for i, (A, _) in enumerate(problems):
        if len(A) == 0:
            raise ValueError("cannot optimise over an empty support")
        if len(A) == 1 << A.affine.rank:
            run = AscentRun("uniform", float(len(A)), 0, "stationary")
            out[i] = MuEstimate(float(len(A)), SpectrumVector.uniform(A), True, (run,))
        else:
            planned[plan(len(A), A.affine.rank, dense_cap).kernel].append(i)
    # each kernel with the problems it serves, in the order of its sets:
    # the order of their widths, |A+A| sparse and 2^rank dense
    sparse = sorted(planned["sparse"], key=lambda i: len(problems[i][0].pairs.sums))
    dense = sorted(planned["dense"], key=lambda i: problems[i][0].affine.rank)
    groups: list[tuple[_DenseKernel | _SparseKernel, list[int]]] = []
    if sparse:
        groups.append((_SparseKernel(*[problems[i][0].pairs for i in sparse]), sparse))
    if dense:
        groups.append((_DenseKernel(*[problems[i][0] for i in dense]), dense))
    first: dict[int, list[tuple[str, np.ndarray]]] = {}
    for i in sorted(sparse + dense):
        A, extra_starts = problems[i]
        rng = random.Random(cfg.seed)
        first[i] = [("uniform", SpectrumVector.uniform(A).coords)]
        for extra in extra_starts:
            if extra.support != A:
                raise ValueError("extra start support does not match the set")
            first[i].append(("extra", extra.normalize().coords))
        for _ in range(cfg.starts):
            vec = _gaussian(rng, len(A))
            while float(np.dot(vec, vec)) == 0.0:
                vec = _gaussian(rng, len(A))
            first[i].append(("gaussian", vec))
    runs: dict[int, list[AscentRun]] = {i: [] for i in first}
    best: dict[int, tuple[np.ndarray, AscentRun]] = {}

    def climb(batches: dict[int, list[tuple[str, np.ndarray]]]) -> None:
        for kernel, members in groups:
            chunks: list[list[tuple[int, str, np.ndarray]]] = []
            filled = 0  # the entries the last chunk's rows fill unpadded
            for j, i in enumerate(members):
                width, rows = kernel.widths[j], [(j, *start) for start in batches[i]]
                cap = max(1, _STACK_ENTRIES // width)
                # sets come in rank order, so a chunk's last set sets its
                # width; a set joins the last chunk, up to the budget, unless
                # padding the chunk to its width takes more entries than it fills
                joined = len(chunks[-1]) + len(rows) if chunks else 0
                if chunks and joined * width <= 2 * (filled + len(rows) * width):
                    room = max(0, cap - len(chunks[-1]))
                    chunks[-1] += rows[:room]
                    filled += min(room, len(rows)) * width
                    rows = rows[room:]
                for lo in range(0, len(rows), cap):
                    chunks.append(rows[lo : lo + cap])
                    filled = len(chunks[-1]) * width
            for chunk in chunks:
                starts = np.zeros((len(chunk), max(len(start) for *_, start in chunk)))
                for row, (*_, start) in enumerate(chunk):
                    starts[row, : len(start)] = start
                row_sets = np.array([j for j, *_ in chunk])
                ys, values, iterations, exits = _ascend(kernel, starts, cfg, row_sets)
                for (j, kind, _), y, value, iters, exit_reason in zip(
                    chunk, ys, values.tolist(), iterations.tolist(), exits
                ):
                    i = members[j]
                    runs[i].append(AscentRun(kind, value, iters, exit_reason))
                    if i not in best or value > best[i][1].value:
                        best[i] = y, runs[i][-1]

    climb(first)
    # second phase: indicator starts on the dyadic slices of each leader
    levels = {}
    for i in first:
        A = problems[i][0]
        slices = dyadic_level_sets(SpectrumVector(A, best[i][0][: len(A)]))
        levels[i] = [
            ("level", SpectrumVector.unit_indicator(A, level).coords) for _, level in slices.levels
        ]
    climb(levels)

    for kernel, members in groups:
        for j, i in enumerate(members):
            A = problems[i][0]
            certificate = SpectrumVector(A, best[i][0][: len(A)]).normalize()
            value = float(kernel.evaluate(certificate.coords[None], np.array([j]))[0][0])
            out[i] = MuEstimate(value, certificate, best[i][1].converged, tuple(runs[i]))
    return [out[i] for i in range(len(problems))]


def mu_upper(A: SupportSet, *, dense_cap: int = DEFAULT_DENSE_CAP) -> BoundSet:
    """Assembled upper bounds: cardinality, multiplicity, sphere forms.

    The sum bound applies to any full sphere; the exponential bound
    2^(n psi(k/n)) additionally requires k <= n/2.
    """
    if len(A) == 0:
        raise ValueError("no bounds for the empty set")
    psi_bound: float | None = None
    sum_bound: int | None = None
    k = A.sphere_radius()
    if k is not None:
        sum_bound = sphere_sum_bound(k)
        if 2 * k <= A.n:
            # on the cube of dimension 0 the envelope is 2^0
            psi_bound = 2.0 ** (A.n * psi_value(k / A.n)) if A.n else 1.0
    return BoundSet(len(A), m_bound(A, dense_cap=dense_cap), psi_bound, sum_bound)


@dataclass
class SplitPair:
    """Last-coordinate split f = (g0 + g1, g0 - g1)."""

    g0: CubeFunction
    g1: CubeFunction

    def __post_init__(self) -> None:
        if self.g0.n != self.g1.n:
            raise ValueError("split halves must share a dimension")


def decompose_last(f: CubeFunction) -> SplitPair:
    """Split off the last coordinate:

        g0 = (f restricted to x_n=0 + f restricted to x_n=1) / 2
        g1 = (f restricted to x_n=0 - f restricted to x_n=1) / 2

    If f's spectrum lives on S(n, k) then g0's lives on S(n-1, k) and
    g1's on S(n-1, k-1), and the fourth moment splits as
    E f^4 = E g0^4 + 6 E g0^2 g1^2 + E g1^4.
    """
    if f.n < 1:
        raise ValueError("cannot split a 0-dimensional function")
    half = 1 << (f.n - 1)
    low = f.values[:half]
    high = f.values[half:]
    g0 = CubeFunction(f.n - 1, (low + high) / 2.0)
    g1 = CubeFunction(f.n - 1, (low - high) / 2.0)
    return SplitPair(g0, g1)
