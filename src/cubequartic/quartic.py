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
    if A.elements != y.support.elements or A.n != y.support.n:
        raise ValueError("vector support does not match the set")
    if len(A) == 0:
        raise ValueError("empty support")
    return A.pairs.pair_sums(y.coords)[A.pairs.inverse]


# a stack of ascent starts holds at most this many entries of kernel
# state (rows times the kernel's width), so a large transform climbs
# one start at a time
_STACK_ENTRIES = 1 << 18


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of a with the same row of b.

    A stacked matrix product runs one BLAS dot per row, which is faster
    than the ufunc reductions and equals ``np.dot`` on each row.  Every
    product in the ascent keeps one matrix per row like this one, never
    one product over all rows, so that a row's result does not depend
    on the rows stacked with it.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


# where the circle coefficients sit in a flattened 2 x 3 Gram matrix
# [u; w] [u, v, w]' of the kernels (m2 needs one more term on the sparse one)
_GRAM_2X3 = np.array([0, 1, 2, 4, 5])


class _DenseKernel:
    """Fast F and gradient evaluation through the dense transform.

    The transform runs over the 2^d coordinates of the set's affine frame
    (rank d), where F, the gradient and the circle coefficients take the
    same values as over the masks in 2^n: each coefficient y_a sits at
    the coordinate of a, and the results come back in element order.

    Every method takes a stack of vectors, one per row (rows x |A|), and
    returns one result per row.  ``evaluate`` returns F and a state that
    ``gradient``, ``circle`` and ``move`` take back: a tuple of arrays
    whose first axis is the row, so the ascent drops a row by indexing
    each.  Here it is the point values f of the synthesized functions
    (rows x 2^d) and a buffer (rows x 3 x 2^d) whose first row holds f^2.
    """

    def __init__(self, support: SupportSet) -> None:
        frame = support.affine
        self.masks = frame.coords
        # the length of a row of point values, 2^d
        self.width = 1 << frame.rank
        self.scale = 1.0 / self.width

    def _at(
        self, point_values: np.ndarray, powers: np.ndarray
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """F = mean(f^4) and the state at the given point values, with f^2
        written into the first row of the buffer ``powers``."""
        sq = np.multiply(point_values, point_values, out=powers[..., 0, :])
        return _row_dots(sq, sq) * self.scale, (point_values, powers)

    def evaluate(self, coords: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Returns (F of each row, the state of each synthesized f)."""
        dense = np.zeros(coords.shape[:-1] + (self.width,))
        dense[..., self.masks] = coords
        walsh_transform(dense)
        return self._at(dense, np.empty(dense.shape[:-1] + (3, self.width)))

    def gradient(self, state: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """4 * analyze(f^3) on the support, given f and f^2."""
        point_values, powers = state
        cube = powers[..., 0, :] * point_values
        walsh_transform(cube)
        # take keeps the rows C-contiguous, as the BLAS row dots need
        return np.take(cube, self.masks, axis=-1) * (4.0 * self.scale)

    def circle(
        self, state: tuple[np.ndarray, np.ndarray], direction: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """F along cos(t) y + sin(t) d, and the point values b of d.

        With a the point values of y, F = mean((c a + s b)^4), so the
        coefficients are the means of a^(4-i) b^i for i = 0..4.  As
        a^2.b^2 = ab.ab, all five are entries of one stacked product
        [a^2; b^2] [a^2, ab, b^2]'; ab and b^2 go into the state's buffer
        next to a^2.
        """
        point_values, powers = state
        b = np.zeros(direction.shape[:-1] + (self.width,))
        b[..., self.masks] = direction
        walsh_transform(b)
        np.multiply(point_values, b, out=powers[..., 1, :])
        np.multiply(b, b, out=powers[..., 2, :])
        gram = powers[..., ::2, :] @ np.swapaxes(powers, -1, -2)
        # [a2.a2, a2.ab, a2.b2, b2.a2, b2.ab, b2.b2] without the repeat
        coefficients = gram.reshape(gram.shape[:-2] + (6,))[..., _GRAM_2X3]
        return coefficients * self.scale, b

    def move(
        self,
        state: tuple[np.ndarray, np.ndarray],
        b: np.ndarray,
        c: np.ndarray,
        s: np.ndarray,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """F and the state at cos(t) y + sin(t) d, with no transform.

        The new state reuses the buffer of the given one, which the
        ascent never reads again, and s b goes through the row that held
        ab, so a step allocates no more than the point values: near the
        dense cap a row is 2^24 entries.
        """
        point_values, powers = state
        f = c[..., None] * point_values
        f += np.multiply(s[..., None], b, out=powers[..., 1, :])
        return self._at(f, powers)


class _SparseKernel:
    """F and gradient from the pair index, at cost |A|^2 per row.

    With s_x the pair sums, F = s.s and grad F = 4 T y for the pair-sum
    matrix T[i, j] = s at a_i ^ a_j.  The methods take stacks like the
    dense kernel's; the state passed from ``evaluate`` to the other
    methods is y (rows x |A|) and a buffer (rows x 3 x |A+A|) whose
    first row holds s.  The pair sums and T y are formed one row at a
    time, so no buffer holds rows x |A|^2 entries; the rest is batched
    over the rows.
    """

    def __init__(self, index: PairIndex) -> None:
        self.index = index
        self.width = len(index.sums)

    def evaluate(
        self, coords: np.ndarray
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        sums = np.empty((len(coords), 3, self.width))
        for row, y in enumerate(coords):
            sums[row, 0] = self.index.pair_sums(y)
        return _row_dots(sums[:, 0], sums[:, 0]), (coords, sums)

    def gradient(self, state: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        coords, sums = state
        inverse = self.index.inverse
        return 4.0 * np.array([p[inverse] @ y for y, p in zip(coords, sums[:, 0])])

    def circle(
        self, state: tuple[np.ndarray, np.ndarray], direction: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """F along cos(t) y + sin(t) d; the pair sums needed to move go
        into the state's buffer.

        With P, Q and R the pair sums of y(x)y, y(x)d and d(x)d, the
        pair sums on the circle are c^2 P + 2cs Q + s^2 R, so the
        coefficients are P.P, P.Q, (2 Q.Q + P.R) / 3, Q.R and R.R: all
        but Q.Q are entries of one stacked product [P; R] [P, Q, R]'.
        """
        coords, sums = state
        for row, (y, d) in enumerate(zip(coords, direction)):
            sums[row, 1] = self.index.pair_sums(y, d)
            sums[row, 2] = self.index.pair_sums(d)
        gram = sums[:, ::2] @ sums.transpose(0, 2, 1)
        coefficients = gram.reshape(-1, 6)[:, _GRAM_2X3]
        q = sums[:, 1]
        coefficients[:, 2] = (2.0 * _row_dots(q, q) + coefficients[:, 2]) / 3.0
        return coefficients, direction

    def move(
        self,
        state: tuple[np.ndarray, np.ndarray],
        direction: np.ndarray,
        c: np.ndarray,
        s: np.ndarray,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """F and the state at cos(t) y + sin(t) d, with no enumeration."""
        coords, sums = state
        c, s = c[:, None], s[:, None]
        moved = np.empty_like(sums)
        # c^2 P + 2cs Q + s^2 R, one row-by-row product
        weights = np.concatenate((c * c, 2.0 * c * s, s * s), axis=1)[:, None]
        p = np.matmul(weights, sums, out=moved[:, :1])[:, 0]
        return _row_dots(p, p), (c * coords + s * direction, moved)


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
    kernel: _DenseKernel | _SparseKernel, starts: np.ndarray, cfg: OptimizerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Monotone ascent of F on the unit sphere by exact great-circle
    steps along conjugate directions, for a stack of starts (rows x |A|)
    in lockstep.

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
    formed per row in Python floats, so a row's path does not depend on
    the rows stacked with it.

    Every kernel call serves all rows still climbing: the dense kernel
    runs two stacked Walsh transforms of length 2^d per step (the
    gradients and the transforms of the directions), the sparse one two
    bincounts per row over the pair index.  A row leaves the stack when
    its run ends, so each row follows the path it would follow alone.

    Returns, one entry per row: the last points, their values, the
    iterations and the exit reasons (see ``AscentRun``).
    """
    y = starts / np.sqrt(_row_dots(starts, starts))[:, None]
    value, state = kernel.evaluate(y)
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
            beta = []
            for g2, last2, cross, slope in zip(
                norm2.tolist(),
                last_norm2.tolist(),
                _row_dots(tangent, last_grad).tolist(),
                _row_dots(tangent, last_search).tolist(),
            ):
                b = (g2 - cross) / last2
                # Powell's test also catches every b <= 0, where g.g_ >= g.g;
                # g.p = g.g + b g.p_
                if abs(cross) >= _RESTART * g2 or g2 + b * slope <= 0.0:
                    b = 0.0
                beta.append(b)
            search = tangent + np.array(beta)[:, None] * last_search
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
    size = len(A)
    if size == 0:
        raise ValueError("cannot optimise over an empty support")
    if size == 1 << A.affine.rank:
        run = AscentRun("uniform", float(size), 0, "stationary")
        return MuEstimate(float(size), SpectrumVector.uniform(A), True, (run,))
    sparse = plan(size, A.affine.rank, dense_cap).kernel == "sparse"
    kernel = _SparseKernel(A.pairs) if sparse else _DenseKernel(A)
    rng = random.Random(cfg.seed)

    starts = [("uniform", SpectrumVector.uniform(A).coords)]
    for extra in extra_starts:
        if extra.support.elements != A.elements:
            raise ValueError("extra start support does not match the set")
        starts.append(("extra", extra.normalize().coords))
    for _ in range(cfg.starts):
        vec = _gaussian(rng, size)
        while float(np.dot(vec, vec)) == 0.0:
            vec = _gaussian(rng, size)
        starts.append(("gaussian", vec))

    runs: list[AscentRun] = []
    best_y, best = None, None
    # each phase climbs as one stack, split only where the kernel's state
    # for every row would pass _STACK_ENTRIES
    stack_rows = max(1, _STACK_ENTRIES // kernel.width)

    def run(batch: list[tuple[str, np.ndarray]]) -> None:
        nonlocal best_y, best
        for lo in range(0, len(batch), stack_rows):
            chunk = batch[lo : lo + stack_rows]
            ys, values, iterations, exits = _ascend(
                kernel, np.array([start for _, start in chunk]), cfg
            )
            for (kind, _), y, value, iters, exit_reason in zip(
                chunk, ys, values.tolist(), iterations.tolist(), exits
            ):
                runs.append(AscentRun(kind, value, iters, exit_reason))
                if best is None or value > best.value:
                    best_y, best = y, runs[-1]

    run(starts)
    # second phase: indicator starts on the dyadic slices of the leader
    slices = dyadic_level_sets(SpectrumVector(A, best_y))
    run([("level", SpectrumVector.unit_indicator(A, level).coords) for _, level in slices.levels])

    certificate = SpectrumVector(A, best_y).normalize()
    return MuEstimate(
        value=float(kernel.evaluate(certificate.coords[None])[0][0]),
        certificate=certificate,
        converged=best.converged,
        runs=tuple(runs),
    )


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
