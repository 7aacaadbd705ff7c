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
from collections import deque
from dataclasses import dataclass

import numpy as np

from .additive import dyadic_level_sets, m_bound
from .asymptotics import psi_value
from .core import (
    DEFAULT_DENSE_CAP,
    CubeFunction,
    PairIndex,
    SpectrumVector,
    SupportSet,
    walsh_transform,
)
from .errors import ResourceLimitError
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
    vanished), "no-uphill" (the best point of the great circle did not
    raise F), "window" (the last _WINDOW steps gained less than tol) or
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
    """Certified lower bound on the sphere maximum of F.

    value is F evaluated at the (feasible, normalized) certificate, so
    it is a true lower bound regardless of convergence; converged
    reports whether the run that produced the best value met the
    stopping criterion rather than the iteration cap.  runs holds one
    record per start, in the order the starts ran.
    """

    value: float
    certificate: SpectrumVector
    starts_used: int
    iterations: int
    converged: bool
    runs: tuple[AscentRun, ...]


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
    best: float

    def __post_init__(self) -> None:
        present = self.present_bounds()
        if not present:
            raise ValueError("bound set needs at least one bound")
        if any(b < 1 for b in present):
            raise ValueError("all bounds must be at least 1")
        if self.best != min(float(b) for b in present):
            raise ValueError("best must equal the minimum present bound")

    def present_bounds(self) -> list[float]:
        out: list[float] = [self.cardinality_bound, self.multiplicity_bound]
        if self.sphere_psi_bound is not None:
            out.append(self.sphere_psi_bound)
        if self.sphere_sum_bound is not None:
            out.append(self.sphere_sum_bound)
        return out


def _pair_sums(support: SupportSet, coords: np.ndarray) -> np.ndarray:
    """The values sum_{(a,b) in M_x} y_a y_b over all x in A+A.

    Masks from 2^62 up are held as python ints in object arrays.  This
    enumeration stays apart from ``PairIndex`` so that ``big_f`` checks
    the kernels by an independent route.
    """
    arr = support.masks_array()
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


def _require_transform_cap(n: int, cap: int) -> None:
    if n > min(cap, 62):
        raise ResourceLimitError(
            f"dimension {n} exceeds the dense cap {min(cap, 62)} "
            f"required by the transform path"
        )


class _DenseKernel:
    """Fast F and gradient evaluation through the dense transform.

    ``evaluate`` returns F and a state that ``gradient``, ``circle``
    and ``move`` take back: here the point values of the synthesized f.
    """

    def __init__(self, support: SupportSet, cap: int) -> None:
        _require_transform_cap(support.n, cap)
        self.n = support.n
        self.masks = support.masks_array()
        self.size = 1 << support.n
        self.scale = 1.0 / self.size

    def evaluate(self, coords: np.ndarray) -> tuple[float, np.ndarray]:
        """Returns (F(coords), dense point values of the synthesized f)."""
        dense = np.zeros(self.size)
        dense[self.masks] = coords
        walsh_transform(dense)
        sq = dense * dense
        return float(np.mean(sq * sq)), dense

    def gradient(self, point_values: np.ndarray) -> np.ndarray:
        """4 * analyze(f^3) on the support, given f's point values."""
        cube = point_values * point_values * point_values
        walsh_transform(cube)
        cube *= self.scale
        return 4.0 * cube[self.masks]

    def circle(
        self, point_values: np.ndarray, direction: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """F along cos(t) y + sin(t) d, and the point values b of d.

        With a the point values of y, F = mean((c a + s b)^4), so the
        coefficients are the means of a^(4-i) b^i for i = 0..4.
        """
        b = np.zeros(self.size)
        b[self.masks] = direction
        walsh_transform(b)
        a2 = point_values * point_values
        b2 = b * b
        ab = point_values * b
        coefficients = np.array(
            [a2 @ a2, a2 @ ab, a2 @ b2, ab @ b2, b2 @ b2]
        ) * self.scale
        return coefficients, b

    def move(
        self, point_values: np.ndarray, b: np.ndarray, c: float, s: float
    ) -> tuple[float, np.ndarray]:
        """F and the state at cos(t) y + sin(t) d, with no transform."""
        f = c * point_values + s * b
        sq = f * f
        return float(np.mean(sq * sq)), f


class _SparseKernel:
    """F and gradient from the pair index, at cost |A|^2 per call.

    With s_x the pair sums, F = s.s and grad F = 4 T y for the pair-sum
    matrix T[i, j] = s at a_i ^ a_j; the state passed from ``evaluate``
    to the other methods is (y, s).
    """

    def __init__(self, index: PairIndex) -> None:
        self.index = index

    def evaluate(self, coords: np.ndarray) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
        sums = self.index.pair_sums(coords)
        return float(np.dot(sums, sums)), (coords, sums)

    def gradient(self, state: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        coords, sums = state
        return 4.0 * (sums[self.index.inverse] @ coords)

    def circle(
        self, state: tuple[np.ndarray, np.ndarray], direction: np.ndarray
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """F along cos(t) y + sin(t) d, and the pair sums needed to move.

        With P, Q and R the pair sums of y(x)y, y(x)d and d(x)d, the
        pair sums on the circle are c^2 P + 2cs Q + s^2 R.
        """
        coords, p = state
        q = self.index.pair_sums(coords, direction)
        r = self.index.pair_sums(direction)
        coefficients = np.array(
            [p @ p, p @ q, (2.0 * (q @ q) + p @ r) / 3.0, q @ r, r @ r]
        )
        return coefficients, (direction, q, r)

    def move(
        self,
        state: tuple[np.ndarray, np.ndarray],
        arc: tuple[np.ndarray, np.ndarray, np.ndarray],
        c: float,
        s: float,
    ) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
        """F and the state at cos(t) y + sin(t) d, with no enumeration."""
        coords, p = state
        direction, q, r = arc
        sums = (c * c) * p + (2.0 * c * s) * q + (s * s) * r
        return float(np.dot(sums, sums)), (c * coords + s * direction, sums)


def _choose_kernel(A: SupportSet, cap: int) -> _DenseKernel | _SparseKernel:
    """The cheaper kernel for A: one call costs about |A|^2 on the pair
    index and n 2^n on the dense transform.

    The dense cap bounds both routes, so it is checked first.
    """
    _require_transform_cap(A.n, cap)
    if len(A) * len(A) <= A.n << A.n and A.pairs_within_cap():
        return _SparseKernel(A.pairs)
    return _DenseKernel(A, cap)


# relative window improvement below which an ascent run stops
_WINDOW = 50


def _circle_argmax(coefficients: np.ndarray) -> tuple[float, float] | None:
    """(cos t, sin t) at the maximum of F over the great circle.

    F(cos(t) y + sin(t) d) = sum_i C(4, i) m_i cos^(4-i)(t) sin^i(t)
    for the coefficients m.  With v = cot t this is sin^4(t) p(v) for
    p(v) = sum_i C(4, i) m_i v^(4-i), and its derivative in t is
    -sin^4(t) g(v) with g(v) = (1 + v^2) p'(v) - 4v p(v), a quartic
    whose degree-5 terms cancel.  F has period pi in t and rises from
    t = 0 at rate 4 m1, so when m1 > 0 its maximum sits at a root of g
    in (0, pi); the roots are the eigenvalues of the companion matrix.
    Complex roots are kept by their real part: every candidate is a
    point of the circle, and the best one wins.  Returns None when
    m1 <= 0, i.e. F does not rise along d at float resolution.
    """
    m0, m1, m2, m3, m4 = coefficients.tolist()
    if m1 <= 0.0:
        return None
    companion = np.array(
        [
            [(m0 - 3.0 * m2) / m1, 3.0 * (m1 - m3) / m1, (3.0 * m2 - m4) / m1, m3 / m1],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    best, step = -math.inf, None
    for v in np.linalg.eigvals(companion).real.tolist():
        h = math.hypot(1.0, v)
        c, s = v / h, 1.0 / h
        cc, ss = c * c, s * s
        value = cc * (cc * m0 + 4.0 * c * s * m1 + 6.0 * ss * m2) + ss * (
            4.0 * c * s * m3 + ss * m4
        )
        if value > best:
            best, step = value, (c, s)
    return step


def _ascend(
    kernel: _DenseKernel | _SparseKernel, start: np.ndarray, cfg: OptimizerConfig
) -> tuple[np.ndarray, float, int, str]:
    """Monotone ascent of F on the unit sphere by exact great-circle steps.

    Each step takes the unit projected gradient d at y and moves to the
    maximum of F over the great circle cos(t) y + sin(t) d.  Along it F
    is a quartic form in (cos t, sin t) with five coefficients, which
    the kernel returns together with what it needs to form the new
    point without a fresh evaluation; ``_circle_argmax`` finds the
    maximum exactly.  The dense kernel thus runs two Walsh transforms
    of length 2^n per step (the gradient and the transform of d), the
    sparse one two bincounts over the pair index.  A step is taken only
    if F does not fall; otherwise the run stops.  A shifted power step
    normalize(grad F + alpha y), for any alpha > 0, lies on the same
    circle, so no step gains less than it would.

    Returns the last point, its value, the iterations and the exit
    reason (see ``AscentRun``).
    """
    y = start / math.sqrt(float(np.dot(start, start)))
    value, state = kernel.evaluate(y)
    window: deque[float] = deque([value], maxlen=_WINDOW + 1)
    for iterations in range(1, cfg.max_iters + 1):
        grad = kernel.gradient(state)
        radial = float(np.dot(grad, y))
        tangent = grad - radial * y
        norm = math.sqrt(float(np.dot(tangent, tangent)))
        if norm <= 1e-14 * max(1.0, abs(radial)):
            return y, value, iterations, "stationary"
        # a second projection: near a stationary point the first leaves
        # a radial part of relative size eps |grad| / |tangent|, which
        # would tilt the circle off the sphere and let F grow with |y|
        tangent -= float(np.dot(tangent, y)) * y
        direction = tangent / math.sqrt(float(np.dot(tangent, tangent)))
        coefficients, arc = kernel.circle(state, direction)
        step = _circle_argmax(coefficients)
        if step is None:
            return y, value, iterations, "no-uphill"
        c, s = step
        value_new, state_new = kernel.move(state, arc, c, s)
        if value_new < value:
            # no uphill point on the circle at float resolution
            return y, value, iterations, "no-uphill"
        y, value, state = c * y + s * direction, value_new, state_new
        window.append(value)
        if (
            len(window) == window.maxlen
            and value - window[0] <= cfg.tol * max(1.0, abs(value))
        ):
            return y, value, iterations, "window"
    return y, value, cfg.max_iters, "iteration-cap"


def _gaussian(rng: random.Random, size: int) -> np.ndarray:
    """size standard normal draws, by Box-Muller over 2 * size uniforms.

    Python fixes the ``random()`` stream of an integer seed across
    versions (it promises no such thing for ``gauss()``), and ``random``
    is loaded with numpy anyway, unlike the lazily imported
    ``numpy.random``.
    """
    u = np.array([rng.random() for _ in range(2 * size)])
    # 1 - u lies in (0, 1], so the logarithm is finite
    return np.sqrt(-2.0 * np.log1p(-u[:size])) * np.cos(2.0 * math.pi * u[size:])


def mu_lower(
    A: SupportSet,
    cfg: OptimizerConfig = OptimizerConfig(),
    *,
    dense_cap: int | None = None,
    extra_starts: tuple[SpectrumVector, ...] = (),
) -> MuEstimate:
    """Best F value found by multi-start ascent on the unit sphere.

    The start list is, in order: the uniform vector on A, any caller
    extras, cfg.starts seeded gaussian vectors, and indicator vectors
    of each dyadic level set of the best first-phase iterate.  Every
    reported value is F at a feasible point, hence a certified lower
    bound; the uniform start pins it at or above the energy ratio of A.

    F and its gradient come from the pair index ``A.pairs`` when
    |A|^2 <= n 2^n and |A|^2 is within the pair cap, else from the dense
    transform; either way n must be within the dense cap.  The reported
    value is F at the normalized certificate through the same kernel;
    ``big_f`` is the independent route that tests compare it with.
    """
    if len(A) == 0:
        raise ValueError("cannot optimise over an empty support")
    cap = DEFAULT_DENSE_CAP if dense_cap is None else dense_cap
    if len(A) == 1:
        certificate = SpectrumVector(A, np.ones(1), normalized=True)
        run = AscentRun("uniform", 1.0, 0, "stationary")
        return MuEstimate(1.0, certificate, 1, 0, True, (run,))
    kernel = _choose_kernel(A, cap)
    size = len(A)
    rng = random.Random(cfg.seed)

    starts: list[tuple[str, np.ndarray]] = [
        ("uniform", np.full(size, 1.0 / math.sqrt(size)))
    ]
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

    def run(batch: list[tuple[str, np.ndarray]]) -> None:
        nonlocal best_y, best
        for kind, start in batch:
            y, value, iters, exit_reason = _ascend(kernel, start, cfg)
            runs.append(AscentRun(kind, value, iters, exit_reason))
            if best is None or value > best.value:
                best_y, best = y, runs[-1]

    run(starts)
    # second phase: indicator starts on the dyadic slices of the leader
    slices = dyadic_level_sets(
        SpectrumVector(A, np.abs(best_y)).normalize()
    )
    level_starts: list[tuple[str, np.ndarray]] = []
    for _, level in slices.levels:
        indicator = np.zeros(size)
        member = set(level.elements)
        for i, mask in enumerate(A.elements):
            if mask in member:
                indicator[i] = 1.0
        level_starts.append(("level", indicator / math.sqrt(len(level))))
    run(level_starts)

    certificate = SpectrumVector(A, best_y).normalize()
    return MuEstimate(
        value=kernel.evaluate(certificate.coords)[0],
        certificate=certificate,
        starts_used=len(runs),
        iterations=sum(r.iterations for r in runs),
        converged=best.converged,
        runs=tuple(runs),
    )


def mu_upper(
    A: SupportSet, *, dense_cap: int | None = None, multiplicity: int | None = None
) -> BoundSet:
    """Assembled upper bounds: cardinality, multiplicity, sphere forms.

    The sum bound applies to any full sphere; the exponential bound
    2^(n psi(k/n)) additionally requires k <= n/2.  A caller that has
    already computed m(A) passes it as ``multiplicity``.
    """
    if len(A) == 0:
        raise ValueError("no bounds for the empty set")
    cardinality = len(A)
    if multiplicity is None:
        multiplicity = m_bound(A, dense_cap=dense_cap)
    psi_bound: float | None = None
    sum_bound: int | None = None
    k = A.sphere_radius()
    if k is not None:
        sum_bound = sphere_sum_bound(k)
        if 2 * k <= A.n:
            psi_bound = 2.0 ** (A.n * psi_value(k / A.n))
    present: list[float] = [float(cardinality), float(multiplicity)]
    if psi_bound is not None:
        present.append(psi_bound)
    if sum_bound is not None:
        present.append(float(sum_bound))
    return BoundSet(cardinality, multiplicity, psi_bound, sum_bound, min(present))


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
