"""The quartic form over a Fourier support set and its optimisation.

For a support set A and a coefficient vector y on A, the quartic form

    F(y) = sum over x in A+A of ( sum over (a,b) with a^b = x of y_a y_b )^2

equals E f^4 for f = sum_a y_a W_a when y is a unit vector, so the
maximum of F over the unit sphere is exactly the fourth-moment ratio
maximum over functions with spectrum in A.  This module computes F two
independent ways (pair sums and the dense transform), certified lower
bounds via multi-start ascent on the sphere, assembled upper bounds,
the pair-sum matrix representation, and the coordinate-split machinery
(split pair, the one-variable curve G, and its closed-form maximum).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .additive import PAIR_ENUMERATION_LIMIT, PairIndex, dyadic_level_sets, m_bound
from .asymptotics import f_combine, psi_value
from .core import (
    DEFAULT_DENSE_CAP,
    CubeFunction,
    SpectrumVector,
    SupportSet,
    moments,
    walsh_transform,
)
from .errors import ResourceLimitError
from .spheres import sphere_sum_bound

__all__ = [
    "OptimizerConfig",
    "MuEstimate",
    "BoundSet",
    "SplitPair",
    "big_f",
    "big_f_grad",
    "mu_lower",
    "mu_upper",
    "shkredov_matrix",
    "decompose_last",
    "g_curve",
    "g_curve_argmax",
    "g_curve_max",
]


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the multi-start sphere ascent."""

    starts: int = 32
    max_iters: int = 10_000
    tol: float = 1e-12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.starts < 0 or self.max_iters < 1 or self.tol < 0.0:
            raise ValueError("invalid optimizer configuration")


@dataclass
class MuEstimate:
    """Certified lower bound on the sphere maximum of F.

    value is F evaluated at the (feasible, normalized) certificate, so
    it is a true lower bound regardless of convergence; converged
    reports whether the run that produced the best value met the
    stopping criterion rather than the iteration cap.
    """

    value: float
    certificate: SpectrumVector
    starts_used: int
    iterations: int
    converged: bool


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
    masks = support.elements
    wide = max(masks) >= 1 << 62
    arr = np.asarray(masks, dtype=object if wide else np.int64)
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


def big_f_grad(
    y: SpectrumVector, *, dense_cap: int | None = None
) -> SpectrumVector:
    """Gradient of F at y: 4 times the spectrum of f^3 restricted to A.

    Uses the dense transform, so the dimension must sit within the
    dense cap.
    """
    if len(y.support) == 0:
        raise ValueError("F undefined on an empty support")
    cap = DEFAULT_DENSE_CAP if dense_cap is None else dense_cap
    kernel = _DenseKernel(y.support, cap)
    _, cube_values = kernel.evaluate(y.coords)
    return SpectrumVector(y.support, kernel.gradient(cube_values))


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
    index = PairIndex.of(A.elements)
    return index.pair_sums(y.coords)[index.inverse]


def _require_transform_cap(n: int, cap: int) -> None:
    if n > min(cap, 62):
        raise ResourceLimitError(
            f"dimension {n} exceeds the dense cap {min(cap, 62)} "
            f"required by the transform path"
        )


class _DenseKernel:
    """Fast F and gradient evaluation through the dense transform.

    ``evaluate`` returns F and a state that ``gradient`` takes back:
    here the point values of the synthesized f.
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


class _SparseKernel:
    """F and gradient from the pair index, at cost |A|^2 per call.

    With s_x the pair sums, F = s.s and grad F = 4 T y for the pair-sum
    matrix T[i, j] = s at a_i ^ a_j; the state passed from ``evaluate``
    to ``gradient`` is (y, s).
    """

    def __init__(self, index: PairIndex) -> None:
        self.index = index

    def evaluate(self, coords: np.ndarray) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
        sums = self.index.pair_sums(coords)
        return float(np.dot(sums, sums)), (coords, sums)

    def gradient(self, state: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        coords, sums = state
        return 4.0 * (sums[self.index.inverse] @ coords)


def _choose_kernel(
    A: SupportSet, cap: int, index: PairIndex | None
) -> _DenseKernel | _SparseKernel:
    """The cheaper kernel for A: one call costs about |A|^2 on the pair
    index and n 2^n on the dense transform.

    The dense cap bounds both routes, so it is checked first.
    """
    _require_transform_cap(A.n, cap)
    pairs = len(A) * len(A)
    if pairs <= A.n << A.n and pairs <= PAIR_ENUMERATION_LIMIT:
        return _SparseKernel(PairIndex.of(A.elements) if index is None else index)
    return _DenseKernel(A, cap)


# relative window improvement below which an ascent run stops
_WINDOW = 50
_MAX_BACKTRACKS = 64


def _ascend(
    kernel: _DenseKernel | _SparseKernel, start: np.ndarray, cfg: OptimizerConfig
) -> tuple[np.ndarray, float, int, bool]:
    """Monotone shifted power ascent of F on the unit sphere.

    The iteration y <- normalize(grad F(y) + alpha y) increases F for a
    large enough shift alpha (it approaches a projected-gradient step
    of size 1/alpha), so alpha doubles until the step does not decrease
    F and relaxes after each accepted step.
    """
    y = start / math.sqrt(float(np.dot(start, start)))
    value, state = kernel.evaluate(y)
    window: deque[float] = deque([value], maxlen=_WINDOW + 1)
    alpha = 1.0
    iterations = 0
    for _ in range(cfg.max_iters):
        iterations += 1
        grad = kernel.gradient(state)
        radial = float(np.dot(grad, y))
        tangent = grad - radial * y
        if math.sqrt(float(np.dot(tangent, tangent))) <= 1e-14 * max(
            1.0, abs(radial)
        ):
            return y, value, iterations, True
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            candidate = grad + alpha * y
            norm = math.sqrt(float(np.dot(candidate, candidate)))
            if norm > 0.0:
                y_new = candidate / norm
                value_new, state_new = kernel.evaluate(y_new)
                if value_new >= value:
                    accepted = True
                    break
            alpha = 2.0 * max(alpha, 1e-6)
        if not accepted:
            # no admissible uphill step at float resolution
            return y, value, iterations, True
        y, value, state = y_new, value_new, state_new
        alpha *= 0.9
        window.append(value)
        if (
            len(window) == window.maxlen
            and value - window[0] <= cfg.tol * max(1.0, abs(value))
        ):
            return y, value, iterations, True
    return y, value, iterations, False


def mu_lower(
    A: SupportSet,
    cfg: OptimizerConfig = OptimizerConfig(),
    *,
    dense_cap: int | None = None,
    extra_starts: tuple[SpectrumVector, ...] = (),
    index: PairIndex | None = None,
) -> MuEstimate:
    """Best F value found by multi-start ascent on the unit sphere.

    The start list is, in order: the uniform vector on A, any caller
    extras, cfg.starts seeded gaussian vectors, and indicator vectors
    of each dyadic level set of the best first-phase iterate.  Every
    reported value is F at a feasible point, hence a certified lower
    bound; the uniform start pins it at or above the energy ratio of A.

    F and its gradient come from the pair index of A (built here
    unless passed) when |A|^2 <= n 2^n and |A|^2 is within
    PAIR_ENUMERATION_LIMIT, else from the dense transform; either way
    n must be within the dense cap.  The reported value is F at the
    normalized certificate through the same kernel; ``big_f`` is the
    independent route that tests compare it with.
    """
    if len(A) == 0:
        raise ValueError("cannot optimise over an empty support")
    cap = DEFAULT_DENSE_CAP if dense_cap is None else dense_cap
    if len(A) == 1:
        certificate = SpectrumVector(A, np.ones(1), normalized=True)
        return MuEstimate(1.0, certificate, 1, 0, True)
    kernel = _choose_kernel(A, cap, index)
    size = len(A)
    rng = np.random.default_rng(cfg.seed)

    starts: list[np.ndarray] = [np.full(size, 1.0 / math.sqrt(size))]
    for extra in extra_starts:
        if extra.support.elements != A.elements:
            raise ValueError("extra start support does not match the set")
        starts.append(extra.normalize().coords)
    for _ in range(cfg.starts):
        vec = rng.standard_normal(size)
        while float(np.dot(vec, vec)) == 0.0:
            vec = rng.standard_normal(size)
        starts.append(vec)

    best_y, best_value, total_iters, best_converged = None, -math.inf, 0, False

    def run(batch: list[np.ndarray]) -> None:
        nonlocal best_y, best_value, total_iters, best_converged
        for start in batch:
            y, value, iters, converged = _ascend(kernel, start, cfg)
            total_iters += iters
            if value > best_value:
                best_y, best_value, best_converged = y, value, converged

    run(starts)
    # second phase: indicator starts on the dyadic slices of the leader
    slices = dyadic_level_sets(
        SpectrumVector(A, np.abs(best_y)).normalize()
    )
    level_starts: list[np.ndarray] = []
    for _, level in slices.levels:
        indicator = np.zeros(size)
        member = set(level.elements)
        for i, mask in enumerate(A.elements):
            if mask in member:
                indicator[i] = 1.0
        level_starts.append(indicator / math.sqrt(len(level)))
    run(level_starts)

    certificate = SpectrumVector(A, best_y).normalize()
    return MuEstimate(
        value=kernel.evaluate(certificate.coords)[0],
        certificate=certificate,
        starts_used=len(starts) + len(level_starts),
        iterations=total_iters,
        converged=best_converged,
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
    """Last-coordinate split f = (g0 + g1, g0 - g1) with moment ratios.

    R0/R1 are the fourth-moment ratios of the halves, None for an
    identically zero half.
    """

    g0: CubeFunction
    g1: CubeFunction
    R0: float | None
    R1: float | None

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
    r0 = moments(g0).ratio() if np.any(g0.values) else None
    r1 = moments(g1).ratio() if np.any(g1.values) else None
    return SplitPair(g0, g1, r0, r1)


def _fourth_and_second(g: CubeFunction) -> tuple[float, float]:
    m = moments(g)
    return m.fourth, m.second


def g_curve(g0: CubeFunction, g1: CubeFunction, x: float) -> float:
    """The mixing curve

        G(x) = (E g1^4 x^2 + 6 sqrt(E g0^4 E g1^4) x + E g0^4)
               / (E g1^2 x + E g0^2)^2

    whose supremum over x >= 0 upper-bounds the ratio of any f
    splitting into (g0, g1).
    """
    if x < 0.0:
        raise ValueError("the curve is defined for x >= 0")
    if g0.n != g1.n:
        raise ValueError("halves must share a dimension")
    m4_0, m2_0 = _fourth_and_second(g0)
    m4_1, m2_1 = _fourth_and_second(g1)
    denominator = (m2_1 * x + m2_0) ** 2
    if denominator == 0.0:
        raise ValueError("curve undefined: denominator vanishes")
    numerator = m4_1 * x * x + 6.0 * math.sqrt(m4_0 * m4_1) * x + m4_0
    return numerator / denominator


def g_curve_argmax(g0: CubeFunction, g1: CubeFunction) -> float:
    """Interior maximiser of G in the regime 1/9 < R0/R1 < 9:

        x* = sqrt(E g0^4 / E g1^4) * (3 sqrt(R1) - sqrt(R0))
                                     / (3 sqrt(R0) - sqrt(R1))
    """
    split_r0 = moments(g0).ratio()
    split_r1 = moments(g1).ratio()
    if split_r0 >= 9.0 * split_r1 or split_r1 >= 9.0 * split_r0:
        raise ValueError("no interior maximiser outside 1/9 < R0/R1 < 9")
    m4_0 = moments(g0).fourth
    m4_1 = moments(g1).fourth
    s0, s1 = math.sqrt(split_r0), math.sqrt(split_r1)
    return math.sqrt(m4_0 / m4_1) * (3.0 * s1 - s0) / (3.0 * s0 - s1)


def g_curve_max(g0: CubeFunction, g1: CubeFunction) -> float:
    """sup over x >= 0 of G(x), by the three-regime closed form.

    R0 when R0 >= 9 R1 (the supremum sits at x = 0), R1 when
    R1 >= 9 R0 (at infinity), otherwise the combine function
    F(R0, R1) attained at the interior maximiser.  A single zero half
    degenerates to the other half's ratio.
    """
    zero0 = not np.any(g0.values)
    zero1 = not np.any(g1.values)
    if zero0 and zero1:
        raise ValueError("curve maximum undefined for two zero halves")
    if zero1:
        return moments(g0).ratio()
    if zero0:
        return moments(g1).ratio()
    ratio0 = moments(g0).ratio()
    ratio1 = moments(g1).ratio()
    if ratio0 >= 9.0 * ratio1:
        return ratio0
    if ratio1 >= 9.0 * ratio0:
        return ratio1
    return f_combine(ratio0, ratio1)
