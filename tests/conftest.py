"""Shared oracles and corpus helpers.

The oracles here deliberately avoid the library's own fast paths: the
transform oracle multiplies by the character matrix entry by entry (or,
on integers, runs the exact butterfly), the
quartic oracle accumulates pair sums in a plain dictionary, and energies
are counted with nested loops.  Slow and boring on purpose.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from cubequartic.core import CubeFunction, Moments, SupportSet


def character_transform(values) -> np.ndarray:
    """Direct double-sum transform: out[a] = sum_x v[x] (-1)^{popcount(a&x)}."""
    values = np.asarray(values, dtype=float)
    size = len(values)
    out = np.zeros(size)
    for a in range(size):
        acc = 0.0
        for x in range(size):
            sign = -1.0 if bin(a & x).count("1") % 2 else 1.0
            acc += sign * values[x]
        out[a] = acc
    return out


def integer_butterfly(values: np.ndarray) -> np.ndarray:
    """Exact Walsh transform of an integer array along its last axis, by
    the in-place butterfly in the array's own dtype (no float rounding)."""
    values = values.copy()
    lead, size, h = values.shape[:-1], values.shape[-1], 1
    while h < size:
        view = values.reshape(lead + (-1, 2, h))
        top = view[..., 0, :].copy()
        view[..., 0, :] += view[..., 1, :]
        view[..., 1, :] = top - view[..., 1, :]
        h *= 2
    return values


def quartic_oracle(support: SupportSet, coords) -> float:
    """F(y) = sum_x (sum over pairs with a XOR b = x of y_a y_b)^2."""
    sums: dict[int, float] = {}
    masks = support.elements
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            x = a ^ b
            sums[x] = sums.get(x, 0.0) + float(coords[i]) * float(coords[j])
    return math.fsum(v * v for v in sums.values())


def circle_argmax_oracle(coefficients: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cos t, sin t) at the maximum of each row's circle quartic
    sum_i C(4, i) m_i cos^(4-i)(t) sin^i(t), from the stationary points.

    With v = cot t the quartic is sin^4(t) p(v) for p(v) = sum_i C(4, i)
    m_i v^(4-i), and its derivative in t is -sin^4(t) g(v) with g(v) =
    (1 + v^2) p'(v) - 4v p(v), a quartic whose degree-5 terms cancel.
    Its roots are the eigenvalues of the companion matrix of g (scaled
    by m1, so no row divides by zero), every root is scored by its real
    part, and the best wins.  A row with m1 <= 0 does not rise from t = 0
    and gets (1, 0) and uphill False.
    """
    companion = np.zeros((5, 16))
    companion[[0, 2, 1, 3, 2, 4, 3], [0, 0, 1, 1, 2, 2, 3]] = [1, -3, 3, -3, 3, -1, 1]
    companion[1, [4, 9, 14]] = 1.0
    roots = np.linalg.eigvals((coefficients[:, None] @ companion).reshape(-1, 4, 4)).real
    c, s, uphill = [], [], []
    for (m0, m1, m2, m3, m4), row_roots in zip(coefficients.tolist(), roots.tolist()):
        best, step = -math.inf, (1.0, 0.0)
        if m1 > 0.0:
            for w in row_roots:
                v = w / m1
                h = math.hypot(1.0, v)
                cc, ss = v / h, 1.0 / h
                value = (
                    m0 * cc**4 + 4 * m1 * cc**3 * ss + 6 * m2 * cc**2 * ss**2
                    + 4 * m3 * cc * ss**3 + m4 * ss**4
                )
                if value > best:
                    best, step = value, (cc, ss)
        c.append(step[0])
        s.append(step[1])
        uphill.append(m1 > 0.0)
    return np.array(c), np.array(s), np.array(uphill)


def brute_energy(masks) -> int:
    counts: dict[int, int] = {}
    for a in masks:
        for b in masks:
            counts[a ^ b] = counts.get(a ^ b, 0) + 1
    return sum(c * c for c in counts.values())


def split_curve(m0: Moments, m1: Moments, x: float) -> float:
    """G(x) = (M4_1 x^2 + 6 sqrt(M4_0 M4_1) x + M4_0) / (M2_1 x + M2_0)^2 for
    halves g0, g1 with moments m0, m1; its supremum over x >= 0 bounds the
    ratio of every f that splits into (g0, g1)."""
    numerator = m1.fourth * x * x + 6.0 * math.sqrt(m0.fourth * m1.fourth) * x + m0.fourth
    return numerator / (m1.second * x + m0.second) ** 2


def central_difference(func, x: np.ndarray, h: float) -> np.ndarray:
    grad = np.zeros_like(x, dtype=float)
    for i in range(len(x)):
        bump = np.zeros_like(x, dtype=float)
        bump[i] = h
        grad[i] = (func(x + bump) - func(x - bump)) / (2.0 * h)
    return grad


def level_sets_oracle(masks, values, cutoff: int) -> tuple[dict[int, list[int]], list[int]]:
    """Dyadic slices of non-negative values one mask at a time: level i
    holds 2^-i < v <= 2^-(i-1) up to the cutoff, the tail the rest > 0."""
    levels: dict[int, list[int]] = {}
    tail: list[int] = []
    for mask, value in zip(masks, values):
        if value == 0.0:
            continue
        mantissa, exponent = math.frexp(value)
        level = (1 - exponent) if mantissa > 0.5 else (2 - exponent)
        (levels.setdefault(level, []) if level <= cutoff else tail).append(mask)
    return levels, tail


def weight_masks_oracle(n: int, k: int) -> tuple[int, ...]:
    """The sorted masks of weight k in {0,1}^n, one combination at a time."""
    return tuple(sorted(sum(1 << i for i in bits) for bits in itertools.combinations(range(n), k)))


def random_support(rng: np.random.Generator, n: int, max_size: int) -> SupportSet:
    size = int(rng.integers(1, min(max_size, 1 << n) + 1))
    masks = rng.choice(1 << n, size=size, replace=False)
    return SupportSet.from_masks(n, [int(m) for m in masks])


def wide_random(seed: int, n: int, size: int) -> SupportSet:
    """size distinct random masks of n bits, for any n (numpy's choice
    would enumerate 2^n values)."""
    draw = random.Random(seed)
    masks: set[int] = set()
    while len(masks) < size:
        masks.add(draw.getrandbits(n))
    return SupportSet.from_masks(n, sorted(masks))


def random_unit(rng: np.random.Generator, size: int) -> np.ndarray:
    vec = rng.standard_normal(size)
    return vec / np.linalg.norm(vec)


def random_function(rng: np.random.Generator, n: int) -> CubeFunction:
    return CubeFunction(n, rng.standard_normal(1 << n))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
