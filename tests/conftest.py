"""Shared oracles and corpus helpers.

The oracles here deliberately avoid the library's own fast paths: the
transform oracle multiplies by the character matrix entry by entry, the
quartic oracle accumulates pair sums in a plain dictionary, and energies
are counted with nested loops.  Slow and boring on purpose.
"""

from __future__ import annotations

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


def quartic_oracle(support: SupportSet, coords) -> float:
    """F(y) = sum_x (sum over pairs with a XOR b = x of y_a y_b)^2."""
    sums: dict[int, float] = {}
    masks = support.elements
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            x = a ^ b
            sums[x] = sums.get(x, 0.0) + float(coords[i]) * float(coords[j])
    return math.fsum(v * v for v in sums.values())


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
