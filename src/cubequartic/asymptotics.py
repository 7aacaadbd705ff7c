"""The real-analytic layer: binary entropy, r(x), psi, phi, and the
combine function.  Their identity and shape checks are reports in
``cubequartic.reports``.

All logarithms are base 2.  The central objects:

    H(x)   = -x log2 x - (1-x) log2(1-x),          H(0) = H(1) = 0
    r(x)   = (3 - sqrt(1 + 8 (1-2x)^2)) / 8        on [0, 1/2]
    psi(x) = H(2r) + 4r + 2(1-2r) H((x-r)/(1-2r)) - 2H(x)

psi (``psi_value``) is the exponent function: 2^(n psi(k/n)) upper-bounds the quartic
ratio over the radius-k sphere (and ball) for k <= n/2.  phi is its
fixed-ratio companion with phi(t1/n) = psi(k/n), and F(x, y) is the
1-homogeneous combine function of the coordinate-split induction.
"""

from __future__ import annotations

import math

from .spheres import SphereParams

__all__ = [
    "entropy",
    "r_of_x",
    "psi_value",
    "phi",
    "phi_derivative",
    "f_combine",
    "TWO_LOG2_3",
]

# slope of psi at 0+; also the k-free exponent in min(9^k, 2^n) = 2^(k*2log2(3))
TWO_LOG2_3 = 2.0 * math.log2(3.0)


def entropy(x: float) -> float:
    """Binary entropy with the H(0) = H(1) = 0 convention."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy needs x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def r_of_x(x: float) -> float:
    """r(x) = (3 - sqrt(1 + 8 (1-2x)^2)) / 8, increasing from 0 to 1/4.

    Satisfies (3r - 4r^2)/2 = x(1-x) and scales the sphere peak
    location: r(k/n) = t1(n,k)/n.
    """
    if not 0.0 <= x <= 0.5:
        raise ValueError(f"r(x) needs x in [0, 1/2], got {x}")
    return (3.0 - math.sqrt(1.0 + 8.0 * (1.0 - 2.0 * x) ** 2)) / 8.0


def _phi(y: float, a: float) -> float:
    """H(2y) + 4y + 2(1-2y) H((a-y)/(1-2y)) - 2H(a), the shared
    expression of psi (at y = r(a)) and phi."""
    if 2.0 * y >= 1.0:
        # only reachable when a = 1/2 and y = a: inner argument is 0/0,
        # but the limit of 2(1-2y)H(...) is 0, so evaluate without it
        return entropy(2.0 * y) + 4.0 * y - 2.0 * entropy(a)
    inner = (a - y) / (1.0 - 2.0 * y)
    return (
        entropy(2.0 * y)
        + 4.0 * y
        + 2.0 * (1.0 - 2.0 * y) * entropy(inner)
        - 2.0 * entropy(a)
    )


def psi_value(x: float) -> float:
    """psi(x) on [0, 1/2]."""
    if not 0.0 <= x <= 0.5:
        raise ValueError(f"psi needs x in [0, 1/2], got {x}")
    if x == 0.0:
        # r(0) = 0 exactly: every term vanishes
        return 0.0
    return _phi(r_of_x(x), x)


def phi(y: float, p: SphereParams) -> float:
    """phi(y) = H(2y) + 4y + 2(1-2y) H((a-y)/(1-2y)) - 2H(a), a = k/n.

    Defined on 0 <= y <= a; ties to psi through phi(t1/n) = psi(k/n).
    """
    a = p.k / p.n
    if not 0.0 <= y <= a + 1e-15:
        raise ValueError(f"phi needs 0 <= y <= k/n = {a}, got {y}")
    return _phi(min(y, a), a)


def phi_derivative(y: float, p: SphereParams) -> float:
    """Closed-form phi'(y) on the open interval 0 < y < k/n:

        phi'(y)/2 = log2((1-2y)/(2y)) + 2 - 2H((a-y)/(1-2y))
                    - ((1-2a)/(1-2y)) log2((1-a-y)/(a-y))
    """
    a = p.k / p.n
    if not 0.0 < y < a:
        raise ValueError(f"phi' needs 0 < y < k/n = {a}, got {y}")
    half = (
        math.log2((1.0 - 2.0 * y) / (2.0 * y))
        + 2.0
        - 2.0 * entropy((a - y) / (1.0 - 2.0 * y))
        - (1.0 - 2.0 * a) / (1.0 - 2.0 * y) * math.log2((1.0 - a - y) / (a - y))
    )
    return 2.0 * half


def f_combine(x: float, y: float) -> float:
    """The 1-homogeneous combine function

        F(x, y) = 8xy / (4 sqrt(xy) - (sqrt x - sqrt y)^2)

    on the closed cone x/9 <= y <= 9x (x > 0); on the boundary the
    denominator collapses and the value equals max(x, y) by continuity,
    which is returned directly.
    """
    if x <= 0.0 or y < x / 9.0 or y > 9.0 * x:
        raise ValueError(f"f_combine domain is x > 0, x/9 <= y <= 9x; got {(x, y)}")
    if y == x / 9.0 or y == 9.0 * x:
        return max(x, y)
    return 8.0 * x * y / (4.0 * math.sqrt(x * y) - (math.sqrt(x) - math.sqrt(y)) ** 2)
