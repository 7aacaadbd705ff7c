"""The real-analytic layer: binary entropy, r(x), psi, phi, and the
combine function, together with their identity and shape checks.

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

from .reporting import BoundReport, check_close, check_le, check_lt, soft_note
from .spheres import SphereParams

__all__ = [
    "entropy",
    "r_of_x",
    "psi_value",
    "phi",
    "phi_derivative",
    "f_combine",
    "psi_concavity_check",
    "psi_linear_bound_check",
    "r_identity_check",
    "phi_derivative_report",
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


def _interior_grid(step: float) -> list[float]:
    if not 0.0 < step <= 0.1:
        raise ValueError("grid step must lie in (0, 0.1]")
    count = int(0.5 / step)
    return [i * step for i in range(1, count) if i * step < 0.5]


def psi_concavity_check(grid_step: float = 1e-3) -> BoundReport:
    """Strict concavity of psi plus its two slope anchors.

    Hard checks: every central second difference on the interior grid
    is negative; the one-sided slope near 1/2 vanishes; the slope near
    0 approaches 2 log2(3).
    """
    report = BoundReport(subject=f"psi concavity on grid step {grid_step}")
    grid = _interior_grid(grid_step)
    h = grid_step
    worst_x, worst = None, -math.inf
    for x in grid:
        if x - h < 0.0 or x + h > 0.5:
            continue
        second = psi_value(x + h) - 2.0 * psi_value(x) + psi_value(x - h)
        if second > worst:
            worst_x, worst = x, second
    report.checks.append(
        check_lt(
            "max central second difference",
            worst,
            0.0,
            provenance="strict concavity of the exponent function",
            detail=f"worst grid point x={worst_x}",
        )
    )
    slope_half = (psi_value(0.5) - psi_value(0.4999)) / 0.0001
    report.checks.append(
        check_close(
            "slope at 1/2",
            slope_half,
            0.0,
            tol=1e-3,
            provenance="stationary point of psi at one half",
        )
    )
    x0 = 1e-4
    slope_zero = (psi_value(2.0 * x0) - psi_value(x0)) / x0
    report.checks.append(
        check_close(
            "slope at 0+",
            slope_zero,
            TWO_LOG2_3,
            tol=5e-3,
            provenance="limiting slope 2 log2(3) of psi at zero",
        )
    )
    return report


def psi_linear_bound_check(grid_step: float = 1e-3) -> BoundReport:
    """psi(x) < min(2 log2(3) x, 1) strictly inside, equality at ends."""
    report = BoundReport(subject=f"psi linear bound on grid step {grid_step}")
    margin = math.inf
    argmin = None
    for x in _interior_grid(grid_step):
        gap = min(TWO_LOG2_3 * x, 1.0) - psi_value(x)
        if gap < margin:
            margin, argmin = gap, x
    report.checks.append(
        check_lt(
            "psi below the linear cap (worst margin)",
            0.0,
            margin,
            provenance="strict interior inequality of the exponent cap",
            detail=f"tightest at x={argmin}",
        )
    )
    report.checks.append(
        check_close("equality at 0", psi_value(0.0), 0.0, tol=0.0,
                    provenance="endpoint value psi(0) = 0")
    )
    report.checks.append(
        check_close("equality at 1/2", psi_value(0.5), 1.0, tol=1e-12,
                    provenance="endpoint value psi(1/2) = 1")
    )
    return report


def r_identity_check(grid_step: float = 1e-3) -> BoundReport:
    """Algebraic identities tying r(x) to x, and its derivative form.

    Hard: (3r - 4r^2)/2 = x(1-x) and 2(x-r)(1-x-r) = r(1-2r) within
    1e-10 on the grid; r'(x) = (2-4x)/(3-8r) against central
    differences within 1e-4; the forward slope at 0 equals 2/3.
    """
    report = BoundReport(subject=f"r(x) identities on grid step {grid_step}")
    worst_quad = worst_prod = 0.0
    for x in [0.0] + _interior_grid(grid_step) + [0.5]:
        r = r_of_x(x)
        worst_quad = max(worst_quad, abs((3.0 * r - 4.0 * r * r) / 2.0 - x * (1.0 - x)))
        worst_prod = max(
            worst_prod,
            abs(2.0 * (x - r) * (1.0 - x - r) - r * (1.0 - 2.0 * r)),
        )
    report.checks.append(
        check_le("defining quadratic residual", worst_quad, 1e-10,
                 provenance="(3r-4r^2)/2 = x(1-x)")
    )
    report.checks.append(
        check_le("product identity residual", worst_prod, 1e-10,
                 provenance="2(x-r)(1-x-r) = r(1-2r)")
    )
    h = 1e-6
    worst_deriv = 0.0
    for x in _interior_grid(max(grid_step, 1e-3)):
        if x - h < 0.0 or x + h > 0.5:
            continue
        fd = (r_of_x(x + h) - r_of_x(x - h)) / (2.0 * h)
        closed = (2.0 - 4.0 * x) / (3.0 - 8.0 * r_of_x(x))
        worst_deriv = max(worst_deriv, abs(fd - closed))
    report.checks.append(
        check_le("derivative closed form residual", worst_deriv, 1e-4,
                 provenance="r'(x) = (2-4x)/(3-8r)")
    )
    slope0 = (r_of_x(h) - r_of_x(0.0)) / h
    report.checks.append(
        check_close("slope at 0", slope0, 2.0 / 3.0, tol=1e-4,
                     provenance="r'(0) = 2/3")
    )
    return report


def phi_derivative_report(samples: int = 64) -> BoundReport:
    """Empirical size of phi' over the peak region, with an FD cross-check.

    For a grid of aspect ratios a = k/n the derivative is sampled on
    y in [a/3, min(11a/12, r(a))] (the interval carrying the mass peak).
    The source argument only claims boundedness with implicit constants,
    so the maximum is reported soft; the closed form vs finite
    differences agreement within 1e-4 is a hard check.
    """
    report = BoundReport(subject="phi derivative boundedness sample")
    max_abs = 0.0
    worst_fd_gap = 0.0
    h = 1e-7
    for i in range(1, 17):
        n = 512
        k = max(2, (i * n) // 34)  # a sweeps roughly (0, 1/2)
        p = SphereParams(n, k)
        a = k / n
        lo, hi = a / 3.0, min(11.0 * a / 12.0, r_of_x(a))
        if hi <= lo:
            continue
        for j in range(samples):
            y = lo + (hi - lo) * (j + 0.5) / samples
            d = phi_derivative(y, p)
            max_abs = max(max_abs, abs(d))
            if lo < y - h and y + h < a:
                fd = (phi(y + h, p) - phi(y - h, p)) / (2.0 * h)
                worst_fd_gap = max(worst_fd_gap, abs(d - fd))
    report.checks.append(
        check_le(
            "closed form vs finite differences",
            worst_fd_gap,
            1e-4,
            provenance="derivative formula of the fixed-ratio exponent",
        )
    )
    report.checks.append(
        soft_note(
            "max |phi'| over sampled peak region",
            max_abs,
            provenance="boundedness with implicit constants; reported only",
        )
    )
    return report
