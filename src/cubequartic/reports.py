"""Cross-checked inequality reports tying the exact combinatorics to the
dense pipeline and the optimizer.

Every report computes both sides of its inequalities through routes that
share as little code as possible (integer counting vs transforms vs the
ascent), so a hard failure localises a defect instead of rounding noise.
Comparisons against the irrational peak location (3n - sqrt(D))/8 are done
by isolating the radical and squaring, keeping those checks in integer
arithmetic end to end.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .additive import additive_energy, hereditary_energy, pair_multiplicities, sumset
from .asymptotics import psi_value
from .core import (
    DEFAULT_DENSE_CAP,
    CubeFunction,
    SpectrumVector,
    SupportSet,
    analyze,
    moments,
    support_of,
)
from .errors import DimensionMismatchError, ResourceLimitError
from .quartic import OptimizerConfig, mu_lower, mu_upper
from .reporting import (
    BoundReport,
    Check,
    ConjectureRecord,
    check_close,
    check_ge,
    check_le,
    check_lt,
    soft_note,
)
from .spheres import SphereParams, argmax_st, r_exact, ratio_st, sphere_table

__all__ = [
    "uncertainty_report",
    "restricted_mass_check",
    "sumset_bound_report",
    "ball_bound_report",
    "tensorization_check",
    "bracket_report",
    "conjecture_scan",
    "energy_lowerbound_step_check",
    "sphere_ratio_report",
    "psi_envelope_report",
    "log2_fraction",
]

_SUPPORT_TOL = 1e-10

# Reporting constant standing in for the unspecified absolute factor of the
# hereditary-energy refinements; used by soft checks only.
_SOFT_CONSTANT = 16.0


def _nonzero_values(f: CubeFunction) -> np.ndarray:
    values = np.asarray(f.values, dtype=float)
    if not np.any(values):
        raise ValueError("report requires a nonzero function")
    return values


def _time_support(values: np.ndarray, tol: float) -> int:
    cutoff = tol * float(np.max(np.abs(values)))
    return int(np.count_nonzero(np.abs(values) > cutoff))


def log2_fraction(q: Fraction) -> float:
    """Base-2 log of a positive rational, exact-integer logs subtracted."""
    if q <= 0:
        raise ValueError("log2 of a non-positive rational")
    return math.log2(q.numerator) - math.log2(q.denominator)


def uncertainty_report(f: CubeFunction) -> BoundReport:
    """Support-size lower bounds for a nonzero function.

    Three hard bounds on |supp f| * X >= 2^n with X the spectral support
    size, the assembled fourth-moment upper bound, and the pair
    multiplicity bound; the hereditary-energy refinement carries an
    unspecified absolute constant and is reported soft.
    """
    values = _nonzero_values(f)
    n = f.n
    A = support_of(analyze(f), _SUPPORT_TOL)
    supp_f = _time_support(values, _SUPPORT_TOL)
    total = 1 << n

    report = BoundReport(subject=f"uncertainty bounds, n={n}, |spectral support|={len(A)}")
    report.checks.append(
        check_ge(
            "support product",
            supp_f * len(A),
            total,
            provenance="counting: a function and its transform cannot both be sparse",
            detail=f"|supp f|={supp_f}",
        )
    )
    upper = mu_upper(A)
    report.checks.append(
        check_ge(
            "support times ratio bound",
            supp_f * upper.best,
            total,
            slack=1e-9 * total,
            provenance="Cauchy-Schwarz through the fourth moment; upper bound dominates the true ratio",
            detail=f"ratio bound {upper.best}",
        )
    )
    mult = upper.multiplicity_bound
    report.checks.append(
        check_ge(
            "support times multiplicity bound",
            supp_f * mult,
            total,
            provenance="pair multiplicity bound on the fourth moment, exact integers",
            detail=f"m={mult}",
        )
    )
    hered = hereditary_energy(A)
    scale = _SOFT_CONSTANT * float(hered.ratio) * math.log2(2 + len(A)) ** 3
    report.checks.append(
        check_ge(
            "support against hereditary energy scale",
            float(supp_f),
            total / scale,
            hard=False,
            provenance="hereditary-energy refinement; absolute constant unspecified, "
            f"{_SOFT_CONSTANT:g} used for reporting",
            detail=f"hereditary ratio {float(hered.ratio):.6g} on {len(hered.best)} elements",
        )
    )
    if supp_f * len(A) == total:
        report.notes.append(
            "counting bound is tight: tightness characterises indicators of affine subspaces"
        )
    return report


def restricted_mass_check(f: CubeFunction, B: SupportSet, delta: float) -> BoundReport:
    """Quadratic mass of f on B against the 2^(-delta n/2) decay bound.

    Applicability gate: (ratio upper bound) * |B| <= 2^((1-delta) n).
    The gate uses the assembled upper bound, which dominates the true
    ratio, so every admitted instance is a genuine instance.
    """
    values = _nonzero_values(f)
    if f.n != B.n:
        raise DimensionMismatchError(f"function on n={f.n} but B on n={B.n}")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    n = f.n
    A = support_of(analyze(f), _SUPPORT_TOL)
    upper = mu_upper(A)
    gate = 2.0 ** ((1.0 - delta) * n)

    report = BoundReport(subject=f"restricted mass, n={n}, |B|={len(B)}, delta={delta}")
    if upper.best * len(B) > gate:
        report.checks.append(
            soft_note(
                "not applicable",
                upper.best * len(B),
                provenance="gate: ratio bound times |B| within 2^((1-delta)n)",
                detail=f"needs <= {gate}",
            )
        )
        report.notes.append("instance outside the admissible range; nothing is claimed")
        return report

    mean_sq = float(np.mean(values**2))
    if len(B):
        idx = np.fromiter(B, dtype=np.int64, count=len(B))
        restricted = float(np.sum(values[idx] ** 2)) / values.size
    else:
        restricted = 0.0
    bound = 2.0 ** (-delta * n / 2.0) * mean_sq
    report.checks.append(
        check_le(
            "restricted quadratic mass",
            restricted,
            bound,
            slack=1e-12 * max(1.0, bound),
            provenance="Cauchy-Schwarz decay of mass on small sets",
            detail=f"gate value {upper.best * len(B):.6g} <= {gate:.6g}",
        )
    )
    return report


def sumset_bound_report(B: SupportSet, C: SupportSet, k1: int, k2: int) -> BoundReport:
    """Sumset growth: the exact energy bound and the entropy envelope.

    |B+C|^2 E2(B) E2(C) >= |B|^4 |C|^4 is compared squared, in integers.
    The envelope bound needs both radii at most n/2 and is float with
    1e-9 slack.
    """
    if B.n != C.n:
        raise DimensionMismatchError(f"B on n={B.n} but C on n={C.n}")
    if len(B) == 0 or len(C) == 0:
        raise ValueError("sumset bounds need nonempty sets")
    n = B.n
    if max(B.weights()) > k1:
        raise ValueError(f"B is not inside the ball of radius {k1}")
    if max(C.weights()) > k2:
        raise ValueError(f"C is not inside the ball of radius {k2}")

    S = sumset(B, C)
    e_b = additive_energy(B)
    e_c = additive_energy(C)
    report = BoundReport(
        subject=f"sumset bounds, n={n}, |B|={len(B)} (radius {k1}), |C|={len(C)} (radius {k2})"
    )
    report.checks.append(
        check_ge(
            "squared energy sumset bound",
            len(S) ** 2 * e_b * e_c,
            len(B) ** 4 * len(C) ** 4,
            provenance="Cauchy-Schwarz on the addition graph, compared squared in integers",
            detail=f"|B+C|={len(S)}, E2(B)={e_b}, E2(C)={e_c}",
        )
    )
    if 2 * k1 <= n and 2 * k2 <= n:
        envelope = len(B) * len(C) / 2.0 ** (n / 2.0 * (psi_value(k1 / n) + psi_value(k2 / n)))
        report.checks.append(
            check_ge(
                "entropy envelope sumset bound",
                float(len(S)),
                envelope,
                slack=1e-9 * max(1.0, envelope),
                provenance="entropy envelope on ball-supported spectra",
            )
        )
    else:
        report.notes.append("entropy envelope skipped: needs both radii at most n/2")
    return report


def ball_bound_report(n: int, k: int, cfg: OptimizerConfig | None = None) -> BoundReport:
    """Ball-supported spectra against the entropy envelope.

    Checks the ascent value on the full ball against 2^(n psi(k/n)),
    the envelope against min(9^k, 2^n) with strictness off the
    endpoints, and the exact monotonicity of the sphere energy ratios
    up to the ball radius.
    """
    if k < 0 or 2 * k > n:
        raise ValueError("ball radius must satisfy 0 <= 2k <= n")
    cfg = cfg or OptimizerConfig()
    ball = SupportSet.ball(n, k)
    est = mu_lower(ball, cfg)
    exponent = n * psi_value(k / n)

    report = BoundReport(subject=f"ball bounds, n={n}, radius {k}, |A|={len(ball)}")
    report.checks.append(
        check_le(
            "ascent value within entropy envelope",
            est.value,
            2.0**exponent * (1 + 1e-9),
            provenance="entropy envelope upper bound on the fourth-moment ratio",
            detail=f"exponent {exponent:.12g}",
        )
    )
    cap_exponent = min(k * math.log2(9.0), float(n))
    if 0 < 2 * k < n:
        report.checks.append(
            check_lt(
                "entropy envelope strictly below legacy caps",
                exponent,
                cap_exponent,
                provenance="envelope improves on both the 9^k and 2^n caps off the endpoints",
            )
        )
    else:
        report.checks.append(
            check_close(
                "entropy envelope meets the cap at the endpoint",
                exponent,
                cap_exponent,
                tol=1e-9,
                provenance="equality holds exactly at radius 0 and radius n/2",
            )
        )
    ratios = [r_exact(SphereParams(n, i)) for i in range(k + 1)]
    r_k, worst = ratios[-1], max(ratios)
    report.checks.append(
        check_le(
            "sphere energy ratios increase with radius",
            worst,
            r_k,
            provenance="termwise mass domination, exact rationals",
            detail=f"max over radii 0..{k}",
        )
    )
    return report


def tensorization_check(f: CubeFunction, m: int) -> BoundReport:
    """Moments of the m-fold product function against the m-th powers."""
    if m not in (2, 3):
        raise ValueError("tensor power m must be 2 or 3")
    if m * f.n > DEFAULT_DENSE_CAP:
        raise ResourceLimitError(
            f"product cube n={m * f.n} exceeds dense cap {DEFAULT_DENSE_CAP}"
        )
    base = np.asarray(f.values, dtype=float)
    prod = base
    for _ in range(m - 1):
        prod = np.kron(prod, base)
    big = CubeFunction(m * f.n, prod)

    mom = moments(f)
    mom_big = moments(big)
    report = BoundReport(subject=f"tensor power m={m}, base n={f.n}")
    report.checks.append(
        check_close(
            "second moment tensorizes",
            mom_big.second,
            mom.second**m,
            tol=1e-9,
            relative=True,
            provenance="product over disjoint variables factors every moment",
        )
    )
    report.checks.append(
        check_close(
            "fourth moment tensorizes",
            mom_big.fourth,
            mom.fourth**m,
            tol=1e-9,
            relative=True,
            provenance="product over disjoint variables factors every moment",
        )
    )
    if np.any(base):
        A = support_of(analyze(f), _SUPPORT_TOL)
        degrees = set(A.weights())
        if len(degrees) == 1:
            k = degrees.pop()
            big_support = support_of(analyze(big), _SUPPORT_TOL)
            big_degrees = sorted(set(big_support.weights()))
            report.checks.append(
                Check(
                    "product spectrum homogeneous of summed degree",
                    big_degrees,
                    "==",
                    [m * k],
                    big_degrees == [m * k],
                    provenance="spectra of products over disjoint variables multiply, weights add",
                )
            )
        else:
            report.notes.append("degree containment skipped: spectrum not weight-homogeneous")
    return report


def bracket_report(A: SupportSet, cfg: OptimizerConfig | None = None) -> BoundReport:
    """The bracket around the fourth-moment maximum over one set.

    hereditary energy ratio <= ascent value <= min(|A|, m(A), assembled
    upper bound), with the hereditary maximiser's indicator injected as
    an ascent start so the left inequality is honest.
    """
    if len(A) > 64:
        raise ResourceLimitError("bracket_report caps |A| at 64")
    cfg = cfg or OptimizerConfig()
    hered = hereditary_energy(A)

    coords = np.zeros(len(A))
    coords[np.searchsorted(A.masks_array(), hered.best.masks_array())] = 1.0
    start = SpectrumVector(A, coords / math.sqrt(len(hered.best)))

    est = mu_lower(A, cfg, extra_starts=(start,))
    upper = mu_upper(A)
    mult = upper.multiplicity_bound

    report = BoundReport(subject=f"bracket, n={A.n}, |A|={len(A)}")
    report.checks.append(
        check_le(
            "ascent value at most the set size",
            est.value,
            len(A) + 1e-7,
            provenance="cardinality bound on the fourth-moment ratio",
        )
    )
    report.checks.append(
        check_le(
            "ascent value at most the multiplicity bound",
            est.value,
            mult + 1e-7,
            provenance="pair multiplicity bound on the fourth-moment ratio",
        )
    )
    report.checks.append(
        check_le(
            "hereditary energy ratio below the ascent value",
            float(hered.ratio),
            est.value + 1e-7,
            provenance="indicator of the hereditary maximiser is a feasible ascent start",
            detail=f"hereditary set size {len(hered.best)}, exact={hered.exact}",
        )
    )
    report.checks.append(
        check_le(
            "ascent value within the assembled upper bound",
            est.value,
            upper.best + 1e-8,
            provenance="lower and upper routes share no arithmetic",
            detail=f"upper bounds {upper.present_bounds()}",
        )
    )
    overshoot = upper.best / float(hered.ratio)
    report.checks.append(
        check_le(
            "bracket width against the cubed-log scale",
            overshoot,
            _SOFT_CONSTANT * math.log2(2 + len(A)) ** 3,
            hard=False,
            provenance="hereditary refinement constant unspecified; "
            f"{_SOFT_CONSTANT:g} used for reporting",
        )
    )
    return report


def conjecture_scan(
    n_max: int,
    cfg: OptimizerConfig | None = None,
    *,
    dense_cap: int | None = None,
) -> list[ConjectureRecord]:
    """Scan every sphere cell (n, k), n <= n_max, 1 <= k <= n/2, in order.

    Each cell compares the ascent value against the exact energy ratio
    computed twice (quadruple counting and the closed-form chain); a
    mismatch between the exact routes or an ascent value measurably
    below the ratio raises instead of being recorded.  The cells run
    in this thread: each is thousands of small numpy calls that hold
    the interpreter lock, so worker threads only queued on it.
    """
    cfg = cfg or OptimizerConfig()
    cells = [(n, k) for n in range(2, n_max + 1) for k in range(1, n // 2 + 1)]

    def run(cell: tuple[int, int]) -> ConjectureRecord:
        n, k = cell
        A = SupportSet.sphere(n, k)
        ratio = Fraction(
            pair_multiplicities(A, dense_cap=dense_cap).energy(), len(A) ** 2
        )
        closed = r_exact(SphereParams(n, k))
        if ratio != closed:
            raise RuntimeError(
                f"energy-ratio routes disagree at (n={n}, k={k}): {ratio} vs {closed}"
            )
        est = mu_lower(A, cfg, dense_cap=dense_cap)
        upper = mu_upper(A, dense_cap=dense_cap)
        gap = est.value - float(ratio)
        upper_gap = upper.best - float(ratio)
        if gap < -1e-8:
            raise RuntimeError(
                f"ascent fell below the uniform-start value at (n={n}, k={k}): gap={gap}"
            )
        if gap <= 1e-6:
            status, certificate = ConjectureRecord.CONSISTENT, None
        elif gap > 1e-4:
            status = ConjectureRecord.CANDIDATE
            certificate = tuple(float(v) for v in est.certificate.coords)
        else:
            status, certificate = ConjectureRecord.INCONCLUSIVE, None
        return ConjectureRecord(
            n=n,
            k=k,
            mu_est=est.value,
            energy_ratio=ratio,
            gap=gap,
            upper_gap=upper_gap,
            status=status,
            certificate=certificate,
        )

    return [run(cell) for cell in cells]


def energy_lowerbound_step_check(f: CubeFunction, C_val: float) -> BoundReport:
    """Energy of a compressed spectrum: the hereditary step of the chain.

    For near-compressed f (support product within C_val * 2^n) the
    hereditary maximiser B satisfies E2(A) >= E2(B) exactly; the implied
    density scale of E2(A)/|A|^3 is existence-level and reported soft.
    """
    values = _nonzero_values(f)
    A = support_of(analyze(f), _SUPPORT_TOL)
    supp_f = _time_support(values, _SUPPORT_TOL)
    total = 1 << f.n

    report = BoundReport(subject=f"compressed-spectrum energy, n={f.n}, |A|={len(A)}")
    if supp_f * len(A) > C_val * total:
        report.checks.append(
            soft_note(
                "not applicable",
                supp_f * len(A),
                provenance="gate: support product within C * 2^n",
                detail=f"needs <= {C_val * total}",
            )
        )
        report.notes.append("instance outside the admissible range; nothing is claimed")
        return report

    hered = hereditary_energy(A)
    e_a = additive_energy(A)
    e_b = additive_energy(hered.best)
    report.checks.append(
        check_ge(
            "energy grows with the set",
            e_a,
            e_b,
            provenance="quadruples of a subset are quadruples of the ambient set, exact integers",
            detail=f"|B|={len(hered.best)}",
        )
    )
    density = float(Fraction(e_a, len(A) ** 3))
    scale = 1.0 / (max(C_val, 1.0) ** 3 * math.log2(2 + len(A)) ** 9)
    report.checks.append(
        check_ge(
            "energy density against the chained scale",
            density,
            scale,
            hard=False,
            provenance="existence-level constants omitted; unit constants used for reporting",
        )
    )
    report.notes.append("structural conclusions past the energy bound are not computed")
    return report


# --- exact tests against the irrational peak location -----------------

def _radical_le(D: int, q: Fraction) -> bool:
    """sqrt(D) <= q, exactly, for integer D >= 0 and rational q."""
    if q < 0:
        return False
    return D * q.denominator**2 <= q.numerator**2


def _radical_ge(D: int, q: Fraction) -> bool:
    """sqrt(D) >= q, exactly."""
    if q <= 0:
        return True
    return D * q.denominator**2 >= q.numerator**2


def _t_at_most(D: int, n: int, bound: Fraction, t: int) -> bool:
    """t <= (3n - sqrt(D))/8 - bound, exactly."""
    return _radical_le(D, 3 * n - 8 * (t + bound))


def _t_at_least(D: int, n: int, bound: Fraction, t: int) -> bool:
    """t >= (3n - sqrt(D))/8 + bound, exactly."""
    return _radical_ge(D, 3 * n - 8 * (t - bound))


def _k_window(n: int) -> range:
    lo = math.ceil(n / math.log2(n))
    hi = math.floor(n / 2 - n / math.log2(n))
    return range(lo, hi + 1)


def sphere_ratio_report(n_lo: int = 64, n_hi: int = 128) -> BoundReport:
    """Adjacent-mass ratio localization on the central radius window.

    For every n in [n_lo, n_hi] and k in [n/log2 n, n/2 - n/log2 n]:
    the peak location lies in [k/3, 11k/12]; below the peak with margin
    at least 3 the ratio s_{t+1}/s_t is at least the strongest admitted
    1 + margin/t; above the peak with margin at least log2 n it is at
    most the strongest admitted 1 - margin/t; the argmax sits within
    sqrt(n log2 n) of the peak; the central window of that halfwidth
    carries a 1/(1+1/n) share of the total mass; and adjacent-radius
    totals stay within a factor of nine of each other.

    All ratio and mass comparisons are exact rationals; comparisons with
    the peak move the radical to one side and square.
    """
    if n_lo < 4 or n_hi < n_lo:
        raise ValueError("need 4 <= n_lo <= n_hi")
    report = BoundReport(subject=f"sphere mass profile, n in [{n_lo}, {n_hi}]")
    cells = 0
    for n in range(n_lo, n_hi + 1):
        for k in _k_window(n):
            cells += 1
            p = SphereParams(n, k)
            D = n * n + 8 * (n - 2 * k) ** 2
            peak_float = (3 * n - math.sqrt(D)) / 8.0

            report.checks.append(
                Check(
                    f"peak inside [k/3, 11k/12] (n={n}, k={k})",
                    round(peak_float, 4),
                    "in",
                    f"[{k / 3:.4f}, {11 * k / 12:.4f}]",
                    _radical_le(D, Fraction(9 * n - 8 * k, 3))
                    and _radical_ge(D, Fraction(9 * n - 22 * k, 3)),
                    provenance="radical isolated and squared, exact integers",
                )
            )

            # below the peak: strongest admitted margin at integer t is
            # peak - t itself, so test t * ratio(t) >= peak exactly
            bad_low: list[int] = []
            t = 1
            while _t_at_most(D, n, Fraction(3), t):
                q = 3 * n - 8 * t * ratio_st(p, t)
                if not _radical_ge(D, q):
                    bad_low.append(t)
                t += 1
            report.checks.append(
                Check(
                    f"ratios exceed the sliding floor below the peak (n={n}, k={k})",
                    len(bad_low),
                    "==",
                    0,
                    not bad_low,
                    provenance="closed-form adjacent-mass ratio vs peak, radical squared",
                    detail=f"t in [1, {t - 1}]" if t > 1 else "window empty",
                )
            )

            # above the peak: admitted margins start at log2 n; use a
            # rational upper cover of log2 n so every tested t is genuine
            log_hi = Fraction(math.ceil(math.log2(n) * 2**32), 2**32)
            t_lo = max(1, math.floor(peak_float + math.log2(n)) - 1)
            while t_lo <= k - 1 and not _t_at_least(D, n, log_hi, t_lo):
                t_lo += 1
            bad_high: list[int] = []
            for t in range(t_lo, k):
                q = 3 * n - 8 * t * ratio_st(p, t)
                if not _radical_le(D, q):
                    bad_high.append(t)
            report.checks.append(
                Check(
                    f"ratios stay under the sliding ceiling above the peak (n={n}, k={k})",
                    len(bad_high),
                    "==",
                    0,
                    not bad_high,
                    provenance="closed-form adjacent-mass ratio vs peak, radical squared",
                    detail=f"t in [{t_lo}, {k - 1}]" if t_lo <= k - 1 else "window empty",
                )
            )

            halfwidth = math.sqrt(n * math.log2(n))
            peak_arg = argmax_st(p)
            report.checks.append(
                check_le(
                    f"argmax within sqrt(n log2 n) of the peak (n={n}, k={k})",
                    abs(peak_arg - peak_float),
                    halfwidth,
                    provenance="largest mass localises at the quadratic root",
                    detail=f"argmax {peak_arg}, peak {peak_float:.4f}",
                )
            )

            masses = [row.mass for row in sphere_table(p)]
            window = math.ceil(halfwidth)
            lo_t = max(0, math.ceil(peak_float - window))
            hi_t = min(k, math.floor(peak_float + window))
            central = sum(masses[lo_t : hi_t + 1], Fraction(0))
            report.checks.append(
                check_ge(
                    f"central window holds the mass (n={n}, k={k})",
                    Fraction(n + 1, n) * central,
                    r_exact(p),
                    provenance="geometric decay away from the peak, exact rationals",
                    detail=f"window radii [{lo_t}, {hi_t}]",
                )
            )

            ratio_adj = r_exact(SphereParams(n - 1, k)) / r_exact(SphereParams(n - 1, k - 1))
            report.checks.append(
                Check(
                    f"adjacent-radius totals within a factor of nine (n={n}, k={k})",
                    round(float(ratio_adj), 6),
                    "in",
                    "(1/9, 9)",
                    Fraction(1, 9) < ratio_adj < Fraction(9),
                    provenance="exact rational totals at the two neighbouring radii",
                )
            )
    report.notes.append(f"{cells} (n, k) cells checked")
    return report


def psi_envelope_report(n_max: int = 256, *, k_min: int = 8) -> BoundReport:
    """Exact energy ratios vs the entropy envelope, both directions.

    log2 r(n,k) <= n psi(k/n) + log2(1 + 1e-9) for all k <= n/2, and
    n psi(k/n) <= log2(8 k^{3/2} r(n,k)) for k >= k_min; compared in
    log space so no exponentials overflow.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    report = BoundReport(subject=f"entropy envelope vs exact ratios, n <= {n_max}")
    slack = math.log2(1 + 1e-9)
    worst_up: tuple[float, int, int] | None = None
    worst_down: tuple[float, int, int] | None = None
    violations_up: list[tuple[int, int]] = []
    violations_down: list[tuple[int, int]] = []
    for n in range(1, n_max + 1):
        for k in range(0, n // 2 + 1):
            log_r = log2_fraction(r_exact(SphereParams(n, k)))
            envelope = n * psi_value(k / n)
            margin_up = envelope + slack - log_r
            if worst_up is None or margin_up < worst_up[0]:
                worst_up = (margin_up, n, k)
            if margin_up < 0:
                violations_up.append((n, k))
            if k >= k_min:
                margin_down = 3.0 + 1.5 * math.log2(k) + log_r - envelope
                if worst_down is None or margin_down < worst_down[0]:
                    worst_down = (margin_down, n, k)
                if margin_down < 0:
                    violations_down.append((n, k))
    assert worst_up is not None
    report.checks.append(
        check_ge(
            "exact ratio below the envelope",
            worst_up[0],
            0.0,
            provenance="log-space comparison of the exact rational against n*psi",
            detail=f"worst margin at (n={worst_up[1]}, k={worst_up[2]}); "
            f"{len(violations_up)} violations",
        )
    )
    if worst_down is not None:
        report.checks.append(
            check_ge(
                "envelope within 8 k^1.5 of the exact ratio",
                worst_down[0],
                0.0,
                provenance="log-space comparison; constant 8 covers the tested range",
                detail=f"worst margin at (n={worst_down[1]}, k={worst_down[2]}); "
                f"{len(violations_down)} violations",
            )
        )
    else:
        report.notes.append(f"no cells with k >= {k_min}; reverse direction not exercised")
    return report
