"""The verification layer: check records and the reports that fill them.

A Check stores one inequality or identity instance with the values that
were compared.  Hard checks decide the overall verdict of a report;
soft checks are informational (empirical constants, ratios the source
bounds only asymptotically) and never fail a report.

Every report computes both sides of its inequalities through routes that
share as little code as possible (integer counting vs transforms vs the
ascent), so a hard failure localises a defect instead of rounding noise.
Comparisons against the irrational peak location (3n - sqrt(D))/8 are done
by isolating the radical and squaring, keeping those checks in integer
arithmetic end to end.  The shape reports of psi, r(x) and phi walk a
fixed grid on (0, 1/2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .additive import additive_energy, hereditary_energy, pair_multiplicities, plan, sumset
from .asymptotics import TWO_LOG2_3, phi, phi_derivative, psi_value, r_of_x
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
from .spheres import SphereParams, argmax_st, r_exact, ratio_st, t1

# the check constructors (check_le, ...) are helpers, not part of the API
__all__ = [
    "Check",
    "BoundReport",
    "ConjectureRecord",
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
    "psi_concavity_check",
    "psi_linear_bound_check",
    "r_identity_check",
    "phi_derivative_report",
    "log2_fraction",
]

# values at most this fraction of the largest |value| count as zero, in
# point space and in the spectrum alike, so every report is scale-free
_SUPPORT_TOL = 1e-10

# Reporting constant standing in for the unspecified absolute factor of the
# hereditary-energy refinements; used by soft checks only.
_SOFT_CONSTANT = 16.0


# --- records ---------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One verified relation lhs <relation> rhs."""

    name: str
    lhs: object
    relation: str
    rhs: object
    passed: bool
    hard: bool = True
    provenance: str = ""
    detail: str = ""


# each constructor passes hard, provenance and detail on to the Check
def check_le(name: str, lhs, rhs, *, slack=0, **fields) -> Check:
    """lhs <= rhs + slack; exact when both sides are exact types."""
    return Check(name, lhs, "<=", rhs, bool(lhs <= rhs + slack), **fields)


def check_ge(name: str, lhs, rhs, *, slack=0, **fields) -> Check:
    return Check(name, lhs, ">=", rhs, bool(lhs >= rhs - slack), **fields)


def check_lt(name: str, lhs, rhs, **fields) -> Check:
    return Check(name, lhs, "<", rhs, bool(lhs < rhs), **fields)


def check_close(name: str, lhs: float, rhs: float, *, tol: float, relative=False, **fields) -> Check:
    """|lhs - rhs| <= tol, optionally scaled by max(1, |lhs|, |rhs|)."""
    scale = max(1.0, abs(lhs), abs(rhs)) if relative else 1.0
    return Check(name, lhs, "~=", rhs, bool(abs(lhs - rhs) <= tol * scale), **fields)


def soft_note(name: str, value, **fields) -> Check:
    """A report-only observation; always 'passes'."""
    return Check(name, value, "reported", None, True, False, **fields)


@dataclass
class BoundReport:
    """A named bundle of checks about one subject."""

    subject: str
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks if c.hard)

    def failed_checks(self) -> list[Check]:
        return [c for c in self.checks if c.hard and not c.passed]


@dataclass(frozen=True)
class ConjectureRecord:
    """One (n, k) cell of the sphere-maximiser scan.

    gap = mu_est - energy_ratio must stay >= -1e-8: the optimiser is
    seeded with the uniform vector whose value IS the energy ratio, so
    falling measurably below it indicates a broken estimator.  A large
    positive gap would be a counterexample candidate for the
    uniform-maximiser conjecture and keeps its certificate for audit.
    """

    n: int
    k: int
    mu_est: float
    energy_ratio: Fraction
    gap: float
    upper_gap: float
    status: str
    certificate: tuple[float, ...] | None = None

    CONSISTENT = "conjecture-consistent"
    CANDIDATE = "counterexample-candidate"
    INCONCLUSIVE = "inconclusive"

    def __post_init__(self) -> None:
        if self.status not in (self.CONSISTENT, self.CANDIDATE, self.INCONCLUSIVE):
            raise ValueError(f"unknown status {self.status!r}")


# --- reports ---------------------------------------------------------

def _nonzero_values(f: CubeFunction) -> np.ndarray:
    values = np.asarray(f.values, dtype=float)
    if not np.any(values):
        raise ValueError("report requires a nonzero function")
    return values


def _time_support(values: np.ndarray) -> int:
    cutoff = _SUPPORT_TOL * float(np.max(np.abs(values)))
    return int(np.count_nonzero(np.abs(values) > cutoff))


def _spectral_support(f: CubeFunction) -> SupportSet:
    spectrum = analyze(f)
    return support_of(spectrum, _SUPPORT_TOL * float(np.max(np.abs(spectrum.values))))


def _not_applicable(report: BoundReport, value, gate: str, limit) -> BoundReport:
    """Close a report whose instance fails its applicability gate."""
    report.checks.append(
        soft_note("not applicable", value, provenance=f"gate: {gate}", detail=f"needs <= {limit}")
    )
    report.notes.append("instance outside the admissible range; nothing is claimed")
    return report


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
    A = _spectral_support(f)
    supp_f = _time_support(values)
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
    A = _spectral_support(f)
    upper = mu_upper(A)
    gate = 2.0 ** ((1.0 - delta) * n)

    report = BoundReport(subject=f"restricted mass, n={n}, |B|={len(B)}, delta={delta}")
    if upper.best * len(B) > gate:
        return _not_applicable(
            report, upper.best * len(B), "ratio bound times |B| within 2^((1-delta)n)", gate
        )

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
        # on the cube of dimension 0 the envelope exponent is 0
        exponent = n / 2.0 * (psi_value(k1 / n) + psi_value(k2 / n)) if n else 0.0
        envelope = len(B) * len(C) / 2.0**exponent
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
    if n < 1 or k < 0 or 2 * k > n:
        raise ValueError("ball bounds need n >= 1 and a radius with 0 <= 2k <= n")
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
        A = _spectral_support(f)
        degrees = set(A.weights())
        if len(degrees) == 1:
            k = degrees.pop()
            big_support = _spectral_support(big)
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
    start = SpectrumVector.unit_indicator(A, hered.best)
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
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> list[ConjectureRecord]:
    """Scan every sphere cell (n, k), n <= n_max, 1 <= k <= n/2, in order.

    Every cell is planned before the first one runs, so the scan either
    refuses at once (ResourceLimitError) or completes.  Each cell compares
    the ascent value against the exact energy ratio computed twice
    (quadruple counting and the closed-form chain); a mismatch between the
    exact routes or an ascent value measurably below the ratio raises
    instead of being recorded.  The cells run in this thread: each is
    thousands of small numpy calls that hold the interpreter lock, so
    worker threads only queued on it.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    cfg = cfg or OptimizerConfig()
    cells = [SphereParams(n, k) for n in range(2, n_max + 1) for k in range(1, n // 2 + 1)]
    for p in cells:
        plan(p.size, p.rank, dense_cap)

    def run(p: SphereParams) -> ConjectureRecord:
        n, k = p.n, p.k
        A = SupportSet.sphere(n, k)
        ratio = Fraction(
            pair_multiplicities(A, dense_cap=dense_cap).energy(), len(A) ** 2
        )
        closed = r_exact(p)
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
    A = _spectral_support(f)
    supp_f = _time_support(values)
    total = 1 << f.n

    report = BoundReport(subject=f"compressed-spectrum energy, n={f.n}, |A|={len(A)}")
    if supp_f * len(A) > C_val * total:
        return _not_applicable(
            report, supp_f * len(A), "support product within C * 2^n", C_val * total
        )

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

def _radical_le(D: int, num: int, den: int) -> bool:
    """sqrt(D) <= num/den, exactly, for integers D >= 0 and den > 0."""
    return num >= 0 and D * den * den <= num * num


def _radical_ge(D: int, num: int, den: int) -> bool:
    """sqrt(D) >= num/den, exactly."""
    return num <= 0 or D * den * den >= num * num


def _t_at_most(D: int, n: int, num: int, den: int, t: int) -> bool:
    """t <= (3n - sqrt(D))/8 - num/den, exactly."""
    return _radical_le(D, 3 * n * den - 8 * (t * den + num), den)


def _t_at_least(D: int, n: int, num: int, den: int, t: int) -> bool:
    """t >= (3n - sqrt(D))/8 + num/den, exactly."""
    return _radical_ge(D, 3 * n * den - 8 * (t * den - num), den)


def _k_window(n: int) -> range:
    lo = math.ceil(n / math.log2(n))
    hi = math.floor(n / 2 - n / math.log2(n))
    return range(lo, hi + 1)


def _window_check(name: str, bad: list[int], lo: int, hi: int) -> Check:
    """No step ratio s_{t+1}/s_t with t in [lo, hi] misses its sliding bound."""
    return Check(
        name,
        len(bad),
        "==",
        0,
        not bad,
        provenance="closed-form adjacent-mass ratio vs peak, radical squared",
        detail=f"t in [{lo}, {hi}]" if lo <= hi else "window empty",
    )


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

    All ratio and mass comparisons are exact, on integer numerators over
    the chain's common denominator; comparisons with the peak move the
    radical to one side and square.
    """
    if n_lo < 4 or n_hi < n_lo:
        raise ValueError("need 4 <= n_lo <= n_hi")
    report = BoundReport(subject=f"sphere mass profile, n in [{n_lo}, {n_hi}]")
    # one SphereParams, hence one chain, per (n, k): the neighbours of row
    # n are read again as (n - 1, k) and as (n - 1, (k + 1) - 1)
    sphere = functools.cache(SphereParams)
    # a dyadic upper cover L / 2^32 of log2 n, so every tested t is genuine
    cover = 2**32
    cells = 0
    for n in range(n_lo, n_hi + 1):
        log_hi = math.ceil(math.log2(n) * cover)
        for k in _k_window(n):
            cells += 1
            p = sphere(n, k)
            D = n * n + 8 * (n - 2 * k) ** 2
            peak_float = t1(p)

            report.checks.append(
                Check(
                    f"peak inside [k/3, 11k/12] (n={n}, k={k})",
                    round(peak_float, 4),
                    "in",
                    f"[{k / 3:.4f}, {11 * k / 12:.4f}]",
                    _radical_le(D, 9 * n - 8 * k, 3) and _radical_ge(D, 9 * n - 22 * k, 3),
                    provenance="radical isolated and squared, exact integers",
                )
            )

            # below the peak: strongest admitted margin at integer t is
            # peak - t itself, so test t * ratio(t) >= peak exactly
            bad_low: list[int] = []
            t = 1
            while _t_at_most(D, n, 3, 1, t):
                a, b = ratio_st(p, t).as_integer_ratio()
                if not _radical_ge(D, 3 * n * b - 8 * t * a, b):
                    bad_low.append(t)
                t += 1
            report.checks.append(
                _window_check(f"ratios exceed the sliding floor below the peak (n={n}, k={k})",
                              bad_low, 1, t - 1)
            )

            # above the peak: admitted margins start at log2 n
            t_lo = max(1, math.floor(peak_float + math.log2(n)) - 1)
            while t_lo <= k - 1 and not _t_at_least(D, n, log_hi, cover, t_lo):
                t_lo += 1
            bad_high: list[int] = []
            for t in range(t_lo, k):
                a, b = ratio_st(p, t).as_integer_ratio()
                if not _radical_le(D, 3 * n * b - 8 * t * a, b):
                    bad_high.append(t)
            report.checks.append(
                _window_check(f"ratios stay under the sliding ceiling above the peak (n={n}, k={k})",
                              bad_high, t_lo, k - 1)
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

            window = math.ceil(halfwidth)
            lo_t = max(0, math.ceil(peak_float - window))
            hi_t = min(k, math.floor(peak_float + window))
            central = Fraction(sum(p.chain[lo_t : hi_t + 1]), p.chain[0])
            report.checks.append(
                check_ge(
                    f"central window holds the mass (n={n}, k={k})",
                    Fraction(n + 1, n) * central,
                    r_exact(p),
                    provenance="geometric decay away from the peak, exact rationals",
                    detail=f"window radii [{lo_t}, {hi_t}]",
                )
            )

            ratio_adj = r_exact(sphere(n - 1, k)) / r_exact(sphere(n - 1, k - 1))
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


def _log2_r(p: SphereParams) -> float:
    """log2_fraction(r_exact(p)), bit for bit, with no Fraction built."""
    total, base = p.total, p.chain[0]
    common = math.gcd(total, base)
    return math.log2(total // common) - math.log2(base // common)


def psi_envelope_report(n_max: int = 256) -> BoundReport:
    """Exact energy ratios vs the entropy envelope, both directions.

    log2 r(n,k) <= n psi(k/n) + log2(1 + 1e-9) for all k <= n/2, and
    n psi(k/n) <= log2(8 k^{3/2} r(n,k)) for k >= 8; compared in
    log space so no exponentials overflow.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    report = BoundReport(subject=f"entropy envelope vs exact ratios, n <= {n_max}")
    slack = math.log2(1 + 1e-9)
    # (margin, n, k) of every cell in (n, k) order, so min() returns the
    # first cell of the smallest margin
    up: list[tuple[float, int, int]] = []
    down: list[tuple[float, int, int]] = []
    for n in range(1, n_max + 1):
        for k in range(0, n // 2 + 1):
            log_r = _log2_r(SphereParams(n, k))
            envelope = n * psi_value(k / n)
            up.append((envelope + slack - log_r, n, k))
            if k >= 8:
                down.append((3.0 + 1.5 * math.log2(k) + log_r - envelope, n, k))

    def worst(name: str, margins: list[tuple[float, int, int]], provenance: str) -> Check:
        margin, n, k = min(margins)
        violations = sum(m < 0 for m, _, _ in margins)
        detail = f"worst margin at (n={n}, k={k}); {violations} violations"
        return check_ge(name, margin, 0.0, provenance=provenance, detail=detail)

    report.checks.append(
        worst(
            "exact ratio below the envelope",
            up,
            "log-space comparison of the exact rational against n*psi",
        )
    )
    if down:
        report.checks.append(
            worst(
                "envelope within 8 k^1.5 of the exact ratio",
                down,
                "log-space comparison; constant 8 covers the tested range",
            )
        )
    else:
        report.notes.append("no cells with k >= 8; reverse direction not exercised")
    return report


# --- shape of psi, r(x) and phi on a fixed grid ---------------------

_GRID_STEP = 1e-3
_GRID = [i * _GRID_STEP for i in range(1, 500)]


def psi_concavity_check() -> BoundReport:
    """Strict concavity of psi plus its two slope anchors.

    Hard checks: every central second difference on the interior grid
    is negative; the one-sided slope near 1/2 vanishes; the slope near
    0 approaches 2 log2(3).
    """
    report = BoundReport(subject=f"psi concavity on grid step {_GRID_STEP}")
    h = _GRID_STEP
    worst_x, worst = None, -math.inf
    for x in _GRID:
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


def psi_linear_bound_check() -> BoundReport:
    """psi(x) < min(2 log2(3) x, 1) strictly inside, equality at ends."""
    report = BoundReport(subject=f"psi linear bound on grid step {_GRID_STEP}")
    margin = math.inf
    argmin = None
    for x in _GRID:
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


def r_identity_check() -> BoundReport:
    """Algebraic identities tying r(x) to x, and its derivative form.

    Hard: (3r - 4r^2)/2 = x(1-x) and 2(x-r)(1-x-r) = r(1-2r) within
    1e-10 on the grid; r'(x) = (2-4x)/(3-8r) against central
    differences within 1e-4; the forward slope at 0 equals 2/3.
    """
    report = BoundReport(subject=f"r(x) identities on grid step {_GRID_STEP}")
    worst_quad = worst_prod = 0.0
    for x in [0.0] + _GRID + [0.5]:
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
    for x in _GRID:
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


def phi_derivative_report() -> BoundReport:
    """Empirical size of phi' over the peak region, with an FD cross-check.

    For a grid of aspect ratios a = k/n the derivative is sampled 64 times
    on y in [a/3, min(11a/12, r(a))] (the interval carrying the mass peak).
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
        for j in range(64):
            y = lo + (hi - lo) * (j + 0.5) / 64
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
