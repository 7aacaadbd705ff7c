"""Named verification suites behind the command line's verify command.

Each suite returns a list of BoundReports over a seeded corpus; the
command line turns hard failures into a nonzero exit.  Suites stay at
smoke scale (seconds); the full-scale sweeps live in the acceptance
tests and in the dedicated report functions they call.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .additive import (
    dyadic_level_sets,
    energy_ratio,
    hereditary_energy,
    pair_multiplicities,
    sumset,
)
from .asymptotics import (
    f_combine,
    phi,
    psi_concavity_check,
    psi_linear_bound_check,
    psi_value,
    phi_derivative_report,
    r_identity_check,
)
from .core import (
    CubeFunction,
    Spectrum,
    SpectrumVector,
    SupportSet,
    analyze,
    moments,
    synthesize,
    walsh_transform,
    walsh_transform_reference,
)
from .quartic import OptimizerConfig, decompose_last
from .reporting import BoundReport, Check, check_close, check_ge, check_le
from .reports import (
    ball_bound_report,
    bracket_report,
    conjecture_scan,
    energy_lowerbound_step_check,
    psi_envelope_report,
    restricted_mass_check,
    sphere_ratio_report,
    sumset_bound_report,
    tensorization_check,
    uncertainty_report,
)
from .spheres import (
    SphereParams,
    argmax_st,
    r_exact,
    ratio_st,
    s_t_exact,
    sphere_table,
    t1,
    t2,
)

__all__ = [
    "suite_core",
    "suite_additive",
    "suite_sphere",
    "suite_asymptotics",
    "suite_bounds",
    "run_suites",
    "SUITE_NAMES",
]


def _random_support(rng: np.random.Generator, n: int, max_size: int) -> SupportSet:
    size = int(rng.integers(1, max_size + 1))
    masks = rng.choice(1 << n, size=min(size, 1 << n), replace=False)
    return SupportSet.from_masks(n, [int(m) for m in masks])


def _random_function(rng: np.random.Generator, n: int) -> CubeFunction:
    return CubeFunction(n, rng.standard_normal(1 << n))


def _random_sparse(rng: np.random.Generator, n: int, size: int) -> CubeFunction:
    A = _random_support(rng, n, size)
    values = np.zeros(1 << n)
    values[A.masks_array()] = rng.standard_normal(len(A))
    return synthesize(Spectrum(n, values))


def suite_core(seed: int = 0) -> list[BoundReport]:
    rng = np.random.default_rng(seed)
    transforms = BoundReport(subject="transform identities, seeded corpus n <= 8")
    worst_round, worst_parseval, worst_reference, worst_moment = 0.0, 0.0, 0.0, 0.0
    trials = 0
    for n in range(1, 9):
        for _ in range(4):
            trials += 1
            f = _random_function(rng, n)
            spec = analyze(f)
            back = synthesize(spec)
            worst_round = max(worst_round, float(np.max(np.abs(back.values - f.values))))
            energy_time = float(np.mean(np.asarray(f.values) ** 2))
            energy_freq = float(np.sum(np.asarray(spec.coefficients) ** 2))
            worst_parseval = max(
                worst_parseval, abs(energy_time - energy_freq) / max(1.0, energy_time)
            )
            fast = walsh_transform(np.asarray(f.values, dtype=float).copy())
            ref = walsh_transform_reference(np.asarray(f.values))
            worst_reference = max(worst_reference, float(np.max(np.abs(fast - ref))))
            mom = moments(f)
            worst_moment = max(
                worst_moment,
                abs(mom.fourth - float(np.mean(np.asarray(f.values) ** 4))),
            )
    transforms.checks.append(
        check_le(
            "round trip deviation",
            worst_round,
            1e-10,
            provenance="transform pair must invert exactly up to rounding",
            detail=f"{trials} functions",
        )
    )
    transforms.checks.append(
        check_le(
            "energy identity deviation",
            worst_parseval,
            1e-10,
            provenance="quadratic mean equals the coefficient square sum",
        )
    )
    transforms.checks.append(
        check_le(
            "fast vs quadratic-time transform",
            worst_reference,
            1e-10,
            provenance="butterfly against the direct double sum",
        )
    )
    transforms.checks.append(
        check_le("moment accessor deviation", worst_moment, 1e-12, provenance="direct mean")
    )
    ints = rng.integers(-5, 6, size=16)
    exact = walsh_transform(ints.copy())
    transforms.checks.append(
        Check(
            "integer arrays transform exactly",
            str(exact.dtype),
            "==",
            str(ints.dtype),
            exact.dtype == ints.dtype
            and bool(np.array_equal(exact, walsh_transform_reference(ints))),
            provenance="integer butterfly stays in integers",
        )
    )

    vectors = BoundReport(subject="spectrum vectors")
    A = _random_support(rng, 6, 12)
    uniform = SpectrumVector.uniform(A)
    vectors.checks.append(
        check_close(
            "uniform vector norm",
            uniform.norm_squared(),
            1.0,
            tol=1e-12,
            provenance="1/sqrt(|A|) coordinates",
        )
    )
    raw = SpectrumVector(A, rng.standard_normal(len(A)))
    normalized = raw.normalize()
    vectors.checks.append(
        check_close(
            "normalize lands on the sphere",
            normalized.norm_squared(),
            1.0,
            tol=1e-12,
            provenance="explicit scaling",
        )
    )
    f = normalized.to_function()
    vectors.checks.append(
        check_close(
            "materialized norm matches",
            moments(f).second,
            1.0,
            tol=1e-10,
            provenance="energy identity through the dense route",
        )
    )
    return [transforms, vectors]


def _brute_energy(masks: tuple[int, ...]) -> int:
    counts: dict[int, int] = {}
    for a in masks:
        for b in masks:
            x = a ^ b
            counts[x] = counts.get(x, 0) + 1
    return sum(c * c for c in counts.values())


def suite_additive(seed: int = 0) -> list[BoundReport]:
    rng = np.random.default_rng(seed)

    energies = BoundReport(subject="pair multiplicities and energy, seeded corpus")
    for trial in range(20):
        n = int(rng.integers(2, 11))
        A = _random_support(rng, n, 18)
        table = pair_multiplicities(A)
        energy = table.energy()
        brute = _brute_energy(A.elements)
        energies.checks.append(
            Check(
                f"energy two ways (trial {trial}, n={n}, |A|={len(A)})",
                energy,
                "==",
                brute,
                energy == brute,
                provenance="transform-backed table vs quadratic-time dictionary",
            )
        )
        total = sum(table.counts.values())
        energies.checks.append(
            Check(
                f"table totals |A|^2 (trial {trial})",
                total,
                "==",
                len(A) ** 2,
                total == len(A) ** 2,
                provenance="every ordered pair lands in exactly one difference class",
            )
        )
        direct_m = 1 + max(
            (c for x, c in table.counts.items() if x != 0), default=0
        )
        mult = table.m_bound()
        energies.checks.append(
            Check(
                f"multiplicity bound (trial {trial})",
                mult,
                "==",
                direct_m,
                mult == direct_m,
                provenance="definition unrolled",
            )
        )
    energies.notes.append(
        "pair tables are cross-checked against the convolution route inside the call"
    )

    sums = BoundReport(subject="sumsets, seeded corpus")
    for trial in range(15):
        n = int(rng.integers(2, 11))
        B = _random_support(rng, n, 12)
        C = _random_support(rng, n, 12)
        S = sumset(B, C)
        brute = sorted({b ^ c for b in B for c in C})
        sums.checks.append(
            Check(
                f"sumset matches brute force (trial {trial})",
                len(S),
                "==",
                len(brute),
                list(S.elements) == brute,
                provenance="XOR double loop",
            )
        )
        sums.checks.append(
            check_le(
                f"sumset size cap (trial {trial})",
                len(S),
                len(B) * len(C),
                provenance="image of the pair map",
            )
        )
    zero = BoundReport(subject="sumsets of a set with itself")
    B = _random_support(rng, 8, 20)
    zero.checks.append(
        Check(
            "self-sumset contains zero",
            0,
            "in",
            "B+B",
            0 in sumset(B, B),
            provenance="diagonal pairs",
        )
    )

    hered = BoundReport(subject="hereditary energy, exhaustive vs heuristic")
    for trial in range(8):
        n = int(rng.integers(3, 9))
        A = _random_support(rng, n, 14)
        exact = hereditary_energy(A, exact_limit=20)
        heur = hereditary_energy(A, exact_limit=0)
        hered.checks.append(
            check_le(
                f"heuristic below the exhaustive maximum (trial {trial})",
                heur.ratio,
                exact.ratio,
                provenance="exhaustive subset walk is ground truth",
            )
        )
        hered.checks.append(
            check_ge(
                f"heuristic at least the whole set (trial {trial})",
                heur.ratio,
                energy_ratio(A),
                provenance="whole set is always a candidate",
            )
        )
    subspace = SupportSet.span(4, [3, 12])
    sub_result = hereditary_energy(subspace)
    hered.checks.append(
        Check(
            "subspace is its own maximiser",
            (sub_result.best.elements, sub_result.ratio),
            "==",
            (subspace.elements, Fraction(len(subspace))),
            sub_result.best.elements == subspace.elements
            and sub_result.ratio == Fraction(len(subspace)),
            provenance="group structure: every difference stays inside",
        )
    )

    levels = BoundReport(subject="dyadic level sets, seeded corpus")
    for trial in range(10):
        n = int(rng.integers(2, 9))
        A = _random_support(rng, n, 16)
        y = SpectrumVector(A, np.abs(rng.standard_normal(len(A)))).normalize()
        dec = dyadic_level_sets(y)
        seen: list[int] = []
        ok_bounds = True
        for i, level in dec.levels:
            seen.extend(level.elements)
            for mask in level:
                value = float(y.coords[A.elements.index(mask)])
                if not 2.0**-i < value <= 2.0 ** -(i - 1):
                    ok_bounds = False
        seen.extend(dec.tail.elements)
        support = [m for m, v in zip(A.elements, y.coords) if v != 0.0]
        levels.checks.append(
            Check(
                f"slices partition the support (trial {trial})",
                len(seen),
                "==",
                len(support),
                sorted(seen) == sorted(support),
                provenance="each coordinate has exactly one dyadic window",
            )
        )
        levels.checks.append(
            Check(
                f"slice membership bounds (trial {trial})",
                ok_bounds,
                "==",
                True,
                ok_bounds,
                provenance="window (2^-i, 2^-(i-1)] unrolled",
            )
        )
        expected_cutoff = math.ceil(math.log2(len(A)) / 2) + 2 if len(A) > 1 else 2
        levels.checks.append(
            Check(
                f"cutoff depth (trial {trial})",
                dec.cutoff,
                "==",
                expected_cutoff,
                dec.cutoff == expected_cutoff,
                provenance="half-log depth plus two",
            )
        )
    return [energies, sums, zero, hered, levels]


def suite_sphere(seed: int = 0) -> list[BoundReport]:
    rng = np.random.default_rng(seed)

    closed = BoundReport(subject="sphere mass closed forms, seeded cells")
    for trial in range(40):
        n = int(rng.integers(2, 41))
        k = int(rng.integers(0, n + 1))
        p = SphereParams(n, k)
        masses = [s_t_exact(p, t) for t in range(0, min(k, n - k) + 1)]
        total = sum(masses, Fraction(0))
        chain_total = r_exact(p)
        closed.checks.append(
            Check(
                f"chain total equals the sum (trial {trial}, n={n}, k={k})",
                chain_total,
                "==",
                total,
                chain_total == total,
                provenance="running chain vs direct binomial masses",
            )
        )
        if 0 < k <= n - 1:
            t = int(rng.integers(0, k))
            mass = s_t_exact(p, t)
            if mass != 0:
                step = ratio_st(p, t)
                direct = s_t_exact(p, t + 1) / mass
                closed.checks.append(
                    Check(
                        f"step ratio closed form (trial {trial}, t={t})",
                        step,
                        "==",
                        direct,
                        step == direct,
                        provenance="telescoped binomials vs direct quotient",
                    )
                )

    peaks = BoundReport(subject="peak quadratic and argmax")
    for trial in range(25):
        n = int(rng.integers(2, 200))
        k = int(rng.integers(0, n // 2 + 1))
        p = SphereParams(n, k)
        for root in (t1(p), t2(p)):
            residual = 4 * root**2 - 3 * n * root + 2 * k * (n - k)
            peaks.checks.append(
                check_close(
                    f"quadratic root residual (trial {trial}, n={n}, k={k})",
                    residual / max(1.0, n * n),
                    0.0,
                    tol=1e-10,
                    provenance="roots plugged back into 4t^2 - 3nt + 2k(n-k)",
                )
            )
        if 1 <= k <= n - 1:
            masses = [s_t_exact(p, t) for t in range(0, k + 1)]
            best = max(masses)
            first = masses.index(best)
            peaks.checks.append(
                Check(
                    f"argmax is the first maximiser (trial {trial})",
                    argmax_st(p),
                    "==",
                    first,
                    argmax_st(p) == first,
                    provenance="full scan with smallest-index tie rule",
                )
            )

    equivalence = BoundReport(subject="sphere energy ratio equals the chain total, n <= 10")
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            A = SupportSet.sphere(n, k)
            lhs = energy_ratio(A)
            rhs = r_exact(SphereParams(n, k))
            equivalence.checks.append(
                Check(
                    f"two exact routes (n={n}, k={k})",
                    lhs,
                    "==",
                    rhs,
                    lhs == rhs,
                    provenance="quadruple counting vs closed-form chain",
                )
            )

    tables = BoundReport(subject="sphere table consistency")
    for n, k in ((4, 2), (9, 3), (12, 4), (16, 8)):
        p = SphereParams(n, k)
        rows = sphere_table(p)
        running = Fraction(0)
        ok = True
        for t, row in enumerate(rows):
            running += row.mass
            if row.cumulative != running or row.t != t:
                ok = False
            if t and rows[t - 1].mass != 0:
                if row.ratio_to_prev is None or rows[t - 1].mass * row.ratio_to_prev != row.mass:
                    ok = False
        tables.checks.append(
            Check(
                f"rows telescope (n={n}, k={k})",
                ok,
                "==",
                True,
                ok,
                provenance="cumulative and step columns recomputed",
            )
        )
        tables.checks.append(
            Check(
                f"footer total (n={n}, k={k})",
                rows[-1].cumulative,
                "==",
                r_exact(p),
                rows[-1].cumulative == r_exact(p),
                provenance="last cumulative equals the total",
            )
        )

    return [
        closed,
        peaks,
        equivalence,
        tables,
        sphere_ratio_report(64, 66),
        psi_envelope_report(64),
    ]


def suite_asymptotics(seed: int = 0) -> list[BoundReport]:
    rng = np.random.default_rng(seed)
    agree = BoundReport(subject="curve value at the peak equals the envelope, sampled cells")
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 513))
        k = int(rng.integers(1, n // 2 + 1))
        p = SphereParams(n, k)
        gap = abs(phi(t1(p) / n, p) - psi_value(k / n))
        worst = max(worst, gap)
    agree.checks.append(
        check_le(
            "peak value deviation",
            worst,
            1e-10,
            provenance="curve evaluated at the quadratic root against the envelope",
            detail="200 seeded cells, n <= 512",
        )
    )
    agree.checks.append(
        check_close(
            "curve vanishes at zero",
            phi(0.0, SphereParams(24, 6)),
            0.0,
            tol=1e-12,
            provenance="all entropy terms cancel at the origin",
        )
    )

    combine = BoundReport(subject="two-point combine rule")
    combine.checks.append(
        check_close("equal inputs double", f_combine(1.0, 1.0), 2.0, tol=1e-12, provenance="symmetric point")
    )
    combine.checks.append(
        check_close("scaling", f_combine(2.0, 2.0), 4.0, tol=1e-12, provenance="1-homogeneous")
    )
    combine.checks.append(
        check_close(
            "boundary collapses to the larger input",
            f_combine(9.0, 1.0),
            9.0,
            tol=1e-12,
            provenance="closed cone edge",
        )
    )
    sym_ok, mono_ok, hom_ok = True, True, True
    for _ in range(200):
        x = float(rng.uniform(0.5, 20.0))
        ratio = float(rng.uniform(0.15, 6.0))
        y = x * ratio
        if not 1 / 9 < ratio < 9:
            continue
        lhs = f_combine(x, y)
        if abs(lhs - f_combine(y, x)) > 1e-12 * max(1.0, lhs):
            sym_ok = False
        lam = float(rng.uniform(0.2, 5.0))
        if abs(f_combine(lam * x, lam * y) - lam * lhs) > 1e-9 * max(1.0, lam * lhs):
            hom_ok = False
        bump = 1.0 + 1e-6
        if y * bump < 9 * x and f_combine(x, y * bump) < lhs - 1e-12:
            mono_ok = False
    combine.checks.append(
        Check("symmetry on samples", sym_ok, "==", True, sym_ok, provenance="x and y interchangeable")
    )
    combine.checks.append(
        Check("homogeneity on samples", hom_ok, "==", True, hom_ok, provenance="degree one scaling")
    )
    combine.checks.append(
        Check(
            "monotone in each argument on samples",
            mono_ok,
            "==",
            True,
            mono_ok,
            provenance="partial derivative sign inside the cone",
        )
    )

    return [
        r_identity_check(),
        psi_concavity_check(),
        psi_linear_bound_check(),
        phi_derivative_report(),
        agree,
        combine,
    ]


def suite_bounds(seed: int = 0, cfg: OptimizerConfig | None = None) -> list[BoundReport]:
    cfg = cfg or OptimizerConfig()
    rng = np.random.default_rng(seed)
    reports: list[BoundReport] = []

    # uncertainty: subspace tight case, single character, sparse corpus
    V = SupportSet.span(4, [3, 5])
    spec_vals = np.zeros(16)
    spec_vals[V.masks_array()] = 1.0
    reports.append(uncertainty_report(synthesize(Spectrum(4, spec_vals))))
    char = np.zeros(16)
    char[5] = 1.0
    reports.append(uncertainty_report(synthesize(Spectrum(4, char))))
    for _ in range(3):
        reports.append(uncertainty_report(_random_sparse(rng, 10, 30)))

    # restricted mass: the worked subspace case plus admissible seeded triples
    W = SupportSet.span(8, [3, 12])
    wv = np.zeros(256)
    wv[W.masks_array()] = 1.0
    fw = synthesize(Spectrum(8, wv))
    reports.append(restricted_mass_check(fw, SupportSet.from_masks(8, [0]), 0.75))
    reports.append(restricted_mass_check(fw, SupportSet.from_masks(8, []), 0.75))
    for _ in range(5):
        f = _random_sparse(rng, 10, 6)
        B = _random_support(rng, 10, 4)
        reports.append(restricted_mass_check(f, B, 0.25))

    # sumsets: worked examples plus seeded ball subsets
    zero_set = SupportSet.from_masks(3, [0])
    reports.append(sumset_bound_report(zero_set, zero_set, 0, 0))
    s61 = SupportSet.sphere(6, 1)
    reports.append(sumset_bound_report(s61, s61, 1, 1))
    for _ in range(10):
        n = int(rng.integers(4, 11))
        k1 = int(rng.integers(0, n // 2 + 1))
        k2 = int(rng.integers(0, n // 2 + 1))
        ball1 = SupportSet.ball(n, k1).elements
        ball2 = SupportSet.ball(n, k2).elements
        B = SupportSet(
            n, tuple(sorted(rng.choice(ball1, size=int(rng.integers(1, len(ball1) + 1)), replace=False).tolist()))
        )
        C = SupportSet(
            n, tuple(sorted(rng.choice(ball2, size=int(rng.integers(1, len(ball2) + 1)), replace=False).tolist()))
        )
        reports.append(sumset_bound_report(B, C, k1, k2))

    # balls: interior strictness, endpoint equality, trivial radius
    reports.append(ball_bound_report(10, 2, cfg))
    trimmed = OptimizerConfig(
        starts=min(cfg.starts, 4), max_iters=cfg.max_iters, tol=cfg.tol, seed=cfg.seed
    )
    reports.append(ball_bound_report(12, 6, trimmed))
    reports.append(ball_bound_report(6, 0, cfg))

    # tensor powers
    reports.append(tensorization_check(CubeFunction(2, np.ones(4)), 2))
    u31 = SpectrumVector.uniform(SupportSet.sphere(3, 1)).to_function()
    reports.append(tensorization_check(u31, 2))
    for m in (2, 3):
        reports.append(tensorization_check(_random_function(rng, 4), m))

    # brackets
    reports.append(bracket_report(SupportSet.span(4, [1, 2, 4]), cfg))
    reports.append(bracket_report(SupportSet.from_masks(3, [0]), cfg))
    reports.append(bracket_report(SupportSet.sphere(5, 2), cfg))

    # compressed-spectrum energy step
    sv = np.zeros(16)
    sv[SupportSet.span(4, [1, 2, 4]).masks_array()] = 1.0
    reports.append(energy_lowerbound_step_check(synthesize(Spectrum(4, sv)), 1.0))
    reports.append(energy_lowerbound_step_check(synthesize(Spectrum(4, char)), 1.0))
    for _ in range(2):
        n = 10
        gens = [int(g) for g in rng.choice(1 << n, size=3, replace=False) if g]
        U = SupportSet.span(n, gens)
        uv = np.zeros(1 << n)
        uv[U.masks_array()] = 1.0
        reports.append(energy_lowerbound_step_check(synthesize(Spectrum(n, uv)), 4.0))

    # scan smoke: every gap in bracket, statuses recorded
    records = conjecture_scan(5, cfg)
    scan_report = BoundReport(subject="sphere cell scan, n <= 5")
    for rec in records:
        scan_report.checks.append(
            check_ge(
                f"gap bracket (n={rec.n}, k={rec.k})",
                rec.gap,
                -1e-8,
                provenance="uniform start pins the ascent at the energy ratio",
                detail=rec.status,
            )
        )
        scan_report.checks.append(
            check_ge(
                f"upper gap sign (n={rec.n}, k={rec.k})",
                rec.upper_gap,
                -1e-8,
                provenance="upper bounds dominate the exact ratio",
            )
        )
    scan_report.notes.append(
        f"{sum(1 for r in records if r.status == r.CONSISTENT)} of {len(records)} cells consistent"
    )
    reports.append(scan_report)

    # split machinery on seeded functions
    split = BoundReport(subject="last-coordinate split, seeded corpus")
    for trial in range(10):
        n = int(rng.integers(2, 9))
        f = _random_function(rng, n)
        pair = decompose_last(f)
        mom = moments(f)
        g0 = np.asarray(pair.g0.values)
        g1 = np.asarray(pair.g1.values)
        mixed = float(np.mean(g0**2 * g1**2))
        recomposed = float(np.mean(g0**4)) + 6 * mixed + float(np.mean(g1**4))
        split.checks.append(
            check_close(
                f"fourth moment splits (trial {trial}, n={n})",
                mom.fourth,
                recomposed,
                tol=1e-10,
                relative=True,
                provenance="half-cube expansion of the fourth power",
            )
        )
    reports.append(split)
    return reports


# name -> suite in canonical order; only the bounds suite runs the ascent.
# Each suite is looked up by name at call time, so a wrapped module
# attribute (a tracer or a test double) is the one that runs.
_SUITES = {
    "core": lambda seed, cfg: suite_core(seed),
    "additive": lambda seed, cfg: suite_additive(seed),
    "sphere": lambda seed, cfg: suite_sphere(seed),
    "asymptotics": lambda seed, cfg: suite_asymptotics(seed),
    "bounds": lambda seed, cfg: suite_bounds(seed, cfg),
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(
    names: list[str], seed: int = 0, cfg: OptimizerConfig | None = None
) -> list[tuple[str, list[BoundReport]]]:
    """Run the requested suites in canonical order; 'all' expands."""
    wanted: list[str] = []
    for name in names:
        if name == "all":
            wanted.extend(SUITE_NAMES)
        elif name in SUITE_NAMES:
            wanted.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}")
    return [(name, _SUITES[name](seed, cfg)) for name in wanted]
