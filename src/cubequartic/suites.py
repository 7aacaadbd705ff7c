"""Named verification suites behind the command line's verify command.

Each suite is a list of report calls on seeded inputs, and every check
in it states a result of the paper: an inequality, an identity or an
exact value of mu(A), additive energy, Hamming spheres or the psi/phi
envelope.  Identities of the implementation itself (transform round
trips, fast routes against brute-force recounts, closed forms against
direct sums) are pinned by the tier-1 tests and are not re-run here.
The command line turns hard failures into a nonzero exit.  Suites stay
at smoke scale (seconds); the full-scale sweeps live in the acceptance
tests and in the report functions they call.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .additive import energy_ratio, hereditary_energy
from .asymptotics import (
    phi,
    phi_derivative_report,
    psi_concavity_check,
    psi_linear_bound_check,
    psi_value,
    r_identity_check,
)
from .core import CubeFunction, SpectrumVector, SupportSet, moments
from .quartic import OptimizerConfig, _gaussian, decompose_last
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
from .spheres import SphereParams, r_exact, t1

__all__ = [
    "suite_core",
    "suite_additive",
    "suite_sphere",
    "suite_asymptotics",
    "suite_bounds",
    "run_suites",
    "SUITE_NAMES",
]


# --- seeded inputs -----------------------------------------------------

def _random_support(rng: random.Random, n: int, max_size: int) -> SupportSet:
    size = rng.randint(1, max_size)
    return SupportSet.from_masks(n, rng.sample(range(1 << n), min(size, 1 << n)))


def _random_function(rng: random.Random, n: int) -> CubeFunction:
    return CubeFunction(n, _gaussian(rng, 1 << n))


def _random_sparse(rng: random.Random, n: int, size: int) -> CubeFunction:
    A = _random_support(rng, n, size)
    return SpectrumVector(A, _gaussian(rng, len(A))).to_function()


def _spectrum_indicator(A: SupportSet) -> CubeFunction:
    """The function whose Walsh coefficients are 1 on A and 0 elsewhere."""
    return SpectrumVector(A, np.ones(len(A))).to_function()


def _random_span(rng: random.Random, n: int) -> SupportSet:
    gens = [g for g in rng.sample(range(1 << n), 3) if g]
    return SupportSet.span(n, gens)


def _ball_subset(rng: random.Random, n: int, k: int) -> SupportSet:
    ball = SupportSet.ball(n, k).elements
    size = rng.randint(1, len(ball))
    return SupportSet.from_masks(n, rng.sample(ball, size))


def _ball_subsets(rng: random.Random) -> tuple[SupportSet, SupportSet, int, int]:
    """Random subsets of two balls of one dimension, with their radii."""
    n = rng.randint(4, 10)
    k1 = rng.randint(0, n // 2)
    k2 = rng.randint(0, n // 2)
    return _ball_subset(rng, n, k1), _ball_subset(rng, n, k2), k1, k2


class _Corpus(NamedTuple):
    """The suites' random inputs for one seed."""

    sparse: list[CubeFunction]
    restricted: list[tuple[CubeFunction, SupportSet]]
    ball_subsets: list[tuple[SupportSet, SupportSet, int, int]]
    tensor_bases: list[CubeFunction]
    spans: list[SupportSet]
    split: list[CubeFunction]


def _corpus(seed: int) -> _Corpus:
    # one stream, drawn in a fixed order, so a suite's inputs do not
    # depend on which other suites run; like the ascent's starts, it comes
    # from the stdlib generator and never loads numpy.random
    rng = random.Random(seed)
    return _Corpus(
        sparse=[_random_sparse(rng, 10, 30) for _ in range(3)],
        restricted=[(_random_sparse(rng, 10, 6), _random_support(rng, 10, 4)) for _ in range(5)],
        ball_subsets=[_ball_subsets(rng) for _ in range(10)],
        tensor_bases=[_random_function(rng, 4) for _ in range(2)],
        spans=[_random_span(rng, 10) for _ in range(2)],
        split=[_random_function(rng, rng.randint(2, 8)) for _ in range(10)],
    )


# --- the paper's identities that no report function states -------------

def _split_report(functions: list[CubeFunction]) -> BoundReport:
    split = BoundReport(subject="last-coordinate split, seeded corpus")
    for trial, f in enumerate(functions):
        pair = decompose_last(f)
        g0 = np.asarray(pair.g0.values)
        g1 = np.asarray(pair.g1.values)
        mixed = float(np.mean(g0**2 * g1**2))
        recomposed = float(np.mean(g0**4)) + 6 * mixed + float(np.mean(g1**4))
        split.checks.append(
            check_close(
                f"fourth moment splits (trial {trial}, n={f.n})",
                moments(f).fourth,
                recomposed,
                tol=1e-10,
                relative=True,
                provenance="half-cube expansion of the fourth power",
            )
        )
    return split


def _subspace_maximiser_report() -> BoundReport:
    subspace = SupportSet.span(4, [3, 12])
    result = hereditary_energy(subspace)
    report = BoundReport(subject="hereditary energy of a subspace")
    report.checks.append(
        Check(
            "subspace is its own maximiser",
            (result.best.elements, result.ratio),
            "==",
            (subspace.elements, Fraction(len(subspace))),
            result.best.elements == subspace.elements
            and result.ratio == Fraction(len(subspace)),
            provenance="group structure: every difference stays inside",
        )
    )
    return report


def _sphere_equivalence_report() -> BoundReport:
    report = BoundReport(subject="sphere energy ratio equals the chain total, n <= 10")
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            lhs = energy_ratio(SupportSet.sphere(n, k))
            rhs = r_exact(SphereParams(n, k))
            report.checks.append(
                Check(
                    f"two exact routes (n={n}, k={k})",
                    lhs,
                    "==",
                    rhs,
                    lhs == rhs,
                    provenance="quadruple counting vs closed-form chain",
                )
            )
    return report


def _peak_agreement_report(rng: random.Random) -> BoundReport:
    report = BoundReport(subject="curve value at the peak equals the envelope, sampled cells")
    worst = 0.0
    for _ in range(200):
        n = rng.randint(4, 512)
        k = rng.randint(1, n // 2)
        p = SphereParams(n, k)
        worst = max(worst, abs(phi(t1(p) / n, p) - psi_value(k / n)))
    report.checks.append(
        check_le(
            "peak value deviation",
            worst,
            1e-10,
            provenance="curve evaluated at the quadratic root against the envelope",
            detail="200 seeded cells, n <= 512",
        )
    )
    report.checks.append(
        check_close(
            "curve vanishes at zero",
            phi(0.0, SphereParams(24, 6)),
            0.0,
            tol=1e-12,
            provenance="all entropy terms cancel at the origin",
        )
    )
    return report


def _scan_report(cfg: OptimizerConfig) -> BoundReport:
    # conjecture_scan itself raises when a lower bound tops the exact ratio
    records = conjecture_scan(5, cfg)
    report = BoundReport(subject="sphere cell scan, n <= 5")
    for rec in records:
        report.checks.append(
            check_ge(
                f"upper gap sign (n={rec.n}, k={rec.k})",
                rec.upper_gap,
                -1e-8,
                provenance="upper bounds dominate the exact ratio",
            )
        )
    report.notes.append(
        f"{sum(1 for r in records if r.status == r.CONSISTENT)} of {len(records)} cells consistent"
    )
    return report


# --- suites ------------------------------------------------------------

def suite_core(seed: int = 0) -> list[BoundReport]:
    corpus = _corpus(seed)
    return [
        tensorization_check(CubeFunction(2, np.ones(4)), 2),
        tensorization_check(SpectrumVector.uniform(SupportSet.sphere(3, 1)).to_function(), 2),
        *(tensorization_check(f, m) for f, m in zip(corpus.tensor_bases, (2, 3))),
        _split_report(corpus.split),
    ]


def suite_additive(seed: int = 0) -> list[BoundReport]:
    corpus = _corpus(seed)
    zero_set = SupportSet.from_masks(3, [0])
    s61 = SupportSet.sphere(6, 1)
    return [
        _subspace_maximiser_report(),
        sumset_bound_report(zero_set, zero_set, 0, 0),
        sumset_bound_report(s61, s61, 1, 1),
        *(sumset_bound_report(*subsets) for subsets in corpus.ball_subsets),
        energy_lowerbound_step_check(_spectrum_indicator(SupportSet.span(4, [1, 2, 4])), 1.0),
        energy_lowerbound_step_check(_spectrum_indicator(SupportSet.from_masks(4, [5])), 1.0),
        *(energy_lowerbound_step_check(_spectrum_indicator(U), 4.0) for U in corpus.spans),
    ]


def suite_sphere(seed: int = 0) -> list[BoundReport]:
    return [
        _sphere_equivalence_report(),
        sphere_ratio_report(64, 66),
        psi_envelope_report(64),
    ]


def suite_asymptotics(seed: int = 0) -> list[BoundReport]:
    return [
        r_identity_check(),
        psi_concavity_check(),
        psi_linear_bound_check(),
        phi_derivative_report(),
        _peak_agreement_report(random.Random(seed)),
    ]


def suite_bounds(seed: int = 0, cfg: OptimizerConfig | None = None) -> list[BoundReport]:
    cfg = cfg or OptimizerConfig()
    corpus = _corpus(seed)
    subspace = _spectrum_indicator(SupportSet.span(8, [3, 12]))
    return [
        uncertainty_report(_spectrum_indicator(SupportSet.span(4, [3, 5]))),
        uncertainty_report(_spectrum_indicator(SupportSet.from_masks(4, [5]))),
        *(uncertainty_report(f) for f in corpus.sparse),
        restricted_mass_check(subspace, SupportSet.from_masks(8, [0]), 0.75),
        restricted_mass_check(subspace, SupportSet.from_masks(8, []), 0.75),
        *(restricted_mass_check(f, B, 0.25) for f, B in corpus.restricted),
        ball_bound_report(10, 2, cfg),
        ball_bound_report(12, 6, replace(cfg, starts=min(cfg.starts, 4))),
        ball_bound_report(6, 0, cfg),
        bracket_report(SupportSet.span(4, [1, 2, 4]), cfg),
        bracket_report(SupportSet.from_masks(3, [0]), cfg),
        bracket_report(SupportSet.sphere(5, 2), cfg),
        _scan_report(cfg),
    ]


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
