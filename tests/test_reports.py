"""Cross-checked inequality reports and the named verification suites."""

import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

from cubequartic.additive import additive_energy, energy_ratio
from cubequartic.core import CubeFunction, SpectrumVector, SupportSet, synthesize
from cubequartic.errors import DimensionMismatchError, ResourceLimitError
from cubequartic.quartic import OptimizerConfig, _climb, mu_lower
from cubequartic.reports import (
    ConjectureRecord,
    _k_window,
    _log2_r,
    _radical_ge,
    _radical_le,
    _t_at_least,
    _t_at_most,
    ball_bound_report,
    bracket_report,
    conjecture_scan,
    energy_lowerbound_step_check,
    log2_fraction,
    psi_envelope_report,
    restricted_mass_check,
    sphere_ratio_report,
    sumset_bound_report,
    tensorization_check,
    uncertainty_report,
)
from cubequartic.spheres import SphereParams, r_exact, ratio_st, t1
from cubequartic.suites import SUITE_NAMES, run_suites

FAST = OptimizerConfig(starts=6, max_iters=1500, seed=3)


def subspace_indicator(n, generators):
    return SupportSet.span(n, generators).indicator()


class TestLogHelper:
    def test_powers_of_two_are_exact(self):
        assert log2_fraction(Fraction(1, 8)) == -3.0
        assert log2_fraction(Fraction(2**40)) == 40.0

    def test_matches_float_log(self):
        q = Fraction(355, 113)
        assert math.isclose(log2_fraction(q), math.log2(355 / 113), rel_tol=1e-12)

    def test_huge_values_stay_finite(self):
        q = Fraction(3**2000, 2**1500)
        expected = 2000 * math.log2(3) - 1500
        assert math.isclose(log2_fraction(q), expected, rel_tol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log2_fraction(Fraction(0))

    def test_envelope_log_is_the_fraction_log(self):
        # psi_envelope_report reads log2 r(n, k) from the chain numerators
        for n in range(1, 129):
            for k in range(n // 2 + 1):
                p = SphereParams(n, k)
                assert _log2_r(p) == log2_fraction(r_exact(p)), (n, k)


def fraction_le(D, q):
    """sqrt(D) <= q on a Fraction: the oracle of ``_radical_le``."""
    return q >= 0 and D * q.denominator**2 <= q.numerator**2


def fraction_ge(D, q):
    """sqrt(D) >= q on a Fraction: the oracle of ``_radical_ge``."""
    return q <= 0 or D * q.denominator**2 >= q.numerator**2


class TestRadicalHelpers:
    def test_perfect_square_boundary(self):
        assert _radical_le(16, 4, 1)
        assert _radical_ge(16, 4, 1)
        assert not _radical_le(17, 4, 1)
        assert _radical_ge(17, 4, 1)
        # an unreduced pair decides as its reduced form
        assert _radical_le(16, 12, 3) and not _radical_le(17, 12, 3)

    def test_signs(self):
        assert not _radical_le(5, -1, 1)
        assert _radical_ge(5, -1, 1)
        assert _radical_ge(0, 0, 1)

    def test_t_comparisons_match_floats(self):
        # far from the irrational boundary the float answer is reliable
        for n, k, t in [(64, 20, 5), (64, 20, 14), (100, 30, 9), (100, 30, 21)]:
            D = n * n + 8 * (n - 2 * k) ** 2
            t1_float = (3.0 * n - math.sqrt(D)) / 8.0
            assert _t_at_most(D, n, 3, 1, t) == (t <= t1_float - 3.0)
            assert _t_at_least(D, n, 3, 1, t) == (t >= t1_float + 3.0)

    def test_fraction_forms_agree_on_small_and_nonpositive_q(self):
        for D in range(0, 40):
            for num in range(-9, 10):
                for den in (1, 2, 3, 6):
                    q = Fraction(num, den)
                    assert _radical_le(D, num, den) == fraction_le(D, q), (D, num, den)
                    assert _radical_ge(D, num, den) == fraction_ge(D, q), (D, num, den)

    def test_fraction_forms_agree_on_the_report_loops(self):
        """Every (n, k, t) that sphere_ratio_report(4, 128) visits, in both
        loops, decided by the integer helpers and by the Fraction oracle."""
        visited = nonpositive = 0
        cover = 2**32
        for n in range(4, 129):
            log_hi = math.ceil(math.log2(n) * cover)
            for k in _k_window(n):
                p = SphereParams(n, k)
                D = n * n + 8 * (n - 2 * k) ** 2
                t = 1
                while fraction_le(D, 3 * n - 8 * (t + Fraction(3))):
                    assert _t_at_most(D, n, 3, 1, t)
                    ratio = ratio_st(p, t)
                    q = 3 * n - 8 * t * ratio
                    a, b = ratio.as_integer_ratio()
                    assert _radical_ge(D, 3 * n * b - 8 * t * a, b) == fraction_ge(D, q)
                    nonpositive += q <= 0
                    visited += 1
                    t += 1
                assert not _t_at_most(D, n, 3, 1, t)
                for t in range(max(1, math.floor(t1(p) + math.log2(n)) - 1), k):
                    at_least = fraction_ge(D, 3 * n - 8 * (t - Fraction(log_hi, cover)))
                    assert _t_at_least(D, n, log_hi, cover, t) == at_least
                    ratio = ratio_st(p, t)
                    q = 3 * n - 8 * t * ratio
                    a, b = ratio.as_integer_ratio()
                    assert _radical_le(D, 3 * n * b - 8 * t * a, b) == fraction_le(D, q)
                    nonpositive += q <= 0
                    visited += 1
        assert visited > 10_000 and nonpositive > 0


class TestUncertainty:
    def test_subspace_attains_equality(self):
        f = subspace_indicator(6, [3, 12, 48])
        report = uncertainty_report(f)
        assert report.overall
        product = next(c for c in report.checks if c.name == "support product")
        # indicator of a subspace: |supp f| * |supp fhat| = 2^n exactly
        assert product.lhs == 64

    def test_random_functions(self, rng):
        for _ in range(5):
            f = CubeFunction(6, rng.standard_normal(64))
            assert uncertainty_report(f).overall

    def test_sparse_spectrum(self, rng):
        A = SupportSet.sphere(7, 2)
        y = SpectrumVector(A, rng.standard_normal(len(A)))
        assert uncertainty_report(y.to_function()).overall

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            uncertainty_report(CubeFunction(3, np.zeros(8)))


class TestRestrictedMass:
    def test_subspace_case(self):
        # a 4-dim subspace of n=6: the spectrum sits on the 4-element
        # dual, so the gate passes for a singleton B at delta = 1/2
        V = SupportSet.span(6, [3, 12, 16, 32])
        f = V.indicator()
        B = SupportSet.from_masks(6, [0])
        report = restricted_mass_check(f, B, 0.5)
        assert report.overall
        hard = [c for c in report.checks if c.hard]
        assert hard, "gate unexpectedly inapplicable"

    def test_gate_failure_is_reported_not_failed(self, rng):
        f = CubeFunction(4, rng.standard_normal(16))
        B = SupportSet.from_masks(4, range(16))
        report = restricted_mass_check(f, B, 0.9)
        assert report.overall
        assert any(not c.hard for c in report.checks)

    def test_delta_domain(self, rng):
        f = CubeFunction(3, rng.standard_normal(8))
        B = SupportSet.from_masks(3, [0])
        for delta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                restricted_mass_check(f, B, delta)


class TestSumsetBound:
    def test_weight_one_spheres_frozen(self):
        S = SupportSet.sphere(6, 1)
        report = sumset_bound_report(S, S, 1, 1)
        assert report.overall
        exact = next(c for c in report.checks if c.relation == ">=" and isinstance(c.lhs, int))
        assert exact.lhs == 16 * 16 * 96 * 96  # |B+C|^2 E2(B) E2(C)
        assert exact.rhs == 6**4 * 6**4

    def test_radius_must_cover_the_sets(self):
        S = SupportSet.sphere(6, 2)
        with pytest.raises(ValueError):
            sumset_bound_report(S, S, 1, 2)

    def test_random_ball_subsets(self, rng):
        for _ in range(5):
            n = 8
            B = SupportSet.from_masks(
                n, [int(m) for m in rng.choice(list(SupportSet.ball(n, 2)), 6, replace=False)]
            )
            C = SupportSet.from_masks(
                n, [int(m) for m in rng.choice(list(SupportSet.ball(n, 3)), 5, replace=False)]
            )
            assert sumset_bound_report(B, C, 2, 3).overall

    def test_entropy_term_skipped_on_the_upper_half(self):
        S = SupportSet.sphere(4, 3)
        report = sumset_bound_report(S, S, 3, 3)
        assert report.overall
        assert len(report.checks) == 1
        assert any("entropy envelope" in note for note in report.notes)

    def test_cube_of_dimension_zero(self):
        # the envelope exponent of the cube of dimension 0 is 0
        Z = SupportSet.from_masks(0, [0])
        report = sumset_bound_report(Z, Z, 0, 0)
        assert report.overall
        assert [c.rhs for c in report.checks] == [1, 1.0]


class TestBallBound:
    def test_interior_cell(self):
        report = ball_bound_report(10, 2, FAST)
        assert report.overall

    def test_endpoint_equality(self):
        report = ball_bound_report(12, 6, FAST)
        assert report.overall

    def test_trivial_ball(self):
        assert ball_bound_report(6, 0, FAST).overall

    def test_domain(self):
        with pytest.raises(ValueError):
            ball_bound_report(8, 5, FAST)
        with pytest.raises(ValueError):
            ball_bound_report(8, -1, FAST)

    def test_cube_of_dimension_zero_is_refused(self):
        # the sphere ratios it compares need n >= 1
        with pytest.raises(ValueError, match="n >= 1"):
            ball_bound_report(0, 0, FAST)


class TestTensorization:
    def test_uniform_sphere_square(self):
        y = SpectrumVector.uniform(SupportSet.sphere(3, 1))
        report = tensorization_check(y.to_function(), 2)
        assert report.overall

    def test_constant_function_cube(self):
        f = CubeFunction(2, np.ones(4))
        assert tensorization_check(f, 3).overall

    def test_seeded_functions(self, rng):
        for m in (2, 3):
            f = CubeFunction(4, rng.standard_normal(16))
            assert tensorization_check(f, m).overall

    def test_m_domain(self, rng):
        f = CubeFunction(3, rng.standard_normal(8))
        for m in (1, 4):
            with pytest.raises(ValueError):
                tensorization_check(f, m)

    def test_dimension_cap(self, rng):
        f = CubeFunction(10, rng.standard_normal(1024))
        with pytest.raises(ResourceLimitError):
            tensorization_check(f, 3)


class TestBracket:
    def test_subspace(self):
        V = SupportSet.span(6, [3, 12, 48])
        report = bracket_report(V, FAST)
        assert report.overall

    def test_singleton(self):
        assert bracket_report(SupportSet.from_masks(4, [0]), FAST).overall

    def test_small_sphere(self):
        assert bracket_report(SupportSet.sphere(5, 2), FAST).overall

    def test_random_sets(self, rng):
        from conftest import random_support

        for _ in range(4):
            A = random_support(rng, 6, 14)
            assert bracket_report(A, FAST).overall

    def test_size_cap(self):
        with pytest.raises(ResourceLimitError):
            bracket_report(SupportSet.ball(7, 4), FAST)


class TestConjectureScan:
    def test_cell_count_and_statuses(self):
        records = conjecture_scan(6, FAST)
        assert len(records) == 9
        assert [(r.n, r.k) for r in records] == [
            (2, 1), (3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (6, 3),
        ]
        for rec in records:
            assert rec.status == ConjectureRecord.CONSISTENT
            assert rec.gap >= -1e-8
            assert rec.upper_gap >= -1e-8
            assert rec.certificate is None
            assert rec.energy_ratio == energy_ratio(SupportSet.sphere(rec.n, rec.k))

    @staticmethod
    def scan_with(monkeypatch, climb):
        """conjecture_scan(8) with 6 starts and seed 0, its cells climbed by
        ``climb``; the records and the estimates ``climb`` returned."""
        import cubequartic.reports

        estimates = []

        def recorded(*args):
            estimates.extend(climb(*args))
            return estimates

        monkeypatch.setattr(cubequartic.reports, "_climb", recorded)
        return conjecture_scan(8, OptimizerConfig(starts=6, seed=0)), estimates

    def test_pooled_cells_match_solo_climbs(self, monkeypatch):
        def solo(problems, cfg, dense_cap):
            return [mu_lower(A, cfg, dense_cap=dense_cap, extra_starts=extra) for A, extra in problems]

        pooled, pooled_estimates = self.scan_with(monkeypatch, _climb)
        alone, alone_estimates = self.scan_with(monkeypatch, solo)
        assert len(pooled_estimates) == len(alone_estimates) == 16
        for rec, solo_rec, est, solo_est in zip(pooled, alone, pooled_estimates, alone_estimates):
            cell = (rec.n, rec.k)
            assert math.isclose(rec.mu_est, solo_rec.mu_est, rel_tol=1e-12), cell
            assert rec.status == solo_rec.status, cell
            assert [run.kind for run in est.runs] == [run.kind for run in solo_est.runs], cell
            assert est.starts_used == solo_est.starts_used, cell

    def test_dense_cells_share_stacks(self, monkeypatch):
        import cubequartic.quartic

        # one call per cell and phase made 30 calls; now the 6 sparse cells
        # S(4..8,1) and S(8,2) climb in 2 stacks per phase, the 9 dense
        # cells in 2 stacks per phase, and S(2,1) is a coset and does not
        # climb
        calls = []
        ascend = cubequartic.quartic._ascend

        def counted(kernel, starts, *args):
            calls.append((type(kernel).__name__, len(starts)))
            return ascend(kernel, starts, *args)

        monkeypatch.setattr(cubequartic.quartic, "_ascend", counted)
        conjecture_scan(8, OptimizerConfig(starts=6, seed=0))
        assert len(calls) == 8
        assert [kind for kind, _ in calls].count("_SparseKernel") == 4
        # 7 starts per cell: ranks 2-4 (3 cells) and 5-7 (6 cells); S(6,2)
        # of rank 5 opens a stack, as padding the 21 rows of ranks 2-4 to
        # width 2^5 would take more entries than the 28 rows fill
        dense = [rows for kind, rows in calls if kind == "_DenseKernel"]
        assert dense[:2] == [21, 42]
        # S(4..8,1) (|A+A| 7 to 29) and S(8,2) (|A+A| 99), which padding
        # the 35 rows of radius 1 to width 99 keeps apart
        sparse = [rows for kind, rows in calls if kind == "_SparseKernel"]
        assert sparse[:2] == [35, 7]


class TestEnergyStep:
    def test_subspace_function(self):
        f = subspace_indicator(6, [3, 12])
        report = energy_lowerbound_step_check(f, 4.0)
        assert report.overall

    def test_character(self):
        values = [(-1.0) ** bin(5 & x).count("1") for x in range(16)]
        report = energy_lowerbound_step_check(CubeFunction(4, values), 2.0)
        assert report.overall

    def test_gate_miss_is_soft(self, rng):
        f = CubeFunction(5, rng.standard_normal(32))
        report = energy_lowerbound_step_check(f, 0.01)
        assert report.overall
        assert any(not c.hard for c in report.checks)

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            energy_lowerbound_step_check(CubeFunction(3, np.zeros(8)), 2.0)


class TestScaleFree:
    """The statements are scale-free, and so is every report's support cut."""

    REPORTS = {
        "uncertainty": uncertainty_report,
        "restricted mass": lambda f: restricted_mass_check(f, SupportSet.from_masks(4, [0]), 0.25),
        "energy step": lambda f: energy_lowerbound_step_check(f, 8.0),
        "tensorization": lambda f: tensorization_check(f, 2),
    }

    @staticmethod
    def outline(report):
        return report.subject, report.notes, [(c.name, c.passed, c.hard) for c in report.checks]

    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_same_verdicts_on_a_tiny_multiple(self, name):
        # the spectrum of f is 1 on S(4,2); that of the multiple is 1e-11
        f = synthesize(SupportSet.sphere(4, 2).indicator())
        tiny = CubeFunction(4, 1e-11 * f.values)
        report = self.REPORTS[name](f)
        assert report.overall and any(c.hard for c in report.checks), report
        assert self.outline(self.REPORTS[name](tiny)) == self.outline(report)


class TestAsymptoticReports:
    def test_sphere_ratio_window(self):
        report = sphere_ratio_report(64, 70)
        assert report.overall
        assert report.checks

    def test_psi_envelope(self):
        assert psi_envelope_report(64).overall

    def test_psi_envelope_reverse_direction_starts_at_k_8(self):
        # k <= n/2 reaches 8 first at n = 16
        below, at = psi_envelope_report(15), psi_envelope_report(16)
        assert below.overall and at.overall
        assert [c.name for c in below.checks] == ["exact ratio below the envelope"]
        assert below.notes == ["no cells with k >= 8; reverse direction not exercised"]
        assert [c.name for c in at.checks] == [
            "exact ratio below the envelope",
            "envelope within 8 k^1.5 of the exact ratio",
        ]
        assert at.notes == []
        assert "(n=16, k=8)" in at.checks[1].detail

    def test_argument_order(self):
        with pytest.raises(ValueError):
            sphere_ratio_report(70, 64)


class TestSuites:
    def test_canonical_names(self):
        assert SUITE_NAMES == ("core", "additive", "sphere", "asymptotics", "bounds")

    def test_all_expands_in_order(self):
        results = run_suites(["all"], seed=11, cfg=FAST)
        assert [name for name, _ in results] == list(SUITE_NAMES)
        for name, reports in results:
            for report in reports:
                assert report.overall, f"{name}: {report.subject}: {report.failed_checks()}"

    def test_single_suite(self):
        results = run_suites(["additive"], seed=5)
        assert len(results) == 1 and results[0][0] == "additive"
        assert all(r.overall for r in results[0][1])

    def test_every_report_runs_in_exactly_one_suite(self, monkeypatch):
        import cubequartic.reports
        import cubequartic.suites

        reports = [
            name
            for name in cubequartic.reports.__all__
            if inspect.isfunction(getattr(cubequartic.reports, name)) and name != "log2_fraction"
        ]
        running = []
        callers = {name: set() for name in reports}

        def counted(name, func):
            def call(*args, **kwargs):
                callers[name].add(running[-1])
                return func(*args, **kwargs)

            return call

        def entered(suite, func):
            def call(*args, **kwargs):
                running.append(suite)
                try:
                    return func(*args, **kwargs)
                finally:
                    running.pop()

            return call

        for name in callers:
            original = getattr(cubequartic.suites, name)
            monkeypatch.setattr(cubequartic.suites, name, counted(name, original))
        for suite in SUITE_NAMES:
            attr = f"suite_{suite}"
            original = getattr(cubequartic.suites, attr)
            monkeypatch.setattr(cubequartic.suites, attr, entered(suite, original))
        results = run_suites(["all"], seed=0, cfg=FAST)
        assert {name: len(suites) for name, suites in callers.items()} == {
            name: 1 for name in callers
        }
        for name, suite_reports in results:
            assert suite_reports, f"suite {name} returned no reports"
            assert all(r.checks for r in suite_reports), name

    def test_corpus_built_once_and_left_as_built(self, monkeypatch):
        import cubequartic.suites as suites

        def plain(value):
            if isinstance(value, CubeFunction):
                return value.n, value.values.tolist()
            if isinstance(value, SupportSet):
                return value.n, value.elements
            if isinstance(value, (list, tuple)):
                return [plain(v) for v in value]
            return value

        builds = []
        corpus_type = suites._Corpus

        def counted(**fields):
            builds.append(fields)
            return corpus_type(**fields)

        suites._corpus.cache_clear()
        monkeypatch.setattr(suites, "_Corpus", counted)
        run_suites(["all"], seed=4, cfg=FAST)
        assert len(builds) == 1
        # no report changed the shared inputs
        assert plain(suites._corpus(4)) == plain(suites._corpus.__wrapped__(4))
        assert len(builds) == 2

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suites(["spheres"])


class TestInputChecks:
    """Each refusal of a report's arguments, pinned by its message."""

    def test_unknown_scan_status(self):
        with pytest.raises(ValueError, match="unknown status 'maybe'"):
            ConjectureRecord(4, 2, 1.0, Fraction(1), 0.0, 0.0, "maybe")

    def test_restricted_mass_dimensions_must_match(self):
        f = CubeFunction(3, np.ones(8))
        with pytest.raises(DimensionMismatchError, match="n=3 but B on n=4"):
            restricted_mass_check(f, SupportSet.sphere(4, 1), 0.5)

    def test_sumset_bound_arguments(self):
        B, C = SupportSet.sphere(4, 1), SupportSet.sphere(4, 2)
        with pytest.raises(DimensionMismatchError, match="n=4 but C on n=5"):
            sumset_bound_report(B, SupportSet.sphere(5, 1), 1, 1)
        with pytest.raises(ValueError, match="nonempty"):
            sumset_bound_report(B, SupportSet(4, ()), 1, 1)
        with pytest.raises(ValueError, match="C is not inside the ball of radius 1"):
            sumset_bound_report(B, C, 1, 1)

    def test_scan_needs_a_cell(self):
        with pytest.raises(ValueError, match="n_max must be at least 2, got 1"):
            conjecture_scan(1)

    def test_psi_envelope_needs_a_positive_n_max(self):
        with pytest.raises(ValueError, match="n_max must be positive"):
            psi_envelope_report(0)

