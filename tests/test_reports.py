"""Cross-checked inequality reports and the named verification suites."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cubequartic.additive import additive_energy, energy_ratio
from cubequartic.core import CubeFunction, SpectrumVector, SupportSet
from cubequartic.errors import ResourceLimitError
from cubequartic.quartic import OptimizerConfig
from cubequartic.reporting import ConjectureRecord
from cubequartic.reports import (
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


class TestRadicalHelpers:
    def test_perfect_square_boundary(self):
        assert _radical_le(16, Fraction(4))
        assert _radical_ge(16, Fraction(4))
        assert not _radical_le(17, Fraction(4))
        assert _radical_ge(17, Fraction(4))

    def test_signs(self):
        assert not _radical_le(5, Fraction(-1))
        assert _radical_ge(5, Fraction(-1))
        assert _radical_ge(0, Fraction(0))

    def test_t_comparisons_match_floats(self):
        # far from the irrational boundary the float answer is reliable
        for n, k, t in [(64, 20, 5), (64, 20, 14), (100, 30, 9), (100, 30, 21)]:
            D = n * n + 8 * (n - 2 * k) ** 2
            t1_float = (3.0 * n - math.sqrt(D)) / 8.0
            assert _t_at_most(D, n, Fraction(3), t) == (t <= t1_float - 3.0)
            assert _t_at_least(D, n, Fraction(3), t) == (t >= t1_float + 3.0)


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
        B = SupportSet.full(4)
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


class TestAsymptoticReports:
    def test_sphere_ratio_window(self):
        report = sphere_ratio_report(64, 70)
        assert report.overall
        assert report.checks

    def test_psi_envelope(self):
        assert psi_envelope_report(64).overall

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
                assert report.overall, f"{name}: {report.describe()}"

    def test_single_suite(self):
        results = run_suites(["additive"], seed=5)
        assert len(results) == 1 and results[0][0] == "additive"
        assert all(r.overall for r in results[0][1])

    def test_every_report_runs_in_exactly_one_suite(self, monkeypatch):
        import cubequartic.reports
        import cubequartic.suites

        reports = [name for name in cubequartic.reports.__all__ if name != "log2_fraction"]
        shapes = [
            "r_identity_check",
            "psi_concavity_check",
            "psi_linear_bound_check",
            "phi_derivative_report",
        ]
        running = []
        callers = {name: set() for name in reports + shapes}

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

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suites(["spheres"])
