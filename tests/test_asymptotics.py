"""Entropy, the peak-location map, the exponent function, and friends."""

import math

import pytest

from cubequartic.asymptotics import (
    TWO_LOG2_3,
    entropy,
    f_combine,
    phi,
    phi_derivative,
    phi_derivative_report,
    psi_concavity_check,
    psi_linear_bound_check,
    psi_value,
    r_identity_check,
    r_of_x,
)
from cubequartic.spheres import SphereParams, t1


class TestEntropy:
    def test_endpoints(self):
        assert entropy(0.0) == 0.0
        assert entropy(1.0) == 0.0
        assert entropy(0.5) == 1.0

    def test_symmetry(self):
        for x in (0.1, 0.23, 0.4):
            assert math.isclose(entropy(x), entropy(1.0 - x), rel_tol=1e-14)

    def test_frozen_quarter(self):
        assert math.isclose(entropy(0.25), 0.8112781244591328, rel_tol=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            entropy(-0.001)
        with pytest.raises(ValueError):
            entropy(1.001)


class TestPeakMap:
    def test_frozen_values(self):
        assert r_of_x(0.0) == 0.0
        assert r_of_x(0.5) == 0.25
        assert math.isclose(r_of_x(0.25), (3.0 - math.sqrt(3.0)) / 8.0, rel_tol=1e-15)

    def test_increasing_and_below_x(self):
        xs = [i / 200.0 for i in range(101)]
        vals = [r_of_x(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(r <= x for x, r in zip(xs, vals))

    def test_scales_the_sphere_peak(self):
        for n, k in [(12, 4), (100, 30), (513, 200)]:
            p = SphereParams(n, k)
            assert math.isclose(r_of_x(k / n), t1(p) / n, rel_tol=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            r_of_x(0.7)
        with pytest.raises(ValueError):
            r_of_x(-0.1)


class TestPsi:
    def test_endpoints(self):
        assert psi_value(0.0) == 0.0
        assert math.isclose(psi_value(0.5), 1.0, abs_tol=1e-12)

    def test_frozen_interior_value(self):
        assert math.isclose(psi_value(0.2), 0.5713364204647315, rel_tol=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            psi_value(-0.01)
        with pytest.raises(ValueError):
            psi_value(0.51)

    def test_below_linear_cap_inside(self):
        for i in range(1, 50):
            x = i / 100.0
            assert psi_value(x) < min(TWO_LOG2_3 * x, 1.0)


class TestPhi:
    def test_zero_end(self):
        assert phi(0.0, SphereParams(10, 3)) == 0.0

    def test_matches_psi_at_the_peak(self):
        for n, k in [(12, 4), (512, 256), (100, 17)]:
            p = SphereParams(n, k)
            assert math.isclose(phi(t1(p) / n, p), psi_value(k / n), rel_tol=1e-12)

    def test_half_ratio_top_end(self):
        # k = n/2 makes y = a hit the removable singularity; value 0 there
        p = SphereParams(8, 4)
        assert phi(0.5, p) == 0.0
        assert math.isclose(phi(0.5 - 1e-9, p), 0.0, abs_tol=1e-7)

    def test_domain(self):
        p = SphereParams(10, 3)
        with pytest.raises(ValueError):
            phi(-0.01, p)
        with pytest.raises(ValueError):
            phi(0.31, p)

    def test_derivative_matches_finite_differences(self):
        h = 1e-7
        for n, k in [(64, 20), (200, 37), (512, 250)]:
            p = SphereParams(n, k)
            a = k / n
            for frac in (0.2, 0.5, 0.8):
                y = a * frac
                fd = (phi(y + h, p) - phi(y - h, p)) / (2.0 * h)
                assert math.isclose(phi_derivative(y, p), fd, rel_tol=0, abs_tol=1e-4)

    def test_derivative_domain(self):
        p = SphereParams(10, 3)
        with pytest.raises(ValueError):
            phi_derivative(0.0, p)
        with pytest.raises(ValueError):
            phi_derivative(0.3, p)


class TestCombine:
    def test_frozen_values(self):
        assert f_combine(1.0, 1.0) == 2.0
        assert math.isclose(f_combine(4.0, 1.0), 32.0 / 7.0, rel_tol=1e-15)

    def test_boundary_collapses_to_max(self):
        assert f_combine(1.0, 9.0) == 9.0
        assert f_combine(9.0, 1.0) == 9.0
        assert f_combine(1.0, 1.0 / 9.0) == 1.0

    def test_symmetry_and_homogeneity(self, rng):
        for _ in range(50):
            x = float(rng.uniform(0.1, 10.0))
            y = float(rng.uniform(x / 9.0, 9.0 * x))
            c = float(rng.uniform(0.1, 5.0))
            assert math.isclose(f_combine(x, y), f_combine(y, x), rel_tol=1e-12)
            assert math.isclose(
                f_combine(c * x, c * y), c * f_combine(x, y), rel_tol=1e-12
            )

    def test_dominates_both_arguments(self, rng):
        for _ in range(50):
            x = float(rng.uniform(0.1, 10.0))
            y = float(rng.uniform(x / 9.0, 9.0 * x))
            assert f_combine(x, y) >= max(x, y) * (1.0 - 1e-12)

    def test_monotone_in_each_argument(self, rng):
        for _ in range(50):
            x = float(rng.uniform(0.1, 10.0))
            y = float(rng.uniform(x / 9.0, 9.0 * x))
            bump = 1.0 + 1e-6
            if y * bump < 9.0 * x:
                assert f_combine(x, y * bump) >= f_combine(x, y) - 1e-12
            if x * bump < 9.0 * y:
                assert f_combine(x * bump, y) >= f_combine(x, y) - 1e-12

    def test_diagonal(self):
        for x in (0.5, 2.0, 7.0):
            assert math.isclose(f_combine(x, x), 2.0 * x, rel_tol=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            f_combine(0.0, 0.0)
        with pytest.raises(ValueError):
            f_combine(1.0, 9.1)
        with pytest.raises(ValueError):
            f_combine(1.0, 0.1)


class TestShapeReports:
    def test_concavity(self):
        report = psi_concavity_check()
        assert report.overall
        assert any("second difference" in c.name for c in report.checks)

    def test_linear_bound(self):
        assert psi_linear_bound_check().overall

    def test_r_identities(self):
        assert r_identity_check().overall

    def test_phi_derivative(self):
        report = phi_derivative_report()
        assert report.overall
        soft = [c for c in report.checks if not c.hard]
        assert soft and soft[0].lhs > 0.0

    def test_grid_step_guard(self):
        with pytest.raises(ValueError):
            psi_concavity_check(grid_step=0.5)
