"""Exact Hamming-sphere correlation masses and their closed forms."""

import math
from fractions import Fraction

import pytest

from cubequartic.additive import energy_ratio
from cubequartic.core import SupportSet
from cubequartic.spheres import (
    SphereParams,
    SphereTableRow,
    argmax_st,
    _divmod_by_digits,
    _ratio_terms,
    mass_chain,
    r_exact,
    ratio_st,
    s_t_exact,
    small_k_lower,
    sphere_sum_bound,
    sphere_table,
    t1,
)


def s_t_direct(n, k, t):
    """Inline restatement of the squared-binomial mass formula."""
    if 2 * t > n or k - t > n - 2 * t:
        return Fraction(0)
    inner = math.comb(2 * t, t) * math.comb(n - 2 * t, k - t)
    return Fraction(math.comb(n, 2 * t) * inner * inner, math.comb(n, k) ** 2)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SphereParams(0, 0)
        with pytest.raises(ValueError):
            SphereParams(4, -1)
        with pytest.raises(ValueError):
            SphereParams(4, 5)
        with pytest.raises(TypeError):
            SphereParams(4.0, 2)

    def test_size(self):
        assert SphereParams(6, 2).size == 15


class TestMasses:
    def test_frozen_n4_k2(self):
        p = SphereParams(4, 2)
        assert [s_t_exact(p, t) for t in range(3)] == [
            Fraction(1),
            Fraction(8, 3),
            Fraction(1),
        ]

    def test_matches_direct_formula(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 31))
            k = int(rng.integers(0, n + 1))
            p = SphereParams(n, k)
            for t in range(k + 1):
                assert s_t_exact(p, t) == s_t_direct(n, k, t)

    def test_s0_is_one(self):
        for n, k in [(5, 0), (5, 3), (9, 9)]:
            assert s_t_exact(SphereParams(n, k), 0) == 1

    def test_vanishing_class(self):
        # k - t pairs of matched ones cannot fit once k - t > n - 2t
        assert s_t_exact(SphereParams(4, 3), 2) == 0

    def test_t_out_of_range(self):
        p = SphereParams(6, 2)
        with pytest.raises(ValueError):
            s_t_exact(p, -1)
        with pytest.raises(ValueError):
            s_t_exact(p, 3)


class TestRatio:
    def test_frozen_n4_k2(self):
        p = SphereParams(4, 2)
        assert ratio_st(p, 0) == Fraction(8, 3)
        assert ratio_st(p, 1) == Fraction(3, 8)

    def test_equals_mass_quotient(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 31))
            k = int(rng.integers(1, n + 1))
            p = SphereParams(n, k)
            for t in range(k):
                if s_t_exact(p, t) == 0:
                    break
                assert ratio_st(p, t) == s_t_exact(p, t + 1) / s_t_exact(p, t)

    def test_zero_when_next_mass_dies(self):
        assert ratio_st(SphereParams(3, 2), 1) == 0

    def test_raises_off_a_zero_mass(self):
        # s_2(4, 3) = 0, so the step ratio out of t = 2 is undefined
        with pytest.raises(ValueError):
            ratio_st(SphereParams(4, 3), 2)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            ratio_st(SphereParams(6, 2), 2)


class TestTotal:
    def test_weight_one_closed_form(self):
        for n in range(2, 12):
            assert r_exact(SphereParams(n, 1)) == Fraction(3 * n - 2, n)

    def test_degenerate_spheres(self):
        assert r_exact(SphereParams(5, 0)) == 1
        assert r_exact(SphereParams(5, 5)) == 1

    def test_equals_energy_ratio_of_the_set(self):
        for n in range(2, 11):
            for k in range(n + 1):
                assert r_exact(SphereParams(n, k)) == energy_ratio(
                    SupportSet.sphere(n, k)
                )

    def test_monotone_in_k_on_the_lower_half(self):
        for n in range(2, 26):
            values = [r_exact(SphereParams(n, k)) for k in range(n // 2 + 1)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_dominated_by_the_n_free_bound(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(0, n + 1))
            assert r_exact(SphereParams(n, k)) <= sphere_sum_bound(min(k, n - k))


class TestPeak:
    def test_frozen_argmax(self):
        assert argmax_st(SphereParams(12, 4)) == 2

    def test_tie_prefers_smaller_t(self):
        # n=2, k=1 has s_0 = s_1 = 1
        p = SphereParams(2, 1)
        assert s_t_exact(p, 0) == s_t_exact(p, 1) == 1
        assert argmax_st(p) == 0

    def test_degenerate(self):
        assert argmax_st(SphereParams(7, 0)) == 0
        assert argmax_st(SphereParams(7, 7)) == 0

    def test_matches_scan(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 26))
            k = int(rng.integers(1, n))
            p = SphereParams(n, k)
            masses = [s_t_exact(p, t) for t in range(k + 1)]
            assert masses[argmax_st(p)] == max(masses)

    def test_t1_frozen_value(self):
        assert math.isclose(
            t1(SphereParams(12, 4)), (9.0 - math.sqrt(17.0)) / 2.0, rel_tol=1e-15
        )

    def test_roots_solve_the_quadratic(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 200))
            k = int(rng.integers(0, n // 2 + 1))
            p = SphereParams(n, k)
            root = t1(p)
            residual = 4.0 * root * root - 3.0 * n * root + 2.0 * k * (n - k)
            assert abs(residual) <= 1e-7 * max(1.0, n * n)

    def test_root_symmetry(self):
        p = SphereParams(50, 13)
        # Vieta: the other root is 3n/4 - t1, and the product is k(n-k)/2
        assert math.isclose(t1(p) * (3.0 * 50 / 4.0 - t1(p)), 13 * 37 / 2.0, rel_tol=1e-13)

    def test_argmax_tracks_t1(self):
        # the discrete peak stays within one step of the continuous root
        for n in range(8, 40):
            for k in range(2, n // 2 + 1):
                p = SphereParams(n, k)
                assert abs(argmax_st(p) - t1(p)) <= 1.0


class TestIntegerChain:
    """r_exact and argmax_st read the integer mass chain, which the table
    does not use; both are checked against the squared-binomial masses."""

    @staticmethod
    def assert_matches_masses(n, k):
        p = SphereParams(n, k)
        masses = [s_t_exact(p, t) for t in range(k + 1)]
        assert r_exact(p) == sum(masses, Fraction(0)), (n, k)
        assert argmax_st(p) == masses.index(max(masses)), (n, k)

    def test_every_cell_up_to_64(self):
        for n in range(1, 65):
            for k in range(n + 1):
                self.assert_matches_masses(n, k)

    def test_large_cell(self):
        self.assert_matches_masses(2048, 1024)

    def test_chain_built_once_per_params(self, monkeypatch):
        import cubequartic.spheres

        built = []

        def counted(p):
            built.append(p)
            return mass_chain(p)

        monkeypatch.setattr(cubequartic.spheres, "mass_chain", counted)
        p = SphereParams(30, 12)
        assert r_exact(p) == sphere_table(p)[-1].cumulative
        assert argmax_st(p) == max(sphere_table(p, 5, 9), key=lambda row: row.mass).t
        assert p.chain is p.chain
        assert built == [p]

    def test_size_and_rank(self):
        for n in range(1, 12):
            for k in range(n + 1):
                p = SphereParams(n, k)
                A = SupportSet.sphere(n, k)
                assert (p.size, p.rank) == (len(A), A.affine.rank), (n, k)

    def test_a_fractional_mass_raises(self, monkeypatch):
        # a wrong ratio factor leaves a remainder; the check survives -O
        import cubequartic.spheres

        original = cubequartic.spheres._ratio_terms

        def skewed(n, k, t):
            num, den = original(n, k, t)
            return num, 7 * den

        monkeypatch.setattr(cubequartic.spheres, "_ratio_terms", skewed)
        with pytest.raises(RuntimeError, match="not an integer"):
            mass_chain(SphereParams(12, 5))

    @staticmethod
    def first_split_step(n, k):
        """The first t whose denominator is two digits or more, divided
        out as (t+1)^3 and the rest."""
        return next(t for t in range(k) if _ratio_terms(n, k, t)[1] >= 1 << 30)

    def test_a_fractional_mass_raises_on_a_split_step(self, monkeypatch):
        # every prime factor of N_t and of the numerator is at most n, so a
        # denominator times the prime 2053 > n leaves a remainder at that
        # step alone; (t+1)^3 and 2053 (n-2t)(n-2t-1) are both one digit
        import cubequartic.spheres

        n, k = 2048, 1024
        t_split = 1000
        _, den = _ratio_terms(n, k, t_split)
        cube = (t_split + 1) ** 3
        assert den >= 1 << 30 and cube < 1 << 30 and 2053 * den // cube < 1 << 30
        steps = []

        def skewed(n, k, t):
            steps.append(t)
            num, den = _ratio_terms(n, k, t)
            return num, den * 2053 if t == t_split else den

        monkeypatch.setattr(cubequartic.spheres, "_ratio_terms", skewed)
        with pytest.raises(RuntimeError, match="not an integer"):
            mass_chain(SphereParams(n, k))
        assert steps[-1] == t_split

    def test_a_split_division_checks_both_remainders(self):
        # den q + r for 0 < r < den: r < (t+1)^3 leaves a remainder in the
        # first division only, a multiple of (t+1)^3 in the second only
        _, den = _ratio_terms(2048, 1024, 1000)
        cube = 1001**3
        q = 3**2000
        assert _divmod_by_digits(den * q, den, cube) == (q, 0)
        for r in (1, cube - 1, cube, 5 * cube, den - 1):
            assert _divmod_by_digits(den * q + r, den, cube)[1], r

    @pytest.mark.parametrize("n,k", [(2048, 1024), (2048, 1500)])
    def test_split_steps_match_the_squared_binomials(self, n, k):
        # the independent route at t = 0, the first split step, the peak
        # and the last step; S(2048, 1500) has k > n - k, so its chain
        # ends at n - k and s_k is zero
        p = SphereParams(n, k)
        last = min(k, n - k)
        assert len(p.chain) == last + 1
        for t in (0, self.first_split_step(n, k), argmax_st(p), last):
            assert p.chain[t] == s_t_exact(p, t) * p.size**2, t
        assert s_t_exact(p, k) == (s_t_exact(p, last) if k == last else 0)


class TestBounds:
    def test_sum_bound_frozen(self):
        assert [sphere_sum_bound(k) for k in range(4)] == [1, 3, 15, 93]

    def test_sum_bound_guard(self):
        with pytest.raises(ValueError):
            sphere_sum_bound(-1)

    def test_small_k_estimate(self):
        p = SphereParams(100, 3)
        est = small_k_lower(p)
        assert math.isclose(est, 93.0 * math.exp(-0.18), rel_tol=1e-12)
        assert est <= float(r_exact(p))

    def test_small_k_estimate_is_lower(self):
        for n in (60, 90, 140):
            for k in (1, 2, 3, 4):
                p = SphereParams(n, k)
                assert small_k_lower(p) <= float(r_exact(p)) * (1 + 1e-12)


class TestTable:
    def test_structure(self):
        rows = sphere_table(SphereParams(4, 2))
        assert [row.t for row in rows] == [0, 1, 2]
        assert rows[0].ratio_to_prev is None
        assert rows[1].ratio_to_prev == Fraction(8, 3)
        assert rows[2].ratio_to_prev == Fraction(3, 8)
        assert rows[-1].cumulative == Fraction(14, 3)

    def test_telescoping(self, rng):
        cells = []
        for _ in range(10):
            n = int(rng.integers(2, 20))
            cells.append((n, int(rng.integers(0, n + 1))))
        # every cell up to n = 24 covers k = 0, k = n and the zero rows past n/2
        cells += [(n, k) for n in range(1, 25) for k in range(n + 1)]
        for n, k in cells:
            p = SphereParams(n, k)
            rows = sphere_table(p)
            assert [row.t for row in rows] == list(range(k + 1))
            running = Fraction(0)
            for row in rows:
                assert row.mass == s_t_exact(p, row.t)
                running += row.mass
                assert row.cumulative == running
            assert rows[-1].cumulative == r_exact(p)

    def test_masses_come_from_the_ratio_chain(self, monkeypatch):
        import cubequartic.spheres

        def refuse(p, t):
            raise AssertionError("sphere_table evaluated a mass a second way")

        monkeypatch.setattr(cubequartic.spheres, "s_t_exact", refuse)
        p = SphereParams(40, 25)
        assert sphere_table(p)[-1].cumulative == r_exact(p)

    def test_row_range_and_footer_match_the_full_table(self):
        # the printed window of the CLI, clamped to 0..k, from the chain of
        # one SphereParams
        for n, k in ((9, 4), (12, 9), (30, 20), (1, 1)):
            full = sphere_table(SphereParams(n, k))
            p = SphereParams(n, k)
            for lo, hi in ((0, None), (2, 3), (-4, 1), (3, 99), (5, 2)):
                window = sphere_table(p, lo, hi)
                assert window == [row for row in full if lo <= row.t <= (k if hi is None else hi)]
            # the footer's total and argmax from the same chain
            assert r_exact(p) == full[-1].cumulative
            assert argmax_st(p) == max(full, key=lambda row: row.mass).t

    @staticmethod
    def table_from_prefix_sums(p, t_min):
        """Every row from t_min on, each partial sum added up from t = 0,
        never from the chain total."""
        chain = p.chain
        numerators = chain + (0,) * (p.k + 1 - len(chain))
        running = sum(numerators[:t_min])
        rows = []
        for t in range(t_min, p.k + 1):
            mass = numerators[t]
            running += mass
            previous = numerators[t - 1] if t > 0 else 0
            ratio = Fraction(mass, previous) if previous else None
            rows.append(
                SphereTableRow(t, Fraction(mass, chain[0]), ratio, Fraction(running, chain[0]))
            )
        return rows

    def test_rows_from_the_total_match_prefix_sums(self):
        # a first row past the middle of the chain starts from p.total
        for n in range(1, 31):
            for k in range(n + 1):
                p = SphereParams(n, k)
                for t_min in range(k + 2):
                    expected = self.table_from_prefix_sums(p, t_min)
                    assert sphere_table(p, t_min) == expected, (n, k, t_min)

    def test_ratio_column_consistent(self):
        rows = sphere_table(SphereParams(9, 4))
        for prev, row in zip(rows, rows[1:]):
            if prev.mass != 0:
                assert row.ratio_to_prev == row.mass / prev.mass
            else:
                assert row.ratio_to_prev is None

    def test_row_validation(self):
        with pytest.raises(ValueError):
            SphereTableRow(-1, Fraction(1), None, Fraction(1))
        with pytest.raises(ValueError):
            SphereTableRow(0, Fraction(2), None, Fraction(1))
