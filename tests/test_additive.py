"""XOR pair tables, energies, sumsets, hereditary maxima, level sets."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cubequartic import additive, core
from cubequartic.additive import (
    EXHAUSTIVE_LIMIT,
    GREEDY_LIMIT,
    HereditaryResult,
    MultiplicityTable,
    PairIndex,
    _exhaustive_hereditary,
    _fill_bounds,
    _full_set_is_best,
    _greedy_hereditary,
    _subset_energy,
    additive_energy,
    dyadic_level_sets,
    energy_ratio,
    hereditary_energy,
    m_bound,
    pair_multiplicities,
    plan,
    sumset,
)
from cubequartic.core import SpectrumVector, SupportSet
from cubequartic.errors import DimensionMismatchError, ResourceLimitError

from conftest import brute_energy, level_sets_oracle, random_support, wide_random


def _pairs_table(masks):
    table = {}
    for a in masks:
        for b in masks:
            table[a ^ b] = table.get(a ^ b, 0) + 1
    return table


def _as_dict(table):
    """A pair table's (sums, counts) arrays as the dict x -> |M_x|."""
    return dict(zip(table.sums.tolist(), table.counts.tolist()))


def greedy_hereditary_oracle(masks):
    """The dict-based greedy sweep the vectorised search must reproduce."""
    current = list(masks)
    table = _pairs_table(current)
    energy = sum(c * c for c in table.values())
    best_set = tuple(current)
    best_ratio = Fraction(energy, len(current) ** 2)
    while len(current) > 1:
        size = len(current)
        pick, pick_energy, pick_ratio = None, None, None
        for i, a in enumerate(current):
            drops: dict[int, int] = {}
            for b in current:
                if b != a:
                    x = a ^ b
                    drops[x] = drops.get(x, 0) + 2
            delta = table[0] ** 2 - (table[0] - 1) ** 2
            for x, d in drops.items():
                delta += table[x] ** 2 - (table[x] - d) ** 2
            cand_energy = energy - delta
            cand_ratio = Fraction(cand_energy, (size - 1) ** 2)
            if pick_ratio is None or cand_ratio > pick_ratio:
                pick, pick_energy, pick_ratio = i, cand_energy, cand_ratio
        del current[pick]
        table = _pairs_table(current)
        energy = pick_energy
        assert energy == sum(c * c for c in table.values())
        if pick_ratio > best_ratio:
            best_ratio = pick_ratio
            best_set = tuple(current)
    return best_set, best_ratio


def _on_masks(A, found):
    """A hereditary helper's answer, (element positions, ratio), with the
    positions read as the masks of A."""
    members, ratio = found
    return tuple(A.elements[i] for i in members), ratio


def greedy_rescan_oracle(index):
    """The greedy sweep that rescans every row sum in each round.

    Each round gathers the counts of all |B|^2 pairs of the current set
    B, sums them by row and removes the first least row, so the sweep is
    O(|A|^3) work; it must pick what the incremental sweep picks.  The
    subset kept is returned as element positions.
    """
    counts = index.counts.copy()
    active = np.arange(len(index.inverse))
    size = len(active)
    energy = index.energy()
    best_rows, best_ratio = active, Fraction(energy, size * size)
    while size > 1:
        block = index.inverse[np.ix_(active, active)]
        row_sums = counts[block].sum(axis=1)
        pick = int(np.argmin(row_sums))
        energy -= 4 * int(row_sums[pick]) - 6 * size + 3
        counts[block[pick]] -= 2
        counts[block[pick, pick]] += 1
        active = np.delete(active, pick)
        size -= 1
        ratio = Fraction(energy, size * size)
        if ratio > best_ratio:
            best_rows, best_ratio = active, ratio
    return tuple(best_rows.tolist()), best_ratio


def exhaustive_hereditary_oracle(masks):
    """Gray-code walk over all non-empty subsets with O(|B|) dict updates.

    Flipping one element in or out changes |M_x| only at the |B| points
    x = a ^ b, so the energy is maintained incrementally.  Ties prefer
    the smaller subset, then the lexicographically smaller mask tuple.
    """
    m = len(masks)
    counts: dict[int, int] = {}
    current: set[int] = set()
    energy = 0
    best_energy, best_size, best_set = 0, 0, ()
    for code in range(1, 1 << m):
        j = (code & -code).bit_length() - 1
        a = masks[j]
        if a in current:
            current.remove(a)
            for b in current:
                x = a ^ b
                counts[x] -= 2
                energy -= 4 * counts[x] + 4
            counts[0] -= 1
            energy -= 2 * counts[0] + 1
        else:
            for b in current:
                x = a ^ b
                energy += 4 * counts.get(x, 0) + 4
                counts[x] = counts.get(x, 0) + 2
            energy += 2 * counts.get(0, 0) + 1
            counts[0] = counts.get(0, 0) + 1
            current.add(a)
        size = len(current)
        if size == 0:
            continue
        if best_size == 0:
            best_energy, best_size, best_set = energy, size, tuple(sorted(current))
            continue
        # compare energy/size^2 against the incumbent without Fractions
        left = energy * best_size * best_size
        right = best_energy * size * size
        if left > right:
            best_energy, best_size, best_set = energy, size, tuple(sorted(current))
        elif left == right:
            cand = tuple(sorted(current))
            if size < best_size or (size == best_size and cand < best_set):
                best_energy, best_size, best_set = energy, size, cand
    return best_set, Fraction(best_energy, best_size * best_size)


def fill_bound_oracle(masks):
    """For each size s, the largest sum over x of C(p_x(B), 2) over the
    s-subsets B, p_x(B) the unordered pairs of B with XOR x."""
    best = [0] * (len(masks) + 1)
    for size in range(2, len(masks) + 1):
        for sub in itertools.combinations(masks, size):
            pairs: dict[int, int] = {}
            for a, b in itertools.combinations(sub, 2):
                pairs[a ^ b] = pairs.get(a ^ b, 0) + 1
            total = sum(math.comb(c, 2) for c in pairs.values())
            best[size] = max(best[size], total)
    return best


def subsets_bruteforce(masks):
    """Every non-empty subset with its exact energy ratio."""
    m = len(masks)
    out = []
    for code in range(1, 1 << m):
        sub = tuple(masks[i] for i in range(m) if code >> i & 1)
        out.append((sub, Fraction(brute_energy(sub), len(sub) ** 2)))
    return out


class TestPairMultiplicities:
    def test_weight_one_sphere(self):
        A = SupportSet.sphere(3, 1)
        assert _as_dict(PairIndex.of(A.masks)) == {0: 3, 3: 2, 5: 2, 6: 2}
        # the set's table holds the mask sums 0, 3, 5, 6 as frame
        # coordinates, in the same order
        assert _as_dict(pair_multiplicities(A)) == {0: 3, 1: 2, 2: 2, 3: 2}

    def test_total_is_size_squared(self, rng):
        for _ in range(10):
            A = random_support(rng, 6, 20)
            table = pair_multiplicities(A)
            assert sum(_as_dict(table).values()) == len(A) ** 2

    def test_enumeration_only_path(self, monkeypatch):
        # an affine rank above the dense cap forces the pair-enumeration
        # route: the origin and the 30 unit vectors have rank 30
        def refuse(A):
            raise AssertionError("convolved a set of rank above the cap")

        monkeypatch.setattr(core, "_convolution_table", refuse)
        A = SupportSet.from_masks(30, [0] + [1 << i for i in range(30)])
        assert A.affine.rank == 30
        table = _as_dict(pair_multiplicities(A))
        assert table[0] == 31
        assert table[3] == 2

    def test_returns_the_sets_own_table(self, monkeypatch):
        # no wrapper: the pair index within the pair cap, and past it the
        # convolution table
        A = SupportSet.sphere(6, 2)
        assert pair_multiplicities(A) is A.pairs
        monkeypatch.setattr(core, "PAIR_ENUMERATION_LIMIT", 99)
        B = SupportSet.sphere(6, 2)
        table = pair_multiplicities(B)
        assert table is B.convolution
        assert type(table) is MultiplicityTable
        assert (table.energy(), table.m_bound()) == (A.pairs.energy(), A.pairs.m_bound())

    @pytest.mark.parametrize("part", [0, 1])
    def test_cross_check_catches_a_wrong_convolution(self, monkeypatch, part):
        # one wrong sum or one wrong count fails the comparison
        original = core._convolution_table

        def corrupted(A):
            table = original(A)
            arrays = [table.sums.copy(), table.counts.copy()]
            arrays[part][-1] += 1
            return MultiplicityTable(*arrays)

        monkeypatch.setattr(core, "_convolution_table", corrupted)
        with pytest.raises(RuntimeError, match="cross-check failed"):
            pair_multiplicities(SupportSet.sphere(5, 2))

    def test_convolution_checks_divisibility_past_the_pair_cap(self, monkeypatch):
        # past the pair cap no enumeration cross-checks the convolution, so
        # a wrong transform must still be caught, by a check -O keeps
        original = core.walsh_transform
        calls = []

        def perturbed(values):
            original(values)
            calls.append(None)
            if len(calls) == 2:
                values[1] += 1.0

        monkeypatch.setattr(core, "PAIR_ENUMERATION_LIMIT", 99)
        monkeypatch.setattr(core, "walsh_transform", perturbed)
        A = SupportSet.sphere(5, 2)
        assert not plan(len(A), A.affine.rank).pairs
        with pytest.raises(RuntimeError, match="not divisible by 2\\^d"):
            pair_multiplicities(A)

    def test_convolution_needs_n_plus_bitlen_at_most_53(self, monkeypatch):
        # past the pair cap the convolution is the only route, and it is
        # exact in float64 only while d + bitlen|A| <= 53 for the affine
        # rank d; a raised dense cap does not lift that bound.  Both sets
        # hold 56 masks (bitlen 6) in n = 60, of rank 47 and 48
        class Convolved(Exception):
            pass

        def convolved(A):
            raise Convolved

        monkeypatch.setattr(core, "PAIR_ENUMERATION_LIMIT", 99)
        monkeypatch.setattr(core, "_convolution_table", convolved)
        units = [0] + [1 << i for i in range(47)]
        within = SupportSet.from_masks(60, units + [3 << i for i in range(8)])
        past = SupportSet.from_masks(60, units + [3 << i for i in range(7)] + [1 << 50])
        assert len(within) == len(past) == 56
        assert (within.affine.rank, past.affine.rank) == (47, 48)
        with pytest.raises(Convolved):
            pair_multiplicities(within, dense_cap=60)
        with pytest.raises(ResourceLimitError, match="d \\+ bitlen\\|A\\| <= 53"):
            pair_multiplicities(past, dense_cap=60)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            pair_multiplicities(SupportSet(3, ()))

    @pytest.mark.parametrize("route", ["pairs", "convolution", "singleton"])
    def test_table_matches_a_recount(self, monkeypatch, rng, route):
        # the pairs route and the convolution route (the only one past the
        # pair cap) give the same arrays; a singleton has no x != 0
        A = SupportSet.from_masks(7, [int(m) for m in rng.choice(128, 30, replace=False)])
        if route == "convolution":
            monkeypatch.setattr(core, "PAIR_ENUMERATION_LIMIT", 99)
            assert not plan(len(A), A.affine.rank).pairs
        elif route == "singleton":
            A = SupportSet.from_masks(7, [45])
        table = pair_multiplicities(A)
        assert table.sums[0] == 0 and table.counts[0] == len(A)
        direct = _pairs_table(A.elements)
        assert table.m_bound() == 1 + max((c for x, c in direct.items() if x), default=0)
        assert table.energy() == sum(c * c for c in direct.values())

    def test_energy_is_exact_past_int64(self):
        # |A| = 2^31 and four sums each hit 2^31 times: E = 2^64, where an
        # int64 dot product wraps to 0
        counts = np.full(4, 1 << 31, dtype=np.int64)
        table = MultiplicityTable(np.arange(4), counts)
        assert table.energy() == 4 * (1 << 62) == sum(c * c for c in counts.tolist())
        assert int(np.dot(counts, counts)) != table.energy()

    @pytest.mark.parametrize("top", [3, (1 << 31) - 1, 1 << 31, 3 << 31, (1 << 63) - 1])
    def test_energy_sums_in_chunks_that_cannot_wrap(self, top):
        # int64 dots over chunks of (2^63 - 1) // top^2 counts, and python
        # ints once top^2 alone passes 2^63 - 1
        counts = np.array([top, 1, 0, top - 1] * 5 + [top], dtype=np.int64)
        table = MultiplicityTable(np.arange(len(counts)), counts)
        assert table.energy() == sum(c * c for c in counts.tolist())

    def test_energy_is_computed_once_per_table(self, monkeypatch):
        summed = []
        original = core._square_sum

        def counted(counts):
            summed.append(len(counts))
            return original(counts)

        monkeypatch.setattr(core, "_square_sum", counted)
        A = SupportSet.sphere(6, 2)
        table = A.convolution
        assert table.energy() == table.energy() == A.pairs.energy() == A.pairs.energy()
        assert summed == [len(table.counts), len(A.pairs.counts)]


class TestPairIndex:
    def test_table_and_inverse_match_enumeration(self, rng):
        for _ in range(10):
            A = random_support(rng, 7, 30)
            index = PairIndex.of(A.masks)
            assert _as_dict(index) == _pairs_table(A.elements)
            assert index.energy() == brute_energy(A.elements)
            for i, a in enumerate(A.elements):
                for j, b in enumerate(A.elements):
                    assert index.sums[index.inverse[i, j]] == a ^ b

    def test_histogram_and_sort_routes_agree(self, rng):
        # the histogram route runs while 2^bitlen(max mask) <= |A|^2, the
        # sort route (np.unique, here the oracle) otherwise; both give the
        # same arrays with the same dtypes
        sets = [
            SupportSet.sphere(11, 4),
            SupportSet.sphere(12, 6),
            SupportSet.sphere(6, 3),
            SupportSet.ball(8, 2),
            SupportSet.sphere(14, 2),
            SupportSet.ball(14, 2),
            SupportSet.sphere(9, 1),
            SupportSet.from_masks(5, [0]),
        ]
        for n, size in [(6, 30), (8, 40), (8, 15), (12, 30), (14, 72), (20, 72)]:
            sets.append(SupportSet.from_masks(n, [int(m) for m in rng.choice(1 << n, size, replace=False)]))
        sides = set()
        for A in sets:
            arr = A.masks
            sides.add(1 << int(arr.max()).bit_length() <= len(A) ** 2)
            index = PairIndex.of(A.masks)
            sums, inverse, counts = np.unique(
                (arr[:, None] ^ arr[None, :]).ravel(), return_inverse=True, return_counts=True
            )
            for got, want in (
                (index.sums, sums),
                (index.counts, counts),
                (index.inverse, inverse.reshape(len(A), len(A))),
            ):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
        assert sides == {True, False}

    def test_masks_beyond_int64(self):
        masks = (3, 1 << 62, (1 << 62) | 3, 1 << 70)
        A = SupportSet(71, masks)
        index = PairIndex.of(A.masks)
        assert _as_dict(index) == _pairs_table(masks)
        # the set's own table groups the same sums, on int64 coordinates
        table = pair_multiplicities(A)
        assert table.sums.dtype == np.int64
        assert np.array_equal(table.counts, index.counts)
        assert np.array_equal(A.pairs.inverse, index.inverse)


class TestEnergy:
    def test_weight_one_sphere(self):
        A = SupportSet.sphere(3, 1)
        assert additive_energy(A) == 21
        assert energy_ratio(A) == Fraction(7, 3)

    def test_subspace_is_cubed(self):
        V = SupportSet.span(4, [3, 5])
        assert additive_energy(V) == len(V) ** 3
        assert energy_ratio(V) == len(V)

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            A = random_support(rng, 7, 24)
            assert additive_energy(A) == brute_energy(A.elements)

    def test_singleton(self):
        A = SupportSet.from_masks(5, [9])
        assert additive_energy(A) == 1
        assert energy_ratio(A) == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            energy_ratio(SupportSet(2, ()))


class TestMBound:
    def test_weight_one_sphere(self):
        assert m_bound(SupportSet.sphere(3, 1)) == 3

    def test_subspace(self):
        # every nonzero x in V is hit by |V| ordered pairs
        assert m_bound(SupportSet.span(4, [3, 5])) == 5

    def test_singleton(self):
        assert m_bound(SupportSet.from_masks(4, [7])) == 1

    def test_matches_direct_maximum(self, rng):
        for _ in range(10):
            A = random_support(rng, 6, 16)
            table = _as_dict(pair_multiplicities(A))
            direct = 1 + max((c for x, c in table.items() if x), default=0)
            assert m_bound(A) == direct

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            m_bound(SupportSet(3, ()))


class TestSumset:
    def test_weight_one_spheres(self):
        S = SupportSet.sphere(6, 1)
        total = sumset(S, S)
        # pairwise XORs of weight-1 points: zero plus the weight-2 sphere
        assert len(total) == 16
        assert 0 in total

    def test_matches_brute_force(self, rng):
        for _ in range(15):
            B = random_support(rng, 6, 12)
            C = random_support(rng, 6, 12)
            expected = sorted({b ^ c for b in B for c in C})
            assert list(sumset(B, C)) == expected
            assert len(sumset(B, C)) >= max(len(B), len(C))

    def test_masks_past_int64(self):
        # from 2^62 up the masks are python ints in object arrays
        B = SupportSet(71, (3, 1 << 62, (1 << 62) | 3, 1 << 70))
        C = SupportSet(71, (0, 3, (1 << 70) | 1))
        expected = sorted({b ^ c for b in B for c in C})
        assert list(sumset(B, C)) == expected
        assert all(type(x) is int for x in sumset(B, C))

    def test_self_sumset_contains_zero(self, rng):
        A = random_support(rng, 5, 10)
        assert 0 in sumset(A, A)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sumset(SupportSet.sphere(3, 1), SupportSet.sphere(4, 1))

    def test_pairs_past_the_cap_are_refused(self, monkeypatch):
        monkeypatch.setattr(core, "PAIR_ENUMERATION_LIMIT", 8)
        A = SupportSet.sphere(3, 1)
        with pytest.raises(ResourceLimitError, match="sumset enumeration of 3x3 pairs"):
            sumset(A, A)

    def test_empty_operand(self):
        B = SupportSet.sphere(3, 1)
        assert len(sumset(B, SupportSet(3, ()))) == 0


class TestHereditaryEnergy:
    def test_weight_two_sphere_is_its_own_best(self):
        res = hereditary_energy(SupportSet.sphere(4, 2))
        assert res.exact
        assert res.best.elements == SupportSet.sphere(4, 2).elements
        assert res.ratio == Fraction(14, 3)

    def test_subspace(self):
        V = SupportSet.span(5, [3, 12, 16])
        res = hereditary_energy(V)
        assert res.exact
        assert res.best.elements == V.elements
        assert res.ratio == 8

    def test_monotone_in_the_whole_set(self, rng):
        for _ in range(8):
            A = random_support(rng, 6, 12)
            res = hereditary_energy(A)
            assert res.ratio >= energy_ratio(A)
            assert res.ratio >= 1

    def test_exhaustive_matches_subset_bruteforce(self, rng):
        for _ in range(8):
            A = random_support(rng, 5, 9)
            res = hereditary_energy(A)
            table = subsets_bruteforce(A.elements)
            best = max(r for _, r in table)
            winners = [s for s, r in table if r == best]
            winners.sort(key=lambda s: (len(s), s))
            assert res.ratio == best
            assert res.best.elements == winners[0]

    def test_heuristic_is_certified_lower_bound(self, rng):
        A = random_support(rng, 7, 40)
        res = hereditary_energy(A, exact_limit=5)
        assert not res.exact
        assert res.ratio >= energy_ratio(A)
        sub = res.best
        assert res.ratio == energy_ratio(sub)
        assert all(m in A for m in sub)

    def test_exhaustive_matches_gray_code_oracle(self, rng):
        for _ in range(240):
            A = random_support(rng, int(rng.integers(1, 10)), 14)
            got = _exhaustive_hereditary(PairIndex.of(A.masks))
            assert _on_masks(A, got) == exhaustive_hereditary_oracle(A.elements)

    def test_exhaustive_tie_prefers_smaller_then_earlier(self):
        # the full set and five 4-element cosets all reach the maximum 4
        tie = (1, 2, 4, 10, 14, 15, 18, 27, 29, 31)
        expected = ((1, 4, 10, 15), Fraction(4))
        assert exhaustive_hereditary_oracle(tie) == expected
        A = SupportSet(5, tie)
        assert _on_masks(A, _exhaustive_hereditary(PairIndex.of(A.masks))) == expected
        res = hereditary_energy(SupportSet(5, tie))
        assert res.exact and (res.best.elements, res.ratio) == expected

    def test_fill_bound_covers_every_subset(self, rng):
        # U(s) is at least the largest sum of C(p_x(B), 2) over s-subsets,
        # on random sets and on random subsets of spheres
        sets = [random_support(rng, int(rng.integers(2, 7)), 11) for _ in range(30)]
        for n, k in ((5, 2), (6, 3), (6, 2), (7, 3)):
            S = SupportSet.sphere(n, k).elements
            for _ in range(3):
                pick = rng.choice(len(S), size=min(len(S), 11), replace=False)
                sets.append(SupportSet(n, tuple(sorted(S[i] for i in pick))))
        for A in sets:
            bounds = _fill_bounds(PairIndex.of(A.masks))
            brute = fill_bound_oracle(A.elements)
            assert len(bounds) == len(brute)
            assert all(u >= b for u, b in zip(bounds, brute)), A.elements

    def test_certified_full_set_is_the_exhaustive_answer(self, rng):
        # wherever the pair-count certificate holds, the Gray-code walk
        # over every subset picks the full set too
        sets = [random_support(rng, int(rng.integers(3, 9)), 12) for _ in range(200)]
        sets += [
            family(n, k)
            for family in (SupportSet.sphere, SupportSet.ball)
            for n in range(1, 9)
            for k in range(n + 1)
            if len(family(n, k)) <= 14
        ]
        held = []
        for A in sets:
            if _full_set_is_best(PairIndex.of(A.masks)):
                held.append(len(A))
                expected = (A.elements, Fraction(brute_energy(A.elements), len(A) ** 2))
                assert exhaustive_hereditary_oracle(A.elements) == expected
        # it holds on sets with XOR-zero 4-subsets too, not only small ones
        assert sum(size >= 8 for size in held) >= 20

    def test_certificate_answers_without_the_transform(self, monkeypatch):
        def refuse(index):
            raise AssertionError("ran the subset transform")

        monkeypatch.setattr(additive, "_exhaustive_hereditary", refuse)
        A = SupportSet.sphere(6, 3)
        res = hereditary_energy(A)
        assert res.exact and res.best.elements == A.elements
        assert res.ratio == Fraction(64, 5)
        # nine unit vectors have no XOR-zero 4-subset: E = 3*81 - 2*9
        res = hereditary_energy(SupportSet.sphere(9, 1))
        assert res.exact and len(res.best) == 9 and res.ratio == Fraction(225, 81)
        # the 4-cosets of the tie set reach the full set's ratio 4, so no
        # certificate can hold there and the transform must run
        tie = SupportSet(5, (1, 2, 4, 10, 14, 15, 18, 27, 29, 31))
        assert not _full_set_is_best(tie.pairs)
        with pytest.raises(AssertionError, match="subset transform"):
            hereditary_energy(tie)

    def test_exhaustive_on_masks_beyond_int64(self):
        masks = tuple(sorted((m << 60) ^ m for m in range(1, 13)))
        A = SupportSet(64, masks)
        assert A.masks.dtype == object
        expected = exhaustive_hereditary_oracle(masks)
        assert _on_masks(A, _exhaustive_hereditary(PairIndex.of(A.masks))) == expected
        assert _on_masks(A, _exhaustive_hereditary(A.pairs)) == expected

    @pytest.mark.parametrize("block", [1 << 3, 1 << 6, 1 << 17])
    def test_exhaustive_on_both_sides_of_the_block_split(self, monkeypatch, block):
        # chunks of 2^3 and 2^6 subset codes split every set of more than
        # 3 or 6 elements into 2^9 or 2^6 chunks at 12 elements; one chunk
        # of 2^17 holds every subset of up to 12 elements
        monkeypatch.setattr(additive, "_BLOCK_ENTRIES", block)
        masks = (0, 3, 5, 6, 9, 12, 17, 20, 23, 26, 29, 30)
        for size in range(1, len(masks) + 1):
            A = SupportSet(5, masks[:size])
            got = _exhaustive_hereditary(PairIndex.of(A.masks))
            assert _on_masks(A, got) == exhaustive_hereditary_oracle(masks[:size])

    def test_energy_from_zero_quadruples_matches_pair_table(self, rng):
        # E2(B, B) = 3|B|^2 - 2|B| + 24 Q(B), Q(B) the listed 4-subsets within B
        for _ in range(40):
            A = random_support(rng, int(rng.integers(2, 8)), 16)
            m = len(A)
            quads = additive._zero_quadruples(PairIndex.of(A.masks))
            codes = [(1 << m) - 1] + [int(c) for c in rng.integers(1, 1 << m, 8)]
            for code in codes:
                B = [A.elements[i] for i in range(m) if code >> (m - 1 - i) & 1]
                q = int(np.count_nonzero((quads & ~code) == 0))
                energy = sum(c * c for c in _pairs_table(B).values())
                assert energy == 3 * len(B) ** 2 - 2 * len(B) + 24 * q

    def test_exhaustive_at_the_size_cap(self):
        # 26 of the 64 points of n = 6 hold 250 XOR-zero 4-subsets; the best
        # subset has 19 elements
        masks = np.random.default_rng(26).choice(1 << 6, size=EXHAUSTIVE_LIMIT, replace=False)
        A = SupportSet.from_masks(6, [int(m) for m in masks])
        res = hereditary_energy(A, exact_limit=EXHAUSTIVE_LIMIT)
        assert res.exact and len(A) == 26
        assert res.ratio == energy_ratio(res.best)
        assert all(m in A for m in res.best)
        assert res.ratio >= _greedy_hereditary(A.pairs)[1]

    def test_exhaustive_on_the_sphere_s63(self):
        A = SupportSet.sphere(6, 3)
        res = hereditary_energy(A)
        assert res.exact
        assert res.best.elements == A.elements
        assert res.ratio == Fraction(64, 5)

    def test_exhaustive_cap_refuses_before_any_work(self, monkeypatch):
        def no_index(masks):
            raise AssertionError("pair index built before the cap check")

        monkeypatch.setattr(PairIndex, "of", no_index)
        A = SupportSet.from_masks(8, range(40))
        with pytest.raises(ResourceLimitError, match="hereditary stage"):
            hereditary_energy(A, exact_limit=40)
        B = SupportSet.from_masks(8, range(EXHAUSTIVE_LIMIT + 1))
        with pytest.raises(ResourceLimitError, match="hereditary stage"):
            hereditary_energy(B, exact_limit=EXHAUSTIVE_LIMIT + 1)

    def test_greedy_matches_dict_oracle(self, rng):
        for _ in range(240):
            A = random_support(rng, int(rng.integers(2, 10)), 48)
            got = _greedy_hereditary(PairIndex.of(A.masks))
            assert _on_masks(A, got) == greedy_hereditary_oracle(A.elements)
        # the full set and a 4-element coset tie at ratio 4: the earlier wins
        tie = (1, 2, 4, 10, 14, 15, 18, 27, 29, 31)
        A = SupportSet(5, tie)
        assert _on_masks(A, _greedy_hereditary(PairIndex.of(A.masks))) == (tie, Fraction(4))
        assert greedy_hereditary_oracle(tie) == (tie, Fraction(4))
        # 106 elements, where every round rescores many rows
        B = SupportSet.ball(14, 2)
        assert _on_masks(B, _greedy_hereditary(B.pairs)) == greedy_hereditary_oracle(B.elements)

    def test_greedy_matches_the_rescanning_sweep(self):
        # a random set at GREEDY_LIMIT, and two sets on which every first
        # row sum ties, so the first least row decides each early round
        masks = np.random.default_rng(300).choice(1 << 12, size=GREEDY_LIMIT, replace=False)
        sets = [
            SupportSet.from_masks(12, [int(m) for m in masks]),
            SupportSet.sphere(9, 3),
            SupportSet.ball(10, 2),
            # the benchmark's greedy sets: S11_3, S14_2 and R14_72
            SupportSet.sphere(11, 3),
            SupportSet.sphere(14, 2),
            SupportSet.from_masks(14, random.Random("0:14:72").sample(range(1 << 14), 72)),
        ]
        for A in sets:
            assert _greedy_hereditary(A.pairs) == greedy_rescan_oracle(A.pairs)

    def test_greedy_never_picks_a_removed_row(self):
        # updated like a live row, the first removed row's sum would be the
        # least, so a sweep that fails to park it picks it again
        A = SupportSet.from_masks(4, [1, 2, 4, 7, 8, 15])
        index = A.pairs
        row_sums = index.counts[index.inverse].sum(axis=1)
        first = int(np.argmin(row_sums))
        stale = row_sums - 3 * index.counts[index.inverse[first]] + 3
        assert int(np.argmin(stale)) == first
        got = _greedy_hereditary(index)
        assert got == greedy_rescan_oracle(index)
        assert _on_masks(A, got) == ((1, 2, 4, 7), Fraction(4))

    def test_greedy_on_masks_beyond_int64(self):
        masks = tuple(sorted((m << 60) ^ m for m in range(1, 25)))
        A = SupportSet(65, masks)
        expected = greedy_hereditary_oracle(masks)
        assert _on_masks(A, _greedy_hereditary(PairIndex.of(A.masks))) == expected
        assert _on_masks(A, _greedy_hereditary(A.pairs)) == expected

    @pytest.mark.parametrize(
        "elements, greedy, level, ratio, earlier",
        [
            ((0, 4, 7, 9, 12, 16, 20, 23, 27), (0, 7, 12, 16, 23, 27), (0, 4, 7, 16, 20, 23), Fraction(14, 3), True),
            ((0, 2, 6, 7, 9, 15, 17, 27, 28), (0, 7, 27, 28), (2, 15, 17, 28), Fraction(4), False),
        ],
        ids=["level-set-earlier", "greedy-earlier"],
    )
    def test_tying_candidate_wins_only_when_earlier(self, elements, greedy, level, ratio, earlier):
        # a level set that ties the greedy answer replaces it only when it
        # is lexicographically earlier
        A = SupportSet(5, elements)
        assert _on_masks(A, _greedy_hereditary(A.pairs)) == (greedy, ratio)
        assert energy_ratio(SupportSet(5, level)) == ratio
        y = SpectrumVector(A, [1.0 if a in level else 0.01 for a in elements])
        assert level in [B.elements for _, B in dyadic_level_sets(y).levels]
        res = hereditary_energy(A, exact_limit=0, certificate=y)
        assert not res.exact
        assert (res.best.elements, res.ratio) == (level if earlier else greedy, ratio)

    def test_large_set_skips_greedy(self):
        A = SupportSet.sphere(12, 4)
        assert len(A) > 300
        res = hereditary_energy(A)
        assert not res.exact
        assert res.ratio >= energy_ratio(A)

    def test_certificate_levels_feed_candidates(self):
        # one heavy coordinate and many light ones: the top level set is
        # a singleton with ratio 1, the full set still wins
        A = SupportSet.from_masks(6, list(range(1, 26)))
        coords = np.full(25, 0.1)
        coords[0] = 1.0
        cert = SpectrumVector(A, coords).normalize()
        res = hereditary_energy(A, exact_limit=5, certificate=cert)
        assert not res.exact
        assert res.ratio >= energy_ratio(A)

    @pytest.mark.parametrize("cap", [None, 1])
    def test_subset_energy_matches_brute_force(self, rng, monkeypatch, cap):
        # within the pair cap B's counts are read off the index of A; past
        # it (every set of two or more masks is past a cap of 1) they come
        # from B's own index or its pair table
        if cap is not None:
            monkeypatch.setattr(core, "PAIR_ENUMERATION_LIMIT", cap)
        for _ in range(20):
            A = random_support(rng, 7, 40)
            keep = rng.random(len(A)) < 0.5
            half = tuple(m for m, k in zip(A.elements, keep) if k)
            for masks in (A.elements, half, A.elements[-1:]):
                if masks:
                    B = SupportSet(A.n, masks)
                    assert _subset_energy(A, B) == brute_energy(masks)

    def test_subset_energy_on_masks_beyond_int64(self):
        masks = tuple(sorted((m << 60) ^ m for m in range(1, 25)))
        A = SupportSet(66, masks)
        for sub in (masks, masks[::3], masks[5:9]):
            assert _subset_energy(A, SupportSet(66, sub)) == brute_energy(sub)

    def test_certificate_support_must_match(self):
        A = SupportSet.sphere(4, 1)
        B = SupportSet.sphere(4, 2)
        with pytest.raises(ValueError):
            hereditary_energy(A, certificate=SpectrumVector.uniform(B))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            hereditary_energy(SupportSet(3, ()))
        with pytest.raises(ValueError, match="non-empty subset"):
            HereditaryResult(SupportSet(3, ()), Fraction(1), exact=True)


class TestDyadicLevelSets:
    def test_uniform_four_coordinates(self):
        # coefficients of 1/2 sit in (1/4, 1/2], the second dyadic slice
        y = SpectrumVector.uniform(SupportSet.sphere(4, 1))
        dec = dyadic_level_sets(y)
        assert [i for i, _ in dec.levels] == [2]
        assert dec.levels[0][1].elements == (1, 2, 4, 8)
        assert len(dec.tail) == 0

    def test_exact_powers_of_two_land_in_the_closed_end(self):
        A = SupportSet.from_masks(4, [1, 2, 4])
        coords = np.array([np.sqrt(1.0 - 0.25 - 0.0625), 0.5, 0.25])
        dec = dyadic_level_sets(SpectrumVector(A, coords).normalize())
        by_level = dict(dec.levels)
        assert by_level[2].elements == (2,)
        assert by_level[3].elements == (4,)

    def test_zero_coordinates_are_dropped(self):
        A = SupportSet.from_masks(3, [1, 2])
        y = SpectrumVector(A, [1.0, 0.0])
        dec = dyadic_level_sets(y)
        covered = [m for _, lvl in dec.levels for m in lvl]
        assert covered == [1]
        assert len(dec.tail) == 0

    def test_partition_and_window_invariants(self, rng):
        for _ in range(10):
            A = random_support(rng, 7, 40)
            y = SpectrumVector(A, np.abs(rng.standard_normal(len(A)))).normalize()
            dec = dyadic_level_sets(y)
            value_of = dict(zip(A.elements, y.coords))
            seen = []
            for i, level in dec.levels:
                assert 1 <= i <= dec.cutoff
                for m in level:
                    assert 2.0 ** (-i) < value_of[m] <= 2.0 ** (-(i - 1))
                    seen.append(m)
            for m in dec.tail:
                assert 0.0 < value_of[m] <= 2.0 ** (-dec.cutoff)
                seen.append(m)
            nonzero = [m for m in A if value_of[m] != 0.0]
            assert sorted(seen) == nonzero

    def test_cutoff_depth(self):
        # ceil(log2(size)/2) + 2, and 2 for a single element
        for size, cutoff in ((1, 2), (2, 3), (4, 3), (5, 4), (64, 5), (65, 6)):
            A = SupportSet.from_masks(7, list(range(1, size + 1)))
            dec = dyadic_level_sets(SpectrumVector.uniform(A))
            assert dec.cutoff == cutoff, size

    def test_matches_the_scalar_loop(self, rng):
        # zeros, exact powers of two, values deep in the tail, and masks
        # past 2^62 (an object array of masks)
        sets = [random_support(rng, 9, 200) for _ in range(30)]
        sets += [wide_random(seed, 70, 40) for seed in range(5)]
        for i, A in enumerate(sets):
            values = rng.standard_normal(len(A)) * 10.0 ** -rng.integers(0, 12, len(A))
            if i % 3 == 1:
                values = np.where(rng.random(len(A)) < 0.3, 0.0, values)
            elif i % 3 == 2:
                values = 2.0 ** -rng.integers(0, 30, len(A)).astype(float)
            y = SpectrumVector(A, values)
            dec = dyadic_level_sets(y)
            unit = SpectrumVector(A, np.abs(values)).normalize()
            levels, tail = level_sets_oracle(A.elements, unit.coords.tolist(), dec.cutoff)
            assert [(i, lvl.elements) for i, lvl in dec.levels] == [
                (i, tuple(levels[i])) for i in sorted(levels)
            ]
            assert dec.tail.elements == tuple(tail)

    def test_millions_of_equal_entries(self):
        # C(24, 12) equal entries, as on sphere 24 12: numpy's sum of
        # squares reads 1 + 1.1e-12 for the uniform vector and 1 + 1.5e-12
        # after normalize(), past a fixed tolerance of 1e-12; no ascent runs
        size = math.comb(24, 12)
        A = SupportSet(22, tuple(range(size)))
        y = SpectrumVector(A, np.full(size, 1.0 / math.sqrt(size)))
        unit = y.normalize()
        assert abs(unit.norm_squared() - 1.0) <= size * 2.0**-53
        # 1 / sqrt(size) lies in (2^-11, 2^-10]
        dec = dyadic_level_sets(y)
        assert [(i, len(level)) for i, level in dec.levels] == [(11, size)]
        assert len(dec.tail) == 0

    def test_slices_the_normalized_absolute_values(self, rng):
        # the slices of y are those of normalize() of |y|, bit for bit
        A = random_support(rng, 7, 40)
        y = SpectrumVector(A, rng.standard_normal(len(A)) * 3.0)
        unit = SpectrumVector(A, np.abs(y.coords)).normalize()
        assert dyadic_level_sets(y) == dyadic_level_sets(unit)
        with pytest.raises(ValueError, match="zero vector"):
            dyadic_level_sets(SpectrumVector(A, np.zeros(len(A))))
