"""Dense cube functions, transforms, and support sets."""

import math

import numpy as np
import pytest

from cubequartic import core
from cubequartic.core import (
    CubeFunction,
    Moments,
    PairIndex,
    Spectrum,
    SpectrumVector,
    SupportSet,
    analyze,
    moments,
    support_of,
    synthesize,
    walsh_transform,
)
from cubequartic.errors import ResourceLimitError, UndefinedRatioError

from conftest import brute_energy, character_transform, random_function, wide_random


class TestWalshTransform:
    def test_matches_character_matrix(self, rng):
        # a float transform is one Hadamard block up to n = 6, two up to 12
        for n in range(11):
            values = rng.standard_normal(1 << n)
            fast = walsh_transform(values.copy())
            assert np.allclose(fast, character_transform(values), atol=1e-10)

    def test_integer_valued_floats_match_the_integer_butterfly(self, rng):
        # integer sums below 2^53 are exact in any order, so the blocked
        # float products (three blocks from n = 13) equal the int64 butterfly
        for n in range(17):
            ints = rng.integers(-9, 10, size=1 << n)
            floats = walsh_transform(ints.astype(np.float64))
            assert np.array_equal(floats, walsh_transform(ints).astype(np.float64))

    def test_integer_arrays_stay_integer(self, rng):
        values = rng.integers(-9, 10, size=32)
        out = walsh_transform(values.copy())
        assert out.dtype == values.dtype
        assert np.array_equal(out, character_transform(values).astype(values.dtype))
        # exact past 2^53, where a float route would round
        big = np.array([2**55 + 1, 1, 0, 0], dtype=np.int64)
        assert walsh_transform(big).tolist() == [2**55 + 2, 2**55] * 2

    def test_float32_stays_float32(self, rng):
        values = rng.standard_normal(1 << 9).astype(np.float32)
        out = walsh_transform(values.copy())
        assert out.dtype == np.float32
        assert np.allclose(out, character_transform(values), rtol=1e-5, atol=1e-4)

    def test_non_contiguous_view_is_transformed_in_place(self, rng):
        base = rng.standard_normal(1 << 10)
        view, skipped = base[::2], base[1::2].copy()
        expected = character_transform(view)
        assert walsh_transform(view) is view
        assert np.allclose(base[::2], expected, atol=1e-10)
        assert np.array_equal(base[1::2], skipped)

    def test_rows_of_a_stack_match_the_row_transform(self, rng):
        # floats across one, two and three Hadamard blocks; int64 on the butterfly
        for n in (0, 1, 4, 6, 7, 12, 13):
            floats = rng.standard_normal((5, 1 << n))
            stacked = walsh_transform(floats.copy())
            ints = rng.integers(-9, 10, size=(3, 1 << n))
            stacked_ints = walsh_transform(ints.copy())
            assert stacked_ints.dtype == np.int64
            for row in range(5):
                alone = walsh_transform(floats[row].copy())
                assert np.allclose(stacked[row], alone, rtol=1e-12, atol=1e-12 * (1 << n))
            for row in range(3):
                assert np.array_equal(stacked_ints[row], walsh_transform(ints[row].copy()))

    def test_non_contiguous_stack_is_transformed_in_place(self, rng):
        base = rng.standard_normal((4, 1 << 9))
        view, skipped = base[::2, ::2], base[:, 1::2].copy()
        expected = [character_transform(row) for row in view]
        assert walsh_transform(view) is view
        assert np.allclose(base[::2, ::2], expected, atol=1e-10)
        assert np.array_equal(base[:, 1::2], skipped)

    def test_returns_its_input(self, rng):
        for values in (rng.standard_normal(1 << 8), rng.integers(-9, 10, size=1 << 8)):
            assert walsh_transform(values) is values

    def test_involution_up_to_scale(self, rng):
        values = rng.standard_normal(64)
        twice = walsh_transform(walsh_transform(values.copy()))
        assert np.allclose(twice, 64 * values, atol=1e-9)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            walsh_transform(np.zeros(6))


class TestAnalyzeSynthesize:
    def test_delta_at_zero(self):
        # f = 4 * 1_{x=0} on n=2 has every coefficient equal to 1
        spec = analyze(CubeFunction(2, [4.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(spec.coefficients, np.ones(4))

    def test_uniform_weight_one_pair(self):
        root2 = math.sqrt(2.0)
        coeffs = np.zeros(4)
        coeffs[1] = coeffs[2] = 1.0 / root2
        f = synthesize(Spectrum(2, coeffs))
        assert np.allclose(f.values, [root2, 0.0, 0.0, -root2])

    def test_round_trip(self, rng):
        for n in (1, 3, 5, 8):
            f = random_function(rng, n)
            back = synthesize(analyze(f))
            assert np.allclose(back.values, f.values, atol=1e-11)

    def test_characters_are_orthonormal(self):
        n = 4
        for a in (0, 3, 9, 15):
            values = np.array([(-1.0) ** bin(a & x).count("1") for x in range(16)])
            spec = analyze(CubeFunction(n, values))
            expected = np.zeros(16)
            expected[a] = 1.0
            assert np.allclose(spec.coefficients, expected, atol=1e-12)

    def test_parseval(self, rng):
        f = random_function(rng, 6)
        spec = analyze(f)
        assert math.isclose(
            float(np.mean(np.asarray(f.values) ** 2)),
            float(np.sum(np.asarray(spec.coefficients) ** 2)),
            rel_tol=1e-12,
        )


class TestSupportSet:
    def test_from_masks_sorts_and_rejects_duplicates(self):
        A = SupportSet.from_masks(3, [5, 1, 2])
        assert A.elements == (1, 2, 5)
        with pytest.raises(ValueError):
            SupportSet.from_masks(3, [1, 1])

    def test_mask_range_validation(self):
        with pytest.raises(ValueError):
            SupportSet.from_masks(2, [4])
        with pytest.raises(ValueError):
            SupportSet.from_masks(2, [-1])

    @pytest.mark.parametrize("n,k", [(4, 0), (4, 2), (6, 3), (5, 5)])
    def test_sphere_size(self, n, k):
        assert len(SupportSet.sphere(n, k)) == math.comb(n, k)

    def test_ball_size(self):
        assert len(SupportSet.ball(5, 2)) == 1 + 5 + 10

    def test_span(self):
        V = SupportSet.span(4, [3, 5])
        assert V.elements == (0, 3, 5, 6)
        # closed under addition
        for a in V:
            for b in V:
                assert a ^ b in V

    def test_sphere_radius_detection(self):
        assert SupportSet.sphere(5, 2).sphere_radius() == 2
        assert SupportSet.from_masks(5, [1, 2, 3]).sphere_radius() is None
        # homogeneous but missing an element: not a full sphere
        partial = SupportSet.from_masks(4, [3, 5])
        assert partial.sphere_radius() is None

    def test_weights_and_contains(self):
        A = SupportSet.from_masks(4, [0, 7, 15])
        assert A.weights() == (0, 3, 4)
        assert 7 in A and 8 not in A

    def test_contains_compares_masks_of_any_size(self):
        masks = [0, 5, 1 << 62, (1 << 62) + 1, 1 << 69]
        A = SupportSet.from_masks(70, masks)
        assert all(m in A for m in masks)
        absent = [1, 4, 6, (1 << 62) - 1, (1 << 62) + 2, (1 << 69) + 1, 1 << 80]
        assert not any(m in A for m in absent)
        assert (1 << 64) not in SupportSet.from_masks(4, [0, 7])

    def test_indicator(self):
        A = SupportSet.from_masks(3, [1, 6])
        f = A.indicator()
        assert f.values[1] == 1.0 and f.values[6] == 1.0
        assert float(np.sum(f.values)) == 2.0


class TestSupportSetPairs:
    def test_built_once_per_set(self, monkeypatch):
        built = []
        original = PairIndex.of.__func__

        def counted(cls, masks):
            built.append(len(masks))
            return original(cls, masks)

        monkeypatch.setattr(PairIndex, "of", classmethod(counted))
        A = SupportSet.sphere(5, 2)
        assert A.pairs is A.pairs
        assert A.pairs.energy() == brute_energy(A.elements)
        assert built == [10]

    def test_refused_past_the_cap_before_any_enumeration(self, monkeypatch):
        def refuse(masks):
            raise AssertionError("pair index built past the cap")

        monkeypatch.setattr(core, "PAIR_ENUMERATION_LIMIT", 99)
        monkeypatch.setattr(PairIndex, "of", refuse)
        A = SupportSet.sphere(5, 2)
        assert not A.pairs_within_cap()
        with pytest.raises(ResourceLimitError, match="pair stage"):
            A.pairs

    def test_shared_arrays_are_read_only(self):
        index = SupportSet.sphere(4, 2).pairs
        for array in (index.masks, index.sums, index.counts, index.inverse):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_convolution_computed_once_per_set(self, monkeypatch):
        convolved = []
        original = core._convolution_table

        def counted(A):
            convolved.append(len(A))
            return original(A)

        monkeypatch.setattr(core, "_convolution_table", counted)
        A = SupportSet.sphere(5, 2)
        assert A.convolution is A.convolution
        sums, counts = A.convolution
        assert np.array_equal(sums, A.pairs.sums)
        assert np.array_equal(counts, A.pairs.counts)
        assert convolved == [10]
        for array in (sums, counts):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize("n, dim", [(20, 15), (21, 15)])
    def test_convolution_of_a_subspace(self, monkeypatch, n, dim):
        # |M_x| = |V| for every x in a subspace V, computed on the float
        # transform
        transformed = []
        original = core.walsh_transform

        def recorded(values):
            transformed.append(values.dtype)
            return original(values)

        monkeypatch.setattr(core, "walsh_transform", recorded)
        generators = [1 << i | (7 * i % (1 << (n - dim))) << dim for i in range(dim)]
        V = SupportSet.span(n, generators)
        assert len(V) == 1 << dim
        sums, counts = V.convolution
        assert transformed == [np.float64, np.float64]
        assert sums.dtype == counts.dtype == np.int64
        assert np.array_equal(sums, V.masks_array())
        assert np.array_equal(counts, np.full(len(V), len(V)))


def rank_oracle(masks) -> int:
    """The dimension of the span of the differences a ^ masks[0], by
    elimination on python ints, one element at a time."""
    leading: dict[int, int] = {}
    for mask in masks:
        vector = mask ^ masks[0]
        while vector:
            top = vector.bit_length() - 1
            if top not in leading:
                leading[top] = vector
                break
            vector ^= leading[top]
    return len(leading)


class TestAffineFrame:
    @staticmethod
    def sets(rng):
        """Spheres, balls, translated subspaces and random sets, with masks
        from 2^62 up among them."""
        for n, k in [(1, 0), (1, 1), (6, 0), (6, 6), (6, 3), (9, 1), (11, 4)]:
            yield SupportSet.sphere(n, k)
        yield SupportSet.ball(5, 1)
        yield SupportSet.ball(7, 3)
        for n, generators, shift in [(12, [3, 12, 48, 192], 1025), (40, [7 << 30, 5, 1 << 39], 3 << 20)]:
            V = SupportSet.span(n, generators)
            yield SupportSet.from_masks(n, [m ^ shift for m in V])
        for n, size in [(3, 5), (8, 40), (12, 30)]:
            yield SupportSet.from_masks(n, [int(m) for m in rng.choice(1 << n, size, replace=False)])
        yield wide_random(1, 45, 12)
        yield wide_random(2, 70, 10)
        yield SupportSet(71, (3, 1 << 62, (1 << 62) | 3, 1 << 70))

    def test_coordinates_rebuild_every_element(self, rng):
        for A in self.sets(rng):
            frame = A.affine
            assert frame is A.affine
            assert frame.rank == rank_oracle(A.elements) == len(frame.basis)
            # reduced row-echelon form: increasing pivots, each pivot bit
            # set in its own vector only
            pivots = [vector.bit_length() - 1 for vector in frame.basis]
            assert pivots == sorted(set(pivots))
            for j, pivot in enumerate(pivots):
                assert [v >> pivot & 1 for v in frame.basis] == [int(i == j) for i in range(frame.rank)]
            coords = frame.coords.tolist()
            assert frame.coords.dtype == np.int64
            assert len(set(coords)) == len(A)
            assert all(0 <= c < 1 << frame.rank for c in coords)
            for mask, c in zip(A.elements, coords):
                rebuilt = A.elements[0]
                for j, vector in enumerate(frame.basis):
                    if c >> j & 1:
                        rebuilt ^= vector
                assert rebuilt == mask
            with pytest.raises(ValueError, match="read-only"):
                frame.coords[0] = 0

    def test_rank_of_spheres_and_balls(self):
        # a sphere with 0 < k < n lies in a coset of the even-weight
        # subspace; a ball of radius >= 1 spans the cube
        for n in range(1, 10):
            for k in range(n + 1):
                assert SupportSet.sphere(n, k).affine.rank == (n - 1 if 0 < k < n else 0)
                assert SupportSet.ball(n, k).affine.rank == (n if k else 0)

    def test_rank_above_62_keeps_python_ints(self):
        A = SupportSet.from_masks(80, [0] + [1 << i for i in range(70)])
        frame = A.affine
        assert frame.rank == 70 and frame.coords.dtype == object
        assert frame.coords.tolist() == [0] + [1 << i for i in range(70)]

    def test_empty_set(self):
        frame = SupportSet(5, ()).affine
        assert (frame.rank, frame.basis, len(frame.coords)) == (0, (), 0)

    def test_convolution_runs_at_the_rank(self, rng, monkeypatch):
        # the convolution transforms 2^d entries and maps its sums back to
        # the masks of the pair index, in the same order
        lengths = []
        original = core.walsh_transform

        def recorded(values):
            lengths.append(values.shape[-1])
            return original(values)

        monkeypatch.setattr(core, "walsh_transform", recorded)
        for A in self.sets(rng):
            lengths.clear()
            sums, counts = A.convolution
            assert lengths == [1 << A.affine.rank] * 2
            assert np.array_equal(sums, A.pairs.sums)
            assert np.array_equal(counts, A.pairs.counts)


class TestSpectrumVector:
    def test_uniform_norm(self):
        y = SpectrumVector.uniform(SupportSet.sphere(4, 1))
        assert math.isclose(y.norm_squared(), 1.0, abs_tol=1e-14)

    def test_normalize(self, rng):
        A = SupportSet.from_masks(5, [1, 2, 4, 8, 16])
        y = SpectrumVector(A, rng.standard_normal(5)).normalize()
        assert y.normalized
        assert math.isclose(y.norm_squared(), 1.0, abs_tol=1e-13)

    def test_normalize_zero_raises(self):
        A = SupportSet.from_masks(2, [1])
        with pytest.raises(ValueError):
            SpectrumVector(A, np.zeros(1)).normalize()

    def test_coordinate_count_must_match(self):
        A = SupportSet.from_masks(2, [1, 2])
        with pytest.raises(ValueError):
            SpectrumVector(A, np.ones(3))

    def test_to_function_and_back(self, rng):
        A = SupportSet.from_masks(4, [1, 3, 9])
        y = SpectrumVector(A, rng.standard_normal(3)).normalize()
        spec = analyze(y.to_function())
        dense = np.zeros(16)
        dense[list(A)] = y.coords
        assert np.allclose(spec.coefficients, dense, atol=1e-12)


class TestMoments:
    def test_frozen_example(self):
        m = moments(CubeFunction(1, [2.0, 0.0]))
        assert m == Moments(2.0, 8.0)
        assert math.isclose(m.ratio(), 2.0)

    def test_zero_ratio_raises(self):
        with pytest.raises(UndefinedRatioError):
            moments(CubeFunction(1, [0.0, 0.0])).ratio()


class TestSupportOf:
    def test_function_support(self):
        f = CubeFunction(2, [0.0, 3.0, 0.0, -1.0])
        assert support_of(f).elements == (1, 3)

    def test_spectrum_support_with_tolerance(self):
        spec = Spectrum(2, [1e-14, 1.0, 0.0, 0.5])
        assert support_of(spec, 1e-12).elements == (1, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            CubeFunction(3, np.zeros(4))

    def test_dense_cap(self):
        with pytest.raises(ResourceLimitError):
            SupportSet.from_masks(30, [1]).indicator()
        # a raised cap lets the same call through on a feasible size
        SupportSet.from_masks(16, [1]).indicator(dense_cap=16)


class TestPublicSurface:
    LAYERS = ("core", "additive", "quartic", "spheres", "asymptotics", "reports", "reporting", "errors")

    def test_root_exports_the_union_of_the_layer_lists(self):
        import importlib

        import cubequartic

        layers = [importlib.import_module(f"cubequartic.{name}") for name in self.LAYERS]
        union = {name for layer in layers for name in layer.__all__}
        assert sorted(cubequartic.__all__) == sorted(union | {"__version__"})
        for layer in layers:
            for name in layer.__all__:
                # getattr on the layer raises if a listed name is not defined there
                assert getattr(cubequartic, name) is getattr(layer, name), (layer.__name__, name)
