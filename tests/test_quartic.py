"""The quartic form, its optimiser, and the coordinate-split machinery."""

import dataclasses
import math
import random

import numpy as np
import pytest

from cubequartic import core, quartic
from cubequartic.additive import (
    PairIndex,
    additive_energy,
    energy_ratio,
    hereditary_energy,
    m_bound,
    plan,
)
from cubequartic.asymptotics import f_combine, psi_value
from cubequartic.core import (
    DEFAULT_DENSE_CAP,
    CubeFunction,
    SpectrumVector,
    SupportSet,
    analyze,
    moments,
    walsh_transform,
)
from cubequartic.errors import ResourceLimitError
from cubequartic.quartic import (
    AscentRun,
    BoundSet,
    OptimizerConfig,
    SplitPair,
    big_f,
    decompose_last,
    mu_lower,
    mu_upper,
    shkredov_matrix,
    _ascend,
    _circle_argmax,
    _climb,
    _DenseKernel,
    _gaussian,
    _row_dots,
    _SparseKernel,
)

from conftest import (
    central_difference,
    quartic_oracle,
    random_support,
    random_unit,
    split_curve,
    wide_random,
)

FAST = OptimizerConfig(starts=8, max_iters=2000, seed=1)


def kernel_for(A):
    """The kernel mu_lower builds for A under the default dense cap."""
    if plan(len(A), A.affine.rank).kernel == "sparse":
        return _SparseKernel(A.pairs)
    return _DenseKernel(A)


class TestBigF:
    def test_matches_pair_sum_oracle(self, rng):
        for _ in range(15):
            A = random_support(rng, 6, 20)
            y = SpectrumVector(A, rng.standard_normal(len(A)))
            assert math.isclose(
                big_f(y), quartic_oracle(A, y.coords), rel_tol=1e-11
            )

    def test_matches_fourth_moment_of_synthesis(self, rng):
        for _ in range(10):
            A = random_support(rng, 7, 24)
            y = SpectrumVector(A, rng.standard_normal(len(A)))
            assert math.isclose(
                big_f(y), moments(y.to_function()).fourth, rel_tol=1e-10
            )

    def test_homogeneous_of_degree_four(self, rng):
        A = random_support(rng, 5, 10)
        y = SpectrumVector(A, rng.standard_normal(len(A)))
        scaled = SpectrumVector(A, 3.0 * y.coords)
        assert math.isclose(big_f(scaled), 81.0 * big_f(y), rel_tol=1e-12)

    def test_uniform_vector_gives_energy_ratio(self, rng):
        for _ in range(10):
            A = random_support(rng, 6, 16)
            value = big_f(SpectrumVector.uniform(A))
            assert math.isclose(value, float(energy_ratio(A)), rel_tol=1e-11)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            big_f(SpectrumVector(SupportSet(3, ()), np.zeros(0)))

    def test_masks_beyond_int64(self, rng):
        A = SupportSet(71, (3, 1 << 62, (1 << 62) | 3, 1 << 70))
        for _ in range(3):
            coords = rng.standard_normal(len(A))
            assert math.isclose(
                big_f(SpectrumVector(A, coords)),
                quartic_oracle(A, coords),
                rel_tol=1e-12,
            )


def dense_gradient(y: SpectrumVector) -> np.ndarray:
    """grad F at y through the dense kernel the ascent uses."""
    kernel = _DenseKernel(y.support)
    return kernel.gradient(kernel.evaluate(y.coords)[1])


class TestGradient:
    def test_matches_finite_differences(self, rng):
        for _ in range(6):
            A = random_support(rng, 5, 12)
            coords = rng.standard_normal(len(A))
            grad = dense_gradient(SpectrumVector(A, coords))
            fd = central_difference(
                lambda c: big_f(SpectrumVector(A, c)), coords, 1e-5
            )
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-6)

    def test_is_restricted_cube_spectrum(self, rng):
        A = random_support(rng, 5, 10)
        y = SpectrumVector(A, rng.standard_normal(len(A)))
        f = y.to_function()
        cubed = CubeFunction(f.n, f.values**3)
        expected = 4.0 * analyze(cubed).values[list(A)]
        assert np.allclose(dense_gradient(y), expected, atol=1e-10)

    def test_needs_dense_path(self, monkeypatch):
        # the origin and the 30 unit vectors: affine rank 30, above the cap.
        # Its 961 pairs take the sparse kernel; past a lowered pair cap the
        # gradient would need the dense path, and no kernel is planned
        A = SupportSet.from_masks(30, [0] + [1 << i for i in range(30)])
        assert A.affine.rank == 30
        assert plan(len(A), A.affine.rank).kernel == "sparse"
        monkeypatch.setattr(core, "PAIR_ENUMERATION_LIMIT", 99)
        with pytest.raises(ResourceLimitError, match="estimation stage"):
            plan(len(A), A.affine.rank)
        big_f(SpectrumVector(A, np.ones(len(A))))  # the pair-sum route has no such cap


class TestMatrix:
    def test_quadratic_form_recovers_big_f(self, rng):
        for _ in range(8):
            A = random_support(rng, 5, 12)
            y = SpectrumVector(A, random_unit(rng, len(A)))
            T = shkredov_matrix(A, y)
            assert np.allclose(T, T.T, atol=0)
            assert math.isclose(
                float(y.coords @ T @ y.coords), big_f(y), rel_tol=1e-10
            )

    def test_rayleigh_quotient_bounded_by_top_eigenvalue(self, rng):
        A = random_support(rng, 5, 10)
        y = SpectrumVector(A, random_unit(rng, len(A)))
        T = shkredov_matrix(A, y)
        top = float(np.linalg.eigvalsh(T)[-1])
        assert big_f(y) <= top + 1e-9

    def test_support_mismatch(self):
        A = SupportSet.sphere(3, 1)
        with pytest.raises(ValueError):
            shkredov_matrix(A, SpectrumVector.uniform(SupportSet.sphere(3, 2)))


class TestKernels:
    # spheres, balls, spans and random sets on both sides of |A|^2 = n 2^n
    SETS = [
        SupportSet.sphere(10, 1),
        SupportSet.sphere(9, 2),
        SupportSet.sphere(7, 3),
        SupportSet.sphere(6, 3),
        SupportSet.ball(8, 1),
        SupportSet.ball(6, 2),
        SupportSet.span(7, [3, 12, 48, 65]),
        SupportSet.span(5, [1, 2, 4, 8, 16]),
    ]

    def test_sparse_matches_dense(self, rng):
        sets = self.SETS + [random_support(rng, n, 40) for n in (4, 6, 8, 10)]
        for A in sets:
            sparse = _SparseKernel(PairIndex.of(A.masks))
            dense = _DenseKernel(A)
            # one stack of three vectors, compared row by row
            y = rng.standard_normal((3, len(A)))
            f_sparse, s_state = sparse.evaluate(y)
            f_dense, d_state = dense.evaluate(y)
            assert f_sparse.shape == f_dense.shape == (3,)
            g_sparse = sparse.gradient(s_state)
            g_dense = dense.gradient(d_state)
            assert g_sparse.shape == g_dense.shape == y.shape
            for row in range(3):
                assert math.isclose(f_sparse[row], f_dense[row], rel_tol=1e-12)
                scale = float(np.max(np.abs(g_dense[row])))
                assert np.max(np.abs(g_sparse[row] - g_dense[row])) <= 1e-12 * scale

    def test_choice_follows_pair_count_against_transform_size(self):
        cases = [
            (SupportSet.sphere(14, 2), _SparseKernel),  # 91^2 < 14 * 2^14
            (SupportSet.sphere(11, 3), _DenseKernel),  # 165^2 > 11 * 2^11
            (SupportSet.sphere(6, 3), _DenseKernel),  # 20^2 > 6 * 2^6
            (SupportSet.ball(12, 6), _DenseKernel),
        ]
        for A, kind in cases:
            assert type(kernel_for(A)) is kind


class TestAffineInvariance:
    def test_quantities_match_the_reduced_set(self, rng):
        # A and B = its coordinates in F_2^d (the same set up to an affine
        # bijection) share E, m, the hereditary ratio and F at the same
        # coefficients, through both kernels and big_f
        sets = [random_support(rng, n, 24) for n in (4, 6, 8, 9)]
        sets += [SupportSet.sphere(7, 3), SupportSet.sphere(8, 2), SupportSet.ball(6, 2), SupportSet.ball(7, 1)]
        sets += [wide_random(3, 45, 12), wide_random(4, 70, 10)]
        for n, generators, shift in [(12, [3, 12, 48], 1025), (40, [7 << 30, 5, 1 << 39], 3 << 20)]:
            V = SupportSet.span(n, generators)
            # a coset and a coset plus one more point
            coset = [m ^ shift for m in V]
            sets.append(SupportSet.from_masks(n, coset))
            sets.append(SupportSet.from_masks(n, coset + [(1 << (n - 1)) ^ 6]))
        for A in sets:
            frame = A.affine
            B = SupportSet.from_masks(frame.rank, frame.coords.tolist())
            assert additive_energy(A) == additive_energy(B)
            assert m_bound(A) == m_bound(B)
            if len(A) <= 14:
                exact_a = hereditary_energy(A, exact_limit=len(A))
                exact_b = hereditary_energy(B, exact_limit=len(B))
                assert exact_a.ratio == exact_b.ratio
            # B's elements are the coordinates in increasing order
            order = np.argsort(frame.coords)
            y = rng.standard_normal((2, len(A)))
            values = []
            for S, z in ((A, y), (B, y[:, order])):
                values.append(_DenseKernel(S).evaluate(z)[0])
                values.append(_SparseKernel(S.pairs).evaluate(z)[0])
                values.append(np.array([big_f(SpectrumVector(S, row)) for row in z]))
            for value in values[1:]:
                assert np.allclose(value, values[0], rtol=1e-12, atol=0.0), A


def both_kernels(A):
    return _SparseKernel(PairIndex.of(A.masks)), _DenseKernel(A)


def circle_quartic(coefficients, theta):
    """sum_i C(4, i) m_i cos^(4-i) sin^i at theta, term by term."""
    c, s = math.cos(theta), math.sin(theta)
    return sum(
        math.comb(4, i) * float(m) * c ** (4 - i) * s**i
        for i, m in enumerate(coefficients)
    )


class _RecordingKernel:
    """Forwards to a kernel and records every great-circle step of an ascent.

    Its state carries each row's id, point y and value ahead of the
    kernel's own arrays, so the ascent drops a row from all of them at
    once.  It follows each row's point from its start and through every
    step the ascent takes (F rises along d and F(new) >= F(old)); the
    test checks each row ends where it does.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.steps = []  # (y, d, value reached)
        self.last = {}  # row id -> (y, value) of its start or last step

    def evaluate(self, coords, row_sets=None):
        value, state = self.kernel.evaluate(coords, row_sets)
        ids = np.arange(len(coords))
        self.last = {row: (coords[row], value[row]) for row in ids.tolist()}
        return value, (ids, coords, value) + state

    def gradient(self, state):
        return self.kernel.gradient(state[3:])

    def circle(self, state, direction):
        coefficients, arc = self.kernel.circle(state[3:], direction)
        return coefficients, (direction, coefficients[:, 1] > 0.0, arc)

    def move(self, state, arc, c, s):
        ids, y, value = state[:3]
        direction, uphill, inner_arc = arc
        value_new, inner_new = self.kernel.move(state[3:], inner_arc, c, s)
        y_new = c[:, None] * y + s[:, None] * direction
        for row in np.nonzero(uphill & (value_new >= value))[0]:
            self.steps.append((y[row], direction[row], value_new[row]))
            self.last[int(ids[row])] = (y_new[row], value_new[row])
        return value_new, (ids, y_new, value_new) + inner_new


class _DirectionRecorder(_RecordingKernel):
    """A ``_RecordingKernel`` that also records, for every row of every
    move, the row's id, its point y, the tangent gradient g at y, the
    search direction d and the step's cos t and sin t."""

    def __init__(self, kernel):
        super().__init__(kernel)
        self.moves = []  # (row id, y, g, d, c, s)

    def gradient(self, state):
        grad = super().gradient(state)
        ids, y = state[:2]
        # the ascent's own products, twice: near a stationary point any other
        # rounding moves the tangent by eps |grad| relative to its size
        tangent = grad
        for _ in range(2):
            tangent = tangent - _row_dots(tangent, y)[:, None] * y
        self.tangents = dict(zip(ids.tolist(), tangent))
        return grad

    def move(self, state, arc, c, s):
        ids, y = state[:2]
        for row, row_id in enumerate(ids.tolist()):
            step = (y[row], self.tangents[row_id], arc[0][row], c[row], s[row])
            self.moves.append((row_id,) + step)
        return super().move(state, arc, c, s)


class _FallingKernel:
    """Forwards to a kernel, except that its move number ``fall_at``
    reports F = 1/2 on every row, below F's minimum of 1 on the unit
    sphere, so that no row may take that step."""

    def __init__(self, kernel, fall_at):
        self.kernel, self.fall_at, self.moves = kernel, fall_at, 0

    def __getattr__(self, name):
        return getattr(self.kernel, name)

    def move(self, state, arc, c, s):
        value, new_state = self.kernel.move(state, arc, c, s)
        self.moves += 1
        if self.moves == self.fall_at:
            value = np.full_like(value, 0.5)
        return value, new_state


class TestLineSearch:
    def test_circle_coefficients_match_the_oracle(self, rng):
        # random sets on both sides of |A|^2 = n 2^n
        sets = [random_support(rng, n, 40) for n in (4, 5, 6, 8, 10)]
        sets += [SupportSet.sphere(6, 3), SupportSet.sphere(10, 1)]
        thetas = np.linspace(-math.pi / 2, math.pi / 2, 16)
        for A in sets:
            # a stack of two circles, checked row by row
            y = np.array([random_unit(rng, len(A)) for _ in range(2)])
            d = rng.standard_normal((2, len(A)))
            for kernel in both_kernels(A):
                _, state = kernel.evaluate(y)
                coefficients, arc = kernel.circle(state, d)
                assert coefficients.shape == (2, 5)
                for theta in thetas:
                    c, s = math.cos(theta), math.sin(theta)
                    moved = kernel.move(state, arc, np.full(2, c), np.full(2, s))[0]
                    for row in range(2):
                        expected = quartic_oracle(A, c * y[row] + s * d[row])
                        assert math.isclose(
                            circle_quartic(coefficients[row], theta), expected, rel_tol=1e-10
                        )
                        assert math.isclose(moved[row], expected, rel_tol=1e-10)

    def test_each_step_reaches_the_circle_maximum(self, rng):
        grid = np.arange(720) * (math.pi / 720)  # F has period pi on the circle
        cfg = OptimizerConfig(max_iters=6)
        for A in (random_support(rng, 5, 14), random_support(rng, 6, 18)):
            for kernel in both_kernels(A):
                recorder = _RecordingKernel(kernel)
                y_end, value_end, _, _ = _ascend(recorder, rng.standard_normal((3, len(A))), cfg)
                for row in range(3):
                    y_last, value_last = recorder.last[row]
                    assert np.array_equal(y_last, y_end[row]) and value_last == value_end[row]
                assert recorder.steps
                for y, d, value in recorder.steps:
                    best = max(
                        big_f(SpectrumVector(A, math.cos(t) * y + math.sin(t) * d))
                        for t in grid
                    )
                    assert value >= best - 1e-12 * best

    def test_search_direction_follows_the_restart_rule(self, rng):
        cfg = OptimizerConfig(max_iters=40)
        restarts = conjugate = 0
        for A in (random_support(rng, 5, 14), random_support(rng, 6, 18), SupportSet.sphere(6, 3)):
            for kernel in both_kernels(A):
                recorder = _DirectionRecorder(kernel)
                _ascend(recorder, rng.standard_normal((3, len(A))), cfg)
                # row id -> its last g and search vector p carried to its
                # point, or None once the row has been left unchecked
                last = {}
                for row_id, y, g, d, c, s in recorder.moves:
                    assert abs(np.dot(d, d) - 1.0) <= 1e-12
                    assert abs(np.dot(d, y)) <= 1e-12
                    assert np.dot(g, d) > 0.0
                    g2, p, atol = np.dot(g, g), g, 1e-12
                    if row_id in last:
                        if last[row_id] is None:
                            continue
                        g_last, p_last = last[row_id]
                        cross = np.dot(g, g_last)
                        beta = (g2 - cross) / np.dot(g_last, g_last)
                        slope = g2 + beta * np.dot(g, p_last)
                        # a row whose rule sits within rounding of its boundary
                        # is left unchecked from there on
                        if min(abs(abs(cross) - 0.1 * g2), abs(slope)) <= 1e-9 * g2:
                            last[row_id] = None
                            continue
                        if abs(cross) >= 0.1 * g2 or slope <= 0.0:
                            restarts += 1
                        else:
                            # PR+: beta > 0 here, as g.g_ < 0.1 g.g
                            p, atol = g + beta * p_last, 1e-10
                            conjugate += 1
                    assert np.allclose(d, p / np.linalg.norm(p), rtol=0.0, atol=atol)
                    last[row_id] = g, np.linalg.norm(p) * (c * d - s * y)
        # both rules are exercised
        assert restarts and conjugate

    def test_a_step_that_lowers_f_ends_the_run(self, rng):
        cfg = OptimizerConfig(max_iters=6)
        A = random_support(rng, 6, 18)
        for kernel in both_kernels(A):
            recorder = _RecordingKernel(_FallingKernel(kernel, fall_at=3))
            y_end, value_end, iterations, exits = _ascend(
                recorder, rng.standard_normal((3, len(A))), cfg
            )
            assert exits == ["no-uphill"] * 3 and iterations.tolist() == [3] * 3
            # each row ends at its second step, not at the rejected third
            assert len(recorder.steps) == 6
            for row in range(3):
                y_last, value_last = recorder.last[row]
                assert np.array_equal(y_last, y_end[row]) and value_last == value_end[row]

    def test_no_step_when_f_does_not_rise_along_d(self):
        # row 0: F = cos^4 + sin^4 on the circle, flat at t = 0, so no uphill
        # step; row 1: near t = 0, F = 1 + 4e-3 t - 2 t^2 + O(t^3), so the
        # top is near t = 1e-3; both in one stack
        c, s, uphill = _circle_argmax(
            np.array([[1.0, 0.0, 0.0, 0.0, 1.0], [1.0, 1e-3, 0.0, 0.0, 1.0]])
        )
        assert uphill.tolist() == [False, True]
        assert c[1] > 0.0 and abs(s[1] - 1e-3) < 1e-5
        # a stack of one is the same rule
        assert not _circle_argmax(np.array([[1.0, 0.0, 0.0, 0.0, 1.0]]))[2][0]

    def _count_transforms(self, monkeypatch, A, cfg=FAST):
        """mu_lower on A, and the number of rows of each transform call."""
        import cubequartic.quartic

        calls = []

        def counted(values):
            calls.append(values.size // values.shape[-1])
            return walsh_transform(values)

        monkeypatch.setattr(cubequartic.quartic, "walsh_transform", counted)
        return mu_lower(A, cfg), calls

    def test_dense_route_runs_two_transforms_per_step(self, monkeypatch):
        A = SupportSet.sphere(7, 3)
        assert type(kernel_for(A)) is _DenseKernel
        est, calls = self._count_transforms(monkeypatch, A)
        # transformed rows, per start: one to evaluate it, then the
        # gradient and the transform of the direction in each iteration,
        # except the last iteration of a run that stops at a stationary
        # point, which only computes the gradient; and one for the
        # certificate
        expected = 1 + sum(
            1 + 2 * run.iterations - (run.exit == "stationary") for run in est.runs
        )
        assert sum(calls) == expected
        assert any(run.exit != "stationary" for run in est.runs)

    def test_each_phase_runs_as_one_stack(self, monkeypatch):
        # one evaluation and at most two transforms per step for the whole
        # stack of a phase, plus the certificate's: the call count follows
        # the longest run of each phase, not the number of starts
        A = SupportSet.sphere(7, 3)
        for starts in (4, 32):
            cfg = dataclasses.replace(FAST, starts=starts)
            with monkeypatch.context() as patch:
                est, calls = self._count_transforms(patch, A, cfg)
            first = [run.iterations for run in est.runs if run.kind != "level"]
            level = [run.iterations for run in est.runs if run.kind == "level"]
            assert len(first) == 1 + starts
            assert len(calls) <= 2 * (max(first) + max(level, default=0)) + 3

    def test_sparse_route_runs_no_transform(self, monkeypatch):
        A = SupportSet.sphere(12, 2)
        assert type(kernel_for(A)) is _SparseKernel
        est, calls = self._count_transforms(monkeypatch, A)
        assert calls == [] and est.iterations > 0


class TestStackedAscent:
    # sets on both kernels: spheres, a span and random masks
    SETS = [
        SupportSet.sphere(6, 3),
        SupportSet.sphere(7, 3),
        SupportSet.sphere(10, 1),
        SupportSet.sphere(9, 2),
        SupportSet.span(6, [3, 12, 48]),
    ]

    def test_each_row_ends_as_its_start_alone(self):
        rng = np.random.default_rng(12)
        sets = self.SETS + [random_support(rng, n, 24) for n in (5, 7, 9)]
        cfg = OptimizerConfig(max_iters=400)
        kinds = set()
        for A in sets:
            kernel = kernel_for(A)
            kinds.add(type(kernel))
            starts = np.vstack([np.ones(len(A)), rng.standard_normal((6, len(A)))])
            ys, values, iterations, exits = _ascend(kernel, starts, cfg)
            for row, start in enumerate(starts):
                y, value, alone_iterations, alone_exit = _ascend(kernel, start[None], cfg)
                assert exits[row] == alone_exit[0], (A, row)
                assert iterations[row] == alone_iterations[0], (A, row)
                assert math.isclose(values[row], value[0], rel_tol=1e-12), (A, row)
                # unit vectors, so an absolute bound is relative to the norm
                assert np.allclose(ys[row], y[0], rtol=0.0, atol=1e-12), (A, row)
        assert kinds == {_DenseKernel, _SparseKernel}

    def test_stack_size_is_capped(self, monkeypatch):
        import cubequartic.quartic

        # S(8,3) has affine rank 7, so 4 rows of 2^7 entries fit under a
        # cap of 512 entries
        A = SupportSet.sphere(8, 3)
        assert A.affine.rank == 7
        monkeypatch.setattr(cubequartic.quartic, "_STACK_ENTRIES", 512)
        est, calls = TestLineSearch()._count_transforms(monkeypatch, A)
        assert max(calls) == 4 and len(est.runs) > 4

    def test_pad_slots_stay_zero_in_a_pooled_stack(self):
        # S(3,1) (3 elements, rank 2) pooled with S(8,4) (70 elements,
        # rank 7): the S(3,1) row has 67 pad slots in a stack of width 2^7
        small, large = SupportSet.sphere(3, 1), SupportSet.sphere(8, 4)
        rng = np.random.default_rng(5)
        starts = rng.standard_normal((2, len(large)))
        starts[0, len(small) :] = 0.0
        row_sets = np.array([0, 1])
        pooled = _DenseKernel(small, large)
        for steps in (1, 2):
            cfg = OptimizerConfig(max_iters=steps)
            recorder = _DirectionRecorder(pooled)
            ys, values, _, _ = _ascend(recorder, starts, cfg, row_sets)
            # every step's y, tangent gradient and direction on the S(3,1) row
            moves = [move for move in recorder.moves if move[0] == 0]
            assert len(moves) == steps
            for _, y, g, d, _, _ in moves:
                for vector in (y, g, d):
                    assert not np.any(vector[len(small) :])
            assert not np.any(ys[0, len(small) :])
            _, state = pooled.evaluate(ys, row_sets)
            assert not np.any(pooled.gradient(state)[0, len(small) :])
            _, alone, _, _ = _ascend(_DenseKernel(small), starts[:1, : len(small)], cfg)
            assert math.isclose(values[0], alone[0], rel_tol=1e-12)

    def test_pad_coefficients_stay_zero_in_a_pooled_sparse_stack(self):
        # S(3,1) (3 elements) pooled with S(8,2) (28 elements): the S(3,1)
        # row has 25 pad coefficients, whose pairs fall into the dump bin
        small, large = SupportSet.sphere(3, 1), SupportSet.sphere(8, 2)
        rng = np.random.default_rng(5)
        starts = rng.standard_normal((2, len(large)))
        starts[0, len(small) :] = 0.0
        row_sets = np.array([0, 1])
        pooled = _SparseKernel(small.pairs, large.pairs)
        for steps in (1, 2):
            cfg = OptimizerConfig(max_iters=steps)
            recorder = _DirectionRecorder(pooled)
            ys, values, _, _ = _ascend(recorder, starts, cfg, row_sets)
            moves = [move for move in recorder.moves if move[0] == 0]
            assert len(moves) == steps
            for _, y, g, d, _, _ in moves:
                for vector in (y, g, d):
                    assert not np.any(vector[len(small) :])
            assert not np.any(ys[0, len(small) :])
            _, state = pooled.evaluate(ys, row_sets)
            assert not np.any(pooled.gradient(state)[0, len(small) :])
            _, alone, _, _ = _ascend(_SparseKernel(small.pairs), starts[:1, : len(small)], cfg)
            assert math.isclose(values[0], alone[0], rel_tol=1e-12)

    def test_pooled_stacks_are_capped(self, monkeypatch):
        import cubequartic.quartic

        # the 7 first-phase rows of S(3,1) (rank 2) fit in one stack of
        # width 2^2; the rows of S(8,3) and S(8,4) (rank 7) go 4 to a stack
        monkeypatch.setattr(cubequartic.quartic, "_STACK_ENTRIES", 512)
        shapes = []

        def counted(values):
            shapes.append(values.shape)
            return walsh_transform(values)

        monkeypatch.setattr(cubequartic.quartic, "walsh_transform", counted)
        sets = [SupportSet.sphere(8, 4), SupportSet.sphere(3, 1), SupportSet.sphere(8, 3)]
        cfg = OptimizerConfig(starts=6, max_iters=3)
        estimates = _climb([(A, ()) for A in sets], cfg, DEFAULT_DENSE_CAP)
        assert [est.starts_used > 7 for est in estimates] == [True] * 3
        assert all(rows * width <= 512 for rows, width in shapes)
        assert (7, 4) in shapes and (4, 128) in shapes


class TestSparseBlocks:
    @staticmethod
    def _rows(rng, A, blocks):
        """A stack that fills ``blocks`` blocks of the sparse kernel and
        part of one more."""
        rows = blocks * max(1, quartic._BLOCK_PAIRS // len(A) ** 2) + 1
        return rng.standard_normal((rows, len(A))), rng.standard_normal((rows, len(A)))

    def test_a_one_set_stack_matches_the_rows_alone_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for A in (SupportSet.sphere(14, 2), wide_random(8, 10, 40)):
            index = A.pairs
            y, d = self._rows(rng, A, 3)
            kernel = _SparseKernel(index)
            value, state = kernel.evaluate(y)
            assert len(state[2].blocks) == 4
            # before and after a row drop, as the ascent drops them
            keep = np.ones(len(y), dtype=bool)
            keep[[1, len(y) // 2]] = False
            for kept in (slice(None), keep):
                if kept is keep:
                    value, state = value[keep], tuple(part[keep] for part in state)
                rows_y, rows_d = y[kept], d[kept]
                sums = np.array([index.pair_sums(row) for row in rows_y])
                assert np.array_equal(value, _row_dots(sums, sums))
                expected = 4.0 * np.array([p[index.inverse] @ row for row, p in zip(rows_y, sums)])
                assert np.array_equal(kernel.gradient(state), expected)
                coefficients, _ = kernel.circle(state, rows_d)
                cross = np.array([index.pair_sums(a, b) for a, b in zip(rows_y, rows_d)])
                square = np.array([index.pair_sums(row) for row in rows_d])
                assert np.array_equal(state[1][:, 1], cross)
                assert np.array_equal(state[1][:, 2], square)
                for row, (a, b) in enumerate(zip(rows_y, rows_d)):
                    _, alone = kernel.evaluate(a[None])
                    assert np.array_equal(kernel.circle(alone, b[None])[0][0], coefficients[row])

    def test_a_pooled_stack_matches_each_set_alone(self, monkeypatch):
        # blocks of at most 400 pair entries cut these 15 rows into blocks
        # of one set and blocks that mix sets, before and after rows drop
        monkeypatch.setattr(quartic, "_BLOCK_PAIRS", 400)
        rng = np.random.default_rng(10)
        sets = [SupportSet.sphere(n, k) for n, k in ((4, 1), (6, 1), (7, 1), (5, 2), (6, 2))]
        row_sets = np.repeat(np.arange(len(sets)), 3)
        width = max(len(A) for A in sets)
        y, d = np.zeros((2, len(row_sets), width))
        for row, j in enumerate(row_sets):
            y[row, : len(sets[j])], d[row, : len(sets[j])] = rng.standard_normal((2, len(sets[j])))
        pooled = _SparseKernel(*[A.pairs for A in sets])
        value, state = pooled.evaluate(y, row_sets)
        # rows 0-7 (S(4,1), S(6,1), S(7,1)) and 8-11 (S(7,1), S(5,2)) mix
        # sets, padded to 7 and 10; S(6,2) fills one row per block
        assert [(lo, length) for lo, _, length, _, _ in state[2].blocks] == [
            (0, 7), (8, 10), (12, 15), (13, 15), (14, 15)
        ]
        keep = np.arange(len(row_sets)) % 4 != 1
        for kept in (np.ones(len(row_sets), dtype=bool), keep):
            state = tuple(part[kept] for part in state) if kept is keep else state
            value = value[kept]
            grad = pooled.gradient(state)
            coefficients, _ = pooled.circle(state, d[kept])
            for row, (j, a, b) in enumerate(zip(row_sets[kept], y[kept], d[kept])):
                size = len(sets[j])
                alone = _SparseKernel(sets[j].pairs)
                f, solo = alone.evaluate(a[None, :size])
                assert math.isclose(value[row], f[0], rel_tol=1e-12)
                assert np.allclose(grad[row, :size], alone.gradient(solo)[0], rtol=1e-12, atol=0.0)
                assert not np.any(grad[row, size:])
                expected = alone.circle(solo, b[None, :size])[0][0]
                assert np.allclose(coefficients[row], expected, rtol=1e-12, atol=1e-12)

    def test_a_one_set_kernel_holds_no_index_over_all_rows(self):
        rng = np.random.default_rng(9)
        for A in (SupportSet.sphere(16, 2), SupportSet.sphere(10, 1)):
            pairs = len(A) ** 2
            block = max(quartic._BLOCK_PAIRS, pairs)
            y, d = self._rows(rng, A, 3)
            assert len(y) * pairs > 2 * block
            kernel = _SparseKernel(A.pairs)
            _, state = kernel.evaluate(y)
            kernel.gradient(state)
            kernel.circle(state, d)
            state = tuple(part[np.arange(len(y)) % 3 > 0] for part in state)
            kernel.gradient(state)
            held = [*kernel.full, kernel.scratch] + [index for *_, index in state[2].blocks]
            assert all(array.size <= block for array in held)
            assert all(np.shares_memory(index, kernel.full[0]) for *_, index in state[2].blocks)


class TestMuLower:
    def test_singleton_short_circuit(self):
        est = mu_lower(SupportSet.from_masks(4, [9]))
        assert est.value == 1.0
        assert est.starts_used == 1 and est.iterations == 0
        assert est.converged
        assert len(est.runs) == 1

    def test_runs_record_every_start(self, rng):
        EXITS = {"stationary", "no-uphill", "window", "iteration-cap"}
        A = SupportSet.from_masks(7, [int(m) for m in rng.choice(128, 24, replace=False)])
        extra = SpectrumVector(A, rng.standard_normal(len(A)))
        for cfg in (FAST, OptimizerConfig(starts=5, max_iters=2, seed=2)):
            est = mu_lower(A, cfg, extra_starts=(extra,))
            kinds = [run.kind for run in est.runs]
            assert len(est.runs) == est.starts_used
            assert kinds[: 2 + cfg.starts] == ["uniform", "extra"] + ["gaussian"] * cfg.starts
            assert set(kinds[2 + cfg.starts :]) <= {"level"}
            assert sum(run.iterations for run in est.runs) == est.iterations
            assert all(run.exit in EXITS for run in est.runs)
            best = max(est.runs, key=lambda run: run.value)
            assert est.converged == (best.exit != "iteration-cap")
            assert math.isclose(est.value, best.value, rel_tol=1e-12)
            # two iterations leave the best run of this set at the cap
            assert est.converged == (cfg is FAST)

    def test_conjugate_directions_shorten_the_uniform_run(self):
        # the 72 random masks in n = 14 of the benchmark's analyze-sparse
        # workload, drawn the same way; the uniform start took 123
        # iterations by steepest ascent and takes about 25 by conjugate
        # directions, with room left for other numpy versions
        masks = random.Random("0:14:72").sample(range(1 << 14), 72)
        est = mu_lower(SupportSet.from_masks(14, masks), OptimizerConfig(starts=0))
        assert est.runs[0].kind == "uniform"
        assert est.runs[0].iterations <= 40

    def test_subspace_reaches_its_size(self):
        V = SupportSet.span(4, [3, 5])
        est = mu_lower(V, FAST)
        assert math.isclose(est.value, 4.0, rel_tol=1e-9)

    def test_weight_one_sphere_bracket(self):
        for n in range(2, 7):
            A = SupportSet.sphere(n, 1)
            est = mu_lower(A, FAST)
            assert est.value >= float(energy_ratio(A)) - 1e-9
            assert est.value <= 3.0 + 1e-9

    def test_value_is_big_f_at_the_certificate(self, rng):
        A = random_support(rng, 5, 12)
        est = mu_lower(A, FAST)
        assert math.isclose(est.certificate.norm_squared(), 1.0, abs_tol=1e-14)
        assert est.value == big_f(est.certificate)

    def test_dense_route_value_is_big_f_at_the_certificate(self, monkeypatch):
        import cubequartic.quartic

        def refuse(y):
            raise AssertionError("mu_lower evaluated F a second way")

        for A in (SupportSet.sphere(6, 3), SupportSet.ball(8, 3)):
            assert type(kernel_for(A)) is _DenseKernel
            with monkeypatch.context() as patch:
                patch.setattr(cubequartic.quartic, "big_f", refuse)
                est = mu_lower(A, FAST)
            assert math.isclose(est.value, big_f(est.certificate), rel_tol=1e-12)

    def test_uniform_start_pins_the_energy_ratio(self, rng):
        for _ in range(5):
            A = random_support(rng, 6, 16)
            est = mu_lower(A, OptimizerConfig(starts=0, max_iters=50, seed=0))
            assert est.value >= float(energy_ratio(A)) - 1e-9

    def test_deterministic_under_seed(self):
        A = SupportSet.sphere(5, 2)
        one = mu_lower(A, FAST)
        two = mu_lower(A, FAST)
        assert one.value == two.value
        assert np.array_equal(one.certificate.coords, two.certificate.coords)

    def test_seeds_give_different_certificates(self, rng):
        # on these 12 masks a gaussian start wins for both seeds
        A = SupportSet.from_masks(8, [int(m) for m in rng.choice(256, 12, replace=False)])
        cfg = OptimizerConfig(starts=8, max_iters=30)
        one = mu_lower(A, cfg)
        other = mu_lower(A, dataclasses.replace(cfg, seed=1))
        gap = np.max(np.abs(one.certificate.coords - other.certificate.coords))
        assert gap > 1e-3

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_gaussian_reads_the_random_stream(self, seed):
        # the bulk read gives Box-Muller over the floats of 2 * size
        # random() calls, and leaves the generator where those calls would
        for size in (0, 1, 2, 7, 330, 1000):
            bulk, calls = random.Random(seed), random.Random(seed)
            for _ in range(2):
                u = np.array([calls.random() for _ in range(2 * size)])
                expected = np.sqrt(-2.0 * np.log1p(-u[:size])) * np.cos(2.0 * math.pi * u[size:])
                assert np.array_equal(_gaussian(bulk, size), expected)
            assert bulk.random() == calls.random()

    def test_cosets_are_exact_without_a_kernel(self, monkeypatch):
        # |A| = 2^d: a coset of a subspace, where F <= |A| is reached at
        # the uniform vector; no kernel is built and no step is taken
        import cubequartic.quartic

        def refuse(*args):
            raise AssertionError("planned a kernel for a coset")

        monkeypatch.setattr(cubequartic.quartic, "plan", refuse)
        cosets = [SupportSet.from_masks(4, [9]), SupportSet.sphere(2, 1)]
        for n, generators, shift in [(12, [3, 12, 48, 192], 1025), (40, [7 << 30, 5, 1 << 39, 6], 3 << 20)]:
            V = SupportSet.span(n, generators)
            cosets.append(SupportSet.from_masks(n, [m ^ shift for m in V]))
        for A in cosets:
            est = mu_lower(A, FAST)
            size = float(len(A))
            assert est.value == size
            assert est.runs == (AscentRun("uniform", size, 0, "stationary"),)
            assert est.starts_used == 1 and est.iterations == 0 and est.converged
            assert np.array_equal(est.certificate.coords, SpectrumVector.uniform(A).coords)
            assert math.isclose(big_f(est.certificate), size, rel_tol=1e-12)

    def test_gaussian_draws_are_standard_normal(self):
        draws = _gaussian(random.Random(0), 100_000)
        assert draws.shape == (100_000,) and np.all(np.isfinite(draws))
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.02

    def test_extra_start_support_must_match(self):
        A = SupportSet.sphere(3, 1)
        wrong = SpectrumVector.uniform(SupportSet.sphere(3, 2))
        with pytest.raises(ValueError):
            mu_lower(A, FAST, extra_starts=(wrong,))

    def test_supports_in_another_dimension_are_refused(self):
        # A's masks in dimension n + 1: the same elements, another set
        A = SupportSet.sphere(3, 1)
        lifted = SpectrumVector.uniform(SupportSet(4, A.elements))
        with pytest.raises(ValueError, match="extra start"):
            mu_lower(A, FAST, extra_starts=(lifted,))
        with pytest.raises(ValueError, match="certificate"):
            hereditary_energy(A, certificate=lifted)
        with pytest.raises(ValueError, match="does not match"):
            shkredov_matrix(A, lifted)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mu_lower(SupportSet(3, ()))

    def test_dimension_cap(self, monkeypatch):
        # the origin and the 30 unit vectors: affine rank 30, above the
        # cap, and (under a lowered pair cap) 961 pairs past the sparse route
        monkeypatch.setattr(core, "PAIR_ENUMERATION_LIMIT", 99)
        A = SupportSet.from_masks(30, [0] + [1 << i for i in range(30)])
        with pytest.raises(ResourceLimitError, match="affine rank 30"):
            mu_lower(A, FAST)

    def test_check_dense_rank(self, monkeypatch):
        # past a lowered pair cap, S(5, 2) (affine rank 4, wherever it sits
        # in the cube) has only the dense kernel
        monkeypatch.setattr(core, "PAIR_ENUMERATION_LIMIT", 99)
        A = SupportSet.sphere(5, 2)
        assert plan(len(A), A.affine.rank, 4).kernel == "dense"
        with pytest.raises(
            ResourceLimitError,
            match=r"^estimation stage: affine rank 4 exceeds the dense cap 3, and "
            r"the 100 pairs of a 10-element set exceed the enumeration cap 99$",
        ):
            mu_lower(A, FAST, dense_cap=3)
        # coordinates past rank 62 leave int64, whatever the cap
        with pytest.raises(ResourceLimitError, match="affine rank 63 exceeds the dense cap 62,"):
            plan(64, 63, 100)


class TestMuUpper:
    def test_weight_one_sphere(self):
        bounds = mu_upper(SupportSet.sphere(3, 1))
        assert bounds.cardinality_bound == 3
        assert bounds.multiplicity_bound == 3
        assert bounds.sphere_sum_bound == 3
        assert math.isclose(
            bounds.sphere_psi_bound, 2.0 ** (3 * psi_value(1.0 / 3.0)), rel_tol=1e-12
        )
        assert bounds.best == 3.0

    def test_weight_two_sphere(self):
        bounds = mu_upper(SupportSet.sphere(4, 2))
        assert bounds.cardinality_bound == 6
        assert bounds.multiplicity_bound == 7
        assert bounds.sphere_psi_bound == 16.0
        assert bounds.sphere_sum_bound == 15
        assert bounds.best == 6.0

    def test_non_sphere_gets_no_sphere_bounds(self):
        bounds = mu_upper(SupportSet.span(4, [3, 5]))
        assert bounds.sphere_psi_bound is None
        assert bounds.sphere_sum_bound is None
        assert bounds.best == 4.0

    def test_upper_half_sphere_skips_psi(self):
        bounds = mu_upper(SupportSet.sphere(4, 3))
        assert bounds.sphere_psi_bound is None
        assert bounds.sphere_sum_bound == sum(
            math.comb(2 * t, t) * math.comb(3, t) ** 2 for t in range(4)
        )

    def test_sandwiches_the_lower_estimate(self, rng):
        for _ in range(6):
            A = random_support(rng, 5, 12)
            assert mu_lower(A, FAST).value <= mu_upper(A).best + 1e-8

    def test_cube_of_dimension_zero(self):
        # S(0, 0) is the single empty mask; its envelope is 2^0 = 1
        bounds = mu_upper(SupportSet.sphere(0, 0))
        assert bounds.sphere_psi_bound == 1.0
        assert bounds.best == 1.0

    def test_bound_set_validation(self):
        with pytest.raises(ValueError):
            BoundSet(0, 4, None, None)


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(starts=-1)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)
        with pytest.raises(ValueError):
            OptimizerConfig(tol=-1.0)
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError):
                OptimizerConfig(tol=tol)
        # random.Random(-1) would silently equal seed 1
        with pytest.raises(ValueError):
            OptimizerConfig(seed=-1)
        assert OptimizerConfig(starts=0, tol=0.0, seed=0).seed == 0


class TestSplit:
    def test_reconstruction(self, rng):
        f = CubeFunction(5, rng.standard_normal(32))
        pair = decompose_last(f)
        half = 16
        assert np.allclose(pair.g0.values + pair.g1.values, f.values[:half])
        assert np.allclose(pair.g0.values - pair.g1.values, f.values[half:])

    def test_sphere_support_splits_by_last_bit(self, rng):
        A = SupportSet.sphere(6, 3)
        y = SpectrumVector(A, rng.standard_normal(len(A)))
        pair = decompose_last(y.to_function())

        def weights(g):
            coeffs = analyze(g).values
            return {
                int(m).bit_count()
                for m in np.nonzero(np.abs(coeffs) > 1e-10)[0]
            }

        assert weights(pair.g0) == {3} and weights(pair.g1) == {2}

    def test_fourth_moment_identity(self, rng):
        for _ in range(10):
            f = CubeFunction(6, rng.standard_normal(64))
            pair = decompose_last(f)
            g0, g1 = pair.g0.values, pair.g1.values
            lhs = float(np.mean(f.values**4))
            rhs = float(
                np.mean(g0**4) + 6.0 * np.mean(g0**2 * g1**2) + np.mean(g1**4)
            )
            assert math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_zero_dimension_guard(self):
        with pytest.raises(ValueError):
            decompose_last(CubeFunction(0, [1.0]))


def split_bound(r0: float, r1: float) -> float:
    """The supremum of G in closed form: the larger ratio when it is at
    least 9 times the other, else f_combine(r0, r1)."""
    if r0 >= 9.0 * r1 or r1 >= 9.0 * r0:
        return max(r0, r1)
    return f_combine(r0, r1)


class TestCurve:
    @staticmethod
    def halves(rng, n):
        g0 = CubeFunction(n, rng.standard_normal(1 << n))
        g1 = CubeFunction(n, rng.standard_normal(1 << n))
        return g0, g1

    def test_interior_maximum_against_grid(self, rng):
        for _ in range(8):
            g0, g1 = self.halves(rng, 4)
            r0, r1 = moments(g0).ratio(), moments(g1).ratio()
            if not (r1 / 9.0 < r0 < 9.0 * r1):
                continue
            peak = f_combine(r0, r1)
            m0, m1 = moments(g0), moments(g1)
            # x = s u / (1 - u) sweeps [0, inf) as u sweeps [0, 1)
            s = m0.second / m1.second
            us = np.linspace(0.0, 1.0, 4001)[:-1]
            grid = max(split_curve(m0, m1, s * u / (1.0 - u)) for u in us)
            assert grid <= peak + 1e-9
            assert math.isclose(grid, peak, rel_tol=1e-5)

    def test_dominates_the_true_split_ratio(self, rng):
        # the curve max upper-bounds the ratio of every recombined f
        for _ in range(6):
            f = CubeFunction(5, rng.standard_normal(32))
            pair = decompose_last(f)
            bound = split_bound(moments(pair.g0).ratio(), moments(pair.g1).ratio())
            assert moments(f).ratio() <= bound * (1.0 + 1e-10)


class TestInputChecks:
    def test_empty_set_is_refused(self):
        empty = SupportSet(3, ())
        with pytest.raises(ValueError, match="empty support"):
            shkredov_matrix(empty, SpectrumVector(empty, []))
        with pytest.raises(ValueError, match="no bounds for the empty set"):
            mu_upper(empty)

    def test_split_halves_must_share_a_dimension(self):
        with pytest.raises(ValueError, match="share a dimension"):
            SplitPair(CubeFunction(2, np.zeros(4)), CubeFunction(3, np.zeros(8)))

