"""The plan: every route and cap of a set, decided before any work."""

import random

import pytest

import cubequartic.core
import cubequartic.quartic
import cubequartic.reports
from cubequartic.additive import Plan, plan
from cubequartic.cli import EXIT_OK, EXIT_RESOURCE, _read_set_file
from cubequartic.core import PairIndex, SupportSet
from cubequartic.quartic import OptimizerConfig, _DenseKernel, _SparseKernel, mu_lower

from test_cli import run, write


@pytest.mark.parametrize("family", ["sphere", "ball"])
def test_directive_shapes_match_the_built_sets(tmp_path, family):
    for n in range(1, 11):
        for k in range(n + 1):
            size, rank, build = _read_set_file(write(tmp_path, f"n={n}\n{family} {n} {k}\n"))
            A = build()
            assert A == getattr(SupportSet, family)(n, k)
            assert (size, rank) == (len(A), A.affine.rank), (family, n, k)


@pytest.mark.parametrize(
    "args, expected",
    [
        # S(14,2): 91^2 <= 13 * 2^13, so sparse, cross-checked; greedy
        ((91, 13, 24, 20), Plan("sparse", True, "cross-check", "greedy")),
        # S(11,3): 165^2 > 10 * 2^10, so dense
        ((165, 10, 24, 20), Plan("dense", True, "cross-check", "greedy")),
        # S(6,3) is searched exhaustively; no hereditary stage when unplanned
        ((20, 5, 24, 20), Plan("dense", True, "cross-check", "exhaustive")),
        ((20, 5, 24, None), Plan("dense", True, "cross-check", None)),
        # S(40,2) past the dense cap: sparse, with no convolution
        ((780, 39, 24, 20), Plan("sparse", True, None, "full set")),
        # S(20,10) past the pair cap: the convolution is the pair route
        ((184756, 19, 24, 20), Plan("dense", False, "route", "full set")),
    ],
)
def test_routes(args, expected):
    assert plan(*args) == expected


def refuse(*args, **kwargs):
    raise AssertionError("work ran before the refusal")


def no_work(monkeypatch):
    """Make every enumeration and transform raise."""
    monkeypatch.setattr(PairIndex, "of", refuse)
    monkeypatch.setattr(cubequartic.core, "walsh_transform", refuse)
    monkeypatch.setattr(cubequartic.quartic, "walsh_transform", refuse)
    monkeypatch.setattr(cubequartic.core, "_weight_levels", refuse)


@pytest.mark.parametrize(
    "text, flags, stage",
    [
        # 1.4e11 elements of rank 39: no kernel
        ("n=40\nsphere 40 20\n", [], "estimation stage: affine rank 39 exceeds the dense cap 24"),
        # rank 40 is within the cap, but the convolution would not be exact
        ("n=41\nsphere 41 20\n", ["--dense-cap", "40"], "pair stage: "),
        ("n=8\nsphere 8 3\n", ["--exact-limit", "60"], "hereditary stage: exhaustive search"),
        # past the pair cap at rank 25, the hereditary scoring needs rank <= 24
        ("n=26\nsphere 26 4\n", ["--dense-cap", "25"], "hereditary stage: scoring a 14950-element"),
    ],
    ids=["estimation", "pair", "hereditary-exhaustive", "hereditary-full-set"],
)
def test_each_refusal_comes_before_any_work(tmp_path, capsys, monkeypatch, text, flags, stage):
    no_work(monkeypatch)
    code, out, err = run(capsys, ["analyze", write(tmp_path, text)] + flags)
    assert code == EXIT_RESOURCE
    assert out == ""
    assert err.startswith(f"resource cap: {stage}")


def test_scan_refuses_before_its_first_cell(capsys, monkeypatch):
    # cell (15, 7) has 6435 elements of rank 14: past both caps
    no_work(monkeypatch)
    monkeypatch.setattr(cubequartic.reports, "mu_lower", refuse)
    code, out, err = run(capsys, ["scan", "--n-max", "16", "--dense-cap", "10"])
    assert code == EXIT_RESOURCE
    assert out == ""
    assert "estimation stage: affine rank 14 exceeds the dense cap 10" in err
    assert "6435-element set" in err


def test_past_the_dense_cap_a_set_whose_pairs_fit_runs_sparse(tmp_path, capsys, monkeypatch):
    # both exited 3 while the dense cap bounded the sparse kernel too
    def no_transform(values):
        raise AssertionError("dense work past the dense cap")

    monkeypatch.setattr(cubequartic.core, "walsh_transform", no_transform)
    monkeypatch.setattr(cubequartic.quartic, "walsh_transform", no_transform)
    path = write(tmp_path, "n=30\nsphere 30 1\n")
    code, out, err = run(capsys, ["analyze", path, "--starts", "2"])
    assert code == EXIT_OK, err
    monkeypatch.undo()
    # the cells of n = 10 (rank 9) run sparse, the others dense
    code, out, err = run(capsys, ["scan", "--n-max", "10", "--dense-cap", "8", "--starts", "2"])
    assert code == EXIT_OK, err
    assert '"n": 10' in out


def benchmark_sets():
    masks = random.Random("0:14:72").sample(range(1 << 14), 72)
    return {
        "S14_2": SupportSet.sphere(14, 2),
        "B14_2": SupportSet.ball(14, 2),
        "R14_72": SupportSet.from_masks(14, masks),
        "S11_4": SupportSet.sphere(11, 4),
        "S11_3": SupportSet.sphere(11, 3),
        "S6_3": SupportSet.sphere(6, 3),
    }


def test_benchmark_sets_keep_their_kernels(monkeypatch):
    # the kernels each set took before the plan: sparse when
    # |A|^2 <= d 2^d, and every set within both caps
    before = {"S14_2": "sparse", "B14_2": "sparse", "R14_72": "sparse",
              "S11_4": "dense", "S11_3": "dense", "S6_3": "dense"}
    built = []

    class Sparse(_SparseKernel):
        def __init__(self, *args):
            built.append("sparse")
            super().__init__(*args)

    class Dense(_DenseKernel):
        def __init__(self, *args):
            built.append("dense")
            super().__init__(*args)

    monkeypatch.setattr(cubequartic.quartic, "_SparseKernel", Sparse)
    monkeypatch.setattr(cubequartic.quartic, "_DenseKernel", Dense)
    cfg = OptimizerConfig(starts=0, max_iters=2)
    for name, A in benchmark_sets().items():
        built.clear()
        mu_lower(A, cfg)
        assert built == [before[name]], name
        assert plan(len(A), A.affine.rank, exact_limit=20).kernel == before[name]
