"""Set-file ingestion, command output schemas, exit codes, determinism."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cubequartic.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    SCHEMA_VERSION,
    _exact,
    main,
    parse_set_file,
)
from cubequartic.core import SupportSet
from cubequartic.errors import SetFileError
from cubequartic.spheres import SphereParams, argmax_st

FAST = ["--starts", "6", "--iters", "2000"]


def write(tmp_path, text, name="set.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(n, masks) -> str:
    """A set file of explicit masks, bit i of a mask at column i."""
    rows = ("".join("1" if m >> i & 1 else "0" for i in range(n)) for m in masks)
    return f"n={n}\n" + "\n".join(rows) + "\n"


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    import cubequartic

    src = str(Path(cubequartic.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestParseSetFile:
    def test_bitstrings_map_char_positions_to_bits(self, tmp_path):
        A = parse_set_file(write(tmp_path, "n=3\n100\n001\n"))
        assert A.n == 3
        assert A.elements == (1, 4)

    def test_blank_lines_ignored(self, tmp_path):
        A = parse_set_file(write(tmp_path, "\nn=2\n\n10\n\n01\n"))
        assert A.elements == (1, 2)

    def test_sphere_directive(self, tmp_path):
        A = parse_set_file(write(tmp_path, "n=5\nsphere 5 2\n"))
        assert len(A) == 10 and A.sphere_radius() == 2

    def test_ball_directive(self, tmp_path):
        A = parse_set_file(write(tmp_path, "n=4\nball 4 1\n"))
        assert A.elements == (0, 1, 2, 4, 8)

    def test_missing_file(self):
        with pytest.raises(SetFileError):
            parse_set_file("/nonexistent/set.txt")

    def test_empty_file(self, tmp_path):
        with pytest.raises(SetFileError, match="empty set file"):
            parse_set_file(write(tmp_path, "\n\n"))

    def test_bad_header(self, tmp_path):
        with pytest.raises(SetFileError, match="line 1"):
            parse_set_file(write(tmp_path, "m=3\n101\n"))

    def test_non_ascii_file(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("n=3\n1\u00e901\n", encoding="utf-8")
        with pytest.raises(SetFileError, match="not an ASCII set file"):
            parse_set_file(str(path))

    def test_zero_dimension_header(self, tmp_path):
        with pytest.raises(SetFileError, match="line 1: dimension must be positive"):
            parse_set_file(write(tmp_path, "n=0\n0\n"))

    def test_header_without_records(self, tmp_path):
        with pytest.raises(SetFileError, match="no records"):
            parse_set_file(write(tmp_path, "n=3\n"))

    def test_wrong_record_length(self, tmp_path):
        with pytest.raises(SetFileError, match="line 3.*length 4"):
            parse_set_file(write(tmp_path, "n=3\n101\n0110\n"))

    def test_non_binary_record(self, tmp_path):
        with pytest.raises(SetFileError, match="over \\{0,1\\}"):
            parse_set_file(write(tmp_path, "n=3\n1x1\n"))

    def test_duplicate_names_both_lines(self, tmp_path):
        with pytest.raises(SetFileError, match="line 4: duplicate of line 2"):
            parse_set_file(write(tmp_path, "n=3\n110\n011\n110\n"))

    def test_directive_mixed_with_records(self, tmp_path):
        with pytest.raises(SetFileError, match="only record"):
            parse_set_file(write(tmp_path, "n=3\n101\nsphere 3 1\n"))

    def test_directive_dimension_mismatch(self, tmp_path):
        with pytest.raises(SetFileError, match="does not match header"):
            parse_set_file(write(tmp_path, "n=4\nsphere 3 1\n"))

    def test_directive_radius_out_of_range(self, tmp_path):
        with pytest.raises(SetFileError, match="radius 7"):
            parse_set_file(write(tmp_path, "n=4\nball 4 7\n"))

    def test_directive_malformed(self, tmp_path):
        with pytest.raises(SetFileError, match="expected 'sphere"):
            parse_set_file(write(tmp_path, "n=4\nsphere four 1\n"))


class TestExactSerializer:
    def test_fractions_and_big_integers(self):
        from fractions import Fraction

        assert _exact(Fraction(7, 3)) == "7/3"
        assert _exact(2**54) == str(2**54)
        assert _exact(1024) == 1024
        assert _exact(-(2**60)) == str(-(2**60))

    def test_passthrough(self):
        assert _exact(True) is True
        assert _exact(None) is None
        assert _exact(0.25) == 0.25
        assert _exact("x") == "x"

    def test_containers(self):
        from fractions import Fraction

        assert _exact([Fraction(1, 2), 3]) == ["1/2", 3]
        assert _exact({"a": Fraction(1, 4)}) == {"a": "1/4"}

    def test_sphere_table_past_the_int_str_digit_limit(self, capsys):
        # C(7200, 3600)^2 has about 4,330 digits, past CPython's default
        # int-to-str limit of 4,300
        from cubequartic.spheres import r_exact

        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, ["sphere-table", "7200", "3600", "--t-max", "0"])
        assert sys.get_int_max_str_digits() == limit
        assert code == EXIT_OK, err
        results = json.loads(out)["results"]
        assert results["rows"][0]["mass"] == "1/1"
        numerator, denominator = results["footer"]["total"].split("/")
        total = r_exact(SphereParams(7200, 3600))
        assert Decimal(numerator) == Decimal(total.numerator)
        assert Decimal(denominator) == Decimal(total.denominator)

    def test_analyze_past_the_int_str_digit_limit(self, tmp_path, capsys):
        # 2^n / |A| on three masks in n = 15,000 has about 4,515 digits
        from random import Random

        rng = Random(0)
        n = 15_000
        path = write(tmp_path, records(n, [rng.getrandbits(n) for _ in range(3)]))
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, ["analyze", path, "--starts", "2"])
        assert sys.get_int_max_str_digits() == limit
        assert code == EXIT_OK, err
        counting = json.loads(out)["results"]["uncertainty"]["support_lower_bound_counting"]
        numerator, denominator = counting.split("/")
        assert Decimal(numerator) == Decimal(2**n) and denominator == "3"


class TestAnalyze:
    def test_weight_one_sphere_document(self, tmp_path, capsys):
        path = write(tmp_path, "n=3\nsphere 3 1\n")
        code, out, err = run(capsys, ["analyze", path] + FAST)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["command"] == "analyze"
        assert doc["config"]["starts"] == 6
        assert "threads" not in doc["config"]
        results = doc["results"]
        assert results["set"] == {"n": 3, "size": 3, "affine_rank": 2}
        assert results["additive"]["energy_ratio"] == "7/3"
        assert results["additive"]["energy"] == 21
        assert results["additive"]["multiplicity_bound"] == 3
        assert results["mu_upper"]["best"] == 3.0
        assert math.isclose(results["mu_lower"]["value"], 7.0 / 3.0, rel_tol=1e-6)
        assert results["hereditary"]["ratio"] == "7/3"
        assert results["uncertainty"]["support_lower_bound_counting"] == "8/3"
        assert doc["provenance"]

    def test_explicit_masks(self, tmp_path, capsys):
        path = write(tmp_path, "n=2\n10\n01\n11\n")
        code, out, _ = run(capsys, ["analyze", path] + FAST)
        assert code == EXIT_OK
        results = json.loads(out)["results"]
        assert results["set"]["size"] == 3

    def test_ratio_bound_past_float_range_is_exact(self, tmp_path, capsys):
        # 2^n from n = 1024 up is past float range, so the support bound
        # 2^n / best prints as an exact rational string
        three = write(tmp_path, records(1024, [1, 1 << 1023, (1 << 1024) - 1]), "three.txt")
        sphere = write(tmp_path, "n=1030\nsphere 1030 1\n", "sphere.txt")
        for argv in ([three], [sphere, "--starts", "2"]):
            code, out, _ = run(capsys, ["analyze"] + argv)
            assert code == EXIT_OK, argv
            results = json.loads(out)["results"]
            n = results["set"]["n"]
            bound = results["uncertainty"]["support_lower_bound_ratio"]
            assert Fraction(bound) == (1 << n) / Fraction(results["mu_upper"]["best"])

    def test_set_file_error_exit(self, tmp_path, capsys):
        path = write(tmp_path, "n=3\n10\n")
        code, out, err = run(capsys, ["analyze", path])
        assert code == EXIT_USAGE
        assert out == ""
        assert "set file error" in err

    def test_dense_cap_exit(self, tmp_path, capsys):
        # 27,405 elements of affine rank 29: past the dense cap, and their
        # pairs past the enumeration cap
        path = write(tmp_path, "n=30\nsphere 30 4\n")
        code, out, err = run(capsys, ["analyze", path])
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "resource cap" in err
        assert "estimation stage" in err

    def test_dense_cap_applies_to_the_affine_rank(self, tmp_path, capsys, monkeypatch):
        import cubequartic.cli
        import cubequartic.core

        # 13 masks of rank 10 spread over n = 30 run under a cap of 10.  A
        # lowered pair cap (169 pairs > 150) leaves only the dense routes,
        # and an exact limit of 0 the hereditary scoring of the full set
        monkeypatch.setattr(cubequartic.core, "PAIR_ENUMERATION_LIMIT", 150)
        masks = [0] + [1 << (3 * i) for i in range(9)] + [1 << 29, 1 | 8, 8 | (1 << 29)]
        path = write(tmp_path, records(30, masks))
        argv = ["--dense-cap", "10", "--exact-limit", "0"] + FAST
        code, out, err = run(capsys, ["analyze", path] + argv)
        assert code == EXIT_OK, err
        assert json.loads(out)["results"]["set"] == {"n": 30, "size": 13, "affine_rank": 10}

        # one more unit vector raises the rank to 11: refused before any
        # pair or transform work
        def refuse(*args, **kwargs):
            raise AssertionError("work ran past the dense cap")

        monkeypatch.setattr(cubequartic.cli, "mu_lower", refuse)
        monkeypatch.setattr(cubequartic.cli, "pair_multiplicities", refuse)
        monkeypatch.setattr(cubequartic.core, "walsh_transform", refuse)
        monkeypatch.setattr(cubequartic.core.PairIndex, "of", refuse)
        path = write(tmp_path, records(30, masks + [1 << 28]), name="rank11.txt")
        code, out, err = run(capsys, ["analyze", path] + argv)
        assert code == EXIT_RESOURCE
        assert out == ""
        assert (
            "estimation stage: affine rank 11 exceeds the dense cap 10, and the "
            "196 pairs of a 14-element set exceed the enumeration cap 150"
        ) in err

    def test_random_masks_in_n_40_run_at_their_rank(self, tmp_path, capsys):
        import random

        # 20 random masks in n = 40 have rank 19: with default flags the
        # dense stages run on 2^19 entries, not 2^40
        masks = random.Random(1).sample(range(2**40), 20)
        path = write(tmp_path, records(40, masks))
        code, out, err = run(capsys, ["analyze", path])
        assert code == EXIT_OK and err == ""
        results = json.loads(out)["results"]
        assert results["set"] == {"n": 40, "size": 20, "affine_rank": 19}
        assert results["hereditary"]["exact"] is True

    def test_affine_image_past_int64_gives_the_same_answers(self, tmp_path, capsys):
        import random

        # bit i to bit 7i maps 40 random masks of n = 14 into n = 100, past
        # int64; every answer but the dimension and the uncertainty bounds
        # (which read 2^n) is the same, and the wide set's pair index stays
        # int64 on its frame coordinates
        masks = random.Random(14).sample(range(1 << 14), 40)
        wide = [sum(1 << 7 * i for i in range(14) if m >> i & 1) for m in masks]
        found = []
        for n, rows in ((14, masks), (100, wide)):
            code, out, err = run(capsys, ["analyze", write(tmp_path, records(n, rows))] + FAST)
            assert code == EXIT_OK, err
            results = json.loads(out)["results"]
            assert results["set"].pop("n") == n
            results.pop("uncertainty")
            found.append(results)
        assert found[0] == found[1]
        A = SupportSet.from_masks(100, wide)
        assert A.masks.dtype == object
        assert A.pairs.sums.dtype == A.pairs.inverse.dtype == np.int64

    @pytest.mark.parametrize(
        "n, generators, shift",
        [(40, [], 5 << 30), (6, [3, 12, 48], 5), (20, [3, 1 << 19, 6, 96, 1 << 10], 77), (40, [7 << 30, 5, 1 << 39, 6, 3 << 20], 9)],
    )
    def test_cosets_report_mu_exactly(self, tmp_path, capsys, n, generators, shift):
        from cubequartic.core import SupportSet

        V = SupportSet.span(n, generators)
        path = write(tmp_path, records(n, [m ^ shift for m in V]))
        code, out, err = run(capsys, ["analyze", path])
        assert code == EXIT_OK, err
        results = json.loads(out)["results"]
        size = len(V)
        assert results["set"] == {"n": n, "size": size, "affine_rank": len(generators)}
        assert results["mu_lower"] == {
            "value": float(size), "starts_used": 1, "iterations": 0, "converged": True
        }
        assert results["mu_upper"]["best"] == float(size)

    def test_hereditary_cap_exit(self, tmp_path, capsys):
        records = "\n".join(format(m, "08b") for m in range(40))
        path = write(tmp_path, f"n=8\n{records}\n")
        argv = ["analyze", path, "--exact-limit", "40", "--starts", "1"]
        code, out, err = run(capsys, argv)
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "resource cap" in err
        assert "hereditary stage" in err

    def test_hereditary_cap_checked_before_any_work(self, tmp_path, capsys, monkeypatch):
        import random

        import cubequartic.cli

        def refuse(*args, **kwargs):
            raise AssertionError("the ascent ran before the hereditary cap check")

        monkeypatch.setattr(cubequartic.cli, "mu_lower", refuse)
        masks = random.Random(0).sample(range(1 << 12), 200)
        records = "\n".join(format(m, "012b") for m in masks)
        path = write(tmp_path, f"n=12\n{records}\n")
        code, out, err = run(capsys, ["analyze", path, "--exact-limit", "300"])
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "hereditary stage" in err

    def test_negative_exact_limit_exits_usage_before_any_work(self, tmp_path, capsys, monkeypatch):
        import cubequartic.cli

        def refuse(*args, **kwargs):
            raise AssertionError("the ascent ran")

        monkeypatch.setattr(cubequartic.cli, "mu_lower", refuse)
        path = write(tmp_path, "n=4\nsphere 4 2\n")
        code, out, err = run(capsys, ["analyze", path, "--exact-limit", "-1"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "invalid request: --exact-limit must be at least 0, got -1" in err

    def test_bad_optimizer_values_exit_before_the_set_is_built(self, tmp_path, capsys, monkeypatch):
        # sphere 22 11 passes the plan, and building it enumerates 705,432 masks
        def refuse(*args, **kwargs):
            raise AssertionError("the set was enumerated")

        monkeypatch.setattr(SupportSet, "sphere", refuse)
        path = write(tmp_path, "n=22\nsphere 22 11\n")
        for flag in (["--tol", "nan"], ["--seed", "-1"], ["--starts", "-3"], ["--iters", "0"]):
            code, out, err = run(capsys, ["analyze", path] + flag)
            assert code == EXIT_USAGE, flag
            assert out == ""
            assert f"invalid request: {flag[0]} must be" in err
            assert f"got {flag[1]}" in err

    # the exact fields of the benchmark's sparse sets and S(11, 3): the pair
    # table, m(A) and the subset the greedy sweep keeps
    @pytest.mark.parametrize(
        "text, additive, hereditary",
        [
            ("n=14\nsphere 14 2\n", (96733, 25, "1063/91"), (91, "1063/91")),
            ("n=14\nball 14 2\n", (142696, 29, "35674/2809"), (106, "35674/2809")),
            (None, (16968, 7, "707/216"), (6, "14/3")),
            ("n=11\nsphere 11 3\n", (1079265, 73, "6541/165"), (165, "6541/165")),
        ],
        ids=["S14_2", "B14_2", "R14_72", "S11_3"],
    )
    def test_exact_fields_are_pinned(self, tmp_path, capsys, text, additive, hereditary):
        import random

        if text is None:
            # 72 random masks in n = 14, drawn as the benchmark draws them
            masks = random.Random("0:14:72").sample(range(1 << 14), 72)
            rows = ("".join("1" if m >> i & 1 else "0" for i in range(14)) for m in masks)
            text = "n=14\n" + "\n".join(rows) + "\n"
        path = write(tmp_path, text)
        code, out, _ = run(capsys, ["analyze", path, "--starts", "2", "--seed", "0"])
        assert code == EXIT_OK
        results = json.loads(out)["results"]
        energy, m, ratio = additive
        assert results["additive"] == {
            "energy": energy, "multiplicity_bound": m, "energy_ratio": ratio
        }
        size, best = hereditary
        assert results["hereditary"] == {"size": size, "ratio": best, "exact": False}

    def test_one_pair_table_per_command(self, tmp_path, capsys, monkeypatch):
        # analyze reads the pair table twice (m(A) in mu_upper, E(A) for
        # the energy ratio); both routes are built once and cached on A
        import cubequartic.core

        built = self.count_index_builds(monkeypatch)
        convolved = []
        original = cubequartic.core._convolution_table

        def counted(A):
            convolved.append(len(A))
            return original(A)

        monkeypatch.setattr(cubequartic.core, "_convolution_table", counted)
        path = write(tmp_path, "n=5\nsphere 5 2\n")
        code, out, _ = run(capsys, ["analyze", path] + FAST)
        assert code == EXIT_OK
        assert built == [10] and convolved == [10]
        results = json.loads(out)["results"]
        assert results["additive"]["multiplicity_bound"] == 7
        assert results["mu_upper"]["multiplicity_bound"] == 7

    @staticmethod
    def count_index_builds(monkeypatch):
        from cubequartic.core import PairIndex

        built = []
        original = PairIndex.of.__func__

        def counted(cls, masks):
            built.append(len(masks))
            return original(cls, masks)

        monkeypatch.setattr(PairIndex, "of", classmethod(counted))
        return built

    @pytest.mark.parametrize("n,k", [(11, 4), (14, 2)])
    def test_one_pair_index_per_command(self, tmp_path, capsys, monkeypatch, n, k):
        # S(11,4) takes the dense kernel, S(14,2) the sparse one
        built = self.count_index_builds(monkeypatch)
        path = write(tmp_path, f"n={n}\nsphere {n} {k}\n")
        code, _, _ = run(capsys, ["analyze", path] + FAST)
        assert code == EXIT_OK
        assert built == [math.comb(n, k)]

    def test_set_past_the_pair_cap_is_never_enumerated(self, tmp_path, capsys, monkeypatch):
        import cubequartic.core

        path = write(tmp_path, "n=6\nball 6 2\n")
        argv = ["analyze", path, "--exact-limit", "10"] + FAST
        _, within, _ = run(capsys, argv)
        # B(6,2) has 22 elements, so 484 pairs; its level sets are smaller
        monkeypatch.setattr(cubequartic.core, "PAIR_ENUMERATION_LIMIT", 100)
        built = self.count_index_builds(monkeypatch)
        code, out, err = run(capsys, argv)
        assert code == EXIT_OK and err == ""
        assert all(size * size <= 100 for size in built)
        capped, full = json.loads(out)["results"], json.loads(within)["results"]
        assert capped["additive"] == full["additive"]
        assert capped["mu_upper"] == full["mu_upper"]
        assert Fraction(capped["hereditary"]["ratio"]) >= Fraction(
            capped["additive"]["energy_ratio"]
        )

    def test_one_convolution_of_a_set_past_the_pair_cap(self, tmp_path, capsys, monkeypatch):
        import cubequartic.core

        convolved = []
        original = cubequartic.core._convolution_table

        def counted(A):
            convolved.append(len(A))
            return original(A)

        monkeypatch.setattr(cubequartic.core, "_convolution_table", counted)
        monkeypatch.setattr(cubequartic.core, "PAIR_ENUMERATION_LIMIT", 100)
        path = write(tmp_path, "n=6\nball 6 2\n")
        code, _, _ = run(capsys, ["analyze", path, "--exact-limit", "10"] + FAST)
        assert code == EXIT_OK
        # the pair table and the hereditary search's full set share it
        assert convolved.count(22) == 1

    def test_one_energy_of_a_set_past_the_pair_cap(self, tmp_path, capsys, monkeypatch):
        import cubequartic.core

        summed = []
        original = cubequartic.core._square_sum

        def counted(counts):
            # counts[0] = |M_0| is the size of the set
            summed.append(int(counts[0]))
            return original(counts)

        energy = SupportSet.ball(6, 2).pairs.energy()
        monkeypatch.setattr(cubequartic.core, "_square_sum", counted)
        monkeypatch.setattr(cubequartic.core, "PAIR_ENUMERATION_LIMIT", 100)
        path = write(tmp_path, "n=6\nball 6 2\n")
        code, out, _ = run(capsys, ["analyze", path, "--exact-limit", "10"] + FAST)
        assert code == EXIT_OK
        # the energy of the pair table and the hereditary score of the full set
        assert summed.count(22) == 1
        assert json.loads(out)["results"]["additive"]["energy"] == energy

    def test_stdout_does_not_depend_on_blas_threads(self, tmp_path):
        path = write(tmp_path, "n=11\nsphere 11 4\n")
        argv = [sys.executable, "-m", "cubequartic.cli", "analyze", path,
                "--starts", "2", "--seed", "0"]
        outputs = []
        for threads in ("1", "2"):
            env = dict(fresh_env(), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(argv, env=env, capture_output=True, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] != b""

    def test_csv_flattens_the_results(self, tmp_path, capsys):
        path = write(tmp_path, "n=3\nsphere 3 1\n")
        _, out_json, _ = run(capsys, ["analyze", path] + FAST)
        code, out, err = run(capsys, ["analyze", path, "--format", "csv"] + FAST)
        assert code == EXIT_OK and err == ""
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["field", "value"]
        fields = dict(rows[1:])
        results = json.loads(out_json)["results"]
        assert float(fields["mu_upper.best"]) == results["mu_upper"]["best"]
        assert fields["additive.energy_ratio"] == results["additive"]["energy_ratio"]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write(tmp_path, "n=4\nsphere 4 2\n")
        argv = ["analyze", path, "--seed", "7"] + FAST
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestSphereTable:
    def test_exact_values(self, capsys):
        code, out, _ = run(capsys, ["sphere-table", "4", "2"])
        assert code == EXIT_OK
        doc = json.loads(out)
        rows = doc["results"]["rows"]
        assert [r["t"] for r in rows] == [0, 1, 2]
        assert rows[1]["mass"] == "8/3"
        assert rows[0]["ratio_to_prev"] is None
        assert rows[2]["cumulative"] == "14/3"
        footer = doc["results"]["footer"]
        assert footer["total"] == "14/3"
        assert footer["argmax"] == 1
        assert footer["peak_location"] == 1.0
        assert footer["psi_bound"] == 16.0

    def test_float_values(self, capsys):
        _, out, _ = run(capsys, ["sphere-table", "4", "2", "--values", "float"])
        rows = json.loads(out)["results"]["rows"]
        assert math.isclose(rows[1]["mass"], 8.0 / 3.0, rel_tol=1e-15)

    def test_float_values_out_of_range_exit_usage(self, capsys):
        argv = ["sphere-table", "2048", "1024", "--t-min", "1016", "--values", "float"]
        code, out, err = run(capsys, argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "cumulative at t=1016 is out of float range" in err
        assert "--values exact" in err

    def test_t_window(self, capsys):
        _, out, _ = run(capsys, ["sphere-table", "12", "4", "--t-min", "1", "--t-max", "2"])
        rows = json.loads(out)["results"]["rows"]
        assert [r["t"] for r in rows] == [1, 2]

    def test_upper_half_has_no_psi(self, capsys):
        _, out, _ = run(capsys, ["sphere-table", "4", "3"])
        footer = json.loads(out)["results"]["footer"]
        assert "psi" not in footer

    def test_huge_exponent_stays_json_safe(self, capsys):
        code, out, _ = run(capsys, ["sphere-table", "4096", "2048", "--t-min", "0", "--t-max", "0"])
        assert code == EXIT_OK
        footer = json.loads(out)["results"]["footer"]
        assert footer["psi_bound_log2"] == 4096.0
        assert "psi_bound" not in footer

    def test_invalid_parameters(self, capsys):
        code, _, err = run(capsys, ["sphere-table", "4", "5"])
        assert code == EXIT_USAGE
        assert "invalid request" in err

    def test_bad_optimizer_flags_exit_usage_before_any_work(self, capsys, monkeypatch):
        import cubequartic.spheres

        def refuse(*args, **kwargs):
            raise AssertionError("the mass chain ran")

        monkeypatch.setattr(cubequartic.spheres, "mass_chain", refuse)
        bad = (["--seed", "-1"], ["--starts", "-3"], ["--iters", "0"], ["--tol", "-1"], ["--tol", "nan"])
        for flag in bad:
            code, out, err = run(capsys, ["sphere-table", "10", "5"] + flag)
            assert code == EXIT_USAGE, flag
            assert out == ""
            assert f"invalid request: {flag[0]} must be" in err
            assert f"got {flag[1]}" in err
        code, _, err = run(capsys, ["sphere-table", "10", "5", "--tol", "inf"])
        assert code == EXIT_USAGE
        assert "invalid request: --tol must be finite and at least 0, got inf" in err

    def test_csv_layout(self, capsys):
        _, out, _ = run(capsys, ["sphere-table", "4", "2", "--format", "csv"])
        lines = out.split("\r\n")
        assert lines[0] == "kind,t,mass,ratio_to_prev,cumulative"
        assert lines[1] == "row,0,1/1,,1/1"
        assert lines[2] == "row,1,8/3,8/3,11/3"
        assert any(line.startswith("footer,total,14/3") for line in lines)

    @pytest.mark.parametrize(
        "n,k,t_min", [(2048, 1024, 1016), (64, 32, 30), (64, 32, 0), (40, 30, 12)]
    )
    def test_one_chain_per_command(self, capsys, monkeypatch, n, k, t_min):
        # the rows, from p.total past the middle of the chain, and the
        # footer's total and argmax share one chain
        import cubequartic.spheres

        built = []
        original = cubequartic.spheres.mass_chain

        def counted(p):
            built.append(p)
            return original(p)

        monkeypatch.setattr(cubequartic.spheres, "mass_chain", counted)
        code, out, _ = run(capsys, ["sphere-table", str(n), str(k), "--t-min", str(t_min)])
        assert code == EXIT_OK
        assert built == [SphereParams(n, k)]
        results = json.loads(out)["results"]
        assert results["rows"][-1]["t"] == k
        assert results["footer"]["total"] == results["rows"][-1]["cumulative"]

    def test_footer_argmax_matches_argmax_st(self, capsys):
        cells = [(n, k) for n in range(1, 25) for k in range(n + 1)] + [(2048, 1024)]
        for n, k in cells:
            code, out, _ = run(capsys, ["sphere-table", str(n), str(k), "--t-max", "0"])
            assert code == EXIT_OK
            footer = json.loads(out)["results"]["footer"]
            assert footer["argmax"] == argmax_st(SphereParams(n, k)), (n, k)


class TestScan:
    def test_record_layout(self, capsys):
        code, out, _ = run(capsys, ["scan", "--n-max", "6"] + FAST)
        assert code == EXIT_OK
        records = json.loads(out)["results"]["records"]
        assert len(records) == 9
        assert records[0]["n"] == 2 and records[0]["k"] == 1
        # the keys follow ConjectureRecord's fields; reordering them changes the schema
        assert list(records[0]) == [
            "n", "k", "mu_est", "energy_ratio", "gap", "upper_gap", "status", "certificate",
        ]
        for rec in records:
            assert rec["status"] == "conjecture-consistent"
            assert rec["gap"] >= -1e-8
            assert rec["certificate"] is None

    def test_threads_never_change_bytes(self, capsys):
        base = ["scan", "--n-max", "5"] + FAST
        _, one, _ = run(capsys, base + ["--threads", "1"])
        _, four, _ = run(capsys, base + ["--threads", "4"])
        assert one == four

    def test_bad_flag_values_exit_usage(self, capsys):
        bad = (["--threads", "0"], ["--threads", "-3"], ["--starts", "-1"], ["--iters", "0"])
        for flag in bad:
            code, out, err = run(capsys, ["scan", "--n-max", "3"] + flag)
            assert code == EXIT_USAGE, flag
            assert out == ""
            assert "invalid request" in err

    @pytest.mark.parametrize("value", ["-5", "1"])
    def test_n_max_below_two_exits_usage(self, capsys, value):
        code, out, err = run(capsys, ["scan", "--n-max", value])
        assert code == EXIT_USAGE
        assert out == ""
        assert f"invalid request: --n-max must be at least 2, got {value}" in err

    def test_negative_dense_cap_exits_usage(self, capsys):
        code, out, err = run(capsys, ["scan", "--n-max", "4", "--dense-cap", "-5"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "invalid request: --dense-cap must be at least 0, got -5" in err

    def test_bad_optimizer_values_exit_before_the_ascent(self, tmp_path, capsys, monkeypatch):
        import cubequartic.cli
        import cubequartic.reports

        def refuse(*args, **kwargs):
            raise AssertionError("the ascent ran")

        monkeypatch.setattr(cubequartic.cli, "mu_lower", refuse)
        monkeypatch.setattr(cubequartic.reports, "mu_lower", refuse)
        path = write(tmp_path, "n=4\nsphere 4 2\n")
        for head in (["scan", "--n-max", "3"], ["analyze", path]):
            for flag in (["--tol", "nan"], ["--tol", "inf"], ["--seed", "-1"]):
                code, out, err = run(capsys, head + flag)
                assert code == EXIT_USAGE, (head, flag)
                assert out == ""
                assert "invalid request" in err

    def test_disagreeing_energy_routes_abort(self, capsys, monkeypatch):
        import cubequartic.reports
        from cubequartic.spheres import r_exact

        def off_at_4_2(p):
            shift = Fraction(1, 10**9) if (p.n, p.k) == (4, 2) else 0
            return r_exact(p) + shift

        monkeypatch.setattr(cubequartic.reports, "r_exact", off_at_4_2)
        code, out, err = run(capsys, ["scan", "--n-max", "5", "--starts", "2"])
        assert code == EXIT_CHECK_FAILED
        assert out == ""
        assert "scan aborted: energy-ratio routes disagree at (n=4, k=2): " in err

    def test_csv_rows(self, capsys):
        _, out, _ = run(capsys, ["scan", "--n-max", "4", "--format", "csv"] + FAST)
        lines = [line for line in out.split("\r\n") if line]
        assert lines[0] == "n,k,mu_est,energy_ratio,gap,upper_gap,status"
        assert len(lines) == 1 + 4  # cells (2,1) (3,1) (4,1) (4,2)
        assert lines[1].startswith("2,1,")


class TestScanStatuses:
    """Gap thresholds of the scan, reached by shifting the ascent value."""

    @staticmethod
    def shift_ascent(monkeypatch, delta):
        import cubequartic.reports

        original = cubequartic.reports._climb

        def shifted(*args, **kwargs):
            return [
                dataclasses.replace(est, value=est.value + delta)
                for est in original(*args, **kwargs)
            ]

        monkeypatch.setattr(cubequartic.reports, "_climb", shifted)

    def test_large_gap_is_a_candidate_with_certificate(self, capsys, monkeypatch):
        self.shift_ascent(monkeypatch, 1e-3)
        code, out, _ = run(capsys, ["scan", "--n-max", "3"] + FAST)
        assert code == EXIT_OK
        records = json.loads(out)["results"]["records"]
        assert [(r["n"], r["k"]) for r in records] == [(2, 1), (3, 1)]
        for rec in records:
            assert rec["status"] == "counterexample-candidate"
            assert rec["gap"] > 1e-4
            assert len(rec["certificate"]) == math.comb(rec["n"], rec["k"])

    def test_small_gap_is_inconclusive(self, capsys, monkeypatch):
        self.shift_ascent(monkeypatch, 1e-5)
        code, out, _ = run(capsys, ["scan", "--n-max", "3"] + FAST)
        assert code == EXIT_OK
        for rec in json.loads(out)["results"]["records"]:
            assert rec["status"] == "inconclusive"
            assert 1e-6 < rec["gap"] <= 1e-4
            assert rec["certificate"] is None

    def test_negative_gap_aborts(self, capsys, monkeypatch):
        self.shift_ascent(monkeypatch, -1e-4)
        code, out, err = run(capsys, ["scan", "--n-max", "3"] + FAST)
        assert code == EXIT_CHECK_FAILED
        assert out == ""
        assert "scan aborted" in err


class TestVerify:
    def test_core_suite(self, capsys):
        code, out, err = run(capsys, ["verify", "--suite", "core"] + FAST)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["overall"] is True
        assert [s["name"] for s in doc["results"]["suites"]] == ["core"]
        assert all(
            r["overall"] for s in doc["results"]["suites"] for r in s["reports"]
        )
        assert err == ""
        # the keys follow Check's fields; reordering them changes the schema
        check = doc["results"]["suites"][0]["reports"][0]["checks"][0]
        assert list(check) == [
            "name", "lhs", "relation", "rhs", "passed", "hard", "provenance", "detail",
        ]

    def test_additive_csv(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "additive", "--format", "csv"] + FAST)
        assert code == EXIT_OK
        lines = [line for line in out.split("\r\n") if line]
        assert lines[0].startswith("suite,subject,check,")
        assert len(lines) > 10
        assert all(line.split(",")[0] == "additive" for line in lines[1:])

    def test_seed_is_echoed_and_deterministic(self, capsys):
        argv = ["verify", "--suite", "sphere", "--seed", "9"] + FAST
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
        assert json.loads(first)["config"]["seed"] == 9

    def test_failing_hard_check_exits_nonzero(self, capsys, monkeypatch):
        import cubequartic.suites
        from cubequartic.reports import BoundReport, Check

        def planted(seed=0):
            return [BoundReport("planted", [Check("one equals two", 1, "==", 2, False)])]

        monkeypatch.setattr(cubequartic.suites, "suite_core", planted)
        code, out, err = run(capsys, ["verify", "--suite", "core"] + FAST)
        assert code == EXIT_CHECK_FAILED
        assert json.loads(out)["results"]["overall"] is False
        assert "hard check failed: core/planted: one equals two" in err

    def test_csv_rows_match_the_json_checks(self, capsys):
        argv = ["verify", "--suite", "asymptotics"]
        _, out_json, _ = run(capsys, argv)
        _, out_csv, _ = run(capsys, argv + ["--format", "csv"])
        expected = [
            [suite["name"], report["subject"]]
            + ["" if v is None else str(v) for v in check.values()]
            for suite in json.loads(out_json)["results"]["suites"]
            for report in suite["reports"]
            for check in report["checks"]
        ]
        rows = list(csv.reader(io.StringIO(out_csv)))
        assert rows[0] == [
            "suite", "subject", "check", "lhs", "relation", "rhs",
            "passed", "hard", "provenance", "detail",
        ]
        assert rows[1:] == expected

    def test_internal_violation_aborts_without_output(self, capsys, monkeypatch):
        # a lower bound above the exact ratio makes the scan inside bounds raise
        TestScanStatuses.shift_ascent(monkeypatch, -1e-4)
        code, out, err = run(capsys, ["verify", "--suite", "bounds"] + FAST)
        assert code == EXIT_CHECK_FAILED
        assert out == ""
        assert err.startswith("verify aborted: ")

    def test_unknown_suite_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == EXIT_USAGE


class TestImportHygiene:
    """Commands do not load numpy modules they do not need.

    numpy 2.x imports ``numpy.random`` and ``numpy.ma`` lazily, on first
    use, and each costs a measurable share of a short command.
    """

    PROBE = (
        "import contextlib, io, json, sys\n"
        "from cubequartic.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )

    def modules_after(self, argv):
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, *argv],
            env=fresh_env(), capture_output=True, check=True, text=True,
        )
        code, modules = json.loads(proc.stdout)
        assert code == EXIT_OK, proc.stderr
        return set(modules)

    def test_ascent_commands_skip_numpy_random(self, tmp_path):
        path = write(tmp_path, "n=5\nsphere 5 2\n")
        for argv in (["analyze", path] + FAST, ["scan", "--n-max", "4", "--threads", "2"] + FAST):
            assert "numpy.random" not in self.modules_after(argv), argv

    def test_verify_skips_numpy_random(self):
        # the seeded corpus draws from random.Random, like the ascent
        assert "numpy.random" not in self.modules_after(["verify", "--suite", "all"] + FAST)

    def test_verify_skips_numpy_ma(self):
        assert "numpy.ma" not in self.modules_after(["verify", "--suite", "additive"])

    def test_analyze_and_scan_skip_numpy_ma(self, tmp_path):
        # PairIndex.of sorts the pair sums of S(8,1) (2^8 > 8^2) and takes
        # a histogram of those of S(5,2) (2^5 <= 10^2)
        sort_route = write(tmp_path, "n=8\nsphere 8 1\n", "sort.txt")
        histogram_route = write(tmp_path, "n=5\nsphere 5 2\n", "histogram.txt")
        for argv in (
            ["analyze", sort_route] + FAST,
            ["analyze", histogram_route] + FAST,
            ["scan", "--n-max", "4"] + FAST,
        ):
            assert "numpy.ma" not in self.modules_after(argv), argv
