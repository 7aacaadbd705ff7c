"""Pinned outputs: the benchmark's commands, run in-process, against
tests/golden.json.

Exact fields (energies, m(A), energy ratios, the hereditary result,
r(n, k), table masses, statuses and verdicts) must match exactly on every
platform, and floats to a relative 1e-12, or within 1e-10 of a value
near zero (scan gaps and verify deviations are rounding noise of
differences, which no relative bound fits).  Ascent counters and free-text
fields are covered by the stdout sha256 alone, which is compared only on
the Python and numpy versions that the file records.  After a change that
moves an output on purpose, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py

and name each changed field, with its reason, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import math
import platform
import random
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from cubequartic.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

# depend on the float path of the ascent (counters) or are prose
HASH_ONLY = {"iterations", "starts_used", "detail", "provenance"}


def set_files() -> dict[str, str]:
    """The benchmark's set files; R14_72 is drawn as the benchmark draws it."""
    masks = random.Random("0:14:72").sample(range(1 << 14), 72)
    rows = ("".join("1" if m >> i & 1 else "0" for i in range(14)) for m in masks)
    return {
        "S14_2": "n=14\nsphere 14 2\n",
        "B14_2": "n=14\nball 14 2\n",
        "R14_72": "n=14\n" + "\n".join(rows) + "\n",
        "S11_4": "n=11\nsphere 11 4\n",
        "S11_3": "n=11\nsphere 11 3\n",
        "S6_3": "n=6\nsphere 6 3\n",
    }


# a set name in an argument list stands for the path of its set file;
# S11_4 runs with the default starts, as the benchmark runs it, and with 4
COMMANDS = {
    "S14_2": ["analyze", "S14_2", "--starts", "4"],
    "B14_2": ["analyze", "B14_2", "--starts", "4"],
    "R14_72": ["analyze", "R14_72", "--starts", "4"],
    "S11_4": ["analyze", "S11_4"],
    "S11_4_starts4": ["analyze", "S11_4", "--starts", "4"],
    "S11_3": ["analyze", "S11_3", "--starts", "4"],
    "S6_3": ["analyze", "S6_3"],
    "scan8": ["scan", "--n-max", "8", "--threads", "2", "--starts", "6"],
    "verify_all": ["verify", "--suite", "all", "--starts", "4"],
    "table2048": ["sphere-table", "2048", "1024", "--t-min", "1016"],
}


def run_all(set_dir: Path) -> dict[str, str]:
    """The stdout of every command, with each set file written to set_dir."""
    files = set_files()
    for name, text in files.items():
        (set_dir / f"{name}.txt").write_text(text, encoding="ascii")
    outputs = {}
    for name, args in COMMANDS.items():
        argv = [str(set_dir / f"{a}.txt") if a in files else a for a in args]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv + ["--seed", "0"])
        assert code == 0, name
        outputs[name] = buffer.getvalue()
    return outputs


def pinned(value):
    """The compared part of a results tree: every leaf but the HASH_ONLY keys."""
    if isinstance(value, dict):
        return {k: pinned(v) for k, v in value.items() if k not in HASH_ONLY}
    if isinstance(value, list):
        return [pinned(v) for v in value]
    return value


def record(outputs: dict[str, str]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commands": {
            name: {
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "results": pinned(json.loads(text)["results"]),
            }
            for name, text in outputs.items()
        },
    }


def assert_matches(got, want, path: str) -> None:
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-10), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def hash_mismatches(got: dict, golden: dict) -> list[str] | None:
    """The commands whose stdout hash differs from the file's, or None when
    the Python or numpy version differs from the recorded one."""
    if (got["python"], got["numpy"]) != (golden["python"], golden["numpy"]):
        return None
    return [
        name
        for name, want in golden["commands"].items()
        if got["commands"][name]["sha256"] != want["sha256"]
    ]


def test_benchmark_outputs_are_pinned(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = record(run_all(tmp_path))
    assert got["commands"].keys() == golden["commands"].keys()
    for name, want in golden["commands"].items():
        assert_matches(got["commands"][name]["results"], want["results"], name)
    mismatches = hash_mismatches(got, golden)
    if mismatches is None:
        warnings.warn(
            f"stdout hashes not compared: recorded on Python {golden['python']} "
            f"and numpy {golden['numpy']}, running on Python {got['python']} "
            f"and numpy {got['numpy']}"
        )
    else:
        assert mismatches == []


def test_a_one_ulp_change_to_a_printed_float_fails(tmp_path, monkeypatch):
    import dataclasses

    import cubequartic.cli

    original = cubequartic.cli.mu_upper

    def nudged(A, **kwargs):
        bounds = original(A, **kwargs)
        if bounds.sphere_psi_bound is None:
            return bounds
        up = math.nextafter(bounds.sphere_psi_bound, math.inf)
        return dataclasses.replace(bounds, sphere_psi_bound=up)

    monkeypatch.setattr(cubequartic.cli, "mu_upper", nudged)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = record(run_all(tmp_path))
    # within the float tolerance, so only the hash sees it
    for name, want in golden["commands"].items():
        assert_matches(got["commands"][name]["results"], want["results"], name)
    mismatches = hash_mismatches(got, golden)
    if mismatches is None:
        warnings.warn("stdout hashes not compared: the one-ulp change went unchecked")
    else:
        assert mismatches == ["S14_2", "S11_4", "S11_4_starts4", "S11_3", "S6_3"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        document = record(run_all(Path(scratch)))
    GOLDEN.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
