"""Workloads of the cubequartic benchmark: jobs, their inputs, smoke variants.

A workload is a closed loop of CLI jobs: one caller runs each command
after the previous one has finished.

Every job's input is fixed: each gets ``--seed 0`` and the random set is
drawn from a fixed seed. The work of the seeded jobs depends strongly on
the seed: across seeds 1-10, the ascent iterations of analyze on 96
random masks in n=16 have an interquartile range of 34% of their median, and ``verify --suite all``
took between 2.9 s and 5.6 s. A benchmark run sees one seed, so the
benchmark would measure that seed rather than the program. The workload
seed instead orders the jobs of each pass (see run.py), which changes
no job's output.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class SetSpec:
    """A support set the benchmark writes to a set file.

    ``family`` is ``sphere``, ``ball`` (written as a one-line directive) or
    ``random`` (``size`` distinct masks drawn from a fixed seed, written as
    bitstring records).
    """

    family: str
    n: int
    k: int = 0
    size: int = 0

    def masks(self) -> list[int]:
        """The members as bitmasks, built without the package under test."""
        if self.family == "random":
            return random.Random(f"{INPUT_SEED}:{self.n}:{self.size}").sample(
                range(1 << self.n), self.size
            )
        radii = [self.k] if self.family == "sphere" else range(self.k + 1)
        return sorted(
            sum(1 << i for i in bits)
            for r in radii
            for bits in itertools.combinations(range(self.n), r)
        )

    def text(self) -> str:
        if self.family in ("sphere", "ball"):
            return f"n={self.n}\n{self.family} {self.n} {self.k}\n"
        rows = (
            "".join("1" if m >> i & 1 else "0" for i in range(self.n))
            for m in self.masks()
        )
        return f"n={self.n}\n" + "\n".join(rows) + "\n"


@dataclass(frozen=True)
class Job:
    """One CLI command of a workload, with what its check needs to know."""

    name: str
    kind: str  # analyze | scan | verify | table
    args: tuple[str, ...] = ()
    spec: SetSpec | None = None
    hereditary: str | None = None  # exact hereditary ratio the job must report
    table: tuple[int, int, int] | None = None  # n, k and the first printed row t
    n_max: int = 0

    def argv(self, set_dir: Path) -> list[str]:
        if self.kind == "analyze":
            head = ["analyze", str(set_dir / f"{self.name}.txt")]
        elif self.kind == "scan":
            head = ["scan", "--n-max", str(self.n_max)]
        elif self.kind == "verify":
            head = ["verify"]
        else:
            n, k, t_min = self.table
            head = ["sphere-table", str(n), str(k), "--t-min", str(t_min)]
        return head + list(self.args) + ["--seed", str(INPUT_SEED)]


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    smoke: tuple[Job, ...]  # tiny variants with the same names, for --smoke


INPUT_SEED = 0
_SPARSE = ("--starts", "4")
_SMOKE = ("--starts", "2")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "analyze-sparse",
            (
                Job("S14_2", "analyze", _SPARSE, SetSpec("sphere", 14, 2)),
                Job("B14_2", "analyze", _SPARSE, SetSpec("ball", 14, 2)),
                Job("R14_72", "analyze", _SPARSE, SetSpec("random", 14, size=72)),
            ),
            (
                Job("S14_2", "analyze", _SMOKE, SetSpec("sphere", 6, 1)),
                Job("B14_2", "analyze", _SMOKE, SetSpec("ball", 6, 1)),
                Job("R14_72", "analyze", _SMOKE, SetSpec("random", 6, size=12)),
            ),
        ),
        Workload(
            "analyze-dense",
            (
                Job("S11_4", "analyze", (), SetSpec("sphere", 11, 4)),
                Job("S11_3", "analyze", _SPARSE, SetSpec("sphere", 11, 3)),
                Job("S6_3", "analyze", (), SetSpec("sphere", 6, 3), hereditary="64/5"),
            ),
            (
                Job("S11_4", "analyze", _SMOKE, SetSpec("sphere", 7, 2)),
                Job("S11_3", "analyze", _SMOKE, SetSpec("sphere", 7, 3)),
                Job("S6_3", "analyze", _SMOKE, SetSpec("sphere", 5, 2)),
            ),
        ),
        Workload(
            "sweep",
            (
                Job("scan8", "scan", ("--threads", "2", "--starts", "6"), n_max=8),
                Job("verify_all", "verify", ("--suite", "all", "--starts", "4")),
                Job("table2048", "table", table=(2048, 1024, 1016)),
            ),
            (
                Job("scan8", "scan", ("--threads", "2") + _SMOKE, n_max=4),
                Job("verify_all", "verify", ("--suite", "asymptotics")),
                Job("table2048", "table", table=(64, 32, 28)),
            ),
        ),
    )
}


def write_set_files(jobs: tuple[Job, ...], set_dir: Path) -> None:
    """Write the set file of every analyze job into ``set_dir``."""
    set_dir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if job.spec is not None:
            (set_dir / f"{job.name}.txt").write_text(job.spec.text(), encoding="ascii")
