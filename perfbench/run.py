"""Benchmark of the cubequartic CLI: end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload analyze-sparse --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --smoke

A run writes the workload's set files, then runs the workload's jobs in
passes while one more pass fits in ``--seconds`` of elapsed time. Every
job execution is a fresh interpreter (worker.py), as for a CLI user, and
is timed around ``cubequartic.cli.main(argv)`` only. Outputs are checked
outside the timed region (checks.py).

The host's speed swings by up to 1.6x over seconds to minutes, and a slow
spell slows every job alike, so a median over the passes of one run
cannot take it out. Every reported time is therefore in reference
seconds: the measured seconds times REFERENCE_CAL_S / c, where c is the
mean time of a fixed calibration kernel run just before and just after
the job in the same process (worker.calibrate). Import time is scaled
by the calibration that directly follows it. The raw wall time of a pass
is printed too.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced pass with a traced pass (tracer.py) and reports the per-layer
metrics. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a
readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from checks import bracket_ratios, check_job
from workloads import WORKLOADS, Job, write_set_files

# calibration seconds that define the reference speed: about the kernel's
# time on a quiet 2-vCPU Xeon host, so reference seconds read like seconds
REFERENCE_CAL_S = 0.1

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / str(os.getpid())
OUT = ROOT / ".perfbench_out"

END_TO_END = {
    "wall_s": "s",
    "job1_s": "s",
    "job2_s": "s",
    "job3_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
    "bracket_ratio": "ratio",
}

# A layer that a workload never calls reads 0 there: sphere tables, reports
# and suites on the analyze workloads, for example. Per-layer metrics have
# no bound, and the end-to-end metrics are checked to be non-zero.
PER_LAYER = {
    "core.walsh_transform.calls": "count",
    "core.walsh_transform.self_s": "s",
    "core.walsh_transform.butterflies": "count",
    "core.walsh_transform.bytes_computed": "B",
    "core.SupportSet.self_s": "s",
    "core.self_s": "s",
    "quartic.mu_lower.calls": "count",
    "quartic.mu_lower.total_s": "s",
    "quartic.mu_lower.self_s": "s",
    "quartic.mu_lower.walsh_calls": "count",
    "quartic.ascent.iterations": "count",
    "quartic.ascent.transforms_per_iter": "1/iter",
    "quartic.mu_upper.total_s": "s",
    "quartic.big_f.self_s": "s",
    "quartic.self_s": "s",
    "additive.pair_multiplicities.calls": "count",
    "additive.pair_multiplicities.total_s": "s",
    "additive.pair_multiplicities.self_s": "s",
    "additive.m_bound.calls": "count",
    "additive.hereditary_energy.calls": "count",
    "additive.hereditary_energy.exhaustive_calls": "count",
    "additive.hereditary_energy.heuristic_calls": "count",
    "additive.hereditary_energy.exhaustive_s": "s",
    "additive.hereditary_energy.heuristic_s": "s",
    "additive.self_s": "s",
    "spheres.sphere_table.total_s": "s",
    "spheres.sphere_table.self_s": "s",
    "spheres.s_t_exact.calls": "count",
    "spheres.r_exact.calls": "count",
    "spheres.r_exact.self_s": "s",
    "spheres.argmax_st.self_s": "s",
    "spheres.self_s": "s",
    "asymptotics.psi_value.calls": "count",
    "asymptotics.psi_value.self_s": "s",
    "asymptotics.self_s": "s",
    "reports.conjecture_scan.total_s": "s",
    "reports.conjecture_scan.self_s": "s",
    "reports.bracket_report.total_s": "s",
    "suites.suite_core.total_s": "s",
    "suites.suite_additive.total_s": "s",
    "suites.suite_sphere.total_s": "s",
    "suites.suite_asymptotics.total_s": "s",
    "suites.suite_bounds.total_s": "s",
    "suites.run_suites.self_s": "s",
    "cli.main.self_s": "s",
    "cli.parse_set_file.self_s": "s",
    "cli.stdout_bytes": "B",
    "trace.overhead_frac": "frac",
}

# (job, traced function, statistic, lowest share of the job's traced wall
# time): what each workload claims to stress, printed by every traced run
CLAIMS = (
    ("S14_2", "core.walsh_transform", "self_s", 0.70),
    ("B14_2", "core.walsh_transform", "self_s", 0.70),
    ("S11_4", "core.walsh_transform", "self_s", 0.70),
    ("S6_3", "additive.hereditary_energy", "total_s", 0.75),
    ("table2048", "spheres.sphere_table", "total_s", 0.85),
)


class Recorder:
    """Runs passes over the jobs and keeps timings, digests and verdicts."""

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        self.workload, self.smoke = workload, smoke
        spec = WORKLOADS[workload]
        self.jobs = spec.smoke if smoke else spec.jobs
        self.claims = () if smoke else CLAIMS
        self.rng = random.Random(seed)
        self.times: dict[str, list[float]] = {job.name: [] for job in self.jobs}
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.rss: list[float] = []
        self.imports: list[float] = []
        self.digests: dict[str, str] = {}
        self.stdout: dict[str, str] = {}
        self.verdicts: dict[tuple[str, object, str], list[str]] = {}
        self.bad: set[str] = set()
        self.attempted = 0
        self.failed = 0

    def run_pass(self, spans: str | None = None) -> dict[str, dict]:
        """One pass in an order drawn from the workload seed; the jobs' results by name.
        With ``spans``, the jobs are traced and their spans go to ``<spans>-<job>.jsonl.gz``."""
        results = {}
        for job in self.rng.sample(self.jobs, len(self.jobs)):
            argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                    "--job", job.name, "--sets", str(WORK / "sets")]
            argv += ["--smoke"] if self.smoke else []
            argv += ["--trace", f"{spans}-{job.name}.jsonl.gz"] if spans is not None else []
            proc = subprocess.run(argv, capture_output=True, text=True)
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                result = {"seconds": 0.0, "code": f"worker exit {proc.returncode}",
                          "stdout": "", "stderr": proc.stderr, "rss_mib": 0.0, "import_s": 0.0,
                          "calibration_s": [REFERENCE_CAL_S]}
            result["scale"] = REFERENCE_CAL_S / statistics.fmean(result["calibration_s"])
            result["ref_s"] = result["seconds"] * result["scale"]
            self.judge(job, result)
            results[job.name] = result
        if spans is None:
            for name, result in results.items():
                self.times[name].append(result["ref_s"])
                self.imports.append(
                    result["import_s"] * REFERENCE_CAL_S / result["calibration_s"][0])
            self.walls.append(sum(r["ref_s"] for r in results.values()))
            self.raw_walls.append(sum(r["seconds"] for r in results.values()))
            self.rss.append(max(r["rss_mib"] for r in results.values()))
        return results

    def judge(self, job: Job, result: dict) -> None:
        self.attempted += 1
        code, stdout = result["code"], result["stdout"]
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        key = (job.name, code, digest)
        if key not in self.verdicts:
            self.verdicts[key] = check_job(job, code, stdout)
        problems = list(self.verdicts[key])
        if digest != self.digests.setdefault(job.name, digest):
            problems.append("stdout differs from the first pass")
        self.stdout.setdefault(job.name, stdout)
        if problems:
            self.failed += 1
            self.bad.add(job.name)
            for problem in problems:
                print(f"FAIL {job.name}: {problem}", file=sys.stderr)
            if result["stderr"]:
                print(result["stderr"][-2000:], file=sys.stderr)

    def bracket_ratio(self) -> float:
        """Geometric mean of upper / lower over every bracket of the correct jobs."""
        logs = [math.log(r) for job in self.jobs if job.name not in self.bad
                for r in bracket_ratios(job, self.stdout[job.name])]
        return math.exp(statistics.fmean(logs)) if logs else 0.0


def fits_another(started: float, rounds: int, seconds: int) -> bool:
    """True while no round ran yet, or one more round of the mean length
    ends within ``seconds`` of elapsed time after ``started``."""
    elapsed = perf_counter() - started
    return rounds == 0 or elapsed + elapsed / rounds <= seconds


def report_timing(label: str, values: list[float]) -> float:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    print(f"  {label:<24} median {median:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    return median


def run_untraced(recorder: Recorder, seconds: int, write_s: float) -> dict:
    started = perf_counter()
    while fits_another(started, len(recorder.walls), seconds):
        recorder.run_pass()
    print(f"workload {recorder.workload}: {len(recorder.walls)} passes")
    report_timing("wall_s, raw seconds", recorder.raw_walls)
    metrics = {"wall_s": report_timing("wall_s", recorder.walls)}
    for i, job in enumerate(recorder.jobs, start=1):
        metrics[f"job{i}_s"] = report_timing(f"job{i}_s ({job.name})", recorder.times[job.name])
    # set-up: what a fresh process pays before the job (import numpy and the
    # CLI, median over every job process) plus writing the set files once
    metrics["setup_s"] = report_timing("import_s", recorder.imports) + write_s
    metrics["peak_rss_mib"] = statistics.median(recorder.rss)
    metrics["ok_frac"] = (recorder.attempted - recorder.failed) / recorder.attempted
    metrics["bracket_ratio"] = recorder.bracket_ratio()
    for name, value in metrics.items():
        if not value > 0:
            print(f"FAIL metric {name} is {value}, not positive", file=sys.stderr)
    return metrics


def report_layers(recorder: Recorder, results: dict[str, dict], path: Path) -> None:
    """Print each job's heaviest functions and the workload claims; save every table."""
    tables = {}
    for job in recorder.jobs:
        result = results[job.name]
        wall, functions = result["seconds"], result["functions"]
        tables[job.name] = {"traced_s": wall, "functions": functions}
        pairs = functions.get("additive.pair_multiplicities", [0])[0]
        print(f"  {job.name}: traced {wall:.3f} s, lowest self time "
              f"{result['min_self_s']:.2e} s, pair_multiplicities.calls {pairs}")
        for name, (calls, total, own) in sorted(functions.items(), key=lambda kv: -kv[1][2])[:6]:
            print(f"    {name:<36} self {own:8.3f} s {own / wall:6.1%}  "
                  f"total {total:8.3f} s  calls {calls}")
        for claim_job, function, stat, share in recorder.claims:
            if claim_job == job.name:
                column = {"total_s": 1, "self_s": 2}[stat]
                got = functions.get(function, [0, 0.0, 0.0])[column] / wall
                verdict = "holds" if got >= share else "DOES NOT HOLD"
                print(f"    claim: {function} {stat} >= {share:.0%} of {job.name}: "
                      f"{got:.1%}, {verdict}")
    path.write_text(json.dumps(tables, indent=1) + "\n")


def run_traced(recorder: Recorder, seconds: int, seed: int) -> tuple[dict, bool]:
    samples: list[dict] = []
    sound = True
    started = perf_counter()
    OUT.mkdir(exist_ok=True)
    while fits_another(started, len(samples), seconds):
        untraced = recorder.run_pass()
        results = recorder.run_pass(spans=str(OUT / f"spans-{recorder.workload}-seed{seed}"))
        traced = sum(r["ref_s"] for r in results.values())
        untraced_wall = sum(r["ref_s"] for r in untraced.values())
        print(f"traced pass {len(samples) + 1}: untraced {untraced_wall:.3f} ref s, "
              f"traced {traced:.3f} ref s")
        if any("layer" not in r for r in results.values()):
            return {m: 0.0 for m in PER_LAYER}, False
        values: dict[str, float] = defaultdict(int)
        for result in results.values():
            for name, value in result["layer"].items():
                values[name] += value * result["scale"] if name.endswith("_s") else value
        iterations = values["quartic.ascent.iterations"]
        values["quartic.ascent.transforms_per_iter"] = (
            values["quartic.mu_lower.walsh_calls"] / iterations if iterations else 0.0)
        values["trace.overhead_frac"] = (traced - untraced_wall) / untraced_wall
        samples.append(values)
        sound &= all(r["min_self_s"] >= -1e-9 for r in results.values())
        report_layers(recorder, results, OUT / f"layers-{recorder.workload}-seed{seed}.json")
    return {m: statistics.median(s[m] for s in samples) for m in PER_LAYER}, sound


def run(workload: str, seed: int, seconds: int, trace: int, smoke: bool) -> str:
    recorder = Recorder(workload, seed, smoke)
    start = perf_counter()
    write_set_files(recorder.jobs, WORK / "sets")
    write_s = perf_counter() - start
    if trace:
        metrics, sound = run_traced(recorder, seconds, seed)
        units = PER_LAYER
    else:
        metrics = run_untraced(recorder, seconds, write_s)
        sound = all(value > 0 for value in metrics.values())
        units = END_TO_END
    for job in recorder.jobs:
        print(f"  {job.name:<12} stdout sha256 {recorder.digests.get(job.name, '-')[:16]}")
    return json.dumps({
        "correct": sound and recorder.failed == 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    })


def smoke() -> int:
    """Tiny variants of every job in both modes; check names and units against BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    ok = [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = json.loads(run(workload, 1, 0, trace, smoke=True))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            good = result["correct"] and got == want[trace]
            print(f"smoke {workload} trace={trace}: {'ok' if good else 'MISMATCH'}")
            ok &= good
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny jobs, check metric names")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cubequartic" / "cli.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        line = run(args.workload, args.seed, args.seconds, args.trace, smoke=False)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
