"""Correctness checks of job output, computed by the benchmark itself.

Nothing here imports the package under test: energies, multiplicities and
sphere ratios are recounted by plain enumeration and binomial sums, so a
fast but wrong program cannot pass. Every check runs outside the timed
region. Each returns a list of problems; an empty list means the job's
output is correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from workloads import Job

SLACK = 1e-9

CONSISTENT = "conjecture-consistent"


def sphere_mass(n: int, k: int, t: int) -> Fraction:
    """s_t(n, k) = C(n, 2t) (C(2t, t) C(n-2t, k-t))^2 / C(n, k)^2, or 0 where undefined."""
    if not 0 <= t <= k or k - t > n - 2 * t:
        return Fraction(0)
    inner = math.comb(2 * t, t) * math.comb(n - 2 * t, k - t)
    return Fraction(math.comb(n, 2 * t) * inner * inner, math.comb(n, k) ** 2)


def r_sphere(n: int, k: int) -> Fraction:
    """r(n, k) = sum over t of s_t(n, k)."""
    return sum((sphere_mass(n, k, t) for t in range(k + 1)), Fraction(0))


def _pair_counts(masks: list[int]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for a in masks:
        for b in masks:
            x = a ^ b
            counts[x] = counts.get(x, 0) + 1
    return counts


def check_analyze(job: Job, results: dict) -> list[str]:
    problems = []
    masks = job.spec.masks()
    size = len(masks)
    counts = _pair_counts(masks)
    energy = sum(c * c for c in counts.values())
    mult = 1 + max((c for x, c in counts.items() if x), default=0)
    expect = {
        "set.size": (results["set"]["size"], size),
        "mu_upper.cardinality_bound": (results["mu_upper"]["cardinality_bound"], size),
        "mu_upper.multiplicity_bound": (results["mu_upper"]["multiplicity_bound"], mult),
        "additive.multiplicity_bound": (results["additive"]["multiplicity_bound"], mult),
        "additive.energy": (int(results["additive"]["energy"]), energy),
        "additive.energy_ratio": (
            Fraction(results["additive"]["energy_ratio"]),
            Fraction(energy, size * size),
        ),
    }
    if job.spec.family == "sphere":
        expect["energy_ratio vs r(n,k)"] = (
            Fraction(results["additive"]["energy_ratio"]),
            r_sphere(job.spec.n, job.spec.k),
        )
    for name, (got, want) in expect.items():
        if got != want:
            problems.append(f"{name}: got {got}, expected {want}")
    lower = results["mu_lower"]["value"]
    upper = results["mu_upper"]["best"]
    ratio = Fraction(results["additive"]["energy_ratio"])
    hered = Fraction(results["hereditary"]["ratio"])
    if not float(ratio) <= lower + SLACK:
        problems.append(f"energy ratio {float(ratio)} above mu_lower {lower}")
    if not float(hered) <= lower + SLACK:
        problems.append(f"hereditary ratio {float(hered)} above mu_lower {lower}")
    if not lower <= upper + SLACK:
        problems.append(f"mu_lower {lower} above mu_upper.best {upper}")
    if job.hereditary is not None:
        if hered != Fraction(job.hereditary) or results["hereditary"]["exact"] is not True:
            problems.append(
                f"hereditary ratio {hered} exact={results['hereditary']['exact']}, "
                f"expected exact {job.hereditary}"
            )
    return problems


def check_scan(job: Job, results: dict) -> list[str]:
    problems = []
    records = results["records"]
    cells = [(n, k) for n in range(2, job.n_max + 1) for k in range(1, n // 2 + 1)]
    if [(r["n"], r["k"]) for r in records] != cells:
        problems.append(f"scan covered {len(records)} cells, expected {len(cells)}")
    for r in records:
        cell = f"(n={r['n']}, k={r['k']})"
        if r["status"] != CONSISTENT:
            problems.append(f"{cell} status {r['status']}")
        if not r["gap"] >= -1e-8:
            problems.append(f"{cell} gap {r['gap']} below -1e-8")
        if Fraction(r["energy_ratio"]) != r_sphere(r["n"], r["k"]):
            problems.append(f"{cell} energy ratio {r['energy_ratio']} is not r(n,k)")
    return problems


def check_verify(results: dict) -> list[str]:
    return [] if results["overall"] is True else ["verify overall is not true"]


def check_table(job: Job, results: dict) -> list[str]:
    """Every printed row's mass and running sum, and the total, against the binomial formula."""
    n, k, t_min = job.table
    problems = []
    rows = results["rows"]
    if [row["t"] for row in rows] != list(range(t_min, k + 1)):
        problems.append(f"rows cover t = {[row['t'] for row in rows]}, expected {t_min}..{k}")
    previous = None
    for row in rows:
        mass, cumulative = Fraction(row["mass"]), Fraction(row["cumulative"])
        if mass != sphere_mass(n, k, row["t"]):
            problems.append(f"row t={row['t']}: mass differs from s_t({n},{k})")
        if previous is not None and cumulative - previous != mass:
            problems.append(f"row t={row['t']}: cumulative does not grow by the mass")
        previous = cumulative
    total = r_sphere(n, k)
    if rows and Fraction(rows[-1]["cumulative"]) != total:
        problems.append(f"last cumulative differs from r({n},{k})")
    if Fraction(results["footer"]["total"]) != total:
        problems.append(f"footer total differs from r({n},{k})")
    return problems


def check_job(job: Job, code, stdout: str) -> list[str]:
    """All problems with one job's exit code and stdout."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        results = json.loads(stdout)["results"]
        if job.kind == "analyze":
            return check_analyze(job, results)
        if job.kind == "scan":
            return check_scan(job, results)
        if job.kind == "verify":
            return check_verify(results)
        return check_table(job, results)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def bracket_ratios(job: Job, stdout: str) -> list[float]:
    """upper / lower for every bracket the job reports (analyze and scan)."""
    results = json.loads(stdout)["results"]
    if job.kind == "analyze":
        return [results["mu_upper"]["best"] / results["mu_lower"]["value"]]
    if job.kind == "scan":
        return [
            (float(Fraction(r["energy_ratio"])) + r["upper_gap"]) / r["mu_est"]
            for r in results["records"]
        ]
    return []
