"""Acceptance gate: twelve stated criteria, one pass/fail line each.

Every test prints its verdict line to the real stdout (bypassing
capture) so the gate is auditable from any pytest log, then asserts.
Failures list the first offending instances, never a bare False.
"""

import io
import json
import math
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from cubequartic.additive import energy_ratio
from cubequartic.asymptotics import TWO_LOG2_3, f_combine, phi, psi_value, r_of_x
from cubequartic.cli import main
from cubequartic.core import (
    CubeFunction,
    SpectrumVector,
    SupportSet,
    analyze,
    moments,
    support_of,
)
from cubequartic.quartic import (
    OptimizerConfig,
    _DenseKernel,
    big_f,
    decompose_last,
    mu_lower,
    mu_upper,
)
from cubequartic.reports import (
    log2_fraction,
    psi_envelope_report,
    restricted_mass_check,
    sphere_ratio_report,
    sumset_bound_report,
    uncertainty_report,
)
from cubequartic.spheres import SphereParams, r_exact, t1

from conftest import brute_energy, central_difference, split_curve


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_channel(capsys):
    # lets _finish print through pytest's fd-level capture
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _finish(num, label, limit_s, started, failures):
    elapsed = time.monotonic() - started
    ok = not failures and elapsed <= limit_s
    line = f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    print(line)  # captured copy, shown in the failure report
    detail = "; ".join(str(f) for f in failures[:8])
    assert ok, f"{label}: {elapsed:.1f}s of {limit_s}s allowed; {detail or 'timed out'}"


def test_01_energy_closed_form_equivalence():
    started = time.monotonic()
    failures = []
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            S = SupportSet.sphere(n, k)
            brute = Fraction(brute_energy(S.elements), len(S) ** 2)
            closed = r_exact(SphereParams(n, k))
            if brute != closed:
                failures.append(f"(n={n},k={k}): {brute} != {closed}")
    _finish(1, "energy closed form equivalence", 60, started, failures)


def test_02_two_path_f_agreement():
    started = time.monotonic()
    failures = []
    rng = np.random.default_rng(402)
    for i in range(200):
        n = int(rng.integers(2, 11))
        size = int(rng.integers(1, min(40, 1 << n) + 1))
        masks = rng.choice(1 << n, size=size, replace=False)
        A = SupportSet.from_masks(n, [int(m) for m in masks])
        y = SpectrumVector(A, rng.standard_normal(size))
        via_pairs = big_f(y)
        via_moments = moments(y.to_function()).fourth
        scale = max(1.0, abs(via_pairs), abs(via_moments))
        if abs(via_pairs - via_moments) > 1e-10 * scale:
            failures.append(f"instance {i}: {via_pairs} vs {via_moments}")
    _finish(2, "two-path F agreement", 30, started, failures)


def test_03_gradient_correctness():
    started = time.monotonic()
    failures = []
    rng = np.random.default_rng(403)
    for i in range(50):
        n = int(rng.integers(2, 9))
        size = int(rng.integers(2, min(15, 1 << n) + 1))
        masks = rng.choice(1 << n, size=size, replace=False)
        A = SupportSet.from_masks(n, [int(m) for m in masks])
        coords = rng.standard_normal(size)
        kernel = _DenseKernel(A)
        grad = kernel.gradient(kernel.evaluate(coords)[1])
        fd = central_difference(lambda c: big_f(SpectrumVector(A, c)), coords, 1e-5)
        err = float(np.max(np.abs(grad - fd))) / max(1.0, float(np.max(np.abs(grad))))
        if err > 1e-6:
            failures.append(f"instance {i}: relative gradient error {err:.3g}")
    _finish(3, "gradient correctness", 30, started, failures)


def test_04_bracket_soundness():
    started = time.monotonic()
    failures = []
    rng = np.random.default_rng(404)
    for i in range(200):
        n = int(rng.integers(2, 11))
        size = int(rng.integers(1, min(24, 1 << n) + 1))
        masks = rng.choice(1 << n, size=size, replace=False)
        A = SupportSet.from_masks(n, [int(m) for m in masks])
        cfg = OptimizerConfig(starts=6, max_iters=1500, seed=i)
        lower = mu_lower(A, cfg).value
        upper = mu_upper(A).best
        if lower > upper + 1e-8:
            failures.append(f"instance {i}: lower {lower} above upper {upper}")
    for d in range(4):
        for trial in range(10):
            n = int(rng.integers(max(4, d + 1), 11))
            while True:
                gens = [int(m) for m in rng.integers(1, 1 << n, size=d)]
                V = SupportSet.span(n, gens)
                if len(V) == 1 << d:
                    break
            est = mu_lower(V, OptimizerConfig(starts=4, max_iters=800, seed=trial))
            upper = mu_upper(V)
            if est.value < (1 << d) - 1e-6:
                failures.append(f"subspace d={d}: lower {est.value}")
            if upper.best != float(1 << d):
                failures.append(f"subspace d={d}: best {upper.best} != {1 << d}")
            if est.value > upper.best + 1e-8:
                failures.append(f"subspace d={d}: bracket broken")
    _finish(4, "bracket soundness", 300, started, failures)


def test_05_sphere_small_cases():
    started = time.monotonic()
    failures = []
    for n in range(2, 9):
        A = SupportSet.sphere(n, 1)
        est = mu_lower(A, OptimizerConfig(starts=12, max_iters=3000, seed=n))
        lo = 3.0 - 2.0 / n - 1e-9
        if not lo <= est.value <= 3.0:
            failures.append(f"S({n},1): {est.value} outside [{lo}, 3]")
        if mu_upper(A).sphere_sum_bound != 3:
            failures.append(f"S({n},1): sum bound != 3")
    for n in range(4, 9):
        if mu_upper(SupportSet.sphere(n, 2)).sphere_sum_bound != 15:
            failures.append(f"S({n},2): sum bound != 15")
    _finish(5, "sphere small cases", 120, started, failures)


def test_06_psi_endpoints_and_shape():
    started = time.monotonic()
    failures = []
    if psi_value(0.0) != 0.0:
        failures.append(f"psi(0) = {psi_value(0.0)}")
    if abs(psi_value(0.5) - 1.0) > 1e-12:
        failures.append(f"psi(1/2) = {psi_value(0.5)}")
    h = 1e-3
    for i in range(1, 499):
        x = i * h
        second = psi_value(x + h) - 2.0 * psi_value(x) + psi_value(x - h)
        if second >= 0.0:
            failures.append(f"second difference at x={x}: {second}")
        cap = min(TWO_LOG2_3 * x, 1.0)
        if not psi_value(x) < cap:
            failures.append(f"linear cap violated at x={x}")
    _finish(6, "psi endpoints and shape", 10, started, failures)


def test_07_analytic_identities():
    started = time.monotonic()
    failures = []
    for i in range(501):
        x = i * 1e-3
        r = r_of_x(x)
        if abs((3.0 * r - 4.0 * r * r) / 2.0 - x * (1.0 - x)) > 1e-10:
            failures.append(f"quadratic identity at x={x}")
        if abs(2.0 * (x - r) * (1.0 - x - r) - r * (1.0 - 2.0 * r)) > 1e-10:
            failures.append(f"product identity at x={x}")
    rng = np.random.default_rng(407)
    for _ in range(1000):
        n = int(rng.integers(2, 513))
        k = int(rng.integers(0, n // 2 + 1))
        p = SphereParams(n, k)
        gap = abs(phi(t1(p) / n, p) - psi_value(k / n))
        if gap > 1e-10:
            failures.append(f"phi/psi mismatch at (n={n},k={k}): {gap}")
    _finish(7, "analytic identities", 30, started, failures)


def test_08_sphere_ratio_exact_arithmetic():
    started = time.monotonic()
    failures = []
    report = sphere_ratio_report(64, 128)
    if not report.overall:
        failures.extend(c.name for c in report.failed_checks())
    if len(report.checks) < 1000:
        failures.append(f"only {len(report.checks)} checks ran")
    _finish(8, "sphere ratio exact arithmetic", 300, started, failures)


def test_09_exponent_desk_checks():
    started = time.monotonic()
    failures = []
    report = psi_envelope_report(256)
    if not report.overall:
        failures.extend(c.name for c in report.failed_checks())
    # linear-space spot checks where 2^(n psi) still fits a float
    for n in (16, 24, 32, 40):
        for k in range(1, n // 2 + 1):
            r = float(r_exact(SphereParams(n, k)))
            bound = 2.0 ** (n * psi_value(k / n))
            if r > bound * (1.0 + 1e-9):
                failures.append(f"claim 1 fails at (n={n},k={k})")
            if k >= 8 and bound > 8.0 * k**1.5 * r * (1.0 + 1e-12):
                failures.append(f"claim 2 fails at (n={n},k={k})")
    _finish(9, "exponent desk checks", 300, started, failures)


def test_10_uncertainty_and_restricted_mass():
    started = time.monotonic()
    failures = []
    # subspace equality: support product equals 2^n exactly
    for n, gens in [(6, [3, 12]), (7, [5, 24, 66]), (8, [15, 51])]:
        V = SupportSet.span(n, gens)
        f = V.indicator()
        spec_support = support_of(analyze(f), 1e-10)
        if len(V) * len(spec_support) != 1 << n:
            failures.append(f"subspace product off at n={n}")
        if not uncertainty_report(f).overall:
            failures.append(f"uncertainty report fails at n={n}")

    rng = np.random.default_rng(410)
    admissible = 0
    attempts = 0
    while admissible < 100 and attempts < 5000:
        attempts += 1
        n = int(rng.integers(6, 11))
        if attempts % 2:
            # subspace-character instance: small dual support
            d = int(rng.integers(n - 3, n - 1))
            while True:
                gens = [int(m) for m in rng.integers(1, 1 << n, size=d)]
                V = SupportSet.span(n, gens)
                if len(V) == 1 << d:
                    break
            f = V.indicator()
            delta_cap = d / n
        else:
            size = int(rng.integers(1, 5))
            masks = rng.choice(1 << n, size=size, replace=False)
            A = SupportSet.from_masks(n, [int(m) for m in masks])
            f = SpectrumVector(A, rng.standard_normal(size)).to_function()
            gate_best = mu_upper(support_of(analyze(f), 1e-10)).best
            delta_cap = 1.0 - math.log2(max(gate_best, 1.0)) / n
        if delta_cap <= 0.05:
            continue
        delta = float(rng.uniform(0.02, 0.9 * delta_cap))
        B_size = int(rng.integers(1, 3))
        B = SupportSet.from_masks(
            n, [int(m) for m in rng.choice(1 << n, size=B_size, replace=False)]
        )
        report = restricted_mass_check(f, B, delta)
        if not any(c.hard for c in report.checks):
            continue  # gate rejected the instance; not admissible
        admissible += 1
        if not report.overall:
            failures.append(f"mass bound fails: n={n}, delta={delta:.3f}")
    if admissible < 100:
        failures.append(f"only {admissible} admissible instances in {attempts} tries")

    for i in range(100):
        n = int(rng.integers(4, 11))
        k1 = int(rng.integers(1, n // 2 + 1))
        k2 = int(rng.integers(1, n // 2 + 1))
        ball1, ball2 = SupportSet.ball(n, k1), SupportSet.ball(n, k2)
        b_sz = int(rng.integers(1, min(10, len(ball1)) + 1))
        c_sz = int(rng.integers(1, min(10, len(ball2)) + 1))
        B = SupportSet.from_masks(
            n, [int(m) for m in rng.choice(list(ball1), size=b_sz, replace=False)]
        )
        C = SupportSet.from_masks(
            n, [int(m) for m in rng.choice(list(ball2), size=c_sz, replace=False)]
        )
        report = sumset_bound_report(B, C, k1, k2)
        if not report.overall:
            failures.append(f"sumset pair {i} fails")
        exact = next(c for c in report.checks if c.relation == ">=")
        if not (isinstance(exact.lhs, int) and isinstance(exact.rhs, int)):
            failures.append(f"sumset pair {i}: bound not exact integers")
    _finish(10, "uncertainty and restricted mass", 180, started, failures)


def test_11_split_and_tensorization():
    started = time.monotonic()
    failures = []
    rng = np.random.default_rng(411)
    for i in range(100):
        n = int(rng.integers(3, 9))
        f = CubeFunction(n, rng.standard_normal(1 << n))
        pair = decompose_last(f)
        g0, g1 = pair.g0.values, pair.g1.values
        lhs = float(np.mean(f.values**4))
        rhs = float(np.mean(g0**4) + 6.0 * np.mean(g0**2 * g1**2) + np.mean(g1**4))
        if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs), abs(rhs)):
            failures.append(f"split identity fails on instance {i}")

    for i in range(10):
        n = int(rng.integers(2, 6))
        f = rng.standard_normal(1 << n)
        for m in (2, 3):
            tensor = f.copy()
            for _ in range(m - 1):
                tensor = np.kron(tensor, f)
            for p in (2, 4):
                lhs = float(np.mean(tensor**p))
                rhs = float(np.mean(f**p)) ** m
                if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs), abs(rhs)):
                    failures.append(f"tensor moment p={p}, m={m} off on instance {i}")

    found = 0
    trials = 0
    while found < 50 and trials < 2000:
        trials += 1
        n = int(rng.integers(2, 6))
        m0 = moments(CubeFunction(n, rng.standard_normal(1 << n)))
        m1 = moments(CubeFunction(n, rng.standard_normal(1 << n)))
        r0, r1 = m0.ratio(), m1.ratio()
        if not (r1 / 9.0 < r0 < 9.0 * r1):
            continue
        found += 1
        peak = f_combine(r0, r1)
        # x = s u / (1 - u) sweeps [0, inf) as u sweeps [0, 1), and G is
        # unimodal in u as in x
        s = m0.second / m1.second

        def G(u):
            return split_curve(m0, m1, s * u / (1.0 - u))

        us = np.linspace(0.0, 1.0, 2001)[:-1]
        best_i = int(np.argmax([G(float(u)) for u in us]))
        lo = us[max(0, best_i - 1)]
        hi = us[min(len(us) - 1, best_i + 1)]
        for _ in range(120):  # ternary refinement on the unimodal peak
            third = (hi - lo) / 3.0
            if G(lo + third) < G(hi - third):
                lo += third
            else:
                hi -= third
        grid_max = G((lo + hi) / 2.0)
        if abs(grid_max - peak) > 1e-8 * max(1.0, peak):
            failures.append(f"curve max off: grid {grid_max} vs closed {peak}")
    if found < 50:
        failures.append(f"only {found} interior-regime instances in {trials} trials")
    _finish(11, "split and tensorization identities", 180, started, failures)


def test_12_conjecture_scan_determinism():
    started = time.monotonic()
    failures = []

    def run_scan() -> str:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["scan", "--n-max", "8"])
        if code != 0:
            failures.append(f"scan exited {code}")
        return buffer.getvalue()

    first = run_scan()
    second = run_scan()
    if first != second:
        failures.append("repeated scans are not byte-identical")
    records = json.loads(first)["results"]["records"]
    if len(records) != 16:
        failures.append(f"expected 16 records, got {len(records)}")
    for rec in records:
        if rec["gap"] < -1e-8:
            failures.append(f"gap {rec['gap']} at (n={rec['n']},k={rec['k']})")
        expected = energy_ratio(SupportSet.sphere(rec["n"], rec["k"]))
        if rec["energy_ratio"] != f"{expected.numerator}/{expected.denominator}":
            failures.append(f"energy ratio mismatch at (n={rec['n']},k={rec['k']})")
    _finish(12, "conjecture scan determinism", 600, started, failures)
