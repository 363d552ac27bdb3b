"""Acceptance suite: one test per criterion, at full stated sample sizes.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
stream); the assertions carry the same tolerances.
"""

import json
import math
import re
import time

import numpy as np

from mehtalab.cli import main
from mehtalab.estimation import substream
from mehtalab.mehta import (
    detmoment_identity_check,
    exp_det_pointwise_check,
    kacrice_intervals,
    mehta_closed_form,
    mehta_mc,
    mehta_quadrature,
    mehta_ratio,
    reproduce_zm,
)
from mehtalab.regression import (
    conditional_hessian_moments,
    hessian_regression_pair,
    regress,
)
from mehtalab.spectral import batched_eigvals
from mehtalab.spherefield import find_critical_points_batch
from mehtalab.symspace import EnsembleParams, covariance_audit, sample_goe_batch


def report(number, ok, label, started, budget):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {verdict} {label} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < budget, f"criterion {number} overran its {budget:.0f}s budget: {elapsed:.1f}s"


def test_01_covariance_audit():
    t0 = time.perf_counter()
    worst = 0.0
    for m, u, v in ((4, 0.0, 0.5), (3, 1.0, 1.0), (3, 1.0, 0.5)):
        audit = covariance_audit(EnsembleParams(m, u, v), 200000, seed=601)
        worst = max(worst, audit.max_abs_z)
    report(1, worst <= 4.0, f"covariance audit, worst |z| = {worst:.2f}", t0, 30.0)


def test_02_mehta_quadrature_vs_closed_form():
    t0 = time.perf_counter()
    devs = []
    ok = True
    for m, tol in ((1, 2e-6), (2, 2e-6), (3, 1e-4)):
        dev = abs(mehta_quadrature(m) - mehta_closed_form(m))
        devs.append(dev)
        ok = ok and dev <= tol
    label = "quadrature vs closed form, devs = " + ", ".join(f"{d:.1e}" for d in devs)
    report(2, ok, label, t0, 60.0)


def test_03_mehta_monte_carlo():
    t0 = time.perf_counter()
    zs = []
    for m in (2, 3, 4, 5):
        res = mehta_mc(m, 1000000, seed=602 + m)
        zs.append(res.z_score)
    ok = all(abs(z) <= 4.0 for z in zs)
    report(3, ok, "mehta mc m=2..5, z = " + ", ".join(f"{z:+.2f}" for z in zs), t0, 120.0)


def test_04_ratio_recursion():
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(1, 21):
        lhs = mehta_closed_form(m + 1)
        rhs = mehta_ratio(m) * mehta_closed_form(m)
        worst = max(worst, abs(lhs - rhs) / lhs)
    report(4, worst <= 1e-12, f"ratio recursion m=1..20, worst rel = {worst:.1e}", t0, 1.0)


def test_05_detmoment_integrated():
    t0 = time.perf_counter()
    zs = []
    for k, (m, v) in enumerate(((1, 0.5), (2, 0.5), (1, 2.0))):
        res = detmoment_identity_check(m, v, 500000, seed=610 + k)
        zs.append(res.z_score)
    ok = all(abs(z) <= 4.0 for z in zs)
    report(5, ok, "integrated determinant moment, z = " + ", ".join(f"{z:+.2f}" for z in zs), t0, 60.0)


def test_06_detmoment_pointwise():
    t0 = time.perf_counter()
    zs = []
    for k, (m, v, c) in enumerate(((1, 0.5, 0.0), (1, 0.5, 1.0), (2, 0.5, 0.0))):
        res = exp_det_pointwise_check(m, v, c, 500000, seed=620 + k)
        zs.append(res.z_score)
    ok = all(abs(z) <= 4.0 for z in zs)
    report(6, ok, "pointwise determinant moment, z = " + ", ".join(f"{z:+.2f}" for z in zs), t0, 120.0)


def test_07_critical_point_exact_count():
    t0 = time.perf_counter()
    failures = 0
    worst_dev = 0.0
    for m in (1, 2, 3):
        d = m + 1
        mats = sample_goe_batch(d, 1.0, 10000, substream(630 + m))
        batch = find_critical_points_batch(mats, rng=640 + m)
        assert batch.values.shape == (10000, 2 * d)
        lam = batched_eigvals(mats)
        assert np.max(np.abs(lam - np.linalg.eigvalsh(mats))) < 1e-10
        dev = float(np.max(np.abs(batch.values - np.repeat(lam, 2, axis=1))))
        worst_dev = max(worst_dev, dev)
        if dev > 1e-8:
            failures += 1
        want = np.repeat(np.arange(d), 2)[None, :]
        if not (batch.morse_indices == want).all():
            failures += 1
    ok = failures == 0
    report(7, ok, f"critical point exactness, worst value dev = {worst_dev:.1e}", t0, 180.0)


def test_08_kacrice_identity():
    t0 = time.perf_counter()
    ok = True
    details = []
    intervals = {"R": (-math.inf, math.inf), "[0,inf)": (0.0, math.inf), "[-1,1]": (-1.0, 1.0)}
    for m, v in ((1, 1.0), (2, 1.0)):
        comparisons = kacrice_intervals(m, v, list(intervals.values()), 200000, seed=650 + m)
        for label, res in zip(intervals, comparisons):
            if label == "R":
                exact = res.empirical.estimate == 2.0 * (m + 1) and res.empirical.std_error == 0.0
                ok = ok and exact
            worst = max(
                abs(res.z_empirical_kacrice),
                abs(res.z_empirical_spectral),
                abs(res.z_kacrice_spectral),
            )
            ok = ok and worst <= 4.0
            details.append(f"m={m} {label}: {worst:.2f}")
    report(8, ok, "kac-rice identity, worst |z| per case: " + "; ".join(details), t0, 180.0)


def test_09_reproduce_mehta_end_to_end():
    t0 = time.perf_counter()
    rows = reproduce_zm(4, 1000000, seed=660)
    ok = all(r.passed for r in rows)
    label = "sphere-side reproduction, " + ", ".join(
        f"Z_{r.meta['m']}: z={r.z_score:+.2f}" for r in rows
    )
    report(9, ok, label, t0, 300.0)


def test_10_regression_suite():
    t0 = time.perf_counter()
    ok = True
    zs = []
    for k, (m, v) in enumerate(((2, 1.0), (3, 0.5))):
        moments = conditional_hessian_moments(m, v, 200000, seed=670 + k, method="residual")
        for res in moments.values():
            zs.append(res.z_score)
            ok = ok and abs(res.z_score) <= 4.0
        for coords in ("ell", "omega"):
            pair = hessian_regression_pair(m, v, coords=coords)
            fit = regress(pair)
            explained = pair.cross @ np.linalg.solve(pair.x.cov, pair.cross.T)
            dev = float(np.max(np.abs(pair.y.cov - fit.residual_cov - explained)))
            ok = ok and dev <= 1e-10
    worst = max(abs(z) for z in zs)
    report(10, ok, f"conditional Hessian moments, worst |z| = {worst:.2f}", t0, 60.0)


def test_11_report_determinism(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "report.json"
    runs = []
    for workers in ("4", "4", "1"):
        rc = main(["report", "--seed", "42", "--workers", workers, "--n", "2000", "--out", str(out)])
        runs.append((rc, out.read_bytes()))
    # the worker count may only show in the echoed configuration
    pattern = re.compile(rb'"(wall_time_s|workers)": [-0-9.e+]+')
    masked = {pattern.sub(b"T", text) for _, text in runs}
    passed = json.loads(runs[0][1])["all_pass"]
    ok = len(masked) == 1 and all(rc == 0 for rc, _ in runs) and passed
    report(11, ok, "report determinism (seed 42, 4 workers twice, then 1 worker)", t0, 120.0)
