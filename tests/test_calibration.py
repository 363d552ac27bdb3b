"""Calibration over seeds: a standard error must be neither too small nor too large.

A 4-SE gate never fails an inflated standard error, so each estimator here runs
at K = 40 fixed seeds, ``range(40)``, and a small n, and its z-scores against an
exact reference must have mean z^2 in the two-sided 1e-4 band of chi^2_K / K
and |mean z| at most 4 / sqrt(K).
"""

import math

import numpy as np
import pytest

from mehtalab.mehta import (
    detmoment_identity_check,
    exp_abs_det_mc,
    exp_det_pointwise_check,
    kacrice_intervals,
    mehta_mc,
    mehta_ratio,
    reproduce_zm,
)
from mehtalab.regression import conditional_hessian_moments
from mehtalab.spectral import _legendre, goe_density, one_point_correlation

SEEDS = range(40)


def _assert_calibrated(z):
    z = np.asarray(z, dtype=float)
    assert 0.35 <= np.mean(z**2) <= 2.11, z
    assert abs(np.mean(z)) <= 4.0 / math.sqrt(len(SEEDS)), z


@pytest.mark.parametrize("m,v,c", [(1, 0.5, 0.0), (1, 0.5, 1.0), (2, 0.5, 0.0)])
def test_detmoment_pointwise_rows(m, v, c):
    # the report's three pointwise rows, against the exact one-point density
    _assert_calibrated([exp_det_pointwise_check(m, v, c, 4000, seed=s, workers=1).z_score for s in SEEDS])


@pytest.mark.parametrize("m", [3, 6, 8])
def test_mehta_mc(m):
    # the importance sampler at the ensemble's scale, against the closed form
    _assert_calibrated([mehta_mc(m, 4000, seed=s, workers=1).z_score for s in SEEDS])


def test_reproduce_zm_rows():
    # every row m = 2..13 of the sphere-side table, each level drawn at GOE(m + 1)'s scale, against the closed form
    z = np.array([[r.z_score for r in reproduce_zm(12, 4000, seed=s, workers=1)] for s in SEEDS])
    for col in z.T:
        _assert_calibrated(col)


def test_kacrice_routes_against_exact():
    # each of the three routes to the critical-value mass of [-1, 1] at m = 2, against the exact mass
    rows = [kacrice_intervals(2, 1.0, [(-1.0, 1.0)], 4000, seed=s, workers=1)[0].to_dict() for s in SEEDS]
    for route in ("empirical", "kacrice", "spectral"):
        _assert_calibrated([row[f"z_{route}_exact"] for row in rows])


def test_exp_abs_det_levels_against_goe_density():
    # one pass over three levels, each against exp(c^2/4v) (2v)^((m+1)/2) ratio(m) rho_{m+1}(c)
    m, v, levels = 3, 1.0, np.array([-1.5, 0.0, 2.0])
    unit = (2.0 * v) ** ((m + 1) / 2.0) * mehta_ratio(m)
    refs = [math.exp(c * c / (4.0 * v)) * unit * float(goe_density(m + 1, v, c)) for c in levels]
    z = np.array([[r.z_score for r in exp_abs_det_mc(m, v, levels, 4000, seed=s, workers=1, reference=refs)]
                  for s in SEEDS])
    for col in z.T:
        _assert_calibrated(col)


def test_detmoment_identity_m2():
    # the integrated identity: sqrt(4 pi v) E|det(A - c I)| at an N(0, 2v) level, against the Mehta ratio
    _assert_calibrated([detmoment_identity_check(2, 0.5, 4000, seed=s, workers=1).z_score for s in SEEDS])


@pytest.mark.parametrize("m", [
    6,
    # the plug-in SE of a sparse bin: at GOE(3, 1) the bin at -5.08 (5.4 expected eigenvalues) is empty at one
    # seed, so its SE is 0 and z = -inf, and the bin at 4.72 (11.3 expected) holds 1 at another, z = -10.3
    pytest.param(3, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                            reason="histogram SE collapses in a sparse bin (CHANGES.md FOUND)")),
])
def test_histogram_against_exact_bin_average(m):
    # GOE(m, 1) histogram bins (m = 6 is the benchmark's spectrum case) against goe_density's average over each
    # bin (8 Gauss-Legendre nodes); every fourth bin, so neighbours share few eigenvalues, of those with at least
    # 5 expected eigenvalues
    v, n = 1.0, 4000
    runs = [one_point_correlation(m, v, n, "histogram", seed=s, workers=1) for s in SEEDS]
    grid, width = runs[0].grid, runs[0].width
    nodes, wts = _legendre(8)
    exact = goe_density(m, v, grid[:, None] + 0.5 * width * nodes) @ (0.5 * wts)
    bins = np.arange(0, grid.size, 4)
    bins = bins[exact[bins] * width * m * n >= 5.0]
    with np.errstate(divide="ignore"):
        z = np.array([(run.values[bins] - exact[bins]) / run.stderr[bins] for run in runs])
    for col in z.T:
        _assert_calibrated(col)


@pytest.mark.parametrize("m", [2, 3])
def test_conditional_hessian_residual_moments(m):
    # each moment of the regression residual of the ambient GOE(m + 1) draw's Hessian against GOE(m, v)
    rows = [conditional_hessian_moments(m, 1.0, 4000, seed=s, workers=1, method="residual") for s in SEEDS]
    for name in rows[0]:
        _assert_calibrated([row[name].z_score for row in rows])
