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
    exp_abs_det_mc,
    exp_det_pointwise_check,
    kacrice_intervals,
    mehta_mc,
    mehta_ratio,
    reproduce_zm,
)
from mehtalab.spectral import goe_density

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
