"""Calibration over seeds: a standard error must be neither too small nor too large.

A 4-SE gate never fails an inflated standard error, so each estimator here runs
at K = 40 fixed seeds, ``range(40)``, and a small n, and its z-scores against an
exact reference must have mean z^2 in the two-sided 1e-4 band of chi^2_K / K
and |mean z| at most 4 / sqrt(K).
"""

import math

import numpy as np
import pytest

from mehtalab.mehta import exp_det_pointwise_check

SEEDS = range(40)


def _assert_calibrated(z):
    z = np.asarray(z, dtype=float)
    assert 0.35 <= np.mean(z**2) <= 2.11, z
    assert abs(np.mean(z)) <= 4.0 / math.sqrt(len(SEEDS)), z


@pytest.mark.parametrize("m,v,c", [(1, 0.5, 0.0), (1, 0.5, 1.0), (2, 0.5, 0.0)])
def test_detmoment_pointwise_rows(m, v, c):
    # the report's three pointwise rows, against the exact one-point density
    _assert_calibrated([exp_det_pointwise_check(m, v, c, 4000, seed=s, workers=1).z_score for s in SEEDS])
