import contextlib
import functools
import io
import math
import tracemalloc

import numpy as np
import pytest

from mehtalab import mehta
from mehtalab.cli import main
from mehtalab.estimation import Moments, mc_estimate, z_scores
from mehtalab.spectral import one_point_correlation


def test_z_scores_elementwise():
    # se > 0 divides; se = 0 reads 0 when the estimate equals the reference
    # to rounding, 1e-12 max(1, |reference|), and inf otherwise
    z = z_scores([3.0, 1e6 + 1e-7, 2.0], [1.0, 1e6, 1.0], [0.5, 0.0, 0.0])
    assert z.tolist() == [4.0, 0.0, math.inf]


class TestBlockCore:
    def test_merge_matches_whole_sample(self):
        rng = np.random.default_rng(7)
        y = 3.0 + rng.normal(size=(1000, 4))
        whole = Moments.of(y)
        merged = functools.reduce(Moments.merge, map(Moments.of, np.split(y, [1, 300, 301, 750])))
        assert merged.count == 1000
        assert np.allclose(merged.mean, whole.mean, rtol=1e-13, atol=0.0)
        assert np.allclose(merged.m2, whole.m2, rtol=1e-12, atol=0.0)

    def test_log_shift_merge(self):
        # weights exp(lw) far beyond the float range merge through their shifts
        rng = np.random.default_rng(8)
        lw = 800.0 + rng.normal(size=500)
        merged = functools.reduce(Moments.merge, (Moments.of(np.exp(part - part.max()), part.max())
                                                  for part in np.split(lw, [100, 101, 400])))
        direct = Moments.of(np.exp(lw - 800.0))
        scale = math.exp(merged.shift - 800.0)
        assert math.isclose(float(merged.mean) * scale, float(direct.mean), rel_tol=1e-13)
        assert math.isclose(float(merged.m2) * scale * scale, float(direct.m2), rel_tol=1e-12)
        assert math.isclose(merged.ess, float(direct.ess), rel_tol=1e-12)

    def test_no_cancellation_when_mean_dwarfs_sd(self):
        n = 100000
        res = mc_estimate(lambda rng, k: 1e9 + rng.normal(size=k), n, seed=3)
        assert abs(res.std_error * math.sqrt(n) - 1.0) <= 0.1

    def test_memory_does_not_grow_with_n(self):
        def run(n):
            mc_estimate(lambda rng, k: rng.normal(size=k), n, seed=5)

        assert _traced_peak(run, 2_000_000) <= 1.25 * _traced_peak(run, 200_000)

    def test_kernel_density_memory_does_not_grow_with_n(self):
        def run(n):
            one_point_correlation(2, 0.5, n, estimator="kernel", seed=5)

        assert _traced_peak(run, 2_000_000) <= 1.25 * _traced_peak(run, 200_000)

    def test_regress_demo_memory_does_not_grow_with_n(self):
        def run(n):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["regress-demo", "--n", str(n)]) == 0

        assert _traced_peak(run, 2_000_000) <= 1.25 * _traced_peak(run, 200_000)

    @pytest.mark.parametrize("k", [1, 8])
    def test_kacrice_block_has_no_node_axis(self, k):
        # a block holds O(BLOCK (m + K)) floats; one (BLOCK, 64) float buffer alone is 8.4 MB
        ends = np.array([(a, a + 1.0) for a in np.linspace(-4.0, 3.0, k)])
        assert _traced_peak(lambda n: mehta._kacrice_masses(2, 1.0, ends, n, 3, 1, 1), 50000) < 4 * 2**20


def _traced_peak(run, n):
    """Peak traced allocation, in bytes, of run(n)."""
    tracemalloc.start()
    try:
        run(n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
