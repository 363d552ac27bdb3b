import ast
import contextlib
import functools
import io
import math
import os
import pathlib
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from mehtalab import cli, estimation, mehta
from mehtalab.cli import main
from mehtalab.estimation import BLOCK, Moments, mc_estimate, z_scores
from mehtalab.spectral import one_point_correlation


def test_z_scores_elementwise():
    # se > 0 divides; se = 0 reads 0 when the estimate equals the reference
    # to rounding, 1e-12 max(1, |reference|), and inf otherwise
    z = z_scores([3.0, 1e6 + 1e-7, 2.0], [1.0, 1e6, 1.0], [0.5, 0.0, 0.0])
    assert z.tolist() == [4.0, 0.0, math.inf]


def test_weight_columns_equal_one_column_calls():
    # K column-contiguous weight columns reduce to the bits of K one-column calls on the same
    # draws, each with its own scale and reference; n spans three blocks, the last one short
    def columns(rng, size):
        x = rng.normal(size=size)
        return np.array([x, x * x, np.exp(x)]).T

    n, scales, refs = 2 * BLOCK + 100, [1.0, 2.5, 0.3], [0.0, 2.5, None]
    together = mc_estimate(columns, n, 41, 2, scale=scales, reference=refs, stream=3)
    assert len(together) == 3
    for k, res in enumerate(together):
        alone = mc_estimate(lambda rng, size: columns(rng, size)[:, k], n, 41, 1, scale=scales[k],
                            reference=refs[k], stream=3)
        assert res.to_dict() == alone.to_dict()


def test_one_weight_column_is_the_one_weight_call():
    # a (size, 1) column gives a list of one result with the (size,) call's bits, z included
    def column(rng, size):
        return rng.normal(size=(size, 1))

    [res] = mc_estimate(column, BLOCK + 100, 42, 1, scale=2.0, reference=0.1)
    alone = mc_estimate(lambda rng, size: column(rng, size)[:, 0], BLOCK + 100, 42, 1, scale=2.0, reference=0.1)
    assert (res.estimate, res.std_error, res.z_score) == (alone.estimate, alone.std_error, alone.z_score)
    assert res.to_dict() == alone.to_dict()


def test_one_log_weight_column_carries_its_diagnostics():
    # a one-column log-weight pass keeps ESS, the largest weight's share and the degraded flag;
    # log-normal weights of log-sd 8 leave a few draws with most of the mass, so this pass has collapsed
    def column(rng, size):
        return 300.0 + 8.0 * rng.normal(size=(size, 1))

    [res] = mc_estimate(column, BLOCK + 100, 43, 1, log_weights=True)
    alone = mc_estimate(lambda rng, size: column(rng, size)[:, 0], BLOCK + 100, 43, 1, log_weights=True)
    assert res.to_dict() == alone.to_dict()
    assert res.meta["degraded"] and "reason" in res.meta
    assert 1.0 <= res.meta["ess"] < 20.0 and 0.0 < res.meta["max_weight_share"] <= 1.0


def test_map_chunks_callers_and_no_dense_legendre_rule():
    # every Monte Carlo pass reduces through mc_estimate, except these, each for its reason; and no
    # Gauss-Legendre rule comes from numpy's leggauss, whose dense eigen-solve OpenBLAS threads
    allowed = {
        "mc_estimate": "the one reduction path",
        "reproduce_zm": "needs the ratios' co-moment matrix",
        "cmd_regress_demo": "needs the co-moment matrix's cross block",
        "covariance_audit": "hand-built moments, one product row at a time, so a block stays (size, p)",
        "one_point_correlation": "hand-built moments of sparse per-matrix cell sums",
        "_criteria": "the finder rows reduce a max and an all, not moments",
    }
    callers, leggauss = set(), []
    for path in sorted(pathlib.Path(estimation.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _name(node.func) == "map_chunks":
                    callers.add(getattr(top, "name", None))
                if _name(node) == "leggauss":
                    leggauss.append(f"{path.name}:{node.lineno}")
    assert callers == set(allowed)
    assert leggauss == []


class TestBlockCore:
    def test_merge_matches_whole_sample(self):
        rng = np.random.default_rng(7)
        y = 3.0 + rng.normal(size=(1000, 4))
        whole = Moments.of(y)
        merged = functools.reduce(Moments.merge, map(Moments.of, np.split(y, [1, 300, 301, 750])))
        assert merged.count == 1000
        assert np.allclose(merged.mean, whole.mean, rtol=1e-13, atol=0.0)
        assert np.allclose(merged.m2, whole.m2, rtol=1e-12, atol=0.0)

    def test_comoment_merge_matches_np_cov(self):
        # uneven blocks, and a mean far above the spread
        rng = np.random.default_rng(17)
        y = 50.0 + rng.normal(size=(1000, 3)) @ np.array([[1.0, 0.5, 0.0], [0.0, 1.0, -0.3], [0.0, 0.0, 2.0]])
        merged = functools.reduce(Moments.merge, (Moments.of(part, cross=True)
                                                  for part in np.split(y, [1, 300, 301, 750])))
        assert merged.m2.shape == (3, 3)
        assert np.allclose(merged.m2, np.cov(y, rowvar=False) * 999, rtol=1e-12, atol=0.0)
        assert np.allclose(merged.mean, y.mean(axis=0), rtol=1e-13, atol=0.0)
        assert np.allclose(merged.std_error, Moments.of(y).std_error, rtol=1e-12, atol=0.0)

    def test_comoment_told_by_shape(self):
        # a (K,) mean with a (K, K) M2 is a co-moment pair, built without any flag, and merges as one
        rng = np.random.default_rng(19)
        y = 2.0 + rng.normal(size=(900, 4)) @ rng.normal(size=(4, 4))

        def of(part):
            dev = part - part.mean(axis=0)
            return Moments(len(part), part.mean(axis=0), dev.T @ dev)

        merged = functools.reduce(Moments.merge, map(of, np.split(y, [5, 400, 650])))
        assert merged.cross and not Moments.of(y).cross
        np.testing.assert_allclose(merged.m2, np.cov(y, rowvar=False) * 899, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(merged.std_error, Moments.of(y).std_error, rtol=1e-12, atol=0.0)

    def test_two_dimensional_elementwise_m2_merges_elementwise(self):
        # a (p, p) M2 of p x p products, as covariance_audit builds it, is not a co-moment
        rng = np.random.default_rng(18)
        x = rng.normal(size=(600, 3))
        prods = (x[:, :, None] * x[:, None, :]).reshape(600, -1)

        def of(part):
            flat = Moments.of(part)
            return Moments(flat.count, flat.mean.reshape(3, 3), flat.m2.reshape(3, 3))

        merged = functools.reduce(Moments.merge, map(of, np.split(prods, [7, 200, 450])))
        assert np.allclose(merged.m2.ravel(), Moments.of(prods).m2, rtol=1e-12, atol=0.0)

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
        def run(n, workers=1):
            mc_estimate(lambda rng, k: rng.normal(size=k), n, seed=5, workers=workers)

        one_worker = _traced_peak(run, 200_000)
        assert _traced_peak(run, 2_000_000) <= 1.25 * one_worker
        # at most `workers` blocks compute at once, whatever the thread timing; one
        # worker builds no pool, so the bound adds the pool's own objects, read off
        # the same two-worker pass over blocks that allocate nothing
        idle = Moments.of(np.zeros(2))
        pool = _traced_peak(lambda n: estimation.map_chunks(lambda rng, k: idle, n, 5, 2), 2_000_000)
        assert _traced_peak(functools.partial(run, workers=2), 2_000_000) <= 2 * one_worker + pool

    # one worker in the next two: with two, the peak depends on whether two blocks'
    # allocations overlap; test_memory_does_not_grow_with_n holds the two-worker bound
    def test_kernel_density_memory_does_not_grow_with_n(self):
        def run(n):
            one_point_correlation(2, 0.5, n, estimator="kernel", seed=5, workers=1)

        assert _traced_peak(run, 2_000_000) <= 1.25 * _traced_peak(run, 200_000)

    def test_regress_demo_memory_does_not_grow_with_n(self):
        def run(n):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["regress-demo", "--n", str(n), "--workers", "1"]) == 0

        assert _traced_peak(run, 2_000_000) <= 1.25 * _traced_peak(run, 200_000)

    def test_dense_block_memory_is_bounded_in_m(self):
        # dense draws come in slabs of about 1 MiB: a block of 4000 GOE(60) matrices alone would be 115 MB
        assert _traced_peak(lambda n: mehta.exp_abs_det_mc(60, 1.0, 0.0, n, seed=3, workers=1), 4000) < 64 * 2**20

    def test_finder_rows_memory_does_not_grow_with_n(self):
        # a critical-points-exact row holds one block of _FINDER_BLOCK matrices, whatever its count
        def run(count):
            check = estimation.map_chunks(functools.partial(cli._finder_check, 2), count, 5, 1,
                                          block=cli._FINDER_BLOCK)
            assert check.max_value_deviation <= 1e-8 and check.morse_ok

        assert _traced_peak(run, 10 * 2048) <= 1.25 * _traced_peak(run, 2048)

    @pytest.mark.parametrize("k", [1, 8])
    def test_kacrice_block_has_no_node_axis(self, k):
        # a block holds O(BLOCK (m + K)) floats; one (BLOCK, 64) float buffer alone is 8.4 MB
        ends = np.array([(a, a + 1.0) for a in np.linspace(-4.0, 3.0, k)])
        assert _traced_peak(lambda n: mehta._kacrice_masses(2, 1.0, ends, n, 3, 1, 1), 50000) < 4 * 2**20


class _Log(NamedTuple):
    """A record that merges by concatenation: each block's (size, first draw), in merge order."""

    blocks: tuple

    def merge(self, other):
        return _Log(self.blocks + other.blocks)


@pytest.mark.parametrize("workers", [1, 2])
def test_map_chunks_merges_any_record_in_block_order(workers):
    # block b of a custom size holds draws [b * block, (b + 1) * block) on counter word b
    log = estimation.map_chunks(lambda rng, size: _Log(((size, rng.random()),)), 2500, 11, workers, block=1000)
    firsts = [np.random.Generator(np.random.Philox(key=np.array([11, 1], dtype=np.uint64),
                                                   counter=[0, 0, b, 0])).random() for b in range(3)]
    assert log.blocks == ((1000, firsts[0]), (1000, firsts[1]), (500, firsts[2]))


class TestPool:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Stands in for ThreadPoolExecutor: runs each block when it is submitted and
        records each pool's size and the most blocks it held unmerged."""
        pools = []

        class Pool:
            def __init__(self, max_workers):
                self.size, self.pending, self.most_pending = max_workers, 0, 0
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                self.pending += 1
                self.most_pending = max(self.most_pending, self.pending)
                pool, out = self, fn(*args)

                class Merged:
                    def result(self):
                        pool.pending -= 1
                        return out

                return Merged()

        monkeypatch.setattr(estimation, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(estimation, "_worker_count", lambda workers=None: 3 if workers is None else workers)
        return pools

    @staticmethod
    def _sums(workers):
        mom = estimation.map_chunks(lambda rng, k: Moments.of(rng.normal(size=k)), 20 * BLOCK + 7, 9, workers)
        return float(mom.mean), float(mom.m2)

    def test_default_is_the_usable_cores(self, pools):
        self._sums(None)
        assert [p.size for p in pools] == [3]

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 100_000])
    def test_pool_never_exceeds_the_usable_cores(self, pools, workers):
        # neither the threads nor the blocks queued ahead of the merge grow past
        # what the usable cores can run, and the bits stay those of one worker;
        # one worker computes on the calling thread and builds no pool
        sums = self._sums(workers)
        if workers == 1:
            assert pools == []
            assert sums == self._sums(2) == self._sums(3)
            return
        threads = min(workers, 3)
        assert [p.size for p in pools] == [threads]
        assert pools[0].most_pending == 2 * threads + 1
        assert sums == self._sums(1)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
    def test_usable_cores_is_the_affinity_mask(self):
        assert estimation._worker_count() == len(os.sched_getaffinity(0)) >= 1
        assert estimation._worker_count(5) == 5


def _name(node):
    """The name a node refers to: f for f and for module.f, else None."""
    return getattr(node, "id", getattr(node, "attr", None))


def _traced_peak(run, n):
    """Peak traced allocation, in bytes, of run(n)."""
    tracemalloc.start()
    try:
        run(n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
