import math

import numpy as np
import pytest

from mehtalab.estimation import substream
from mehtalab.regression import (
    DegenerateConditioningError,
    GaussianVector,
    JointGaussian,
    conditional_hessian_moments,
    conditional_sample,
    empirical_correlator,
    hessian_pair_samples,
    hessian_regression_pair,
    regress,
)


def cov_z(p, q, ref):
    """z-score of an empirical covariance entry against a reference value."""
    prod = (p - p.mean()) * (q - q.mean())
    return (prod.mean() - ref) / (prod.std(ddof=1) / math.sqrt(prod.size))


def random_joint(dim_x, dim_y, rng):
    g = rng.normal(size=(dim_x + dim_y, dim_x + dim_y))
    block = g @ g.T
    return JointGaussian(
        GaussianVector(rng.normal(size=dim_x), block[:dim_x, :dim_x]),
        GaussianVector(rng.normal(size=dim_y), block[dim_x:, dim_x:]),
        block[dim_x:, :dim_x],
    )


class TestGaussianVector:
    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianVector(np.zeros(2), np.array([[1.0, 0.1], [0.2, 1.0]]))

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            GaussianVector(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_nondegenerate_flag(self):
        # regress conditions on X only when its covariance clears the degeneracy threshold
        y = GaussianVector(np.zeros(1), np.eye(1))
        regress(JointGaussian(GaussianVector(np.zeros(2), np.eye(2)), y, np.zeros((1, 2))))
        h = GaussianVector(np.zeros(2), np.diag([1.0, 0.0]))
        with pytest.raises(DegenerateConditioningError):
            regress(JointGaussian(h, y, np.zeros((1, 2))))

    def test_tolerates_roundoff_negative(self):
        GaussianVector(np.zeros(2), np.diag([1.0, -5e-11]))


class TestRegress:
    def test_scalar_example(self):
        j = JointGaussian(
            GaussianVector([0.0], [[2.0]]),
            GaussianVector([0.0], [[3.0]]),
            [[2.0]],
        )
        res = regress(j)
        assert res.operator[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert res.residual_cov[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert res.offset[0] == 0.0

    def test_independent_pair(self):
        j = JointGaussian(
            GaussianVector(np.zeros(2), np.eye(2)),
            GaussianVector(np.ones(3), 2.0 * np.eye(3)),
            np.zeros((3, 2)),
        )
        res = regress(j)
        assert np.all(res.operator == 0.0)
        assert np.allclose(res.residual_cov, 2.0 * np.eye(3))
        assert np.allclose(res.offset, np.ones(3))

    def test_law_of_total_variance_identity(self):
        rng = substream(301)
        for _ in range(50):
            j = random_joint(3, 4, rng)
            res = regress(j)
            explained = j.cross @ np.linalg.solve(j.x.cov, j.cross.T)
            dev = np.max(np.abs(j.y.cov - res.residual_cov - explained))
            assert dev <= 1e-10 * (1.0 + np.max(np.abs(j.y.cov)))
            # the operator solves R Var[X] = C
            assert np.max(np.abs(res.operator @ j.x.cov - j.cross)) <= 1e-10 * (1.0 + np.max(np.abs(j.cross)))
        # Var[X] at condition number 1e6: both identities lose O(eps * cond), far inside 1e-8 relative
        rng = substream(303)
        for _ in range(50):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            cov_x = (q * np.geomspace(1.0, 1e-6, 4)) @ q.T
            cov_x = 0.5 * (cov_x + cov_x.T)
            cross = 1e-3 * rng.normal(size=(3, 4))
            cov_y = cross @ np.linalg.solve(cov_x, cross.T) + np.eye(3)
            j = JointGaussian(GaussianVector(np.zeros(4), cov_x), GaussianVector(np.zeros(3), 0.5 * (cov_y + cov_y.T)),
                              cross)
            res = regress(j)
            explained = j.cross @ np.linalg.solve(j.x.cov, j.cross.T)
            assert np.max(np.abs(j.y.cov - res.residual_cov - explained)) <= 1e-8 * np.max(np.abs(j.y.cov))
            assert np.max(np.abs(res.operator @ j.x.cov - j.cross)) <= 1e-8 * np.max(np.abs(j.cross))

    def test_residual_psd(self):
        rng = substream(302)
        for _ in range(20):
            j = random_joint(2, 3, rng)
            res = regress(j)
            w = np.linalg.eigvalsh(res.residual_cov)
            assert w[0] >= -1e-10

    def test_degenerate_error_names_eigenvalue(self):
        j = JointGaussian(
            GaussianVector(np.zeros(2), np.diag([1.0, 0.0])),
            GaussianVector(np.zeros(1), np.eye(1)),
            np.zeros((1, 2)),
        )
        with pytest.raises(DegenerateConditioningError, match="0.0"):
            regress(j)
        try:
            regress(j)
        except DegenerateConditioningError as exc:
            assert exc.min_eigenvalue == pytest.approx(0.0, abs=1e-15)

    def test_adjoint_is_exact(self):
        # the joint block holds C below the diagonal and its adjoint, exactly, above
        j = random_joint(2, 3, substream(303))
        b = j.block()
        assert np.array_equal(b[:2, 2:], b[2:, :2].T)
        assert np.array_equal(b[2:, :2], j.cross)


class TestEmpiricalCorrelator:
    def test_perfectly_coupled(self):
        x = substream(304).normal(size=100000)
        j = empirical_correlator(x[:, None], x[:, None])
        se = math.sqrt(2.0 / x.size)  # Var(x^2) = 2 for standard normal
        assert abs(j.cross[0, 0] - 1.0) / se <= 4.0

    def test_independent(self):
        rng = substream(305)
        x = rng.normal(size=100000)
        y = rng.normal(size=100000)
        j = empirical_correlator(x[:, None], y[:, None])
        assert abs(cov_z(x, y, 0.0)) <= 4.0
        assert abs(j.cross[0, 0]) <= 4.0 / math.sqrt(x.size)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            empirical_correlator(np.zeros((1, 2)), np.zeros((1, 3)))

    @pytest.mark.parametrize("n, dx, dy", [(7, 2, 3), (1000, 3, 6), (20000, 4, 10)])
    def test_covariances_are_symmetric_and_centred_products(self, n, dx, dy):
        # the blocks of one np.cov are exactly symmetric, and they are the centred products over n - 1
        rng = substream(309)
        xs = 5.0 + rng.normal(size=(n, dx))
        ys = rng.normal(size=(n, dy)) + xs[:, :1]
        j = empirical_correlator(xs, ys)
        assert np.array_equal(j.x.cov, j.x.cov.T) and np.array_equal(j.y.cov, j.y.cov.T)
        xc, yc = xs - xs.mean(axis=0), ys - ys.mean(axis=0)
        for got, want in ((j.x.cov, xc.T @ xc), (j.y.cov, yc.T @ yc), (j.cross, yc.T @ xc)):
            np.testing.assert_allclose(got, want / (n - 1), rtol=1e-13, atol=1e-15)
        assert np.array_equal(j.x.mean, xs.mean(axis=0)) and np.array_equal(j.y.mean, ys.mean(axis=0))

    def test_paper_pair_diagonal_cross(self):
        # cov(diag Hessian coordinate, value coordinate) = -v at v = 1
        w, h = hessian_pair_samples(2, 1.0, 200000, substream(306))
        pairs = list(zip(*np.triu_indices(2)))
        d0 = pairs.index((0, 0))
        assert abs(cov_z(h[:, d0], w[:, 0], -1.0)) <= 4.0

    def test_gradient_cross_covariances_vanish(self):
        w, h = hessian_pair_samples(2, 1.0, 200000, substream(307))
        for k in (1, 2):
            for col in range(h.shape[1]):
                assert abs(cov_z(h[:, col], w[:, k], 0.0)) <= 4.0


class TestHessianRegressionPair:
    def test_analytic_entries(self):
        pair = hessian_regression_pair(2, 1.0)
        assert np.allclose(np.diag(pair.x.cov), [0.5, 1.0, 1.0])
        pairs = list(zip(*np.triu_indices(2)))
        d0, off, d1 = pairs.index((0, 0)), pairs.index((0, 1)), pairs.index((1, 1))
        assert pair.cross[d0, 0] == -1.0
        assert pair.cross[d1, 0] == -1.0
        assert np.all(pair.cross[:, 1:] == 0.0)
        assert pair.cross[off, 0] == 0.0
        assert pair.y.cov[d0, d0] == 4.0
        assert pair.y.cov[d0, d1] == 2.0
        assert pair.y.cov[off, off] == 1.0

    def test_regression_operator_is_value_shift(self):
        # the conditional mean map sends w to -2 w_0 on every diagonal coordinate
        for v in (1.0, 0.7):
            for coords in ("ell", "omega"):
                pair = hessian_regression_pair(3, v, coords=coords)
                res = regress(pair)
                pairs = list(zip(*np.triu_indices(3)))
                for k, (i, j) in enumerate(pairs):
                    expect = -2.0 if i == j else 0.0
                    assert res.operator[k, 0] == pytest.approx(expect, abs=1e-12)
                assert np.max(np.abs(res.operator[:, 1:])) <= 1e-12

    def test_residual_is_goe(self):
        # conditional covariance = GOE(m, v) in both coordinate systems
        v = 0.8
        pair_o = hessian_regression_pair(2, v, coords="omega")
        res_o = regress(pair_o)
        assert np.allclose(res_o.residual_cov, 2.0 * v * np.eye(3), atol=1e-12)
        pair_l = hessian_regression_pair(2, v, coords="ell")
        res_l = regress(pair_l)
        pairs = list(zip(*np.triu_indices(2)))
        for k, (i, j) in enumerate(pairs):
            want = 2.0 * v if i == j else v
            assert res_l.residual_cov[k, k] == pytest.approx(want, abs=1e-12)
        off_diag = res_l.residual_cov - np.diag(np.diag(res_l.residual_cov))
        assert np.max(np.abs(off_diag)) <= 1e-12

    def test_empirical_matches_analytic(self):
        # Monte Carlo oracle: every block entry of the empirical correlator
        # within 4 SE of the analytic pair, flat coordinates
        m, v, n = 2, 1.0, 200000
        w, h = hessian_pair_samples(m, v, n, substream(308))
        pair = hessian_regression_pair(m, v)
        emp = empirical_correlator(w, h)
        for emp_block, ref_block, left, right in (
            (emp.x.cov, pair.x.cov, w, w),
            (emp.y.cov, pair.y.cov, h, h),
            (emp.cross, pair.cross, h, w),
        ):
            rows, cols = ref_block.shape
            for r in range(rows):
                for c in range(cols):
                    z = cov_z(left[:, r], right[:, c], ref_block[r, c])
                    assert abs(z) <= 4.0, f"entry ({r},{c}): z = {z:.2f}"

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hessian_regression_pair(0, 1.0)
        with pytest.raises(ValueError):
            hessian_regression_pair(2, -1.0)
        with pytest.raises(ValueError):
            hessian_regression_pair(2, 1.0, coords="matrix")


class TestConditionalSample:
    def test_zero_residual_is_deterministic(self):
        j = JointGaussian(
            GaussianVector([0.0], [[1.0]]),
            GaussianVector([0.0], [[1.0]]),
            [[1.0]],
        )
        res = regress(j)
        out = conditional_sample(res, [2.5], substream(309))
        assert out[0] == pytest.approx(2.5, abs=1e-12)

    def test_scalar_conditional_moments(self):
        j = JointGaussian(
            GaussianVector([0.0], [[2.0]]),
            GaussianVector([0.0], [[3.0]]),
            [[2.0]],
        )
        res = regress(j)
        draws = conditional_sample(res, [2.0], substream(310), size=100000)[:, 0]
        n = draws.size
        zm = (draws.mean() - 2.0) / (draws.std(ddof=1) / math.sqrt(n))
        v = draws.var(ddof=1)
        se_v = math.sqrt((((draws - draws.mean()) ** 4).mean() - v * v) / n)
        assert abs(zm) <= 4.0
        assert abs(v - 1.0) / se_v <= 4.0

    def test_conditioned_hessian_is_shifted_goe(self):
        # conditioning on value t=1 shifts the diagonal mean to -1; the
        # off-diagonal flat coordinate keeps variance v
        pair = hessian_regression_pair(2, 1.0)
        res = regress(pair)
        draws = conditional_sample(res, [0.5, 0.0, 0.0], substream(311), size=100000)
        pairs = list(zip(*np.triu_indices(2)))
        d0, off = pairs.index((0, 0)), pairs.index((0, 1))
        n = draws.shape[0]
        zm = (draws[:, d0].mean() + 1.0) / (draws[:, d0].std(ddof=1) / math.sqrt(n))
        assert abs(zm) <= 4.0
        v = draws[:, off].var(ddof=1)
        se_v = math.sqrt((((draws[:, off] - draws[:, off].mean()) ** 4).mean() - v * v) / n)
        assert abs(v - 1.0) / se_v <= 4.0

    def test_residual_independent_of_conditioning(self):
        # fit on one batch, check residual-vs-x cross covariance on another
        rng = substream(312)
        n = 100000
        x = rng.normal(size=(n, 1))
        y = 0.7 * x + 0.5 * rng.normal(size=(n, 1))
        fit = regress(empirical_correlator(x, y))
        x2 = rng.normal(size=(n, 1))
        y2 = 0.7 * x2 + 0.5 * rng.normal(size=(n, 1))
        resid = y2[:, 0] - fit.conditional_mean(x2.T)[0]
        assert abs(cov_z(resid, x2[:, 0], 0.0)) <= 4.0


class TestConditionalHessianMoments:
    @pytest.mark.parametrize("method", ["conditional", "residual"])
    def test_goe_moments(self, method):
        checks = conditional_hessian_moments(2, 1.0, 60000, seed=313, method=method)
        for name, res in checks.items():
            assert res.passed, f"{name}: z = {res.z_score:.2f}"

    def test_small_v(self):
        checks = conditional_hessian_moments(3, 0.5, 60000, seed=314, method="residual")
        for name, res in checks.items():
            assert res.passed, f"{name}: z = {res.z_score:.2f}"

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            conditional_hessian_moments(2, 1.0, 2000, method="bootstrap")
