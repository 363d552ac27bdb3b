import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from mehtalab.mehta import (
    ESS_FLOOR,
    detmoment_identity_check,
    exp_abs_det_mc,
    exp_det_pointwise_check,
    kacrice_density,
    kacrice_intervals,
    kacrice_vs_empirical,
    log_mehta_closed_form,
    mehta_closed_form,
    mehta_mc,
    mehta_quadrature,
    mehta_ratio,
    reproduce_zm,
    vol_sphere,
)
from mehtalab import estimation, mehta, spectral, symspace
from mehtalab.estimation import BLOCK, EstimatorResult, mc_estimate
from mehtalab.regression import conditional_hessian_moments
from mehtalab.spectral import (
    batched_det,
    batched_eigvals,
    goe_density,
    one_point_correlation,
    weyl_expectation_mc,
    weyl_rhs_quadrature,
)
from mehtalab.symspace import EnsembleParams, sample_goe_batch, sample_goe_tridiagonal

SQRT_2PI = math.sqrt(2.0 * math.pi)


def abs_moment_normal(sigma, c):
    """E|X - c| for X ~ N(0, sigma^2), exact."""
    return sigma * math.sqrt(2.0 / math.pi) * math.exp(-c * c / (2 * sigma * sigma)) + c * math.erf(
        c / (sigma * math.sqrt(2.0))
    )


def _density_bits(est):
    return est.grid.tobytes(), est.values.tobytes(), est.stderr.tobytes(), est.meta


class TestGammaFunctions:
    def test_half_integer_values(self):
        # Gamma(1/2) = sqrt(pi), Gamma(3/2) = sqrt(pi)/2, Gamma(5) = 24
        assert vol_sphere(0) == pytest.approx(2.0, rel=1e-14)
        assert vol_sphere(2) == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert mehta_ratio(7) == pytest.approx(24.0 * 2.0**1.5, rel=1e-14)

    def test_reflection_branch(self):
        # Gamma(z) Gamma(1 - z) = pi / sin(pi z), at z = 5/2 and z = 1/2
        assert mehta_ratio(2) / 2.0**1.5 * math.gamma(-1.5) == pytest.approx(math.pi, rel=1e-13)
        assert (2.0 * math.sqrt(math.pi) / vol_sphere(0)) ** 2 == pytest.approx(math.pi, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_mehta_closed_form(0)

    def test_sphere_volumes(self):
        assert vol_sphere(1) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert vol_sphere(2) == pytest.approx(4.0 * math.pi, rel=1e-14)
        # surface/(m+1) equals pi^((m+1)/2) / Gamma((m+3)/2)
        assert vol_sphere(2) / 3.0 == pytest.approx(math.pi**1.5 / math.gamma(2.5), rel=1e-14)
        assert vol_sphere(2) / 3.0 == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


class TestClosedForm:
    def test_first_values(self):
        assert mehta_closed_form(1) == pytest.approx(SQRT_2PI, rel=1e-14)
        assert mehta_closed_form(2) == pytest.approx(4.0 * math.sqrt(math.pi), rel=1e-14)
        # 2^(9/2) G(3/2) G(2) G(5/2) = 3 pi 2^(3/2)
        assert mehta_closed_form(3) == pytest.approx(3.0 * math.pi * 2.0**1.5, rel=1e-13)

    def test_log_variant(self):
        for m in (1, 5, 20):
            assert math.exp(log_mehta_closed_form(m)) == pytest.approx(mehta_closed_form(m), rel=1e-13)

    def test_scaling_law(self):
        # the Vandermonde-Gaussian integral at width v is (2v)^(m(m+1)/4) Z_m; read at lambda = 2v y it is
        # int |Delta(y)| prod exp(-v y_i^2) dy = (2v)^(-m(m+1)/4) Z_m, the Pfaffian with h(y) = exp((1/2 - v) y^2)
        for m in (1, 2, 3):
            for v in (0.5, 1.0, 2.0):
                log_value, _ = spectral._pfaffian_log_integral(m, lambda y: np.exp((0.5 - v) * y * y))
                want = (2.0 * v) ** (-m * (m + 1) / 4.0) * mehta_closed_form(m)
                assert math.exp(log_value) == pytest.approx(want, rel=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            mehta_closed_form(0)
        with pytest.raises(ValueError):
            mehta_ratio(0)


class TestRatioRecursion:
    def test_ratio_values(self):
        assert mehta_ratio(1) == pytest.approx(2.0**1.5, rel=1e-14)
        assert mehta_ratio(2) == pytest.approx(2.0**1.5 * math.gamma(2.5), rel=1e-14)

    def test_recursion_exact(self):
        for m in range(1, 21):
            lhs = mehta_closed_form(m + 1)
            rhs = mehta_ratio(m) * mehta_closed_form(m)
            assert abs(lhs - rhs) / lhs <= 1e-12


class TestQuadratureOracle:
    def test_m1(self):
        assert abs(mehta_quadrature(1) - 2.506628274631) <= 1e-6
        assert abs(mehta_quadrature(1) - mehta_closed_form(1)) <= 2e-6

    def test_m2(self):
        assert abs(mehta_quadrature(2) - 7.089815403622) <= 1e-6
        assert abs(mehta_quadrature(2) - mehta_closed_form(2)) <= 2e-6

    def test_m3(self):
        assert abs(mehta_quadrature(3) - mehta_closed_form(3)) <= 2e-6

    def test_negative_h_raises(self):
        # prod lambda_i factors over the eigenvalues, but its one-body weight is negative below 0
        with pytest.raises(ValueError, match="^weyl_rhs_quadrature needs f >= 0, got -"):
            weyl_rhs_quadrature(lambda lam: np.prod(lam, axis=1), 2, 0.5)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 40, 150])
    def test_pfaffian_log_against_closed_form(self, m):
        # past m = 39 only the log is a float; the Pfaffian uses no gamma function
        log_value, err = spectral._pfaffian_log_integral(m)
        want = log_mehta_closed_form(m)
        assert abs(log_value - want) <= 1e-12 * abs(want)
        assert err <= 1e-12

    @pytest.mark.parametrize("m", [500, 700])
    def test_pfaffian_past_the_hermite_underflow(self, m):
        # psi_0 underflows inside the panels from m near 330 and inside the spectrum from m near 710; the
        # rescaled recurrence keeps the value to 1e-8 relative (its estimate stays loose, so it is not read)
        log_value, _ = spectral._pfaffian_log_integral(m)
        assert abs(log_value - log_mehta_closed_form(m)) <= 1e-8

    def test_every_m_in_float_range(self):
        assert mehta_quadrature(39) == pytest.approx(mehta_closed_form(39), rel=1e-12)

    def test_unreachable_tolerance_reports_achieved(self):
        from mehtalab.spectral import QuadratureError

        with pytest.raises(QuadratureError) as info:
            mehta_quadrature(3, tol=1e-30)
        assert info.value.achieved > 1e-30


class TestMehtaMC:
    def test_m1_exact(self):
        res = mehta_mc(1, 1000, seed=501)
        assert res.estimate == pytest.approx(SQRT_2PI, rel=1e-14)
        assert res.std_error == 0.0

    def test_m2_within_band(self):
        res = mehta_mc(2, 200000, seed=502)
        assert res.passed, f"z = {res.z_score:.2f}"

    def test_m5_within_band(self):
        res = mehta_mc(5, 200000, seed=503)
        assert res.passed, f"z = {res.z_score:.2f}"

    def test_large_m_no_overflow(self):
        res = mehta_mc(12, 5000, seed=504)
        assert math.isfinite(res.estimate)
        assert math.isfinite(res.std_error)

    def test_one_draw_is_rejected(self):
        with pytest.raises(ValueError, match="^n_samples must be at least 2: one draw has no standard error$"):
            mehta_mc(3, 1, seed=537)

    def test_collapse_flagged_by_ess(self):
        res = mehta_mc(20, 20000, seed=504)
        assert res.meta["degraded"] is True
        assert res.meta["ess"] < ESS_FLOOR * 20000
        assert res.meta["reason"].startswith("Kish ESS/n = ")
        assert res.meta["max_weight_share"] > 0.1
        res = mehta_mc(3, 20000, seed=504)
        assert res.meta["degraded"] is False and "reason" not in res.meta
        assert res.meta["ess"] > 0.1 * 20000
        assert res.meta["max_weight_share"] < 0.01

    def test_log_vandermonde_is_the_sum_of_logs(self):
        # one running product per draw, rescaled every 16 factors, against a log per pair
        rng = np.random.default_rng(538)
        for m in range(2, 40):
            lam = rng.normal(scale=math.sqrt((m + 1) / 2.0), size=(500, m))
            want = sum(np.log(np.abs(lam[:, i] - lam[:, j])) for i in range(m) for j in range(i + 1, m))
            np.testing.assert_allclose(mehta._log_vandermonde(lam), want, rtol=1e-12, atol=1e-12)

    def _log_weights(self, monkeypatch, m):
        captured = []
        monkeypatch.setattr(mehta, "mc_estimate", lambda fn, *args, **kwargs: captured.append(fn))
        mehta_mc(m, 1000)
        return captured[0]

    def test_log_weights_draw_the_normal_bits(self, monkeypatch):
        # standard normals scaled in place are normal(0, s)'s numbers
        m, var = 5, 3.0
        lam = np.random.default_rng(539).normal(0.0, math.sqrt(var), size=(1000, m))
        want = (lam * lam) @ np.full(m, -0.5 * (1.0 - 1.0 / var)) + mehta._log_vandermonde(lam)
        assert np.array_equal(self._log_weights(monkeypatch, m)(np.random.default_rng(539), 1000), want)

    def test_tied_pair_weighs_zero(self, monkeypatch):
        # a tie is log weight -inf, so weight 0, with no divide warning (RuntimeWarnings are errors here)
        class Tied:
            def standard_normal(self, size):
                return np.array([[0.5, 0.5, -1.0], [0.1, 0.2, 0.3]])

        lw = self._log_weights(monkeypatch, 3)(Tied(), 2)
        assert lw[0] == -math.inf and math.isfinite(lw[1])
        assert np.exp(lw - lw.max()).tolist()[0] == 0.0

    def test_se_sqrt2_decay(self):
        # doubling the sample count shrinks the reported error near 1/sqrt(2)
        ratios = []
        for seed in (505, 506, 507, 508, 509):
            a = mehta_mc(3, 40000, seed=seed)
            b = mehta_mc(3, 80000, seed=seed + 100)
            ratios.append(b.std_error / a.std_error)
        assert 0.6 <= float(np.mean(ratios)) <= 0.8

    def test_determinism(self, monkeypatch):
        # every Monte Carlo estimator gives the same bits at any worker count,
        # and at the default one; n spans three blocks, the last one short
        n = 2 * BLOCK + 1000
        real = estimation.map_chunks

        def counted(fn, n, seed, workers=None, stream=0):
            # the default is resolved before map_chunks, which is always handed a count
            assert isinstance(workers, int)
            return real(fn, n, seed, workers, stream)

        for module in (estimation, mehta, spectral, symspace):
            monkeypatch.setattr(module, "map_chunks", counted)
        runs = {
            "mehta_mc": lambda **w: mehta_mc(3, n, seed=510, **w),
            "exp_abs_det_mc": lambda **w: exp_abs_det_mc(2, 0.5, 0.3, n, seed=510, **w),
            "detmoment": lambda **w: detmoment_identity_check(2, 0.5, n, seed=510, **w),
            "pointwise": lambda **w: exp_det_pointwise_check(1, 0.5, 0.5, n, seed=510, **w),
            "kacrice_density": lambda **w: kacrice_density(2, 0.5, 1.0, n, seed=510, **w),
            "kacrice_whole_line": lambda **w: kacrice_intervals(
                1, 1.0, [(-math.inf, math.inf)], n, seed=510, **w)[0].to_dict(),
            "kacrice_vs_empirical": lambda **w: kacrice_vs_empirical(
                1, 1.0, -1.0, 1.0, n, seed=510, **w).to_dict(),
            "kacrice_intervals": lambda **w: [res.to_dict() for res in kacrice_intervals(
                2, 1.0, [(-math.inf, math.inf), (0.0, 0.5), (50.0, 60.0)], n, seed=510, **w)],
            "reproduce_zm": lambda **w: reproduce_zm(2, n, seed=510, **w),
            "weyl": lambda **w: weyl_expectation_mc(
                lambda lam: lam.sum(axis=1) ** 2, EnsembleParams(3, 0.0, 1.0), n, seed=510, **w),
            "histogram": lambda **w: _density_bits(one_point_correlation(2, 1.0, n, seed=510, **w)),
            "kernel": lambda **w: _density_bits(one_point_correlation(
                1, 1.0, n, "kernel", bandwidth=0.2, seed=510, **w)),
            "hessian_moments": lambda **w: conditional_hessian_moments(
                2, 1.0, n, seed=510, method="residual", **w),
        }
        for name, run in runs.items():
            first = run(workers=1)
            for workers in (2, 4):
                assert run(workers=workers) == first, name
            assert run() == first, name


class TestExpAbsDet:
    def test_m1_center(self):
        # oracle: E|N(0,1)| = sqrt(2/pi)
        res = exp_abs_det_mc(1, 0.5, 0.0, 200000, seed=511, reference=math.sqrt(2.0 / math.pi))
        assert res.passed, f"z = {res.z_score:.2f}"

    def test_m1_far_shift(self):
        # oracle: E|X - 10| for X ~ N(0,1), indistinguishable from 10
        ref = abs_moment_normal(1.0, 10.0)
        assert ref == pytest.approx(10.0, abs=1e-12)
        res = exp_abs_det_mc(1, 0.5, 10.0, 100000, seed=512, reference=ref)
        assert res.passed, f"z = {res.z_score:.2f}"

    def test_m2_against_weyl_quadrature(self):
        # c = 1 puts the integrand's kinks inside the ordered region, off the origin
        for v, c, seed in ((0.5, 0.0, 513), (1.0, 1.0, 534)):
            ref = weyl_rhs_quadrature(lambda lam: np.abs(np.prod(lam - c, axis=1)), 2, v)
            res = exp_abs_det_mc(2, v, c, 200000, seed=seed, reference=ref)
            assert res.passed, f"v = {v}, c = {c}: z = {res.z_score:.2f}"


class TestDetmomentIntegrated:
    def test_reference_values(self):
        # (2v)^((m+1)/2) ratio(m) at the three calibration points
        r1 = detmoment_identity_check(1, 0.5, 1000, seed=514)
        assert r1.reference == pytest.approx(2.0**1.5, rel=1e-13)
        r2 = detmoment_identity_check(2, 0.5, 1000, seed=515)
        assert r2.reference == pytest.approx(2.0**1.5 * math.gamma(2.5), rel=1e-13)
        r3 = detmoment_identity_check(1, 2.0, 1000, seed=516)
        assert r3.reference == pytest.approx(4.0 * 2.0**1.5, rel=1e-13)

    def test_2d_quadrature_oracle_m1(self):
        # brute force: sqrt(4 pi v) int int |a - c| phi_{2v}(a) phi_{2v}(c) da dc
        v = 0.5
        sig = math.sqrt(2.0 * v)

        def inner(c):
            val, _ = integrate.quad(
                lambda a: abs(a - c)
                * math.exp(-a * a / (2 * sig * sig))
                / (sig * SQRT_2PI),
                -10, 10, limit=200,
            )
            return val * math.exp(-c * c / (2 * sig * sig)) / (sig * SQRT_2PI)

        val, _ = integrate.quad(inner, -10, 10, limit=200)
        assert math.sqrt(4.0 * math.pi * v) * val == pytest.approx(2.0**1.5, abs=1e-7)

    @pytest.mark.parametrize("m,v,seed", [(1, 0.5, 517), (2, 0.5, 518), (1, 2.0, 519)])
    def test_identity_holds(self, m, v, seed):
        res = detmoment_identity_check(m, v, 150000, seed=seed)
        assert res.passed, f"z = {res.z_score:.2f}"


class TestDetmomentPointwise:
    def test_m1_center_has_analytic_left_side(self):
        res = exp_det_pointwise_check(1, 0.5, 0.0, 150000, seed=520)
        assert abs(res.estimate - math.sqrt(2.0 / math.pi)) <= 4.0 * res.meta["left_se"]
        assert res.passed, f"z = {res.z_score:.2f}"

    @pytest.mark.parametrize("m,v,c,seed", [(1, 0.5, 1.0, 521), (2, 0.5, 0.0, 522)])
    def test_agreement(self, m, v, c, seed):
        res = exp_det_pointwise_check(m, v, c, 150000, seed=seed)
        assert res.passed, f"z = {res.z_score:.2f}"

    def test_estimate_is_the_left_side(self):
        # the sampled side is exp_abs_det_mc on the same seed and stream; the
        # reference is the exact density's
        res = exp_det_pointwise_check(3, 1.0, 0.7, 20000, seed=524)
        left = exp_abs_det_mc(3, 1.0, 0.7, 20000, seed=524)
        assert (res.estimate, res.std_error) == (left.estimate, left.std_error)
        assert res.reference == math.exp(0.7**2 / 4.0) * 2.0**2 * mehta_ratio(3) * float(goe_density(4, 1.0, 0.7))
        assert res.meta == {"left_se": res.std_error}

    def test_reference_past_float_range_raises_before_any_draw(self, monkeypatch):
        # c^2 overflows, exp(inf) is inf and the density is 0: their product would be a NaN reference
        def no_draw(*args):
            raise AssertionError("drew before the reference")

        monkeypatch.setattr(mehta, "sample_goe_batch", no_draw)
        monkeypatch.setattr(mehta, "map_goe_slabs", no_draw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"m=1, v=1, c=1e\+160 leaves the float range"):
                exp_det_pointwise_check(1, 1.0, 1e160, 2000)

    @pytest.mark.parametrize("v,c", [(0.5, 0.0), (0.5, 1.0), (1.0, 0.7), (2.0, -1.3)])
    def test_identity_analytic_at_m1(self, v, c):
        # both sides in closed form: E|a - c| for a ~ N(0, 2v) must equal
        # exp(c^2/4v) (2v) ratio(1) rho_2(c), rho_2 the two-eigenvalue density
        s = math.sqrt(2.0 * v)
        left = abs_moment_normal(s, abs(c))
        g = math.exp(-c * c / (2 * s * s))
        rho2 = (
            g
            * math.sqrt(2.0 * math.pi)
            * (s * math.sqrt(2.0 / math.pi) * g + c * math.erf(c / (s * math.sqrt(2.0))))
            / (4.0 * math.sqrt(math.pi) * s * s)
        )
        right = math.exp(c * c / (4.0 * v)) * (2.0 * v) * mehta_ratio(1) * rho2
        assert left == pytest.approx(right, rel=1e-12)


class TestKacRiceDensity:
    def test_m1_center(self):
        # (2 pi)^{-1/2} * 2 pi * E|N(0, sqrt 2)| = 2^{3/2}
        ref = 2.0**1.5
        analytic = (2.0 * math.pi) ** -0.5 * 2.0 * math.pi * abs_moment_normal(math.sqrt(2.0), 0.0)
        assert analytic == pytest.approx(ref, rel=1e-13)
        res = kacrice_density(1, 0.0, 1.0, 200000, seed=524, reference=ref)
        assert res.passed, f"z = {res.z_score:.2f}"

    def test_levels_equal_one_level_calls(self):
        # one pass serves an array of levels; each keeps the bits of its own call and its reference
        ts, refs = np.array([-1.0, 0.0, 2.0]), [1.0, 2.0, None]
        together = kacrice_density(2, ts, 0.5, 3000, seed=528, reference=refs)
        assert [r.to_dict() for r in together] == [
            kacrice_density(2, float(t), 0.5, 3000, seed=528, reference=ref).to_dict() for t, ref in zip(ts, refs)]

    @pytest.mark.parametrize("m,v,seed", [(1, 1.0, 525), (2, 1.0, 526), (2, 0.5, 527)])
    def test_total_mass(self, m, v, seed):
        [res] = kacrice_intervals(m, v, [(-math.inf, math.inf)], 100000, seed=seed)
        assert res.exact == pytest.approx(2.0 * (m + 1), abs=1e-9)
        z = res.to_dict()["z_kacrice_exact"]
        assert abs(z) <= 4.0, f"z = {z:.2f}"


class TestKacRiceVsEmpirical:
    def test_full_line_is_exact_on_empirical_side(self):
        res = kacrice_vs_empirical(1, 1.0, -math.inf, math.inf, 50000, seed=528)
        assert res.empirical.estimate == 4.0
        assert res.empirical.std_error == 0.0
        assert res.passed

    def test_half_line_symmetry(self):
        res = kacrice_vs_empirical(1, 1.0, 0.0, math.inf, 100000, seed=529)
        z_emp = (res.empirical.estimate - 2.0) / res.empirical.std_error
        assert abs(z_emp) <= 4.0
        assert res.passed

    def test_three_way_agreement(self):
        res = kacrice_vs_empirical(2, 1.0, -1.0, 1.0, 100000, seed=530)
        assert res.passed
        d = res.to_dict()
        assert set(d) >= {"interval", "empirical", "kacrice", "spectral", "pass"}

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            kacrice_vs_empirical(1, 1.0, 2.0, 1.0, 1000, seed=0)

    def test_spectral_route_calls_no_eigensolver(self, monkeypatch):
        # no route calls the eigensolver: the empirical route counts each dense draw by
        # its pivots' signs, the Kac-Rice route sweeps the continuant on stream 1 and the
        # Sturm route counts its sign changes on stream 2
        calls = []

        def counting(mats):
            calls.append(mats.shape)
            return batched_eigvals(mats)

        monkeypatch.setattr(spectral, "batched_eigvals", counting)
        res = kacrice_vs_empirical(1, 1.0, -1.0, 1.0, 2 * BLOCK + 1000, seed=536)
        assert calls == []
        assert res.passed

    def test_empirical_route_is_weyl_expectation_mc(self):
        # the dense empirical mass of each interval is E[2 count] by weyl_expectation_mc over
        # GOE(m + 1, v), bit for bit, whatever the worker count
        m, v, n, intervals = 2, 0.8, BLOCK + 1000, [(-1.0, 1.0), (0.0, math.inf), (-math.inf, -0.5)]
        together = kacrice_intervals(m, v, intervals, n, seed=538, workers=2)
        for (a, b), res in zip(intervals, together, strict=True):
            alone = spectral.weyl_expectation_mc(lambda lam: 2.0 * ((lam >= a) & (lam <= b)).sum(axis=1),
                                                 EnsembleParams(m + 1, 0.0, v), n, seed=538, workers=1)
            assert res.empirical.to_dict() == alone.to_dict()

    @pytest.mark.parametrize("m", [1, 2])
    def test_kacrice_intervals_match_single(self, m):
        # one pass per route serves every interval, bit for bit as its own call
        intervals = [(-math.inf, math.inf), (0.0, math.inf), (-1.0, 1.0), (50.0, 60.0)]
        n = BLOCK + 1000
        together = kacrice_intervals(m, 1.0, intervals, n, seed=537)
        for (a, b), res in zip(intervals, together, strict=True):
            assert res.to_dict() == kacrice_vs_empirical(m, 1.0, a, b, n, seed=537).to_dict()
        # no quadrature node lies in (50, 60)
        assert together[-1].kacrice.estimate == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 6, 50])
    def test_node_sum_matches_dense_formula(self, monkeypatch, m):
        # one block of the route's per-draw weights, its continuant summed node by node,
        # against the dense (draws, m, nodes) eigenvalue product of the same tridiagonal
        # draws built as full matrices (m = 50 at a smaller block, to keep them small)
        size = BLOCK if m < 50 else 1000
        captured = []
        monkeypatch.setattr(mehta, "mc_estimate", lambda fn, *args, **kwargs: captured.append(fn))
        ends = np.array([[-1.0, 1.0], [0.0, math.inf], [50.0, 60.0]])
        mehta._kacrice_masses(m, 1.0, ends, size, 0, 1, 1)
        [weights] = captured
        got = weights(np.random.default_rng(5), size)
        diag, off_sq = sample_goe_tridiagonal(m, 1.0, size, np.random.default_rng(5))
        mats = np.zeros((size, m, m))
        d = np.arange(m)
        mats[:, d, d] = diag.T
        mats[:, d[1:], d[:-1]] = mats[:, d[:-1], d[1:]] = np.sqrt(off_sq.T)
        lam = batched_eigvals(mats)
        want = np.zeros((size, len(ends)))
        for k, (a, b) in enumerate(ends):
            t, w = mehta._clipped_legendre(m, 1.0, a, b, mehta._KACRICE_NODES)
            w = w * np.exp(-t * t / 4.0) / math.sqrt(4.0 * math.pi) * mehta._kacrice_prefactor(m, 1.0)
            want[:, k] = np.abs(np.prod(lam[:, :, None] - t, axis=1)) @ w
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert want[:, :2].all() and not want[:, 2].any()

    @pytest.mark.parametrize("intervals", [[(1.0, 0.0)], [(-1.0, 1.0), (2.0, 2.0)], []])
    def test_intervals_rejected_before_any_draw(self, monkeypatch, intervals):
        def no_draw(*args):
            raise AssertionError("drew before validating the intervals")

        monkeypatch.setattr(mehta, "sample_goe_batch", no_draw)
        monkeypatch.setattr(mehta, "map_goe_slabs", no_draw)
        monkeypatch.setattr(spectral, "map_goe_slabs", no_draw)  # the dense count's draws
        monkeypatch.setattr(mehta, "sample_goe_tridiagonal", no_draw)
        with pytest.raises(ValueError, match="a < b"):
            kacrice_intervals(1, 1.0, intervals, 1000, seed=0)

    def test_interval_outside_truncation_box(self):
        res = kacrice_vs_empirical(1, 1.0, 50.0, 60.0, 2000, seed=533)
        assert res.empirical.estimate == 0.0
        assert res.kacrice.estimate == 0.0
        assert res.exact == 0.0
        assert res.passed

    @pytest.mark.parametrize("m", [1, 2, 50, 200])
    def test_exact_whole_line_mass(self, m):
        # at m = 50 the rule must resolve the density's m + 1 wiggles, not the whole box
        [mass] = mehta._exact_masses(m, 1.0, np.array([[-math.inf, math.inf]]))
        assert abs(mass - 2.0 * (m + 1)) <= 1e-9

    @pytest.mark.parametrize("a, b", [(-math.inf, math.inf), (0.0, math.inf)])
    def test_kacrice_rule_on_exact_density_m50(self, a, b):
        # the sampled rule's nodes and box, applied to the density its integrand averages to
        m = 50
        t, w = mehta._clipped_legendre(m, 1.0, a, b, mehta._KACRICE_NODES)
        ruled = 2.0 * (m + 1) * float(w @ goe_density(m + 1, 1.0, t))
        [exact] = mehta._exact_masses(m, 1.0, np.array([[a, b]]))
        assert abs(ruled / exact - 1.0) <= 5e-4

    def test_exact_mass_m50_matches_sturm(self):
        # the Sturm count of GOE(51, 1) on [-1, 1] reads 9.041 +- 0.012
        [mass] = mehta._exact_masses(50, 1.0, np.array([[-1.0, 1.0]]))
        assert mass == pytest.approx(9.0411, abs=5e-5)

    @pytest.mark.parametrize("m, n, seed, a, b", [(50, 20000, 539, -1.0, 1.0), (200, 2000, 540, -1.0, 1.0),
                                                  (200, 2000, 541, -math.inf, math.inf)],
                             ids=["50-20000-539", "200-2000-540", "200-2000-541-whole-line"])
    def test_kacrice_route_at_large_m(self, m, n, seed, a, b):
        # the continuant on tridiagonal draws stays in the float range at m = 200, also at the
        # nodes near the box's edge, where det(T - t I) alone passes 1e308 (an overflow warning
        # fails the suite)
        ends = np.array([[a, b]])
        [res] = mehta._kacrice_masses(m, 1.0, ends, n, seed, None, 1)
        [exact] = mehta._exact_masses(m, 1.0, ends)
        assert abs(res.estimate - exact) <= 4.0 * res.std_error

    @pytest.mark.parametrize("m, v", [(300, 1.0), (280, 4.0)])
    def test_continuant_overflow_raises(self, m, v):
        with pytest.raises(OverflowError, match=f"m={m}, v={v:g} "):
            mehta._kacrice_masses(m, v, np.array([[-1.0, 1.0]]), 2000, 0, 1, 1)

    def test_exact_mass_in_artifact(self):
        res = kacrice_vs_empirical(2, 1.0, -1.0, 1.0, 20000, seed=538)
        out = res.to_dict()
        assert out["exact"] == res.exact
        for route in ("empirical", "kacrice", "spectral"):
            r = getattr(res, route)
            assert out[f"z_{route}_exact"] == pytest.approx((r.estimate - res.exact) / r.std_error, rel=1e-12)
            assert abs(out[f"z_{route}_exact"]) <= 4.0


class TestReproduce:
    def test_small_pipeline(self):
        rows = reproduce_zm(2, 150000, seed=531)
        assert [r.meta["m"] for r in rows] == [2, 3]
        for r in rows:
            assert r.passed, f"Z_{r.meta['m']}: z = {r.z_score:.2f}"
            assert r.reference == pytest.approx(mehta_closed_form(r.meta["m"]), rel=1e-13)

    def test_error_propagation_grows(self):
        rows = reproduce_zm(3, 50000, seed=532)
        rel = [r.std_error / r.estimate for r in rows]
        assert rel[0] < rel[1] < rel[2]

    def test_rejects_bad_m(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before computing the references")

        with pytest.raises(ValueError):
            reproduce_zm(0, 1000)
        # Z_40 overflows a float: the references are computed before any draw
        monkeypatch.setattr(mehta, "sample_goe_tridiagonal", no_draw)
        with pytest.raises(OverflowError):
            reproduce_zm(39, 2000)

    def test_builds_no_matrix_and_calls_no_lu(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense route called")

        for name in ("sample_goe_batch", "map_goe_slabs", "batched_det"):
            monkeypatch.setattr(mehta, name, forbidden)
        monkeypatch.setattr(spectral, "batched_eigvals", forbidden)  # where mehta's dense count finds it
        monkeypatch.setattr(np.linalg, "det", forbidden)
        assert len(reproduce_zm(5, 2000, seed=534)) == 5

    def test_first_row_equals_dense_m1(self):
        # at m = 1 the tridiagonal sampler draws what the dense one draws, and
        # the recurrence is the 1 x 1 determinant, so the bits agree
        n = 2 * BLOCK + 1000

        def dense(rng, size):
            # the level at GOE(2)'s scale, N(0, 3), weighed back to N(0, 2) by the same expression
            mats = sample_goe_batch(1, 1.0, size, rng)
            shifts = rng.standard_normal(size=size) * math.sqrt(3.0)
            ratio = np.exp(shifts * shifts * (1.0 / 6.0 - 1.0 / 4.0) + 0.5 * math.log(1.5))
            return np.abs(batched_det(mats - shifts[:, None, None])) * ratio

        ref = mc_estimate(dense, n, 535, scale=math.sqrt(4.0 * math.pi) / 2.0)
        row = reproduce_zm(1, n, seed=535)[0]
        assert (row.meta["ratio"], row.meta["ratio_se"]) == (ref.estimate, ref.std_error)

    def test_trailing_blocks_match_dense_det(self):
        # one block: rebuild its draws on the map's Philox key and take each trailing
        # m x m block's det(T_m - c) by np.linalg.det of the assembled dense matrix
        m_max, n, seed = 4, 3000, 540
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
        diag, off_sq = sample_goe_tridiagonal(m_max, 1.0, n, rng)
        # row m - 1: size m's level, drawn from N(0, m + 2) and weighed back to N(0, 2)
        levels = rng.standard_normal(size=(m_max, n)) * np.sqrt(np.arange(3.0, m_max + 3.0))[:, None]
        dets = np.empty((n, m_max))
        for m in range(1, m_max + 1):
            mats = np.zeros((n, m, m))
            d = np.arange(m)
            mats[:, d, d] = diag[-m:].T - levels[m - 1][:, None]
            off = np.sqrt(off_sq[m_max - m:]).T
            mats[:, d[:-1], d[1:]] = mats[:, d[1:], d[:-1]] = off
            c = levels[m - 1]
            ratio = math.sqrt((m + 2) / 2.0) * np.exp(-c * c / 4.0 + c * c / (2.0 * (m + 2)))
            dets[:, m - 1] = np.abs(np.linalg.det(mats)) * ratio
        units = math.sqrt(4.0 * math.pi) / 2.0 ** ((np.arange(1, m_max + 1) + 1) / 2.0)
        ratios = units * dets.mean(axis=0)
        rel_cov = np.cov(dets, rowvar=False) / n / np.outer(dets.mean(axis=0), dets.mean(axis=0))
        values = math.sqrt(2.0 * math.pi) * np.cumprod(ratios)
        for k, row in enumerate(reproduce_zm(m_max, n, seed=seed)):
            se = values[k] * math.sqrt(rel_cov[:k + 1, :k + 1].sum())
            assert row.meta["ratio"] == pytest.approx(ratios[k], rel=1e-10)
            assert row.meta["ratio_se"] == pytest.approx(units[k] * dets[:, k].std(ddof=1) / math.sqrt(n), rel=1e-10)
            assert (row.estimate, row.std_error) == pytest.approx((values[k], se), rel=1e-10)

    def test_calibrated_over_seeds(self):
        # every row's z over 40 seeds: mean z^2 near 1 and mean z near 0
        z = np.array([[r.z_score for r in reproduce_zm(4, 4000, seed=s)] for s in range(40)])
        for col in z.T:
            assert 0.35 <= np.mean(col ** 2) <= 2.11, col
            assert abs(np.mean(col)) <= 4.0 / math.sqrt(40), col

    def test_tridiagonal_route_matches_dense(self):
        # E|det(A - I)| by the dense GOE + LU route and by tridiagonal spectra
        # on another stream, m = 3..6
        c, n, seed = 1.0, 200000, 601

        def tridiagonal(m):
            def weights(rng, size):
                diag, off_sq = sample_goe_tridiagonal(m, 1.0, size, rng)
                return np.abs(mehta._continuant(diag, off_sq, c, 1.0, np.empty((3, size))))
            return mc_estimate(weights, n, seed, stream=1)

        for m in range(3, 7):
            dense = exp_abs_det_mc(m, 1.0, c, n, seed=seed)
            tri = tridiagonal(m)
            z = (dense.estimate - tri.estimate) / math.hypot(dense.std_error, tri.std_error)
            assert abs(z) <= 4.0, (m, z)


class TestEstimatorResult:
    def test_z_and_pass(self):
        r = EstimatorResult(1.0, 0.5, 100, 0, reference=2.0)
        assert r.z_score == pytest.approx(-2.0)
        assert r.passed
        r = EstimatorResult(5.0, 0.5, 100, 0, reference=2.0)
        assert not r.passed

    def test_zero_se(self):
        r = EstimatorResult(2.0, 0.0, 100, 0, reference=2.0)
        assert r.z_score == 0.0 and r.passed
        r = EstimatorResult(2.5, 0.0, 100, 0, reference=2.0)
        assert not r.passed

    def test_no_reference(self):
        r = EstimatorResult(1.0, 0.5, 100, 0)
        assert r.z_score is None and r.passed
        assert r.to_dict()["z_score"] is None
