import math

import numpy as np
import pytest

from mehtalab.estimation import substream
from mehtalab.spectral import (
    PointMeasure,
    QuadratureError,
    batched_det,
    batched_eigvals,
    default_degeneracy_tol,
    eigenvalues,
    eigh_sym,
    one_point_correlation,
    spectral_measure,
    weyl_expectation_mc,
    weyl_rhs_quadrature,
)
from mehtalab.symspace import EnsembleParams, SymMatrix


def random_sym_full(m, rng):
    a = rng.normal(size=(m, m))
    return a + a.T


def cofactor_det(a):
    """Independent determinant oracle by recursive cofactor expansion."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * cofactor_det(minor)
    return total


class TestEigensolver:
    def test_diagonal(self):
        assert np.allclose(eigenvalues(SymMatrix.from_diagonal([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_exchange(self):
        w = eigenvalues(SymMatrix.from_full([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_residual(self):
        rng = substream(201)
        a = random_sym_full(5, rng)
        w, v = eigh_sym(SymMatrix.from_full(a))
        assert np.all(np.diff(w) >= 0.0)
        assert np.max(np.abs(v @ np.diag(w) @ v.T - a)) < 1e-9
        assert np.max(np.abs(v.T @ v - np.eye(5))) < 1e-12

    def test_batched_contract(self):
        # ascending (n, m) rows whose sum and product match the trace and an
        # independent cofactor determinant
        rng = substream(202)
        for m in (2, 3, 4, 6):
            mats = np.stack([random_sym_full(m, rng) for _ in range(200)])
            w = batched_eigvals(mats)
            assert w.shape == (200, m)
            assert np.all(np.diff(w, axis=1) >= 0.0)
            for a, row in zip(mats, w):
                assert abs(row.sum() - np.trace(a)) / (1.0 + abs(np.trace(a))) < 1e-10
                d_cof = cofactor_det(a)
                assert abs(np.prod(row) - d_cof) / (1.0 + abs(d_cof)) < 1e-10
        single = random_sym_full(3, rng)
        assert batched_eigvals(single).shape == (1, 3)

    def test_trace_det_consistency(self):
        rng = substream(203)
        for _ in range(1000):
            m = int(rng.integers(2, 5))
            a = random_sym_full(m, rng)
            w = batched_eigvals(a[None])[0]
            scale = 1.0 + abs(np.trace(a))
            assert abs(w.sum() - np.trace(a)) / scale < 1e-9
            d_lu = batched_det(a[None])[0]
            d_cof = cofactor_det(a)
            scale_d = 1.0 + abs(d_cof)
            assert abs(np.prod(w) - d_cof) / scale_d < 1e-9
            assert abs(d_lu - d_cof) / scale_d < 1e-9

    def test_clustered_spectrum(self):
        # nearly degenerate pair still resolved to full accuracy
        q, _ = np.linalg.qr(substream(204).normal(size=(4, 4)))
        w_true = np.array([1.0, 1.0 + 1e-9, 2.0, 3.0])
        a = q @ np.diag(w_true) @ q.T
        w = batched_eigvals(0.5 * (a + a.T)[None])[0]
        assert np.max(np.abs(w - w_true)) < 1e-12

    def test_eigh_sym_wrapper(self):
        a = SymMatrix.from_diagonal([2.0, -1.0])
        w, v = eigh_sym(a)
        assert np.allclose(w, [-1.0, 2.0])
        assert np.allclose(np.abs(v), np.eye(2)[:, ::-1])


class TestPointMeasure:
    def test_sorting_and_mass(self):
        pm = PointMeasure(np.array([2.0, 1.0]), np.array([1.0, 3.0]))
        assert np.allclose(pm.locations, [1.0, 2.0])
        assert pm.total_mass == 4.0

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            PointMeasure(np.array([0.0]), np.array([0.0]))

    def test_merge_preserves_mass_exactly(self):
        rng = substream(205)
        locs = np.sort(rng.normal(size=40))
        wts = rng.integers(1, 5, size=40).astype(float)
        pm = PointMeasure(locs, wts)
        before = pm.total_mass
        for tol in (0.0, 1e-3, 0.1, 10.0):
            assert pm.merged(tol).total_mass == before

    def test_mass_in_interval(self):
        pm = PointMeasure(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 2.0, 1.0]))
        assert pm.mass_in(-0.5, 2.0) == 3.0
        assert pm.mass_in(5.0, 6.0) == 0.0


class TestSpectralMeasure:
    def test_explicit_multiplicity(self):
        pm = spectral_measure(SymMatrix.from_diagonal([1.0, 1.0, 2.0]), degeneracy_tol=1e-8)
        assert np.allclose(pm.locations, [1.0, 2.0])
        assert np.allclose(pm.weights, [2.0, 1.0])

    def test_identity_single_atom(self):
        pm = spectral_measure(SymMatrix.identity(3))
        assert pm.locations.size == 1
        assert pm.weights[0] == 3.0

    def test_goe_sample_simple(self):
        a = SymMatrix.from_full(random_sym_full(5, substream(206)))
        pm = spectral_measure(a, degeneracy_tol=0.0)
        assert pm.locations.size == 5
        assert np.all(pm.weights == 1.0)
        assert pm.total_mass == 5.0

    def test_default_tolerance_scales(self):
        a = SymMatrix.identity(3)
        assert default_degeneracy_tol(a) == pytest.approx(1e-8 * (1.0 + math.sqrt(3.0)))


class TestWeylExpectation:
    def test_constant_function(self):
        res = weyl_expectation_mc(
            lambda lam: np.ones(lam.shape[0]), EnsembleParams(3, 0.0, 1.0), 5000, seed=207
        )
        assert res.estimate == 1.0
        assert res.std_error == 0.0

    def test_mean_square_m2(self):
        # E[(1/m) tr A^2] = 2v + (m-1) v = 1.5 at m=2, v=1/2
        res = weyl_expectation_mc(
            lambda lam: (lam**2).mean(axis=1), EnsembleParams(2, 0.0, 0.5), 100000, seed=208
        )
        assert abs((res.estimate - 1.5) / res.std_error) <= 4.0

    def test_rejects_nonzero_u(self):
        with pytest.raises(ValueError):
            weyl_expectation_mc(lambda lam: lam.sum(axis=1), EnsembleParams(2, 1.0, 1.0), 10, seed=0)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            weyl_expectation_mc(lambda lam: lam.sum(axis=1), EnsembleParams(2, 0.0, 1.0), 0, seed=0)


class TestWeylQuadrature:
    def test_normalized_density(self):
        for m, v in ((1, 1.0), (2, 0.5), (3, 2.0)):
            val = weyl_rhs_quadrature(lambda lam: np.ones(lam.shape[0]), m, v)
            assert abs(val - 1.0) <= 1e-6

    def test_second_moment_m1(self):
        val = weyl_rhs_quadrature(lambda lam: (lam**2).mean(axis=1), 1, 0.5)
        assert abs(val - 1.0) <= 1e-6

    def test_second_moment_m2(self):
        val = weyl_rhs_quadrature(lambda lam: (lam**2).mean(axis=1), 2, 0.5)
        assert abs(val - 1.5) <= 1e-6

    def test_abs_shift_m1_exact(self):
        # E|l - c| for l ~ N(0, 2v): a kink at c, away from the origin
        for v, c in ((0.5, 1.0), (2.0, -1.5)):
            s = math.sqrt(2.0 * v)
            exact = s * math.sqrt(2.0 / math.pi) * math.exp(-c * c / (2 * s * s)) + c * math.erf(
                c / (s * math.sqrt(2.0))
            )
            val = weyl_rhs_quadrature(lambda lam: np.abs(lam[:, 0] - c), 1, v)
            assert abs(val - exact) <= 1e-13

    def test_mc_agreement(self):
        # the Monte Carlo side against the quadrature side, m in {1, 2}
        for m, seed in ((1, 209), (2, 210)):
            params = EnsembleParams(m, 0.0, 0.5)
            for f in (
                lambda lam: np.ones(lam.shape[0]),
                lambda lam: (lam**2).mean(axis=1),
                lambda lam: np.abs(lam).mean(axis=1),
            ):
                quad = weyl_rhs_quadrature(f, m, 0.5)
                mc = weyl_expectation_mc(f, params, 60000, seed=seed)
                se = max(mc.std_error, 1e-12)
                assert abs((mc.estimate - quad) / se) <= 4.0

    def test_unsupported_m(self):
        with pytest.raises(ValueError):
            weyl_rhs_quadrature(lambda lam: np.ones(lam.shape[0]), 4, 1.0)

    def test_unreachable_tolerance_reports_achieved(self):
        with pytest.raises(QuadratureError) as info:
            weyl_rhs_quadrature(lambda lam: (lam**2).mean(axis=1), 2, 0.5, tol=1e-30)
        assert 0.0 < info.value.achieved < 1e-6

    def test_nan_integrand_raises(self):
        for m in (1, 2):
            with pytest.raises(QuadratureError):
                weyl_rhs_quadrature(lambda lam: np.full(lam.shape[0], np.nan), m, 0.5)


def rho2_analytic(x, v):
    """Two-eigenvalue one-point density in closed form (erf plus Gaussian)."""
    s = math.sqrt(2.0 * v)
    g = np.exp(-x * x / (2 * s * s))
    inner = s * math.sqrt(2.0 / math.pi) * g + x * np.vectorize(math.erf)(x / (s * math.sqrt(2.0)))
    return g * math.sqrt(2.0 * math.pi) * inner / (4.0 * math.sqrt(math.pi) * s * s)


class TestOnePointCorrelation:
    def test_m1_matches_standard_normal(self):
        # at m=1, v=1/2 the density is exactly N(0, 1)
        est = one_point_correlation(1, 0.5, 500000, estimator="kernel", bandwidth=0.05, seed=211)
        ref = np.exp(-est.grid**2 / 2.0) / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(est.values - ref)) < 0.01

    def test_m2_matches_analytic_density(self):
        # closed-form oracle, pointwise at 4 SE (bins with enough mass to
        # make the Gaussian error model meaningful)
        v = 0.5
        est = one_point_correlation(2, v, 200000, seed=217)
        ref = rho2_analytic(est.grid, v)
        mask = est.stderr > 0
        z = np.abs(est.values[mask] - ref[mask]) / est.stderr[mask]
        heavy = ref[mask] > 0.01
        assert z[heavy].max() <= 4.0
        # binning bias check at the peak: half a bin of curvature at most
        peak = np.argmax(ref)
        assert abs(est.values[peak] - ref[peak]) < 0.01

    def test_normalization(self):
        for m, v, seed in ((2, 0.5, 212), (3, 1.0, 213)):
            est = one_point_correlation(m, v, 100000, seed=seed)
            assert 0.99 <= est.integral() <= 1.01

    def test_symmetry_pointwise(self):
        est = one_point_correlation(2, 0.5, 100000, seed=214)
        vals = est.values
        ses = est.stderr
        flipped_vals = vals[::-1]
        flipped_ses = ses[::-1]
        se = np.sqrt(ses**2 + flipped_ses**2)
        mask = se > 0
        z = np.abs(vals[mask] - flipped_vals[mask]) / se[mask]
        assert z.max() <= 4.0

    def test_second_moment_m2(self):
        est = one_point_correlation(2, 0.5, 200000, seed=215)
        grid_val = est.integrate(lambda x: x**2)
        se = est.meta["moment2_se"]
        assert abs((grid_val - 1.5) / se) <= 4.0
        # binning bias must stay well under the statistical error
        assert abs(grid_val - est.meta["moment2"]) < 4.0 * se

    def test_input_validation(self):
        with pytest.raises(ValueError):
            one_point_correlation(2, 1.0, 500)
        with pytest.raises(ValueError):
            one_point_correlation(2, 1.0, 2000, bin_width=0.0)
        with pytest.raises(ValueError):
            one_point_correlation(2, 1.0, 2000, estimator="kernel", bandwidth=-0.1)
        with pytest.raises(ValueError):
            one_point_correlation(2, 1.0, 2000, estimator="spline")

    def test_csv_export(self, tmp_path):
        est = one_point_correlation(1, 0.5, 2000, seed=216)
        path = tmp_path / "rho.csv"
        est.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,rho,stderr"
        assert len(lines) == est.grid.size + 1

    def test_pointmeasure_csv_export(self, tmp_path):
        pm = spectral_measure(SymMatrix.from_diagonal([1.0, 2.0]))
        path = tmp_path / "pm.csv"
        pm.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "location,weight"
        assert len(lines) == 3
