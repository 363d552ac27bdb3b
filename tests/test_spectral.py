import ast
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import ndtr

import mehtalab
from mehtalab import spectral
from mehtalab.cli import main
from mehtalab.estimation import Moments, map_chunks, philox, substream
from mehtalab.mehta import _continuant, _sturm_counts
from mehtalab.spectral import (
    PointMeasure,
    QuadratureError,
    batched_count_below,
    batched_det,
    batched_eigvals,
    default_degeneracy_tol,
    eigenvalues,
    goe_density,
    one_point_correlation,
    spectral_measure,
    weyl_expectation_mc,
    weyl_rhs_quadrature,
    _cell_moments,
    _hermite_functions,
)
from mehtalab.symspace import EnsembleParams, SymMatrix, sample_goe_batch, sample_goe_tridiagonal


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
        # each eigenvalue w has a unit v with |a v - w v| < 1e-9, that is, the
        # smallest singular value of a - w I is below 1e-9
        rng = substream(201)
        a = random_sym_full(5, rng)
        w = eigenvalues(SymMatrix.from_full(a))
        assert np.all(np.diff(w) >= 0.0)
        for wk in w:
            assert np.linalg.svd(a - wk * np.eye(5), compute_uv=False)[-1] < 1e-9

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

    def test_one_eigenvalue_entry(self):
        # batched_eigvals chooses the eigensolver for every module; eigh, which
        # also returns eigenvectors, is not an eigenvalue call
        callers = set()
        for path in Path(mehtalab.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                func = getattr(node, "func", None)
                if getattr(func, "attr", getattr(func, "id", None)) == "eigvalsh":
                    callers.add(path.name)
        assert callers == {"spectral.py"}


def assemble_tridiagonal(diag, off_sq):
    """Dense stack of the symmetric tridiagonal matrices of step-major rows, for checks only."""
    m, n = diag.shape
    t = np.zeros((n, m, m))
    d = np.arange(m)
    t[:, d, d] = diag.T
    b = np.sqrt(off_sq.T)
    t[:, d[:-1], d[1:]] = b
    t[:, d[1:], d[:-1]] = b
    return t


class TestTridiagonalPivots:
    """The continuant sweep ``mehta._continuant``.  The LDL^T pivots of T - sI are p_k / p_{k-1}, so
    their product is its p_m and their negative count its sign changes."""

    def test_recurrence_matches_lu(self):
        # the sweep against LU on the explicitly assembled T - sI, same draws;
        # the scale is the product of the row sums of |T - sI|, which bounds
        # |det| and keeps near-zero determinants from making this flaky; at
        # m = 50 the sweep rescales three times and folds the exponent back,
        # so it must equal the unscaled recurrence bit for bit
        rng = substream(205)
        for m in [*range(1, 7), 50]:
            diag, off_sq = sample_goe_tridiagonal(m, 0.5, 2000, rng)
            shifts = rng.normal(size=2000)
            t = assemble_tridiagonal(diag - shifts, off_sq)
            d_lu = np.linalg.det(t)
            scale = np.maximum(np.abs(d_lu), np.prod(np.abs(t).sum(axis=2), axis=1))
            det = _continuant(diag, off_sq, shifts, 1.0, np.empty((3, 2000)))
            rel = np.abs(det - d_lu) / scale
            assert rel.max() <= 1e-11, m
            p_prev, p = np.ones(2000), diag[0] - shifts
            for a, b_sq in zip(diag[1:], off_sq):
                p_prev, p = p, (a - shifts) * p - b_sq * p_prev
            assert np.array_equal(det, p), m

    def test_scalar_shift(self):
        # exact zeros, counted as dstebz's guarded pivots count them: a zero p_1 once over its pair
        # (det [[1-s, 2, 0], [2, 2-s, 3], [0, 3, 3-s]] at s = 1, which is -8), and a zero p_m not at
        # all, after p_{m-1} > 0, after p_{m-1} < 0 and at m = 1
        cases = [([1, 2, 3], [4, 9], 1.0, -8.0, 1), ([1, 1], [1], 0.0, 0.0, 0), ([1, 1], [1], 2.0, 0.0, 1),
                 ([1], [], 1.0, 0.0, 0)]
        for diag, off_sq, s, det, count in cases:
            neg = np.zeros(1, dtype=np.int64)
            p_m = _continuant(np.array(diag, dtype=float)[:, None], np.array(off_sq, dtype=float).reshape(-1, 1),
                              s, 1.0, np.empty((3, 1)), neg)
            assert (p_m[0], neg[0]) == (det, count), (diag, s)

    @pytest.mark.parametrize("d, v, n", [pytest.param(2, 1.0, 2000, id="2"), pytest.param(6, 1.0, 2000, id="6"),
                                         pytest.param(50, 1.0, 2000, id="50"),
                                         pytest.param(51, 1e-200, 2000, id="51-v1e-200"),
                                         pytest.param(51, 1e200, 2000, id="51-v1e200"),
                                         pytest.param(400, 1.0, 100, id="400")])
    def test_sturm_counts_match_eigvalsh(self, d, v, n):
        # the Sturm route's interval counts against LAPACK's eigenvalues of the same draws, at ends in
        # the bulk, past the Kac-Rice box, at +-1e300 and infinite
        r = math.sqrt(v)
        ends = np.array([(-r, r), (0.0, math.inf), (-math.inf, math.inf), (0.3 * r, 1e8 * r), (-1e300, 1e300)])
        diag, off_sq = sample_goe_tridiagonal(d, v, n, philox(207, 0, d))
        lam = np.array([eigvalsh_tridiagonal(a, np.sqrt(b_sq)) for a, b_sq in zip(diag.T, off_sq.T)])
        inside = ((lam[:, None] >= ends[:, 0, None]) & (lam[:, None] < ends[:, 1, None])).sum(axis=2)
        assert np.array_equal(_sturm_counts(d - 1, v, ends, philox(207, 0, d), n), 2.0 * inside)


def eigvalsh_counts(mats, shifts):
    """#(lambda < s) of every matrix at every shift from LAPACK's eigenvalues, (len(shifts), n)."""
    return (np.linalg.eigvalsh(mats) < np.asarray(shifts, dtype=float)[:, None, None]).sum(axis=2)


class TestCountBelow:
    """``batched_count_below``: the negative pivots of A - sI, or the eigensolver past the crossover."""

    @pytest.mark.parametrize("v", [1e-200, 1.0, 1e200])
    def test_matches_eigvalsh_to_one_past_the_crossover(self, v):
        # three distinct finite shifts: elimination up to d = _ELIMINATION_MAX // 3, the eigensolver one past;
        # the shifts at +-1e300 are past every eigenvalue at every v and the infinite ones need no elimination
        shifts = [-math.inf, -1e300, 0.0, 1e300, math.inf, 0.0]
        rng = substream(208)
        for d in range(1, spectral._ELIMINATION_MAX // 3 + 2):
            mats = sample_goe_batch(d, v, 300, rng)
            got = batched_count_below(mats.copy(), shifts)
            assert got.shape == (6, 300) and np.array_equal(got, eigvalsh_counts(mats, shifts)), d
            assert np.array_equal(got[:2], [[0] * 300, [0] * 300]) and np.array_equal(got[3:5], [[d] * 300] * 2)

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_shift_at_an_eigenvalue_is_not_below_it(self, scale, monkeypatch):
        # exact zero pivots: #(lambda < s) leaves out an eigenvalue at s, in a diagonal matrix and in one whose
        # zero pivots have nonzero columns (its eigenvalues -1, -1, 2; at s = 0 the first pivot is 0, at s = -1
        # the second and at s = 2 the last); one matrix and a long stack of it, neither sent to the eigensolver
        monkeypatch.setattr(spectral, "batched_eigvals", None)
        diag = np.diag([-1.0, 2.0, 3.0]) * scale
        assert np.array_equal(batched_count_below(diag[None].copy(), np.array([-1.0, 2.0, 3.0, 2.5]) * scale),
                              [[0], [1], [2], [2]])
        ones = (np.ones((3, 3)) - np.eye(3)) * scale
        assert np.array_equal(batched_count_below(ones[None].copy(), np.array([0.0, -0.5, 1.0, -1.0, 2.0]) * scale),
                              [[2], [2], [2], [0], [2]])
        assert np.array_equal(batched_count_below(np.repeat(ones[None], 300, axis=0), np.array([-1.0, 2.0]) * scale),
                              np.repeat([[0], [2]], 300, axis=1))

    def test_both_methods_at_one_d(self, monkeypatch):
        # at d = _ELIMINATION_MAX // 2 + 1 one finite shift is eliminated and two go to the eigensolver;
        # both give the same integers, and the report's sizes (d <= 4, three finite shifts) eliminate
        d = spectral._ELIMINATION_MAX // 2 + 1
        assert 4 * 3 <= d <= spectral._ELIMINATION_MAX < 2 * d
        calls = []

        def counting(mats):
            calls.append(len(mats))
            return batched_eigvals(mats)

        monkeypatch.setattr(spectral, "batched_eigvals", counting)
        mats = sample_goe_batch(d, 1.0, 200, substream(209))
        one = batched_count_below(mats.copy(), [0.5])
        assert calls == []
        two = batched_count_below(mats.copy(), [0.5, -0.5])
        assert calls == [200]
        assert np.array_equal(one[0], two[0]) and np.array_equal(two, eigvalsh_counts(mats, [0.5, -0.5]))

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("d", [22, 33, 64])
    def test_eigensolver_leaves_out_an_eigenvalue_at_the_shift(self, d, scale):
        # J - I has eigenvalues -1 (d - 1 times) and d - 1: three shifts in one call go to the eigensolver and read
        # what each alone reads by elimination, an eigenvalue at s not below s
        mats, shifts = (np.ones((1, d, d)) - np.eye(d)) * scale, np.array([-1.0, d - 1.0, 0.0]) * scale
        alone = [batched_count_below(mats, [s])[0, 0] for s in shifts]
        assert alone == [0, d - 1, d - 1]
        assert batched_count_below(mats, shifts)[:, 0].tolist() == alone

    @pytest.mark.parametrize("shifts", [[0.5], [-1.0, 1.0], [-1.0, 0.0, 1.0]])
    def test_stack_is_left_as_it_is(self, shifts):
        # with every number of finite shifts the stack reads the same after a call, so a second call agrees
        mats = sample_goe_batch(3, 1.0, 5, substream(210))
        before = mats.copy()
        first = batched_count_below(mats, shifts)
        assert np.array_equal(mats, before)
        assert np.array_equal(batched_count_below(mats, shifts), first)
        assert np.array_equal(first, eigvalsh_counts(before, shifts))


class TestPointMeasure:
    def test_sorting_and_mass(self):
        pm = PointMeasure(np.array([2.0, 1.0]), np.array([1.0, 3.0]))
        assert np.allclose(pm.locations, [1.0, 2.0])
        assert math.fsum(pm.weights.tolist()) == 4.0

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            PointMeasure(np.array([0.0]), np.array([0.0]))

    def test_merge_preserves_mass_exactly(self):
        rng = substream(205)
        locs = np.sort(rng.normal(size=40))
        wts = rng.integers(1, 5, size=40).astype(float)
        pm = PointMeasure(locs, wts)
        before = math.fsum(pm.weights.tolist())
        for tol in (0.0, 1e-3, 0.1, 10.0):
            assert math.fsum(pm.merged(tol).weights.tolist()) == before

    def test_nan_tolerance_rejected(self):
        pm = PointMeasure(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            pm.merged(math.nan)

    def test_merges_neighbours_no_more_than_tol_apart(self):
        # the finder refuses a gap <= tau, so a gap of exactly tol is one atom
        pm = PointMeasure(np.array([1.0, 1.0, 1.5, 3.0]), np.ones(4))
        assert np.array_equal(pm.merged(0.0).weights, [2.0, 1.0, 1.0])
        assert np.array_equal(pm.merged(0.5).weights, [3.0, 1.0])
        assert np.array_equal(pm.merged(np.nextafter(0.5, 0.0)).weights, [2.0, 1.0, 1.0])


class TestSpectralMeasure:
    def test_explicit_multiplicity(self):
        pm = spectral_measure(SymMatrix.from_diagonal([1.0, 1.0, 2.0]), degeneracy_tol=1e-8)
        assert np.allclose(pm.locations, [1.0, 2.0])
        assert np.allclose(pm.weights, [2.0, 1.0])

    def test_identity_single_atom(self):
        pm = spectral_measure(SymMatrix.from_diagonal([1.0, 1.0, 1.0]))
        assert pm.locations.size == 1
        assert pm.weights[0] == 3.0

    def test_goe_sample_simple(self):
        a = SymMatrix.from_full(random_sym_full(5, substream(206)))
        pm = spectral_measure(a, degeneracy_tol=0.0)
        assert pm.locations.size == 5
        assert np.all(pm.weights == 1.0)
        assert math.fsum(pm.weights.tolist()) == 5.0

    def test_nan_tolerance_rejected(self):
        # no gap compares >= NaN, so a NaN tolerance would merge every atom
        with pytest.raises(ValueError, match="degeneracy_tol must be nonnegative"):
            spectral_measure(SymMatrix.from_diagonal([1.0, 2.0, 3.0]), degeneracy_tol=math.nan)

    def test_default_tolerance_scales(self):
        a = SymMatrix.from_diagonal([1.0, 1.0, 1.0])
        assert default_degeneracy_tol(a) == pytest.approx(1e-8 * math.sqrt(3.0))

    def test_default_tolerance_of_a_stack(self):
        mats = sample_goe_batch(4, 1.0, 6, substream(208)).reshape(2, 3, 4, 4)
        tau = default_degeneracy_tol(mats)
        assert tau.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert tau[idx] == default_degeneracy_tol(SymMatrix.from_full(mats[idx]))

    @pytest.mark.filterwarnings("error")
    def test_entries_whose_squares_overflow(self):
        pm = spectral_measure(SymMatrix.from_diagonal([1e200, -1e200]))
        assert np.array_equal(pm.locations, [-1e200, 1e200])
        assert np.array_equal(pm.weights, [1.0, 1.0])
        pm = spectral_measure(SymMatrix.from_diagonal([1e160, 2e160, 3e160]))
        assert np.array_equal(pm.weights, [1.0, 1.0, 1.0])


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
    @pytest.mark.parametrize("n", [1, 2, 20, 64, 256])
    def test_legendre_rule_is_exact(self, n):
        # n nodes integrate x^(2k) over [-1, 1] exactly for every k < n; scipy's roots_legendre reads 1.0e-11 at n = 256
        nodes, wts = spectral._legendre(n)
        assert nodes.shape == wts.shape == (n,) and (np.diff(nodes) > 0.0).all()
        k = np.arange(n)
        np.testing.assert_allclose(nodes[None, :] ** (2 * k[:, None]) @ wts, 2.0 / (2 * k + 1), rtol=1e-13, atol=0.0)

    def test_normalized_density(self):
        for m, v in ((1, 1.0), (2, 0.5), (3, 2.0)):
            val = weyl_rhs_quadrature(lambda lam: np.ones(lam.shape[0]), m, v)
            assert abs(val - 1.0) <= 1e-6

    def test_second_moment_m1(self):
        val = weyl_rhs_quadrature(lambda lam: (lam**2).mean(axis=1), 1, 0.5)
        assert abs(val - 1.0) <= 1e-6

    def test_second_moment_m2(self):
        # E[det(A)^2] = E[(ac - b^2)^2] = 4v^2 + 3v^2 over GOE(2, v), a product over eigenvalues
        val = weyl_rhs_quadrature(lambda lam: (lam**2).prod(axis=1), 2, 0.5)
        assert abs(val - 7.0 * 0.5**2) <= 1e-6

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
                lambda lam: (lam**2).prod(axis=1),
                lambda lam: np.abs(lam).prod(axis=1),
            ):
                quad = weyl_rhs_quadrature(f, m, 0.5)
                mc = weyl_expectation_mc(f, params, 60000, seed=seed)
                se = max(mc.std_error, 1e-12)
                assert abs((mc.estimate - quad) / se) <= 4.0

    def test_non_product_f_raises(self):
        # the mean of lambda^2 does not factor over the eigenvalues, so it has no one-body weight
        with pytest.raises(ValueError, match="^weyl_rhs_quadrature needs f\\(lambda\\) = prod_i"):
            weyl_rhs_quadrature(lambda lam: (lam**2).mean(axis=1), 2, 0.5)

    def test_unreachable_tolerance_reports_achieved(self):
        t0 = time.perf_counter()
        with pytest.raises(QuadratureError) as info:
            weyl_rhs_quadrature(lambda lam: (lam**2).prod(axis=1), 2, 0.5, tol=1e-30)
        assert 0.0 < info.value.achieved < 1e-6
        assert time.perf_counter() - t0 < 1.0

    def test_nan_integrand_raises(self):
        # a NaN one-body weight everywhere, and one that is NaN only past lambda = 0.5
        for f in (lambda lam: np.full(lam.shape[0], np.nan),
                  lambda lam: np.where(lam > 0.5, np.nan, 1.0).prod(axis=1)):
            for m in (1, 2):
                with pytest.raises(QuadratureError) as info:
                    weyl_rhs_quadrature(f, m, 0.5)
                assert math.isnan(info.value.achieved)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def dense_kernel_density(m, v, points, h, n_samples, seed):
    """Gaussian-kernel density estimate at the points with no cut-off, and its cluster standard errors."""

    def block(rng, size):
        lam = batched_eigvals(sample_goe_batch(m, v, size, rng))
        u = (points[None, None, :] - lam[:, :, None]) / h
        ker = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        return Moments.of(ker.mean(axis=1) / h)

    mom = map_chunks(block, n_samples, seed)
    return mom.mean, mom.std_error


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

    def test_truncated_kernel_matches_dense(self):
        # the grid kernel, cut off at 8h, against the dense evaluator at 20
        # grid points; both draw from stream 0, so they see the same matrices
        for m, v, seed in ((1, 0.5, 218), (3, 1.0, 219)):
            est = one_point_correlation(m, v, 40000, estimator="kernel", seed=seed)
            bulk = np.flatnonzero(est.values > 0.01)
            idx = bulk[np.linspace(0, bulk.size - 1, 20).astype(int)]
            vals, ses = dense_kernel_density(m, v, est.grid[idx], est.width, 40000, seed)
            assert np.max(np.abs(vals - est.values[idx])) <= 1e-12
            np.testing.assert_allclose(ses, est.stderr[idx], rtol=1e-10, atol=0.0)

    def test_cell_moments_against_loop(self, monkeypatch):
        # windows that start off the grid, straddle either end or miss it; in one slab, then in 6-row slabs
        rng = np.random.default_rng(221)
        size, m, k, ncells = 301, 3, 5, 20
        lam = np.sort(rng.uniform(-8.0, ncells + 3.0, size=(size, m)), axis=1)

        def place(rows):  # nondecreasing cells, with weights that vary by eigenvalue and cell
            return np.floor(rows).astype(int)[..., None] + np.arange(k), np.sin(rows[..., None] + np.arange(k)) ** 2

        cells, weights = place(lam)
        sums, escaped = np.zeros((size, ncells)), np.zeros(size)
        for i, j in np.ndindex(size, m):
            on = (cells[i, j] >= 0) & (cells[i, j] < ncells)
            np.add.at(sums[i], cells[i, j][on], weights[i, j][on])
            escaped[i] += not on.any()
        ref = np.column_stack([sums, (lam * lam).mean(axis=1), escaped])
        assert escaped.sum() > 0
        for slab_bytes in (spectral.SLAB_BYTES, 4096):
            monkeypatch.setattr(spectral, "SLAB_BYTES", slab_bytes)
            mom = _cell_moments(lam, place, ncells)
            assert mom.count == size
            np.testing.assert_allclose(mom.mean, ref.mean(axis=0), rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(mom.m2, ((ref - ref.mean(axis=0)) ** 2).sum(axis=0), rtol=1e-12, atol=1e-12)

    def test_cell_moments_do_not_cancel(self):
        # every matrix puts 1 + O(1e-7) on cells 0..4, so a cell's mean is about 5e6 of its sd
        rng = np.random.default_rng(222)
        size, ncells = 500, 5
        lam = np.sort(rng.random((size, 2)), axis=1)

        def place(rows):
            return np.array([[0, 1, 2], [2, 3, 4]]) + np.zeros((len(rows), 1, 1), dtype=int), \
                1.0 + 1e-7 * rows[..., None] * np.array([1.0, 2.0, 3.0])

        cells, weights = place(lam)
        sums = np.zeros((size, ncells))
        for i, j in np.ndindex(size, 2):
            sums[i, cells[i, j]] += weights[i, j]
        mom = _cell_moments(lam, place, ncells)
        np.testing.assert_allclose(mom.m2[:ncells], Moments.of(sums).m2, rtol=1e-10)

    def test_huge_bandwidth_has_finite_errors(self, capsys):
        # a bandwidth past the spectrum puts nearly equal weights on every cell
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = one_point_correlation(2, 1.0, 1000, estimator="kernel", bandwidth=1e10, seed=0)
            assert main(["correlation", "--m", "2", "--n", "1000", "--estimator", "kernel",
                         "--bandwidth", "1e10"]) == 0
        assert np.isfinite(est.stderr).all() and (est.stderr >= 0.0).all()
        stderr = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["stderr"]
        assert all(isinstance(se, float) and se >= 0.0 for se in stderr)

    def test_kernel_meta_equals_histogram(self):
        # both estimators reduce the same draws through one path
        kernel = one_point_correlation(2, 0.5, 40000, estimator="kernel", seed=220)
        histogram = one_point_correlation(2, 0.5, 40000, seed=220)
        assert kernel.meta == histogram.meta

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
        # midpoint rule on the bin centres
        grid_val = float(np.sum(est.grid**2 * est.values) * (est.grid[1] - est.grid[0]))
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
        # the CLI's table: one row per grid point, each number at full precision
        est = one_point_correlation(1, 0.5, 2000, seed=216)
        path = tmp_path / "rho.csv"
        assert main(["correlation", "--m", "1", "--v", "0.5", "--n", "2000", "--seed", "216",
                     "--format", "csv", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "x,rho,stderr"
        assert len(lines) == est.grid.size + 1
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.array_equal(rows, np.column_stack([est.grid, est.values, est.stderr]))


def legendre_on(lo, hi, count):
    nodes, wts = np.polynomial.legendre.leggauss(count)
    return 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo), 0.5 * (hi - lo) * wts


class TestGoeDensity:
    def test_normal_cdf_against_scipy(self):
        # I_0's erfc(-y / sqrt 2) / 2 against scipy's ndtr; rounding y / sqrt 2 alone moves either by about
        # y^2 eps relative (both are within 2.2e-13 of the exact value at |y| <= 37), hence the (1 + y^2)
        y = np.linspace(-37.0, 37.0, 20001)
        ref = ndtr(y)
        assert (np.abs(spectral._ndtr(y) - ref) <= 1e-15 * (1.0 + y * y) * ref).all()
        assert spectral._ndtr(0.0) == 0.5 and spectral._ndtr(-1e4) == 0.0 and spectral._ndtr(1e4) == 1.0

    def test_zero_far_from_the_spectrum(self):
        # y * y overflows there; the density is 0 with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert goe_density(2, 0.5, np.array([1e160, -1e300, 1.7e308])).tolist() == [0.0] * 3
            assert goe_density(5, 1e-300, 1e200) == 0.0
            assert goe_density(1500, 1.0, np.array([math.inf, -math.inf, 1e300, -1e300])).tolist() == [0.0] * 4

    def test_m1_is_standard_normal(self):
        x = np.linspace(-8.0, 8.0, 161)
        ref = np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(goe_density(1, 0.5, x) - ref)) <= 1e-15

    @pytest.mark.parametrize("v", [0.5, 1.0, 2.0])
    def test_m2_matches_closed_form(self, v):
        x = np.linspace(-12.0, 12.0, 241)
        assert np.max(np.abs(goe_density(2, v, x) - rho2_analytic(x, v))) <= 1e-15

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 10, 20, 50, 100, 200])
    def test_mass_and_second_moment(self, m):
        # E tr A^2 / m = (2v m + v m (m - 1)) / m; the density is entire, so a
        # fixed Gauss-Legendre rule past the spectrum's edge integrates it
        for v in (0.3, 1.0):
            t, w = legendre_on(-1.0, 1.0, max(256, 8 * m))
            t *= math.sqrt(2.0 * v) * (math.sqrt(2.0 * m) + 10.0)
            w *= math.sqrt(2.0 * v) * (math.sqrt(2.0 * m) + 10.0)
            rho = goe_density(m, v, t)
            assert abs(w @ rho - 1.0) <= 1e-12
            assert abs(w @ (t * t * rho) / (v * (m + 1)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("v,c", [(0.5, 1.3), (2.0, -0.4)])
    def test_pointwise_identity_against_weyl_quadrature(self, v, c):
        # E|det(A - c I)| over GOE(2, v) = exp(c^2/4v) (2v)^(3/2) ratio(2) rho_3(c)
        ratio = 2.0**1.5 * math.gamma(2.5)
        exact = math.exp(c * c / (4.0 * v)) * (2.0 * v) ** 1.5 * ratio * float(goe_density(3, v, c))
        quad = weyl_rhs_quadrature(lambda lam: np.abs(np.prod(lam - c, axis=1)), 2, v)
        assert quad == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("m", [2, 10, 50])
    def test_pointwise_identity_to_1e10(self, m):
        # the Pfaffian route at any m: E|det(A - c I)| over GOE(m, v) = exp(c^2/4v) (2v)^((m+1)/2) ratio(m) rho_{m+1}(c)
        for v, c in ((0.5, 1.3), (2.0, -0.4)):
            ratio = 2.0**1.5 * math.gamma((m + 3) / 2.0)
            exact = math.exp(c * c / (4.0 * v)) * (2.0 * v) ** ((m + 1) / 2.0) * ratio * float(goe_density(m + 1, v, c))
            quad = weyl_rhs_quadrature(lambda lam: np.abs(np.prod(lam - c, axis=1)), m, v)
            assert quad == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("m,v,seed", [(3, 1.0, 222), (6, 1.0, 223)])
    def test_histogram_matches_exact_bin_average(self, m, v, seed):
        # the rule of test_m2_matches_analytic_density, against the exact
        # average of the density over each bin
        est = one_point_correlation(m, v, 200000, seed=seed)
        t, w = legendre_on(-0.5 * est.width, 0.5 * est.width, 8)
        ref = goe_density(m, v, est.grid[:, None] + t) @ w / est.width
        mask = est.stderr > 0
        z = np.abs(est.values[mask] - ref[mask]) / est.stderr[mask]
        assert z[ref[mask] > 0.01].max() <= 4.0

    def test_shape_follows_x(self):
        # from m = 17 the recurrence rescales its rows in place, which a numpy scalar cannot take
        for m in (4, 17, 40):
            assert np.shape(goe_density(m, 1.0, 0.3)) == ()
            assert float(goe_density(m, 1.0, 0.3)) == float(goe_density(m, 1.0, np.array([0.3]))[0])
        assert goe_density(4, 1.0, np.zeros((2, 3))).shape == (2, 3)

    def test_hermite_functions_keep_the_plain_bits(self):
        # wherever psi_0 = pi^(-1/4) exp(-y^2/2) is a normal float, the rescaled recurrence is the plain one bit for bit
        y = np.linspace(-37.5, 37.5, 3001)
        plain, phi_prev, phi = [], 0.0, math.pi ** -0.25 * np.exp(-0.5 * y * y)
        for k in range(100):
            plain.append(phi)
            phi_prev, phi = phi, math.sqrt(2.0 / (k + 1)) * y * phi - math.sqrt(k / (k + 1)) * phi_prev
        assert np.array_equal(np.array(list(_hermite_functions(y, 100))), np.array(plain))

    def test_mass_one_at_m1500(self):
        # psi_0 underflows inside the spectrum from m near 710; the trapezoid rule is spectrally accurate here
        m, v = 1500, 0.5
        t = np.linspace(-math.sqrt(2.0 * m) - 10.0, math.sqrt(2.0 * m) + 10.0, 8001)
        rho = goe_density(m, v, t)
        assert abs(np.trapezoid(rho, t) - 1.0) <= 1e-10
        assert (rho >= -1e-12).all()
