import math
import tracemalloc

import numpy as np
import pytest

from mehtalab import spherefield
from mehtalab.estimation import substream
from mehtalab.spectral import (batched_count_below, batched_eigvals, default_degeneracy_tol, eigenvalues,
                               spectral_measure)
from mehtalab.spherefield import (
    DegenerateMatrixError,
    IncompleteSearchError,
    SpherePoint,
    discriminant_measure,
    find_critical_points,
    find_critical_points_batch,
    grad_phi,
    hess_phi,
    phi,
    tangent_basis,
)
from mehtalab.symspace import SymMatrix, sample_goe_batch


def random_sym(m, rng):
    a = rng.normal(size=(m, m))
    return SymMatrix.from_full(a + a.T)


def geodesic(x, q, s):
    """Exponential map: walk distance |s| from x along the tangent direction q s."""
    norm = np.linalg.norm(s)
    if norm == 0.0:
        return x
    u = (q @ s) / norm
    return math.cos(norm) * x + math.sin(norm) * u


def fd_hessian(a, x, step=1e-4):
    """Second central differences of the field along geodesic normal coordinates."""
    af = a.to_full()
    q = tangent_basis(x)
    m = q.shape[1]
    h = np.zeros((m, m))
    f0 = phi(af, x)
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = step
        fp = phi(af, geodesic(x, q, ei))
        fm = phi(af, geodesic(x, q, -ei))
        h[i, i] = (fp - 2.0 * f0 + fm) / step**2
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = step
            fpp = phi(af, geodesic(x, q, ei + ej))
            fpm = phi(af, geodesic(x, q, ei - ej))
            fmp = phi(af, geodesic(x, q, -ei + ej))
            fmm = phi(af, geodesic(x, q, -ei - ej))
            h[i, j] = h[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * step**2)
    return h


class TestSpherePoint:
    def test_normalizes(self):
        p = SpherePoint([3.0, 4.0])
        assert np.allclose(p.coords, [0.6, 0.8])
        assert abs(np.linalg.norm(p.coords) - 1.0) <= 1e-12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            SpherePoint([0.0, 0.0])


class TestFieldDerivatives:
    def test_hessian_at_north_pole_is_block_shift(self):
        rng = substream(401)
        a = random_sym(4, rng)
        n = SpherePoint([1.0, 0.0, 0.0, 0.0])
        h = hess_phi(a, n)
        full = a.to_full()
        want = full[1:, 1:] - full[0, 0] * np.eye(3)
        assert np.array_equal(h, 0.5 * (want + want.T))

    def test_gradient_vanishes_at_eigenvectors(self):
        a = random_sym(4, substream(402))
        w, vec = np.linalg.eigh(a.to_full())
        for k in range(4):
            g = grad_phi(a, vec[:, k])
            assert np.linalg.norm(g) <= 1e-12

    def test_gradient_tangency(self):
        rng = substream(403)
        for _ in range(1000):
            a = random_sym(3, rng)
            x = SpherePoint(rng.normal(size=3))
            g = grad_phi(a, x)
            assert abs(g @ x.coords) <= 1e-12

    def test_hessian_against_finite_differences(self):
        rng = substream(404)
        for _ in range(5):
            a = random_sym(4, rng)
            x = SpherePoint(rng.normal(size=4))
            h = hess_phi(a, x)
            h_fd = fd_hessian(a, x.coords)
            assert np.max(np.abs(h - h_fd)) < 1e-5

    def test_value_and_gradient_formulas(self):
        # A = diag(2, 0) at x = (1,1)/sqrt(2): Ax = (sqrt2, 0), (Ax, x) = 1,
        # so grad = Ax - x = (1, -1)/sqrt(2)
        a = SymMatrix.from_diagonal([2.0, 0.0])
        x = SpherePoint([1.0, 1.0])
        assert phi(a, x) == pytest.approx(0.5, abs=1e-14)
        g = grad_phi(a, x)
        assert np.allclose(g, [1.0 / math.sqrt(2), -1.0 / math.sqrt(2)], atol=1e-12)

    def test_tangent_basis_orthonormal(self):
        rng = substream(405)
        for _ in range(50):
            x = SpherePoint(rng.normal(size=5))
            q = tangent_basis(x)
            assert np.max(np.abs(q.T @ q - np.eye(4))) <= 1e-12
            assert np.max(np.abs(q.T @ x.coords)) <= 1e-12


class TestFinder:
    def test_diagonal_2x2(self):
        cps = find_critical_points(SymMatrix.from_diagonal([1.0, 2.0]), rng=406)
        assert len(cps) == 4
        vals = sorted(c.value for c in cps)
        assert np.allclose(vals, [1.0, 1.0, 2.0, 2.0], atol=1e-10)
        for c in cps:
            axis = np.argmax(np.abs(c.point))
            assert abs(abs(c.point[axis]) - 1.0) <= 1e-8

    def test_exchange_matrix(self):
        cps = find_critical_points(SymMatrix.from_full([[0.0, 1.0], [1.0, 0.0]]), rng=407)
        vals = sorted(c.value for c in cps)
        assert np.allclose(vals, [-1.0, -1.0, 1.0, 1.0], atol=1e-10)
        for c in cps:
            assert np.allclose(np.abs(c.point), [math.sqrt(0.5)] * 2, atol=1e-8)

    def test_goe_sample_matches_eigendecomposition(self):
        mats = sample_goe_batch(3, 1.0, 1, substream(408))
        a = SymMatrix.from_full(mats[0])
        cps = find_critical_points(a, rng=409)
        assert len(cps) == 6
        # oracle: LAPACK eigendecomposition, each eigenvalue twice
        ref = np.repeat(np.linalg.eigvalsh(a.to_full()), 2)
        assert np.max(np.abs(np.sort([c.value for c in cps]) - ref)) < 1e-8
        assert all(c.gradient_norm < 1e-10 for c in cps)

    def test_antipodal_pairs(self):
        a = random_sym(3, substream(410))
        cps = find_critical_points(a, rng=411)
        pts = np.array([c.point for c in cps])
        vals = np.array([c.value for c in cps])
        idx = np.array([c.morse_index for c in cps])
        for k in range(len(cps)):
            dots = pts @ pts[k]
            partner = int(np.argmin(dots))
            assert dots[partner] == pytest.approx(-1.0, abs=1e-9)
            assert vals[partner] == pytest.approx(vals[k], abs=1e-9)
            assert idx[partner] == idx[k]

    def test_degenerate_matrix_rejected(self):
        with pytest.raises(DegenerateMatrixError):
            find_critical_points(SymMatrix.from_diagonal([1.0, 1.0, 2.0]), rng=412)

    def test_incomplete_search_reports_count(self, monkeypatch):
        # the third solve is made to end with an infinite gradient norm: the four points before it are counted
        calls, polish = [], spherefield._newton_polish

        def stalls_third(mats, x, tol):
            calls.append(None)
            x, gn, theta = polish(mats, x, tol)
            return x, np.full_like(gn, np.inf) if len(calls) == 3 else gn, theta

        monkeypatch.setattr(spherefield, "_newton_polish", stalls_third)
        with pytest.raises(IncompleteSearchError) as info:
            find_critical_points(random_sym(3, substream(413)), rng=414)
        assert (info.value.found, info.value.expected, info.value.sample_index) == (4, 6, 0)

    def test_nan_points_never_certified(self):
        with pytest.raises(IncompleteSearchError) as info:
            find_critical_points_batch(np.array([[1.0, 0.0], [0.0, np.nan]]), rng=414)
        assert info.value.found == 0

    def test_singular_newton_solve_is_nudged_and_retried(self, monkeypatch):
        # at (1, 0, 1)/sqrt(2) on diag(-1, 0, 1) the value is 0 and the tangent Hessian is 0 up to rounding; the
        # first solve is made to raise, the retry solves the same system with its diagonal nudged, and the
        # iterate converges to the pair of e1
        calls, solve = [], np.linalg.solve

        def spy(a, b):
            calls.append(a.copy())
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        x0 = np.array([[1.0, 0.0, 1.0]]) / math.sqrt(2.0)
        x, gn, theta = spherefield._newton_polish(np.diag([-1.0, 0.0, 1.0])[None], x0, np.array([1e-10]))
        assert len(calls) >= 2 and np.array_equal(calls[1], calls[0] + 1e-12 * np.eye(2))
        assert gn[0] <= 1e-10 and abs(theta[0] + 1.0) <= 1e-12
        assert np.allclose(np.abs(x[0]), [1.0, 0.0, 0.0], rtol=0.0, atol=1e-12)

    def test_orthogonal_equivariance(self):
        rng = substream(415)
        a = random_sym(3, rng)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        b = SymMatrix.from_full(q.T @ a.to_full() @ q)
        va = sorted(c.value for c in find_critical_points(a, rng=416))
        vb = sorted(c.value for c in find_critical_points(b, rng=417))
        assert np.max(np.abs(np.array(va) - np.array(vb))) <= 1e-9

    def test_batch_shape_and_values(self):
        mats = sample_goe_batch(3, 1.0, 50, substream(418))
        batch = find_critical_points_batch(mats, rng=419)
        assert batch.values.shape == (50, 6)
        lam = batched_eigvals(mats)
        assert np.max(np.abs(batch.values - np.repeat(lam, 2, axis=1))) < 1e-8
        # deflation invariant: one orthonormal frame per matrix, antipodes interleaved
        frame = batch.points[:, 0::2]
        gram = np.einsum("nki,nli->nkl", frame, frame)
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-9
        assert np.array_equal(batch.points[:, 1::2], -frame)

    def test_morse_indices_are_hess_phi_counts(self):
        # the finder's Morse index at each point is the negative-eigenvalue
        # count of the single-point Hessian there
        for d, seed in ((3, 436), (4, 437)):
            mats = sample_goe_batch(d, 1.0, 5, substream(seed))
            batch = find_critical_points_batch(mats, rng=seed)
            for k in range(5):
                for i in range(2 * d):
                    hess = hess_phi(mats[k], batch.points[k, i])
                    assert batch.morse_indices[k, i] == int((np.linalg.eigvalsh(hess) < 0.0).sum())

    def test_memory_is_one_point_per_matrix(self):
        # the Morse step holds the tangent bases of one critical point per matrix
        # at a time, not all d of them; the index of the k-th pair is k, the
        # number of eigenvalues below its value
        mats = sample_goe_batch(6, 1.0, 5000, substream(438))
        tracemalloc.start()
        try:
            batch = find_critical_points_batch(mats, rng=438)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert np.array_equal(batch.morse_indices, np.broadcast_to(np.repeat(np.arange(6), 2), (5000, 12)))

    def test_input_validation(self):
        with pytest.raises(ValueError, match="need at least a 2 x 2 matrix"):
            find_critical_points(SymMatrix.from_diagonal([1.0]))

    def test_nan_tolerance_rejected(self):
        # a NaN matrix has a NaN gradient tolerance: no point of it is certified, and it is the one named
        mats = sample_goe_batch(2, 1.0, 4, substream(420))
        mats[2, 0, 0] = math.nan
        with pytest.raises(IncompleteSearchError) as info:
            find_critical_points_batch(mats, rng=420)
        assert (info.value.found, info.value.sample_index) == (0, 2)

    def test_near_coincident_values_stay_separate(self):
        # gap above the degeneracy tolerance but inside the value-cluster
        # width: the alignment split must still yield all six points
        rng = substream(433)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        w = np.array([1.0, 1.0 + 3e-7, 2.0])
        a = SymMatrix.from_full(q @ np.diag(w) @ q.T)
        cps = find_critical_points(a, rng=434)
        assert len(cps) == 6
        vals = np.sort([c.value for c in cps])
        assert np.max(np.abs(vals - np.repeat(w, 2))) < 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_badly_scaled_matrix_with_default_tolerance(self):
        a = SymMatrix.from_diagonal([1e8, 2e8, -3e8])
        cps = find_critical_points(a, rng=435)
        assert sorted(round(c.value) for c in cps) == [-300000000] * 2 + [100000000] * 2 + [200000000] * 2
        # entries whose squares overflow a float
        cps = find_critical_points(SymMatrix.from_diagonal([1e200, -1e200]), rng=436)
        assert sorted(c.value for c in cps) == [-1e200] * 2 + [1e200] * 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-9, 1e4, 1e6, 1e9])
    def test_scaled_matrix_scales_its_values(self, scale):
        # the tolerances are relative: an absolute 1e-10 found 0 of 6 points at 1e6 and 2 of 6 at 1e9, and an
        # absolute floor of 1e-8 on the degeneracy tolerance refused the matrix at 1e-9
        full = np.array([[1.0, 0.3, 0.0], [0.3, 2.0, 0.1], [0.0, 0.1, 4.0]])
        base = find_critical_points(SymMatrix.from_full(full), rng=440)
        cps = find_critical_points(SymMatrix.from_full(scale * full), rng=440)
        assert len(cps) == 6
        np.testing.assert_allclose([c.value for c in cps], [scale * c.value for c in base], rtol=1e-14, atol=0.0)
        assert [c.morse_index for c in cps] == [c.morse_index for c in base] == [0, 0, 1, 1, 2, 2]


# scaling by 2^k is exact in floating point, so at each k every matrix route reads the k = 0 result times 2^k
POWERS = (-1000, -500, -40, 0, 40, 500, 1000)
# eigvalsh is exact only where LAPACK does not rescale: dsyevd rescales a matrix whose largest |entry| is outside
# [2^-485, 2^485], and dsterf a tridiagonal form near the ends of the float range, by factors that are not powers of
# two; on the draws below it is exact for k in [-402, 483], so eig is checked at the ends of [-400, 480] too
LAPACK_POWERS = (-400, -40, 0, 40, 480)


def _power_of_two_stack(d):
    """Three GOE(d, 1) draws and J - I, which is simple at d = 2 and has the eigenvalue -1 d - 1 times past it."""
    return np.concatenate([sample_goe_batch(d, 1.0, 3, substream(450 + d)), (np.ones((d, d)) - np.eye(d))[None]])


class TestPowerOfTwoScaling:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d", range(2, 7))
    def test_finder_points_values_and_indices(self, d):
        simple = _power_of_two_stack(d)[:4 if d == 2 else 3]
        base = [find_critical_points(SymMatrix.from_full(a), rng=451) for a in simple]
        for k in POWERS:
            for a, cps0 in zip(simple, base):
                cps = find_critical_points(SymMatrix.from_full(np.ldexp(a, k)), rng=451)
                assert np.array_equal([c.point for c in cps], [c.point for c in cps0])
                assert [c.value for c in cps] == [math.ldexp(c.value, k) for c in cps0]
                assert [c.morse_index for c in cps] == [c.morse_index for c in cps0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d", range(3, 7))
    def test_finder_refuses_ones_minus_identity(self, d):
        a = _power_of_two_stack(d)[3]
        with pytest.raises(DegenerateMatrixError) as base:
            find_critical_points(SymMatrix.from_full(a), rng=451)
        for k in POWERS:
            with pytest.raises(DegenerateMatrixError) as info:
                find_critical_points(SymMatrix.from_full(np.ldexp(a, k)), rng=451)
            assert (info.value.gap, info.value.tol) == (math.ldexp(base.value.gap, k), math.ldexp(base.value.tol, k))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d", range(2, 7))
    def test_counts_below_scaled_shifts(self, d):
        mats, shifts = _power_of_two_stack(d), np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, d - 1.0])
        base = batched_count_below(mats, shifts)
        for k in POWERS:
            assert np.array_equal(batched_count_below(np.ldexp(mats, k), np.ldexp(shifts, k)), base)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d", range(2, 7))
    def test_eigenvalues_and_spectral_measure(self, d):
        for a in map(SymMatrix.from_full, _power_of_two_stack(d)):
            lam, pm = eigenvalues(a), spectral_measure(a)
            for k in LAPACK_POWERS:
                scaled = SymMatrix.from_full(np.ldexp(a.to_full(), k))
                assert np.array_equal(eigenvalues(scaled), np.ldexp(lam, k))
                pmk = spectral_measure(scaled)
                assert np.array_equal(pmk.locations, np.ldexp(pm.locations, k))
                assert np.array_equal(pmk.weights, pm.weights)


class TestDiscriminantMeasure:
    def test_total_mass(self):
        a = random_sym(3, substream(421))
        for method, rng in (("analytic", None), ("search", 422)):
            pm = discriminant_measure(a, method=method, rng=rng)
            assert math.fsum(pm.weights.tolist()) == 6.0

    def test_diagonal_atoms(self):
        pm = discriminant_measure(SymMatrix.from_diagonal([1.0, 2.0]))
        assert np.allclose(pm.locations, [1.0, 2.0])
        assert np.allclose(pm.weights, [2.0, 2.0])

    def test_methods_agree_on_goe_samples(self):
        mats = sample_goe_batch(3, 1.0, 1000, substream(423))
        for k in range(1000):
            a = SymMatrix.from_full(mats[k])
            ana = discriminant_measure(a, method="analytic")
            src = discriminant_measure(a, method="search", rng=1000 + k)
            assert ana.locations.size == src.locations.size
            assert np.max(np.abs(ana.locations - src.locations)) < 1e-8
            assert np.array_equal(ana.weights, src.weights)

    def test_doubles_spectral_measure(self):
        a = random_sym(4, substream(424))
        sm = spectral_measure(a)
        dm = discriminant_measure(a, method="analytic")
        assert np.array_equal(dm.locations, sm.locations)
        assert np.array_equal(dm.weights, 2.0 * sm.weights)

    @pytest.mark.filterwarnings("error")
    def test_entries_whose_squares_overflow(self):
        a = SymMatrix.from_diagonal([1e200, -1e200])
        for method in ("analytic", "search"):
            pm = discriminant_measure(a, method=method, rng=436)
            assert np.array_equal(pm.locations, [-1e200, 1e200])
            assert np.array_equal(pm.weights, [2.0, 2.0])

    def test_methods_agree_at_zero_tolerance(self):
        # an antipodal pair shares one value exactly, so tol 0 still merges it
        a = SymMatrix.from_diagonal([1.0, 2.0, 3.0])
        for method in ("analytic", "search"):
            pm = discriminant_measure(a, method=method, degeneracy_tol=0.0, rng=437)
            assert np.array_equal(pm.locations, [1.0, 2.0, 3.0])
            assert np.array_equal(pm.weights, [2.0, 2.0, 2.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    @pytest.mark.parametrize("d", [3, 4])
    def test_finder_refuses_what_the_measure_merges(self, d, scale):
        # one gap at 0.5 tau or 2 tau in a rotated spectrum: the finder raises
        # exactly when the spectral measure has fewer than d atoms
        rng = substream(438 + d)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        w = scale * np.arange(0.0, d)
        w[0] = w[1]
        tau = float(default_degeneracy_tol(SymMatrix.from_diagonal(w)))
        for factor in (0.5, 2.0):
            w[0] = w[1] - factor * tau
            a = SymMatrix.from_full((q * w) @ q.T)
            merged = spectral_measure(a).locations.size < d
            assert merged == (factor < 1.0)
            if merged:
                with pytest.raises(DegenerateMatrixError):
                    find_critical_points(a, rng=439)
            else:
                assert len(find_critical_points(a, rng=439)) == 2 * d

    def test_nan_tolerance_rejected(self):
        a = SymMatrix.from_diagonal([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            discriminant_measure(a, "search", degeneracy_tol=math.nan, rng=425)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            discriminant_measure(random_sym(2, substream(425)), method="magic")


class TestMorseIndices:
    def test_diag_2(self):
        cps = find_critical_points(SymMatrix.from_diagonal([1.0, 2.0]), rng=426)
        assert sorted(c.morse_index for c in cps) == [0, 0, 1, 1]

    def test_diag_3(self):
        cps = find_critical_points(SymMatrix.from_diagonal([1.0, 2.0, 3.0]), rng=427)
        assert sorted(c.morse_index for c in cps) == [0, 0, 1, 1, 2, 2]

    def test_goe4_against_tangent_eigenvalue_oracle(self):
        mats = sample_goe_batch(4, 1.0, 1, substream(428))
        a = SymMatrix.from_full(mats[0])
        cps = find_critical_points(a, rng=429)
        assert sorted(c.morse_index for c in cps) == [0, 0, 1, 1, 2, 2, 3, 3]
        # oracle: at the eigenvector of the k-th eigenvalue the tangent Hessian
        # spectrum is the other eigenvalues minus it
        lam = eigenvalues(a)
        for c in cps:
            k = int(np.argmin(np.abs(lam - c.value)))
            shifted = np.delete(lam, k) - lam[k]
            assert c.morse_index == int((shifted < 0).sum())


class TestMorseWitness:
    def test_no_tiny_gaps_in_100k_samples(self):
        # statistical witness that the field is almost surely Morse
        for d, seed in ((2, 430), (3, 431), (4, 432)):
            lam = batched_eigvals(sample_goe_batch(d, 1.0, 100000, substream(seed)))
            gaps = np.diff(lam, axis=1).min(axis=1)
            assert int((gaps < 1e-12).sum()) == 0
