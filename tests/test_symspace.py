import ast
import io
import math
import pathlib

import numpy as np
import pytest
from scipy import integrate

from mehtalab import estimation, mehta, regression, spectral, symspace
from mehtalab.estimation import philox, substream
from mehtalab.symspace import (
    EnsembleParams,
    SymMatrix,
    covariance_audit,
    covariance_reference,
    ell_coords,
    goe_log_density,
    inner_product,
    map_goe_slabs,
    omega_coords,
    omega_coords_batch,
    read_matrices,
    read_matrix,
    sample_goe_batch,
    sample_goe_tridiagonal,
    sample_suv,
    sample_suv_batch,
    write_matrix,
)

LOG_2PI = math.log(2.0 * math.pi)


def random_sym(m, rng):
    a = rng.normal(size=(m, m))
    return SymMatrix.from_full(a + a.T)


def mean_var_z(x, ref_mean, ref_var):
    """Two z-scores: sample mean against ref_mean, sample variance against ref_var."""
    n = x.size
    zm = (x.mean() - ref_mean) / (x.std(ddof=1) / math.sqrt(n))
    v = x.var(ddof=1)
    se_v = math.sqrt(max(((x - x.mean()) ** 4).mean() - v * v, 1e-300) / n)
    return zm, (v - ref_var) / se_v


class TestCoordinates:
    def test_identity_fixed_by_both_maps(self):
        a = SymMatrix.from_diagonal([1.0, 1.0])
        assert np.allclose(ell_coords(a), [1.0, 0.0, 1.0])
        assert np.allclose(omega_coords(a), [1.0, 0.0, 1.0])

    def test_exchange_matrix_isometry(self):
        a = SymMatrix.from_full([[0.0, 1.0], [1.0, 0.0]])
        w = omega_coords(a)
        assert w[1] == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert np.sum(w * w) == pytest.approx(a.frobenius_sq(), abs=1e-15)
        assert a.frobenius_sq() == 2.0

    def test_omega_is_exact_isometry(self):
        # oracle: tr(A^2) expanded entrywise, summed in the matrix-product order
        rng = substream(101)
        for _ in range(1000):
            a = random_sym(3, rng)
            full = a.to_full()
            tr_sq = float(np.trace(full @ full))
            w = omega_coords(a)
            assert abs(np.sum(w * w) - tr_sq) <= 1e-12

    def test_inner_product_matches_trace(self):
        rng = substream(102)
        for _ in range(200):
            a = random_sym(4, rng)
            b = random_sym(4, rng)
            assert abs(inner_product(a, b) - np.trace(a.to_full() @ b.to_full())) <= 1e-12

    def test_coordinate_lengths(self):
        a = random_sym(5, substream(103))
        assert ell_coords(a).shape == (15,)
        assert omega_coords(a).shape == (15,)
        assert len(np.triu_indices(5)[0]) == 15

    def test_structural_symmetry_and_immutability(self):
        a = random_sym(4, substream(104))
        for i in range(4):
            for j in range(4):
                assert a[i, j] == a[j, i]
        with pytest.raises(ValueError):
            a.packed[0] = 1.0


class TestEnsembleParams:
    def test_rejects_nonpositive_v(self):
        with pytest.raises(ValueError):
            EnsembleParams(3, 0.0, 0.0)
        with pytest.raises(ValueError):
            EnsembleParams(3, 0.0, -1.0)

    def test_rejects_inadmissible_u(self):
        with pytest.raises(ValueError):
            EnsembleParams(4, -0.5, 1.0)  # 4*(-0.5) + 2 = 0

    def test_accepts_admissibility_boundary_inside(self):
        EnsembleParams(4, -0.499, 1.0)
        EnsembleParams(2, -0.5, 1.0)

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_rejects_nonfinite_m(self, m):
        with pytest.raises(ValueError, match="^m must be a positive integer$"):
            EnsembleParams(m)


class _NoDraw:
    """A generator that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator ({name})")


def _ones(lam):
    return np.ones(lam.shape[0])


# every public function that takes m or v, called at (m, v)
ENTRY_POINTS = {
    "sample_goe_batch": lambda m, v: symspace.sample_goe_batch(m, v, 10, _NoDraw()),
    "sample_goe_tridiagonal": lambda m, v: symspace.sample_goe_tridiagonal(m, v, 10, _NoDraw()),
    "goe_log_density": lambda m, v: symspace.goe_log_density(SymMatrix.from_diagonal([0.0] * m), v),
    "weyl_rhs_quadrature": lambda m, v: spectral.weyl_rhs_quadrature(_ones, m, v),
    "one_point_correlation": lambda m, v: spectral.one_point_correlation(m, v, 2000),
    "goe_density": lambda m, v: spectral.goe_density(m, v, 0.0),
    "exp_abs_det_mc": lambda m, v: mehta.exp_abs_det_mc(m, v, 0.5, 2000),
    "detmoment_identity_check": lambda m, v: mehta.detmoment_identity_check(m, v, 2000),
    "exp_det_pointwise_check": lambda m, v: mehta.exp_det_pointwise_check(m, v, 0.5, 2000),
    "kacrice_density": lambda m, v: mehta.kacrice_density(m, 0.5, v, 2000),
    "kacrice_intervals": lambda m, v: mehta.kacrice_intervals(m, v, [(-1.0, 1.0)], 2000),
    "kacrice_vs_empirical": lambda m, v: mehta.kacrice_vs_empirical(m, v, -1.0, 1.0, 2000),
    "hessian_regression_pair": lambda m, v: regression.hessian_regression_pair(m, v),
    "hessian_pair_samples": lambda m, v: regression.hessian_pair_samples(m, v, 10, _NoDraw()),
    "conditional_hessian_moments": lambda m, v: regression.conditional_hessian_moments(m, v, 2000),
    "log_mehta_closed_form": lambda m, v: mehta.log_mehta_closed_form(m),
    "mehta_closed_form": lambda m, v: mehta.mehta_closed_form(m),
    "mehta_ratio": lambda m, v: mehta.mehta_ratio(m),
    "mehta_quadrature": lambda m, v: mehta.mehta_quadrature(m),
    "mehta_mc": lambda m, v: mehta.mehta_mc(m, 2000),
    "reproduce_zm": lambda m, v: mehta.reproduce_zm(m, 2000),
}
M_ONLY = ("log_mehta_closed_form", "mehta_closed_form", "mehta_ratio", "mehta_quadrature", "mehta_mc",
          "reproduce_zm")


def _bad_ms(name):
    if name == "goe_log_density":
        return ()  # its m is the matrix's size
    return (0, -1, 2.5)


RULE_CASES = ([(name, m, 1.0) for name in ENTRY_POINTS for m in _bad_ms(name)]
              + [(name, 2, v) for name in ENTRY_POINTS if name not in M_ONLY
                 for v in (0.0, -1.0, math.nan, math.inf)])


@pytest.mark.parametrize("name, m, v", RULE_CASES)
def test_every_entry_point_raises_the_rule(monkeypatch, name, m, v):
    # EnsembleParams' own message, before any chunk runs and before any sampler is called
    def spy(*args, **kwargs):
        raise AssertionError(f"{name} reached a chunk map or a sampler")

    for module in (estimation, mehta, spectral, symspace):
        monkeypatch.setattr(module, "map_chunks", spy)
    for module, sampler in ((mehta, "sample_goe_batch"), (mehta, "map_goe_slabs"), (spectral, "map_goe_slabs"),
                            (regression, "sample_goe_batch")):
        monkeypatch.setattr(module, sampler, spy)
    monkeypatch.setattr(mehta, "sample_goe_tridiagonal", spy)
    with pytest.raises(ValueError) as want:
        EnsembleParams(m, 0.0, v)
    with pytest.raises(ValueError) as got:
        ENTRY_POINTS[name](m, v)
    assert str(got.value) == str(want.value)


class TestGoeSampler:
    def test_entry_moments(self):
        # E[a_ii^2] = 2v, E[a_ij^2] = v, E[a_ii a_jj] = 0 at u = 0
        mats = sample_goe_batch(4, 0.5, 200000, substream(105))
        _, zv = mean_var_z(mats[:, 0, 0], 0.0, 1.0)
        assert abs(zv) <= 4.0
        _, zv = mean_var_z(mats[:, 0, 1], 0.0, 0.5)
        assert abs(zv) <= 4.0
        prod = mats[:, 0, 0] * mats[:, 1, 1]
        z = prod.mean() / (prod.std(ddof=1) / math.sqrt(prod.size))
        assert abs(z) <= 4.0

    def test_rejects_bad_v(self):
        with pytest.raises(ValueError):
            sample_goe_batch(3, -1.0, 10, substream(0))
        with pytest.raises(ValueError):
            sample_goe_tridiagonal(3, 0.0, 10, substream(0))

    def test_single_sample_is_symmetric(self):
        a = sample_suv(EnsembleParams(3, 0.0, 1.0), substream(106))
        assert a[0, 1] == a[1, 0]

    def test_stream_reproducibility(self):
        a = sample_goe_batch(3, 1.0, 5, philox(107, 0, 2))
        b = sample_goe_batch(3, 1.0, 5, philox(107, 0, 2))
        assert np.array_equal(a, b)
        c = sample_goe_batch(3, 1.0, 5, philox(107, 0, 3))
        assert not np.array_equal(a, c)


class TestGoeSlabs:
    @pytest.mark.parametrize("slab", [7, None])
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 17])
    def test_slabs_are_the_whole_block(self, m, slab):
        # eigenvalues and determinants slab by slab, the last slab short, are the whole block's
        # bits, and the generator ends where the whole-block call leaves it (its next draw is
        # the same); at m = 17 the default slab is 453 draws
        n = 1000
        for fn in (spectral.batched_eigvals, spectral.batched_det, lambda a: a):
            rng, whole_rng = substream(115), substream(115)
            got = map_goe_slabs(fn, m, 0.5, n, rng, slab)
            assert np.array_equal(got, fn(sample_goe_batch(m, 0.5, n, whole_rng)))
            assert repr(rng.bit_generator.state) == repr(whole_rng.bit_generator.state)
            assert rng.normal() == whole_rng.normal()

    def test_rows_keep_the_layout_of_fn(self):
        # column-contiguous rows (one column per level) stay column-contiguous, so
        # their moments are the whole block's bits
        def levels(a):
            return np.array([spectral.batched_det(a - t * np.eye(a.shape[-1])) for t in (-1.0, 0.5)]).T

        got = map_goe_slabs(levels, 5, 1.0, 1000, substream(116), slab=300)
        want = levels(sample_goe_batch(5, 1.0, 1000, substream(116)))
        assert got.flags.f_contiguous and np.array_equal(got, want)
        mom, ref = estimation.Moments.of(got), estimation.Moments.of(want)
        assert np.array_equal(mom.mean, ref.mean) and np.array_equal(mom.m2, ref.m2)

    def test_no_dense_block_goes_straight_to_the_eigensolver(self):
        # batched_eigvals(sample_goe_batch(...)) holds the block's (n, m, m) matrices at once;
        # routes that keep only eigenvalues or determinants map them over slabs instead
        src = pathlib.Path(symspace.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and _called_name(node) in ("batched_eigvals", "batched_det"):
                    found += [f"{path.name}:{node.lineno}" for arg in node.args
                              if isinstance(arg, ast.Call) and _called_name(arg) == "sample_goe_batch"]
        assert found == []


def _called_name(call):
    """The called function's name, for f(...) and module.f(...)."""
    return getattr(call.func, "id", getattr(call.func, "attr", None))


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


class TestTridiagonalSampler:
    def test_shapes_and_m1_draws(self):
        for m in (1, 2, 5):
            diag, off_sq = sample_goe_tridiagonal(m, 0.5, 7, substream(108))
            assert diag.shape == (m, 7) and off_sq.shape == (m - 1, 7)
            assert diag.flags.c_contiguous and off_sq.flags.c_contiguous
            assert np.all(off_sq >= 0.0)
        # the diagonal block comes first, so m = 1 draws what the dense sampler draws
        diag, _ = sample_goe_tridiagonal(1, 0.5, 1000, substream(109))
        assert np.array_equal(diag, sample_goe_batch(1, 0.5, 1000, substream(109))[:, 0, :].T)

    def test_off_diagonal_means(self):
        # E[b_k^2] = v (m - k)
        m, v, n = 4, 0.5, 100000
        _, off_sq = sample_goe_tridiagonal(m, v, n, substream(110))
        se = off_sq.std(axis=1, ddof=1) / math.sqrt(n)
        z = (off_sq.mean(axis=1) - v * np.arange(m - 1, 0, -1)) / se
        assert np.max(np.abs(z)) <= 4.0

    def test_spectrum_matches_dense_goe(self):
        # spectral statistics of the assembled matrices against dense GOE
        # draws from an independent stream
        m, v, n = 4, 0.5, 100000
        lam_t = np.linalg.eigvalsh(assemble_tridiagonal(*sample_goe_tridiagonal(m, v, n, substream(111))))
        lam_d = np.linalg.eigvalsh(sample_goe_batch(m, v, n, philox(111, 0, 1)))
        for stat in (lambda lam: (lam**4).sum(axis=1), lambda lam: lam[:, -1]):
            x, y = stat(lam_t), stat(lam_d)
            se = math.hypot(x.std(ddof=1), y.std(ddof=1)) / math.sqrt(n)
            assert abs(x.mean() - y.mean()) <= 4.0 * se


class TestSuvSampler:
    def test_diagonal_covariance_u_positive(self):
        params = EnsembleParams(3, 2.0, 1.0)
        mats = sample_suv_batch(params, 200000, substream(108))
        prod = mats[:, 0, 0] * mats[:, 1, 1]
        z = (prod.mean() - 2.0) / (prod.std(ddof=1) / math.sqrt(prod.size))
        assert abs(z) <= 4.0

    def test_u_zero_matches_goe_two_sample(self):
        n = 100000
        a = sample_suv_batch(EnsembleParams(3, 0.0, 1.0), n, substream(109))[:, 0, 0]
        b = sample_goe_batch(3, 1.0, n, substream(110))[:, 0, 0]
        zm = (a.mean() - b.mean()) / math.hypot(a.std(ddof=1) / math.sqrt(n), b.std(ddof=1) / math.sqrt(n))
        va, vb = a.var(ddof=1), b.var(ddof=1)
        se = math.hypot(
            math.sqrt((((a - a.mean()) ** 4).mean() - va**2) / n),
            math.sqrt((((b - b.mean()) ** 4).mean() - vb**2) / n),
        )
        assert abs(zm) <= 4.0
        assert abs(va - vb) / se <= 4.0

    def test_negative_u_variance(self):
        # Var[a_11] = u + 2v from the explicit spectral-split construction
        params = EnsembleParams(2, -0.5, 1.0)
        mats = sample_suv_batch(params, 200000, substream(111))
        _, zv = mean_var_z(mats[:, 0, 0], 0.0, 1.5)
        assert abs(zv) <= 4.0
        # off-diagonal unchanged
        _, zv = mean_var_z(mats[:, 0, 1], 0.0, 1.0)
        assert abs(zv) <= 4.0

    def test_negative_u_diagonal_cross_covariance(self):
        params = EnsembleParams(3, -0.3, 1.0)
        mats = sample_suv_batch(params, 200000, substream(112))
        prod = mats[:, 0, 0] * mats[:, 2, 2]
        z = (prod.mean() - (-0.3)) / (prod.std(ddof=1) / math.sqrt(prod.size))
        assert abs(z) <= 4.0


    def test_u_zero_is_the_goe_draw(self):
        # one construction for every u: at u = 0 it is the GOE draw bit for
        # bit, and its off-diagonal block is the GOE draw's for every u
        goe = sample_goe_batch(4, 0.7, 1000, substream(113))
        assert np.array_equal(sample_suv_batch(EnsembleParams(4, 0.0, 0.7), 1000, substream(113)), goe)
        iu, ju = np.triu_indices(4, 1)
        for u in (-0.3, 1.0):
            mats = sample_suv_batch(EnsembleParams(4, u, 0.7), 1000, substream(113))
            assert np.array_equal(mats[:, iu, ju], goe[:, iu, ju])
            assert np.array_equal(mats[:, ju, iu], goe[:, ju, iu])


class TestOrthogonalInvariance:
    def test_conjugated_coordinates_match(self):
        rng = substream(113)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        mats = sample_goe_batch(3, 1.0, 100000, substream(114))
        rotated = np.einsum("ji,njk,kl->nil", q, mats, q)
        w0 = omega_coords_batch(mats)
        w1 = omega_coords_batch(rotated)
        n = w0.shape[0]
        for k in range(w0.shape[1]):
            zm = (w0[:, k].mean() - w1[:, k].mean()) / math.hypot(
                w0[:, k].std(ddof=1) / math.sqrt(n), w1[:, k].std(ddof=1) / math.sqrt(n)
            )
            v0, v1 = w0[:, k].var(ddof=1), w1[:, k].var(ddof=1)
            se = math.hypot(
                math.sqrt((((w0[:, k] - w0[:, k].mean()) ** 4).mean() - v0**2) / n),
                math.sqrt((((w1[:, k] - w1[:, k].mean()) ** 4).mean() - v1**2) / n),
            )
            assert abs(zm) <= 4.0
            assert abs(v0 - v1) / se <= 4.0


class TestCovarianceAudit:
    def test_goe_audit_passes(self):
        # 10^6 draws: at 10^5 this seed's largest of 55 z-scores read 4.04, a
        # false alarm (that entry reads z = 1.02 here); the band stays 4 SE
        audit = covariance_audit(EnsembleParams(4, 0.0, 0.5), 1_000_000, seed=115)
        assert audit.passed, f"max |z| = {audit.max_abs_z:.2f}"
        assert audit.z.shape == (55,)

    def test_suv_audit_passes(self):
        audit = covariance_audit(EnsembleParams(3, 1.0, 1.0), 100000, seed=116)
        assert audit.passed, f"max |z| = {audit.max_abs_z:.2f}"

    def test_reference_matrix_entries(self):
        ref = covariance_reference(EnsembleParams(2, 0.7, 0.3))
        pairs = list(zip(*np.triu_indices(2)))
        d0 = pairs.index((0, 0))
        d1 = pairs.index((1, 1))
        off = pairs.index((0, 1))
        assert ref[d0, d0] == pytest.approx(0.7 + 0.6)
        assert ref[d0, d1] == pytest.approx(0.7)
        assert ref[off, off] == pytest.approx(0.3)
        assert ref[d0, off] == 0.0

    def test_workers_are_deterministic(self):
        # identical bits for any worker count, not just for a repeated one
        a1 = covariance_audit(EnsembleParams(3, 0.0, 1.0), 40000, seed=117, workers=4)
        for workers in (1, 2, 4):
            a2 = covariance_audit(EnsembleParams(3, 0.0, 1.0), 40000, seed=117, workers=workers)
            assert np.array_equal(a1.z, a2.z)
            assert np.array_equal(a1.second_moments, a2.second_moments)


class TestGoeLogDensity:
    def test_peak_value_m1(self):
        a = SymMatrix.from_diagonal([0.0])
        assert goe_log_density(a, 0.5) == pytest.approx(-0.5 * LOG_2PI, abs=1e-14)

    def test_identity_m2(self):
        # direct substitution: -(3/2) log(2 pi v * 2) ... = -(3/2) log(2 pi) - 1 at v = 1/2
        a = SymMatrix.from_diagonal([1.0, 1.0])
        assert goe_log_density(a, 0.5) == pytest.approx(-1.5 * LOG_2PI - 1.0, abs=1e-12)

    def test_normalization_by_quadrature_m1(self):
        val, err = integrate.quad(
            lambda x: math.exp(goe_log_density(SymMatrix(1, [x]), 0.5)), -12, 12
        )
        assert abs(val - 1.0) < 1e-8

    def test_rejects_bad_v(self):
        with pytest.raises(ValueError):
            goe_log_density(SymMatrix.from_diagonal([0.0, 0.0]), 0.0)


class TestMatrixFiles:
    def test_roundtrip(self):
        a = random_sym(3, substream(118))
        buf = io.StringIO()
        write_matrix(a, buf)
        b = read_matrix(io.StringIO(buf.getvalue()))
        assert np.allclose(a.packed, b.packed, atol=1e-15)

    def test_rejects_asymmetric(self):
        text = "2\n1.0 2.0\n2.1 1.0\n"
        with pytest.raises(ValueError, match="not symmetric"):
            read_matrix(io.StringIO(text))

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    @pytest.mark.parametrize("symmetry_tol", [None, 1e-9])
    def test_from_full_rejects_nonfinite(self, entry, symmetry_tol):
        # a NaN gap never exceeds the tolerance, and an inf gap warns before it does
        with pytest.raises(ValueError, match="^matrix has a non-finite entry$"):
            SymMatrix.from_full(np.array([[1.0, entry], [entry, 2.0]]), symmetry_tol=symmetry_tol)

    @pytest.mark.filterwarnings("error")
    def test_from_full_averages_without_overflow(self):
        # where a + a^T overflows each triangle is halved first; elsewhere, subnormals too, the average is 0.5 (a + a^T)
        tiny = 5e-324
        a = np.array([[1e308, 1.5e308, tiny], [1.7e308, 0.0, -1e308], [tiny, -1e308, 1.0]])
        s = SymMatrix.from_full(a)
        assert (s[0, 1], s[1, 2], s[0, 2], s[0, 0]) == (0.5 * 1.5e308 + 0.5 * 1.7e308, -1e308, tiny, 1e308)

    def test_accepts_tiny_asymmetry(self):
        text = "2\n1.0 2.0\n2.0000000001 1.0\n"
        read_matrix(io.StringIO(text))

    @pytest.mark.parametrize("asymmetry", [1.3e-15, 1e-6])
    def test_symmetry_check_is_relative(self, asymmetry):
        # the file scaled by 2^-40 or 2^40 is read alike; an absolute 1e-9 refused 1.3e-15 relative asymmetry at 2^40
        a = random_sym(4, substream(121)).to_full()
        a[0, 1] += asymmetry * np.abs(a).max()
        texts = {k: "4\n" + "\n".join(" ".join(map(repr, row)) for row in np.ldexp(a, k).tolist()) + "\n"
                 for k in (-40, 0, 40)}
        if asymmetry > 1e-9:
            for text in texts.values():
                with pytest.raises(ValueError, match="not symmetric"):
                    read_matrix(io.StringIO(text))
        else:
            base = read_matrix(io.StringIO(texts[0])).packed
            for k, text in texts.items():
                assert np.array_equal(read_matrix(io.StringIO(text)).packed, np.ldexp(base, k))

    def test_multiple_blocks(self):
        a = random_sym(2, substream(119))
        b = random_sym(3, substream(120))
        buf = io.StringIO()
        write_matrix(a, buf)
        buf.write("\n")
        write_matrix(b, buf)
        out = read_matrices(io.StringIO(buf.getvalue()))
        assert len(out) == 2
        assert out[0].m == 2 and out[1].m == 3

    def test_truncated_file(self):
        with pytest.raises(ValueError):
            read_matrix(io.StringIO("3\n1 0 0\n0 1 0\n"))
