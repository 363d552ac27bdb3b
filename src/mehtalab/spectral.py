"""Eigenvalue machinery: batched eigenvalues and determinants, point measures
on the line, Weyl-formula expectations by Monte Carlo and by quadrature, and
the one-point correlation estimator.

Eigenvalues come from numpy's LAPACK symmetric solver (``eigvalsh``/``eigh``),
the same library that already backs ``det``, ``solve`` and ``cholesky`` here.
Every eigenvalue computation in the package goes through
:func:`batched_eigvals`, so the solver is chosen in one place.  The
critical-point finder in ``spherefield`` does not use it to locate points, so
it stays an independent check on the eigenvalues.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from mehtalab.estimation import EstimatorResult, Moments, map_chunks, mc_estimate
from mehtalab.symspace import EnsembleParams, SymMatrix, sample_goe_batch

__all__ = [
    "PointMeasure",
    "DensityEstimate",
    "QuadratureError",
    "batched_eigvals",
    "eigenvalues",
    "eigh_sym",
    "batched_det",
    "det",
    "spectral_measure",
    "default_degeneracy_tol",
    "weyl_expectation_mc",
    "weyl_rhs_quadrature",
    "one_point_correlation",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach its target tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


# ---------------------------------------------------------------------------
# Eigenvalues and determinants


def batched_eigvals(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of symmetric matrices, shape (n, m).

    A single (m, m) matrix is treated as a stack of one.  This is the
    package's one eigenvalue entry point; only the lower triangle is read.
    """
    a = np.asarray(mats, dtype=float)
    if a.ndim == 2:
        a = a[None]
    return np.linalg.eigvalsh(a)


def eigenvalues(a: SymMatrix) -> np.ndarray:
    """Ascending eigenvalues of a SymMatrix."""
    return batched_eigvals(a.to_full()[None])[0]


def eigh_sym(a: SymMatrix):
    """Ascending eigenvalues w and orthonormal eigenvectors V, a = V diag(w) V^T."""
    return np.linalg.eigh(a.to_full())


def batched_det(mats: np.ndarray) -> np.ndarray:
    """Determinants of a stack of small matrices; closed forms up to 3 x 3."""
    a = np.asarray(mats, dtype=float)
    m = a.shape[-1]
    if m == 1:
        return a[..., 0, 0].copy()
    if m == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    if m == 3:
        return (
            a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
            - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
            + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0])
        )
    return np.linalg.det(a)


def det(a: SymMatrix) -> float:
    return float(batched_det(a.to_full()[None])[0])


# ---------------------------------------------------------------------------
# Point measures


@dataclass(frozen=True)
class PointMeasure:
    """Finite weighted sum of Dirac masses on the line, atoms sorted by location."""

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if loc.shape != wts.shape or loc.ndim != 1:
            raise ValueError("locations and weights must be 1-d and equal length")
        if np.any(wts <= 0.0):
            raise ValueError("all weights must be positive")
        order = np.argsort(loc, kind="stable")
        loc = loc[order].copy()
        wts = wts[order].copy()
        loc.flags.writeable = False
        wts.flags.writeable = False
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", wts)

    @property
    def total_mass(self) -> float:
        return math.fsum(self.weights.tolist())

    def merged(self, tol: float) -> "PointMeasure":
        """Merge atom clusters closer than tol; cluster mass is the exact sum."""
        if tol < 0.0:
            raise ValueError("tol must be nonnegative")
        if len(self.locations) == 0:
            return self
        locs, wts = [], []
        start = 0
        n = len(self.locations)
        for i in range(1, n + 1):
            if i == n or self.locations[i] - self.locations[i - 1] >= tol:
                w = math.fsum(self.weights[start:i].tolist())
                c = math.fsum((self.locations[start:i] * self.weights[start:i]).tolist()) / w
                locs.append(c)
                wts.append(w)
                start = i
        return PointMeasure(np.array(locs), np.array(wts))

    def mass_in(self, a: float, b: float) -> float:
        """Mass of the closed interval [a, b]."""
        sel = (self.locations >= a) & (self.locations <= b)
        return math.fsum(self.weights[sel].tolist())

    def scaled(self, factor: float) -> "PointMeasure":
        return PointMeasure(self.locations, factor * self.weights)

    def to_csv(self, path_or_file) -> None:
        _write_csv(path_or_file, "location,weight", zip(self.locations, self.weights))


def default_degeneracy_tol(a: SymMatrix) -> float:
    return 1e-8 * (1.0 + math.sqrt(a.frobenius_sq()))


def spectral_measure(a: SymMatrix, degeneracy_tol: float | None = None) -> PointMeasure:
    """Eigenvalue measure with multiplicities: one atom per eigenvalue cluster.

    Clusters are maximal runs of the sorted eigenvalues with gaps below the
    tolerance; each atom carries the cluster size, so total mass is m.
    """
    if degeneracy_tol is None:
        degeneracy_tol = default_degeneracy_tol(a)
    if degeneracy_tol < 0.0:
        raise ValueError("degeneracy_tol must be nonnegative")
    lam = eigenvalues(a)
    locs, wts = [], []
    start = 0
    for i in range(1, a.m + 1):
        if i == a.m or lam[i] - lam[i - 1] >= max(degeneracy_tol, 5e-324):
            locs.append(float(lam[start:i].mean()))
            wts.append(float(i - start))
            start = i
    return PointMeasure(np.array(locs), np.array(wts))


# ---------------------------------------------------------------------------
# Weyl-formula expectations


def weyl_expectation_mc(
    f, params: EnsembleParams, n_samples: int, seed: int = 0, workers: int = 1
) -> EstimatorResult:
    """Monte Carlo E[f] over GOE(m, v) for a conjugation-invariant f.

    ``f`` takes an (k, m) array of ascending eigenvalue rows and returns a
    (k,) array.
    """
    if not params.is_goe:
        raise ValueError("Weyl expectations are implemented for the u = 0 ensemble")

    def weights(rng, size):
        mats = sample_goe_batch(params.m, params.v, size, rng)
        return f(batched_eigvals(mats))

    return mc_estimate(weights, n_samples, seed, workers)


def _quad_ladder(level: int, epsabs: float, epsrel: float):
    # inner integrals run a bit tighter than the one above them
    return epsabs * (0.1 ** level), epsrel * (0.1 ** level)


def _ordered_region_integral(g, m: int, halfwidth: float, epsabs: float, epsrel: float):
    """Integral of a symmetric integrand over the box [-H, H]^m.

    Restricts to the ordered region l1 < ... < lm, multiplies by m!, and runs
    one adaptive Gauss-Kronrod pass per axis.  Returns (value, error_bound).
    ``g`` receives the ordered eigenvalues as scalars.
    """
    H = halfwidth
    inner_err = [0.0]

    def track(err):
        inner_err[0] = max(inner_err[0], err)

    if m == 1:
        val, err = integrate.quad(g, -H, H, epsabs=epsabs, epsrel=epsrel, limit=300)
        return val, err
    if m == 2:
        ea1, er1 = _quad_ladder(1, epsabs, epsrel)

        def outer(l2):
            v, e = integrate.quad(g, -H, l2, args=(l2,), epsabs=ea1, epsrel=er1, limit=300)
            track(e)
            return v

        val, err = integrate.quad(outer, -H, H, epsabs=epsabs, epsrel=epsrel, limit=300)
        return 2.0 * val, 2.0 * (err + 2.0 * H * inner_err[0])
    if m == 3:
        ea1, er1 = _quad_ladder(1, epsabs, epsrel)
        ea2, er2 = _quad_ladder(2, epsabs, epsrel)
        mid_err = [0.0]

        def mid(l2, l3):
            v, e = integrate.quad(g, -H, l2, args=(l2, l3), epsabs=ea2, epsrel=er2, limit=300)
            inner_err[0] = max(inner_err[0], e)
            return v

        def outer(l3):
            v, e = integrate.quad(mid, -H, l3, args=(l3,), epsabs=ea1, epsrel=er1, limit=300)
            mid_err[0] = max(mid_err[0], e)
            return v

        val, err = integrate.quad(outer, -H, H, epsabs=epsabs, epsrel=epsrel, limit=300)
        bound = err + 2.0 * H * (mid_err[0] + 2.0 * H * inner_err[0])
        return 6.0 * val, 6.0 * bound
    raise ValueError("ordered-region quadrature supports m in {1, 2, 3}")


def _vandermonde_gauss_integral(m: int, v: float, f=None, halfwidth: float | None = None,
                                epsabs: float = 1e-9, epsrel: float = 1e-9):
    """Integral of f * |Vandermonde| * prod exp(-l^2 / 4v) over R^m (truncated)."""
    H = halfwidth if halfwidth is not None else 8.0 * math.sqrt(2.0 * v)
    inv4v = 1.0 / (4.0 * v)

    def g(*lam):
        w = 1.0
        for i in range(len(lam)):
            for j in range(i + 1, len(lam)):
                w *= lam[j] - lam[i]
            w *= math.exp(-lam[i] * lam[i] * inv4v)
        if f is not None:
            w *= f(np.array([lam], dtype=float))[0]
        return w

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            return _ordered_region_integral(g, m, H, epsabs, epsrel)
        except integrate.IntegrationWarning as exc:
            raise QuadratureError(f"quadrature did not converge: {exc}", math.inf) from exc


_WEYL_NORM_CACHE: dict = {}


def weyl_rhs_quadrature(f, m: int, v: float, box_halfwidth: float | None = None,
                        tol: float = 1e-6) -> float:
    """Deterministic E[f] over GOE(m, v) by eigenvalue-density quadrature.

    This is the brute-force side of the Weyl formula: integrate f against the
    Vandermonde-Gaussian density and normalize by the same quadrature run on
    the constant 1, which keeps the routine independent of any closed-form
    normalization.  Supports m in {1, 2, 3}; raises QuadratureError with the
    achieved error bound when the target tolerance is missed.
    """
    if m not in (1, 2, 3):
        raise ValueError("weyl_rhs_quadrature supports m in {1, 2, 3} (cost grows too fast beyond)")
    if not v > 0.0:
        raise ValueError("v must be positive")
    H = box_halfwidth if box_halfwidth is not None else 8.0 * math.sqrt(2.0 * v)
    key = (m, float(v), float(H))
    if key not in _WEYL_NORM_CACHE:
        _WEYL_NORM_CACHE[key] = _vandermonde_gauss_integral(m, v, None, H)
    den, den_err = _WEYL_NORM_CACHE[key]
    num, num_err = _vandermonde_gauss_integral(m, v, f, H)
    value = num / den
    achieved = num_err / den + abs(value) * den_err / den
    if achieved > tol:
        raise QuadratureError(
            f"requested tolerance {tol:.1e}, achieved only {achieved:.1e}", achieved
        )
    return value


# ---------------------------------------------------------------------------
# One-point correlation estimator


@dataclass
class DensityEstimate:
    """Density values on a grid with pointwise standard errors."""

    grid: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    width: float
    kind: str
    n_samples: int
    meta: dict = field(default_factory=dict)

    def integral(self) -> float:
        return float(np.trapezoid(self.values, self.grid))

    def integrate(self, f) -> float:
        """Midpoint-rule integral of f against the estimated density."""
        step = self.grid[1] - self.grid[0]
        return float(np.sum(f(self.grid) * self.values) * step)

    def to_csv(self, path_or_file) -> None:
        _write_csv(path_or_file, "x,rho,stderr", zip(self.grid, self.values, self.stderr))


def _write_csv(path_or_file, header, rows):
    if hasattr(path_or_file, "write"):
        fh, close = path_or_file, False
    else:
        fh, close = open(path_or_file, "w"), True
    try:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
    finally:
        if close:
            fh.close()


def default_bin_width(n: int, v: float) -> float:
    return float(np.clip(0.05 * math.sqrt(2.0 * v) * math.sqrt(n), 0.01, 0.2))


def _grid_range(n: int, v: float) -> float:
    # semicircle support edge plus a generous entry-scale margin
    return math.sqrt(2.0 * v) * (2.0 * math.sqrt(n) + 6.0)


def one_point_correlation(
    m: int,
    v: float,
    n_samples: int,
    estimator: str = "histogram",
    bin_width: float | None = None,
    bandwidth: float | None = None,
    seed: int = 0,
    workers: int = 1,
) -> DensityEstimate:
    """Estimate the normalized one-point correlation density of GOE(m, v).

    The density integrates to 1 (one eigenvalue chosen uniformly at random);
    references that normalize to total mass m differ by that factor.  Standard
    errors treat each matrix as one cluster of m correlated eigenvalues.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not (v > 0.0 and math.isfinite(v)):
        raise ValueError("v must be a positive finite number")
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000 for a density estimate")
    if estimator not in ("histogram", "kernel"):
        raise ValueError("estimator must be 'histogram' or 'kernel'")

    R = _grid_range(m, v)
    if estimator == "histogram":
        w = default_bin_width(m, v) if bin_width is None else float(bin_width)
        if not (w > 0.0 and math.isfinite(w)):
            raise ValueError("bin_width must be a positive finite number")
        half_bins = int(math.ceil(R / w))
        edges = w * np.arange(-half_bins, half_bins + 1)
        grid = 0.5 * (edges[:-1] + edges[1:])
        nb = grid.size

        def block(rng, size):
            lam = batched_eigvals(sample_goe_batch(m, v, size, rng))
            idx = np.floor(lam / w).astype(np.int64) + half_bins
            inside = (idx >= 0) & (idx < nb)
            # per-matrix bin counts c (one cluster per matrix) from the nonzero (matrix,
            # bin) cells only, so sum c and sum c^2 are exact; then lam^2 and escapes
            cells, c = np.unique((np.arange(size)[:, None] * nb + idx)[inside], return_counts=True)
            s1 = np.bincount(cells % nb, weights=c, minlength=nb)
            s2 = np.bincount(cells % nb, weights=c * c, minlength=nb)
            tail = Moments.of(np.column_stack([(lam * lam).mean(axis=1), (~inside).sum(axis=1)]))
            return Moments(size, np.append(s1 / size, tail.mean), np.append(s2 - s1 * s1 / size, tail.m2))

        mom = map_chunks(block, n_samples, seed, workers)
        se = mom.std_error
        meta = {
            "escaped": round(mom.mean[-1] * n_samples),  # a count, up to float rounding
            "moment2": float(mom.mean[-2]),
            "moment2_se": float(se[-2]),
        }
        return DensityEstimate(grid, mom.mean[:nb] / (m * w), se[:nb] / (m * w), w, "histogram",
                               n_samples, meta)

    h = (0.05 * math.sqrt(2.0 * v)) if bandwidth is None else float(bandwidth)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("bandwidth must be a positive finite number")
    step = max(h / 2.0, R / 4000.0)
    half = int(math.ceil(R / step))
    grid = step * np.arange(-half, half + 1)
    vals, ses, _ = _kernel_density_at(m, v, grid, h, n_samples, seed, workers)
    return DensityEstimate(grid, vals, ses, h, "kernel", n_samples, {})


def _kernel_density_at(
    m: int,
    v: float,
    points: np.ndarray,
    bandwidth: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
    stream: int = 0,
):
    """Gaussian-kernel estimate of the eigenvalue density at given points.

    Returns (values, cluster standard errors, curvature estimate), the last
    being the KDE second derivative used for bias bounds.
    """
    points = np.atleast_1d(np.asarray(points, dtype=float))
    h = float(bandwidth)
    # draws per kernel evaluation, so that it holds about 2e6 elements
    sub = max(1, int(2.0e6 / (points.size * m)))

    def part(rng, k):
        lam = batched_eigvals(sample_goe_batch(m, v, k, rng))
        u = (points[None, None, :] - lam[:, :, None]) / h
        ker = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        dens = ker.mean(axis=1) / h
        curv = ((u * u - 1.0) * ker).mean(axis=1) / h**3
        return Moments.of(np.hstack([dens, curv]))

    def block(rng, size):
        return functools.reduce(Moments.merge, (part(rng, min(sub, size - lo)) for lo in range(0, size, sub)))

    mom = map_chunks(block, n_samples, seed, workers, stream)
    se = mom.std_error
    return mom.mean[:points.size], se[:points.size], mom.mean[points.size:]
