"""Eigenvalue machinery: batched eigenvalues and determinants, point measures
on the line, Weyl-formula expectations by Monte Carlo and by quadrature, and
the one-point correlation estimator.

Eigenvalues come from numpy's LAPACK symmetric solver (``eigvalsh``/``eigh``),
the same library that already backs ``det``, ``solve`` and ``cholesky`` here.
Every eigenvalue computation in the package goes through
:func:`batched_eigvals`, so the solver is chosen in one place.  The
critical-point finder in ``spherefield`` does not use it to locate points, so
it stays an independent check on the eigenvalues.

The quadrature side of the Weyl formula is one adaptive Gauss-Kronrod
``scipy.integrate.cubature`` call on the unit cube, mapped onto the ordered
eigenvalue region; it uses no gamma function and no sampling, so it stays an
independent check on the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.special import ndtr

from mehtalab.estimation import EstimatorResult, Moments, map_chunks, mc_estimate
from mehtalab.symspace import EnsembleParams, SymMatrix, _opened, sample_goe_batch

__all__ = [
    "PointMeasure",
    "DensityEstimate",
    "QuadratureError",
    "batched_eigvals",
    "eigenvalues",
    "eigh_sym",
    "batched_det",
    "tridiagonal_pivots",
    "det",
    "spectral_measure",
    "default_degeneracy_tol",
    "weyl_expectation_mc",
    "weyl_rhs_quadrature",
    "one_point_correlation",
    "goe_density",
    "GOE_DENSITY_MAX_M",
]


class QuadratureError(RuntimeError):
    """The ordered-region cubature missed its target tolerance.

    ``achieved`` is the error estimate it reached, NaN when the integrand
    returned NaN.
    """

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


def tridiagonal_pivots(diag: np.ndarray, off_sq: np.ndarray, shifts) -> np.ndarray:
    """LDL^T pivots d_1 = a_1 - s, d_k = (a_k - s) - b_{k-1}^2 / d_{k-1} of T - s I.

    T has diagonal ``diag`` (n, m) and squared off-diagonals ``off_sq`` (n, m - 1);
    ``shifts`` is (n,) or (n, K) and the pivots (m,) + shifts.shape.  Their product
    is det(T - s I); by Sylvester's law of inertia the negative ones count the
    eigenvalues below s.  A zero divisor becomes tiny * max(1, max b^2) (dstebz).
    """
    s = np.asarray(shifts, dtype=float).T  # (K, n), so diag[:, k] broadcasts
    pivmin = np.finfo(float).tiny * max(1.0, off_sq.max(initial=0.0))
    piv = np.empty((diag.shape[1],) + s.shape)
    np.subtract(diag[:, 0], s, out=piv[0])
    for k in range(1, len(piv)):
        zero = piv[k - 1] == 0.0
        if zero.any():
            piv[k - 1][zero] = pivmin
        np.subtract(diag[:, k], s, out=piv[k])
        piv[k] -= off_sq[:, k - 1] / piv[k - 1]
    return piv.swapaxes(1, -1)


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
    tolerance (``PointMeasure.merged``); each atom carries the cluster size,
    so total mass is m.
    """
    if degeneracy_tol is None:
        degeneracy_tol = default_degeneracy_tol(a)
    if degeneracy_tol < 0.0:
        raise ValueError("degeneracy_tol must be nonnegative")
    return PointMeasure(eigenvalues(a), np.ones(a.m)).merged(max(degeneracy_tol, 5e-324))


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


# Relative target of every ordered-region integral: it bounds the work when
# the caller's tolerance is out of reach, which then reports what it achieved.
_QUAD_RTOL = 1e-12
# Cap on the cubature's region subdivisions, so that a tolerance out of reach
# fails in seconds; the kinked |prod(l - 1)| integrand at m = 2 needs about 400.
_QUAD_MAX_SUBDIVISIONS = 2000


def _vandermonde_gauss_integral(m: int, v: float, f, halfwidth: float, atol: float = 0.0):
    """Integral of f * |Vandermonde| * prod exp(-l^2 / 4v) over [-H, H]^m.

    The integrand is symmetric, so this is m! times the integral over the
    ordered region l1 < ... < lm, which the unit cube maps onto by
    l_m = -H + 2H s_m and l_k = -H + (l_{k+1} + H) s_k.  One adaptive
    Gauss-Kronrod cubature runs on the cube with absolute target ``atol``.
    ``f`` receives (N, m) arrays of ascending eigenvalue rows.  Returns
    (value, error_estimate).
    """
    from scipy import integrate  # here, so that start-up does not pay for it

    H = halfwidth
    i, j = np.triu_indices(m, 1)

    def integrand(s):
        lam = np.empty_like(s)
        jac = np.ones(len(s))
        top = np.full(len(s), H)
        for k in range(m - 1, -1, -1):
            width = top + H
            lam[:, k] = top = -H + width * s[:, k]
            jac *= width
        vandermonde = np.prod(lam[:, j] - lam[:, i], axis=1)
        w = jac * vandermonde * np.exp(-(lam * lam).sum(axis=1) / (4.0 * v))
        return w if f is None else w * f(lam)

    scale = math.factorial(m)
    res = integrate.cubature(integrand, np.zeros(m), np.ones(m), atol=atol / scale,
                             rtol=_QUAD_RTOL, max_subdivisions=_QUAD_MAX_SUBDIVISIONS)
    return scale * float(res.estimate), scale * float(res.error)


_WEYL_NORM_CACHE: dict = {}


def weyl_rhs_quadrature(f, m: int, v: float, tol: float = 1e-6) -> float:
    """Deterministic E[f] over GOE(m, v) by eigenvalue-density quadrature.

    This is the brute-force side of the Weyl formula: integrate f against the
    Vandermonde-Gaussian density over the box |lambda_i| <= 8 sqrt(2v) and
    normalize by the same quadrature run on the constant 1, which keeps the routine independent of any closed-form
    normalization.  Supports m in {1, 2, 3}; raises QuadratureError with the
    achieved error estimate when the target tolerance is missed or the
    integrand returns NaN.
    """
    EnsembleParams(m, 0.0, v)
    if m not in (1, 2, 3):
        raise ValueError("weyl_rhs_quadrature supports m in {1, 2, 3} (cost grows too fast beyond)")
    H = 8.0 * math.sqrt(2.0 * v)
    key = (m, float(v))
    if key not in _WEYL_NORM_CACHE:
        _WEYL_NORM_CACHE[key] = _vandermonde_gauss_integral(m, v, None, H)
    den, den_err = _WEYL_NORM_CACHE[key]
    num, num_err = _vandermonde_gauss_integral(m, v, f, H, atol=0.5 * tol * den)
    value = num / den
    achieved = num_err / den + abs(value) * den_err / den
    if not achieved <= tol:
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
    """Numbers at full precision, strings as they are."""
    with _opened(path_or_file, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else f"{x:.17g}" for x in row) + "\n")


def default_bin_width(n: int, v: float) -> float:
    return float(np.clip(0.05 * math.sqrt(2.0 * v) * math.sqrt(n), 0.01, 0.2))


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
    EnsembleParams(m, 0.0, v)
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000 for a density estimate")
    if estimator not in ("histogram", "kernel"):
        raise ValueError("estimator must be 'histogram' or 'kernel'")

    # grids reach the semicircle support edge plus a generous entry-scale margin
    R = math.sqrt(2.0 * v) * (2.0 * math.sqrt(m) + 6.0)
    if estimator == "histogram":
        # the box kernel: weight 1 on the bin each eigenvalue falls in
        width = default_bin_width(m, v) if bin_width is None else float(bin_width)
        if not (width > 0.0 and math.isfinite(width)):
            raise ValueError("bin_width must be a positive finite number")
        half = int(math.ceil(R / width))
        edges = width * np.arange(-half, half + 1)
        grid = 0.5 * (edges[:-1] + edges[1:])

        def place(lam):
            cells = np.floor(lam / width).astype(np.int64)[..., None] + half
            return cells, np.ones(cells.shape)
    else:
        # a Gaussian cut off at 8h, past which a term is below 1e-14 / h: each
        # eigenvalue weighs on the grid points within 8h of it; int32 cells
        # suffice for the at most 8001 grid points
        width = 0.05 * math.sqrt(2.0 * v) if bandwidth is None else float(bandwidth)
        if not (width > 0.0 and math.isfinite(width)):
            raise ValueError("bandwidth must be a positive finite number")
        if width < R / 4000.0:
            # the grid cannot resolve a kernel narrower than its step; far below
            # it no grid point is within 8h of an eigenvalue and every value is 0
            raise ValueError(f"bandwidth {width:g} is below the grid step {R / 4000.0:g}")
        step = max(width / 2.0, R / 4000.0)
        half = int(math.ceil(R / step))
        grid = step * np.arange(-half, half + 1)
        reach = np.arange(2 * math.ceil(8.0 * width / step) + 1, dtype=np.int32)
        reach_u = reach * (step / width)

        def place(lam):
            # u and the weights share one array, built and transformed in place
            first = np.ceil((lam - 8.0 * width) / step).astype(np.int32)
            u = ((step * first - lam) / width)[..., None] + reach_u
            u *= u
            u *= -0.5
            np.exp(u, out=u)
            u *= 1.0 / math.sqrt(2.0 * math.pi)
            return first[..., None] + (reach + half), u

    def block(rng, size):
        lam = batched_eigvals(sample_goe_batch(m, v, size, rng))
        return _cell_moments(lam, *place(lam), grid.size)

    mom = map_chunks(block, n_samples, seed, workers)
    se = mom.std_error
    meta = {
        "escaped": round(mom.mean[-1] * n_samples),  # a count, up to float rounding
        "moment2": float(mom.mean[-2]),
        "moment2_se": float(se[-2]),
    }
    return DensityEstimate(grid, mom.mean[:grid.size] / (m * width), se[:grid.size] / (m * width),
                           width, estimator, n_samples, meta)


def _cell_moments(lam, cells, weights, ncells):
    """Block moments of the per-matrix weight sums on ``ncells`` grid cells.

    Eigenvalue lam[i, j] puts weights[i, j, :] on the ascending cells[i, j, :],
    which are overwritten.  Squares are taken after the per-matrix sums,
    so cluster standard errors are exact.  The mean of lam^2 and the count of
    eigenvalues with no cell on the grid follow the cells.
    """
    size, span = lam.shape[0], ncells + 2
    escaped = ((cells[..., -1] < 0) | (cells[..., 0] >= ncells)).sum(axis=1)
    # off-grid cells go to a spare cell at either end of their matrix's row
    np.clip(cells, -1, ncells, out=cells)
    cells += 1
    rows = np.broadcast_to(np.arange(size, dtype=np.int32)[:, None, None], cells.shape)
    # scipy adds up a row's entries on one cell in the order its (unstable) index
    # sort leaves them: fixed for a fixed block, not always the input order
    c = sparse.csr_array((weights.reshape(-1), (rows.reshape(-1), cells.reshape(-1))), shape=(size, span))
    c.sum_duplicates()
    s1 = np.bincount(c.indices, c.data, minlength=span)[1:-1]
    s2 = np.bincount(c.indices, c.data ** 2, minlength=span)[1:-1]
    tail = Moments.of(np.column_stack([(lam * lam).mean(axis=1), escaped]))
    return Moments(size, np.append(s1 / size, tail.mean), np.append(s2 - s1 * s1 / size, tail.m2))


# Largest m of goe_density: its recurrences start from phi_0 = pi^(-1/4)
# exp(-y^2 / 2), which underflows past |y| = 38, and the spectrum ends at sqrt(2m)
GOE_DENSITY_MAX_M = 700


def goe_density(m: int, v: float, x):
    """Exact one-point density of GOE(m, v) at x, with mass 1 like ``one_point_correlation``.

    Mehta's Hermite-function formula (Random Matrices, 3rd ed., ch. 7) for
    the eigenvalue law prop. to |Delta(y)| exp(-sum y^2 / 2), y = x / sqrt(2v):
    rho_m = sum_{k<m} phi_k^2 + sqrt(m/2) phi_{m-1} (I_m - J_m / 2), plus
    phi_{m-1} / J_{m-1} at odd m, with phi_k the Hermite functions, I_k(y)
    the integral of phi_k up to y and J_k = I_k(inf), 0 at odd k.  phi_k and
    I_k run forward by three-term recurrences from phi_0 and I_0 (``ndtr``).
    Returns rho_m(y) / (m sqrt(2v)), shaped like x.
    """
    if not 1 <= m <= GOE_DENSITY_MAX_M:
        raise ValueError(f"the exact GOE density needs 1 <= m <= {GOE_DENSITY_MAX_M}, got dimension {m}")
    EnsembleParams(m, 0.0, v)
    scale = math.sqrt(2.0 * v)
    y = np.asarray(x, dtype=float) / scale
    j0 = math.pi ** -0.25 * math.sqrt(2.0 * math.pi)
    phi_prev, phi = 0.0, math.pi ** -0.25 * np.exp(-0.5 * y * y)
    i_prev, i_cur, total = 0.0, j0 * ndtr(y), 0.0
    for k in range(m):  # leaves phi_prev = phi_{m-1} and i_cur = I_m
        total = total + phi * phi
        a, b = math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1))
        i_prev, i_cur = i_cur, b * i_prev - a * phi
        phi_prev, phi = phi, a * y * phi - b * phi_prev
    j_even = j0 * math.prod(math.sqrt((k - 1) / k) for k in range(2, m + 1, 2))  # J_m, or J_{m-1} at odd m
    if m % 2:
        return (total + math.sqrt(m / 2.0) * phi_prev * i_cur + phi_prev / j_even) / (m * scale)
    return (total + math.sqrt(m / 2.0) * phi_prev * (i_cur - 0.5 * j_even)) / (m * scale)
