"""Eigenvalue machinery: batched eigenvalues and determinants, point measures
on the line, Weyl-formula expectations by Monte Carlo and by quadrature, and
the one-point correlation estimator.

Eigenvalues come from numpy's LAPACK symmetric solver (``eigvalsh``), the library that backs ``det`` and
``solve`` here.  Every eigenvalue-only computation goes through :func:`batched_eigvals`, so the solver is chosen
in one place; the eigenvector factorizations in ``regression`` call numpy's ``eigh`` directly, and counts of
eigenvalues below a shift are pivot signs (:func:`batched_count_below`).  The critical-point finder in
``spherefield`` locates its points with neither, so it stays an independent check on the eigenvalues.

The quadrature side of the Weyl formula is de Bruijn's Pfaffian of Hermite-function
integrals on one-dimensional Gauss-Legendre panels, for every m; it uses no gamma
function and no sampling, so it stays an independent check on the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre
from scipy import sparse
from scipy.special import ndtr, roots_legendre

from mehtalab.estimation import EstimatorResult, Moments, _worker_count, map_chunks, mc_estimate
from mehtalab.symspace import EnsembleParams, SymMatrix, map_goe_slabs

__all__ = [
    "PointMeasure",
    "DensityEstimate",
    "QuadratureError",
    "batched_eigvals",
    "eigenvalues",
    "batched_det",
    "batched_count_below",
    "spectral_measure",
    "default_degeneracy_tol",
    "weyl_expectation_mc",
    "weyl_rhs_quadrature",
    "one_point_correlation",
    "goe_density",
]


class QuadratureError(RuntimeError):
    """The Pfaffian quadrature missed its target tolerance.

    ``achieved`` is the relative error estimate it reached, NaN when the
    integrand returned NaN.
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


# sqrt(eps) balances a raised pivot's change to A against the growth it allows; the crossover is on 1 MiB slabs
_PIVOT_FLOOR, _ELIMINATION_MAX = 2.0**-26, 64


def batched_count_below(mats: np.ndarray, shifts) -> np.ndarray:
    """#(lambda < s) of each symmetric matrix of a (n, d, d) stack at each shift s, shape (len(shifts), n).

    Sylvester's law of inertia: the negative pivots of the unpivoted LDL^T of 2^-e (A - s I), e the frexp exponent of
    A's largest entry and s's exponent clipped past every eigenvalue's, on the lower triangles of a step-major copy;
    a pivot below _PIVOT_FLOOR is raised to it, so an eigenvalue at s is not below s.  Finite shifts but the last
    overwrite ``mats``; an infinite one reads 0 or d.  Past d x (distinct finite shifts) = _ELIMINATION_MAX, eigvalsh.
    """
    a, shifts = np.asarray(mats, dtype=float), np.asarray(shifts, dtype=float).reshape(-1)
    (n, d), ends = a.shape[::2], np.unique(shifts[np.isfinite(shifts)])
    if d * ends.size > _ELIMINATION_MAX:
        return (batched_eigvals(a) < shifts[:, None, None]).sum(axis=2)
    e, lim = np.frexp(np.abs(a).max(axis=(1, 2)))[1], math.frexp(2.0 * d)[1]  # 2^lim > 2d > every scaled |lambda|
    steps = np.ldexp(a.transpose(1, 2, 0), -e, out=np.empty((d, d, n)))
    counts = np.where(shifts == math.inf, d, 0)[:, None].repeat(n, axis=1)
    for s, work in zip(ends, [a.reshape(d, d, n)] * (ends.size - 1) + [steps]):  # the last shift in place
        np.copyto(work, steps)
        work[range(d), range(d)] -= np.ldexp(math.frexp(s)[0], np.minimum(math.frexp(s)[1] - e, lim))
        for k in range(d):
            np.copyto(work[k, k], _PIVOT_FLOOR, where=np.abs(work[k, k]) < _PIVOT_FLOOR)
            for i in range(k + 1, d):
                work[i, k + 1:i + 1] -= work[i, k] / work[k, k] * work[k + 1:i + 1, k]
        counts[shifts == s] = (np.diagonal(work) < 0.0).sum(axis=1)
    return counts


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

    def merged(self, tol: float) -> "PointMeasure":
        """Merge runs of atoms each no more than tol from the next (tol = 0 merges ties); mass is the exact sum."""
        if not tol >= 0.0:
            raise ValueError("tol must be nonnegative")
        locs, wts = [], []
        start = 0
        n = len(self.locations)
        for i in range(1, n + 1):
            if i == n or self.locations[i] - self.locations[i - 1] > tol:
                w = math.fsum(self.weights[start:i].tolist())
                c = math.fsum((self.locations[start:i] * self.weights[start:i]).tolist()) / w
                locs.append(c)
                wts.append(w)
                start = i
        return PointMeasure(np.array(locs), np.array(wts))

    def scaled(self, factor: float) -> "PointMeasure":
        return PointMeasure(self.locations, factor * self.weights)


def default_degeneracy_tol(a: SymMatrix | np.ndarray) -> float | np.ndarray:
    """1e-8 (1 + ||A||_F) of a SymMatrix or of each matrix of a (..., d, d) stack, the norm by hypot, which squares
    no entry.  Eigenvalues no more than this apart are one atom of the spectral measure and make the finder refuse A."""
    mats = a.to_full() if isinstance(a, SymMatrix) else np.asarray(a, dtype=float)
    return 1e-8 * (1.0 + np.hypot.reduce(mats.reshape(*mats.shape[:-2], -1), axis=-1))


def spectral_measure(a: SymMatrix, degeneracy_tol: float | None = None) -> PointMeasure:
    """Eigenvalue measure with multiplicities: one atom per eigenvalue cluster.

    Clusters are maximal runs of the sorted eigenvalues with gaps no more than
    the tolerance (``PointMeasure.merged``); each atom carries the cluster
    size, so total mass is m.
    """
    if degeneracy_tol is None:
        degeneracy_tol = default_degeneracy_tol(a)
    if not degeneracy_tol >= 0.0:
        raise ValueError("degeneracy_tol must be nonnegative")
    return PointMeasure(eigenvalues(a), np.ones(a.m)).merged(degeneracy_tol)


# ---------------------------------------------------------------------------
# Weyl-formula expectations


def weyl_expectation_mc(
    f, params: EnsembleParams, n_samples: int, seed: int = 0, workers: int | None = None
) -> EstimatorResult | list[EstimatorResult]:
    """Monte Carlo E[f] over GOE(m, v) for a conjugation-invariant f, on stream 0.

    ``f`` takes an (k, m) array of ascending eigenvalue rows and returns a
    (k,) array, or K columns (k, K) for a list of K results (``mc_estimate``);
    the eigenvalues come slab by slab (``map_goe_slabs``).
    """
    if not params.is_goe:
        raise ValueError("Weyl expectations are implemented for the u = 0 ensemble")

    def weights(rng, size):
        return f(map_goe_slabs(batched_eigvals, params.m, params.v, size, rng))

    return mc_estimate(weights, n_samples, seed, workers)


def _rescale(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scale the live rows a, b in place by 2^-e, e the frexp exponent of the larger entry at each point; return e."""
    e = np.frexp(np.maximum(np.abs(a), np.abs(b)))[1]
    np.ldexp(a, -e, out=a)
    np.ldexp(b, -e, out=b)
    return e


def _hermite_functions(y, count: int):
    """Yield psi_0(y), ..., psi_{count-1}(y), shaped like y, by the forward three-term recurrence: a mantissa per point,
    ``_rescale``d every 16 steps, times 2^exponent, so psi_k underflows only if it truly does.  psi_0 starts split only
    where it would not be a normal float (|y| > 37.6), so elsewhere every normal psi_k has the plain recurrence's bits
    (powers of two scale exactly).  |y| <= 1e4 keeps psi_0's exponent in frexp's int32, whose ldexp is the fast one."""
    shape, y = np.shape(y), np.asarray(y, dtype=float).reshape(-1)  # 1-d, so the rescale can work in place
    exponent = np.where(y * y > 1416.0, -np.floor(y * y / math.log(4.0)), 0.0).astype(np.int32)
    phi_prev, phi = 0.0, math.pi ** -0.25 * np.exp(-0.5 * y * y - exponent * math.log(2.0))
    for k in range(count):
        yield np.ldexp(phi, exponent).reshape(shape)
        phi_prev, phi = phi, math.sqrt(2.0 / (k + 1)) * y * phi - math.sqrt(k / (k + 1)) * phi_prev
        if k % 16 == 15:
            exponent += _rescale(phi_prev, phi)


# one rule per node count, made on first use from the banded Jacobi matrix's eigenvalues and one Newton step;
# numpy's leggauss takes a dense eigen-solve, which OpenBLAS threads: 0.5 s at 256 nodes on two threads
_legendre = lru_cache(maxsize=8)(roots_legendre)
_PANEL_RTOL, _MAX_PANELS = 1e-14, 1024


def _pfaffian_log_integral(m: int, h=None) -> tuple[float, float]:
    """log of the integral of |Delta(x)| prod h(x_i) exp(-x_i^2 / 2) over R^m, and its error estimate.

    De Bruijn's identity (J. Indian Math. Soc. 19, 1955; Mehta, Random Matrices, 3rd ed.): it is m! Pf[a] /
    prod_k 2^k c_k, c_k = (2^k k! sqrt(pi))^(-1/2), with u_k = h psi_k, U_k its integral from -inf and
    a_ij = int u_j U_i - int u_i U_j, bordered by int u_i at odd m.  The integrals run on panels of [-L, L],
    L = sqrt(2m + 1) + 12, bisected while some int u_k moves by more than _PANEL_RTOL of sum |int u_k|, which
    finds an unknown kink of h.  The estimate is on the panels' halves, its error the distance to the panels'
    own rule plus one rounding; no gamma function enters.  ``h`` (None for 1) maps points to values alike.
    """
    nodes, wts = _legendre(20)  # each panel's rule; cum[i, j] integrates node j's Lagrange polynomial to node i
    cum = np.linalg.solve(legendre.legvander(nodes, 19).T,
                          legendre.legval(nodes, legendre.legint(np.eye(20), lbnd=-1))).T

    def panels(lo, hi):  # u_k at each panel's nodes (m, P, 20), the half-widths, each panel's int u_k (m, P)
        half = 0.5 * (hi - lo)
        x = (0.5 * (hi + lo))[:, None] + half[:, None] * nodes
        u = np.array(list(_hermite_functions(x, m))) * (1.0 if h is None else h(x))
        return u, half, (u @ wts) * half

    def log_pfaffian(edges):  # slogdet(a) / 2, U by cum inside a panel and a cumulative sum across
        u, half, tot = panels(edges[:-1], edges[1:])
        big_u = (u @ cum.T) * half[:, None] + (np.cumsum(tot, axis=1) - tot)[..., None]
        b = big_u.reshape(m, -1) @ (u * wts * half[:, None]).reshape(m, -1).T  # a = b - b^T
        if m % 2:  # the border: a column of int u_i over a row of zeros
            b = np.vstack([np.column_stack([b, tot.sum(axis=1)]), np.zeros(m + 1)])
        with np.errstate(invalid="ignore"):  # a NaN integrand reads as a NaN estimate
            return 0.5 * float(np.linalg.slogdet(b - b.T)[1])

    half_l = math.sqrt(2.0 * m + 1.0) + 12.0
    edges = np.linspace(-half_l, half_l, 2 * math.ceil(half_l) + 1)
    while edges.size <= _MAX_PANELS:
        lo, mid, hi = edges[:-1], 0.5 * (edges[:-1] + edges[1:]), edges[1:]
        fine = panels(lo, mid)[2] + panels(mid, hi)[2]
        split = (np.abs(panels(lo, hi)[2] - fine) > _PANEL_RTOL * np.abs(fine).sum(axis=1)[:, None]).any(axis=0)
        if not split.any():
            break
        edges = np.sort(np.append(edges, mid[split]))
    coarse, fine = log_pfaffian(edges), log_pfaffian(np.sort(np.append(edges, 0.5 * (edges[:-1] + edges[1:]))))
    log_fact = np.append(0.0, np.cumsum(np.log(np.arange(1.0, m + 1.0))))  # log k!, k = 0..m: running sums
    log_norm = 0.25 * math.log(2.0) * m * (m - 1) - 0.5 * log_fact[:-1].sum() - 0.25 * m * math.log(math.pi)
    return float(log_fact[-1]) - log_norm + fine, abs(fine - coarse) + np.finfo(float).eps


def weyl_rhs_quadrature(f, m: int, v: float, tol: float = 1e-6) -> float:
    """Deterministic E[f] over GOE(m, v) by de Bruijn's Pfaffian, for f = prod_i f(lambda_i) >= 0.

    The quadrature side of the Weyl formula: with lambda = sqrt(2v) x, E[f] is ``_pfaffian_log_integral``
    with h(x) = f(sqrt(2v) x), f read on one-eigenvalue rows, over the same with h = 1, so no closed-form
    normalization enters.  ``f`` maps (N, k) arrays of ascending eigenvalue rows to (N,) values; its
    factorization is checked on three fixed probe rows and h >= 0 on every node, each failure a ValueError.
    ``tol`` is relative: QuadratureError carries the achieved relative error estimate, NaN for a NaN integrand.
    """
    EnsembleParams(m, 0.0, v)
    scale = math.sqrt(2.0 * v)

    def h(lam):  # f on one-eigenvalue rows, shaped like lam
        values = np.asarray(f(lam.reshape(-1, 1)), dtype=float).reshape(lam.shape)
        if (values < 0.0).any():
            raise ValueError(f"weyl_rhs_quadrature needs f >= 0, got {values.min():g}")
        return values

    probe = scale * (math.sqrt(2.0 * m) * np.linspace(-1.0, 1.0, m) + np.array([[-0.3], [0.1], [0.7]]))
    if not np.allclose(f(probe), h(probe).prod(axis=1), rtol=1e-9, atol=0.0, equal_nan=True):
        raise ValueError("weyl_rhs_quadrature needs f(lambda) = prod_i f(lambda_i), which f is not")
    (num, num_err), (den, den_err) = _pfaffian_log_integral(m, lambda x: h(scale * x)), _pfaffian_log_integral(m)
    if not num_err + den_err <= tol:
        raise QuadratureError(f"requested {tol:.1e}, achieved only {num_err + den_err:.1e}", num_err + den_err)
    return math.exp(num - den)


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


def default_bin_width(m: int, v: float) -> float:
    """Histogram bin width for GOE(m, v): 0.05 sqrt(2v m), clipped to [0.01, 0.2]."""
    return float(np.clip(0.05 * math.sqrt(2.0 * v) * math.sqrt(m), 0.01, 0.2))


def one_point_correlation(
    m: int,
    v: float,
    n_samples: int,
    estimator: str = "histogram",
    bin_width: float | None = None,
    bandwidth: float | None = None,
    seed: int = 0,
    workers: int | None = None,
) -> DensityEstimate:
    """Estimate the normalized one-point correlation density of GOE(m, v).

    The density integrates to 1 (one eigenvalue chosen uniformly at random);
    references that normalize to total mass m differ by that factor.  Standard
    errors treat each matrix as one cluster of m correlated eigenvalues.  The
    eigenvalues come slab by slab (``map_goe_slabs``): O(m) floats per draw.
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
        lam = map_goe_slabs(batched_eigvals, m, v, size, rng)
        return _cell_moments(lam, *place(lam), grid.size)

    mom = map_chunks(block, n_samples, seed, _worker_count(workers))
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
    so cluster standard errors are exact.  The mean of lam^2 (a gemv, 3x as fast
    as ``mean``) and the count of eigenvalues with no cell on the grid follow.
    """
    size, span = lam.shape[0], ncells + 2
    escaped = ((cells[..., -1] < 0) | (cells[..., 0] >= ncells)).sum(axis=1)
    tail = Moments.of(np.column_stack([(lam * lam) @ np.full(lam.shape[1], 1.0 / lam.shape[1]), escaped]))
    # off-grid cells go to a spare cell at either end of their matrix's row
    np.clip(cells, -1, ncells, out=cells)
    cells += 1
    indptr = np.arange(0, cells.size + 1, cells[0].size)  # each matrix fills its row with as many entries
    # scipy adds up a row's entries on one cell in the order its (unstable) index
    # sort leaves them: fixed for a fixed block, not always the input order
    c = sparse.csr_array((weights.reshape(-1), cells.reshape(-1), indptr), shape=(size, span))
    c.sum_duplicates()
    mean = np.bincount(c.indices, c.data, minlength=span) / size
    # two-pass M2: a cell's stored sums deviate from its mean, each matrix with no entry there by -mean
    dev = mean[c.indices]
    dev -= c.data
    m2 = np.bincount(c.indices, np.square(dev, out=dev), minlength=span)
    m2 += (size - np.bincount(c.indices, minlength=span)) * mean * mean
    return Moments(size, np.append(mean[1:-1], tail.mean), np.append(m2[1:-1], tail.m2))


def goe_density(m: int, v: float, x):
    """Exact one-point density of GOE(m, v) at x, with mass 1 like ``one_point_correlation``.

    Mehta's Hermite-function formula (Random Matrices, 3rd ed., ch. 7) for
    the eigenvalue law prop. to |Delta(y)| exp(-sum y^2 / 2), y = x / sqrt(2v):
    rho_m = sum_{k<m} phi_k^2 + sqrt(m/2) phi_{m-1} (I_m - J_m / 2), plus
    phi_{m-1} / J_{m-1} at odd m, with phi_k the Hermite functions, I_k(y)
    the integral of phi_k up to y and J_k = I_k(inf), 0 at odd k.  phi_k and
    I_k run forward by three-term recurrences from phi_0 and I_0 (``ndtr``);
    phi_k's rescaled one (``_hermite_functions``) does not underflow, so every
    m >= 1 has its exact density (mass 1 to about 1e-14 at m = 1500).  Returns
    rho_m(y) / (m sqrt(2v)), shaped like x: 0 far from the spectrum.
    """
    EnsembleParams(m, 0.0, v)
    scale = math.sqrt(2.0 * v)
    with np.errstate(over="ignore"):
        # past |y| = 1e4 every phi_k, k < 4e7, is 0, so the clip changes no value; it keeps phi_0's exponent an int32
        y = np.clip(np.asarray(x, dtype=float) / scale, -1e4, 1e4)
    j0 = math.pi ** -0.25 * math.sqrt(2.0 * math.pi)
    i_prev, i_cur, total = 0.0, j0 * ndtr(y), 0.0
    for k, phi in enumerate(_hermite_functions(y, m)):  # leaves phi = phi_{m-1} and i_cur = I_m
        total = total + phi * phi
        i_prev, i_cur = i_cur, math.sqrt(k / (k + 1)) * i_prev - math.sqrt(2.0 / (k + 1)) * phi
    j_even = j0 * math.prod(math.sqrt((k - 1) / k) for k in range(2, m + 1, 2))  # J_m, or J_{m-1} at odd m
    if m % 2:
        return (total + math.sqrt(m / 2.0) * phi * i_cur + phi / j_even) / (m * scale)
    return (total + math.sqrt(m / 2.0) * phi * (i_cur - 0.5 * j_even)) / (m * scale)
