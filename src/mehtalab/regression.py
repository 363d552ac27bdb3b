"""Finite-dimensional Gaussian regression.

Given jointly Gaussian vectors X, Y with correlator C (mapping X-space to
Y-space), the regression operator R = C Var[X]^{-1} gives the conditional
mean map, and the residual covariance D = Var[Y] - C Var[X]^{-1} C^T gives
the conditional law, Y | X=x ~ N(offset + R x, D).

The module also builds the specific pair used by the sphere computation: the
joint law of W = (value/2, gradient) and the Hessian of the quadratic field
at the north pole, whose conditional Hessian is again a GOE matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from mehtalab.estimation import EstimatorResult, mc_estimate
from mehtalab.spectral import batched_eigvals
from mehtalab.symspace import (
    EnsembleParams,
    covariance_reference,
    ell_coords_batch,
    omega_coords_batch,
    sample_goe_batch,
    sym_dim,
)

__all__ = [
    "GaussianVector",
    "JointGaussian",
    "RegressionResult",
    "DegenerateConditioningError",
    "empirical_correlator",
    "regress",
    "conditional_sample",
    "hessian_regression_pair",
    "hessian_pair_samples",
    "conditional_hessian_moments",
]

SYMMETRY_TOL = 1e-12
PSD_TOL = -1e-10


class DegenerateConditioningError(ValueError):
    """Conditioning variable has a (numerically) singular covariance."""

    def __init__(self, min_eigenvalue: float, threshold: float):
        super().__init__(
            f"conditioning covariance is degenerate: smallest eigenvalue "
            f"{min_eigenvalue:.6e} is not above threshold {threshold:.6e}"
        )
        self.min_eigenvalue = min_eigenvalue
        self.threshold = threshold


def _min_eig(mat: np.ndarray) -> float:
    return float(batched_eigvals(mat)[0, 0])


@dataclass(frozen=True)
class GaussianVector:
    """Mean and covariance operator of a Gaussian vector in R^dim."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match the mean")
        if cov.size and float(np.max(np.abs(cov - cov.T))) > SYMMETRY_TOL:
            raise ValueError("covariance is not symmetric to 1e-12")
        if _min_eig(cov) < PSD_TOL:
            raise ValueError("covariance has an eigenvalue below -1e-10")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    def degeneracy_threshold(self) -> float:
        return 1e-10 * float(np.trace(self.cov)) / max(self.dim, 1)


@dataclass(frozen=True)
class JointGaussian:
    """Two Gaussian vectors with their cross correlator C (Y-by-X matrix)."""

    x: GaussianVector
    y: GaussianVector
    cross: np.ndarray

    def __post_init__(self):
        cross = np.asarray(self.cross, dtype=float)
        if cross.shape != (self.y.dim, self.x.dim):
            raise ValueError("cross correlator must be dim_y by dim_x")
        object.__setattr__(self, "cross", cross)
        if _min_eig(self.block()) < PSD_TOL:
            raise ValueError("joint covariance block has an eigenvalue below -1e-10")

    def block(self) -> np.ndarray:
        dx, dy = self.x.dim, self.y.dim
        b = np.zeros((dx + dy, dx + dy))
        b[:dx, :dx] = self.x.cov
        b[dx:, dx:] = self.y.cov
        b[dx:, :dx] = self.cross
        b[:dx, dx:] = self.cross.T
        return b


@dataclass
class RegressionResult:
    """Regression operator, residual covariance, and affine offset."""

    operator: np.ndarray
    residual_cov: np.ndarray
    offset: np.ndarray
    _sqrt: np.ndarray | None = field(default=None, repr=False)

    def conditional_mean(self, x) -> np.ndarray:
        return self.offset + self.operator @ np.atleast_1d(np.asarray(x, dtype=float))

    def residual_sqrt(self) -> np.ndarray:
        """Factor S with S S^T equal to the residual covariance.

        Uses an eigendecomposition square root; eigenvalues in [-1e-10, 0)
        are clipped to zero (roundoff on a PSD operator), anything lower is
        an error.
        """
        if self._sqrt is None:
            w, vec = np.linalg.eigh(self.residual_cov)
            if w[0] < PSD_TOL:
                raise ValueError(
                    f"residual covariance has eigenvalue {w[0]:.3e} below -1e-10"
                )
            w = np.maximum(w, 0.0)
            self._sqrt = vec * np.sqrt(w)[None, :]
        return self._sqrt

    def to_dict(self) -> dict:
        return {
            "R": self.operator.tolist(),
            "Delta": self.residual_cov.tolist(),
            "offset": self.offset.tolist(),
            "dim_y": int(self.operator.shape[0]),
            "dim_x": int(self.operator.shape[1]),
        }


def empirical_correlator(xs: np.ndarray, ys: np.ndarray) -> JointGaussian:
    """Joint Gaussian with empirical means, covariances, and cross covariance.

    ``xs`` and ``ys`` are (n, dim_x) and (n, dim_y) sample stacks with n >= 2.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape[0] != ys.shape[0]:
        raise ValueError("x and y sample counts differ")
    n = xs.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples")
    mx = xs.mean(axis=0)
    my = ys.mean(axis=0)
    xc = xs - mx
    yc = ys - my
    cov_x = xc.T @ xc / (n - 1)
    cov_y = yc.T @ yc / (n - 1)
    cross = yc.T @ xc / (n - 1)
    cov_x = 0.5 * (cov_x + cov_x.T)
    cov_y = 0.5 * (cov_y + cov_y.T)
    return JointGaussian(GaussianVector(mx, cov_x), GaussianVector(my, cov_y), cross)


def regress(j: JointGaussian) -> RegressionResult:
    """Regression operator, residual covariance, and offset for a joint law.

    The inverse of Var[X] is never formed; both the operator and the residual
    correction are computed through a Cholesky solve.
    """
    thr = j.x.degeneracy_threshold()
    mineig = _min_eig(j.x.cov)
    if not mineig > thr:
        raise DegenerateConditioningError(mineig, thr)
    chol = np.linalg.cholesky(j.x.cov)
    # W = L^{-1} C_{X,Y}; then D = W^T W and R = (L^{-T} W)^T
    w = solve_triangular(chol, j.cross.T, lower=True)
    operator = solve_triangular(chol.T, w, lower=False).T
    explained = w.T @ w
    residual = j.y.cov - explained
    residual = 0.5 * (residual + residual.T)
    offset = j.y.mean - operator @ j.x.mean
    return RegressionResult(operator=operator, residual_cov=residual, offset=offset)


def conditional_sample(
    res: RegressionResult, x, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Draw from the conditional law N(offset + R x, residual covariance).

    Returns a (dim_y,) vector, or (size, dim_y) when ``size`` is given.
    """
    mean = res.conditional_mean(x)
    s = res.residual_sqrt()
    if size is None:
        return mean + s @ rng.normal(size=mean.size)
    return mean[None, :] + rng.normal(size=(size, mean.size)) @ s.T


# ---------------------------------------------------------------------------
# The sphere pair: W = (field value / 2 shift, gradient) against the Hessian


def hessian_regression_pair(m: int, v: float, coords: str = "ell") -> JointGaussian:
    """Analytic joint law of (W, Hessian coordinates) at the north pole.

    For an (m+1) x (m+1) GOE(v) matrix A, the field value at the north pole
    is a_00/2, the gradient is (a_01, ..., a_0m), and the tangent Hessian is
    the lower block minus a_00 times the identity.  X = W stacks value and
    gradient (dim m+1); Y is the Hessian in flat ('ell') or orthonormal
    ('omega') coordinates (dim m(m+1)/2).

    Derived from the entry covariances: Var W_0 = v/2, Var W_k = v for k >= 1,
    cov(diagonal coordinate, W_0) = -v, every other cross covariance zero, and
    the Hessian marginal lies in the (u=2v, v) invariant ensemble.
    """
    EnsembleParams(m, 0.0, v)
    if coords not in ("ell", "omega"):
        raise ValueError("coords must be 'ell' or 'omega'")
    dx = m + 1
    p = sym_dim(m)
    var_w = np.diag([v / 2.0] + [v] * m)
    cov_y = covariance_reference(EnsembleParams(m, 2.0 * v, v))
    on_diag = np.equal(*np.triu_indices(m))
    if coords == "omega":
        # an off-diagonal omega coordinate is sqrt(2) times its flat one: its own variance doubles
        cov_y[~on_diag, ~on_diag] *= 2.0
    cross = np.zeros((p, dx))
    cross[on_diag, 0] = -v
    return JointGaussian(
        GaussianVector(np.zeros(dx), var_w),
        GaussianVector(np.zeros(p), cov_y),
        cross,
    )


def hessian_pair_samples(m: int, v: float, n: int, rng: np.random.Generator, coords: str = "ell"):
    """Sample (W, Hessian coordinates) pairs from the ambient GOE(m+1, v)."""
    EnsembleParams(m, 0.0, v)
    if coords not in ("ell", "omega"):
        raise ValueError("coords must be 'ell' or 'omega'")
    amb = sample_goe_batch(m + 1, v, n, rng)
    w = np.empty((n, m + 1))
    w[:, 0] = 0.5 * amb[:, 0, 0]
    w[:, 1:] = amb[:, 0, 1:]
    hess = amb[:, 1:, 1:].copy()
    d = np.arange(m)
    hess[:, d, d] -= amb[:, 0, 0][:, None]
    to_coords = ell_coords_batch if coords == "ell" else omega_coords_batch
    return w, to_coords(hess)


def conditional_hessian_moments(
    m: int,
    v: float,
    n_samples: int,
    seed: int = 0,
    workers: int | None = None,
    t: float = 1.0,
    method: str = "conditional",
) -> dict[str, EstimatorResult]:
    """Moment audit of the conditional Hessian law against GOE(m, v).

    method='conditional' conditions the analytic pair on value t, so that
    W = (t/2, 0, ..., 0), and draws from the conditional law; the centered
    draws must have diagonal variance 2v, vanishing diagonal-diagonal
    covariance, off-diagonal variance 2v, and mean -t on the diagonal.

    method='residual' samples the ambient (m+1)-dimensional GOE instead and
    subtracts the regression prediction from the observed Hessian; those
    residuals must show the same GOE(m, v) moments with mean zero.

    All checks run in orthonormal coordinates; a companion run in flat
    coordinates is a factor-of-sqrt(2) regression test left to the suite.
    """
    if method not in ("conditional", "residual"):
        raise ValueError("method must be 'conditional' or 'residual'")
    pair = hessian_regression_pair(m, v, coords="omega")
    res = regress(pair)
    x = np.zeros(m + 1)
    x[0] = t / 2.0
    cond_mean = res.conditional_mean(x)
    # flat coordinates are in np.triu_indices(m) order
    on_diag = np.equal(*np.triu_indices(m))
    iu, ju = np.triu_indices(m, 1)

    def moment_columns(draws, centered):
        diag = centered[:, on_diag]
        stats = [draws[:, on_diag].mean(axis=1), (diag ** 2).mean(axis=1)]
        if m > 1:
            stats += [(diag[:, iu] * diag[:, ju]).mean(axis=1), (centered[:, ~on_diag] ** 2).mean(axis=1)]
        return np.stack(stats, axis=1)

    if method == "conditional":
        def columns(rng, size):
            draws = conditional_sample(res, x, rng, size=size)
            return moment_columns(draws, draws - cond_mean[None, :])

        diag_mean_ref = -t
    else:
        def columns(rng, size):
            w, hess = hessian_pair_samples(m, v, size, rng, coords="omega")
            resid = hess - w @ res.operator.T
            return moment_columns(resid, resid)

        diag_mean_ref = 0.0

    names = ["diag_mean", "diag_var", "diag_diag_cov", "offdiag_var"]
    # at m = 1 there is neither a pair of diagonal coordinates nor an off-diagonal one
    refs = [diag_mean_ref, 2.0 * v, 0.0, 2.0 * v][:4 if m > 1 else 2]
    return dict(zip(names, mc_estimate(columns, n_samples, seed, workers, reference=refs)))
