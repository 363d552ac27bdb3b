"""The Mehta integral and its sphere-side reproduction.

Closed form, exact ratio recursion, brute-force quadrature and Monte Carlo
evaluation, the determinant-moment identity linking E|det(A - c)| over GOE to
the ratio of consecutive Mehta integrals, the Kac-Rice density of critical
values of the quadratic field on the sphere, and the end-to-end pipeline that
rebuilds the integrals from sphere-side Monte Carlo alone.

Gamma functions come from the standard library (``math.gamma``,
``math.lgamma``); the quadrature and Monte Carlo routes never use them, so
they stay independent checks on the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from mehtalab.estimation import EstimatorResult, mc_estimate
from mehtalab.spectral import (
    QuadratureError,
    _kernel_density_at,
    _vandermonde_gauss_integral,
    batched_det,
    batched_eigvals,
)
from mehtalab.symspace import sample_goe_batch

__all__ = [
    "vol_sphere",
    "mehta_closed_form",
    "log_mehta_closed_form",
    "mehta_closed_form_scaled",
    "mehta_ratio",
    "mehta_quadrature",
    "mehta_mc",
    "exp_abs_det_mc",
    "detmoment_identity_check",
    "exp_det_pointwise_check",
    "kacrice_density",
    "kacrice_total_mass",
    "kacrice_vs_empirical",
    "KacRiceComparison",
    "reproduce_zm",
]


def vol_sphere(m: int) -> float:
    """Volume (surface measure) of the unit m-sphere in R^(m+1)."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def log_mehta_closed_form(m: int) -> float:
    """log of the Mehta integral value 2^(3m/2) prod_{j<m} Gamma((j+3)/2)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return 1.5 * m * math.log(2.0) + math.fsum(math.lgamma((j + 3) / 2.0) for j in range(m))


def mehta_closed_form(m: int) -> float:
    """The Mehta integral: the Vandermonde-Gaussian integral over R^m."""
    return math.exp(log_mehta_closed_form(m))


def mehta_closed_form_scaled(m: int, v: float) -> float:
    """Normalization of the eigenvalue density at width v: (2v)^(m(m+1)/4) times the integral."""
    if not v > 0.0:
        raise ValueError("v must be positive")
    return math.exp(log_mehta_closed_form(m) + (m * (m + 1) / 4.0) * math.log(2.0 * v))


def mehta_ratio(m: int) -> float:
    """Ratio of consecutive Mehta integrals: 2^(3/2) Gamma((m+3)/2).

    The exponent is 3/2; it is pinned by the recursion test against the
    closed form, which the product formula must reproduce exactly.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    return 2.0 ** 1.5 * math.gamma((m + 3) / 2.0)


@lru_cache(maxsize=8)
def mehta_quadrature(m: int, tol: float = 1e-6) -> float:
    """Brute-force Mehta integral by adaptive quadrature; supports m <= 3.

    This is the independent oracle for the closed form: nothing here knows
    about gamma functions.
    """
    if m not in (1, 2, 3):
        raise ValueError("mehta_quadrature supports m in {1, 2, 3} (cost grows too fast beyond)")
    value, err = _vandermonde_gauss_integral(m, 0.5, None, halfwidth=8.0, atol=0.5 * tol)
    if not err <= tol:
        raise QuadratureError(f"requested {tol:.1e}, achieved only {err:.1e}", err)
    return value


# Kish ESS per draw below which mehta_mc's standard error rests on a few
# dominant weights; with 1e6 draws ESS/n is 0.05 at m = 4, 0.005 at m = 5.
ESS_FLOOR = 1e-3


def mehta_mc(m: int, n_samples: int, seed: int = 0, workers: int = 1) -> EstimatorResult:
    """Importance-sampled Mehta integral: iid standard Gaussian eigenvalues.

    The integral equals (2 pi)^(m/2) E[prod_{i<j} |l_i - l_j|]; the product is
    accumulated in log space so large m cannot overflow a sample weight.  The
    integrand is even under l -> -l, so the antithetic pair of each draw has
    the identical weight and the estimator is plain Monte Carlo over the
    drawn points.  ``meta`` holds the Kish ESS and flags ``degraded`` when
    ESS/n is below ``ESS_FLOOR``; the 4-SE verdict ignores the flag.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")

    def log_weights(rng, size):
        lam = rng.normal(size=(size, m))
        lw = np.zeros(size)
        with np.errstate(divide="ignore"):
            for i in range(m - 1):
                for j in range(i + 1, m):
                    lw += np.log(np.abs(lam[:, i] - lam[:, j]))
        return lw

    res = mc_estimate(
        log_weights,
        n_samples,
        seed,
        workers,
        scale=(2.0 * math.pi) ** (m / 2.0),
        reference=mehta_closed_form(m),
        log_weights=True,
    )
    share = res.meta["ess"] / n_samples
    res.meta["degraded"] = share < ESS_FLOOR
    if res.meta["degraded"]:
        res.meta["reason"] = f"Kish ESS/n = {share:.3g} is below {ESS_FLOOR:g}: the proposal has collapsed"
    return res


def _abs_det_shifted(mats: np.ndarray, shifts: np.ndarray | float) -> np.ndarray:
    a = np.array(mats, copy=True)
    d = np.arange(a.shape[-1])
    if np.ndim(shifts) == 0:
        a[:, d, d] -= shifts
    else:
        a[:, d, d] -= np.asarray(shifts)[:, None]
    return np.abs(batched_det(a))


def exp_abs_det_mc(
    m: int,
    v: float,
    c: float,
    n_samples: int,
    seed: int = 0,
    workers: int = 1,
    reference: float | None = None,
) -> EstimatorResult:
    """Monte Carlo E|det(A - c I)| over GOE(m, v)."""
    if not v > 0.0:
        raise ValueError("v must be positive")

    def weights(rng, size):
        return _abs_det_shifted(sample_goe_batch(m, v, size, rng), c)

    return mc_estimate(weights, n_samples, seed, workers, reference=reference)


def detmoment_identity_check(
    m: int, v: float, n_samples: int, seed: int = 0, workers: int = 1
) -> EstimatorResult:
    """Integrated determinant-moment identity.

    Estimates sqrt(4 pi v) E|det(A - c I)| with A from GOE(m, v) and c an
    independent N(0, 2v) draw; integrating the pointwise identity against the
    Gaussian weight (and using that the one-point density has unit mass)
    shows this equals (2v)^((m+1)/2) times the ratio of consecutive Mehta
    integrals, which serves as the reference.
    """
    if not v > 0.0:
        raise ValueError("v must be positive")

    def weights(rng, size):
        mats = sample_goe_batch(m, v, size, rng)
        shifts = rng.normal(scale=math.sqrt(2.0 * v), size=size)
        return _abs_det_shifted(mats, shifts)

    return mc_estimate(
        weights,
        n_samples,
        seed,
        workers,
        scale=math.sqrt(4.0 * math.pi * v),
        reference=(2.0 * v) ** ((m + 1) / 2.0) * mehta_ratio(m),
    )


def exp_det_pointwise_check(
    m: int,
    v: float,
    c: float,
    n_samples: int,
    seed: int = 0,
    workers: int = 1,
) -> EstimatorResult:
    """Pointwise determinant-moment identity at shift c.

    Left side: Monte Carlo E|det(A - c I)| over GOE(m, v).  Right side:
    exp(c^2/4v) (2v)^((m+1)/2) ratio(m) times a kernel estimate of the
    (m+1)-dimensional one-point density at c, from an independent stream.
    The kernel bandwidth is chosen so the estimated smoothing bias stays
    below half the Monte Carlo standard error; when no admissible bandwidth
    exists the check degrades to the integrated identity and flags it.
    """
    left = exp_abs_det_mc(m, v, c, n_samples, seed, workers)
    factor = math.exp(c * c / (4.0 * v)) * (2.0 * v) ** ((m + 1) / 2.0) * mehta_ratio(m)

    # pilot pass for the curvature of the density at c; the pilot is noisy at
    # small sample counts, so it is floored by the curvature scale of a
    # Gaussian with the ensemble's per-eigenvalue variance v (m + 2)
    pilot_n = max(2000, n_samples // 20)
    sigma_lam = math.sqrt(v * (m + 2))
    pilot_h = 0.25 * sigma_lam
    _, _, curv = _kernel_density_at(
        m + 1, v, np.array([c]), pilot_h, pilot_n, seed, workers, stream=2
    )
    curv_floor = 1.0 / (math.sqrt(2.0 * math.pi) * sigma_lam**3)
    bias_rate = 0.5 * factor * max(abs(float(curv[0])), curv_floor)  # rhs bias ~ rate * h^2
    h_max = 0.35 * sigma_lam  # keep the quadratic bias model honest
    h_min = 1e-3 * math.sqrt(2.0 * v)
    h_target = math.sqrt(0.5 * left.std_error / bias_rate)
    h = min(h_max, h_target)
    degraded = h < h_min
    if degraded:
        fallback = detmoment_identity_check(m, v, n_samples, seed, workers)
        fallback.meta.update({"degraded": True, "reason": "kernel bias cannot be controlled at this sample size"})
        return fallback

    dens, dens_se, _ = _kernel_density_at(
        m + 1, v, np.array([c]), h, n_samples, seed, workers, stream=1
    )
    right = factor * float(dens[0])
    right_se = factor * float(dens_se[0])
    combined = math.hypot(left.std_error, right_se)
    return EstimatorResult(
        estimate=left.estimate,
        std_error=combined,
        n_samples=n_samples,
        seed=seed,
        reference=right,
        meta={
            "bandwidth": h,
            "bias_bound": bias_rate * h * h,
            "left_se": left.std_error,
            "right_se": right_se,
            "degraded": False,
        },
    )


def _kacrice_prefactor(m: int, v: float) -> float:
    # gradient density at zero times the sphere volume
    return (2.0 * math.pi * v) ** (-m / 2.0) * vol_sphere(m)


def kacrice_density(
    m: int,
    t: float,
    v: float,
    n_samples: int,
    seed: int = 0,
    workers: int = 1,
    reference: float | None = None,
) -> EstimatorResult:
    """Kac-Rice density of critical values of the sphere field at level t.

    rho(t) = (2 pi v)^(-m/2) vol(S^m) E|det(A - t I)| with A from GOE(m, v):
    the conditional Hessian at a critical point with value t is a GOE(m, v)
    matrix shifted by -t on the diagonal.  (The shift is t, not v t; the two
    agree at v = 1 and the conditional Monte Carlo in the regression suite
    pins the general case.)
    """
    if not v > 0.0:
        raise ValueError("v must be positive")

    def weights(rng, size):
        return _abs_det_shifted(sample_goe_batch(m, v, size, rng), t)

    return mc_estimate(
        weights, n_samples, seed, workers, scale=_kacrice_prefactor(m, v), reference=reference
    )


def _truncation_halfwidth(m: int, v: float) -> float:
    return 10.0 * math.sqrt(v * (m + 1))


def _interval_nodes(a: float, b: float, m: int, v: float):
    """Gauss-Legendre nodes and weights on [a, b] clipped to the trusted box.

    An interval entirely outside the box carries mass below the truncation
    budget and gets no nodes.
    """
    L = _truncation_halfwidth(m, v)
    lo = max(a, -L)
    hi = min(b, L)
    if not hi > lo:
        return np.zeros(0), np.zeros(0)
    count = 80 if (b - a) > 4.0 * L else 64
    nodes, wts = np.polynomial.legendre.leggauss(count)
    t = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * wts
    return t, w


def _kacrice_interval_mc(
    m: int, v: float, a: float, b: float, n_samples: int, seed: int, workers: int,
    stream: int = 0,
) -> EstimatorResult:
    """Quadrature of the Monte Carlo Kac-Rice density over [a, b].

    One common set of GOE(m, v) samples feeds every quadrature node, so the
    integral is a per-sample statistic with an honest standard error.  The
    shifted determinants come from the eigenvalue route here, which keeps
    this estimator independent of the LU-based one.
    """
    t, w = _interval_nodes(a, b, m, v)
    gauss = np.exp(-t * t / (4.0 * v)) / math.sqrt(4.0 * math.pi * v)
    node_w = w * gauss * _kacrice_prefactor(m, v)

    def weights(rng, size):
        lam = batched_eigvals(sample_goe_batch(m, v, size, rng))
        out = np.zeros(size)
        block = max(1, int(5.0e6 / max(t.size * lam.shape[1], 1)))
        for lo_i in range(0, size, block):
            sl = slice(lo_i, min(size, lo_i + block))
            dets = np.abs(np.prod(lam[sl, None, :] - t[None, :, None], axis=2))
            out[sl] = dets @ node_w
        return out

    return mc_estimate(weights, n_samples, seed, workers, stream=stream)


def kacrice_total_mass(
    m: int, v: float, n_samples: int, seed: int = 0, workers: int = 1
) -> EstimatorResult:
    """Total Kac-Rice mass over the line; must come out at 2(m+1)."""
    res = _kacrice_interval_mc(m, v, -math.inf, math.inf, n_samples, seed, workers)
    return replace(res, reference=2.0 * (m + 1))


def _pair_z(x: EstimatorResult, y: EstimatorResult) -> float:
    se = math.hypot(x.std_error, y.std_error)
    diff = x.estimate - y.estimate
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / se


@dataclass
class KacRiceComparison:
    """Three routes to the expected critical-value mass of an interval."""

    interval: tuple[float, float]
    empirical: EstimatorResult
    kacrice: EstimatorResult
    spectral: EstimatorResult
    z_empirical_kacrice: float
    z_empirical_spectral: float
    z_kacrice_spectral: float

    @property
    def passed(self) -> bool:
        return all(
            abs(z) <= 4.0
            for z in (self.z_empirical_kacrice, self.z_empirical_spectral, self.z_kacrice_spectral)
        )

    def to_dict(self) -> dict:
        return {
            "interval": [self.interval[0], self.interval[1]],
            "empirical": self.empirical.to_dict(),
            "kacrice": self.kacrice.to_dict(),
            "spectral": self.spectral.to_dict(),
            "z_empirical_kacrice": self.z_empirical_kacrice,
            "z_empirical_spectral": self.z_empirical_spectral,
            "z_kacrice_spectral": self.z_kacrice_spectral,
            "pass": self.passed,
        }


def kacrice_vs_empirical(
    m: int,
    v: float,
    a: float,
    b: float,
    n_samples: int,
    seed: int = 0,
    workers: int = 1,
) -> KacRiceComparison:
    """Expected critical-value mass of [a, b], three independent ways.

    empirical: eigenvalues of an (m+1)-dimensional GOE(v) draw counted in the
    interval and doubled (each eigenvalue is an antipodal pair of critical
    points).  kacrice: the Gaussian-weighted quadrature of the Monte Carlo
    Kac-Rice density.  spectral: 2(m+1) times the eigenvalue fraction in the
    interval from an independent stream.  Pass requires all pairwise z-scores
    within 4.
    """
    if not b > a:
        raise ValueError("need a < b")
    d = m + 1

    def counts(rng, size):
        lam = batched_eigvals(sample_goe_batch(d, v, size, rng))
        return 2.0 * ((lam >= a) & (lam <= b)).sum(axis=1)

    empirical = mc_estimate(counts, n_samples, seed, workers)

    kacrice = _kacrice_interval_mc(m, v, a, b, n_samples, seed, workers, stream=1)

    def fractions(rng, size):
        lam = batched_eigvals(sample_goe_batch(d, v, size, rng))
        return 2.0 * d * ((lam >= a) & (lam <= b)).mean(axis=1)

    spectral = mc_estimate(fractions, n_samples, seed, workers, stream=2)

    return KacRiceComparison(
        interval=(a, b),
        empirical=empirical,
        kacrice=kacrice,
        spectral=spectral,
        z_empirical_kacrice=_pair_z(empirical, kacrice),
        z_empirical_spectral=_pair_z(empirical, spectral),
        z_kacrice_spectral=_pair_z(kacrice, spectral),
    )


def reproduce_zm(
    m_max: int, n_samples: int, seed: int = 0, workers: int = 1
) -> list[EstimatorResult]:
    """Rebuild the Mehta integrals from sphere-side Monte Carlo alone.

    For each m up to m_max, simulate the conditional Hessian determinant at a
    Gaussian critical value (an m x m GOE(1) draw shifted by an independent
    N(0, 2) level) and solve the total-mass balance equation for the ratio of
    consecutive integrals; cumulative products from the exact one-dimensional
    value sqrt(2 pi) then give every integral up to m_max + 1, with errors
    propagated through the product.
    """
    if m_max < 1:
        raise ValueError("m_max must be a positive integer")
    v = 1.0
    results = []
    log_z = 0.5 * math.log(2.0 * math.pi)
    value = math.exp(log_z)
    rel_var = 0.0
    for m in range(1, m_max + 1):
        def weights(rng, size, _m=m):
            mats = sample_goe_batch(_m, v, size, rng)
            shifts = rng.normal(scale=math.sqrt(2.0 * v), size=size)
            return _abs_det_shifted(mats, shifts)

        est = mc_estimate(
            weights, n_samples, seed, workers,
            scale=math.sqrt(4.0 * math.pi * v) / (2.0 * v) ** ((m + 1) / 2.0),
            stream=m - 1,
        )
        ratio, ratio_se = est.estimate, est.std_error
        value *= ratio
        rel_var += (ratio_se / ratio) ** 2
        results.append(
            EstimatorResult(
                estimate=value,
                std_error=value * math.sqrt(rel_var),
                n_samples=n_samples,
                seed=seed,
                reference=mehta_closed_form(m + 1),
                meta={
                    "m": m + 1,
                    "ratio": ratio,
                    "ratio_se": ratio_se,
                    "ratio_reference": mehta_ratio(m),
                },
            )
        )
    return results
