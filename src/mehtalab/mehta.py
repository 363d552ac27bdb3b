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

from mehtalab.estimation import (
    ESS_FLOOR,
    Z_THRESHOLD,
    EstimatorResult,
    Moments,
    _finite_or_none,
    map_chunks,
    mc_estimate,
    z_scores,
)
from mehtalab.spectral import (
    GOE_DENSITY_MAX_M,
    QuadratureError,
    _vandermonde_gauss_integral,
    batched_det,
    batched_eigvals,
    goe_density,
    tridiagonal_pivots,
)
from mehtalab.symspace import EnsembleParams, sample_goe_batch, sample_goe_tridiagonal

__all__ = [
    "ESS_FLOOR",
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
    "kacrice_vs_empirical",
    "kacrice_intervals",
    "KacRiceComparison",
    "reproduce_zm",
]


def vol_sphere(m: int) -> float:
    """Volume (surface measure) of the unit m-sphere in R^(m+1)."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def log_mehta_closed_form(m: int) -> float:
    """log of the Mehta integral value 2^(3m/2) prod_{j<m} Gamma((j+3)/2)."""
    EnsembleParams(m)
    return 1.5 * m * math.log(2.0) + math.fsum(math.lgamma((j + 3) / 2.0) for j in range(m))


def mehta_closed_form(m: int) -> float:
    """The Mehta integral: the Vandermonde-Gaussian integral over R^m."""
    return math.exp(log_mehta_closed_form(m))


def mehta_closed_form_scaled(m: int, v: float) -> float:
    """Normalization of the eigenvalue density at width v: (2v)^(m(m+1)/4) times the integral."""
    EnsembleParams(m, 0.0, v)
    return math.exp(log_mehta_closed_form(m) + (m * (m + 1) / 4.0) * math.log(2.0 * v))


def mehta_ratio(m: int) -> float:
    """Ratio of consecutive Mehta integrals: 2^(3/2) Gamma((m+3)/2).

    The exponent is 3/2; it is pinned by the recursion test against the
    closed form, which the product formula must reproduce exactly.  Raises
    OverflowError when the product leaves the float range (m >= 340).
    """
    EnsembleParams(m)
    ratio = 2.0 ** 1.5 * math.gamma((m + 3) / 2.0)
    if math.isinf(ratio):
        raise OverflowError(f"mehta_ratio({m}) overflows a float")
    return ratio


@lru_cache(maxsize=8)
def mehta_quadrature(m: int, tol: float = 1e-6) -> float:
    """Brute-force Mehta integral by adaptive quadrature; supports m <= 3.

    This is the independent oracle for the closed form: nothing here knows
    about gamma functions.
    """
    EnsembleParams(m)
    if m not in (1, 2, 3):
        raise ValueError("mehta_quadrature supports m in {1, 2, 3} (cost grows too fast beyond)")
    value, err = _vandermonde_gauss_integral(m, 0.5, None, halfwidth=8.0, atol=0.5 * tol)
    if not err <= tol:
        raise QuadratureError(f"requested {tol:.1e}, achieved only {err:.1e}", err)
    return value


def mehta_mc(m: int, n_samples: int, seed: int = 0, workers: int = 1) -> EstimatorResult:
    """Importance-sampled Mehta integral: iid standard Gaussian eigenvalues.

    The integral equals (2 pi)^(m/2) E[prod_{i<j} |l_i - l_j|]; the product is
    accumulated in log space so large m cannot overflow a sample weight.  The
    integrand is even under l -> -l, so the antithetic pair of each draw has
    the identical weight and the estimator is plain Monte Carlo over the
    drawn points.  ``meta`` holds the Kish ESS and flags ``degraded`` when
    ESS/n is below ``ESS_FLOOR``; the 4-SE verdict ignores the flag.
    """
    EnsembleParams(m)

    def log_weights(rng, size):
        lam = rng.normal(size=(size, m))
        lw = np.zeros(size)
        with np.errstate(divide="ignore"):
            for i in range(m - 1):
                for j in range(i + 1, m):
                    lw += np.log(np.abs(lam[:, i] - lam[:, j]))
        return lw

    return mc_estimate(
        log_weights,
        n_samples,
        seed,
        workers,
        scale=(2.0 * math.pi) ** (m / 2.0),
        reference=mehta_closed_form(m),
        log_weights=True,
    )


def _abs_det_shifted(mats: np.ndarray, shifts: np.ndarray | float) -> np.ndarray:
    """|det(A - s I)| for a fresh (n, m, m) stack, which is shifted in place.

    ``shifts`` is a scalar or one shift per matrix.
    """
    d = np.arange(mats.shape[-1])
    mats[:, d, d] -= np.asarray(shifts)[..., None]
    return np.abs(batched_det(mats))


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
    EnsembleParams(m, 0.0, v)
    if not math.isfinite(c):
        raise ValueError("c must be a finite number")

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
    EnsembleParams(m, 0.0, v)

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

    Estimate: Monte Carlo E|det(A - c I)| over GOE(m, v) (``exp_abs_det_mc``),
    with its standard error, also in ``meta["left_se"]``.  Reference:
    exp(c^2/4v) (2v)^((m+1)/2) ratio(m) times the exact (m+1)-dimensional
    one-point density at c (``goe_density``), a closed form independent of the
    sampled side.  It is computed first, so an m out of its range fails before
    any draw.
    """
    EnsembleParams(m, 0.0, v)
    if not math.isfinite(c):
        raise ValueError("c must be a finite number")
    density = float(goe_density(m + 1, v, c))
    reference = math.exp(c * c / (4.0 * v)) * (2.0 * v) ** ((m + 1) / 2.0) * mehta_ratio(m) * density
    res = exp_abs_det_mc(m, v, c, n_samples, seed, workers, reference=reference)
    res.meta["left_se"] = res.std_error
    return res


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
    pins the general case.)  The weight is ``exp_abs_det_mc``'s.
    """
    res = exp_abs_det_mc(m, v, t, n_samples, seed, workers)
    scale = _kacrice_prefactor(m, v)
    return replace(res, estimate=scale * res.estimate, std_error=scale * res.std_error,
                   reference=reference)


# one rule per node count: a rule's eigen-solve run between two Monte Carlo
# passes raised the report's peak RSS by about 7 MiB (measured at n = 1e5)
_legendre = lru_cache(maxsize=8)(np.polynomial.legendre.leggauss)

# nodes of the sampled Kac-Rice rule on every interval
_KACRICE_NODES = 64


def _clipped_legendre(m: int, v: float, a: float, b: float, count: int):
    """``count`` Gauss-Legendre nodes and weights on [a, b] clipped to the Kac-Rice box.

    The box is the GOE(m+1, v) spectrum's edge plus 10 sqrt(2v), |t| <= sqrt(2v) (sqrt(2(m+1)) + 10),
    past which the density of critical values is below rounding.  None outside the box.
    """
    halfwidth = math.sqrt(2.0 * v) * (math.sqrt(2.0 * (m + 1)) + 10.0)
    lo = max(a, -halfwidth)
    hi = min(b, halfwidth)
    if not hi > lo:
        return np.zeros(0), np.zeros(0)
    nodes, wts = _legendre(count)
    return 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo), 0.5 * (hi - lo) * wts


def _exact_masses(m: int, v: float, ends: np.ndarray) -> list[float]:
    """Expected critical-value mass 2(m+1) int_a^b goe_density(m+1, v, .) of each interval (K, 2).

    max(256, 4(m+1)) Gauss-Legendre nodes on the interval clipped to the Kac-Rice box; NaN past
    ``GOE_DENSITY_MAX_M``.
    """
    if m + 1 > GOE_DENSITY_MAX_M:
        return [math.nan] * len(ends)
    rules = (_clipped_legendre(m, v, a, b, max(256, 4 * (m + 1))) for a, b in ends)
    return [2.0 * (m + 1) * float(w @ goe_density(m + 1, v, t)) for t, w in rules]


def _column_results(weight_fn, n_samples: int, seed: int, workers: int, stream: int) -> list[EstimatorResult]:
    """One EstimatorResult per column of (size, K) weights; a contiguous column reduces as in ``mc_estimate``."""
    mom = map_chunks(lambda rng, size: Moments.of(np.asfortranarray(weight_fn(rng, size))),
                     n_samples, seed, workers, stream)
    return [EstimatorResult(float(mu), float(se), n_samples, seed) for mu, se in zip(mom.mean, mom.std_error)]


def _kacrice_masses(
    m: int, v: float, ends: np.ndarray, n_samples: int, seed: int, workers: int, stream: int
) -> list[EstimatorResult]:
    """Quadrature of the Monte Carlo Kac-Rice density over each interval [a, b] of ends (K, 2).

    One common set of GOE(m, v) samples feeds every quadrature node of every
    interval, so each integral is a per-sample statistic with an honest
    standard error.  The shifted determinants come from the eigenvalue route
    here, which keeps this estimator independent of the LU-based one.
    """
    nodes = [_clipped_legendre(m, v, a, b, _KACRICE_NODES) for a, b in ends]
    # a node's weight times the N(0, 2v) level density and the Kac-Rice prefactor
    nodes = [(t, w * (np.exp(-t * t / (4.0 * v)) / math.sqrt(4.0 * math.pi * v)) * _kacrice_prefactor(m, v))
             for t, w in nodes]
    width = max(len(t) for t, _ in nodes)

    def weights(rng, size):
        lam = batched_eigvals(sample_goe_batch(m, v, size, rng))
        out, buf = np.empty((len(nodes), size)), np.empty((2, size * width))
        for row, (t, node_w) in zip(out, nodes):
            # det(A - t I) at every node, one eigenvalue factor at a time, in place
            # in the contiguous heads of two buffers sized for the widest node set
            dets, diff = buf[:, :size * len(t)].reshape(2, size, -1)
            np.subtract(lam[:, 0, None], t, out=dets)
            for k in range(1, m):
                dets *= np.subtract(lam[:, k, None], t, out=diff)
            row[:] = np.abs(dets, out=dets) @ node_w
        return out.T

    return _column_results(weights, n_samples, seed, workers, stream)


def _pair_z(x: EstimatorResult, y: EstimatorResult) -> float:
    return float(z_scores(x.estimate, y.estimate, math.hypot(x.std_error, y.std_error)))


@dataclass
class KacRiceComparison:
    """Three routes to the expected critical-value mass of an interval, and its exact value.

    The verdict reads the three pairwise z-scores; ``to_dict`` adds each route's z against ``exact``.
    """

    interval: tuple[float, float]
    empirical: EstimatorResult
    kacrice: EstimatorResult
    spectral: EstimatorResult
    z_empirical_kacrice: float
    z_empirical_spectral: float
    z_kacrice_spectral: float
    exact: float

    @property
    def passed(self) -> bool:
        zs = (self.z_empirical_kacrice, self.z_empirical_spectral, self.z_kacrice_spectral)
        return all(abs(z) <= Z_THRESHOLD for z in zs)

    def to_dict(self) -> dict:
        return {
            "interval": [_finite_or_none(end) for end in self.interval],
            "empirical": self.empirical.to_dict(),
            "kacrice": self.kacrice.to_dict(),
            "spectral": self.spectral.to_dict(),
            "z_empirical_kacrice": _finite_or_none(self.z_empirical_kacrice),
            "z_empirical_spectral": _finite_or_none(self.z_empirical_spectral),
            "z_kacrice_spectral": _finite_or_none(self.z_kacrice_spectral),
            "exact": _finite_or_none(self.exact),
            **{f"z_{k}_exact": _finite_or_none(float(z_scores(r.estimate, self.exact, r.std_error)))
               for k, r in (("empirical", self.empirical), ("kacrice", self.kacrice), ("spectral", self.spectral))},
            "pass": self.passed,
        }


def kacrice_intervals(
    m: int, v: float, intervals, n_samples: int, seed: int = 0, workers: int = 1
) -> list[KacRiceComparison]:
    """Expected critical-value mass of each interval (a, b), three independent ways.

    empirical: eigenvalues of an (m+1)-dimensional GOE(v) draw counted in the
    interval and doubled (each eigenvalue is an antipodal pair of critical
    points).  kacrice: the Gaussian-weighted quadrature of the Monte Carlo
    Kac-Rice density.  spectral: the Sturm count 2 (neg(b) - neg(a)), neg(s)
    the negative pivots of T - s I on tridiagonal draws: no eigensolver and
    another sampler, which the empirical count witnesses.  Pass requires all
    pairwise z-scores within 4.  Each route is one pass on its own stream
    (0, 1, 2) whose draws serve every interval, so the comparisons are views
    of one set of draws, each bit-identical to its one-interval call.  Each
    comparison also carries the exact mass (``_exact_masses``).
    """
    EnsembleParams(m, 0.0, v)
    ends = np.array(intervals, dtype=float).reshape(-1, 2)
    if not (len(ends) and (ends[:, 1] > ends[:, 0]).all()):
        raise ValueError("need at least one interval, each with a < b")

    def counts(rng, size):
        lam = batched_eigvals(sample_goe_batch(m + 1, v, size, rng))
        return 2.0 * ((lam >= ends[:, 0, None, None]) & (lam <= ends[:, 1, None, None])).sum(axis=2).T

    def sturm_counts(rng, size):
        shifts = np.tile(ends.ravel(), (size, 1))  # a_1, b_1, a_2, b_2, ...
        neg = (tridiagonal_pivots(*sample_goe_tridiagonal(m + 1, v, size, rng), shifts) < 0.0).sum(axis=0)
        return 2.0 * (neg[:, 1::2] - neg[:, ::2])

    empirical = _column_results(counts, n_samples, seed, workers, stream=0)
    kacrice = _kacrice_masses(m, v, ends, n_samples, seed, workers, stream=1)
    spectral = _column_results(sturm_counts, n_samples, seed, workers, stream=2)
    return [KacRiceComparison((float(a), float(b)), e, k, s, _pair_z(e, k), _pair_z(e, s), _pair_z(k, s), x)
            for (a, b), e, k, s, x in zip(ends, empirical, kacrice, spectral, _exact_masses(m, v, ends))]


def kacrice_vs_empirical(
    m: int, v: float, a: float, b: float, n_samples: int, seed: int = 0, workers: int = 1
) -> KacRiceComparison:
    """Expected critical-value mass of [a, b] three ways: ``kacrice_intervals`` of one interval."""
    return kacrice_intervals(m, v, [(a, b)], n_samples, seed, workers)[0]


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

    The determinant depends on the spectrum only, so each draw is a
    tridiagonal matrix with the GOE spectrum and its shifted determinant is
    the product of its pivots (``tridiagonal_pivots``): no m x m array and no
    LU.  The dense GOE + LU routes (``exp_abs_det_mc``,
    ``detmoment_identity_check``) are its independent witness.
    """
    EnsembleParams(m_max)
    v = 1.0
    results = []
    log_z = 0.5 * math.log(2.0 * math.pi)
    value = math.exp(log_z)
    rel_var = 0.0
    for m in range(1, m_max + 1):
        def weights(rng, size, _m=m):
            diag, off_sq = sample_goe_tridiagonal(_m, v, size, rng)
            shifts = rng.normal(scale=math.sqrt(2.0 * v), size=size)
            return np.abs(tridiagonal_pivots(diag, off_sq, shifts).prod(axis=0))

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
