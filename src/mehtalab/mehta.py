"""The Mehta integral and its sphere-side reproduction.

Closed form, exact ratio recursion, Pfaffian quadrature and Monte Carlo
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
from dataclasses import dataclass
from functools import partial

import numpy as np

from mehtalab.estimation import (
    ESS_FLOOR,
    Z_THRESHOLD,
    EstimatorResult,
    Moments,
    _finite_or_none,
    _worker_count,
    map_chunks,
    mc_estimate,
    z_scores,
)
from mehtalab.spectral import (
    QuadratureError,
    _legendre,
    _pfaffian_log_integral,
    _rescale,
    batched_count_below,
    batched_det,
    goe_density,
)
from mehtalab.symspace import EnsembleParams, map_goe_slabs, sample_goe_batch, sample_goe_tridiagonal

__all__ = [
    "ESS_FLOOR",
    "vol_sphere",
    "mehta_closed_form",
    "log_mehta_closed_form",
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


def mehta_quadrature(m: int, tol: float = 1e-6) -> float:
    """Brute-force Mehta integral: de Bruijn's Pfaffian with h = 1, to relative ``tol`` (else QuadratureError).

    This is the independent oracle for the closed form: nothing here knows
    about gamma functions.  Past the float range (m >= 40) it raises OverflowError.
    """
    EnsembleParams(m)
    log_value, err = _pfaffian_log_integral(m)
    if not err <= tol:
        raise QuadratureError(f"requested {tol:.1e}, achieved only {err:.1e}", err)
    return math.exp(log_value)


def mehta_mc(m: int, n_samples: int, seed: int = 0, workers: int | None = None) -> EstimatorResult:
    """Importance-sampled Mehta integral: iid N(0, s^2) eigenvalues, s^2 = (m + 1)/2, the ensemble's scale.

    The integral is (2 pi s^2)^(m/2) E[prod_{i<j} |l_i - l_j| exp(-(1 - 1/s^2) sum l_i^2 / 2)], exact at m = 1,
    with log weights so large m cannot overflow one.  The integrand is even, so each draw's antithetic pair has
    the same weight and plain Monte Carlo over the drawn points serves.  ``meta`` holds the Kish ESS and flags
    ``degraded`` when ESS/n is below ``ESS_FLOOR``; the 4-SE verdict ignores the flag.
    """
    EnsembleParams(m)
    var = (m + 1) / 2.0

    def log_weights(rng, size):
        lam = rng.standard_normal(size=(size, m))
        lam *= math.sqrt(var)  # normal(0, s)'s bits, with no second array
        return (lam * lam) @ np.full(m, -0.5 * (1.0 - 1.0 / var)) + _log_vandermonde(lam)  # gemv: sum took 4x as long

    return mc_estimate(
        log_weights,
        n_samples,
        seed,
        workers,
        scale=(2.0 * math.pi * var) ** (m / 2.0),
        reference=mehta_closed_form(m),
        log_weights=True,
    )


def _log_vandermonde(lam: np.ndarray) -> np.ndarray:
    """log prod_{i<j} |lam_i - lam_j| of each row of lam (n, m), -inf at a tie: one running product per row,
    ``frexp``-rescaled every 16 factors so it stays in the float range, and one log (a log per pair cost more)."""
    prod, tmp, exponent = np.ones(len(lam)), np.empty(len(lam)), 0
    for k, (i, j) in enumerate(zip(*np.triu_indices(lam.shape[1], 1)), start=1):
        prod *= np.abs(np.subtract(lam[:, i], lam[:, j], out=tmp), out=tmp)
        if k % 16 == 0:
            exponent = exponent + np.frexp(prod, out=(prod, None))[1]
    with np.errstate(divide="ignore"):
        return np.log(prod) + exponent * math.log(2.0)


def _abs_det_shifted(mats: np.ndarray, shifts: np.ndarray | float) -> np.ndarray:
    """|det(A - s I)| for a fresh (n, m, m) stack, which is shifted in place.

    ``shifts`` is a scalar or one shift per matrix.
    """
    d = np.arange(mats.shape[-1])
    mats[:, d, d] -= np.asarray(shifts)[..., None]
    return np.abs(batched_det(mats))


def exp_abs_det_mc(m: int, v: float, c, n_samples: int, seed: int = 0, workers: int | None = None,
                   reference=None) -> EstimatorResult | list[EstimatorResult]:
    """Monte Carlo E|det(A - c I)| over GOE(m, v) at one level c, or at each level of a 1-D array.

    One pass of dense draws serves every level: the result is one EstimatorResult for a scalar c
    and a list, one per level, for an array (``reference`` then a scalar or one per level).  A
    |det| that leaves the float range raises OverflowError.
    """
    return mc_estimate(_abs_det_weights(m, v, c), n_samples, seed, workers, reference=reference)


def _abs_det_weights(m: int, v: float, c):
    """``exp_abs_det_mc``'s weight function, (size,) or one column per level, after the (m, v) rule and c's check;
    the draws come slab by slab (``map_goe_slabs``), and each level shifts a copy of one slab."""
    EnsembleParams(m, 0.0, v)
    levels = np.asarray(c, dtype=float)
    if levels.ndim > 1 or not np.isfinite(levels).all():
        raise ValueError("c must be a finite number or a 1-D array of them")

    def shifted(mats):
        return (_abs_det_shifted(mats, c) if levels.ndim == 0
                else np.array([_abs_det_shifted(mats.copy(), t) for t in levels]).T)

    def weights(rng, size):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below, once
            w = map_goe_slabs(shifted, m, v, size, rng)
        if not np.isfinite(w).all():
            raise OverflowError(f"|det(A - c I)| at m={m}, v={v:g} leaves the float range")
        return w

    return weights


def detmoment_identity_check(
    m: int, v: float, n_samples: int, seed: int = 0, workers: int | None = None
) -> EstimatorResult:
    """Integrated determinant-moment identity.

    Estimates sqrt(4 pi v) E|det(A - c I)| with A from GOE(m, v) and c an
    independent N(0, 2v) draw; integrating the pointwise identity against the
    Gaussian weight (and using that the one-point density has unit mass)
    shows this equals (2v)^((m+1)/2) times the ratio of consecutive Mehta
    integrals, which serves as the reference.  Its shifts are drawn after the
    matrices, so it keeps whole blocks (``sample_goe_batch``), not slabs.
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


def exp_det_pointwise_check(m: int, v: float, c: float, n_samples: int, seed: int = 0,
                            workers: int | None = None) -> EstimatorResult:
    """Pointwise determinant-moment identity at shift c.

    Estimate: Monte Carlo E|det(A - c I)| over GOE(m, v) (``exp_abs_det_mc``),
    with its standard error.  Reference:
    exp(c^2/4v) (2v)^((m+1)/2) ratio(m) times the exact (m+1)-dimensional
    one-point density at c (``goe_density``), a closed form independent of the
    sampled side.  It is computed first, so a reference that leaves the float
    range (from m = 340 the ratio overflows) fails before any draw.
    """
    weights = _abs_det_weights(m, v, c)  # the (m, v) rule and c's check come before the reference
    density = float(goe_density(m + 1, v, c))
    try:
        reference = math.exp(c * c / (4.0 * v)) * (2.0 * v) ** ((m + 1) / 2.0) * mehta_ratio(m) * density
    except OverflowError:  # from exp, the power or the ratio: named below
        reference = math.inf
    if not math.isfinite(reference):
        raise OverflowError(f"the pointwise reference at m={m}, v={v:g}, c={c:g} leaves the float range")
    return mc_estimate(weights, n_samples, seed, workers, reference=reference)


def _kacrice_prefactor(m: int, v: float) -> float:
    # gradient density at zero times the sphere volume
    return (2.0 * math.pi * v) ** (-m / 2.0) * vol_sphere(m)


def kacrice_density(m: int, t, v: float, n_samples: int, seed: int = 0, workers: int | None = None,
                    reference=None) -> EstimatorResult | list[EstimatorResult]:
    """Kac-Rice density of critical values of the sphere field at level t, or at each level of a 1-D array.

    rho(t) = (2 pi v)^(-m/2) vol(S^m) E|det(A - t I)| with A from GOE(m, v):
    the conditional Hessian at a critical point with value t is a GOE(m, v)
    matrix shifted by -t on the diagonal.  (The shift is t, not v t; the two
    agree at v = 1 and the conditional Monte Carlo in the regression suite
    pins the general case.)  The weights are ``exp_abs_det_mc``'s, whose one
    pass serves every level: an array t gives one result per level, judged
    against ``reference``, a scalar or one per level.
    """
    weights = _abs_det_weights(m, v, t)  # the (m, v) rule before the prefactor reads them
    return mc_estimate(weights, n_samples, seed, workers, scale=_kacrice_prefactor(m, v), reference=reference)


# nodes of the sampled Kac-Rice rule on every interval
_KACRICE_NODES = 64


def _box_halfwidth(m: int, v: float) -> float:
    """The Kac-Rice box |t| <= sqrt(2v) (sqrt(2(m+1)) + 10), the GOE(m+1, v) spectrum's edge plus 10 sqrt(2v)."""
    return math.sqrt(2.0 * v) * (math.sqrt(2.0 * (m + 1)) + 10.0)


def _clipped_legendre(m: int, v: float, a: float, b: float, count: int):
    """``count`` Gauss-Legendre nodes and weights on [a, b] clipped to the Kac-Rice box, none outside it.

    Past the box the density of critical values is below rounding.
    """
    halfwidth = _box_halfwidth(m, v)
    lo = max(a, -halfwidth)
    hi = min(b, halfwidth)
    if not hi > lo:
        return np.zeros(0), np.zeros(0)
    nodes, wts = _legendre(count)
    return 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo), 0.5 * (hi - lo) * wts


def _exact_masses(m: int, v: float, ends: np.ndarray) -> list[float]:
    """Expected critical-value mass 2(m+1) int_a^b goe_density(m+1, v, .) of each interval (K, 2), by
    max(256, 4(m+1)) Gauss-Legendre nodes on the interval clipped to the Kac-Rice box."""
    rules = (_clipped_legendre(m, v, a, b, max(256, 4 * (m + 1))) for a, b in ends)
    return [2.0 * (m + 1) * float(w @ goe_density(m + 1, v, t)) for t, w in rules]


def _continuant(diag: np.ndarray, off_sq: np.ndarray, t, g, bufs: np.ndarray, neg: np.ndarray | None = None) -> np.ndarray:
    """g det(T - t I) of step-major draws by p_0 = g, p_k = (a_k - t) p_{k-1} - b_{k-1}^2 p_{k-2}.

    The sweep runs in place in the three rows of ``bufs`` (3, n), with no division, and returns the
    row that holds p_m.  Every 16 steps it ``_rescale``s both live rows, and p_m takes the summed
    exponents back at the end: p_m is the unscaled sweep's bit for bit wherever that is finite.
    ``neg`` (n,), if given, gains each draw's sign changes of (p_0, ..., p_m) with zeros dropped:
    the number of eigenvalues of T below t (Sturm).
    """
    prev, det, tmp = bufs
    prev.fill(g)
    np.subtract(diag[0], t, out=det)
    det *= g
    exponent = 0
    # a pair's sign change is its product's sign bit; a zero p_k, k < m, sits between opposite signs
    # (p_{k+1} = -b_k^2 p_{k-1}), so its two pairs count once whatever its own sign bit
    for k, (a, b_sq) in enumerate(zip(diag[1:], off_sq), start=2):
        if neg is not None:  # the pair (p_{k-2}, p_{k-1})
            neg += np.signbit(np.multiply(prev, det, out=tmp))
        np.multiply(b_sq, prev, out=tmp)
        np.subtract(a, t, out=prev)
        prev *= det
        prev -= tmp
        prev, det = det, prev
        if k % 16 == 0:
            exponent = exponent + _rescale(prev, det)
    if neg is not None:  # the pair (p_{m-1}, p_m), only where p_m is not zero
        neg += np.signbit(np.multiply(prev, det, out=tmp)) & (det != 0.0)
    return np.ldexp(det, exponent, out=det) if len(diag) >= 16 else det


def _sturm_counts(m: int, v: float, ends: np.ndarray, rng, size: int) -> np.ndarray:
    """Twice the eigenvalue count of each interval of ``ends`` (K, 2) in tridiagonal GOE(m + 1, v) draws, (size, K).

    The count below a finite end is the continuant's sign changes, the end clipped to the Kac-Rice
    box; an infinite end reads 0 or m + 1 with no sweep (the continuant turns +-inf into NaN).  The
    end and the draws are scaled by 2^-c, c the frexp exponent of sqrt(2v), the draws by drawing at
    v 4^-c: exact, and the sweep stays in the float range whatever v and the end are.
    """
    c = math.frexp(math.sqrt(2.0 * v))[1]
    diag, off_sq = sample_goe_tridiagonal(m + 1, math.ldexp(v, -2 * c), size, rng)
    halfwidth, bufs = _box_halfwidth(m, v), np.empty((3, size))
    neg = np.zeros((ends.size, size), dtype=np.int64)
    for row, s in zip(neg, ends.ravel()):  # a_1, b_1, a_2, ...
        if s == math.inf:
            row.fill(m + 1)
        elif s > -math.inf:
            with np.errstate(over="ignore"):  # only the signs are read; det itself may pass the float range
                _continuant(diag, off_sq, math.ldexp(min(max(s, -halfwidth), halfwidth), -c), 1.0, bufs, row)
    return 2.0 * np.subtract(neg[1::2], neg[::2]).T


def _kacrice_masses(
    m: int, v: float, ends: np.ndarray, n_samples: int, seed: int, workers: int | None, stream: int
) -> list[EstimatorResult]:
    """Quadrature of the Monte Carlo Kac-Rice density over each interval [a, b] of ends (K, 2).

    One common set of draws feeds every quadrature node of every interval, so each integral is a
    per-sample statistic with an honest standard error.  Each draw is a tridiagonal T with the
    GOE(m, v) spectrum (``sample_goe_tridiagonal``), and det(T - t I) is its continuant
    (``_continuant``): no eigensolver and no LU, so this estimator stays independent of the
    LU-based ``kacrice_density``.  It starts at p_0 = g, the power of two just above
    exp(-t^2 / 4v), so p_m = g det(T - t I) stays finite near the box's edge, and the node
    weight takes g back out exactly.  The route stays in the float range up to m near 300 (the
    limit falls with v), where det(T - t I) overflows in the bulk and the prefactor underflows;
    past it a block raises OverflowError.  Each draw's node sum is added one node at a time, so
    a block holds O(BLOCK (m + K)) floats whatever the node count.
    """

    def node(t, w):
        level = np.exp(-t * t / (4.0 * v))
        g = np.ldexp(1.0, np.frexp(level)[1])
        # weight times N(0, 2v) level density, over g before the prefactor, which would underflow it
        return t, g, w * (level / math.sqrt(4.0 * math.pi * v)) / g * _kacrice_prefactor(m, v)

    nodes = [node(*_clipped_legendre(m, v, a, b, _KACRICE_NODES)) for a, b in ends]

    def weights(rng, size):
        diag, off_sq = sample_goe_tridiagonal(m, v, size, rng)
        out, bufs = np.zeros((len(nodes), size)), np.empty((3, size))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below, once
            for row, (ts, gs, node_w) in zip(out, nodes):
                for t, g, w in zip(ts, gs, node_w):
                    det = _continuant(diag, off_sq, t, g, bufs)
                    row += np.multiply(np.abs(det, out=det), w, out=det)
        if not np.isfinite(out).all():
            raise OverflowError(f"the Kac-Rice continuant at m={m}, v={v:g} leaves the float range")
        return out.T

    return mc_estimate(weights, n_samples, seed, workers, stream=stream)


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
    m: int, v: float, intervals, n_samples: int, seed: int = 0, workers: int | None = None
) -> list[KacRiceComparison]:
    """Expected critical-value mass of each interval (a, b), three independent ways, each a count on [a, b).

    empirical: 2 (below(b) - below(a)) in dense GOE(m + 1, v) draws, below(s) the negative pivots of A - s I
    (``batched_count_below``): each eigenvalue is an antipodal pair of critical points.  kacrice: the Gaussian-weighted
    quadrature of the Monte Carlo Kac-Rice density, det(T - t I) by the continuant of tridiagonal GOE(m) draws.
    spectral: 2 (neg(b) - neg(a)), neg(s) the continuant's sign changes on tridiagonal GOE(m + 1) draws
    (``_sturm_counts``).  The dense count shares neither the Dumitriu-Edelman sampler nor the continuant with the
    other two, and below ``batched_count_below``'s crossover no route calls an eigensolver.  Pass requires all
    pairwise z-scores within 4.  Each route is one pass on its own stream (0, 1, 2) whose draws serve every interval,
    each comparison bit-identical to its one-interval call.  The Kac-Rice route (``_kacrice_masses``) runs first,
    so past its float range it raises OverflowError before any dense draw.  Each also carries the exact mass.
    """
    EnsembleParams(m, 0.0, v)
    ends = np.array(intervals, dtype=float).reshape(-1, 2)
    if not (len(ends) and (ends[:, 1] > ends[:, 0]).all()):
        raise ValueError("need at least one interval, each with a < b")

    def counts(rng, size):  # laid out (K, size).T, as counts of eigenvalues were, so the moments keep their bits
        below = map_goe_slabs(lambda a: batched_count_below(a, ends.ravel()).T, m + 1, v, size, rng)
        return 2.0 * (below[:, 1::2] - below[:, ::2])

    kacrice = _kacrice_masses(m, v, ends, n_samples, seed, workers, stream=1)
    empirical = mc_estimate(counts, n_samples, seed, workers)
    spectral = mc_estimate(partial(_sturm_counts, m, v, ends), n_samples, seed, workers, stream=2)
    return [KacRiceComparison((float(a), float(b)), e, k, s, _pair_z(e, k), _pair_z(e, s), _pair_z(k, s), x)
            for (a, b), e, k, s, x in zip(ends, empirical, kacrice, spectral, _exact_masses(m, v, ends))]


def kacrice_vs_empirical(
    m: int, v: float, a: float, b: float, n_samples: int, seed: int = 0, workers: int | None = None
) -> KacRiceComparison:
    """Expected critical-value mass of [a, b] three ways: ``kacrice_intervals`` of one interval."""
    return kacrice_intervals(m, v, [(a, b)], n_samples, seed, workers)[0]


def reproduce_zm(
    m_max: int, n_samples: int, seed: int = 0, workers: int | None = None
) -> list[EstimatorResult]:
    """Rebuild the Mehta integrals from sphere-side Monte Carlo alone.

    For each m up to m_max, simulate the conditional Hessian determinant at a
    Gaussian critical value (an m x m GOE(1) draw shifted by an N(0, 2) level
    drawn at GOE(m + 1)'s scale N(0, m + 2) and reweighted, since at N(0, 2)
    the weight is heavy-tailed from m near 6) and solve the total-mass balance
    for the ratio of consecutive integrals; cumulative products from the exact
    one-dimensional value sqrt(2 pi) then give every integral up to m_max + 1,
    with errors propagated through the product by the ratios' covariance.

    The determinant depends on the spectrum only, so each draw is a
    tridiagonal matrix with the GOE spectrum: no m x m array and no LU.  The
    trailing m x m block of a Dumitriu-Edelman draw of size m_max is itself
    one of size m, so one pass of size-m_max draws serves every m, each size
    with its own level.  det(T_m - c) is the continuant D_k = (a_k - c)
    D_{k+1} - b_k^2 D_{k+2} swept from the bottom row up, and the ratios
    reduce to their means and co-moment matrix.  The dense GOE + LU routes
    (``exp_abs_det_mc``, ``detmoment_identity_check``) are its independent
    witness.  The references come first, so past the float range (m_max >= 39)
    it raises OverflowError before any draw.
    """
    EnsembleParams(m_max)
    v = 1.0
    references = [mehta_closed_form(m + 1) for m in range(1, m_max + 1)]

    def block(rng, size):
        diag, off_sq = sample_goe_tridiagonal(m_max, v, size, rng)
        # row m - 1: the level of size m, N(0, v (m + 2)) like GOE(m + 1, v)'s eigenvalues; faster than a scale column
        levels = rng.standard_normal(size=(m_max, size))
        levels *= np.sqrt(v * np.arange(3.0, m_max + 3.0))[:, None]
        bufs = np.empty((3, size))
        for m, c in enumerate(levels, start=1):
            # N(0, 2v) over that law, then the trailing m rows swept from the bottom up: |det(T_m - c)| in place
            ratio = np.exp(c * c * (1.0 / (2.0 * v * (m + 2)) - 1.0 / (4.0 * v)) + 0.5 * math.log((m + 2) / 2.0))
            np.abs(_continuant(diag[:-m - 1:-1], off_sq[::-1], c, 1.0, bufs), out=c)
            c *= ratio
        del diag, off_sq, bufs  # freed before the reduction copies the levels
        return Moments.of(levels.T, cross=True)

    mom = map_chunks(block, n_samples, seed, _worker_count(workers))
    units = math.sqrt(4.0 * math.pi * v) / (2.0 * v) ** (np.arange(2, m_max + 2) / 2.0)  # by m = 1..m_max
    ratios, ratio_ses = units * mom.mean, units * mom.std_error
    # Var(log Z_{m+1}) to first order: the sum of Cov(r_j, r_k) / (r_j r_k) over j, k <= m
    rel_cov = mom.m2 / np.outer(mom.mean, mom.mean) / ((mom.count - 1) * mom.count)
    rel_var = np.cumsum(np.cumsum(rel_cov, axis=0), axis=1).diagonal()
    values = math.sqrt(2.0 * math.pi) * np.cumprod(ratios)
    return [EstimatorResult(float(value), float(value * math.sqrt(var)), n_samples, seed, reference,
                            meta={"m": m + 1, "ratio": float(ratio), "ratio_se": float(ratio_se),
                                  "ratio_reference": mehta_ratio(m)})
            for m, value, var, ratio, ratio_se, reference
            in zip(range(1, m_max + 1), values, rel_var, ratios, ratio_ses, references)]
