"""Seeded, block-streamed Monte Carlo plumbing shared by the estimator modules.

``mc_estimate`` turns per-draw weights into results: one weight per draw
gives one result, K weight columns give K results from the same draws.  Under
it, and under the passes that reduce their own results, ``map_chunks`` cuts
n draws into blocks of ``BLOCK`` draws, or of a caller's ``block``.  Every
generator is counter-based Philox, ``philox(seed, word, block)`` (Salmon et
al., SC'11): ``substream(seed)`` is word 0, block 0, and block b of stream s
is word s + 1, block b.  Each block reduces to its count, mean and M2 or
co-moment matrix (or a record with its own ``merge``); blocks merge in block
order (Chan, Golub & LeVeque 1983).  So variances do not
cancel when |mean| >> sd, and the bits do not depend on the worker count.
``workers`` defaults to, and is capped at, the CPUs the process may run on,
and memory is about ``workers`` blocks in flight for any n; one worker
computes on the calling thread, one block at a time.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

Z_THRESHOLD = 4.0
BLOCK = 2**14
# Kish ESS per draw below which a log-weight estimate's standard error rests
# on a few dominant weights; mehta_mc with 1e6 draws has ESS/n 0.057 at m = 8
# and 8e-4 at m = 17
ESS_FLOOR = 1e-3


def _finite_or_none(x: float | None) -> float | None:
    """x, or None (JSON null) when it is missing or not finite."""
    return None if x is None or not math.isfinite(x) else x


def z_scores(estimate, reference, std_error):
    """(estimate - reference) / std_error, elementwise: the z of every 4-SE verdict.

    A standard error of 0 is an exact estimator against an independently
    computed reference: it reads 0 when the two agree to machine rounding,
    1e-12 max(1, |reference|), and inf otherwise.
    """
    diff = np.subtract(estimate, reference)
    exact = np.abs(diff) <= 1e-12 * np.maximum(1.0, np.abs(reference))
    return np.divide(diff, std_error, out=np.where(exact, 0.0, math.inf),
                     where=np.greater(std_error, 0.0))


def _worker_count(workers: int | None = None) -> int:
    """``workers``, or when it is None the CPUs this process may run on; estimators
    resolve through it so that map_chunks, and anything wrapping it, gets a count."""
    if workers is not None:
        return workers
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def philox(seed: int, word: int, block: int) -> np.random.Generator:
    """The generator of Philox key (seed, word) at counter word ``block``: the package's one stream rule."""
    return Generator(Philox(key=np.array([seed, word], dtype=np.uint64), counter=[0, 0, block, 0]))


def substream(seed: int) -> np.random.Generator:
    """The generator of ``seed``: Philox key (seed, 0) at block 0, a stream no ``map_chunks`` block draws from."""
    return philox(seed, 0, 0)


@dataclass(frozen=True)
class Moments:
    """Count, mean and sum of squared deviations (M2) of a sample, elementwise.

    An M2 with one axis more than the mean is the co-moment matrix of one
    column per variable, sum (y - mean)(y - mean)^T.  The sample's values are
    exp(``shift``) times the stored ones; importance weights keep their
    largest log weight there so that they cannot overflow.  An M2 past the
    float range, whose infinite standard errors read every z as 0, raises OverflowError.
    """

    count: int
    mean: np.ndarray
    m2: np.ndarray
    shift: float = 0.0

    def __post_init__(self):
        if np.isinf(self.m2).any():
            raise OverflowError("a sum of squared deviations leaves the float range")

    @classmethod
    def of(cls, y, shift: float = 0.0, cross: bool = False) -> Moments:
        """Two-pass moments over the first axis of y (one row per draw); ``cross`` asks for the co-moment matrix."""
        y = np.asarray(y, dtype=float)
        with np.errstate(over="ignore"):  # an M2 past the float range is named on construction
            mean = y.mean(axis=0)
            dev = y - mean
            co = dev.T @ dev if cross else None
            m2 = np.square(dev, out=dev).sum(axis=0)
        if cross:
            np.fill_diagonal(co, m2)  # the diagonal keeps the elementwise bits
            m2 = co
        return cls(y.shape[0], mean, m2, shift)

    @property
    def cross(self) -> bool:
        """Whether M2 is a co-moment matrix: it has one axis more than the mean."""
        return np.ndim(self.m2) > np.ndim(self.mean)

    def merge(self, other: Moments) -> Moments:
        """Moments of the union of two samples (Chan, Golub & LeVeque 1983)."""
        shift = max(self.shift, other.shift)
        fa, fb = math.exp(self.shift - shift), math.exp(other.shift - shift)
        count = self.count + other.count
        with np.errstate(over="ignore"):  # an M2 past the float range is named on construction
            delta = fb * other.mean - fa * self.mean
            mean = fa * self.mean + delta * (other.count / count)
            outer = np.outer(delta, delta) if self.cross else delta * delta
            m2 = fa * fa * self.m2 + fb * fb * other.m2 + outer * (self.count * other.count / count)
        return Moments(count, mean, m2, shift)

    @property
    def std_error(self):
        """Standard error of the mean (unbiased variance over count)."""
        return np.sqrt((np.diagonal(self.m2) if self.cross else self.m2) / (self.count - 1) / self.count)

    @property
    def ess(self) -> float:
        """Kish effective sample size (sum w)^2 / sum w^2 of a one-variable weight sample."""
        mean2 = self.mean.item() ** 2
        return self.count * mean2 / (mean2 + self.m2.item() / self.count)


def map_chunks(fn, n: int, seed: int, workers: int | None = None, stream: int = 0, block: int = BLOCK):
    """Merge in block order the results that fn(rng, size) returns for every block of n draws.

    Block b holds draws [b * block, (b + 1) * block) and draws from
    ``philox(seed, stream + 1, b)``, which no ``substream`` uses; results
    merge by their own ``merge``, as ``Moments`` do.  One worker runs the blocks
    on the calling thread; more make a pool of min(workers, usable CPUs)
    threads, which pull blocks at most two per thread ahead of the merge.  So
    memory does not grow with n and the result depends on neither.  Estimators
    run from one seed pass different ``stream`` indices to draw disjoint samples.
    """
    threads = min(_worker_count(workers), _worker_count())
    if threads < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if n < 2:
        raise ValueError("n_samples must be at least 2: one draw has no standard error")
    n, blocks = int(n), range(-(-n // block))

    def run(b):
        return fn(philox(seed, stream + 1, b), min(block, n - b * block))

    def in_order(pool):
        ahead = deque()
        for b in blocks:
            ahead.append(pool.submit(run, b))
            if len(ahead) > 2 * threads:
                yield ahead.popleft().result()
        yield from (future.result() for future in ahead)

    if threads == 1:
        return functools.reduce(lambda a, b: a.merge(b), map(run, blocks))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return functools.reduce(lambda a, b: a.merge(b), in_order(pool))


@dataclass
class EstimatorResult:
    """A Monte Carlo estimate with its standard error and pass/fail verdict."""

    estimate: float
    std_error: float
    n_samples: int
    seed: int
    reference: float | None = None
    z_score: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.reference is not None and self.z_score is None:
            self.z_score = float(z_scores(self.estimate, self.reference, self.std_error))

    @property
    def passed(self) -> bool:
        return self.z_score is None or abs(self.z_score) <= Z_THRESHOLD

    def to_dict(self) -> dict:
        out = {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "reference": self.reference,
            "z_score": _finite_or_none(self.z_score),
            "pass": self.passed,
        }
        if self.meta:
            out["meta"] = self.meta
        return out


def mc_estimate(weight_fn, n_samples: int, seed: int, workers: int | None = None, scale=1.0, reference=None,
                log_weights: bool = False, stream: int = 0) -> EstimatorResult | list[EstimatorResult]:
    """Mean and standard error of scale * weight over n_samples draws.

    ``weight_fn(rng, size)`` returns per-sample weights (size,), and the
    result is one EstimatorResult; or K weight columns (size, K), reduced in
    the layout they come in, and the result is a list of K.  Column k is
    scaled by ``scale[k]`` and judged against ``reference[k]``; a scalar
    serves every column.  With ``log_weights`` the weights are logs, which
    keeps heavy-tailed products from overflowing before they are averaged;
    one column of them puts its Kish ESS in ``meta["ess"]``, the largest
    weight's share of their sum in ``meta["max_weight_share"]``, and
    ``meta["degraded"]`` with a reason when ESS/n is below ``ESS_FLOOR``; the
    4-SE verdict ignores the flag.
    """
    def block(rng, size):
        w = np.asarray(weight_fn(rng, size), dtype=float)
        shift = float(np.max(w)) if log_weights else 0.0
        return Moments.of(np.exp(w - shift) if log_weights else w, shift)

    mom = map_chunks(block, n_samples, seed, _worker_count(workers), stream)
    cols = np.size(mom.mean)
    units = [s * math.exp(mom.shift) for s in (scale if np.ndim(scale) else [scale] * cols)]
    refs = reference if np.ndim(reference) else [reference] * cols
    results = [EstimatorResult(unit * float(mu), unit * float(se), n_samples, seed, ref)
               for mu, se, unit, ref in zip(np.ravel(mom.mean), np.ravel(mom.std_error), units, refs, strict=True)]
    if log_weights and cols == 1:
        # the merged shift is the largest log weight, so that weight is stored as exp(0) = 1
        share = mom.ess / n_samples
        meta = results[0].meta
        meta.update(ess=mom.ess, max_weight_share=1.0 / (mom.count * mom.mean.item()), degraded=share < ESS_FLOOR)
        if meta["degraded"]:
            meta["reason"] = f"Kish ESS/n = {share:.3g} is below {ESS_FLOOR:g}: the proposal has collapsed"
    return results if np.ndim(mom.mean) else results[0]
