"""Seeded, chunked Monte Carlo plumbing shared by the estimator modules.

Every estimator in this package draws from counter-based Philox streams, one
per worker, derived from a single integer seed.  Chunk results are combined
in worker order with pairwise summation, so a run is bit-reproducible for a
fixed (seed, workers) pair regardless of scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

Z_THRESHOLD = 4.0


def substream(seed: int, worker: int = 0) -> np.random.Generator:
    """Independent generator for (seed, worker); streams never collide."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)).jumped(worker))


def chunk_sizes(n: int, workers: int) -> list[int]:
    base, extra = divmod(int(n), int(workers))
    return [base + (1 if w < extra else 0) for w in range(workers)]


def map_chunks(fn, n: int, seed: int, workers: int = 1, worker_offset: int = 0):
    """Evaluate fn(rng, size) once per worker substream, results in worker order.

    ``worker_offset`` shifts the substream indices so that two estimators run
    from the same seed can still use disjoint streams.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    jobs = [(w + worker_offset, size) for w, size in enumerate(chunk_sizes(n, workers)) if size > 0]
    if len(jobs) <= 1 or workers == 1:
        return [fn(substream(seed, w), size) for w, size in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, substream(seed, w), size) for w, size in jobs]
        return [f.result() for f in futures]


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
            diff = self.estimate - self.reference
            if self.std_error > 0.0:
                self.z_score = diff / self.std_error
            else:
                # an exact estimator against an independently computed
                # reference: equal means equal to machine rounding
                tol = 1e-12 * max(1.0, abs(self.reference))
                self.z_score = 0.0 if abs(diff) <= tol else math.inf

    @property
    def passed(self) -> bool:
        if self.z_score is None:
            return True
        return abs(self.z_score) <= Z_THRESHOLD

    def to_dict(self) -> dict:
        out = {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "reference": self.reference,
            "z_score": None if self.z_score is None or not math.isfinite(self.z_score) else self.z_score,
            "pass": self.passed,
        }
        if self.meta:
            out["meta"] = self.meta
        return out


def _combine_linear(chunks):
    ns = np.array([c[0] for c in chunks], dtype=float)
    s1 = np.array([c[1] for c in chunks], dtype=float)
    s2 = np.array([c[2] for c in chunks], dtype=float)
    return float(ns.sum()), float(s1.sum()), float(s2.sum())


def mc_estimate(
    weight_fn,
    n_samples: int,
    seed: int,
    workers: int = 1,
    scale: float = 1.0,
    reference: float | None = None,
    log_weights: bool = False,
    worker_offset: int = 0,
    meta: dict | None = None,
) -> EstimatorResult:
    """Mean and standard error of scale * weight over n_samples draws.

    ``weight_fn(rng, size)`` returns per-sample weights (log-weights when
    ``log_weights`` is set, which keeps heavy-tailed products from
    overflowing before they are averaged).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")

    if not log_weights:
        def chunk(rng, size):
            w = np.asarray(weight_fn(rng, size), dtype=float)
            return size, np.sum(w), np.sum(w * w)

        n, s1, s2 = _combine_linear(map_chunks(chunk, n_samples, seed, workers, worker_offset))
        mean = s1 / n
        var = max(s2 - n * mean * mean, 0.0) / max(n - 1.0, 1.0)
    else:
        def chunk(rng, size):
            lw = np.asarray(weight_fn(rng, size), dtype=float)
            mx = float(np.max(lw))
            r = np.exp(lw - mx)
            return size, mx, np.sum(r), np.sum(r * r)

        parts = map_chunks(chunk, n_samples, seed, workers, worker_offset)
        gmax = max(p[1] for p in parts)
        n = float(sum(p[0] for p in parts))
        s1 = float(np.sum([math.exp(p[1] - gmax) * p[2] for p in parts]))
        s2 = float(np.sum([math.exp(2.0 * (p[1] - gmax)) * p[3] for p in parts]))
        mean = math.exp(gmax) * s1 / n
        var = math.exp(2.0 * gmax) * max(s2 - s1 * s1 / n, 0.0) / max(n - 1.0, 1.0)

    return EstimatorResult(
        estimate=scale * mean,
        std_error=scale * math.sqrt(var / n),
        n_samples=n_samples,
        seed=seed,
        reference=reference,
        meta=meta or {},
    )
