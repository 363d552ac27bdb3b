"""Outside-in tracing of one benchmark pass.

The tracer wraps the lab's public functions at every module that binds them
(``from x import f`` makes a second binding that patching ``x`` alone would
miss) and records one span per call: layer, start, end, and the span that was
current when the call began.  Work submitted to a ``ThreadPoolExecutor`` runs
in a copy of the submitter's context, so spans opened in pool threads carry
the submitting ``map_chunks`` span as their parent.

A layer's self time is the sum over its spans of span duration minus the union
of the span's child intervals.  Spans in pool threads overlap, so self times
are thread-seconds: under ``workers=2`` they can add up to twice the wall
time, and a caller's own span is mostly waiting for its children.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import math
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Layer, function name, and every module of the lab that binds that name.
# A name missing from a module is reported as absent, so a later change may
# delete or replace any of these functions without editing the benchmark.
HOOKS = (
    ("cli", "main", ("cli",)),
    ("symspace", "covariance_audit", ("symspace",)),
    ("symspace.sample", "sample_goe_batch", ("symspace", "spectral", "mehta", "regression")),
    ("symspace.sample", "sample_suv_batch", ("symspace",)),
    ("spectral.eig", "batched_eigvals", ("spectral", "mehta", "spherefield")),
    ("spectral.eig", "jacobi_eigh", ("spectral", "regression")),
    ("spectral.det", "batched_det", ("spectral", "mehta")),
    ("spectral.quad", "weyl_rhs_quadrature", ("spectral",)),
    ("spectral.quad", "_vandermonde_gauss_integral", ("spectral", "mehta")),
    ("spectral.correlation", "one_point_correlation", ("spectral",)),
    ("spectral.correlation", "_kernel_density_at", ("spectral", "mehta")),
    ("spherefield.finder", "find_critical_points_batch", ("spherefield",)),
    ("mehta", "mehta_quadrature", ("mehta",)),
    ("mehta", "mehta_mc", ("mehta",)),
    ("mehta", "exp_abs_det_mc", ("mehta",)),
    ("mehta", "detmoment_identity_check", ("mehta",)),
    ("mehta", "exp_det_pointwise_check", ("mehta",)),
    ("mehta", "kacrice_vs_empirical", ("mehta",)),
    ("mehta", "reproduce_zm", ("mehta",)),
    ("estimation.map", "map_chunks", ("estimation", "spectral", "symspace", "regression")),
    ("regression", "conditional_hessian_moments", ("regression",)),
    ("regression", "hessian_regression_pair", ("regression",)),
    ("regression", "regress", ("regression",)),
)

SELF_LAYERS = (
    "cli", "symspace", "symspace.sample", "spectral.eig", "spectral.det", "spectral.quad",
    "spectral.correlation", "spherefield.finder", "mehta", "estimation.map", "regression",
)
EIG_DIMS = (2, 3, 4, 6)
FINDER_DIMS = (2, 3, 4)
PRECISION_TARGET = 1e-3

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Span:
    __slots__ = ("layer", "name", "parent", "t0", "t1", "info", "failed", "hook_s")

    def __init__(self, layer, name, parent):
        self.layer, self.name, self.parent = layer, name, parent
        self.info, self.failed, self.hook_s = {}, False, 0.0


def _dims_of_rows(rows) -> tuple[int, int]:
    rows = np.atleast_2d(rows)
    return int(rows.shape[0]), int(rows.shape[1])


def _estimates(out) -> list:
    """EstimatorResult-like objects in a return value, one container level deep."""
    if hasattr(out, "estimate") and hasattr(out, "std_error"):
        return [out]
    if isinstance(out, dict):
        items = out.values()
    elif isinstance(out, (list, tuple)):
        items = out
    elif hasattr(out, "__dict__"):
        items = vars(out).values()
    else:
        return []
    return [x for x in items if hasattr(x, "estimate") and hasattr(x, "std_error")]


def _worst_rel_se(out) -> float | None:
    """Largest std_error relative to the reference (or the estimate when there is none).

    Results whose target is zero have no relative precision and are skipped.
    """
    worst = None
    for r in _estimates(out):
        ref = getattr(r, "reference", None)
        target = r.estimate if ref is None else ref
        if not target or not math.isfinite(target) or not math.isfinite(r.std_error):
            continue
        rel = abs(r.std_error / target)
        worst = rel if worst is None else max(worst, rel)
    return worst


def _observe(layer, name, args, kwargs, out) -> dict:
    if layer == "symspace.sample":
        return {"draws": int(out.shape[0]), "d": int(out.shape[-1])}
    if layer == "spectral.eig":
        n, d = _dims_of_rows(out[0] if isinstance(out, tuple) else out)
        return {"mats": n, "d": d}
    if layer == "spectral.det":
        return {"mats": int(np.size(out))}
    if layer == "spherefield.finder":
        n, width = _dims_of_rows(out.values)
        return {"mats": n, "d": width // 2}
    if name == "mehta_quadrature":
        from mehtalab.mehta import mehta_closed_form

        m = args[0] if args else kwargs["m"]
        return {"abs_err": abs(float(out) - mehta_closed_form(m))}
    info = {}
    rel = _worst_rel_se(out)
    if rel is not None:
        info["rel_se"] = rel
    if name == "mehta_mc":
        info["samples"] = int(out.n_samples)
    return info


def _pool_submit_in_context(original):
    @functools.wraps(original)
    def submit(self, fn, /, *args, **kwargs):
        return original(self, contextvars.copy_context().run, fn, *args, **kwargs)

    return submit


class Tracer:
    """Span recorder for one process; spans stay in memory until summarised."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []

    def install(self) -> None:
        ThreadPoolExecutor.submit = _pool_submit_in_context(ThreadPoolExecutor.submit)
        for layer, name, modules in HOOKS:
            for mod_name in modules:
                module = importlib.import_module("mehtalab." + mod_name)
                fn = getattr(module, name, None)
                if fn is None:
                    self.absent.append(f"{mod_name}.{name}")
                    continue
                setattr(module, name, self._wrap(layer, name, fn))

    def _record(self, layer, name, fn, args, kwargs, info=None):
        """Call fn inside a new span; ``info`` replaces the observed counts."""
        t_enter = time.perf_counter()
        span = Span(layer, name, _current.get())
        token = _current.set(span)
        span.t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.t1 = time.perf_counter()
            _current.reset(token)
            self.spans.append(span)
        span.info = _observe(layer, name, args, kwargs, out) if info is None else info
        # the tracer's own cost: everything this wrapper did outside the wrapped call
        span.hook_s = (time.perf_counter() - t_enter) - (span.t1 - span.t0)
        return out

    def _wrap(self, layer, name, fn):
        if layer == "estimation.map":
            return self._wrap_map(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(layer, name, fn, args, kwargs)

        return traced

    def _wrap_map(self, fn):
        """map_chunks(fn, n, seed, workers, ...): one child span per chunk call.

        A chunk runs the caller's per-sample code, so its span belongs to the
        layer that called map_chunks.
        """

        @functools.wraps(fn)
        def traced(chunk_fn, *args, **kwargs):
            caller = _current.get()
            layer = caller.layer if caller is not None else "estimation.map"

            def chunk(rng, size, *a, **k):
                return self._record(layer, "chunk", chunk_fn, (rng, size) + a, k,
                                    info={"draws": int(size)})

            workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
            return self._record("estimation.map", "map_chunks", fn, (chunk,) + args, kwargs,
                                info={"workers": int(workers)})

        return traced

    def summary(self) -> dict:
        return summarise(self.spans)


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0.0 else 0.0


def summarise(spans: list[Span]) -> dict:
    """Per-layer metrics from a pass's spans (trace.overhead is added by the caller)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)

    def self_time(s):
        kids = [(max(c.t0, s.t0), min(c.t1, s.t1)) for c in children[id(s)]]
        return (s.t1 - s.t0) - _union_length([k for k in kids if k[1] > k[0]])

    def outermost(s):
        return s.parent is None or s.parent.layer != s.layer

    self_s = defaultdict(float)
    for s in spans:
        self_s[s.layer] += self_time(s)

    out = {f"{layer}.self_s": self_s[layer] for layer in SELF_LAYERS}

    sample = [s for s in spans if s.layer == "symspace.sample" and outermost(s) and s.info]
    draws = sum(s.info["draws"] for s in sample)
    out["symspace.sample.draws"] = draws
    out["symspace.sample.draws_per_s"] = _rate(draws, sum(s.t1 - s.t0 for s in sample))
    out["symspace.sample.computed_mb"] = sum(
        s.info["draws"] * s.info["d"] ** 2 * 8 for s in sample) / 1e6

    eig = [s for s in spans if s.layer == "spectral.eig" and s.info]
    out["spectral.eig.mats"] = sum(s.info["mats"] for s in eig)
    for d in EIG_DIMS:
        at = [s for s in eig if s.info["d"] == d]
        out[f"spectral.eig.mats_per_s.d{d}"] = _rate(
            sum(s.info["mats"] for s in at), sum(self_time(s) for s in at))

    det = [s for s in spans if s.layer == "spectral.det" and s.info]
    out["spectral.det.mats"] = sum(s.info["mats"] for s in det)
    out["spectral.det.mats_per_s"] = _rate(out["spectral.det.mats"],
                                           sum(self_time(s) for s in det))

    quad = [s.info["abs_err"] for s in spans if "abs_err" in s.info]
    out["spectral.quad.abs_err"] = max(quad, default=0.0)

    finder = [s for s in spans if s.layer == "spherefield.finder" and outermost(s)]
    ok = [s for s in finder if not s.failed and s.info]
    out["spherefield.finder.mats"] = sum(s.info["mats"] for s in ok)
    for d in FINDER_DIMS:
        at = [s for s in ok if s.info["d"] == d]
        # per call as a caller sees it, eigen checks included (the ROADMAP baseline's unit)
        out[f"spherefield.finder.mats_per_s.d{d}"] = _rate(
            sum(s.info["mats"] for s in at), sum(s.t1 - s.t0 for s in at))
    out["spherefield.finder.failed"] = sum(1 for s in finder if s.failed)

    mc = [s for s in spans if s.name == "mehta_mc" and "samples" in s.info]
    out["mehta.mc.samples_per_s"] = _rate(sum(s.info["samples"] for s in mc),
                                          sum(s.t1 - s.t0 for s in mc))

    maps = [s for s in spans if s.layer == "estimation.map"]
    chunks = [s for s in spans if s.name == "chunk"]
    busy = sum(s.t1 - s.t0 for s in chunks)
    out["estimation.map.chunks"] = len(chunks)
    out["estimation.map.max_chunk_draws"] = max((s.info["draws"] for s in chunks), default=0)
    out["estimation.map.busy_s"] = busy
    out["estimation.map.parallel_eff"] = _rate(
        busy, sum(s.info["workers"] * (s.t1 - s.t0) for s in maps))

    # cost per unit precision: each outermost estimator call, scaled to 1e-3 relative SE
    def has_estimator_ancestor(s):
        p = s.parent
        while p is not None:
            if "rel_se" in p.info:
                return True
            p = p.parent
        return False

    out["t_to_1e-3_s"] = sum(
        (s.t1 - s.t0) * (s.info["rel_se"] / PRECISION_TARGET) ** 2
        for s in spans if "rel_se" in s.info and not has_estimator_ancestor(s))
    out["spans"] = len(spans)
    out["hook_s"] = sum(s.hook_s for s in spans)
    return out
