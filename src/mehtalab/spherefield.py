"""The quadratic random field x -> (Ax, x)/2 on the unit sphere.

For a symmetric (m+1) x (m+1) matrix A the field's critical points are the
unit eigenvectors of A and its critical values (of twice the field) are the
eigenvalues, each hit by an antipodal pair of points.  This module computes
the gradient and the Riemannian Hessian, finds all critical points by damped
Newton iteration with sphere retraction, and builds the discriminant measure,
which for simple A equals twice the spectral measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mehtalab.estimation import substream
from mehtalab.spectral import (
    PointMeasure,
    batched_eigvals,
    default_degeneracy_tol,
    spectral_measure,
)
from mehtalab.symspace import SymMatrix

__all__ = [
    "SpherePoint",
    "CriticalPoint",
    "DegenerateMatrixError",
    "IncompleteSearchError",
    "phi",
    "grad_phi",
    "hess_phi",
    "tangent_basis",
    "find_critical_points",
    "find_critical_points_batch",
    "CriticalPointBatch",
    "discriminant_measure",
    "morse_index_spectrum",
    "default_n_starts",
]


class DegenerateMatrixError(ValueError):
    """Matrix has an eigenvalue gap below the degeneracy tolerance."""


class IncompleteSearchError(RuntimeError):
    """The start set did not reach every critical point."""

    def __init__(self, found: int, expected: int, sample_index: int | None = None):
        where = "" if sample_index is None else f" (sample {sample_index})"
        super().__init__(
            f"critical point search found {found} of {expected} points{where}; "
            "increase n_starts"
        )
        self.found = found
        self.expected = expected
        self.sample_index = sample_index


class SpherePoint:
    """A point on the unit sphere; coordinates renormalized on construction."""

    __slots__ = ("_coords",)

    def __init__(self, coords):
        c = np.array(coords, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("need a vector of length >= 2")
        norm = float(np.linalg.norm(c))
        if norm == 0.0 or not math.isfinite(norm):
            raise ValueError("cannot normalize a zero or non-finite vector")
        c /= norm
        c.flags.writeable = False
        self._coords = c

    @classmethod
    def north_pole(cls, dim: int) -> "SpherePoint":
        c = np.zeros(dim)
        c[0] = 1.0
        return cls(c)

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def dim(self) -> int:
        return self._coords.size

    def __repr__(self):
        return f"SpherePoint({self._coords.tolist()})"


@dataclass(frozen=True)
class CriticalPoint:
    """One critical point with its value of twice the field and Morse data."""

    point: np.ndarray
    value: float
    gradient_norm: float
    morse_index: int

    def to_dict(self) -> dict:
        return {
            "point": self.point.tolist(),
            "value": self.value,
            "gradient_norm": self.gradient_norm,
            "morse_index": self.morse_index,
        }


def _as_unit(x) -> np.ndarray:
    if isinstance(x, SpherePoint):
        return x.coords
    return SpherePoint(x).coords


def _as_full(a) -> np.ndarray:
    if isinstance(a, SymMatrix):
        return a.to_full()
    return np.asarray(a, dtype=float)


def phi(a, x) -> float:
    """Field value (Ax, x) / 2."""
    af = _as_full(a)
    xv = _as_unit(x)
    return 0.5 * float(xv @ af @ xv)


def grad_phi(a, x) -> np.ndarray:
    """Sphere gradient Ax - (Ax, x) x, a vector tangent at x."""
    af = _as_full(a)
    xv = _as_unit(x)
    ax = af @ xv
    return ax - (ax @ xv) * xv


def tangent_basis(x) -> np.ndarray:
    """Orthonormal basis of the tangent space at x, shape (d, d-1).

    Columns 2..d of the Householder reflection that maps the first coordinate
    vector to x.  Falls back to the coordinate basis when x is that vector
    already.
    """
    xv = _as_unit(x)
    d = xv.size
    e = np.zeros(d)
    e[0] = 1.0
    u = e - xv
    nsq = float(u @ u)
    if nsq < 1e-28:
        return np.eye(d)[:, 1:]
    h = np.eye(d) - (2.0 / nsq) * np.outer(u, u)
    return h[:, 1:]


def hess_phi(a, x) -> np.ndarray:
    """Riemannian Hessian at x in an orthonormal tangent basis, shape (m, m).

    Equal to Q^T A Q - (Ax, x) I with Q the tangent basis; at the north pole
    this is exactly the trailing block of A minus a_00 times the identity.
    """
    af = _as_full(a)
    xv = _as_unit(x)
    q = tangent_basis(xv)
    theta = float(xv @ af @ xv)
    h = q.T @ af @ q
    h[np.arange(h.shape[0]), np.arange(h.shape[0])] -= theta
    return 0.5 * (h + h.T)


def default_n_starts(dim: int) -> int:
    return 20 * dim * (dim + 1)


def _newton_polish(mats_flat: np.ndarray, x: np.ndarray, tol: float, max_iter: int = 80):
    """Damped Newton with sphere retraction on a flat batch of start points.

    ``mats_flat`` is (B, d, d) with one matrix per iterate.  The Newton step
    solves the stationarity equation projected to the tangent space through a
    bordered system; steps are capped at length 1/2 and an iterate falls back
    to a plain projected-gradient step if its linear solve degenerates.
    Returns the final points, gradient norms, and values of twice the field.
    """
    B, d = x.shape
    active = np.arange(B)
    diag = np.arange(d)
    for _ in range(max_iter):
        xa = x[active]
        aa = mats_flat[active]
        ax = np.einsum("bij,bj->bi", aa, xa)
        theta = np.einsum("bi,bi->b", xa, ax)
        grad = ax - theta[:, None] * xa
        gn = np.linalg.norm(grad, axis=1)
        live = gn > tol
        active = active[live]
        if active.size == 0:
            break
        xa = xa[live]
        aa = aa[live]
        theta = theta[live]
        grad = grad[live]
        nb = xa.shape[0]
        system = np.zeros((nb, d + 1, d + 1))
        system[:, :d, :d] = aa
        system[:, diag, diag] -= theta[:, None]
        system[:, :d, d] = xa
        system[:, d, :d] = xa
        rhs = np.zeros((nb, d + 1, 1))
        rhs[:, :d, 0] = -grad
        try:
            step = np.linalg.solve(system, rhs)[:, :d, 0]
        except np.linalg.LinAlgError:
            # exactly singular member: nudge every diagonal and retry once
            system[:, diag, diag] += 1e-12
            step = np.linalg.solve(system, rhs)[:, :d, 0]
        bad = ~np.isfinite(step).all(axis=1)
        if bad.any():
            step[bad] = -0.1 * grad[bad]
        norms = np.linalg.norm(step, axis=1)
        long = norms > 0.5
        if long.any():
            step[long] *= (0.5 / norms[long])[:, None]
        xn = xa + step
        xn /= np.linalg.norm(xn, axis=1, keepdims=True)
        x[active] = xn
    ax = np.einsum("bij,bj->bi", mats_flat, x)
    theta = np.einsum("bi,bi->b", x, ax)
    grad = ax - theta[:, None] * x
    return x, np.linalg.norm(grad, axis=1), theta


def _dedupe_sample(points, values, gradnorms, tol):
    """Group converged iterates of one sample into distinct critical points.

    Clusters by critical value first, then separates each value cluster by
    point alignment: copies of one critical point have inner product near
    +1 with each other, its antipode near -1, and any distinct critical
    point that happens to share the value window is near 0 and is peeled
    off into its own cluster.  Copies agree to roughly 1e-12, far inside
    the dedup radius sqrt(tol).
    """
    if values.size == 0:
        return [], [], []
    order = np.argsort(values, kind="stable")
    values = values[order]
    points = points[order]
    gradnorms = gradnorms[order]
    width = max(math.sqrt(tol), 1e-9) * (1.0 + float(np.abs(values).max()))
    out_pts, out_vals, out_gn = [], [], []

    def emit(pts, vals, gns):
        side = pts @ pts[0]
        for sel in (side > 0.5, side < -0.5):
            if not sel.any():
                continue
            best = np.argmin(np.where(sel, gns, np.inf))
            out_pts.append(pts[best])
            out_vals.append(float(vals[best]))
            out_gn.append(float(gns[best]))
        rest = np.abs(side) <= 0.5
        if rest.any():
            emit(pts[rest], vals[rest], gns[rest])

    start = 0
    n = values.size
    for i in range(1, n + 1):
        if i == n or values[i] - values[i - 1] > width:
            emit(points[start:i], values[start:i], gradnorms[start:i])
            start = i
    return out_pts, out_vals, out_gn


@dataclass
class CriticalPointBatch:
    """Finder output for a stack of matrices, everything sorted by value."""

    points: np.ndarray      # (n, 2d, d)
    values: np.ndarray      # (n, 2d)
    gradient_norms: np.ndarray
    morse_indices: np.ndarray


def _check_simple(mats: np.ndarray):
    lam = batched_eigvals(mats)
    scale = 1e-8 * (1.0 + np.sqrt((mats * mats).sum(axis=(1, 2))))
    gaps = np.diff(lam, axis=1).min(axis=1)
    bad = np.nonzero(gaps <= scale)[0]
    if bad.size:
        raise DegenerateMatrixError(
            f"matrix {bad[0]} has eigenvalue gap {gaps[bad[0]]:.3e}, below "
            f"degeneracy tolerance {scale[bad[0]]:.3e}"
        )


def find_critical_points_batch(
    mats: np.ndarray,
    tol: float | None = 1e-10,
    n_starts: int | None = None,
    rng: np.random.Generator | int | None = None,
    max_extra_rounds: int = 6,
) -> CriticalPointBatch:
    """Find all 2d critical points for every matrix in a (n, d, d) stack.

    Each matrix must be simple.  Samples that come up short after the first
    round of starts get fresh rounds (the expected count 2d acts as a
    completion certificate); a sample still short after ``max_extra_rounds``
    raises IncompleteSearchError.  ``tol`` bounds the gradient norm at a
    reported point; None picks 1e-10 scaled by the largest matrix norm, so
    badly scaled inputs stay solvable.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.ndim == 2:
        mats = mats[None]
    n, d = mats.shape[0], mats.shape[1]
    if d < 2:
        raise ValueError("need at least a 2 x 2 matrix (a sphere of dimension >= 1)")
    if tol is None:
        tol = 1e-10 * (1.0 + float(np.sqrt((mats * mats).sum(axis=(1, 2)).max())))
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    k = default_n_starts(d) if n_starts is None else int(n_starts)
    if k < 1:
        raise ValueError("n_starts must be positive")
    if rng is None:
        rng = substream(0)
    elif isinstance(rng, (int, np.integer)):
        rng = substream(int(rng))
    _check_simple(mats)

    expected = 2 * d
    pts = [None] * n
    vals = [None] * n
    gns = [None] * n
    pending = list(range(n))
    rounds = 0
    chunk = max(1, 200_000 // k)
    while pending:
        done = set()
        for lo in range(0, len(pending), chunk):
            idx = pending[lo : lo + chunk]
            ns = len(idx)
            starts = rng.normal(size=(ns, k, d))
            starts /= np.linalg.norm(starts, axis=2, keepdims=True)
            flat_mats = np.repeat(mats[idx], k, axis=0)
            x, gn, theta = _newton_polish(flat_mats, starts.reshape(ns * k, d), tol)
            x = x.reshape(ns, k, d)
            gn = gn.reshape(ns, k)
            theta = theta.reshape(ns, k)
            for row, s in enumerate(idx):
                ok = gn[row] <= tol
                p, v, g = _dedupe_sample(x[row][ok], theta[row][ok], gn[row][ok], tol)
                if pts[s] is None:
                    pts[s], vals[s], gns[s] = p, v, g
                else:
                    merged = _dedupe_sample(
                        np.array(pts[s] + p),
                        np.array(vals[s] + v),
                        np.array(gns[s] + g),
                        tol,
                    )
                    pts[s], vals[s], gns[s] = list(merged[0]), list(merged[1]), list(merged[2])
                if len(vals[s]) >= expected:
                    done.add(s)
        pending = [s for s in pending if s not in done]
        if pending:
            rounds += 1
            if rounds > max_extra_rounds:
                s = pending[0]
                raise IncompleteSearchError(len(vals[s]), expected, sample_index=s)

    points = np.empty((n, expected, d))
    values = np.empty((n, expected))
    gradnorms = np.empty((n, expected))
    for s in range(n):
        if len(vals[s]) != expected:
            raise IncompleteSearchError(len(vals[s]), expected, sample_index=s)
        order = np.lexsort((np.array(pts[s])[:, 0], np.array(vals[s])))
        points[s] = np.array(pts[s])[order]
        values[s] = np.array(vals[s])[order]
        gradnorms[s] = np.array(gns[s])[order]

    morse = _morse_indices(mats, points, values)
    return CriticalPointBatch(points, values, gradnorms, morse)


def _morse_indices(mats, points, values):
    """Negative-eigenvalue counts of the tangent Hessian at each point."""
    n, c, d = points.shape
    flat_pts = points.reshape(n * c, d)
    flat_vals = values.reshape(n * c)
    flat_mats = np.repeat(mats, c, axis=0)
    # batched Householder tangent bases
    e = np.zeros(d)
    e[0] = 1.0
    u = e[None, :] - flat_pts
    nsq = np.einsum("bi,bi->b", u, u)
    degenerate = nsq < 1e-28
    safe = np.where(degenerate, 1.0, nsq)
    h = np.eye(d)[None] - (2.0 / safe)[:, None, None] * np.einsum("bi,bj->bij", u, u)
    if degenerate.any():
        h[degenerate] = np.eye(d)
    q = h[:, :, 1:]
    hess = np.einsum("bji,bjk,bkl->bil", q, flat_mats, q)
    diag = np.arange(d - 1)
    hess[:, diag, diag] -= flat_vals[:, None]
    lam = batched_eigvals(hess)
    return (lam < 0.0).sum(axis=1).reshape(n, c)


def find_critical_points(
    a: SymMatrix,
    tol: float | None = 1e-10,
    n_starts: int | None = None,
    rng: np.random.Generator | int | None = None,
    max_extra_rounds: int = 6,
) -> list[CriticalPoint]:
    """All critical points of the field of one matrix, sorted by value.

    Returns exactly 2(m+1) points for a simple (m+1) x (m+1) matrix, with x
    and -x listed separately; every returned gradient norm is below tol.
    """
    batch = find_critical_points_batch(
        _as_full(a)[None], tol=tol, n_starts=n_starts, rng=rng,
        max_extra_rounds=max_extra_rounds,
    )
    return [
        CriticalPoint(
            point=batch.points[0, i].copy(),
            value=float(batch.values[0, i]),
            gradient_norm=float(batch.gradient_norms[0, i]),
            morse_index=int(batch.morse_indices[0, i]),
        )
        for i in range(batch.values.shape[1])
    ]


def discriminant_measure(
    a: SymMatrix,
    method: str = "analytic",
    degeneracy_tol: float | None = None,
    tol: float | None = 1e-10,
    n_starts: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> PointMeasure:
    """Counting measure of critical values of twice the field, total mass 2(m+1).

    method='analytic' doubles the spectral measure (each simple eigenvalue is
    hit by an antipodal pair of unit eigenvectors; for clustered spectra the
    multiplicity convention of the spectral measure carries over).
    method='search' builds the measure from the Newton finder and requires a
    simple matrix.
    """
    if method == "analytic":
        return spectral_measure(a, degeneracy_tol=degeneracy_tol).scaled(2.0)
    if method == "search":
        cps = find_critical_points(a, tol=tol, n_starts=n_starts, rng=rng)
        locs = np.array([c.value for c in cps])
        merge_tol = (degeneracy_tol if degeneracy_tol is not None else default_degeneracy_tol(a))
        return PointMeasure(locs, np.ones(locs.size)).merged(merge_tol)
    raise ValueError("method must be 'analytic' or 'search'")


def morse_index_spectrum(
    a: SymMatrix,
    tol: float | None = 1e-10,
    n_starts: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> list[tuple[float, int]]:
    """(critical value, Morse index) for every critical point, sorted by value.

    For the k-th smallest critical value both antipodal points carry index
    k-1, so the index multiset of a simple matrix is {0, 0, 1, 1, ..., m, m}.
    """
    cps = find_critical_points(a, tol=tol, n_starts=n_starts, rng=rng)
    return [(c.value, c.morse_index) for c in cps]
