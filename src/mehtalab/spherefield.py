"""The quadratic random field x -> (Ax, x)/2 on the unit sphere.

For a symmetric (m+1) x (m+1) matrix A the field's critical points are the
unit eigenvectors of A and its critical values (of twice the field) are the
eigenvalues, each hit by an antipodal pair of points.  This module computes
the gradient and the Riemannian Hessian, finds all critical points, and builds
the discriminant measure, which for simple A equals twice the spectral measure.

The finder is deflated Newton: d damped Riemannian Newton solves with sphere
retraction per matrix, each started in the orthogonal complement of the points
already found.  That complement is A-invariant, so every solve lands on a new
pair x, -x.  No eigenvector feeds the search; the count 2d is certified by
checking each new point's gradient norm and its overlap with earlier points.
The Riemannian Hessian Q^T (A - theta I) Q is built in one place: the Newton
steps solve with it, and the Morse indices and ``hess_phi`` read it, so the
indices come from that Hessian, not from the value ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mehtalab.estimation import substream
from mehtalab.spectral import (
    PointMeasure,
    batched_count_below,
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
]


class DegenerateMatrixError(ValueError):
    """Matrix ``sample_index`` of a stack has an eigenvalue gap below the degeneracy tolerance."""

    def __init__(self, gap: float, tol: float, sample_index: int):
        super().__init__(gap, tol, sample_index)
        self.gap, self.tol, self.sample_index = gap, tol, sample_index

    def __str__(self):  # read at print time, so a caller may renumber the matrix
        return f"matrix {self.sample_index} has eigenvalue gap {self.gap:.3e}, below degeneracy tolerance {self.tol:.3e}"


class IncompleteSearchError(RuntimeError):
    """A deflated Newton solve did not certify a new critical point.

    Raised when a solve ends with a gradient norm above the tolerance or on a point that overlaps one already
    found; ``found`` counts the points certified before it, in sample ``sample_index`` of a stack.
    """

    def __init__(self, found: int, expected: int, sample_index: int | None = None):
        super().__init__(found, expected, sample_index)
        self.found, self.expected, self.sample_index = found, expected, sample_index

    def __str__(self):  # read at print time, so a caller may renumber the sample
        where = "" if self.sample_index is None else f" (sample {self.sample_index})"
        return f"critical point search found {self.found} of {self.expected} points{where}"


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

    @property
    def coords(self) -> np.ndarray:
        return self._coords

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


def _gradients(mats, x):
    """Sphere gradients Ax - (Ax, x) x and values (Ax, x) of stacks of matrices and points."""
    ax = np.einsum("...ij,...j->...i", mats, x)
    theta = np.einsum("...i,...i->...", x, ax)
    return ax - theta[..., None] * x, theta


def _tangent_bases(x):
    """Householder tangent bases of a stack of unit points, shape (..., d, d-1).

    Columns 2..d of the reflection that maps the first coordinate vector to x;
    the coordinate basis where x is that vector already.
    """
    d = x.shape[-1]
    u = np.eye(d)[0] - x
    nsq = np.einsum("...i,...i->...", u, u)
    flat = nsq < 1e-28
    scale = 2.0 / np.where(flat, 1.0, nsq)
    h = np.eye(d) - scale[..., None, None] * (u[..., :, None] * u[..., None, :])
    h[flat] = np.eye(d)
    return h[..., 1:]


def _tangent_hessians(mats, q, theta):
    """Riemannian Hessians Q^T A Q - theta I for stacks of matrices, tangent bases Q and values theta."""
    h = q.swapaxes(-1, -2) @ mats @ q
    diag = np.arange(h.shape[-1])
    h[..., diag, diag] -= theta[..., None]
    return h


def grad_phi(a, x) -> np.ndarray:
    """Sphere gradient Ax - (Ax, x) x, a vector tangent at x."""
    return _gradients(_as_full(a), _as_unit(x))[0]


def tangent_basis(x) -> np.ndarray:
    """Orthonormal basis of the tangent space at x, shape (d, d-1).

    Columns 2..d of the Householder reflection that maps the first coordinate
    vector to x.  Falls back to the coordinate basis when x is that vector
    already.
    """
    return _tangent_bases(_as_unit(x))


def hess_phi(a, x) -> np.ndarray:
    """Riemannian Hessian at x in an orthonormal tangent basis, shape (m, m).

    Equal to Q^T A Q - (Ax, x) I with Q the tangent basis; at the north pole
    this is exactly the trailing block of A minus a_00 times the identity.
    The finder's Newton steps and Morse indices come from the same code.
    """
    af = _as_full(a)
    xv = _as_unit(x)
    h = _tangent_hessians(af, _tangent_bases(xv), _gradients(af, xv)[1])
    return 0.5 * (h + h.T)


def _newton_polish(mats_flat: np.ndarray, x: np.ndarray, tol: float):
    """Damped Riemannian Newton with sphere retraction from one start point per matrix.

    ``mats_flat`` is (B, d, d) and ``x`` is (B, d), one start per matrix.  The
    step is Q eta, Q the tangent basis and eta the solve of Hess f[eta] =
    -Q^T grad f with the tangent Hessian that the Morse indices read; steps
    are capped at length 1/2 and an iterate falls back to a plain
    projected-gradient step if its linear solve degenerates; at most 80 rounds.
    Returns the final points, gradient norms, and values of twice the field.
    """
    active = np.arange(len(x))
    for _ in range(80):
        xa = x[active]
        aa = mats_flat[active]
        grad, theta = _gradients(aa, xa)
        # hypot squares no component, so gradients near 1e200 do not overflow
        gn = np.hypot.reduce(grad, axis=1)
        live = gn > tol
        active = active[live]
        if active.size == 0:
            break
        xa = xa[live]
        aa = aa[live]
        theta = theta[live]
        grad = grad[live]
        q = _tangent_bases(xa)
        hess = _tangent_hessians(aa, q, theta)
        rhs = -q.swapaxes(1, 2) @ grad[:, :, None]
        try:
            eta = np.linalg.solve(hess, rhs)
        except np.linalg.LinAlgError:
            # exactly singular member: nudge every diagonal and retry once
            hess += 1e-12 * np.eye(hess.shape[-1])
            eta = np.linalg.solve(hess, rhs)
        step = (q @ eta)[:, :, 0]
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
    grad, theta = _gradients(mats_flat, x)
    return x, np.hypot.reduce(grad, axis=1), theta


@dataclass
class CriticalPointBatch:
    """Finder output for a stack of matrices, everything sorted by value."""

    points: np.ndarray      # (n, 2d, d)
    values: np.ndarray      # (n, 2d)
    gradient_norms: np.ndarray
    morse_indices: np.ndarray


def _check_simple(mats: np.ndarray):
    lam = batched_eigvals(mats)
    scale = default_degeneracy_tol(mats)
    gaps = np.diff(lam, axis=1).min(axis=1)
    bad = np.nonzero(gaps <= scale)[0]
    if bad.size:
        raise DegenerateMatrixError(gaps[bad[0]], scale[bad[0]], int(bad[0]))


def find_critical_points_batch(
    mats: np.ndarray,
    tol: float | None = 1e-10,
    rng: np.random.Generator | int | None = None,
) -> CriticalPointBatch:
    """Find all 2d critical points for every matrix in a (n, d, d) stack.

    Each matrix must be simple.  Solve k draws one Gaussian start per matrix,
    projects it onto the orthogonal complement of the k points already found
    (an A-invariant subspace, so Newton stays inside it) and polishes it; the
    antipode -x completes the pair.  The count 2d is certified after every
    solve: a point whose gradient norm exceeds ``tol`` or whose overlap with
    an earlier point exceeds 1/2 raises IncompleteSearchError.  ``tol`` bounds
    the gradient norm at a reported point; None picks 1e-10 scaled by the
    largest matrix norm, so badly scaled inputs stay solvable.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.ndim == 2:
        mats = mats[None]
    n, d = mats.shape[0], mats.shape[1]
    if d < 2:
        raise ValueError("need at least a 2 x 2 matrix (a sphere of dimension >= 1)")
    if tol is None:
        tol = 1e-10 * (1.0 + float(np.hypot.reduce(mats.reshape(n, -1), axis=1).max()))
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if rng is None:
        rng = substream(0)
    elif isinstance(rng, (int, np.integer)):
        rng = substream(int(rng))
    _check_simple(mats)

    found = np.empty((n, d, d))
    vals = np.empty((n, d))
    gns = np.empty((n, d))
    for k in range(d):
        prev = found[:, :k]
        x = rng.normal(size=(n, d))
        x -= np.einsum("bk,bki->bi", np.einsum("bki,bi->bk", prev, x), prev)
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        x, gn, theta = _newton_polish(mats, x, tol)
        overlap = np.abs(np.einsum("bki,bi->bk", prev, x)).max(axis=1, initial=0.0)
        # negated so that a NaN point is never certified
        bad = np.nonzero(~((gn <= tol) & (overlap <= 0.5)))[0]
        if bad.size:
            raise IncompleteSearchError(2 * k, 2 * d, sample_index=int(bad[0]))
        found[:, k], vals[:, k], gns[:, k] = x, theta, gn

    # by value, then by first coordinate: x with x[0] <= 0 before -x
    order = np.argsort(vals, axis=1)
    pairs = np.take_along_axis(found, order[:, :, None], axis=1)
    pairs *= np.where(pairs[:, :, :1] > 0.0, -1.0, 1.0)
    points = np.empty((n, 2 * d, d))
    points[:, 0::2] = pairs
    points[:, 1::2] = -pairs
    vals = np.take_along_axis(vals, order, axis=1)
    gradnorms = np.repeat(np.take_along_axis(gns, order, axis=1), 2, axis=1)
    # x and -x have the same tangent Hessian spectrum, so one of each pair does
    morse = np.repeat(_morse_indices(mats, pairs, vals), 2, axis=1)
    return CriticalPointBatch(points, np.repeat(vals, 2, axis=1), gradnorms, morse)


def _morse_indices(mats, points, values):
    """Negative-eigenvalue counts of the tangent Hessian at each point."""
    # one point per matrix at a time: all of them at once hold (n, c, d, d) bases
    return np.stack([batched_count_below(_tangent_hessians(mats, _tangent_bases(points[:, k]), values[:, k]), [0.0])[0]
                     for k in range(points.shape[1])], axis=1)


def find_critical_points(
    a: SymMatrix,
    tol: float | None = 1e-10,
    rng: np.random.Generator | int | None = None,
) -> list[CriticalPoint]:
    """All critical points of the field of one matrix, sorted by value.

    Returns exactly 2(m+1) points for a simple (m+1) x (m+1) matrix, with x
    and -x listed separately; every returned gradient norm is below tol.
    """
    batch = find_critical_points_batch(_as_full(a)[None], tol=tol, rng=rng)
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
        cps = find_critical_points(a, tol=tol, rng=rng)
        locs = np.array([c.value for c in cps])
        merge_tol = (degeneracy_tol if degeneracy_tol is not None else default_degeneracy_tol(a))
        return PointMeasure(locs, np.ones(locs.size)).merged(merge_tol)
    raise ValueError("method must be 'analytic' or 'search'")
