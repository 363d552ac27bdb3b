"""The Euclidean space of real symmetric matrices with inner product tr(AB).

Provides the two coordinate systems on that space (flat entry coordinates and
the orthonormal rescaling with sqrt(2) on off-diagonal entries), exact samplers
for the orthogonally invariant Gaussian ensembles, density evaluation for the
GOE case, and a covariance audit that checks every second moment of a sampler
against its analytic value.

Conventions: GOE(m, v) has independent entries with diagonal variance 2v and
off-diagonal variance v.  The two-parameter family (u, v) adds u to every
diagonal-diagonal covariance and is admissible iff v > 0 and m*u + 2v > 0.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from mehtalab.estimation import Z_THRESHOLD, Moments, _worker_count, map_chunks, z_scores

__all__ = [
    "SymMatrix",
    "EnsembleParams",
    "sym_dim",
    "ell_coords",
    "omega_coords",
    "ell_coords_batch",
    "omega_coords_batch",
    "inner_product",
    "map_goe_slabs",
    "sample_goe_batch",
    "sample_goe_tridiagonal",
    "sample_suv",
    "sample_suv_batch",
    "goe_log_density",
    "covariance_reference",
    "covariance_audit",
    "CovarianceAudit",
    "read_matrix",
    "read_matrices",
    "write_matrix",
]

FILE_SYMMETRY_TOL = 1e-9
# the matrices one dense slab holds, so routes that keep only eigenvalues or determinants hold O(m) per draw
SLAB_BYTES = 2**20


def sym_dim(m: int) -> int:
    return m * (m + 1) // 2


# the upper-triangle pairs (i, j), i <= j, row-major: the order of packed storage and of the flat
# coordinates; cached, as one call costs more than a small matrix's whole use of them
_pair_arrays = lru_cache(maxsize=64)(np.triu_indices)


class SymMatrix:
    """Real symmetric m x m matrix with packed upper-triangle storage.

    Symmetry is structural: entries (i, j) and (j, i) read the same stored
    value, so no bug downstream can produce an asymmetric SymMatrix.
    Instances are immutable.
    """

    __slots__ = ("_m", "_packed")

    def __init__(self, m: int, packed):
        packed = np.array(packed, dtype=float)
        if packed.shape != (sym_dim(m),):
            raise ValueError(f"packed storage for m={m} must have length {sym_dim(m)}")
        self._m = int(m)
        self._packed = packed
        self._packed.flags.writeable = False

    @classmethod
    def from_full(cls, a, symmetry_tol: float | None = None) -> "SymMatrix":
        """Build from a full (m, m) array, averaging the two triangles.

        Rejects non-finite entries and, with ``symmetry_tol`` set, asymmetry above it times the largest |entry|.
        """
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square 2-d array")
        if not np.isfinite(a).all():
            raise ValueError("matrix has a non-finite entry")
        if symmetry_tol is not None:
            gap, top = (float(np.max(np.abs(a - a.T))), float(np.max(np.abs(a)))) if a.size else (0.0, 0.0)
            if gap > symmetry_tol * top:
                raise ValueError(f"matrix is not symmetric: max |a_ij - a_ji| = {gap:.3e}, largest |entry| {top:.3e}")
        m = a.shape[0]
        with np.errstate(over="ignore"):  # where a + a^T overflows, halving each triangle first is exact
            sym = 0.5 * (a + a.T)
        sym = np.where(np.isfinite(sym), sym, 0.5 * a + 0.5 * a.T)
        ii, jj = _pair_arrays(m)
        return cls(m, sym[ii, jj])

    @classmethod
    def from_diagonal(cls, values) -> "SymMatrix":
        return cls.from_full(np.diag(np.asarray(values, dtype=float)))

    @property
    def m(self) -> int:
        return self._m

    @property
    def packed(self) -> np.ndarray:
        return self._packed

    def __getitem__(self, ij) -> float:
        i, j = ij
        if i > j:
            i, j = j, i
        if not (0 <= i <= j < self._m):
            raise IndexError(ij)
        # offset of row i in the row-major upper triangle
        base = i * self._m - i * (i - 1) // 2
        return float(self._packed[base + (j - i)])

    def to_full(self) -> np.ndarray:
        a = np.zeros((self._m, self._m))
        ii, jj = _pair_arrays(self._m)
        a[ii, jj] = self._packed
        a[jj, ii] = self._packed
        return a

    def frobenius_sq(self) -> float:
        """tr(A^2), computed from the packed entries."""
        return inner_product(self, self)

    def __repr__(self):
        return f"SymMatrix(m={self._m})"

    def __eq__(self, other):
        return (
            isinstance(other, SymMatrix)
            and self._m == other._m
            and np.array_equal(self._packed, other._packed)
        )

    def __hash__(self):
        return hash((self._m, self._packed.tobytes()))


def ell_coords(a: SymMatrix) -> np.ndarray:
    """Flat coordinates: the entries a_ij for i <= j, row-major."""
    return a.packed.copy()


def omega_coords(a: SymMatrix) -> np.ndarray:
    """Orthonormal coordinates: a_ii on the diagonal, sqrt(2) a_ij off it."""
    return omega_coords_batch(a.to_full())


def ell_coords_batch(mats: np.ndarray) -> np.ndarray:
    """Flat coordinates of a stack of full symmetric matrices, shape (n, p)."""
    mats = np.asarray(mats, dtype=float)
    ii, jj = _pair_arrays(mats.shape[-1])
    return mats[..., ii, jj]


def omega_coords_batch(mats: np.ndarray) -> np.ndarray:
    mats = np.asarray(mats, dtype=float)
    ii, jj = _pair_arrays(mats.shape[-1])
    return np.where(ii == jj, 1.0, math.sqrt(2.0)) * mats[..., ii, jj]


def inner_product(a: SymMatrix, b: SymMatrix) -> float:
    """tr(AB) via the coordinate sum; exact up to machine rounding."""
    if a.m != b.m:
        raise ValueError("dimension mismatch")
    ii, jj = _pair_arrays(a.m)
    w = np.where(ii == jj, 1.0, 2.0)
    return float(np.sum(w * a.packed * b.packed))


@dataclass(frozen=True)
class EnsembleParams:
    """Parameters (m, u, v) of an invariant Gaussian ensemble; GOE has u = 0.

    The package's one admissibility rule: every public function that takes
    m or v builds ``EnsembleParams(m, 0.0, v)`` (or ``EnsembleParams(m)``)
    before it computes a reference or draws.
    """

    m: int
    u: float = 0.0
    v: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.m) or int(self.m) < 1 or self.m != int(self.m):
            raise ValueError("m must be a positive integer")
        if not (self.v > 0.0 and math.isfinite(self.v)):
            raise ValueError(
                f"v must be a positive finite number (admissibility requires v > 0), got v={self.v}"
            )
        if not math.isfinite(self.u):
            raise ValueError(f"u must be a finite number, got u={self.u}")
        if not (self.m * self.u + 2.0 * self.v > 0.0):
            raise ValueError(
                f"admissibility requires m*u + 2v > 0, got {self.m * self.u + 2.0 * self.v}"
            )

    @property
    def is_goe(self) -> bool:
        return self.u == 0.0


def map_goe_slabs(fn, m: int, v: float, n: int, rng: np.random.Generator, slab: int | None = None):
    """fn on n GOE(m, v) draws taken ``slab`` at a time (default: about SLAB_BYTES of matrices), rows in draw order.

    The diagonal block (n, m) is drawn first, then each slab's off-diagonal rows: consecutive row-chunks of
    one generator call are that call's numbers, so every matrix, and the generator's state after, is the
    whole block's.  fn maps an (s, m, m) slab, which it may overwrite, to s rows; they are stacked in an
    array laid out like fn's own (``empty_like``), so a reduction over them reads the bits of fn on the
    whole block.  One slab returns fn's result itself.
    """
    EnsembleParams(m, 0.0, v)
    slab = max(1, SLAB_BYTES // (8 * m * m)) if slab is None else slab
    diag, out = rng.normal(scale=math.sqrt(2.0 * v), size=(n, m)), None
    d, (iu, ju) = np.arange(m), _pair_arrays(m, 1)
    for start in range(0, max(n, 1), slab):
        a = np.zeros((min(slab, n - start), m, m))
        a[:, d, d] = diag[start:start + len(a)]
        diag = None if start + len(a) == n else diag  # freed, like the off-diagonal draws, before fn runs
        a[:, iu, ju] = rng.normal(scale=math.sqrt(v), size=(len(a), iu.size))
        a[:, ju, iu] = a[:, iu, ju]
        rows = fn(a)
        if len(a) == n:
            return rows
        out = np.empty_like(rows, shape=(n, *rows.shape[1:])) if out is None else out
        out[start:start + len(a)] = rows
    return out


def sample_goe_batch(m: int, v: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent GOE(m, v) draws as a stack of full matrices, shape (n, m, m): ``map_goe_slabs``' one slab,
    so a given stream state always produces the same matrices (diagonal block first, then off-diagonal block)."""
    return map_goe_slabs(lambda a: a, m, v, n, rng, slab=max(n, 1))


def sample_goe_tridiagonal(m: int, v: float, n: int, rng: np.random.Generator):
    """n tridiagonal matrices with the GOE(m, v) spectrum, without the matrices.

    Householder reduction of a GOE(m, v) draw leaves a symmetric tridiagonal
    matrix with independent N(0, 2v) diagonal entries and squared
    off-diagonals v chi^2_{m-1}, ..., v chi^2_1 (Dumitriu and Edelman, J. Math.
    Phys. 43, 2002).  Returns them step-major, row k holding entry k of every
    draw: the diagonals (m, n) and the squared off-diagonals (m - 1, n), both
    C-contiguous.  The diagonal block is drawn first, as in ``sample_goe_batch``
    and then transposed, so at m = 1 both draw the same numbers.
    """
    EnsembleParams(m, 0.0, v)
    diag = np.ascontiguousarray(rng.normal(scale=math.sqrt(2.0 * v), size=(n, m)).T)
    off_sq = np.empty((m - 1, n))
    for k, row in enumerate(off_sq):
        row[:] = rng.chisquare(m - 1 - k, size=n)
    off_sq *= v
    return diag, off_sq


def sample_suv_batch(params: EnsembleParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from the (u, v) ensemble as full matrices, shape (n, m, m).

    One construction for every admissible u: a GOE(m, v) draw whose diagonal
    g, covariance 2v I, becomes g + (sqrt((m u + 2v) / 2v) - 1) mean(g), with
    covariance 2v I + u J.  The factor is real exactly on the admissible range
    and exactly 0 at u = 0, so there the draw is the GOE draw bit for bit; the
    off-diagonal entries are the GOE draw's for every u.
    """
    m, u, v = params.m, params.u, params.v
    a = sample_goe_batch(m, v, n, rng)
    d = np.arange(m)
    g = a[:, d, d]
    a[:, d, d] = g + (math.sqrt((m * u + 2.0 * v) / (2.0 * v)) - 1.0) * g.mean(axis=1, keepdims=True)
    return a


def sample_suv(params: EnsembleParams, rng: np.random.Generator) -> SymMatrix:
    """One draw from the invariant ensemble (m, u, v); at u = 0, the GOE(m, v) draw."""
    return SymMatrix.from_full(sample_suv_batch(params, 1, rng)[0])


def goe_log_density(a: SymMatrix, v: float) -> float:
    """Log density of GOE(m, v) at A, relative to the orthonormal volume."""
    EnsembleParams(a.m, 0.0, v)
    m = a.m
    return -(m * (m + 1) / 4.0) * math.log(4.0 * math.pi * v) - a.frobenius_sq() / (4.0 * v)


def covariance_reference(params: EnsembleParams) -> np.ndarray:
    """Analytic second moments E[l_a l_b] of the flat coordinates, shape (p, p)."""
    # u [i = j][k = l] + v ([i = k][j = l] + [i = l][j = k]); as i <= j, k <= l the v term is diagonal
    on_diag = np.equal(*_pair_arrays(params.m))
    return params.u * np.outer(on_diag, on_diag) + params.v * np.diag(1.0 + on_diag)


@dataclass
class CovarianceAudit:
    """Every distinct empirical second moment against its target: ``z``, ``second_moments`` and ``reference`` hold
    the K = p (p + 1) / 2 products x_a x_b, b >= a, of the p flat coordinates, in ``np.triu_indices(p)`` order."""

    params: EnsembleParams
    n_samples: int
    seed: int
    z: np.ndarray
    second_moments: np.ndarray
    reference: np.ndarray

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.z)))

    @property
    def passed(self) -> bool:
        return self.max_abs_z <= Z_THRESHOLD

    def to_dict(self) -> dict:
        return {
            "m": self.params.m,
            "u": self.params.u,
            "v": self.params.v,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "max_abs_z": self.max_abs_z,
            "n_moments": self.z.size,
            "pass": self.passed,
        }


def covariance_audit(
    params: EnsembleParams, n_samples: int, seed: int = 0, workers: int | None = None
) -> CovarianceAudit:
    """Audit the K = p (p + 1) / 2 distinct second moments of the flat coordinates at 4 SE each."""

    def block(rng, size):
        coords = ell_coords_batch(sample_suv_batch(params, size, rng))
        # one row of distinct products x_a x_b, b >= a, at a time keeps the block at (size, p)
        rows = [Moments.of(coords[:, a, None] * coords[:, a:]) for a in range(coords.shape[1])]
        return Moments(size, np.concatenate([r.mean for r in rows]), np.concatenate([r.m2 for r in rows]))

    mom = map_chunks(block, n_samples, seed, _worker_count(workers))
    ref = covariance_reference(params)[_pair_arrays(sym_dim(params.m))]
    return CovarianceAudit(params, n_samples, seed, z_scores(mom.mean, ref, mom.std_error), mom.mean, ref)


@contextlib.contextmanager
def _opened(path_or_file, mode: str = "r"):
    """The file itself when given an open one, else the path opened in ``mode`` and closed after."""
    if hasattr(path_or_file, "write" if "w" in mode else "read"):
        yield path_or_file
    else:
        with open(path_or_file, mode) as fh:
            yield fh


def write_matrix(a: SymMatrix, path_or_file) -> None:
    """Write the plain-text interchange format: first line m, then m rows."""
    with _opened(path_or_file, "w") as fh:
        fh.write(f"{a.m}\n")
        for row in a.to_full():
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def _read_one(lines, pos) -> tuple[SymMatrix, int]:
    while pos < len(lines) and not lines[pos].strip():
        pos += 1
    if pos >= len(lines):
        raise ValueError("no matrix found")
    try:
        m = int(lines[pos].strip())
    except ValueError as exc:
        raise ValueError(f"expected a dimension on line {pos + 1}") from exc
    if m < 1:
        raise ValueError("matrix dimension must be positive")
    rows = []
    for r in range(m):
        if pos + 1 + r >= len(lines):
            raise ValueError("truncated matrix file")
        row = [float(tok) for tok in lines[pos + 1 + r].split()]
        if len(row) != m:
            raise ValueError(f"row {r} has {len(row)} entries, expected {m}")
        if not all(map(math.isfinite, row)):
            raise ValueError(f"row {r} has a non-finite entry")
        rows.append(row)
    a = np.array(rows)
    return SymMatrix.from_full(a, symmetry_tol=FILE_SYMMETRY_TOL), pos + 1 + m


def read_matrix(path_or_file) -> SymMatrix:
    """Read one matrix in the interchange format; rejects asymmetry above 1e-9 times the largest |entry|."""
    with _opened(path_or_file) as fh:
        text = fh.read()
    mat, _ = _read_one(text.splitlines(), 0)
    return mat


def read_matrices(path_or_file) -> list[SymMatrix]:
    """Read every matrix block in a file."""
    with _opened(path_or_file) as fh:
        text = fh.read()
    lines = text.splitlines()
    out = []
    pos = 0
    while True:
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            break
        mat, pos = _read_one(lines, pos)
        out.append(mat)
    return out
