"""Dense complex linear algebra kernels with deterministic conventions.

All functions operate on plain numpy arrays (complex128) and are pure, so they
are safe to call from parallel workers.  Spectral decompositions follow a fixed
convention -- values in descending order, exact ties broken by lexicographic
comparison of the phase-normalized vectors, first nonzero component of every
vector made real positive -- so identical inputs produce identical outputs
across runs and platforms with the same BLAS.  The convention is applied with
whole-array operations: a tie-break is searched for only among exactly equal
values, and the result is bit-identical to applying it one column at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITIAN_ATOL = 1e-8   # rejection threshold for operators that must be Hermitian
PSD_EIG_FLOOR = -1e-9   # eigenvalues above this are treated as rounding and clamped to 0
PINV_RTOL = 1e-10       # relative singular-value cutoff for pseudoinverses
_PHASE_ATOL = 1e-12


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex128 ndarray, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def is_hermitian(m, atol: float = HERMITIAN_ATOL) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return float(np.abs(m - m.conj().T).max(initial=0.0)) <= atol


def frobenius(m) -> float:
    return float(np.linalg.norm(m))


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(as_complex_matrix(m), compute_uv=False).sum())


def _pivots(vecs: np.ndarray) -> list:
    """First entry above _PHASE_ATOL of every column, as numpy scalars.

    The columns are unit vectors, so each has such an entry.
    """
    if vecs.shape[0] == 0:
        return []
    first = (np.abs(vecs) > _PHASE_ATOL).argmax(axis=0)
    return list(vecs[first, np.arange(vecs.shape[1])])


def _canonical_order(w: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Indices sorting w descending, exact ties by the rounded columns.

    The tie-break key of a column is its interleaved (re, im, re, im, ...)
    entries rounded to 12 decimals, compared lexicographically; it is only
    built when two values are exactly equal.
    """
    values = w.tolist()
    if len(set(values)) == len(values):
        return np.argsort(-w, kind="stable")
    keys = np.round(np.ascontiguousarray(vecs.T).view(np.float64), 12)
    return np.lexsort(tuple(keys[:, ::-1].T) + (-w,))


def eigh_desc(h, name: str = "matrix", atol: float = HERMITIAN_ATOL):
    """Eigendecomposition of a Hermitian matrix in the canonical order.

    Returns (values, vectors) with values descending; exact value ties are
    ordered by lexicographic comparison of the phase-normalized vectors.
    """
    h = as_complex_matrix(h, name)
    if not is_hermitian(h, atol):
        raise ValueError(f"{name} is not Hermitian within {atol:g}")
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    # one scalar division per column, as the convention defines the factor:
    # numpy's vectorized complex division can differ from it in the last bit
    v = v * np.array([abs(p) / p for p in _pivots(v)], dtype=np.complex128)
    order = _canonical_order(w, v)
    return w[order], v[:, order]


def svd_canonical(m):
    """SVD with the deterministic phase and tie-break convention.

    Returns (u, s, vh) with m = u @ diag(s) @ vh, s descending, first nonzero
    entry of each left vector real positive.
    """
    m = as_complex_matrix(m)
    u, s, vh = np.linalg.svd(m)
    r = len(s)
    ph = np.array([p / abs(p) for p in _pivots(u[:, :r])], dtype=np.complex128)
    u[:, :r] = u[:, :r] / ph
    vh[:r, :] = vh[:r, :] * ph[:, None]
    order = _canonical_order(s, u[:, :r])
    if np.any(order != np.arange(r)):
        s = s[order]
        u[:, :r] = u[:, :r][:, order]
        vh[:r, :] = vh[:r, :][order, :]
    return u, s, vh


def tensor(a, b) -> np.ndarray:
    """Kronecker product."""
    return np.kron(as_complex_matrix(a, "a"), as_complex_matrix(b, "b"))


def partial_trace(m, dims: tuple[int, int], side: str = "right") -> np.ndarray:
    """Trace out one tensor factor of an operator on C^(da*db).

    `side` names the factor that is traced out; the result acts on the other.
    """
    da, db = dims
    m = as_complex_matrix(m)
    if m.shape != (da * db, da * db):
        raise ValueError(f"expected a {da * db}x{da * db} matrix, got {m.shape}")
    t = m.reshape(da, db, da, db)
    if side == "right":
        return np.einsum("ijkj->ik", t)
    if side == "left":
        return np.einsum("ijil->jl", t)
    raise ValueError("side must be 'left' or 'right'")


def mat_sqrt(p, name: str = "operator") -> np.ndarray:
    """PSD square root of a PSD Hermitian matrix (tiny negative eigenvalues clamped)."""
    w, v = eigh_desc(p, name)
    if w.size and w[-1] < PSD_EIG_FLOOR:
        raise ValueError(f"{name} has eigenvalue {w[-1]:.3e} below {PSD_EIG_FLOOR:g}")
    r = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (r + r.conj().T) / 2


def pinv(m, rtol: float = PINV_RTOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse; singular values below rtol*max are dropped."""
    return np.linalg.pinv(as_complex_matrix(m), rcond=rtol)


def polar_psd_factor(m) -> np.ndarray:
    """Unitary u such that u @ m is positive semidefinite.

    From the singular value decomposition m = w s v+, the factor is v w+,
    which carries m onto v s v+.  Deterministic given m; on the null space the
    factor is completed by the decomposition's remaining (canonicalized)
    vectors.
    """
    m = as_complex_matrix(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("square matrix required")
    u, _, vh = svd_canonical(m)
    return vh.conj().T @ u.conj().T


@dataclass(frozen=True)
class SchmidtDecomposition:
    """psi = sum_k coefficients[k] * left_basis[:, k] (x) right_basis[:, k]."""

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def reconstruct(self) -> np.ndarray:
        m = (self.left_basis * self.coefficients) @ self.right_basis.T
        return m.reshape(-1)


def schmidt(psi, dims: tuple[int, int] | None = None) -> SchmidtDecomposition:
    """Schmidt decomposition of a bipartite unit vector.

    Coefficients are nonincreasing and real nonnegative; the first nonzero
    entry of every left vector is real positive.
    """
    psi = as_complex_matrix(psi, "psi").reshape(-1)
    if dims is None:
        d = math.isqrt(psi.size)
        if d * d != psi.size:
            raise ValueError("state length is not a perfect square; pass dims")
        dims = (d, d)
    dl, dr = dims
    if dl * dr != psi.size:
        raise ValueError(f"dims {dims} incompatible with state length {psi.size}")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"state norm {nrm!r} is not 1 within 1e-9")
    u, s, vh = svd_canonical(psi.reshape(dl, dr))
    k = min(dl, dr)
    return SchmidtDecomposition(s, u[:, :k], vh[:k, :].conj().T)


def check_pure(psi, atol: float = 1e-9) -> np.ndarray:
    psi = as_complex_matrix(psi, "psi").reshape(-1)
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > atol:
        raise ValueError(f"state norm {nrm!r} differs from 1 by more than {atol:g}")
    return psi


def density_spectrum(rho, vectors: bool = False, herm_atol: float = 1e-10,
                     eig_floor: float = PSD_EIG_FLOOR, trace_atol: float = 1e-9):
    """Validate a density matrix and keep the spectrum the check computed.

    Returns (rho, w, v): rho as a complex matrix, w its eigenvalues in
    ascending order, v the matching eigenvectors when `vectors` is true and
    None otherwise.  The decomposition is the plain LAPACK one, with no
    canonical phase or tie order; it suits quantities that depend on the
    spectrum and the eigenspaces only.
    """
    rho = as_complex_matrix(rho, "rho")
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    rho_h = rho.conj().T
    if float(np.abs(rho - rho_h).max(initial=0.0)) > herm_atol:
        raise ValueError(f"density matrix not Hermitian within {herm_atol:g}")
    h = (rho + rho_h) / 2
    if vectors:
        w, v = np.linalg.eigh(h)
    else:
        w, v = np.linalg.eigvalsh(h), None
    if w.size and w[0] < eig_floor:
        raise ValueError(f"density matrix has eigenvalue {w[0]:.3e} below {eig_floor:g}")
    tr = float(rho.trace().real)
    if abs(tr - 1.0) > trace_atol:
        raise ValueError(f"density matrix trace {tr!r} differs from 1 by more than {trace_atol:g}")
    return rho, w, v


def check_density(rho, herm_atol: float = 1e-10, eig_floor: float = PSD_EIG_FLOOR,
                  trace_atol: float = 1e-9) -> np.ndarray:
    """Validate a density matrix (Hermitian, PSD up to clamping, unit trace)."""
    return density_spectrum(rho, False, herm_atol, eig_floor, trace_atol)[0]


def trace_distance(rho, sigma) -> float:
    """(1/2) trace norm of the difference of two Hermitian operators."""
    d = as_complex_matrix(rho) - as_complex_matrix(sigma)
    if not is_hermitian(d, 1e-8):
        raise ValueError("trace_distance expects Hermitian operands")
    w = np.linalg.eigvalsh((d + d.conj().T) / 2)
    return float(np.clip(0.5 * np.abs(w).sum(), 0.0, 1.0))


def fidelity(rho, sigma) -> float:
    """Trace norm of sqrt(rho) sqrt(sigma)."""
    a = mat_sqrt(rho, "rho")
    b = mat_sqrt(sigma, "sigma")
    return float(np.clip(trace_norm(a @ b), 0.0, 1.0))


@dataclass(frozen=True)
class StateMetrics:
    trace_distance: float
    fidelity: float


def metrics(rho, sigma) -> StateMetrics:
    rho = as_complex_matrix(rho, "rho")
    sigma = as_complex_matrix(sigma, "sigma")
    if rho.shape != sigma.shape:
        raise ValueError(f"shape mismatch: {rho.shape} vs {sigma.shape}")
    return StateMetrics(trace_distance(rho, sigma), fidelity(rho, sigma))


def symmetric_purification(rho) -> np.ndarray:
    """Purification sum_k sqrt(lambda_k) |v_k>|v_k> in rho's canonical eigenbasis."""
    rho = check_density(rho)
    w, v = eigh_desc(rho, "rho", atol=1e-8)
    m = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    psi = m.reshape(-1)
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# seeded random instances (used by the property sweeps and tests)

def random_unitary(d: int, rng=None) -> np.ndarray:
    """Haar-distributed unitary."""
    rng = np.random.default_rng(rng)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_pure(dim: int, rng=None) -> np.ndarray:
    rng = np.random.default_rng(rng)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def random_density(d: int, rank: int | None = None, rng=None) -> np.ndarray:
    rng = np.random.default_rng(rng)
    rank = d if rank is None else rank
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def random_psd(d: int, scale: float = 1.0, rng=None) -> np.ndarray:
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (g @ g.conj().T) / d


def random_matrix(d: int, rng=None) -> np.ndarray:
    rng = np.random.default_rng(rng)
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
