"""Dense complex linear algebra kernels with deterministic conventions.

All functions operate on plain numpy arrays (complex128) and are pure.  The
density and spectral kernels take a `(..., d, d)` stack and answer per matrix
with one LAPACK call; a 2-D input is a stack of one, whose scalar results are
Python floats.  Spectral decompositions follow a fixed convention -- values in
descending order, exact ties broken by lexicographic comparison of the
phase-normalized vectors, first nonzero component of every vector made real
positive -- so identical inputs produce identical outputs across runs and
platforms with the same BLAS.  The convention is applied with whole-array
operations and is bit-identical to applying it one column at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# README "Tolerances" lists every cut of the package, with its reason.
HERMITIAN_ATOL = 1e-8   # largest |m - m^+| entry of an operator taken as Hermitian
DENSITY_HERMITIAN_ATOL = 1e-10  # the same for a density matrix
PSD_EIG_FLOOR = -1e-9   # eigenvalues above: rounding, clamped to 0; below: refused
TRACE_ATOL = 1e-9       # largest |tr rho - 1| of a density matrix
NORM_ATOL = 1e-9        # largest | |psi| - 1 | of a state vector
PHASE_ATOL = 1e-12      # a unit vector's entries at most this are not its pivot
TIE_DECIMALS = 12       # decimals of the vectors that order equal eigenvalues


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex128 ndarray, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def dagger(m) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def collapse(x):
    """A 0-d result as a Python scalar; a stack's results as the array."""
    return x.item() if np.ndim(x) == 0 else x


def is_hermitian(m) -> bool:
    """True when m (every matrix of a stack) is square and Hermitian within
    HERMITIAN_ATOL."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    return float(np.abs(m - dagger(m)).max(initial=0.0)) <= HERMITIAN_ATOL


def frobenius(m) -> float:
    return float(np.linalg.norm(m))


def trace_norm(m):
    """Sum of singular values."""
    return collapse(np.linalg.svd(as_complex_matrix(m), compute_uv=False).sum(-1))


def _pivots(vecs: np.ndarray) -> np.ndarray:
    """First entry above PHASE_ATOL of every (unit) column of an (n, d, k) stack."""
    if vecs.shape[1] == 0:
        return np.ones(vecs.shape[::2], dtype=np.complex128)
    first = (np.abs(vecs) > PHASE_ATOL).argmax(axis=1)
    return vecs[np.arange(len(vecs))[:, None], first, np.arange(vecs.shape[2])]


def _tie_orders(w: np.ndarray, vecs: np.ndarray) -> list:
    """(i, order) for each row i of an (n, k) w with two equal values: order
    sorts w[i] descending, exact ties by the columns of vecs[i] (interleaved
    (re, im, ...) entries rounded to TIE_DECIMALS, compared lexicographically)."""
    out = []
    for i, row in enumerate(w.tolist()):
        if len(set(row)) < len(row):
            keys = np.round(np.ascontiguousarray(vecs[i].T).view(np.float64), TIE_DECIMALS)
            out.append((i, np.lexsort(np.concatenate([keys.T[::-1], -w[i][None]]))))
    return out


def eigh_desc(h, name: str = "matrix"):
    """Eigendecomposition of a Hermitian matrix (or stack) in the canonical order.

    Returns (values, vectors) with values descending; exact value ties are
    ordered by lexicographic comparison of the phase-normalized vectors.
    """
    h = as_complex_matrix(h, name)
    if not is_hermitian(h):
        raise ValueError(f"{name} is not Hermitian within {HERMITIAN_ATOL:g}")
    w, v = np.linalg.eigh((h + dagger(h)) / 2)
    shape, n = v.shape, math.prod(v.shape[:-2])
    w, v = w.reshape(n, shape[-1]), v.reshape((n,) + shape[-2:])
    # one scalar division per column, as the convention defines the factor:
    # numpy's vectorized complex division can differ from it in the last bit
    phases = np.array([abs(p) / p for p in _pivots(v).ravel()], dtype=np.complex128)
    v = v * phases.reshape(n, 1, shape[-1])
    w, v = w[:, ::-1].copy(), v[:, :, ::-1].copy()   # LAPACK's order is ascending
    for i, order in _tie_orders(w, v):
        w[i], v[i] = w[i].take(order), v[i].take(order, axis=1)
    return w.reshape(shape[:-1]), v.reshape(shape)


def svd_canonical(m):
    """SVD of a matrix (or stack) with the deterministic phase and tie-break convention.

    Returns (u, s, vh) with m = u @ diag(s) @ vh, s descending, first nonzero
    entry of each left vector real positive.
    """
    m = as_complex_matrix(m)
    u, s, vh = np.linalg.svd(m)
    r, n = s.shape[-1], math.prod(s.shape[:-1])
    ushape, vshape = u.shape, vh.shape
    u, s, vh = u.reshape((n,) + ushape[-2:]), s.reshape(n, r), vh.reshape((n,) + vshape[-2:])
    # one scalar division per column, as in eigh_desc
    ph = np.array([p / abs(p) for p in _pivots(u[:, :, :r]).ravel()],
                  dtype=np.complex128).reshape(n, r)
    u[:, :, :r] = u[:, :, :r] / ph[:, None, :]
    vh[:, :r, :] = vh[:, :r, :] * ph[:, :, None]
    for i, order in _tie_orders(s, u[:, :, :r]):
        s[i] = s[i][order]
        u[i, :, :r] = u[i, :, :r][:, order]
        vh[i, :r, :] = vh[i, :r, :][order, :]
    return u.reshape(ushape), s.reshape(ushape[:-2] + (r,)), vh.reshape(vshape)


def psd_eigh(p, name: str = "operator") -> tuple:
    """Plain LAPACK eigenpairs (values ascending) of a PSD Hermitian matrix
    or stack, refused when not Hermitian within HERMITIAN_ATOL or when an
    eigenvalue lies below PSD_EIG_FLOOR."""
    p = as_complex_matrix(p, name)
    if not is_hermitian(p):
        raise ValueError(f"{name} is not Hermitian within {HERMITIAN_ATOL:g}")
    w, v = np.linalg.eigh((p + dagger(p)) / 2)
    if np.count_nonzero(w < PSD_EIG_FLOOR):
        raise ValueError(f"{name} has eigenvalue {w.min():.3e} below {PSD_EIG_FLOOR:g}")
    return w, v


def mat_sqrt(p, name: str = "operator") -> np.ndarray:
    """PSD square root of a PSD Hermitian matrix or stack (tiny negative eigenvalues clamped).

    The root does not depend on the eigenbasis, so the plain LAPACK
    decomposition serves; no canonical phase or tie order is applied.
    """
    w, v = psd_eigh(p, name)
    r = (v * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ dagger(v)
    return (r + dagger(r)) / 2


def polar_psd_factor(m) -> np.ndarray:
    """Unitary u such that u @ m is positive semidefinite, for a matrix or stack.

    From the singular value decomposition m = w s v+, the factor is v w+,
    which carries m onto v s v+.  The factor sums v_k w_k+ over singular
    pairs, so it does not depend on their phases or on their order within
    ties: the plain LAPACK decomposition gives the factor of the canonical
    one.  On the null space the factor is completed by the decomposition's
    remaining vectors, deterministically given m.
    """
    m = as_complex_matrix(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("square matrix required")
    u, _, vh = np.linalg.svd(m)
    return dagger(vh) @ dagger(u)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """psi = sum_k coefficients[k] * left_basis[:, k] (x) conj(right_basis[:, k])."""

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray


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
    if abs(nrm - 1.0) > NORM_ATOL:
        raise ValueError(f"state norm {nrm!r} is not 1 within {NORM_ATOL:g}")
    u, s, vh = svd_canonical(psi.reshape(dl, dr))
    k = min(dl, dr)
    return SchmidtDecomposition(s, u[:, :k], vh[:k, :].conj().T)


def check_pure(psi) -> np.ndarray:
    psi = as_complex_matrix(psi, "psi").reshape(-1)
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > NORM_ATOL:
        raise ValueError(f"state norm {nrm!r} differs from 1 by more than {NORM_ATOL:g}")
    return psi


def density_spectrum(rho, vectors: bool = False):
    """Validate a density matrix (or stack) and keep the spectrum the check computed.

    Returns (rho, w, v): rho as a complex array, w each matrix's eigenvalues
    ascending, v the eigenvectors when `vectors` is true and None otherwise.
    The decomposition is the plain LAPACK one, with no canonical phase or tie
    order.  A stack is refused with the message of its worst matrix.
    """
    rho = as_complex_matrix(rho, "rho")
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError("density matrix must be square")
    rho_h = dagger(rho)
    if float(np.abs(rho - rho_h).max(initial=0.0)) > DENSITY_HERMITIAN_ATOL:
        raise ValueError(f"density matrix not Hermitian within {DENSITY_HERMITIAN_ATOL:g}")
    h = (rho + rho_h) / 2
    if vectors:
        w, v = np.linalg.eigh(h)
    else:
        w, v = np.linalg.eigvalsh(h), None
    if np.count_nonzero(w < PSD_EIG_FLOOR):
        raise ValueError(f"density matrix has eigenvalue {w.min():.3e} below {PSD_EIG_FLOOR:g}")
    tr = rho.trace(axis1=-2, axis2=-1).real.ravel()
    if np.count_nonzero(np.abs(tr - 1.0) > TRACE_ATOL):
        tr = float(tr[np.abs(tr - 1.0).argmax()])
        raise ValueError(f"density matrix trace {tr!r} differs from 1 by more than {TRACE_ATOL:g}")
    return rho, w, v


def check_density(rho) -> np.ndarray:
    """Validate a density matrix (Hermitian, PSD up to clamping, unit trace)."""
    return density_spectrum(rho)[0]


def trace_distance(rho, sigma):
    """(1/2) trace norm of the difference of two Hermitian operators."""
    d = as_complex_matrix(rho) - as_complex_matrix(sigma)
    if not is_hermitian(d):
        raise ValueError("trace_distance expects Hermitian operands")
    w = np.linalg.eigvalsh((d + dagger(d)) / 2)
    return collapse(np.clip(0.5 * np.abs(w).sum(-1), 0.0, 1.0))


def fidelity(rho, sigma):
    """Trace norm of sqrt(rho) sqrt(sigma)."""
    a = mat_sqrt(rho, "rho")
    b = mat_sqrt(sigma, "sigma")
    return collapse(np.clip(trace_norm(a @ b), 0.0, 1.0))


def symmetric_purification(rho) -> np.ndarray:
    """Purification sum_k sqrt(lambda_k) |v_k>|v_k> in rho's canonical eigenbasis."""
    rho = check_density(rho)
    w, v = eigh_desc(rho, "rho")
    m = (v * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ v.swapaxes(-1, -2)
    return _unit(m.reshape(m.shape[:-2] + (-1,)))


# ---------------------------------------------------------------------------
# seeded random instances (used by the property sweeps and tests); `count`
# draws a stack in one call, a different stream from `count` single draws

def _unit(psi: np.ndarray) -> np.ndarray:
    """Each vector over its norm, summed as np.linalg.norm sums one vector."""
    sq = (psi.real[..., None, :] @ psi.real[..., :, None]
          + psi.imag[..., None, :] @ psi.imag[..., :, None])
    return psi / np.sqrt(sq[..., 0])


def _gaussian(shape: tuple, count, rng) -> np.ndarray:
    rng = np.random.default_rng(rng)
    shape = shape if count is None else (count,) + shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_pure(dim: int, rng=None, count: int | None = None) -> np.ndarray:
    return _unit(_gaussian((dim,), count, rng))


def random_density(d: int, rank: int | None = None, rng=None, count: int | None = None):
    g = _gaussian((d, d if rank is None else rank), count, rng)
    rho = g @ dagger(g)
    return rho / np.real(np.trace(rho, axis1=-2, axis2=-1))[..., None, None]


def random_psd(d: int, rng=None, count: int | None = None):
    g = random_matrix(d, rng, count)
    return (g @ dagger(g)) / d


def random_matrix(d: int, rng=None, count: int | None = None) -> np.ndarray:
    return _gaussian((d, d), count, rng)
